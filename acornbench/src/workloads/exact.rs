//! `exact-churn`: the exact composite on sixteen 3×3 enterprise floors.
//!
//! Each instance of the panel is one floor for 15 minutes: session churn
//! at the per-AP enterprise rate (`n_aps/300` arrivals per second, 27
//! arrivals), one walking client, shadowing drift and Algorithm 2 every
//! 300 s, all on the exact controller with no goodput table. How long a
//! floor takes depends on its plan, so the panel sums sixteen. Every
//! arrival rebuilds the throughput model through the union-bound
//! estimator, so this is the estimator-bound workload; drift and
//! mobility move SNRs between arrivals, so a memo keyed on SNR would
//! take misses as well as hits.

use super::{arrival_failures, checkpoints, drive, stream, sub_seed, Outcome, Reference, Replay};
use crate::probe::{AllocPath, LayerProbe};
use crate::wrap::{SharedClock, Timed};
use acorn_core::{AcornConfig, AcornController};
use acorn_events::{
    AcornWorld, CompositeScenario, DriftProcess, DriftSpec, MobilityProcess, MobilitySpec,
    ReallocationTimer, SeedPolicy, SessionProcess, Simulation,
};
use acorn_sim::scenario::enterprise_grid;
use acorn_topology::{ClientId, Point, Trajectory};
use acorn_traces::{AssociationDurations, Session};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const INSTANCES: usize = 16;
const SIDE: usize = 3;
const HORIZON_S: f64 = 900.0;
const PERIOD_S: f64 = 300.0;
const RESTARTS: usize = 2;

/// The workload's registry entry.
pub const WORKLOAD: super::Workload = super::Workload {
    name: "exact-churn",
    instances: INSTANCES,
    setup,
    replay,
    reference,
    uses_table: false,
    alloc: AllocPath::Whole,
    restarts: RESTARTS,
};

/// Model draws per duration quantile (see [`fixed_load_trace`]).
const DRAWS_PER_STRATUM: usize = 64;

/// A session trace with a fixed load: `n` arrivals, one at a seeded
/// offset inside each of `n` equal slots of the horizon, with durations
/// at evenly spaced quantiles of the CRAWDAD-fit model (estimated from
/// `64·n` seeded draws) handed to the arrivals in seeded order. Every
/// seed carries the same arrival count and duration mix, so the
/// estimator work a seed asks for stays put; the arrival times, which
/// sessions overlap and the deployment still come from the seed.
fn fixed_load_trace(n: usize, horizon_s: f64, rng: &mut StdRng) -> Vec<Session> {
    let mut pool = AssociationDurations::default().sample_n(rng, n * DRAWS_PER_STRATUM);
    pool.sort_by(f64::total_cmp);
    let mut durations: Vec<f64> = (0..n)
        .map(|i| pool[i * DRAWS_PER_STRATUM + DRAWS_PER_STRATUM / 2])
        .collect();
    durations.shuffle(rng);
    let slot = horizon_s / n as f64;
    durations
        .into_iter()
        .enumerate()
        .map(|(i, duration_s)| Session {
            client: i,
            start_s: (i as f64 + rng.gen_range(0.0..1.0)) * slot,
            duration_s,
        })
        .collect()
}

/// Builds the scenario for `seed` on a `side × side` floor: a fixed-load
/// trace at the per-AP enterprise rate, deployment, walk, drift.
fn scenario(seed: u64, side: usize, horizon_s: f64) -> CompositeScenario {
    let n_aps = side * side;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, stream::TRACE));
    let n_sessions = (n_aps as f64 / 300.0 * horizon_s).round() as usize;
    let sessions = fixed_load_trace(n_sessions, horizon_s, &mut rng);
    // One spare client slot for the walker.
    let n_clients = sessions.len() + 1;
    let wlan = enterprise_grid(side, side, 50.0, n_clients, sub_seed(seed, stream::DEPLOY));
    let mobile = ClientId(n_clients - 1);
    let from = wlan.clients[mobile.0].pos;
    CompositeScenario {
        wlan,
        sessions,
        horizon_s,
        reallocation_period_s: PERIOD_S,
        restarts: RESTARTS,
        adapt_widths: true,
        mobility: Some(MobilitySpec {
            client: mobile,
            trajectory: Trajectory {
                from,
                to: Point::new(from.x + 50.0, from.y),
                speed_mps: 0.02,
            },
            sample_period_s: 60.0,
        }),
        drift: Some(DriftSpec {
            period_s: 600.0,
            phase_step_rad: 0.02,
        }),
        faults: None,
        seed: sub_seed(seed, stream::SCENARIO),
        record_log: false,
    }
}

/// The exact controller (no goodput table).
fn controller() -> AcornController {
    AcornController::new(AcornConfig::default())
}

/// The set-up: scenario, controller and world for `seed`.
fn build(seed: u64) -> (CompositeScenario, AcornWorld) {
    let sc = scenario(seed, SIDE, HORIZON_S);
    let world = AcornWorld::new(sc.wlan.clone(), controller(), sc.seed);
    (sc, world)
}

fn setup(seed: u64) -> f64 {
    super::time_setup(|| build(seed))
}

/// Runs `world` through `sc`'s processes, each wrapped — the same
/// registration order and parameters as `CompositeScenario::run` without
/// faults. `setup_s` is carried into the replay record.
fn run_wrapped(
    sc: CompositeScenario,
    world: AcornWorld,
    setup_s: f64,
    probe: Option<&mut LayerProbe>,
) -> (Replay, Outcome) {
    let clock = SharedClock::default();
    let t0 = Instant::now();
    let mut sim = Simulation::new(world);
    sim.add_process(Timed::boxed(
        SessionProcess {
            sessions: sc.sessions,
            horizon_s: sc.horizon_s,
            adapt_widths: sc.adapt_widths,
        },
        &clock,
    ));
    sim.add_process(Timed::boxed(
        ReallocationTimer {
            period_s: sc.reallocation_period_s,
            horizon_s: sc.horizon_s,
            restarts: sc.restarts,
            adapt_widths: sc.adapt_widths,
            seed_policy: SeedPolicy::FromEventSeq { base: sc.seed },
            safe_mode: false,
        },
        &clock,
    ));
    if let Some(m) = sc.mobility {
        sim.add_process(Timed::boxed(
            MobilityProcess {
                client: m.client,
                trajectory: m.trajectory,
                sample_period_s: m.sample_period_s,
                horizon_s: sc.horizon_s,
                adapt_widths: sc.adapt_widths,
            },
            &clock,
        ));
    }
    if let Some(d) = sc.drift {
        sim.add_process(Timed::boxed(
            DriftProcess {
                period_s: d.period_s,
                horizon_s: sc.horizon_s,
                phase_step_rad: d.phase_step_rad,
            },
            &clock,
        ));
    }
    let stops = checkpoints(
        sc.reallocation_period_s,
        sc.reallocation_period_s,
        sc.horizon_s,
    );
    let (events, probe_s) = drive(&mut sim, &stops, sc.horizon_s, probe);
    let wall_s = t0.elapsed().as_secs_f64() - probe_s;
    let telemetry = sim.telemetry.snapshot();
    let (attempted, failed) = arrival_failures(&telemetry);
    (
        Replay {
            setup_s,
            wall_s,
            probe_s,
            clock: clock.take(),
            attempted,
            failed,
        },
        Outcome {
            events,
            telemetry,
            state: sim.world.state,
        },
    )
}

fn replay(seed: u64, probe: Option<&mut LayerProbe>) -> (Replay, Outcome) {
    let t0 = Instant::now();
    let (sc, world) = build(seed);
    run_wrapped(sc, world, t0.elapsed().as_secs_f64(), probe)
}

fn reference(seed: u64) -> Reference {
    let r = scenario(seed, SIDE, HORIZON_S).run(&controller());
    let network_bps = super::mean_after_bps(&r.realloc);
    Reference {
        outcome: Outcome {
            events: r.stats.events,
            telemetry: r.telemetry,
            state: r.final_state,
        },
        network_bps,
        errors: Vec::new(),
        rows: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{compare, ALL};

    fn tiny(seed: u64) -> CompositeScenario {
        scenario(seed, 2, 600.0)
    }

    fn wrapped(seed: u64, probe: Option<&mut LayerProbe>) -> (Replay, Outcome) {
        let sc = tiny(seed);
        let world = AcornWorld::new(sc.wlan.clone(), controller(), sc.seed);
        run_wrapped(sc, world, 0.0, probe)
    }

    fn reference_outcome(seed: u64) -> Outcome {
        let r = tiny(seed).run(&controller());
        Outcome {
            events: r.stats.events,
            telemetry: r.telemetry,
            state: r.final_state,
        }
    }

    #[test]
    fn the_wrapper_is_transparent() {
        let want = reference_outcome(3);
        let (got, outcome) = wrapped(3, None);
        assert!(outcome.events > 0);
        assert_eq!(compare(&outcome, &want), Ok(()));
        let timed: u64 = crate::wrap::Handler::ALL
            .iter()
            .map(|&h| got.clock.calls(h))
            .sum();
        assert_eq!(timed, outcome.events, "every event went through a clock");
        assert_eq!(
            got.clock.arrival_s.len() as u64,
            got.attempted,
            "one latency sample per arrival"
        );
    }

    #[test]
    fn stepping_through_probe_checkpoints_is_transparent() {
        let want = reference_outcome(5);
        let mut probe = LayerProbe::new(false, AllocPath::Whole, RESTARTS, 5);
        let (got, outcome) = wrapped(5, Some(&mut probe));
        assert_eq!(compare(&outcome, &want), Ok(()));
        assert!(got.probe_s > 0.0);
        assert!(probe.samples.contains_key("phy.estimate_us"));
    }

    #[test]
    fn a_different_seed_is_caught_as_a_mismatch() {
        let want = reference_outcome(3);
        let (_, outcome) = wrapped(4, None);
        assert!(compare(&outcome, &want).is_err());
    }

    #[test]
    fn every_seed_carries_the_same_load() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let ta = fixed_load_trace(108, 3600.0, &mut a);
        let tb = fixed_load_trace(108, 3600.0, &mut b);
        assert_eq!((ta.len(), tb.len()), (108, 108));
        let total = |t: &[Session]| t.iter().map(|s| s.duration_s).sum::<f64>();
        let (da, db) = (total(&ta), total(&tb));
        assert!((da - db).abs() < 0.05 * da, "{da} vs {db}");
        assert_ne!(ta, tb, "arrival times and order still follow the seed");
        for (i, s) in ta.iter().enumerate() {
            assert!(s.start_s >= i as f64 * 3600.0 / 108.0);
            assert!(s.start_s < (i + 1) as f64 * 3600.0 / 108.0);
        }
    }

    #[test]
    fn workload_names_are_unique() {
        for (i, a) in ALL.iter().enumerate() {
            assert!(ALL[i + 1..].iter().all(|b| b.name != a.name));
        }
    }
}
