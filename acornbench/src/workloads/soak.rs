//! `soak-faults`: one virtual day of chaos soak on 64 APs, four times.
//!
//! Each instance of the panel is `city_grid(4, 2)` with 400 client
//! slots, the streaming diurnal workload, re-allocation every 30 min, a
//! goodput probe every minute, the invariant watchdog, and a steady fault
//! plan: AP crashes, 10% control-frame loss, corruption, delays and
//! measurement faults, with a 10 s control round. The control round's
//! measurement → beacon encode → fault gauntlet → parse path carries
//! most of the load. It is also the workload of the city layer (spatial
//! candidates, table lookups, incremental city state, sharded
//! Algorithm 2) under churn.

use super::{arrival_failures, checkpoints, drive, stream, sub_seed, Outcome, Reference, Replay};
use crate::probe::{AllocPath, LayerProbe};
use crate::wrap::{SharedClock, Timed};
use acorn_core::{AcornConfig, AcornController};
use acorn_events::{
    CityFaultProcess, CityReallocationTimer, CityWorld, FaultPlan, SeedPolicy, Simulation,
};
use acorn_phy::{GoodputTable, LinkQualityEstimator};
use acorn_sim::scenario::city_grid;
use acorn_soak::{
    InvariantWatchdog, SoakProbe, SoakScenario, WatchdogSpec, WorkloadGen, WorkloadSpec,
};
use std::sync::Arc;
use std::time::Instant;

const INSTANCES: usize = 4;
const HORIZON_S: f64 = 86_400.0;
const PERIOD_S: f64 = 1800.0;

/// The workload's registry entry.
pub const WORKLOAD: super::Workload = super::Workload {
    name: "soak-faults",
    instances: INSTANCES,
    setup,
    replay,
    reference,
    uses_table: true,
    alloc: AllocPath::Sharded,
    restarts: 2,
};

fn scenario(seed: u64) -> SoakScenario {
    let wlan = city_grid(4, 2, 400, sub_seed(seed, stream::DEPLOY));
    let mut s = SoakScenario::new(wlan, HORIZON_S, sub_seed(seed, stream::SCENARIO));
    s.reallocation_period_s = PERIOD_S;
    s.workload = WorkloadSpec {
        base_rate_per_s: 1.0 / 30.0,
        diurnal_amplitude: 0.6,
        day_period_s: 86_400.0,
        mix_seed: sub_seed(seed, stream::TRACE),
        ..WorkloadSpec::default()
    };
    s.probe_period_s = 60.0;
    s.watchdog = Some(WatchdogSpec {
        period_s: 300.0,
        graph_check_every: 16,
        fail_fast: true,
    });
    s.faults = Some(FaultPlan {
        seed: sub_seed(seed, stream::FAULTS),
        control_period_s: 10.0,
        ap_mttf_s: Some(4_000.0),
        ap_mttr_s: 900.0,
        max_crashes: 1_000,
        loss: 0.1,
        corruption: 0.02,
        delay_prob: 0.05,
        delay_max_s: 30.0,
        meas_nan: 0.01,
        meas_outlier: 0.02,
        meas_freeze: 0.02,
        ..FaultPlan::default()
    });
    s
}

fn controller() -> AcornController {
    let table = Arc::new(GoodputTable::new(LinkQualityEstimator::default()));
    AcornController::with_table(AcornConfig::default(), table)
}

/// Replays the soak with every process wrapped — the registration order
/// and parameters of `SoakScenario::run` for a faulty, drift-free,
/// watchdog-on scenario without sabotage.
/// The set-up: scenario, controller (with its table) and world.
fn build(seed: u64) -> (SoakScenario, CityWorld) {
    let sc = scenario(seed);
    let world = CityWorld::new(
        sc.wlan.clone(),
        controller(),
        sc.candidate_radius_m,
        sc.seed,
    );
    (sc, world)
}

fn setup(seed: u64) -> f64 {
    super::time_setup(|| build(seed))
}

fn replay(seed: u64, probe: Option<&mut LayerProbe>) -> (Replay, Outcome) {
    let t0 = Instant::now();
    let (sc, world) = build(seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let plan = sc.faults.expect("the soak workload injects faults");
    let spec = sc.watchdog.expect("the soak workload runs the watchdog");
    let clock = SharedClock::default();
    let t1 = Instant::now();
    let mut sim = Simulation::new(world);
    sim.add_process(Timed::boxed(
        WorkloadGen::new(sc.workload, sc.horizon_s, sc.adapt_widths),
        &clock,
    ));
    sim.add_process(Timed::boxed(
        CityReallocationTimer {
            period_s: sc.reallocation_period_s,
            horizon_s: sc.horizon_s,
            restarts: sc.restarts,
            adapt_widths: sc.adapt_widths,
            seed_policy: SeedPolicy::Sequential {
                next: sc.seed.wrapping_add(1),
            },
            safe_mode: true,
        },
        &clock,
    ));
    sim.add_process(Timed::boxed(
        SoakProbe {
            period_s: sc.probe_period_s,
            horizon_s: sc.horizon_s,
        },
        &clock,
    ));
    sim.add_process(Timed::boxed(
        InvariantWatchdog::new(spec, sc.horizon_s, sc.seed, true),
        &clock,
    ));
    sim.add_process(Timed::boxed(
        CityFaultProcess::new(plan, sc.horizon_s),
        &clock,
    ));
    let stops = checkpoints(PERIOD_S, PERIOD_S, sc.horizon_s);
    let (events, probe_s) = drive(&mut sim, &stops, sc.horizon_s, probe);
    let wall_s = t1.elapsed().as_secs_f64() - probe_s;
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

fn reference(seed: u64) -> Reference {
    let r = scenario(seed).run(&controller());
    let mut errors = Vec::new();
    if r.violations != 0 {
        errors.push(format!("the watchdog reported {} violations", r.violations));
    }
    let network_bps = r.mean_network_bps();
    Reference {
        outcome: Outcome {
            events: r.stats.events,
            telemetry: r.telemetry,
            state: r.final_state,
        },
        network_bps,
        errors,
        rows: Vec::new(),
    }
}
