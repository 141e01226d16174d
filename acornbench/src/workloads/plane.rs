//! `plane-lossy`: the distributed control plane on 576 APs.
//!
//! `city_grid(8, 3)` — 64 districts, one zone controller each — over 20
//! re-allocation epochs, with 20% control-frame loss and 5% corruption.
//! The only workload that exercises the gossip protocol's acks,
//! retransmits, de-duplication and timer cancellation. Every client
//! arrives when the plane comes up, so Algorithm 1 runs during set-up.

use super::{checkpoints, counter, drive, stream, sub_seed, Outcome, Reference, Replay};
use crate::probe::{AllocPath, LayerProbe};
use crate::wrap::{SharedClock, Timed};
use acorn_core::{AcornConfig, AcornController, NetworkModel};
use acorn_ctrlplane::{
    centralized_twin, DistributedPlane, NetState, PlaneConfig, PlaneWorld, ZoneController,
};
use acorn_events::{FaultPlan, ProcessId, Simulation};
use acorn_obs::names;
use acorn_phy::{GoodputTable, LinkQualityEstimator};
use acorn_sim::scenario::city_grid;
use acorn_topology::{ClientId, Wlan};
use std::sync::Arc;
use std::time::Instant;

const INSTANCES: usize = 1;
const DISTRICTS_PER_SIDE: usize = 8;
const APS_PER_DISTRICT_SIDE: usize = 3;
const CLIENTS_PER_AP: usize = 1;
const EPOCHS: u64 = 20;
const RESTARTS: usize = 2;

/// The workload's registry entry.
pub const WORKLOAD: super::Workload = super::Workload {
    name: "plane-lossy",
    instances: INSTANCES,
    setup,
    replay,
    reference,
    uses_table: true,
    alloc: AllocPath::Sharded,
    restarts: RESTARTS,
};

fn deployment(seed: u64) -> Wlan {
    let n_aps = (DISTRICTS_PER_SIDE * APS_PER_DISTRICT_SIDE).pow(2);
    city_grid(
        DISTRICTS_PER_SIDE,
        APS_PER_DISTRICT_SIDE,
        n_aps * CLIENTS_PER_AP,
        sub_seed(seed, stream::DEPLOY),
    )
}

fn config(seed: u64) -> PlaneConfig {
    PlaneConfig {
        seed: sub_seed(seed, stream::SCENARIO),
        epoch_period_s: 100.0,
        first_epoch_at_s: 10.0,
        horizon_s: 10.0 + (EPOCHS - 1) as f64 * 100.0,
        restarts: RESTARTS,
        // Enough resends that no envelope expires at this loss rate: a
        // round trip survives with p ≈ 0.58, so 40 attempts leave
        // ~1e-15 per envelope. 16 would leave ~1e-6, and a run sends
        // millions of envelopes.
        max_attempts: 40,
        faults: FaultPlan {
            seed: sub_seed(seed, stream::FAULTS),
            loss: 0.2,
            corruption: 0.05,
            ..FaultPlan::default()
        },
        ..PlaneConfig::default()
    }
}

fn controller() -> AcornController {
    let table = Arc::new(GoodputTable::new(LinkQualityEstimator::default()));
    AcornController::with_table(AcornConfig::default(), table)
}

/// The plane's world exactly as `DistributedPlane::new` builds it, with
/// each client's Algorithm 1 decision timed into `arrival_s`.
fn world(
    wlan: Wlan,
    ctl: AcornController,
    cfg: &PlaneConfig,
    arrival_s: &mut Vec<f64>,
) -> PlaneWorld {
    let mut state = ctl.new_state(&wlan, cfg.seed);
    for c in 0..wlan.clients.len() {
        let t = Instant::now();
        ctl.associate(&wlan, &mut state, ClientId(c));
        arrival_s.push(t.elapsed().as_secs_f64());
    }
    let zones = ctl.zones(&wlan, &state);
    let n_zones = zones.len();
    let mut zone_of_ap = vec![0usize; wlan.aps.len()];
    for (z, nodes) in zones.iter().enumerate() {
        for &n in nodes {
            zone_of_ap[n] = z;
        }
    }
    let model = ctl.build_model(&wlan, &state);
    let zone_models: Vec<NetworkModel> = zones.iter().map(|z| model.restrict(z)).collect();
    let borders: Vec<Vec<usize>> = zones
        .iter()
        .map(|nodes| {
            nodes
                .iter()
                .copied()
                .filter(|&a| {
                    wlan.aps.iter().enumerate().any(|(b, ap_b)| {
                        zone_of_ap[b] != zone_of_ap[a]
                            && wlan.aps[a].pos.distance(&ap_b.pos) <= cfg.border_margin_m
                    })
                })
                .collect()
        })
        .collect();
    PlaneWorld {
        state,
        zone_of_ap,
        zone_models,
        borders,
        zone_pids: (0..n_zones).map(ProcessId).collect(),
        applied_epoch: vec![0; n_zones],
        fingerprints: vec![0; n_zones],
        net: NetState::default(),
        last_change_epoch: 0,
        zones,
        wlan,
        ctl,
    }
}

fn epoch_times(cfg: &PlaneConfig) -> Vec<f64> {
    checkpoints(
        cfg.first_epoch_at_s,
        cfg.epoch_period_s,
        cfg.horizon_s + 1e-9,
    )
}

/// The set-up: deployment, controller (with its table), the plane's
/// world with every client placed by Algorithm 1, timed per client.
fn build(seed: u64) -> (PlaneConfig, PlaneWorld, Vec<f64>) {
    let cfg = config(seed);
    let mut arrival_s = Vec::new();
    let world = world(deployment(seed), controller(), &cfg, &mut arrival_s);
    (cfg, world, arrival_s)
}

fn setup(seed: u64) -> f64 {
    super::time_setup(|| build(seed))
}

fn replay(seed: u64, probe: Option<&mut LayerProbe>) -> (Replay, Outcome) {
    let t0 = Instant::now();
    let (cfg, world, arrival_s) = build(seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let clock = SharedClock::default();
    let t1 = Instant::now();
    let n_zones = world.zones.len();
    let mut sim = Simulation::new(world);
    for z in 0..n_zones {
        sim.add_process(Timed::boxed(
            ZoneController::new(z, n_zones, cfg.clone()),
            &clock,
        ));
    }
    let (events, probe_s) = drive(&mut sim, &epoch_times(&cfg), f64::INFINITY, probe);
    let wall_s = t1.elapsed().as_secs_f64() - probe_s;
    let telemetry = sim.telemetry.snapshot();
    let mut clock = clock.take();
    clock.arrival_s = arrival_s;
    let attempted = counter(&telemetry, names::CTRL_MSGS_SENT);
    let failed = counter(&telemetry, names::CTRL_MSGS_EXPIRED);
    (
        Replay {
            setup_s,
            wall_s,
            probe_s,
            clock,
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

/// `DistributedPlane` itself, stepped epoch by epoch with `run_until`
/// and drained to quiescence, then checked against the centralized twin.
fn reference(seed: u64) -> Reference {
    let cfg = config(seed);
    let wlan = deployment(seed);
    let ctl = controller();
    let mut plane = DistributedPlane::new(wlan, ctl, cfg.clone());
    let mut epoch_ms = Vec::new();
    for t in epoch_times(&cfg) {
        let t0 = Instant::now();
        plane.run_until(t);
        epoch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let stats = plane.run_to_quiescence();
    let t0 = Instant::now();
    let twin = {
        let w = &plane.sim.world;
        centralized_twin(&w.wlan, &w.ctl, &cfg)
    };
    let twin_s = t0.elapsed().as_secs_f64();
    let mut errors = Vec::new();
    if twin.assignments != plane.state().assignments
        || twin.operating_width != plane.state().operating_width
    {
        errors.push("the distributed plan differs from centralized_twin".to_string());
    }
    let report = plane.report();
    let epoch_med = crate::stats::median(&epoch_ms).unwrap_or(0.0);
    Reference {
        outcome: Outcome {
            events: stats.events,
            telemetry: plane.telemetry().snapshot(),
            state: plane.state().clone(),
        },
        network_bps: report.total_bps,
        errors,
        rows: vec![
            ("ctrl.epoch_ms", "ms", epoch_med),
            ("ctrl.twin_s", "s", twin_s),
        ],
    }
}
