//! Oracle gate for the single Algorithm 2 driver.
//!
//! Every allocation entry point — the controller's sharded `reallocate`,
//! its zone replay, and the free `allocate` / `allocate_sharded` on any
//! `ThroughputModel` — runs one hedged engine: a current-start run plus a
//! seeded random hedge, folded under fixed tie rules. The fingerprints
//! below were captured from the implementation that kept a separate copy
//! of that engine per entry point; each covers the assignments, the
//! `total_bps` bits, the iteration and switch counts and the full
//! `history_bps` of every run, so any drift in seeds, tie rules, attempt
//! order or merge order moves them. The property test pins the sharded
//! path to its definition: per-component `allocate` runs with the shard
//! seed schedule, merged. `scripts/ci.sh` runs this file as its own step.

use acorn::core::scanning::{HashSounding, ScanningModel};
use acorn::core::{
    allocate, allocate_sharded, allocate_with_restarts, random_initial, AcornConfig,
    AcornController, AllocSpec, AllocationConfig, AllocationResult, ClientSnr, NetworkModel,
    NetworkState, ThroughputModel,
};
use acorn::obs::NullSink;
use acorn::sim::scenario::enterprise_grid;
use acorn::topology::{ChannelAssignment, ChannelPlan, ClientId, InterferenceGraph, Point, Wlan};
use proptest::prelude::*;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bits: u64) {
    *h ^= bits;
    *h = h.wrapping_mul(0x100000001b3);
}

fn code(a: ChannelAssignment) -> u64 {
    match a {
        ChannelAssignment::Single(c) => c.0 as u64,
        ChannelAssignment::Bonded(c) => 0x100 | c.0 as u64,
    }
}

fn fold_result(h: &mut u64, r: &AllocationResult) {
    for &a in &r.assignments {
        fnv(h, code(a));
    }
    fnv(h, r.total_bps.to_bits());
    fnv(h, r.iterations as u64);
    fnv(h, r.switches as u64);
    fnv(h, r.history_bps.len() as u64);
    for y in &r.history_bps {
        fnv(h, y.to_bits());
    }
}

fn fold_state(h: &mut u64, s: &NetworkState) {
    for &a in &s.assignments {
        fnv(h, code(a));
    }
    for w in &s.operating_width {
        fnv(h, *w as u64);
    }
}

/// A four-channel controller, so neighbouring APs compete for bonds and
/// the hedge sometimes beats the current-start run.
fn controller() -> AcornController {
    AcornController::new(AcornConfig {
        plan: ChannelPlan::restricted(4),
        ..AcornConfig::default()
    })
}

/// Six APs on a 30 m grid: one conflict-graph component.
fn connected_wlan() -> Wlan {
    enterprise_grid(3, 2, 30.0, 14, 5)
}

/// Two 2×2 AP clusters 5 km apart: exactly two components.
fn two_zone_wlan() -> Wlan {
    let mut aps = Vec::new();
    let mut clients = Vec::new();
    for x0 in [0.0, 5000.0] {
        for (dx, dy) in [(0.0, 0.0), (30.0, 0.0), (0.0, 30.0), (30.0, 30.0)] {
            aps.push(Point::new(x0 + dx, dy));
        }
        for k in 0..6 {
            let t = k as f64;
            clients.push(Point::new(x0 - 5.0 + 7.0 * t, 3.0 + 5.0 * t));
        }
    }
    Wlan::new(aps, clients, 21)
}

fn associated(c: &AcornController, w: &Wlan) -> NetworkState {
    let mut s = c.new_state(w, 31);
    for cl in 0..w.clients.len() {
        c.associate(w, &mut s, ClientId(cl));
    }
    s
}

/// `(restarts, seed)` pairs: restarts {0, 2, 3} × three seeds.
fn cases() -> impl Iterator<Item = (usize, u64)> + Clone {
    [0usize, 2, 3]
        .into_iter()
        .flat_map(|r| [7u64, 991, 0xACE].map(move |s| (r, s)))
}

/// A pseudo-random model: `n` APs, each edge present with probability
/// `p`, one to three clients per AP.
fn random_model(n: usize, p: f64, seed: u64) -> NetworkModel {
    let mut x = seed;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as f64 / (1u64 << 31) as f64
    };
    let mut edges = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if next() < p {
                edges.push((i, j));
            }
        }
    }
    let cells = (0..n)
        .map(|i| {
            (0..1 + (next() * 3.0) as usize)
                .map(|k| ClientSnr {
                    client: i * 8 + k,
                    snr20_db: -2.0 + 34.0 * next(),
                })
                .collect()
        })
        .collect();
    NetworkModel::new(InterferenceGraph::from_edges(n, &edges), cells)
}

fn from_start<M: ThroughputModel + Sync>(
    m: &M,
    plan: &ChannelPlan,
    start: Vec<ChannelAssignment>,
) -> AllocationResult {
    let spec = AllocSpec {
        start: Some(start),
        ..AllocSpec::default()
    };
    allocate(m, plan, &AllocationConfig::default(), &spec, &NullSink)
}

#[test]
fn controller_reallocation_matches_the_parent_fingerprints() {
    let c = controller();
    for (w, want) in [
        (connected_wlan(), 0x8da2_918a_2d82_2ce4u64),
        (two_zone_wlan(), 0x17de_0d08_6528_2c27),
    ] {
        let base = associated(&c, &w);
        let mut h = FNV_BASIS;
        for (restarts, seed) in cases() {
            let mut s = base.clone();
            let r = c.reallocate(&w, &mut s, restarts, seed, &NullSink);
            fold_result(&mut h, &r);
            fold_state(&mut h, &s);
        }
        assert_eq!(h, want, "{} APs: {h:#018x}", w.aps.len());
    }
}

/// The hedged whole-network reallocation the controller used to offer
/// next to the sharded one; on a connected WLAN the sharded path is it.
#[test]
fn hedged_reallocation_on_a_connected_wlan_matches_the_parent() {
    let c = controller();
    let w = connected_wlan();
    assert_eq!(c.zones(&w, &associated(&c, &w)).len(), 1);
    let base = associated(&c, &w);
    let mut h = FNV_BASIS;
    for (restarts, seed) in [2usize, 3, 8]
        .into_iter()
        .flat_map(|r| [7u64, 991, 0xACE].map(move |s| (r, s)))
    {
        let mut s = base.clone();
        let r = c.reallocate(&w, &mut s, restarts, seed, &NullSink);
        fold_result(&mut h, &r);
        fold_state(&mut h, &s);
    }
    assert_eq!(h, 0xcc3c_6c9c_315c_3e94, "{h:#018x}");
}

#[test]
fn zone_replay_matches_the_parent_fingerprint() {
    let c = controller();
    let w = two_zone_wlan();
    let base = associated(&c, &w);
    let zones = c.zones(&w, &base);
    assert_eq!(zones, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
    let mut h = FNV_BASIS;
    for (restarts, seed) in cases() {
        let mut s = base.clone();
        let model = c.build_model(&w, &s);
        for (z, nodes) in zones.iter().enumerate() {
            let sub = model.restrict(nodes);
            let r = c.reallocate_zone(&sub, &mut s, nodes, z, restarts, seed, &NullSink);
            fold_result(&mut h, &r);
        }
        fold_state(&mut h, &s);
    }
    assert_eq!(h, 0xe749_5d52_fab7_299f, "{h:#018x}");
}

#[test]
fn free_allocation_matches_the_parent_on_network_and_scanning_models() {
    let plan = ChannelPlan::restricted(6);
    let m = random_model(9, 0.45, 3);
    let scan = ScanningModel::new(
        m.clone(),
        HashSounding {
            sigma_db: 3.0,
            seed: 17,
        },
    );
    let cfg = AllocationConfig::default();

    let mut h_net = FNV_BASIS;
    let mut h_scan = FNV_BASIS;
    for (restarts, seed) in [0usize, 1, 4, 8]
        .into_iter()
        .flat_map(|r| [7u64, 991].map(move |s| (r, s)))
    {
        fold_result(
            &mut h_net,
            &allocate_with_restarts(&m, &plan, &cfg, restarts, seed),
        );
        fold_result(
            &mut h_scan,
            &allocate_with_restarts(&scan, &plan, &cfg, restarts, seed),
        );
    }
    assert_eq!(
        h_net, 0xf85a_6ae2_6124_9370,
        "hedge, network: {h_net:#018x}"
    );
    assert_eq!(
        h_scan, 0x61c9_a50d_d51d_77ab,
        "hedge, scanning: {h_scan:#018x}"
    );

    let mut h_net = FNV_BASIS;
    let mut h_scan = FNV_BASIS;
    for seed in [1u64, 2, 3, 4] {
        let start = random_initial(&plan, 9, seed);
        fold_result(&mut h_net, &from_start(&m, &plan, start.clone()));
        fold_result(&mut h_scan, &from_start(&scan, &plan, start));
    }
    assert_eq!(
        h_net, 0xfc5e_ccb3_30be_32aa,
        "single, network: {h_net:#018x}"
    );
    assert_eq!(
        h_scan, 0x75bd_4fa4_d841_48fb,
        "single, scanning: {h_scan:#018x}"
    );
}

/// The sharded path by its definition: per component, a current-start
/// run (when there is a start) hedged by `restarts` random starts seeded
/// `seed + s·restarts + k`, the start run yielding only to a strictly
/// better hedge; winners scattered back, work counters summed, histories
/// concatenated in shard order, and the total re-evaluated on the full
/// model.
fn sharded_by_composition(
    m: &NetworkModel,
    plan: &ChannelPlan,
    start: Option<&[ChannelAssignment]>,
    restarts: usize,
    seed: u64,
) -> AllocationResult {
    let cfg = AllocationConfig::default();
    let mut merged = vec![ChannelAssignment::Single(acorn::topology::Channel20(0)); m.n_aps()];
    let (mut iterations, mut switches, mut history) = (0, 0, Vec::new());
    for (s, nodes) in m.graph.connected_components().iter().enumerate() {
        let sub = m.restrict(nodes);
        let shard_seed = seed.wrapping_add((s * restarts) as u64);
        let hedged = (restarts > 0 || start.is_none()).then(|| {
            let spec = AllocSpec {
                start: None,
                restarts,
                seed: shard_seed,
            };
            allocate(&sub, plan, &cfg, &spec, &NullSink)
        });
        let current = start.map(|a| from_start(&sub, plan, nodes.iter().map(|&i| a[i]).collect()));
        let winner = match (current, hedged) {
            (Some(c), Some(h)) if h.total_bps > c.total_bps => h,
            (Some(c), _) => c,
            (None, Some(h)) => h,
            (None, None) => unreachable!("a spec without a start always hedges"),
        };
        for (&global, &a) in nodes.iter().zip(&winner.assignments) {
            merged[global] = a;
        }
        iterations += winner.iterations;
        switches += winner.switches;
        history.extend(winner.history_bps);
    }
    AllocationResult {
        total_bps: m.total_bps(&merged),
        assignments: merged,
        iterations,
        switches,
        history_bps: history,
    }
}

proptest! {
    /// `allocate_sharded` equals the per-component composition of
    /// `allocate` with the shard seeds, bit for bit, on connected and
    /// disconnected graphs, with and without a start.
    #[test]
    fn sharded_equals_the_per_component_composition(
        n in 1usize..9,
        p in 0.0f64..0.6,
        graph_seed in any::<u64>(),
        restarts in 0usize..4,
        seed in any::<u64>(),
        init_seed in any::<u64>(),
        with_start in any::<bool>(),
    ) {
        let m = random_model(n, p, graph_seed);
        let plan = ChannelPlan::restricted(4);
        let start = with_start.then(|| random_initial(&plan, m.n_aps(), init_seed));
        let spec = AllocSpec { start: start.clone(), restarts, seed };
        let sharded = allocate_sharded(&m, &plan, &AllocationConfig::default(), &spec, &NullSink);
        let expect = sharded_by_composition(&m, &plan, start.as_deref(), restarts, seed);
        prop_assert_eq!(&sharded.assignments, &expect.assignments);
        prop_assert_eq!(sharded.total_bps.to_bits(), expect.total_bps.to_bits());
        prop_assert_eq!(sharded.iterations, expect.iterations);
        prop_assert_eq!(sharded.switches, expect.switches);
        let bits = |h: &[f64]| h.iter().map(|y| y.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&sharded.history_bps), bits(&expect.history_bps));
    }
}
