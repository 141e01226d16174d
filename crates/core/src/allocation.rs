//! Algorithm 2 — ACORN's channel-bonding selection / channel allocation.
//!
//! The problem (§4.2): assign each AP a basic colour (20 MHz channel) or a
//! composite colour (bonded 40 MHz channel) to maximize aggregate network
//! throughput `Y = Σ_i X_i(F)` (Eq. 5). The decision version is
//! NP-complete (reduction from graph k-colouring — see
//! [`crate::theory`]), so ACORN runs an iterative greedy:
//!
//! 1. Every AP that has not yet switched in this round evaluates every
//!    colour, assuming all other APs keep their current colours, and
//!    computes its `rank` — the aggregate-throughput gain of its best
//!    switch.
//! 2. The max-rank AP (the "winner") switches; it is removed from the
//!    round's eligible set.
//! 3. Repeat within the round until no eligible AP has a positive rank;
//!    repeat rounds until the improvement falls below the ε = 1.05
//!    stopping rule ("if there is a 5 % or less increase in the total
//!    aggregate throughput as compared to the previous iteration, the
//!    algorithm stops").
//!
//! This mimics gradient descent on the throughput landscape; its
//! worst-case approximation ratio is O(1/(Δ+1)) ([`crate::theory`]), but
//! §5.2 shows it does far better in practice.
//!
//! ## Evaluation engine
//!
//! Candidate scoring uses [`ThroughputModel::best_switch`] — on
//! [`NetworkModel`] the whole colour scan costs O(Δ) because a switch only
//! perturbs the AP and its neighbours, not a full-network recompute per
//! colour — and fans the per-AP ranking out over [`crate::par::par_map`].
//! The restart hedge ([`allocate`], [`allocate_sharded`]) fans its
//! attempts out the same way. Both reductions are order-stable, so
//! results are bit-identical for every thread count (`ACORN_THREADS=1`
//! included).

use crate::model::{NetworkModel, ThroughputModel};
use crate::par;
use acorn_obs::{names, NullSink, Sink};
use acorn_topology::{ApId, Channel20, ChannelAssignment, ChannelPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocationConfig {
    /// Stopping rule: continue rounds only while
    /// `Y_new > epsilon · Y_old`. The paper uses ε = 1.05.
    pub epsilon: f64,
    /// Hard cap on rounds (safety; the paper's algorithm converges long
    /// before this).
    pub max_rounds: usize,
}

impl Default for AllocationConfig {
    fn default() -> Self {
        AllocationConfig {
            epsilon: 1.05,
            max_rounds: 32,
        }
    }
}

/// Output of one allocation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AllocationResult {
    /// The final channel assignment `F`.
    pub assignments: Vec<ChannelAssignment>,
    /// Aggregate predicted throughput of the final assignment (bits/s).
    pub total_bps: f64,
    /// Number of single-AP evaluation iterations performed (the paper's
    /// `k` counter).
    pub iterations: usize,
    /// Number of actual channel switches.
    pub switches: usize,
    /// Aggregate throughput after each switch (for convergence plots).
    pub history_bps: Vec<f64>,
}

/// Draws the random initial assignment of Algorithm 2: "Initially, all
/// APs are assigned either a 20 MHz or a 40 MHz channel at random."
pub fn random_initial(plan: &ChannelPlan, n_aps: usize, seed: u64) -> Vec<ChannelAssignment> {
    let mut rng = StdRng::seed_from_u64(seed);
    let all = plan.all_assignments();
    (0..n_aps)
        .map(|_| all[rng.gen_range(0..all.len())])
        .collect()
}

/// What one Algorithm 2 call runs: an optional current-start run hedged
/// by `restarts` random starts.
///
/// Attempt 0 is the run from `start` (when given); the random attempts
/// follow, the `k`-th drawing its initial assignment from `seed + k`. A
/// spec with neither a start nor restarts still makes one random run
/// from `seed`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AllocSpec {
    /// Initial assignment of the current-start run, one per AP; `None`
    /// runs only the random hedge.
    pub start: Option<Vec<ChannelAssignment>>,
    /// Random-start attempts hedging the current-start run.
    pub restarts: usize,
    /// Seed of the first random attempt.
    pub seed: u64,
}

impl AllocSpec {
    /// The spec shard `index` (the APs `nodes`, ascending) runs inside
    /// [`allocate_sharded`]: the start sliced to the shard, and the seed
    /// schedule `seed + index·restarts + k` for its `k`-th random attempt.
    /// The zone view (`AcornController::reallocate_zone`) replays a shard
    /// exactly by running [`allocate`] on this spec.
    pub(crate) fn for_shard(&self, index: usize, nodes: &[usize]) -> AllocSpec {
        AllocSpec {
            start: self
                .start
                .as_ref()
                .map(|start| nodes.iter().map(|&i| start[i]).collect()),
            restarts: self.restarts,
            seed: self.seed.wrapping_add((index * self.restarts) as u64),
        }
    }

    fn attempts(&self) -> usize {
        (usize::from(self.start.is_some()) + self.restarts).max(1)
    }
}

/// Runs Algorithm 2 as `spec` says and returns the best attempt. The
/// attempts fan out over [`par::par_map_n`]; the fold keeps the later
/// random attempt on exact ties inside the hedge, and the current-start
/// run yields only to a strictly better hedge.
///
/// The sink receives, per attempt, the `alloc.runs`, `alloc.rounds`,
/// `alloc.iterations` and `alloc.switches` counters, plus one
/// `alloc.restarts` per random attempt. All are commutative adds, so the
/// totals are identical at any `ACORN_THREADS`.
pub fn allocate<M: ThroughputModel + Sync, S: Sink + Sync>(
    model: &M,
    plan: &ChannelPlan,
    config: &AllocationConfig,
    spec: &AllocSpec,
    sink: &S,
) -> AllocationResult {
    let attempts = par::par_map_n(spec.attempts(), |k| {
        attempt(model, plan, config, spec, k, sink)
    });
    fold(attempts, spec.start.is_some())
}

/// Sharded Algorithm 2: decompose the conflict graph into connected
/// components and run [`allocate`] on each component's submodel, merging
/// the per-shard winners into one assignment. Shard `s` starts from its
/// slice of `spec.start` and seeds its `k`-th random attempt with
/// `seed + s·restarts + k`.
///
/// Correctness rests on the objective being separable across components:
/// an AP's access share depends only on its graph neighbours, so
/// `Y = Σ_shards Y_shard` and no switch inside one shard can change
/// another shard's throughput.
///
/// Determinism: components come ordered by smallest vertex, every
/// `(shard, attempt)` pair fans out flat through the order-stable
/// [`par::par_map_n`], and the folds run sequentially in shard order, so
/// the merged result is bit-identical at any `ACORN_THREADS`. A connected
/// graph runs [`allocate`] on the full model. The sink additionally gets
/// `alloc.shards` += the component count.
pub fn allocate_sharded<S: Sink + Sync>(
    model: &NetworkModel,
    plan: &ChannelPlan,
    config: &AllocationConfig,
    spec: &AllocSpec,
    sink: &S,
) -> AllocationResult {
    let n = model.n_aps();
    if let Some(start) = &spec.start {
        assert_eq!(start.len(), n, "one initial assignment per AP");
    }
    let components = model.graph.connected_components();
    if sink.enabled() {
        sink.add(names::ALLOC_SHARDS, components.len().max(1) as u64);
    }
    if components.len() <= 1 {
        return allocate(model, plan, config, spec, sink);
    }

    // Per-shard submodels (cheap: cell-base rows are copied, not
    // re-estimated) and specs.
    let shards: Vec<(NetworkModel, AllocSpec, Vec<usize>)> = components
        .into_iter()
        .enumerate()
        .map(|(s, nodes)| (model.restrict(&nodes), spec.for_shard(s, &nodes), nodes))
        .collect();
    let per_shard = spec.attempts();
    let results = par::par_map_n(shards.len() * per_shard, |t| {
        let (sub, shard_spec, _) = &shards[t / per_shard];
        attempt(sub, plan, config, shard_spec, t % per_shard, sink)
    });

    // Deterministic merge in shard order: scatter each shard winner back
    // to global AP indices, sum the work counters, and concatenate the
    // per-shard convergence histories. Every AP lies in exactly one
    // component, so each placeholder slot is overwritten.
    let mut merged = AllocationResult {
        assignments: vec![ChannelAssignment::Single(Channel20(0)); n],
        ..AllocationResult::default()
    };
    let mut results = results.into_iter();
    for (_, shard_spec, nodes) in &shards {
        let winner = fold(results.by_ref().take(per_shard), shard_spec.start.is_some());
        for (&global, &a) in nodes.iter().zip(&winner.assignments) {
            merged.assignments[global] = a;
        }
        merged.iterations += winner.iterations;
        merged.switches += winner.switches;
        merged.history_bps.extend(winner.history_bps);
    }
    // One full evaluation re-anchors the headline number, exactly as the
    // unsharded path does.
    merged.total_bps = model.total_bps(&merged.assignments);
    merged
}

/// Multi-restart allocation: the best of `restarts` random starts. A
/// standard hedge for gradient-style local search — the greedy has an
/// O(1/(Δ+1)) worst case precisely because single runs can stall in local
/// optima (e.g. a bond parked on the wrong AP with no improving
/// unilateral move). [`allocate`] with no start and no sink.
pub fn allocate_with_restarts<M: ThroughputModel + Sync>(
    model: &M,
    plan: &ChannelPlan,
    config: &AllocationConfig,
    restarts: usize,
    seed: u64,
) -> AllocationResult {
    let spec = AllocSpec {
        start: None,
        restarts,
        seed,
    };
    allocate(model, plan, config, &spec, &NullSink)
}

/// [`allocate_sharded`] from `initial`, hedged by `restarts` random starts
/// per shard, with no sink.
pub fn allocate_sharded_with_restarts(
    model: &NetworkModel,
    plan: &ChannelPlan,
    initial: Vec<ChannelAssignment>,
    config: &AllocationConfig,
    restarts: usize,
    seed: u64,
) -> AllocationResult {
    let spec = AllocSpec {
        start: Some(initial),
        restarts,
        seed,
    };
    allocate_sharded(model, plan, config, &spec, &NullSink)
}

/// Attempt `k` of `spec`: the current-start run, or a random start.
fn attempt<M: ThroughputModel + Sync, S: Sink>(
    model: &M,
    plan: &ChannelPlan,
    config: &AllocationConfig,
    spec: &AllocSpec,
    k: usize,
    sink: &S,
) -> AllocationResult {
    let initial = match (&spec.start, k) {
        (Some(start), 0) => start.clone(),
        (start, k) => {
            if sink.enabled() {
                sink.inc(names::ALLOC_RESTARTS);
            }
            let h = k - usize::from(start.is_some());
            random_initial(plan, model.n_aps(), spec.seed.wrapping_add(h as u64))
        }
    };
    greedy(model, plan, initial, config, sink)
}

/// Folds one spec's attempts, in attempt order, into the winner: inside
/// the hedge the later attempt wins exact ties; the current-start run
/// (attempt 0 when `has_start`) yields only to a strictly better hedge.
/// Allocation totals are finite by construction, so the comparisons are
/// NaN-free.
fn fold(attempts: impl IntoIterator<Item = AllocationResult>, has_start: bool) -> AllocationResult {
    attempts
        .into_iter()
        .enumerate()
        .reduce(|(i, best), (k, r)| {
            let wins = if has_start && i == 0 {
                r.total_bps > best.total_bps
            } else {
                r.total_bps >= best.total_bps
            };
            if wins {
                (k, r)
            } else {
                (i, best)
            }
        })
        .map(|(_, r)| r)
        .unwrap_or_default()
}

/// One greedy run of Algorithm 2 from `initial`, reporting its per-run
/// `alloc.*` counters.
fn greedy<M: ThroughputModel + Sync, S: Sink>(
    model: &M,
    plan: &ChannelPlan,
    initial: Vec<ChannelAssignment>,
    config: &AllocationConfig,
    sink: &S,
) -> AllocationResult {
    let n = model.n_aps();
    assert_eq!(initial.len(), n, "one initial assignment per AP");
    for a in &initial {
        assert!(plan.contains(*a), "initial assignment {a:?} outside plan");
    }
    let colours = plan.all_assignments();
    let mut assignments = initial;
    let mut y = model.total_bps(&assignments);
    let mut iterations = 0usize;
    let mut switches = 0usize;
    let mut rounds = 0usize;
    let mut history = vec![y];

    for _round in 0..config.max_rounds {
        rounds += 1;
        let y_round_start = y;
        let mut eligible: Vec<bool> = vec![true; n];
        // Inner loop: repeatedly let the max-rank eligible AP switch.
        loop {
            let candidates: Vec<usize> = (0..n).filter(|&i| eligible[i]).collect();
            if candidates.is_empty() {
                break;
            }
            iterations += candidates.len();
            // Rank every eligible AP: the gain of its best colour with
            // everyone else frozen (line 10). Each AP's scan is
            // independent given the frozen assignment, so the scans fan
            // out; the fold below runs in candidate order, keeping the
            // winner identical to the sequential pass.
            let ranked: Vec<(ChannelAssignment, f64)> = par::par_map(&candidates, |&i| {
                model.best_switch(ApId(i), &colours, &assignments)
            });
            let mut best: Option<(usize, ChannelAssignment, f64)> = None;
            for (&i, &(c, rank)) in candidates.iter().zip(&ranked) {
                match best {
                    Some((_, _, r)) if r >= rank => {}
                    _ => best = Some((i, c, rank)),
                }
            }
            match best {
                // "winner" switches if it improves the objective.
                Some((winner, c_star, rank)) if rank > 0.0 => {
                    if assignments[winner] != c_star {
                        switches += 1;
                    }
                    assignments[winner] = c_star;
                    eligible[winner] = false;
                    y += rank;
                    history.push(y);
                }
                _ => break, // no eligible AP can improve
            }
        }
        // ε stopping rule across rounds.
        if y <= config.epsilon * y_round_start {
            break;
        }
    }

    if sink.enabled() {
        sink.inc(names::ALLOC_RUNS);
        sink.add(names::ALLOC_ROUNDS, rounds as u64);
        sink.add(names::ALLOC_ITERATIONS, iterations as u64);
        sink.add(names::ALLOC_SWITCHES, switches as u64);
    }

    // Re-anchor the headline number with one full evaluation so that
    // accumulated delta rounding cannot drift it; `history_bps` keeps the
    // exact per-switch gains.
    let total_bps = model.total_bps(&assignments);
    AllocationResult {
        total_bps,
        assignments,
        iterations,
        switches,
        history_bps: history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ClientSnr;
    use acorn_topology::InterferenceGraph;

    fn model(snrs_per_ap: &[&[f64]], graph: InterferenceGraph) -> NetworkModel {
        let cells = snrs_per_ap
            .iter()
            .map(|snrs| {
                snrs.iter()
                    .enumerate()
                    .map(|(i, &s)| ClientSnr {
                        client: i,
                        snr20_db: s,
                    })
                    .collect()
            })
            .collect();
        NetworkModel::new(graph, cells)
    }

    fn single(c: u8) -> ChannelAssignment {
        ChannelAssignment::Single(Channel20(c))
    }

    /// One greedy run from `initial`.
    fn from(
        m: &NetworkModel,
        plan: &ChannelPlan,
        initial: Vec<ChannelAssignment>,
        cfg: &AllocationConfig,
    ) -> AllocationResult {
        let spec = AllocSpec {
            start: Some(initial),
            ..AllocSpec::default()
        };
        allocate(m, plan, cfg, &spec, &NullSink)
    }

    #[test]
    fn never_decreases_throughput() {
        let m = model(
            &[&[30.0, 28.0], &[5.0, 4.0], &[20.0]],
            InterferenceGraph::complete(3),
        );
        let plan = ChannelPlan::restricted(4);
        for seed in 0..10 {
            let initial = random_initial(&plan, 3, seed);
            let y0 = m.total_bps(&initial);
            let r = from(&m, &plan, initial, &AllocationConfig::default());
            assert!(r.total_bps + 1e-6 >= y0, "seed {seed}");
            // History is monotone.
            for w in r.history_bps.windows(2) {
                assert!(w[1] + 1e-6 >= w[0]);
            }
        }
    }

    #[test]
    fn isolated_good_cell_gets_bonded() {
        // One AP, strong clients, plenty of channels → it should end up on
        // a 40 MHz channel.
        let m = model(&[&[30.0, 28.0]], InterferenceGraph::new(1));
        let plan = ChannelPlan::full_5ghz();
        let r = from(&m, &plan, vec![single(0)], &AllocationConfig::default());
        assert_eq!(
            r.assignments[0].width(),
            acorn_phy::ChannelWidth::Ht40,
            "{:?}",
            r.assignments
        );
    }

    #[test]
    fn isolated_poor_cell_stays_at_20mhz() {
        let m = model(&[&[2.0, 1.0]], InterferenceGraph::new(1));
        let plan = ChannelPlan::full_5ghz();
        let bonded0 = ChannelAssignment::bonded(Channel20(0)).unwrap();
        let r = from(&m, &plan, vec![bonded0], &AllocationConfig::default());
        assert_eq!(r.assignments[0].width(), acorn_phy::ChannelWidth::Ht20);
    }

    #[test]
    fn contending_aps_spread_across_channels() {
        // Two mutually interfering strong cells with 4 channels: the
        // optimum is two disjoint bonds; at minimum they must not overlap.
        let m = model(&[&[30.0], &[30.0]], InterferenceGraph::complete(2));
        let plan = ChannelPlan::restricted(4);
        let r = from(
            &m,
            &plan,
            vec![single(0), single(0)],
            &AllocationConfig::default(),
        );
        assert!(
            !r.assignments[0].conflicts(r.assignments[1]),
            "{:?}",
            r.assignments
        );
    }

    #[test]
    fn fig11_shape_three_aps_four_channels() {
        // Fig. 11: AP 1 good client, APs 2–3 poor clients, 4 channels —
        // only one AP can bond without overlap, and it should be the good
        // one: widths (40, 20, 20). Single greedy runs can park the bond
        // on a poor AP (a true local optimum: no unilateral move escapes),
        // so run with restarts, as the evaluation harness does.
        let m = model(&[&[28.0], &[0.0], &[0.0]], InterferenceGraph::complete(3));
        let plan = ChannelPlan::restricted(4);
        let r = allocate_with_restarts(&m, &plan, &AllocationConfig::default(), 8, 7);
        use acorn_phy::ChannelWidth::*;
        let widths: Vec<_> = r.assignments.iter().map(|a| a.width()).collect();
        assert_eq!(widths, vec![Ht40, Ht20, Ht20], "{:?}", r.assignments);
        // And nobody overlaps anybody.
        for i in 0..3 {
            for j in i + 1..3 {
                assert!(!r.assignments[i].conflicts(r.assignments[j]));
            }
        }
    }

    #[test]
    fn epsilon_one_runs_to_a_local_optimum() {
        // ε = 1.0 keeps iterating while *any* improvement exists, so the
        // result must be single-switch stable.
        let m = model(&[&[30.0], &[12.0], &[4.0]], InterferenceGraph::complete(3));
        let plan = ChannelPlan::restricted(6);
        let cfg = AllocationConfig {
            epsilon: 1.0,
            max_rounds: 64,
        };
        let r = allocate_with_restarts(&m, &plan, &cfg, 0, 3);
        // No single AP can improve the total by moving.
        for i in 0..3 {
            let mut alt = r.assignments.clone();
            for c in plan.all_assignments() {
                alt[i] = c;
                assert!(
                    m.total_bps(&alt) <= r.total_bps + 1e-6,
                    "AP {i} could still improve via {c:?}"
                );
            }
            alt[i] = r.assignments[i];
        }
    }

    #[test]
    fn random_initial_is_reproducible_and_legal() {
        let plan = ChannelPlan::restricted(4);
        let a = random_initial(&plan, 10, 99);
        let b = random_initial(&plan, 10, 99);
        assert_eq!(a, b);
        assert!(a.iter().all(|x| plan.contains(*x)));
    }

    #[test]
    #[should_panic(expected = "outside plan")]
    fn illegal_initial_panics() {
        let m = model(&[&[20.0]], InterferenceGraph::new(1));
        let plan = ChannelPlan::restricted(2);
        from(&m, &plan, vec![single(7)], &AllocationConfig::default());
    }

    #[test]
    fn obs_counters_match_the_result_and_the_plain_path() {
        use acorn_obs::{names, RecordingSink};
        let m = model(
            &[&[30.0, 28.0], &[5.0, 4.0], &[20.0]],
            InterferenceGraph::complete(3),
        );
        let plan = ChannelPlan::restricted(4);
        let cfg = AllocationConfig::default();
        let sink = RecordingSink::new();
        let spec = AllocSpec {
            start: None,
            restarts: 4,
            seed: 11,
        };
        let r_obs = allocate(&m, &plan, &cfg, &spec, &sink);
        let r_plain = allocate_with_restarts(&m, &plan, &cfg, 4, 11);
        assert_eq!(r_obs, r_plain, "instrumentation must not change results");
        sink.with_telemetry(|t| {
            assert_eq!(t.counter(names::ALLOC_RESTARTS), 4);
            assert_eq!(t.counter(names::ALLOC_RUNS), 4);
            assert!(t.counter(names::ALLOC_ROUNDS) >= 4);
            assert!(t.counter(names::ALLOC_ITERATIONS) >= t.counter(names::ALLOC_SWITCHES));
        });
    }

    #[test]
    fn sharded_on_connected_graph_matches_the_unsharded_composition() {
        let m = model(
            &[&[30.0, 28.0], &[5.0, 4.0], &[20.0]],
            InterferenceGraph::complete(3),
        );
        let plan = ChannelPlan::restricted(4);
        let cfg = AllocationConfig::default();
        let initial = random_initial(&plan, 3, 5);
        let sharded = allocate_sharded_with_restarts(&m, &plan, initial.clone(), &cfg, 4, 11);
        let best = from(&m, &plan, initial, &cfg);
        let hedged = allocate_with_restarts(&m, &plan, &cfg, 4, 11);
        let expect = if hedged.total_bps > best.total_bps {
            hedged
        } else {
            best
        };
        assert_eq!(sharded.assignments, expect.assignments);
        assert_eq!(sharded.total_bps.to_bits(), expect.total_bps.to_bits());
    }

    #[test]
    fn sharded_multi_component_solves_each_shard_independently() {
        // Two components: a triangle {0,1,2} and an edge {3,4}.
        let g = InterferenceGraph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let m = model(&[&[30.0], &[5.0, 4.0], &[20.0], &[28.0], &[12.0]], g);
        let plan = ChannelPlan::restricted(4);
        let cfg = AllocationConfig::default();
        let (restarts, seed) = (3usize, 17u64);
        let initial = random_initial(&plan, 5, 2);
        let sharded =
            allocate_sharded_with_restarts(&m, &plan, initial.clone(), &cfg, restarts, seed);

        // Every shard's slice of the merged assignment must equal solving
        // that shard's restricted model directly with the same seeds.
        for (s, nodes) in m.graph.connected_components().iter().enumerate() {
            let sub = m.restrict(nodes);
            let init: Vec<_> = nodes.iter().map(|&i| initial[i]).collect();
            let best = from(&sub, &plan, init, &cfg);
            let hedged = allocate_with_restarts(
                &sub,
                &plan,
                &cfg,
                restarts,
                seed.wrapping_add((s * restarts) as u64),
            );
            let expect = if hedged.total_bps > best.total_bps {
                hedged
            } else {
                best
            };
            for (local, &global) in nodes.iter().enumerate() {
                assert_eq!(
                    sharded.assignments[global], expect.assignments[local],
                    "shard {s}, AP {global}"
                );
            }
        }
        // The merged headline number is one full-model evaluation.
        assert_eq!(
            sharded.total_bps.to_bits(),
            m.total_bps(&sharded.assignments).to_bits()
        );
    }

    #[test]
    fn sharded_never_decreases_throughput_and_records_shards() {
        use acorn_obs::RecordingSink;
        let g = InterferenceGraph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        let m = model(&[&[30.0], &[5.0], &[20.0], &[28.0], &[12.0], &[7.0]], g);
        let plan = ChannelPlan::restricted(4);
        let cfg = AllocationConfig::default();
        let initial = random_initial(&plan, 6, 9);
        let y0 = m.total_bps(&initial);
        let sink = RecordingSink::new();
        let spec = AllocSpec {
            start: Some(initial),
            restarts: 2,
            seed: 3,
        };
        let r = allocate_sharded(&m, &plan, &cfg, &spec, &sink);
        assert!(r.total_bps + 1e-6 >= y0);
        sink.with_telemetry(|t| {
            assert_eq!(t.counter(names::ALLOC_SHARDS), 3);
            assert_eq!(t.counter(names::ALLOC_RESTARTS), 3 * 2);
            assert_eq!(t.counter(names::ALLOC_RUNS), 3 * 3);
        });
    }

    #[test]
    fn iteration_counter_grows_with_network_size() {
        let plan = ChannelPlan::restricted(4);
        let small = model(&[&[20.0]], InterferenceGraph::new(1));
        let large = model(
            &[&[20.0], &[18.0], &[16.0], &[14.0]],
            InterferenceGraph::complete(4),
        );
        let rs = allocate_with_restarts(&small, &plan, &AllocationConfig::default(), 0, 1);
        let rl = allocate_with_restarts(&large, &plan, &AllocationConfig::default(), 0, 1);
        assert!(rl.iterations > rs.iterations);
    }
}
