//! City-scale ACORN evaluation: an incrementally-maintained spatial
//! world that keeps every event handler local.
//!
//! [`CompositeScenario`](crate::CompositeScenario) recomputes the
//! interference graph, every cell's SNR list, and every AP's beacon from
//! scratch on each event — exact, but O(network) per event, which caps it
//! at a few hundred APs. [`CityScenario`] is the large-deployment
//! counterpart built on three optimizations:
//!
//! * an AP [`SpatialGrid`] answers "which APs can hear this point?" in
//!   O(neighbours), so association candidate sets and interference-edge
//!   updates never scan the full AP list;
//! * the conflict graph is maintained *incrementally* — static AP–AP
//!   edges from the grid at build time, client-mediated edges as
//!   reference-counted entries updated on arrival/departure — and only
//!   materialized (O(V+E)) when a re-allocation epoch needs a model;
//! * re-allocation runs through the sharded Algorithm 2 fan-out
//!   ([`allocate_sharded`]) over the graph's connected
//!   components, with SNR→goodput queries served by the controller's
//!   memoized [`GoodputTable`](acorn_phy::GoodputTable) when one is
//!   attached.
//!
//! Semantics deliberately localized relative to the exact composite
//! (documented, not accidental):
//!
//! * A client probes only APs within [`CityScenario::candidate_radius_m`]
//!   of its position (the composite probes every AP; distant APs fail the
//!   SNR floor anyway).
//! * The §5.2 width adaptation is evaluated only for the AP whose cell
//!   just changed (arrival/departure) or for all APs after a
//!   re-allocation — never network-wide per event.
//! * Per-client mobility is not part of this scenario class; client
//!   positions are fixed for the run (shadowing drift still re-samples
//!   every active link's SNR). Faults are: [`CityScenario::faults`]
//!   drives the localized [`CityFaultProcess`].
//!
//! [`CityWorld`] implements the [`World`] trait with the localized
//! answers above, and the scenario registers the same
//! [`SessionProcess`], [`ReallocationTimer`] and
//! [`DriftProcess`](crate::DriftProcess) as the exact composite, so
//! telemetry names and write order match by construction.
//!
//! Determinism is inherited wholesale: handlers are sequential, the
//! client-edge multiset lives in `BTreeMap`s (ordered iteration), and the
//! only parallel section is the order-stable sharded restart fan-out — so
//! runs are bit-identical at any `ACORN_THREADS`.

use crate::acorn::{
    AcornEvent, CompositeReport, DriftSpec, Plan, ReallocRecord, ReallocationTimer, SessionProcess,
    Shared, World,
};
use crate::cityfaults::CityFaultProcess;
use crate::faults::{resilience_twin, FaultPlan};
use crate::sim::Simulation;
use acorn_core::{
    allocate_sharded, choose_ap_obs, AcornController, AllocSpec, Candidate, ClientSnr,
    NetworkModel, NetworkState, ThroughputModel,
};
use acorn_obs::RecordingSink;
use acorn_phy::ChannelWidth;
use acorn_topology::{ApId, ClientId, InterferenceGraph, SpatialGrid, Wlan};
use acorn_traces::Session;
use std::collections::BTreeMap;

/// The incrementally-maintained city world.
pub struct CityWorld {
    /// The deployment (mutable only through shadowing drift).
    pub wlan: Wlan,
    /// The controller (its table, plan, and Algorithm 1/2 knobs).
    pub ctl: AcornController,
    /// Mutable network state (assignments, associations, widths).
    pub state: NetworkState,
    /// Association candidate radius (m).
    pub candidate_radius_m: f64,
    /// One record per re-allocation epoch, in firing order.
    pub realloc_log: Vec<ReallocRecord>,
    /// Liveness per AP — all `true` unless a fault process crashes one.
    /// Dead APs don't beacon, so association skips them.
    pub ap_up: Vec<bool>,
    /// The last plan a *healthy* re-allocation epoch deployed.
    pub last_good: Option<Plan>,
    /// Spatial index over AP positions.
    grid: SpatialGrid,
    /// Static AP–AP conflict edges (both directions, ascending).
    static_adj: Vec<Vec<u32>>,
    /// Client-mediated conflict edges as reference counts: `via_adj[a]`
    /// maps neighbour `b` to the number of associated clients currently
    /// inducing the edge `a–b`. Symmetric.
    via_adj: Vec<BTreeMap<u32, u32>>,
    /// Active clients per AP, in association order.
    cells: Vec<Vec<u32>>,
    /// Cached HT20 SNR of each active client to its AP (refreshed on
    /// drift steps; meaningless for unassociated clients).
    client_snr20: Vec<f64>,
    /// Associated-client count (the composite scans `assoc`; at 10⁵
    /// clients that scan would dominate every event).
    active: usize,
}

impl CityWorld {
    /// Builds the world: spatial index, static AP–AP edges, fresh
    /// controller state seeded from `seed`.
    pub fn new(wlan: Wlan, ctl: AcornController, candidate_radius_m: f64, seed: u64) -> CityWorld {
        assert!(
            candidate_radius_m > 0.0,
            "candidate radius must be positive"
        );
        let state = ctl.new_state(&wlan, seed);
        let r = wlan.radio.carrier_sense_range_m;
        let ap_points: Vec<_> = wlan.aps.iter().map(|a| a.pos).collect();
        let grid = SpatialGrid::build(&ap_points, r.max(1.0));
        let n = wlan.aps.len();
        let static_adj: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                grid.within(&wlan.aps[i].pos, r)
                    .into_iter()
                    .filter(|&j| j != i)
                    .map(|j| j as u32)
                    .collect()
            })
            .collect();
        CityWorld {
            state,
            candidate_radius_m,
            realloc_log: Vec::new(),
            ap_up: vec![true; n],
            last_good: None,
            grid,
            static_adj,
            via_adj: vec![BTreeMap::new(); n],
            cells: vec![Vec::new(); n],
            client_snr20: vec![f64::NEG_INFINITY; wlan.clients.len()],
            active: 0,
            wlan,
            ctl,
        }
    }

    /// The clients currently in `ap`'s cell, in association order.
    pub fn cell_clients(&self, ap: usize) -> &[u32] {
        &self.cells[ap]
    }

    /// The cached HT20 SNR of client `c` to its AP (meaningless for
    /// unassociated clients).
    pub fn client_snr20_cached(&self, c: usize) -> f64 {
        self.client_snr20[c]
    }

    /// Overwrites client `c`'s cached SNR — the measurement path a fault
    /// process drives (its outlier/NaN gates decide what lands here).
    pub fn set_client_snr20(&mut self, c: usize, snr20_db: f64) {
        self.client_snr20[c] = snr20_db;
    }

    /// Materializes the current conflict graph — identical, edge for
    /// edge, to `wlan.interference_graph(&state.assoc)`: the static grid
    /// edges plus every positively-referenced client-mediated edge.
    pub fn graph_snapshot(&self) -> InterferenceGraph {
        let n = self.wlan.aps.len();
        let mut g = InterferenceGraph::new(n);
        for (i, nbs) in self.static_adj.iter().enumerate() {
            for &j in nbs.iter().filter(|&&j| (j as usize) > i) {
                g.add_edge(ApId(i), ApId(j as usize));
            }
        }
        for (a, nbs) in self.via_adj.iter().enumerate() {
            for (&b, &count) in nbs.range((a as u32 + 1)..) {
                debug_assert!(count > 0, "zero-count edge left in via_adj");
                g.add_edge(ApId(a), ApId(b as usize));
            }
        }
        g
    }

    /// The paper's `M = 1/(|con|+1)` access share of `ap` under the
    /// current dynamic graph and *effective* assignments, counting the
    /// conflicting neighbours `counts` admits.
    fn access_share_among(&self, ap: usize, counts: impl Fn(usize) -> bool) -> f64 {
        let own = self.state.effective_assignment(ApId(ap));
        let conflicts = |j: u32| {
            counts(j as usize) && own.conflicts(self.state.effective_assignment(ApId(j as usize)))
        };
        let direct = self.static_adj[ap]
            .iter()
            .filter(|&&j| conflicts(j))
            .count();
        // Client-mediated neighbours already in static range were counted
        // above.
        let via = self.via_adj[ap]
            .keys()
            .filter(|&&j| self.static_adj[ap].binary_search(&j).is_err() && conflicts(j))
            .count();
        1.0 / ((direct + via) as f64 + 1.0)
    }

    /// Sum of the cell's per-client delivery delays at `width` (the
    /// beacon's ATD), from the cached HT20 SNRs.
    fn cell_atd_s(&self, ap: usize, width: ChannelWidth) -> f64 {
        self.cells[ap]
            .iter()
            .map(|&c| {
                self.ctl
                    .delay_from_snr(self.client_snr20[c as usize], width)
            })
            .sum()
    }

    /// Localized §5.2 width adaptation for one AP (same hysteretic rule
    /// as [`AcornController::adapt_widths`]; cell throughput at equal
    /// access share is `k·8·payload/ATD`, so widths compare by `1/ATD`).
    fn adapt_width_local(&mut self, ap: usize) {
        if self.state.assignments[ap].width() != ChannelWidth::Ht40 || self.cells[ap].is_empty() {
            return;
        }
        let t40 = self.cell_atd_s(ap, ChannelWidth::Ht40).recip();
        let t20 = self.cell_atd_s(ap, ChannelWidth::Ht20).recip();
        let margin = self.ctl.config.width_hysteresis.max(0.0);
        if margin == 0.0 {
            self.state.operating_width[ap] = if t40 >= t20 {
                ChannelWidth::Ht40
            } else {
                ChannelWidth::Ht20
            };
            return;
        }
        let (t_cur, t_alt, alt) = match self.state.operating_width[ap] {
            ChannelWidth::Ht40 => (t40, t20, ChannelWidth::Ht20),
            ChannelWidth::Ht20 => (t20, t40, ChannelWidth::Ht40),
        };
        if t_alt > t_cur * (1.0 + margin) {
            self.state.operating_width[ap] = alt;
        }
    }

    /// Adds (+1) or removes (−1) the client-mediated edges client `c`
    /// induces between its owner `ap` and every other AP in carrier-sense
    /// range of the client.
    fn update_via_edges(&mut self, c: usize, ap: usize, delta: i32) {
        let r = self.wlan.radio.carrier_sense_range_m;
        for j in self.grid.within(&self.wlan.clients[c].pos, r) {
            if j == ap {
                continue;
            }
            for (x, y) in [(ap, j), (j, ap)] {
                if delta > 0 {
                    *self.via_adj[x].entry(y as u32).or_insert(0) += 1;
                } else {
                    let e = self.via_adj[x]
                        .get_mut(&(y as u32))
                        .expect("departing client's edge must exist");
                    *e -= 1;
                    if *e == 0 {
                        self.via_adj[x].remove(&(y as u32));
                    }
                }
            }
        }
    }

    /// `M = 1/(|con|+1)` counting only *live* conflicting neighbours —
    /// dead APs don't transmit, so they cost no airtime.
    pub fn access_share_up(&self, ap: usize) -> f64 {
        self.access_share_among(ap, |j| self.ap_up[j])
    }

    /// One live cell's goodput under the localized model:
    /// `share · k · 8 · payload / ATD` at the cell's operating width.
    /// Zero for dead or empty cells. O(neighbours) — cheap enough for
    /// per-tick soak probes, unlike a full model build.
    pub fn cell_bps_up(&self, ap: usize) -> f64 {
        if !self.ap_up[ap] || self.cells[ap].is_empty() {
            return 0.0;
        }
        let width = self.state.operating_width[ap];
        let atd = self.cell_atd_s(ap, width);
        if !(atd > 0.0) || !atd.is_finite() {
            return 0.0;
        }
        let k = self.cells[ap].len() as f64;
        self.access_share_up(ap) * k * 8.0 * self.ctl.config.payload_bytes as f64 / atd
    }

    /// Network goodput over live APs only (sum of [`cell_bps_up`]
    /// over all cells) — the quantity the soak probe records and
    /// `throughput_retained` compares across fault profiles.
    ///
    /// [`cell_bps_up`]: CityWorld::cell_bps_up
    pub fn network_bps_up(&self) -> f64 {
        (0..self.wlan.aps.len())
            .map(|ap| self.cell_bps_up(ap))
            .sum()
    }
}

impl World for CityWorld {
    /// The throughput model built once per epoch from the maintained
    /// structures.
    type Epoch = NetworkModel;

    fn shared(&mut self) -> Shared<'_> {
        Shared {
            wlan: &mut self.wlan,
            state: &mut self.state,
            ap_up: &mut self.ap_up,
            last_good: &mut self.last_good,
            realloc_log: &mut self.realloc_log,
        }
    }

    fn ap_up(&self) -> &[bool] {
        &self.ap_up
    }

    fn active_clients(&self) -> usize {
        self.active
    }

    /// Algorithm 1 over the spatial candidate set.
    fn arrive(&mut self, c: usize, sink: &RecordingSink) -> Option<(usize, f64)> {
        let pos = self.wlan.clients[c].pos;
        let mut candidates = Vec::new();
        let mut snrs = Vec::new();
        for ap in self.grid.within(&pos, self.candidate_radius_m) {
            if !self.ap_up[ap] {
                continue;
            }
            let snr20 = self.wlan.snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20);
            if snr20 < self.ctl.config.association_snr_floor_db {
                continue;
            }
            let width = self.state.operating_width[ap];
            let d_u = self.ctl.delay_from_snr(snr20, width);
            candidates.push(Candidate {
                ap: ApId(ap),
                k_including_u: self.cells[ap].len() + 1,
                access_share: self.access_share_among(ap, |_| true),
                atd_including_u_s: self.cell_atd_s(ap, width) + d_u,
                delay_u_s: d_u,
            });
            snrs.push(snr20);
        }
        let i = choose_ap_obs(&candidates, sink)?;
        let ap = candidates[i].ap.0;
        self.state.assoc[c] = Some(ApId(ap));
        self.client_snr20[c] = snrs[i];
        self.cells[ap].push(c as u32);
        self.active += 1;
        self.update_via_edges(c, ap, 1);
        Some((ap, candidates[i].delay_u_s))
    }

    /// Unwinds the departing client's edges and cell entry.
    fn depart(&mut self, c: usize) -> Option<usize> {
        let ap = self.state.assoc[c]?.0;
        self.update_via_edges(c, ap, -1);
        self.cells[ap].retain(|&x| x as usize != c);
        self.state.assoc[c] = None;
        self.active -= 1;
        Some(ap)
    }

    /// Local: only the changed cell re-evaluates its width.
    fn adapt_after_cell_change(&mut self, ap: Option<usize>) {
        if let Some(ap) = ap {
            self.adapt_width_local(ap);
        }
    }

    /// Built from the maintained structures (the composite's
    /// `build_model` re-derives cells by scanning every client per AP —
    /// O(aps·clients) — which this path exists to avoid).
    fn epoch(&self) -> NetworkModel {
        let cells: Vec<Vec<ClientSnr>> = self
            .cells
            .iter()
            .map(|cell| {
                cell.iter()
                    .map(|&c| ClientSnr {
                        client: c as usize,
                        snr20_db: self.client_snr20[c as usize],
                    })
                    .collect()
            })
            .collect();
        self.ctl.model_from(self.graph_snapshot(), cells)
    }

    /// The model's own objective at assignment widths: the composite's
    /// per-AP effective-width total rebuilds the model once per AP,
    /// which is O(n²) and exactly what city mode avoids.
    fn epoch_bps(&self, model: &NetworkModel) -> f64 {
        model.total_bps(&self.state.assignments)
    }

    /// The sharded allocator on the epoch's model, then the localized
    /// width adaptation on every cell; the model's evaluation and
    /// goodput-table counters are flushed alongside the `alloc.*`
    /// metrics (the controller's `reallocate` does the same after its
    /// fan-out).
    fn reoptimize(
        &mut self,
        model: NetworkModel,
        restarts: usize,
        seed: u64,
        adapt_widths: bool,
        sink: &RecordingSink,
    ) -> (f64, usize) {
        let spec = AllocSpec {
            start: Some(self.state.assignments.clone()),
            restarts,
            seed,
        };
        let cfg = &self.ctl.config;
        let r = allocate_sharded(&model, &cfg.plan, &cfg.allocation, &spec, sink);
        self.state.assignments = r.assignments.clone();
        self.state.operating_width = self.state.assignments.iter().map(|a| a.width()).collect();
        if adapt_widths {
            for ap in 0..self.wlan.aps.len() {
                self.adapt_width_local(ap);
            }
        }
        model.flush_stats_into(sink);
        (r.total_bps, r.switches)
    }

    /// Drift moved every link: refresh every active client's cached
    /// SNR.
    fn after_drift(&mut self) {
        for ap in 0..self.cells.len() {
            for i in 0..self.cells[ap].len() {
                let c = self.cells[ap][i] as usize;
                self.client_snr20[c] = self.wlan.snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20);
            }
        }
    }
}

/// The city scenario's re-allocation timer. Kept only as an alias of
/// [`ReallocationTimer`], which serves both worlds, because existing
/// callers build it by struct literal under this name.
pub type CityReallocationTimer = ReallocationTimer;

/// A city-scale scenario: session churn + periodic sharded re-allocation
/// (+ optional shadowing drift and fault layer) over one deployment,
/// driven through the incremental [`CityWorld`]. Process registration
/// order is fixed (sessions, timer, drift, faults), pinning the dispatch
/// order of simultaneous events.
#[derive(Clone)]
pub struct CityScenario {
    /// The deployment — typically `acorn_sim::scenario::city_grid`
    /// shaped. Any `Wlan` works, but the sharding win needs a conflict
    /// graph that decomposes into components.
    pub wlan: Wlan,
    /// The session trace.
    pub sessions: Vec<Session>,
    /// Simulated horizon (s).
    pub horizon_s: f64,
    /// Re-allocation period `T` (s).
    pub reallocation_period_s: f64,
    /// Restarts per shard per re-allocation epoch.
    pub restarts: usize,
    /// Association candidate radius (m).
    pub candidate_radius_m: f64,
    /// Run the localized width adaptation after cell changes and epochs.
    pub adapt_widths: bool,
    /// Optional shadowing drift.
    pub drift: Option<DriftSpec>,
    /// Optional fault-injection layer (AP crash/restart, measurement
    /// faults, beacon gauntlet). Setting it (even to a benign plan)
    /// switches the re-allocation timer to safe mode and epoch seeds to
    /// the sequential policy (for twin comparability).
    pub faults: Option<FaultPlan>,
    /// Master seed (initial assignment + per-epoch restart streams).
    pub seed: u64,
    /// Record the executed-event log (costs a `String` per event — avoid
    /// at full scale).
    pub record_log: bool,
}

impl CityScenario {
    /// Runs the scenario under `ctl` to its horizon.
    pub fn run(&self, ctl: &AcornController) -> CompositeReport {
        let world = CityWorld::new(
            self.wlan.clone(),
            ctl.clone(),
            self.candidate_radius_m,
            self.seed,
        );
        let mut sim: Simulation<CityWorld, AcornEvent> = Simulation::new(world);
        sim.record_events(self.record_log);
        sim.add_process(Box::new(SessionProcess {
            sessions: self.sessions.clone(),
            horizon_s: self.horizon_s,
            adapt_widths: self.adapt_widths,
        }));
        sim.add_process(Box::new(ReallocationTimer::for_scenario(
            self.reallocation_period_s,
            self.horizon_s,
            self.restarts,
            self.adapt_widths,
            self.seed,
            self.faults.is_some(),
        )));
        if let Some(d) = self.drift {
            sim.add_process(Box::new(d.process(self.horizon_s)));
        }
        if let Some(plan) = self.faults {
            sim.add_process(Box::new(CityFaultProcess::new(plan, self.horizon_s)));
        }
        CompositeReport::run(sim, self.horizon_s, self.faults.is_some())
    }

    /// Runs the scenario with its fault plan and with the plan's
    /// fault-free twin ([`resilience_twin`]) and returns the faulty
    /// report with its golden-comparison fields filled in.
    pub fn run_resilience(&self, ctl: &AcornController) -> CompositeReport {
        resilience_twin(
            self.faults.unwrap_or_default(),
            |plan| {
                let faulty = CityScenario {
                    faults: Some(plan),
                    ..self.clone()
                };
                faulty.run(ctl)
            },
            |r| &mut r.resilience,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_core::AcornConfig;
    use acorn_phy::estimator::LinkQualityEstimator;
    use acorn_phy::GoodputTable;
    use acorn_topology::Point;
    use std::sync::Arc;

    /// Two 2-AP districts 400 m apart (mirroring the `city_grid` layout
    /// without depending on `acorn-sim`), clients near each district.
    fn wlan() -> Wlan {
        let mut w = Wlan::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(50.0, 0.0),
                Point::new(400.0, 0.0),
                Point::new(450.0, 0.0),
            ],
            vec![
                Point::new(10.0, 5.0),
                Point::new(40.0, -5.0),
                Point::new(410.0, 5.0),
                Point::new(440.0, -5.0),
                Point::new(25.0, 10.0),
                Point::new(425.0, 10.0),
            ],
            17,
        );
        w.pathloss.shadowing_sigma_db = 0.0;
        w
    }

    fn sessions() -> Vec<Session> {
        (0..6)
            .map(|c| Session {
                client: c,
                start_s: 5.0 + 10.0 * c as f64,
                duration_s: 400.0 + 50.0 * c as f64,
            })
            .collect()
    }

    fn scenario(seed: u64) -> CityScenario {
        CityScenario {
            wlan: wlan(),
            sessions: sessions(),
            horizon_s: 900.0,
            reallocation_period_s: 300.0,
            restarts: 2,
            candidate_radius_m: 120.0,
            adapt_widths: true,
            drift: Some(DriftSpec {
                period_s: 250.0,
                phase_step_rad: 0.05,
            }),
            faults: None,
            seed,
            record_log: true,
        }
    }

    fn table_ctl() -> AcornController {
        let table = Arc::new(GoodputTable::build(
            LinkQualityEstimator::default(),
            -12.0,
            48.0,
            0.0625,
        ));
        AcornController::with_table(AcornConfig::default(), table)
    }

    #[test]
    fn world_graph_matches_the_exact_interference_graph() {
        let w = wlan();
        let ctl = AcornController::new(AcornConfig::default());
        let mut world = CityWorld::new(w, ctl, 120.0, 1);
        // Empty association: snapshot must equal the AP-only graph —
        // so the static edges are exactly the neighbours safe mode reads
        // from `ap_only_interference_graph` in either world.
        assert_eq!(
            world.graph_snapshot(),
            world.wlan.interference_graph(&world.state.assoc)
        );
        assert_eq!(
            world.graph_snapshot(),
            world.wlan.ap_only_interference_graph()
        );
        // Associate everyone, then the graph must still match exactly.
        let sink = RecordingSink::new();
        for c in 0..world.wlan.clients.len() {
            world.arrive(c, &sink);
        }
        assert_eq!(
            world.graph_snapshot(),
            world.wlan.interference_graph(&world.state.assoc)
        );
        // Unwinding departures restores the AP-only graph.
        for c in 0..world.wlan.clients.len() {
            world.depart(c);
        }
        assert_eq!(
            world.graph_snapshot(),
            world.wlan.interference_graph(&vec![None; 6])
        );
        assert!(world.via_adj.iter().all(|m| m.is_empty()));
        assert_eq!(world.active_clients(), 0);
    }

    #[test]
    fn city_runs_and_reallocates_per_shard() {
        let ctl = table_ctl();
        let r = scenario(7).run(&ctl);
        // 6 arrivals + 6 departures (some clamped to horizon) + 2
        // reallocs (300, 600) + 3 drift steps (250, 500, 750).
        assert_eq!(r.realloc.len(), 2);
        let tel = &r.telemetry;
        let counter = |n: &str| {
            tel.counters
                .iter()
                .find(|c| c.name == n)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        assert_eq!(counter("sessions.arrivals"), 6);
        assert_eq!(counter("sessions.departures"), 6);
        assert_eq!(counter("reallocations"), 2);
        assert_eq!(counter("drift.steps"), 3);
        // Two districts → two shards per epoch.
        assert_eq!(counter(acorn_obs::names::ALLOC_SHARDS), 4);
        assert!(counter(acorn_obs::names::TABLE_HITS) > 0);
        // Every client found a home in its own district.
        assert!(r.realloc[1].active_clients > 0);
        assert!(r.final_state.assoc.iter().all(|a| a.is_none()));
    }

    #[test]
    fn city_is_reproducible() {
        // A fresh table per run: the table's hit/rebuild counters are
        // process-global (drained at each flush), so telemetry equality
        // needs each run to own its table — exactly how the bench and
        // determinism harnesses use it.
        let a = scenario(7).run(&table_ctl());
        let b = scenario(7).run(&table_ctl());
        assert_eq!(a.log, b.log);
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(a.final_state, b.final_state);
    }

    #[test]
    fn clients_associate_within_their_district() {
        let w = wlan();
        let ctl = AcornController::new(AcornConfig::default());
        let mut world = CityWorld::new(w, ctl, 120.0, 3);
        let sink = RecordingSink::new();
        for c in 0..6 {
            world.arrive(c, &sink);
        }
        // Clients 0,1,4 sit near district 0 (APs 0–1); 2,3,5 near
        // district 1 (APs 2–3).
        for (c, aps) in [(0, [0, 1]), (1, [0, 1]), (4, [0, 1])] {
            assert!(aps.contains(&world.state.assoc[c].unwrap().0));
        }
        for (c, aps) in [(2, [2, 3]), (3, [2, 3]), (5, [2, 3])] {
            assert!(aps.contains(&world.state.assoc[c].unwrap().0));
        }
    }
}
