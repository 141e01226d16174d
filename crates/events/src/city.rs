//! City-scale ACORN evaluation: an incrementally-maintained spatial
//! world that keeps every event handler local.
//!
//! [`CompositeScenario`](crate::CompositeScenario) recomputes the
//! interference graph, every cell's SNR list, and every AP's beacon from
//! scratch on each event — exact, but O(network) per event, which caps it
//! at a few hundred APs. [`CityScenario`] is the large-deployment
//! counterpart built on this PR's three optimizations:
//!
//! * an AP [`SpatialGrid`] answers "which APs can hear this point?" in
//!   O(neighbours), so association candidate sets and interference-edge
//!   updates never scan the full AP list;
//! * the conflict graph is maintained *incrementally* — static AP–AP
//!   edges from the grid at build time, client-mediated edges as
//!   reference-counted entries updated on arrival/departure — and only
//!   materialized (O(V+E)) when a re-allocation epoch needs a model;
//! * re-allocation runs through the sharded Algorithm 2 fan-out
//!   ([`allocate_sharded_with_restarts_obs`]) over the graph's connected
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
//! Determinism is inherited wholesale: handlers are sequential, the
//! client-edge multiset lives in `BTreeMap`s (ordered iteration), and the
//! only parallel section is the order-stable sharded restart fan-out — so
//! runs are bit-identical at any `ACORN_THREADS`.

use crate::acorn::{AcornEvent, DriftSpec, ReallocRecord, SeedPolicy};
use crate::cityfaults::CityFaultProcess;
use crate::faults::{FaultPlan, ResilienceReport};
use crate::sim::{Ctx, Process, Simulation};
use crate::telemetry::{Histogram, TelemetrySnapshot};
use acorn_core::{
    allocate_sharded_with_restarts_obs, choose_ap_obs, AcornController, Candidate, ClientSnr,
    NetworkModel, NetworkState, ThroughputModel,
};
use acorn_obs::RecordingSink;
use acorn_phy::ChannelWidth;
use acorn_topology::{ApId, ChannelAssignment, ClientId, InterferenceGraph, SpatialGrid, Wlan};
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
    /// The last assignment + width vector a *healthy* re-allocation epoch
    /// deployed; safe mode restores it instead of re-optimizing on a
    /// partial view of the network.
    pub last_good: Option<(Vec<ChannelAssignment>, Vec<ChannelWidth>)>,
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

    /// Clients currently associated.
    pub fn active_clients(&self) -> usize {
        self.active
    }

    /// Whether every AP is up.
    pub fn all_up(&self) -> bool {
        self.ap_up.iter().all(|&u| u)
    }

    /// APs currently down.
    pub fn down_count(&self) -> usize {
        self.ap_up.iter().filter(|&&u| !u).count()
    }

    /// Static (AP–AP carrier-sense) neighbours of `ap`, ascending.
    pub fn static_neighbors(&self, ap: usize) -> &[u32] {
        &self.static_adj[ap]
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
    /// current dynamic graph and *effective* assignments.
    fn access_share(&self, ap: usize) -> f64 {
        let own = self.state.effective_assignment(ApId(ap));
        let mut con = 0usize;
        for &j in &self.static_adj[ap] {
            if own.conflicts(self.state.effective_assignment(ApId(j as usize))) {
                con += 1;
            }
        }
        for &j in self.via_adj[ap].keys() {
            // Client-mediated neighbours already in static range were
            // counted above.
            if self.static_adj[ap].binary_search(&j).is_ok() {
                continue;
            }
            if own.conflicts(self.state.effective_assignment(ApId(j as usize))) {
                con += 1;
            }
        }
        1.0 / (con as f64 + 1.0)
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
    pub fn adapt_width_local(&mut self, ap: usize) {
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

    /// Algorithm 1 over the spatial candidate set. Returns the chosen AP
    /// and the client's own delivery delay there, recording candidate
    /// metrics into `sink`. Dead APs don't beacon, so clients never see
    /// them as candidates — a no-op while every AP is up.
    pub fn associate_obs(&mut self, c: usize, sink: &RecordingSink) -> Option<(usize, f64)> {
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
                access_share: self.access_share(ap),
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

    /// Removes a departing client, unwinding its edges and cell entry.
    /// Returns its former AP.
    pub fn deassociate(&mut self, c: usize) -> Option<usize> {
        let ap = self.state.assoc[c]?.0;
        self.update_via_edges(c, ap, -1);
        self.cells[ap].retain(|&x| x as usize != c);
        self.state.assoc[c] = None;
        self.active -= 1;
        Some(ap)
    }

    /// Builds the throughput model from the maintained structures (the
    /// composite's `build_model` re-derives cells by scanning every
    /// client per AP — O(aps·clients) — which this path exists to avoid).
    pub fn build_model(&self) -> NetworkModel {
        let graph = self.graph_snapshot();
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
        self.ctl.model_from(graph, cells)
    }

    /// Refreshes every active client's cached SNR (after a drift step
    /// decorrelated the shadowing draws).
    pub fn refresh_snrs(&mut self) {
        for ap in 0..self.cells.len() {
            for i in 0..self.cells[ap].len() {
                let c = self.cells[ap][i] as usize;
                self.client_snr20[c] = self.wlan.snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20);
            }
        }
    }

    /// `M = 1/(|con|+1)` counting only *live* conflicting neighbours —
    /// dead APs don't transmit, so they cost no airtime.
    pub fn access_share_up(&self, ap: usize) -> f64 {
        let own = self.state.effective_assignment(ApId(ap));
        let mut con = 0usize;
        for &j in &self.static_adj[ap] {
            if self.ap_up[j as usize]
                && own.conflicts(self.state.effective_assignment(ApId(j as usize)))
            {
                con += 1;
            }
        }
        for &j in self.via_adj[ap].keys() {
            if self.static_adj[ap].binary_search(&j).is_ok() {
                continue;
            }
            if self.ap_up[j as usize]
                && own.conflicts(self.state.effective_assignment(ApId(j as usize)))
            {
                con += 1;
            }
        }
        1.0 / (con as f64 + 1.0)
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

/// Session churn over a [`CityWorld`] — the spatial-index counterpart of
/// [`SessionProcess`](crate::SessionProcess), with identical telemetry
/// names (`sessions.arrivals`, `sessions.departures`, `clients.active`,
/// `association.delay_s`).
pub struct CitySessionProcess {
    /// The session trace.
    pub sessions: Vec<Session>,
    /// Simulated horizon (s).
    pub horizon_s: f64,
    /// Run the localized width adaptation after cell changes.
    pub adapt_widths: bool,
}

impl Process<CityWorld, AcornEvent> for CitySessionProcess {
    fn start(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        for s in &self.sessions {
            assert!(
                s.client < ctx.world.wlan.clients.len(),
                "session client {} has no position in the deployment",
                s.client
            );
        }
        ctx.telemetry.register_histogram(
            "association.delay_s",
            Histogram::linear(0.0, 0.01, 50).expect("static histogram bounds"),
        );
        for i in 0..self.sessions.len() {
            let s = self.sessions[i];
            if s.start_s < self.horizon_s {
                ctx.schedule_at(s.start_s, AcornEvent::Arrive(s.client));
                ctx.schedule_at(s.end_s().min(self.horizon_s), AcornEvent::Depart(s.client));
            }
        }
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        match *event {
            AcornEvent::Arrive(c) => {
                let w = &mut *ctx.world;
                let sink = RecordingSink::new();
                let chosen = w.associate_obs(c, &sink);
                sink.drain_into(ctx.telemetry);
                ctx.telemetry.inc("sessions.arrivals");
                if let Some((ap, delay)) = chosen {
                    if self.adapt_widths {
                        w.adapt_width_local(ap);
                    }
                    ctx.telemetry.observe("association.delay_s", delay);
                }
            }
            AcornEvent::Depart(c) => {
                let w = &mut *ctx.world;
                if let Some(ap) = w.deassociate(c) {
                    if self.adapt_widths {
                        w.adapt_width_local(ap);
                    }
                }
                ctx.telemetry.inc("sessions.departures");
            }
            _ => {}
        }
        ctx.telemetry
            .set_gauge("clients.active", ctx.world.active_clients() as f64);
    }
}

/// Periodic sharded re-allocation over a [`CityWorld`] — the counterpart
/// of [`ReallocationTimer`](crate::ReallocationTimer), with the same
/// telemetry names plus the `alloc.shards` counter the sharded path
/// reports.
pub struct CityReallocationTimer {
    /// Re-allocation period `T` (s).
    pub period_s: f64,
    /// Horizon (s); ticks at or past it never fire.
    pub horizon_s: f64,
    /// Random restarts per shard per epoch.
    pub restarts: usize,
    /// Run the localized width adaptation after each re-allocation.
    pub adapt_widths: bool,
    /// Per-epoch seed derivation.
    pub seed_policy: SeedPolicy,
    /// Degrade gracefully when APs are down: keep the last-known-good
    /// plan, skip re-optimization, and force cells bordering a dead AP to
    /// 20 MHz. Off, the timer re-optimizes blindly every epoch (the
    /// pre-fault-layer behaviour — and bit-identical to it while every
    /// AP is up).
    pub safe_mode: bool,
}

impl Process<CityWorld, AcornEvent> for CityReallocationTimer {
    fn start(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        ctx.telemetry.register_histogram(
            "switches",
            Histogram::linear(0.0, 32.0, 32).expect("static histogram bounds"),
        );
        if self.period_s < self.horizon_s {
            ctx.schedule_at(self.period_s, AcornEvent::Reallocate);
        }
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        debug_assert_eq!(*event, AcornEvent::Reallocate);
        let t = ctx.now();
        let seed = self.seed_policy.epoch_seed(ctx.event_seq());
        let w = &mut *ctx.world;
        let model = w.build_model();
        // Before/after are the model's own objective (assignment widths):
        // the composite's per-AP effective-width total rebuilds the model
        // once per AP, which is O(n²) and exactly what city mode avoids.
        let before = model.total_bps(&w.state.assignments);
        let active = w.active_clients();
        let degraded = self.safe_mode && !w.all_up();
        let (after, switches) = if degraded {
            // Safe mode: a partial network means a partial view — any
            // re-optimization now would chase phantom interference. Keep
            // the last plan a healthy epoch deployed and shed the risky
            // 40 MHz bonds next to the hole.
            if let Some((assignments, widths)) = w.last_good.clone() {
                w.state.assignments = assignments;
                w.state.operating_width = widths;
            }
            for ap in 0..w.wlan.aps.len() {
                if w.ap_up[ap] && w.static_adj[ap].iter().any(|&n| !w.ap_up[n as usize]) {
                    w.state.operating_width[ap] = ChannelWidth::Ht20;
                }
            }
            ctx.telemetry
                .inc(acorn_obs::names::CONTROLLER_SAFE_MODE_EPOCHS);
            (model.total_bps(&w.state.assignments), 0)
        } else {
            let sink = RecordingSink::new();
            let r = allocate_sharded_with_restarts_obs(
                &model,
                &w.ctl.config.plan,
                w.state.assignments.clone(),
                &w.ctl.config.allocation,
                self.restarts,
                seed,
                &sink,
            );
            w.state.assignments = r.assignments.clone();
            w.state.operating_width = w.state.assignments.iter().map(|a| a.width()).collect();
            if self.adapt_widths {
                for ap in 0..w.wlan.aps.len() {
                    w.adapt_width_local(ap);
                }
            }
            // Flush the epoch's model-evaluation and goodput-table counters
            // alongside the alloc.* metrics (the controller's obs entry
            // points do the same through `finish_epoch_obs`).
            model.flush_stats_into(&sink);
            sink.drain_into(ctx.telemetry);
            if self.safe_mode {
                w.last_good = Some((w.state.assignments.clone(), w.state.operating_width.clone()));
            }
            (r.total_bps, r.switches)
        };
        let record = ReallocRecord {
            t_s: t,
            active_clients: active,
            before_bps: before,
            after_bps: after,
            switches,
            degraded,
            down_aps: w.down_count(),
        };
        w.realloc_log.push(record);
        ctx.telemetry.inc("reallocations");
        ctx.telemetry.record("network_bps.before", t, before);
        ctx.telemetry.record("network_bps.after", t, after);
        ctx.telemetry.observe("switches", switches as f64);
        let next = t + self.period_s;
        if next < self.horizon_s {
            ctx.schedule_at(next, AcornEvent::Reallocate);
        }
    }
}

/// Shadowing drift over a [`CityWorld`]: advances the path-loss drift
/// phase and refreshes every active link's cached SNR. Telemetry names
/// match [`DriftProcess`](crate::DriftProcess) (`drift.phase_rad`,
/// `drift.steps`).
pub struct CityDriftProcess {
    /// Drift step period (s).
    pub period_s: f64,
    /// Horizon (s); steps past it never fire.
    pub horizon_s: f64,
    /// Phase advance per step (radians).
    pub phase_step_rad: f64,
}

impl Process<CityWorld, AcornEvent> for CityDriftProcess {
    fn start(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        if self.period_s <= self.horizon_s {
            ctx.schedule_at(self.period_s, AcornEvent::DriftStep);
        }
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        debug_assert_eq!(*event, AcornEvent::DriftStep);
        let t = ctx.now();
        ctx.world.wlan.pathloss.drift_phase += self.phase_step_rad;
        ctx.world.refresh_snrs();
        ctx.telemetry
            .set_gauge("drift.phase_rad", ctx.world.wlan.pathloss.drift_phase);
        ctx.telemetry.inc("drift.steps");
        let next = t + self.period_s;
        if next <= self.horizon_s {
            ctx.schedule_at(next, AcornEvent::DriftStep);
        }
    }
}

/// A city-scale scenario: session churn + periodic sharded re-allocation
/// (+ optional shadowing drift) over one deployment, driven through the
/// incremental [`CityWorld`]. Process registration order is fixed
/// (sessions, timer, drift), pinning the dispatch order of simultaneous
/// events.
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

/// What a [`CityScenario`] run produced.
pub struct CityReport {
    /// Events dispatched and final virtual time.
    pub stats: crate::sim::RunStats,
    /// The frozen telemetry.
    pub telemetry: TelemetrySnapshot,
    /// The executed-event log (present iff `record_log` was set).
    pub log: Option<crate::sim::EventLog>,
    /// One record per re-allocation epoch.
    pub realloc: Vec<ReallocRecord>,
    /// The final controller state.
    pub final_state: NetworkState,
    /// Fault-layer aggregates (present iff `faults` was set). The golden
    /// comparison fields are zero unless
    /// [`run_resilience`](CityScenario::run_resilience) produced the
    /// report.
    pub resilience: Option<ResilienceReport>,
}

impl CityScenario {
    /// Runs the scenario under `ctl` to its horizon.
    pub fn run(&self, ctl: &AcornController) -> CityReport {
        let world = CityWorld::new(
            self.wlan.clone(),
            ctl.clone(),
            self.candidate_radius_m,
            self.seed,
        );
        let mut sim: Simulation<CityWorld, AcornEvent> = Simulation::new(world);
        sim.record_events(self.record_log);
        sim.add_process(Box::new(CitySessionProcess {
            sessions: self.sessions.clone(),
            horizon_s: self.horizon_s,
            adapt_widths: self.adapt_widths,
        }));
        sim.add_process(Box::new(CityReallocationTimer {
            period_s: self.reallocation_period_s,
            horizon_s: self.horizon_s,
            restarts: self.restarts,
            adapt_widths: self.adapt_widths,
            // With faults on, epoch seeds count epochs rather than events:
            // a faulty run and its golden twin schedule different event
            // interleavings, and the resilience comparison is only
            // meaningful if both draw identical per-epoch restart streams.
            seed_policy: if self.faults.is_some() {
                SeedPolicy::Sequential {
                    next: self.seed.wrapping_add(1),
                }
            } else {
                SeedPolicy::FromEventSeq { base: self.seed }
            },
            safe_mode: self.faults.is_some(),
        }));
        if let Some(d) = self.drift {
            sim.add_process(Box::new(CityDriftProcess {
                period_s: d.period_s,
                horizon_s: self.horizon_s,
                phase_step_rad: d.phase_step_rad,
            }));
        }
        // The fault process registers *last* so the benign event schedule
        // (and every pre-existing golden fingerprint) is untouched when it
        // is absent.
        if let Some(plan) = self.faults {
            sim.add_process(Box::new(CityFaultProcess::new(plan, self.horizon_s)));
        }
        let stats = sim.run(self.horizon_s);
        let resilience = self
            .faults
            .map(|_| ResilienceReport::from_telemetry(&sim.telemetry));
        CityReport {
            stats,
            telemetry: sim.telemetry.snapshot(),
            log: sim.event_log().cloned(),
            realloc: std::mem::take(&mut sim.world.realloc_log),
            final_state: sim.world.state.clone(),
            resilience,
        }
    }

    /// Runs the scenario twice — once with its fault plan, once with the
    /// plan's fault-free twin — and returns the faulty report with its
    /// [`ResilienceReport`] golden-comparison fields filled in
    /// (`golden_mean_bps`, `throughput_retained`).
    pub fn run_resilience(&self, ctl: &AcornController) -> CityReport {
        let plan = self.faults.unwrap_or_default();
        let mut faulty = self.clone();
        faulty.faults = Some(plan);
        let mut report = faulty.run(ctl);
        let mut golden = self.clone();
        golden.faults = Some(plan.benign_twin());
        let golden_report = golden.run(ctl);
        if let (Some(r), Some(g)) = (report.resilience.as_mut(), golden_report.resilience) {
            r.golden_mean_bps = g.faulty_mean_bps;
            r.throughput_retained = if g.faulty_mean_bps > 0.0 {
                r.faulty_mean_bps / g.faulty_mean_bps
            } else {
                0.0
            };
        }
        report
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
        // Empty association: snapshot must equal the AP-only graph.
        assert_eq!(
            world.graph_snapshot(),
            world.wlan.interference_graph(&world.state.assoc)
        );
        // Associate everyone, then the graph must still match exactly.
        let sink = RecordingSink::new();
        for c in 0..world.wlan.clients.len() {
            world.associate_obs(c, &sink);
        }
        assert_eq!(
            world.graph_snapshot(),
            world.wlan.interference_graph(&world.state.assoc)
        );
        // Unwinding departures restores the AP-only graph.
        for c in 0..world.wlan.clients.len() {
            world.deassociate(c);
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
            world.associate_obs(c, &sink);
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
