//! The ACORN controller: the glue that runs Algorithms 1 and 2 over a live
//! deployment (Fig. 7's two coupled modules), plus the opportunistic
//! width adaptation used with mobile clients (§5.2).
//!
//! Lifecycle, as in the paper's Click implementation:
//! * APs periodically emit modified beacons ([`AcornController::beacons`]).
//! * An arriving client probes every in-range AP, builds its candidate
//!   set, and associates per Algorithm 1
//!   ([`AcornController::associate`]).
//! * Every `T` = 30 minutes (from the Fig. 9 trace analysis) the
//!   controller re-runs Algorithm 2 ([`AcornController::reallocate`]).
//! * Between re-allocations, an AP holding a bonded channel may
//!   *opportunistically* fall back to one of its two 20 MHz members when
//!   its clients' link qualities degrade, "\[s\]ince the other APs choose
//!   their frequencies based on the channels assigned to this particular
//!   AP, using either of the two 20 MHz channels will not change the
//!   interference on the neighboring APs"
//!   ([`AcornController::adapt_widths`]).

use crate::allocation::{
    allocate, allocate_sharded, random_initial, AllocSpec, AllocationConfig, AllocationResult,
};
use crate::association::{choose_ap_obs, Candidate};
use crate::beacon::Beacon;
use crate::model::{ClientSnr, NetworkModel};
use acorn_mac::contention::access_share;
use acorn_mac::timing::delivery_delay_s;
use acorn_obs::{names, NullSink, Sink};
use acorn_phy::estimator::LinkQualityEstimator;
use acorn_phy::{ChannelWidth, EstimateMemo, GoodputTable, MemoStats};
use acorn_topology::{ApId, ChannelAssignment, ChannelPlan, ClientId, InterferenceGraph, Wlan};
use acorn_traces::REALLOCATION_PERIOD_S;
use std::sync::Arc;

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcornConfig {
    /// Available channel plan.
    pub plan: ChannelPlan,
    /// The §4.2 link-quality estimator.
    pub estimator: LinkQualityEstimator,
    /// Payload size for all airtime accounting (bytes).
    pub payload_bytes: u32,
    /// Algorithm 2 knobs.
    pub allocation: AllocationConfig,
    /// Minimum HT20 SNR (dB) for an AP to enter a client's candidate set
    /// `A_u` (below this, association/probing is not viable).
    pub association_snr_floor_db: f64,
    /// Channel re-allocation period `T` (seconds); the paper derives
    /// 30 minutes from the CRAWDAD trace.
    pub reallocation_period_s: f64,
    /// Relative hysteresis margin for the opportunistic width adaptation
    /// ([`AcornController::adapt_widths`]): a bonded AP switches its
    /// operating width only when the other width's predicted cell
    /// throughput exceeds the *current* width's by more than this
    /// fraction. `0.0` reproduces the paper's memoryless `t40 ≥ t20`
    /// comparison; the default 5 % keeps a client oscillating around the
    /// CB crossover SNR from flapping the cell width on consecutive
    /// events.
    pub width_hysteresis: f64,
}

impl Default for AcornConfig {
    fn default() -> Self {
        AcornConfig {
            plan: ChannelPlan::full_5ghz(),
            estimator: LinkQualityEstimator::default(),
            payload_bytes: 1500,
            allocation: AllocationConfig::default(),
            association_snr_floor_db: -3.0,
            reallocation_period_s: REALLOCATION_PERIOD_S,
            width_hysteresis: 0.05,
        }
    }
}

/// Mutable network state the controller maintains.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkState {
    /// Channel assignment per AP (Algorithm 2's output `F`).
    pub assignments: Vec<ChannelAssignment>,
    /// Association per client (`None` = not associated).
    pub assoc: Vec<Option<ApId>>,
    /// The width each AP currently *operates* at — equal to its
    /// assignment's width, except when a bonded AP has opportunistically
    /// fallen back to 20 MHz.
    pub operating_width: Vec<ChannelWidth>,
}

impl NetworkState {
    /// The assignment an AP is effectively using right now (assignment
    /// narrowed to its primary 20 MHz channel during fallback).
    pub fn effective_assignment(&self, ap: ApId) -> ChannelAssignment {
        let a = self.assignments[ap.0];
        match self.operating_width[ap.0] {
            ChannelWidth::Ht40 => a,
            ChannelWidth::Ht20 => a.fallback_20(),
        }
    }

    /// All effective assignments.
    pub fn effective_assignments(&self) -> Vec<ChannelAssignment> {
        (0..self.assignments.len())
            .map(|i| self.effective_assignment(ApId(i)))
            .collect()
    }

    /// Clients associated with `ap`.
    pub fn cell_clients(&self, ap: ApId) -> Vec<ClientId> {
        self.assoc
            .iter()
            .enumerate()
            .filter(|(_, a)| **a == Some(ap))
            .map(|(c, _)| ClientId(c))
            .collect()
    }
}

/// The ACORN controller.
#[derive(Debug, Clone)]
pub struct AcornController {
    /// Configuration.
    pub config: AcornConfig,
    /// Optional memoized goodput table shared with every model this
    /// controller builds (and with any other controller clone). `None`
    /// keeps the exact per-call estimator pipeline.
    table: Option<Arc<GoodputTable>>,
    /// Exact per-SNR estimate memo of the table-less path, filled with
    /// the estimator `config` held at construction and shared with every
    /// model this controller builds (and with any clone). `None` on a
    /// table controller.
    memo: Option<Arc<EstimateMemo>>,
}

impl AcornController {
    /// Creates a controller using the exact estimator pipeline, with an
    /// exact per-SNR estimate memo so unchanged links are not
    /// re-estimated (see DESIGN.md §13.3).
    pub fn new(config: AcornConfig) -> AcornController {
        AcornController {
            config,
            table: None,
            memo: Some(Arc::new(EstimateMemo::new(config.estimator))),
        }
    }

    /// Creates a controller that answers SNR → goodput queries from a
    /// shared memoized [`GoodputTable`]. The config's estimator is
    /// replaced by the table's own, so the table and every fallback path
    /// agree on calibration, GI and fading parameters.
    pub fn with_table(mut config: AcornConfig, table: Arc<GoodputTable>) -> AcornController {
        config.estimator = *table.estimator();
        AcornController {
            config,
            table: Some(table),
            memo: None,
        }
    }

    /// The attached goodput table, if any.
    pub fn table(&self) -> Option<&Arc<GoodputTable>> {
        self.table.as_ref()
    }

    /// The estimate memo, if this is a table-less controller whose
    /// `config.estimator` is still the one the memo was filled with.
    /// `config` is public, so a caller may change the estimator after
    /// construction; the memo is then bypassed rather than trusted.
    fn memo(&self) -> Option<&Arc<EstimateMemo>> {
        self.memo
            .as_ref()
            .filter(|m| *m.estimator() == self.config.estimator)
    }

    /// Hit/miss counters and size of the estimate memo (`None` on a table
    /// controller). Shared by clones, so the counts are cumulative over
    /// every controller holding the memo.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        self.memo.as_ref().map(|m| m.stats())
    }

    /// Fresh state: random channels (the Algorithm 2 starting point), no
    /// associations, full-width operation.
    pub fn new_state(&self, wlan: &Wlan, seed: u64) -> NetworkState {
        let assignments = random_initial(&self.config.plan, wlan.aps.len(), seed);
        let operating_width = assignments.iter().map(|a| a.width()).collect();
        NetworkState {
            assignments,
            operating_width,
            assoc: vec![None; wlan.clients.len()],
        }
    }

    /// Builds the throughput model for the current association, using
    /// *effective* assignments' interference semantics.
    pub fn build_model(&self, wlan: &Wlan, state: &NetworkState) -> NetworkModel {
        let graph = wlan.interference_graph(&state.assoc);
        let cells: Vec<Vec<ClientSnr>> = (0..wlan.aps.len())
            .map(|i| {
                state
                    .cell_clients(ApId(i))
                    .into_iter()
                    .map(|c| ClientSnr {
                        client: c.0,
                        snr20_db: wlan.snr_db(ApId(i), c, ChannelWidth::Ht20),
                    })
                    .collect()
            })
            .collect();
        self.model_from(graph, cells)
    }

    /// Builds a model over an already derived interference graph and
    /// per-AP cells, predicting through this controller's goodput table,
    /// its estimate memo, or (when the memo is bypassed) the plain exact
    /// estimator.
    pub fn model_from(&self, graph: InterferenceGraph, cells: Vec<Vec<ClientSnr>>) -> NetworkModel {
        let payload = self.config.payload_bytes;
        match (&self.table, self.memo()) {
            (Some(t), _) => NetworkModel::with_table(graph, cells, Arc::clone(t), payload),
            (None, Some(m)) => NetworkModel::with_memo(graph, cells, Arc::clone(m), payload),
            (None, None) => NetworkModel::with_config(graph, cells, self.config.estimator, payload),
        }
    }

    /// Current beacons of all APs.
    pub fn beacons(&self, wlan: &Wlan, state: &NetworkState) -> Vec<Beacon> {
        let model = self.build_model(wlan, state);
        let eff = state.effective_assignments();
        (0..wlan.aps.len())
            .map(|i| {
                let ap = ApId(i);
                let airtime = model.cell_airtime(ap, state.operating_width[i]);
                let m = access_share(&model.graph, &eff, ap);
                Beacon::from_airtime(ap, eff[i], &airtime, m)
            })
            .collect()
    }

    /// The delivery delay the §4.2 pipeline predicts for a link with the
    /// given 20 MHz-referenced SNR, at a width — the per-client `d_u`
    /// ACORN beacons advertise.
    pub fn delay_from_snr(&self, snr20_db: f64, width: ChannelWidth) -> f64 {
        let est = match (&self.table, self.memo()) {
            (Some(t), _) => t.estimate(snr20_db, ChannelWidth::Ht20),
            (None, Some(m)) => m.estimate(snr20_db),
            (None, None) => self.config.estimator.estimate(snr20_db, ChannelWidth::Ht20),
        };
        let point = est.rate_point(width);
        delivery_delay_s(
            self.config.payload_bytes,
            point.mcs.mcs().rate_bps(width, self.config.estimator.gi),
            point.per,
        )
    }

    /// The advertised delay for a *tracked* link at the controller
    /// boundary: the staleness-gated EWMA estimate feeds the §4.2
    /// pipeline, and a stale link degrades to `∞` (`u32::MAX` µs on the
    /// wire) — a link the controller has not heard from recently must
    /// never be advertised at its last confident value.
    pub fn tracked_delay_s(
        &self,
        tracker: &crate::tracker::ClientTracker,
        now_s: f64,
        width: ChannelWidth,
    ) -> f64 {
        match tracker.fresh_snr_db(now_s) {
            Some(snr20) => self.delay_from_snr(snr20, width),
            None => f64::INFINITY,
        }
    }

    /// The client's probed delay at an AP operating at a width.
    fn client_delay_s(&self, wlan: &Wlan, ap: ApId, client: ClientId, width: ChannelWidth) -> f64 {
        let snr20 = wlan.snr_db(ap, client, ChannelWidth::Ht20);
        self.delay_from_snr(snr20, width)
    }

    /// Builds client `u`'s candidate set (its view after probing every
    /// in-range AP): beacon contents with `u` provisionally counted in.
    pub fn candidates_for(
        &self,
        wlan: &Wlan,
        state: &NetworkState,
        client: ClientId,
    ) -> Vec<Candidate> {
        let beacons = self.beacons(wlan, state);
        let mut out = Vec::new();
        for (i, b) in beacons.iter().enumerate() {
            let ap = ApId(i);
            let snr20 = wlan.snr_db(ap, client, ChannelWidth::Ht20);
            if snr20 < self.config.association_snr_floor_db {
                continue;
            }
            let width = state.operating_width[i];
            let d_u = self.client_delay_s(wlan, ap, client, width);
            out.push(Candidate {
                ap,
                k_including_u: b.n_clients + 1,
                access_share: b.access_share,
                atd_including_u_s: b.atd_s + d_u,
                delay_u_s: d_u,
            });
        }
        out
    }

    /// Algorithm 1: associates `client`, mutating the state. Returns the
    /// chosen AP, or `None` if no AP is in range.
    pub fn associate(
        &self,
        wlan: &Wlan,
        state: &mut NetworkState,
        client: ClientId,
    ) -> Option<ApId> {
        self.associate_obs(wlan, state, client, &NullSink)
    }

    /// [`AcornController::associate`] reporting candidate-ranking metrics
    /// (`assoc.*`) into a sink.
    pub fn associate_obs<S: Sink>(
        &self,
        wlan: &Wlan,
        state: &mut NetworkState,
        client: ClientId,
        sink: &S,
    ) -> Option<ApId> {
        let candidates = self.candidates_for(wlan, state, client);
        let choice = choose_ap_obs(&candidates, sink)?;
        let ap = candidates[choice].ap;
        state.assoc[client.0] = Some(ap);
        Some(ap)
    }

    /// Removes a departing client.
    pub fn deassociate(&self, state: &mut NetworkState, client: ClientId) {
        state.assoc[client.0] = None;
    }

    /// Algorithm 2: re-allocates channels from the current assignment,
    /// hedged by `restarts` random starts per connected component of the
    /// conflict graph ([`allocate_sharded`]), mutating the state and
    /// resetting opportunistic widths to the new assignments' full
    /// widths. With `restarts = 0` this is the plain greedy continuation;
    /// the evaluation harness hedges because single greedy runs can stall
    /// in local optima.
    ///
    /// The sink receives the `alloc.*` counters (including
    /// `alloc.shards`) from the attempt fan-out, then, sequentially after
    /// it has joined, the model's `model.*`/table counters, a
    /// `controller.obs_epochs` counter and a `controller.total_bps` gauge.
    pub fn reallocate<S: Sink + Sync>(
        &self,
        wlan: &Wlan,
        state: &mut NetworkState,
        restarts: usize,
        seed: u64,
        sink: &S,
    ) -> AllocationResult {
        let model = self.build_model(wlan, state);
        let spec = AllocSpec {
            start: Some(state.assignments.clone()),
            restarts,
            seed,
        };
        let (plan, config) = (&self.config.plan, &self.config.allocation);
        let best = allocate_sharded(&model, plan, config, &spec, sink);
        state.assignments = best.assignments.clone();
        state.operating_width = state.assignments.iter().map(|a| a.width()).collect();
        if sink.enabled() {
            model.flush_stats_into(sink);
            sink.inc(names::CONTROLLER_EPOCHS);
            sink.gauge("controller.total_bps", best.total_bps);
        }
        best
    }

    /// The canonical zone decomposition: the connected components of the
    /// interference graph under the current association, each sorted
    /// ascending and ordered by smallest vertex — exactly the component
    /// order [`allocate_sharded`] shards over, so a zone's position in
    /// this list is the `shard_index` its zone-view reallocation must
    /// replay.
    pub fn zones(&self, wlan: &Wlan, state: &NetworkState) -> Vec<Vec<usize>> {
        wlan.interference_graph(&state.assoc).connected_components()
    }

    /// Zone view of Algorithm 2: re-allocates only the APs in `nodes`
    /// (one connected component, ascending global ids), mutating just
    /// that slice of the state. `zone_model` must be the submodel for
    /// `nodes` ([`NetworkModel::restrict`] of the full model, or an
    /// equivalently built zone-local model) and `shard_index` the zone's
    /// position in [`AcornController::zones`]. The run is [`allocate`] on
    /// the shard's slice of the spec [`AcornController::reallocate`] uses,
    /// so given the same per-epoch `seed` the slice is bit-identical to
    /// what `reallocate` assigns those APs — the golden-twin contract of
    /// the distributed control plane.
    #[allow(clippy::too_many_arguments)]
    pub fn reallocate_zone<S: Sink + Sync>(
        &self,
        zone_model: &NetworkModel,
        state: &mut NetworkState,
        nodes: &[usize],
        shard_index: usize,
        restarts: usize,
        seed: u64,
        sink: &S,
    ) -> AllocationResult {
        let spec = AllocSpec {
            start: Some(state.assignments.clone()),
            restarts,
            seed,
        }
        .for_shard(shard_index, nodes);
        let (plan, config) = (&self.config.plan, &self.config.allocation);
        let best = allocate(zone_model, plan, config, &spec, sink);
        for (&global, &a) in nodes.iter().zip(&best.assignments) {
            state.assignments[global] = a;
            state.operating_width[global] = a.width();
        }
        best
    }

    /// Opportunistic width adaptation (§5.2): each bonded AP compares its
    /// predicted cell throughput at 40 MHz vs its 20 MHz fallback — at its
    /// *current* client SNRs — and operates at the better width. Single-
    /// channel APs are untouched.
    ///
    /// The comparison is *hysteretic*: the AP leaves its current
    /// operating width only when the alternative's predicted cell
    /// throughput beats the current one's by more than
    /// [`AcornConfig::width_hysteresis`] (a relative margin). A client
    /// whose SNR oscillates around the CB crossover therefore does **not**
    /// flap the cell width on consecutive events — both widths predict
    /// near-equal throughput inside the band, so the AP holds its current
    /// width until the link clearly favours the other one. With a margin
    /// of `0.0` this reduces to the paper's memoryless rule (`t40 ≥ t20`
    /// picks 40 MHz, ties included), which *does* flap under such
    /// oscillation. Re-allocation (`reallocate*`) resets every AP to its
    /// assignment's full width, re-arming the comparison each epoch.
    pub fn adapt_widths(&self, wlan: &Wlan, state: &mut NetworkState) {
        let model = self.build_model(wlan, state);
        let margin = self.config.width_hysteresis.max(0.0);
        for i in 0..state.assignments.len() {
            if state.assignments[i].width() != ChannelWidth::Ht40 {
                continue;
            }
            let ap = ApId(i);
            // Compare at equal access share: the fallback stays within the
            // bond, so neighbours' contention with this AP is unchanged.
            let t40 = model
                .cell_airtime(ap, ChannelWidth::Ht40)
                .cell_throughput_bps(1.0);
            let t20 = model
                .cell_airtime(ap, ChannelWidth::Ht20)
                .cell_throughput_bps(1.0);
            let (t_cur, t_alt, alt) = match state.operating_width[i] {
                ChannelWidth::Ht40 => (t40, t20, ChannelWidth::Ht20),
                ChannelWidth::Ht20 => (t20, t40, ChannelWidth::Ht40),
            };
            if margin == 0.0 {
                // Memoryless paper rule (ties prefer the bonded width).
                state.operating_width[i] = if t40 >= t20 {
                    ChannelWidth::Ht40
                } else {
                    ChannelWidth::Ht20
                };
            } else if t_alt > t_cur * (1.0 + margin) {
                state.operating_width[i] = alt;
            }
        }
    }

    /// Predicted throughput of one AP's cell under the current state
    /// (effective widths and contention).
    pub fn ap_throughput_bps(&self, wlan: &Wlan, state: &NetworkState, ap: ApId) -> f64 {
        let model = self.build_model(wlan, state);
        ap_term(&model, &state.effective_assignments(), state, ap)
    }

    /// Predicted aggregate network throughput under the current state.
    pub fn total_throughput_bps(&self, wlan: &Wlan, state: &NetworkState) -> f64 {
        self.total_throughput_bps_up(wlan, state, &[])
    }

    /// Aggregate throughput counting only the APs marked up in `up`
    /// (missing entries count as up). Builds one model and sums the
    /// up APs' [`AcornController::ap_throughput_bps`] terms in AP order,
    /// so with every AP up it is bit-identical to
    /// [`AcornController::total_throughput_bps`]. A crashed AP's cell
    /// simply contributes zero — its orphaned clients are the fault
    /// layer's problem to re-associate.
    pub fn total_throughput_bps_up(&self, wlan: &Wlan, state: &NetworkState, up: &[bool]) -> f64 {
        let model = self.build_model(wlan, state);
        let eff = state.effective_assignments();
        (0..wlan.aps.len())
            .filter(|&i| up.get(i).copied().unwrap_or(true))
            .map(|i| ap_term(&model, &eff, state, ApId(i)))
            .sum()
    }
}

/// One AP's predicted cell throughput at its operating width and its
/// access share under the effective assignments `eff`.
fn ap_term(model: &NetworkModel, eff: &[ChannelAssignment], state: &NetworkState, ap: ApId) -> f64 {
    let m = access_share(&model.graph, eff, ap);
    model
        .cell_airtime(ap, state.operating_width[ap.0])
        .cell_throughput_bps(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_topology::Point;

    /// Two APs 60 m apart; strong clients near the APs, one genuinely
    /// poor client far out (HT20 SNR ≈ 0 dB — the regime where the paper
    /// observes CB collapsing). Tx power is lowered to 5 dBm so the cell
    /// edge falls inside the test geometry.
    fn wlan() -> Wlan {
        let mut w = Wlan::new(
            vec![Point::new(0.0, 0.0), Point::new(60.0, 0.0)],
            vec![
                Point::new(3.0, 0.0),    // strong, near AP 0
                Point::new(5.0, 2.0),    // strong, near AP 0
                Point::new(57.0, 0.0),   // strong, near AP 1
                Point::new(-55.0, 65.0), // poor: ~85 m from AP 0
            ],
            11,
        );
        // No shadowing: the geometry should speak for itself in tests.
        w.pathloss.shadowing_sigma_db = 0.0;
        w.radio.tx_power_dbm = 5.0;
        w
    }

    fn controller() -> AcornController {
        AcornController::new(AcornConfig::default())
    }

    #[test]
    fn fresh_state_shape() {
        let w = wlan();
        let c = controller();
        let s = c.new_state(&w, 1);
        assert_eq!(s.assignments.len(), 2);
        assert_eq!(s.assoc.len(), 4);
        assert!(s.assoc.iter().all(|a| a.is_none()));
        for (a, w_) in s.assignments.iter().zip(&s.operating_width) {
            assert_eq!(a.width(), *w_);
        }
    }

    #[test]
    fn clients_associate_with_nearby_aps() {
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 2);
        assert_eq!(c.associate(&w, &mut s, ClientId(0)), Some(ApId(0)));
        assert_eq!(c.associate(&w, &mut s, ClientId(2)), Some(ApId(1)));
    }

    #[test]
    fn beacons_track_association() {
        // Note: Eq. 4 maximizes *network* throughput, so two equal-quality
        // clients may legitimately spread across APs rather than share one
        // — we assert the accounting, not a specific split.
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 3);
        c.associate(&w, &mut s, ClientId(0));
        c.associate(&w, &mut s, ClientId(1));
        let b = c.beacons(&w, &s);
        assert_eq!(b[0].n_clients + b[1].n_clients, 2);
        assert!(b.iter().all(|x| x.is_consistent()));
        // Delay lists follow the association.
        for (i, beacon) in b.iter().enumerate() {
            assert_eq!(beacon.n_clients, s.cell_clients(ApId(i)).len());
        }
    }

    #[test]
    fn out_of_range_client_gets_none() {
        let mut w = wlan();
        w.clients.push(acorn_topology::Client {
            pos: Point::new(5000.0, 5000.0),
        });
        let c = controller();
        let mut s = c.new_state(&w, 4);
        assert_eq!(c.associate(&w, &mut s, ClientId(4)), None);
        assert_eq!(s.assoc[4], None);
    }

    #[test]
    fn reallocation_never_hurts_and_separates_contenders() {
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 5);
        for cl in 0..4 {
            c.associate(&w, &mut s, ClientId(cl));
        }
        let before = c.total_throughput_bps(&w, &s);
        let r = c.reallocate(&w, &mut s, 0, 0, &NullSink);
        let after = c.total_throughput_bps(&w, &s);
        assert!(
            after + 1.0 >= before,
            "before {before:.3e} after {after:.3e}"
        );
        assert!(r.total_bps > 0.0);
        // Plenty of channels: the two (interfering) APs must not overlap.
        assert!(!s.assignments[0].conflicts(s.assignments[1]));
    }

    #[test]
    fn adapt_widths_falls_back_when_a_poor_client_joins() {
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 6);
        // Force AP 0 onto a bonded channel, strong clients only.
        s.assignments[0] = ChannelAssignment::bonded(acorn_topology::Channel20(0)).unwrap();
        s.operating_width[0] = ChannelWidth::Ht40;
        s.assoc[0] = Some(ApId(0));
        s.assoc[1] = Some(ApId(0));
        c.adapt_widths(&w, &mut s);
        assert_eq!(
            s.operating_width[0],
            ChannelWidth::Ht40,
            "strong cell keeps CB"
        );
        // Now the weak mid-field client joins: the cell should fall back.
        s.assoc[3] = Some(ApId(0));
        c.adapt_widths(&w, &mut s);
        assert_eq!(
            s.operating_width[0],
            ChannelWidth::Ht20,
            "poor client forces fallback"
        );
        // Fallback stays inside the assigned bond.
        let eff = s.effective_assignment(ApId(0));
        assert!(s.assignments[0]
            .occupied()
            .any(|ch| eff.occupied().next() == Some(ch)));
    }

    #[test]
    fn fallback_changes_effective_assignment_only() {
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 7);
        s.assignments[0] = ChannelAssignment::bonded(acorn_topology::Channel20(2)).unwrap();
        s.operating_width[0] = ChannelWidth::Ht20;
        assert_eq!(s.effective_assignment(ApId(0)).width(), ChannelWidth::Ht20);
        // The underlying allocation is still the bond.
        assert_eq!(s.assignments[0].width(), ChannelWidth::Ht40);
    }

    /// Single bonded AP serving one client at distance `d`; returns the
    /// predicted (t40, t20) pair `adapt_widths` compares.
    fn width_throughputs_at(c: &AcornController, d: f64) -> (f64, f64) {
        let mut w = Wlan::new(vec![Point::new(0.0, 0.0)], vec![Point::new(d, 0.0)], 3);
        w.pathloss.shadowing_sigma_db = 0.0;
        let s = NetworkState {
            assignments: vec![ChannelAssignment::bonded(acorn_topology::Channel20(0)).unwrap()],
            operating_width: vec![ChannelWidth::Ht40],
            assoc: vec![Some(ApId(0))],
        };
        let m = c.build_model(&w, &s);
        (
            m.cell_airtime(ApId(0), ChannelWidth::Ht40)
                .cell_throughput_bps(1.0),
            m.cell_airtime(ApId(0), ChannelWidth::Ht20)
                .cell_throughput_bps(1.0),
        )
    }

    /// Bisects for a `[d_near, d_far]` bracket around the CB crossover:
    /// 40 MHz wins at `d_near`, 20 MHz at `d_far`, and both predictions
    /// agree within `tol` at either end — the regime where a mobile
    /// client's SNR jitter flips the memoryless comparison's sign without
    /// any meaningful throughput difference.
    fn crossover_bracket(c: &AcornController, tol: f64) -> (f64, f64) {
        let (mut lo, mut hi) = (1.0f64, 0.0f64);
        for d in 2..400 {
            let (t40, t20) = width_throughputs_at(c, d as f64);
            if t40 < t20 {
                hi = d as f64;
                lo = hi - 1.0;
                break;
            }
        }
        assert!(hi > 0.0, "no CB crossover found within 400 m");
        loop {
            let (a40, a20) = width_throughputs_at(c, lo);
            let (b40, b20) = width_throughputs_at(c, hi);
            assert!(a40 >= a20 && b40 < b20, "bracket lost the sign change");
            if (a40 - a20) / a20 < tol && (b20 - b40) / b40 < tol {
                return (lo, hi);
            }
            let mid = 0.5 * (lo + hi);
            let (m40, m20) = width_throughputs_at(c, mid);
            if m40 >= m20 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    /// Oscillates a single client across the bracket for `events` width
    /// re-evaluations and counts operating-width changes.
    fn flaps_under(c: &AcornController, d_near: f64, d_far: f64, events: usize) -> usize {
        let mut w = Wlan::new(vec![Point::new(0.0, 0.0)], vec![Point::new(d_near, 0.0)], 3);
        w.pathloss.shadowing_sigma_db = 0.0;
        let mut s = NetworkState {
            assignments: vec![ChannelAssignment::bonded(acorn_topology::Channel20(0)).unwrap()],
            operating_width: vec![ChannelWidth::Ht40],
            assoc: vec![Some(ApId(0))],
        };
        let mut switches = 0;
        for i in 0..events {
            w.clients[0].pos = Point::new(if i % 2 == 0 { d_near } else { d_far }, 0.0);
            let before = s.operating_width[0];
            c.adapt_widths(&w, &mut s);
            if s.operating_width[0] != before {
                switches += 1;
            }
        }
        switches
    }

    #[test]
    fn memoryless_rule_flaps_at_the_cb_crossover() {
        // Baseline for the hysteresis test below: with the margin off,
        // the paper's `t40 >= t20` rule re-decides from scratch on every
        // event, so a client bouncing across the crossover drags the
        // whole cell's width with it almost every time.
        let c = AcornController::new(AcornConfig {
            width_hysteresis: 0.0,
            ..AcornConfig::default()
        });
        let (d_near, d_far) = crossover_bracket(&c, 0.04);
        let switches = flaps_under(&c, d_near, d_far, 24);
        assert!(
            switches >= 12,
            "memoryless rule should flap nearly every event, got {switches}/24"
        );
    }

    #[test]
    fn hysteresis_locks_width_at_the_cb_crossover() {
        // The satellite scenario: the same oscillation under the default
        // 5 % margin. Inside the bracket both widths predict throughput
        // within 4 % of each other, so no event clears the margin and the
        // cell holds its width instead of flapping.
        let c = controller();
        assert!(c.config.width_hysteresis > 0.0, "default margin must be on");
        let (d_near, d_far) = crossover_bracket(&c, 0.04);
        let switches = flaps_under(&c, d_near, d_far, 24);
        assert!(
            switches <= 1,
            "hysteretic adaptation must not flap at the crossover, got {switches}/24"
        );
    }

    #[test]
    fn hysteresis_still_reacts_to_clear_degradation() {
        // Hysteresis must damp jitter, not decisions: a client far past
        // the crossover (where 20 MHz clearly wins) still triggers the
        // fallback on the first event.
        let c = controller();
        let (_, d_far) = crossover_bracket(&c, 0.04);
        // Walk outward until 20 MHz wins by well over the margin.
        let mut d = d_far;
        loop {
            let (t40, t20) = width_throughputs_at(&c, d);
            if t20 > 0.0 && t20 > 1.2 * t40 {
                break;
            }
            d += 1.0;
            assert!(d < 400.0, "no clearly-degraded regime found");
        }
        let switches = flaps_under(&c, d, d, 1);
        assert_eq!(switches, 1, "clear degradation must still fall back");
    }

    #[test]
    fn stale_tracked_links_advertise_infinite_delay() {
        use crate::tracker::{ClientTracker, TrackerConfig};
        let c = controller();
        let mut t = ClientTracker::new(TrackerConfig::default(), 100.0).unwrap();
        t.observe_snr(25.0, 100.0).unwrap();
        let fresh = c.tracked_delay_s(&t, 101.0, ChannelWidth::Ht20);
        assert!(fresh.is_finite() && fresh > 0.0);
        assert_eq!(
            fresh,
            c.delay_from_snr(t.snr_db().unwrap(), ChannelWidth::Ht20)
        );
        // Past the staleness horizon the boundary degrades to ∞ — which
        // the wire codec saturates to u32::MAX µs.
        let stale = c.tracked_delay_s(&t, 120.0, ChannelWidth::Ht20);
        assert_eq!(stale, f64::INFINITY);
    }

    #[test]
    fn up_mask_with_every_ap_up_is_bit_identical() {
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 9);
        for cl in 0..4 {
            c.associate(&w, &mut s, ClientId(cl));
        }
        let plain = c.total_throughput_bps(&w, &s);
        let masked = c.total_throughput_bps_up(&w, &s, &[true, true]);
        assert_eq!(plain.to_bits(), masked.to_bits());
        // One AP down: exactly its cell's contribution disappears.
        let partial = c.total_throughput_bps_up(&w, &s, &[true, false]);
        let ap1 = c.ap_throughput_bps(&w, &s, ApId(1));
        assert!((plain - ap1 - partial).abs() < 1.0);
    }

    #[test]
    fn sharded_reallocation_matches_plain_on_a_connected_wlan() {
        // Two APs 60 m apart interfere, so the conflict graph is one
        // component and the sharded reallocation must reproduce the plain
        // composition — a current-start run hedged by a whole-model
        // restart run — bit-for-bit (same seed scheme, same ties).
        use crate::allocation::allocate_with_restarts;
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 11);
        for cl in 0..4 {
            c.associate(&w, &mut s, ClientId(cl));
        }
        let model = c.build_model(&w, &s);
        let (plan, cfg) = (&c.config.plan, &c.config.allocation);
        let spec = AllocSpec {
            start: Some(s.assignments.clone()),
            ..AllocSpec::default()
        };
        let best = allocate(&model, plan, cfg, &spec, &NullSink);
        let hedged = allocate_with_restarts(&model, plan, cfg, 3, 77);
        let expect = if hedged.total_bps > best.total_bps {
            hedged
        } else {
            best
        };
        let r = c.reallocate(&w, &mut s, 3, 77, &NullSink);
        assert_eq!(s.assignments, expect.assignments);
        assert_eq!(r, expect);
    }

    #[test]
    fn table_backed_controller_tracks_the_exact_one() {
        use acorn_phy::estimator::LinkQualityEstimator;
        let w = wlan();
        let exact = controller();
        let table = Arc::new(GoodputTable::build(
            LinkQualityEstimator::default(),
            -12.0,
            48.0,
            0.0625,
        ));
        let memo = AcornController::with_table(AcornConfig::default(), Arc::clone(&table));
        assert!(memo.table().is_some());

        // Association decisions agree: the table's goodput error is far
        // smaller than the SNR separation between these APs.
        let mut s_exact = exact.new_state(&w, 12);
        let mut s_memo = s_exact.clone();
        for cl in 0..4 {
            let a = exact.associate(&w, &mut s_exact, ClientId(cl));
            let b = memo.associate(&w, &mut s_memo, ClientId(cl));
            assert_eq!(a, b, "client {cl}");
        }

        // Advertised delays match within the table's documented budget.
        for snr in [2.0, 11.5, 23.0, 37.25] {
            for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
                let d_exact = exact.delay_from_snr(snr, width);
                let d_memo = memo.delay_from_snr(snr, width);
                assert!(
                    (d_exact - d_memo).abs() / d_exact < 1e-2,
                    "snr {snr} {width:?}: {d_exact} vs {d_memo}"
                );
            }
        }

        // Reallocation through the table-backed model lands on an
        // equivalent plan, and the table actually served the queries.
        let before = table.stats().hits;
        let r = memo.reallocate(&w, &mut s_memo, 2, 5, &NullSink);
        assert!(r.total_bps > 0.0);
        assert!(!s_memo.assignments[0].conflicts(s_memo.assignments[1]));
        assert!(table.stats().hits > before, "model must query the table");
    }

    #[test]
    fn table_epoch_flush_reports_table_counters() {
        use acorn_obs::RecordingSink;
        use acorn_phy::estimator::LinkQualityEstimator;
        let w = wlan();
        let table = Arc::new(GoodputTable::build(
            LinkQualityEstimator::default(),
            -12.0,
            48.0,
            0.25,
        ));
        let memo = AcornController::with_table(AcornConfig::default(), table);
        let mut s = memo.new_state(&w, 13);
        for cl in 0..4 {
            memo.associate(&w, &mut s, ClientId(cl));
        }
        let sink = RecordingSink::new();
        memo.reallocate(&w, &mut s, 2, 5, &sink);
        sink.with_telemetry(|t| {
            assert!(t.counter(names::ALLOC_SHARDS) >= 1);
            assert!(t.counter(names::TABLE_HITS) > 0);
            assert_eq!(t.counter(names::TABLE_REBUILDS), 1);
            assert!(t.gauge(names::TABLE_MAX_QUANT_ERROR).is_some());
        });
    }

    /// Two distant AP pairs: the conflict graph has exactly two
    /// components, so the zone-view entry must replay each shard of the
    /// centralized sharded reallocation bit-for-bit.
    fn two_zone_wlan() -> Wlan {
        let mut w = Wlan::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(60.0, 0.0),
                Point::new(5000.0, 0.0),
                Point::new(5060.0, 0.0),
            ],
            vec![
                Point::new(3.0, 0.0),
                Point::new(57.0, 0.0),
                Point::new(5003.0, 0.0),
                Point::new(5057.0, 0.0),
            ],
            21,
        );
        w.pathloss.shadowing_sigma_db = 0.0;
        w.radio.tx_power_dbm = 5.0;
        w
    }

    #[test]
    fn zone_view_replays_the_sharded_reallocation_exactly() {
        let w = two_zone_wlan();
        let c = controller();
        let mut s_central = c.new_state(&w, 31);
        for cl in 0..4 {
            c.associate(&w, &mut s_central, ClientId(cl));
        }
        let mut s_zones = s_central.clone();

        let zones = c.zones(&w, &s_zones);
        assert_eq!(zones.len(), 2, "distant pairs must split into two zones");
        assert_eq!(zones[0], vec![0, 1]);
        assert_eq!(zones[1], vec![2, 3]);

        for (restarts, seed) in [(0usize, 7u64), (3, 7), (2, 991)] {
            let central = c.reallocate(&w, &mut s_central, restarts, seed, &NullSink);
            // Zone controllers: each restricts the shared model and solves
            // only its own slice, in any order (slices are disjoint).
            let model = c.build_model(&w, &s_zones);
            for (z, nodes) in zones.iter().enumerate() {
                let sub = model.restrict(nodes);
                c.reallocate_zone(&sub, &mut s_zones, nodes, z, restarts, seed, &NullSink);
            }
            assert_eq!(
                s_central.assignments, s_zones.assignments,
                "restarts={restarts} seed={seed}"
            );
            assert_eq!(s_central.operating_width, s_zones.operating_width);
            assert!(central.total_bps > 0.0);
        }
    }

    #[test]
    fn total_throughput_sums_cells() {
        let w = wlan();
        let c = controller();
        let mut s = c.new_state(&w, 8);
        for cl in 0..3 {
            c.associate(&w, &mut s, ClientId(cl));
        }
        let total = c.total_throughput_bps(&w, &s);
        let sum: f64 = (0..2).map(|i| c.ap_throughput_bps(&w, &s, ApId(i))).sum();
        assert!((total - sum).abs() < 1.0);
        assert!(total > 0.0);
    }
}
