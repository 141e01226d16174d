//! The network throughput model ACORN's algorithms optimize over.
//!
//! Algorithm 2 repeatedly asks: *if AP `i` moved to channel `c` while
//! everyone else stayed put, what would the aggregate network throughput
//! be?* (line 10 of the pseudocode). Answering that requires exactly two
//! ingredients, both from the paper:
//!
//! 1. the AP's channel-access share `M_a = 1/(|con_a|+1)` given the
//!    interference graph and the hypothetical assignment (§5.1), and
//! 2. each client's goodput at the hypothetical width, predicted by the
//!    §4.2 estimator (SNR ± 3 dB calibration → coded BER → PER), fed into
//!    the performance-anomaly airtime model (§4.1).
//!
//! [`NetworkModel`] packages those ingredients behind the
//! [`ThroughputModel`] trait so the allocation algorithm (and the
//! baselines) stay independent of how throughputs are predicted.

use crate::error::ControlError;
use acorn_mac::airtime::{CellAirtime, ClientLink};
use acorn_mac::contention::{access_share, access_share_with};
use acorn_obs::{names, Sink};
use acorn_phy::estimator::LinkQualityEstimator;
use acorn_phy::{ChannelWidth, EstimateMemo, GoodputTable};
use acorn_topology::{ApId, ChannelAssignment, InterferenceGraph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Evaluation counters a [`NetworkModel`] maintains about itself:
/// throughput-table rebuilds, O(Δ) delta evaluations, and hoisted
/// colour scans. Kept as relaxed atomics so the instrumented model
/// stays `Sync` and the counts stay exact under the parallel evaluation
/// engine — relaxed `u64` adds commute, so totals are invariant to the
/// thread count and never perturb the determinism contract.
#[derive(Debug, Default)]
pub struct ModelStats {
    rebuilds: AtomicU64,
    delta_evals: AtomicU64,
    best_switch_scans: AtomicU64,
}

/// A point-in-time copy of [`ModelStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelStatsSnapshot {
    /// Full `cell_base_bps` table rebuilds.
    pub rebuilds: u64,
    /// Colour-candidate evaluations served from the cached table (one
    /// per `delta_bps` call or per colour in a hoisted scan).
    pub delta_evals: u64,
    /// Hoisted `best_switch` scans.
    pub best_switch_scans: u64,
}

impl ModelStats {
    fn add_rebuild(&self) {
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    fn add_delta_evals(&self, n: u64) {
        self.delta_evals.fetch_add(n, Ordering::Relaxed);
    }

    fn add_best_switch_scan(&self) {
        self.best_switch_scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads the current counter values.
    pub fn snapshot(&self) -> ModelStatsSnapshot {
        ModelStatsSnapshot {
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            delta_evals: self.delta_evals.load(Ordering::Relaxed),
            best_switch_scans: self.best_switch_scans.load(Ordering::Relaxed),
        }
    }

    /// Reads and zeroes the counters (for periodic flushes into a sink).
    pub fn take(&self) -> ModelStatsSnapshot {
        ModelStatsSnapshot {
            rebuilds: self.rebuilds.swap(0, Ordering::Relaxed),
            delta_evals: self.delta_evals.swap(0, Ordering::Relaxed),
            best_switch_scans: self.best_switch_scans.swap(0, Ordering::Relaxed),
        }
    }

    /// Reads, zeroes, and reports the counters into a metric sink under
    /// the `model.*` names. Call from sequential contexts only (the
    /// counts themselves are thread-exact; the *flush* is a read-reset).
    pub fn flush_into<S: Sink>(&self, sink: &S) {
        if !sink.enabled() {
            return;
        }
        let s = self.take();
        sink.add(names::MODEL_REBUILDS, s.rebuilds);
        sink.add(names::MODEL_DELTA_EVALS, s.delta_evals);
        sink.add(names::MODEL_BEST_SWITCH_SCANS, s.best_switch_scans);
    }
}

impl Clone for ModelStats {
    fn clone(&self) -> ModelStats {
        let s = self.snapshot();
        ModelStats {
            rebuilds: AtomicU64::new(s.rebuilds),
            delta_evals: AtomicU64::new(s.delta_evals),
            best_switch_scans: AtomicU64::new(s.best_switch_scans),
        }
    }
}

/// Per-attach flush cursor over a shared [`GoodputTable`]'s *cumulative*
/// counters. The table itself is never drained (its counters only grow, so
/// any number of models can share one `Arc` without stealing each other's
/// counts — the DESIGN.md §13.3 footgun); instead each model remembers the
/// last values it flushed and reports deltas. The cursor starts at the
/// table's hit/miss counts as of the attach but at **zero** rebuilds, so a
/// model adopting an already-built table still surfaces the build cost
/// once, in its own first flush, while the traffic counters cover only
/// lookups made while this model was attached.
#[derive(Debug)]
struct TableFlushCursor {
    hits: AtomicU64,
    misses: AtomicU64,
    rebuilds: AtomicU64,
}

impl TableFlushCursor {
    fn at_attach(table: Option<&Arc<GoodputTable>>) -> TableFlushCursor {
        let (hits, misses) = match table {
            Some(t) => {
                let s = t.stats();
                (s.hits, s.misses)
            }
            None => (0, 0),
        };
        TableFlushCursor {
            hits: AtomicU64::new(hits),
            misses: AtomicU64::new(misses),
            rebuilds: AtomicU64::new(0),
        }
    }

    /// Advances one counter to `now` and returns the delta since the last
    /// flush. Flushes are sequential-context-only, so the load/swap pair
    /// never races another flush of the same cursor.
    fn advance(slot: &AtomicU64, now: u64) -> u64 {
        now.saturating_sub(slot.swap(now, Ordering::Relaxed))
    }
}

impl Clone for TableFlushCursor {
    fn clone(&self) -> TableFlushCursor {
        TableFlushCursor {
            hits: AtomicU64::new(self.hits.load(Ordering::Relaxed)),
            misses: AtomicU64::new(self.misses.load(Ordering::Relaxed)),
            rebuilds: AtomicU64::new(self.rebuilds.load(Ordering::Relaxed)),
        }
    }
}

/// Anything that can score a full channel assignment.
pub trait ThroughputModel {
    /// Number of APs.
    fn n_aps(&self) -> usize;

    /// Predicted long-term throughput of one AP's cell under a full
    /// network assignment (bits/s).
    fn ap_throughput_bps(&self, ap: ApId, assignments: &[ChannelAssignment]) -> f64;

    /// Predicted aggregate network throughput `Y = Σ X_i` (bits/s) — the
    /// objective of Eq. 5.
    fn total_bps(&self, assignments: &[ChannelAssignment]) -> f64 {
        (0..self.n_aps())
            .map(|i| self.ap_throughput_bps(ApId(i), assignments))
            .sum()
    }

    /// Change in `total_bps` if `ap` switched from its current colour in
    /// `assignments` to `colour`, everyone else frozen — the quantity
    /// Algorithm 2's candidate ranking actually needs. The default
    /// implementation recomputes both totals; models that know which
    /// cells a switch can affect should override it (see
    /// [`NetworkModel`]'s O(Δ) version).
    fn delta_bps(
        &self,
        ap: ApId,
        colour: ChannelAssignment,
        assignments: &[ChannelAssignment],
    ) -> f64 {
        if assignments[ap.0] == colour {
            return 0.0;
        }
        let mut alt = assignments.to_vec();
        alt[ap.0] = colour;
        self.total_bps(&alt) - self.total_bps(assignments)
    }

    /// The best colour for `ap` with everyone else frozen, and its gain —
    /// one candidate ranking of Algorithm 2's inner loop. Ties keep the
    /// first colour in `colours` (matching the sequential scan). An empty
    /// colour set degrades to "stay put" (current colour, zero gain)
    /// rather than aborting. The default scans via
    /// [`delta_bps`](ThroughputModel::delta_bps); models that can share
    /// work across the colour scan should override it (see
    /// [`NetworkModel`]'s hoisted version).
    fn best_switch(
        &self,
        ap: ApId,
        colours: &[ChannelAssignment],
        assignments: &[ChannelAssignment],
    ) -> (ChannelAssignment, f64) {
        let mut best: Option<(ChannelAssignment, f64)> = None;
        for &c in colours {
            let gain = self.delta_bps(ap, c, assignments);
            match best {
                Some((_, g)) if g >= gain => {}
                _ => best = Some((c, gain)),
            }
        }
        best.unwrap_or((assignments[ap.0], 0.0))
    }
}

/// One client as the model sees it: its 20 MHz-referenced SNR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientSnr {
    /// Global client index (for bookkeeping; not used in the math).
    pub client: usize,
    /// Per-subcarrier SNR the client would see on a 20 MHz channel (dB).
    pub snr20_db: f64,
}

/// The concrete model: interference graph + per-cell client SNRs +
/// estimator.
///
/// A cell's throughput at a width is independent of the rest of the
/// assignment and *linear* in the access share `M` (`X = M·K·L/ATD`), so
/// the model precomputes the `M = 1` value for every (AP, width) pair
/// into a dense table at construction — Algorithm 2 evaluates candidates
/// thousands of times per run and would otherwise re-derive every
/// client's MCS/PER pipeline each time. The table is rebuilt
/// automatically whenever [`set_estimator`](NetworkModel::set_estimator)
/// replaces the estimator, so the model is always consistent and `Sync` — the parallel evaluation engine
/// shares it across threads. Its only shared mutable parts are counters
/// and the exact estimate memo, neither of which can change an output.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// AP-level interference graph (footnote 5 semantics).
    pub graph: InterferenceGraph,
    cells: Vec<Vec<ClientSnr>>,
    estimator: LinkQualityEstimator,
    payload_bytes: u32,
    /// Dense `M = 1` cell throughput, indexed `[ap * 2 + width_index]`.
    cell_base: Vec<f64>,
    /// Optional memoized goodput table; when present, `client_link` (and
    /// hence the `cell_base` build) answers from the table instead of
    /// running the exact union-bound search per client. Shared by `Arc`
    /// so model clones (and per-shard submodels) reuse one build and one
    /// set of hit/miss counters.
    table: Option<Arc<GoodputTable>>,
    /// Where this model's last flush left off in the shared table's
    /// cumulative counters (see [`TableFlushCursor`]).
    table_cursor: TableFlushCursor,
    /// Optional exact per-SNR estimate memo for the table-less path,
    /// shared by `Arc` with the controller that built the model. Present
    /// only while its estimator is this model's estimator.
    memo: Option<Arc<EstimateMemo>>,
    stats: ModelStats,
}

fn width_index(width: ChannelWidth) -> usize {
    match width {
        ChannelWidth::Ht20 => 0,
        ChannelWidth::Ht40 => 1,
    }
}

impl NetworkModel {
    /// Creates a model; `cells[i]` lists AP i's associated clients.
    pub fn new(graph: InterferenceGraph, cells: Vec<Vec<ClientSnr>>) -> NetworkModel {
        NetworkModel::with_config(graph, cells, LinkQualityEstimator::default(), 1500)
    }

    /// Creates a fully configured model in one step (one cache build —
    /// prefer this over `new` + setters when the estimator or payload
    /// differ from the defaults).
    pub fn with_config(
        graph: InterferenceGraph,
        cells: Vec<Vec<ClientSnr>>,
        estimator: LinkQualityEstimator,
        payload_bytes: u32,
    ) -> NetworkModel {
        NetworkModel::assemble(graph, cells, estimator, payload_bytes, None, None)
    }

    /// Creates an exact model whose per-client estimates go through a
    /// shared [`EstimateMemo`]: the model adopts the memo's estimator, and
    /// every prediction is bit-identical to
    /// [`with_config`](NetworkModel::with_config) with that estimator —
    /// only repeated SNRs stop re-running the union-bound search.
    pub fn with_memo(
        graph: InterferenceGraph,
        cells: Vec<Vec<ClientSnr>>,
        memo: Arc<EstimateMemo>,
        payload_bytes: u32,
    ) -> NetworkModel {
        let estimator = *memo.estimator();
        NetworkModel::assemble(graph, cells, estimator, payload_bytes, None, Some(memo))
    }

    /// Creates a model whose per-client rate/PER predictions come from a
    /// prebuilt memoized [`GoodputTable`] instead of per-call exact
    /// union-bound searches. The table must have been built from the same
    /// estimator configuration (same packet size, GI, fading model), or
    /// predictions would silently mix two error models.
    pub fn with_table(
        graph: InterferenceGraph,
        cells: Vec<Vec<ClientSnr>>,
        table: Arc<GoodputTable>,
        payload_bytes: u32,
    ) -> NetworkModel {
        let estimator = *table.estimator();
        NetworkModel::assemble(graph, cells, estimator, payload_bytes, Some(table), None)
    }

    /// The constructors' common body: one cell per AP, then one cache
    /// build through whichever predictor is attached.
    fn assemble(
        graph: InterferenceGraph,
        cells: Vec<Vec<ClientSnr>>,
        estimator: LinkQualityEstimator,
        payload_bytes: u32,
        table: Option<Arc<GoodputTable>>,
        memo: Option<Arc<EstimateMemo>>,
    ) -> NetworkModel {
        assert_eq!(graph.len(), cells.len(), "one cell per AP");
        let table_cursor = TableFlushCursor::at_attach(table.as_ref());
        let mut model = NetworkModel {
            graph,
            cells,
            estimator,
            payload_bytes,
            cell_base: Vec::new(),
            table,
            table_cursor,
            memo,
            stats: ModelStats::default(),
        };
        model.rebuild_cell_base();
        model
    }

    /// Fallible construction for inputs of runtime provenance (wire or
    /// operator data): a graph/cells size mismatch is a typed
    /// [`ControlError`] instead of an abort.
    pub fn try_with_config(
        graph: InterferenceGraph,
        cells: Vec<Vec<ClientSnr>>,
        estimator: LinkQualityEstimator,
        payload_bytes: u32,
    ) -> Result<NetworkModel, ControlError> {
        if graph.len() != cells.len() {
            return Err(ControlError::CellCountMismatch {
                graph: graph.len(),
                cells: cells.len(),
            });
        }
        Ok(NetworkModel::with_config(
            graph,
            cells,
            estimator,
            payload_bytes,
        ))
    }

    /// Clients associated with each AP.
    pub fn cells(&self) -> &[Vec<ClientSnr>] {
        &self.cells
    }

    /// The §4.2 link-quality estimator.
    pub fn estimator(&self) -> &LinkQualityEstimator {
        &self.estimator
    }

    /// Payload size for airtime accounting (bytes).
    pub fn payload_bytes(&self) -> u32 {
        self.payload_bytes
    }

    /// Replaces the estimator and rebuilds the throughput table. Any
    /// attached memoized table or estimate memo is detached — both baked
    /// in the previous estimator; build a new model with
    /// [`with_table`](NetworkModel::with_table) to restore memoization.
    pub fn set_estimator(&mut self, estimator: LinkQualityEstimator) {
        self.estimator = estimator;
        self.table = None;
        self.table_cursor = TableFlushCursor::at_attach(None);
        self.memo = None;
        self.rebuild_cell_base();
    }

    /// The memoized goodput table, when one is attached.
    pub fn table(&self) -> Option<&Arc<GoodputTable>> {
        self.table.as_ref()
    }

    /// The exact estimate memo, when one is attached.
    pub fn memo(&self) -> Option<&Arc<EstimateMemo>> {
        self.memo.as_ref()
    }

    /// The model's own evaluation counters (rebuilds, delta evals,
    /// hoisted scans) — flush into a sink with
    /// [`ModelStats::flush_into`] from a sequential context.
    pub fn stats(&self) -> &ModelStats {
        &self.stats
    }

    /// Flushes the model counters *and*, when a table is attached, the
    /// model's view of its hit/miss/rebuild counters (plus the
    /// max-quantization-error gauge) into a sink under the `model.*` /
    /// `phy.table.*` names. Call from sequential contexts only.
    ///
    /// The shared table's counters are **cumulative and never reset**;
    /// this flush reports the delta since this model's previous flush via
    /// a per-attach cursor, so any number of models — including two
    /// sequential runs sharing one `Arc<GoodputTable>` — report their own
    /// traffic (and the one build, exactly once each) without draining
    /// each other's counts.
    pub fn flush_stats_into<S: Sink>(&self, sink: &S) {
        self.stats.flush_into(sink);
        if let Some(t) = &self.table {
            if sink.enabled() {
                let s = t.stats();
                let c = &self.table_cursor;
                sink.add(
                    names::TABLE_HITS,
                    TableFlushCursor::advance(&c.hits, s.hits),
                );
                sink.add(
                    names::TABLE_MISSES,
                    TableFlushCursor::advance(&c.misses, s.misses),
                );
                sink.add(
                    names::TABLE_REBUILDS,
                    TableFlushCursor::advance(&c.rebuilds, s.rebuilds),
                );
                sink.gauge(names::TABLE_MAX_QUANT_ERROR, s.max_quant_error_bps);
            }
        }
    }

    /// The submodel induced by a subset of APs (`nodes`, strictly
    /// ascending): the vertex-induced subgraph reindexed to `0..k`, the
    /// corresponding cells, and — crucially — the corresponding rows of
    /// the precomputed `cell_base` table *copied, not re-estimated*, so
    /// restriction is O(k·Δ) and every per-shard throughput term is
    /// bit-identical to the full model's. The sharded allocation path
    /// solves each connected component on such a submodel.
    pub fn restrict(&self, nodes: &[usize]) -> NetworkModel {
        let n = self.graph.len();
        let mut index_of = vec![usize::MAX; n];
        let mut prev: Option<usize> = None;
        for (new, &old) in nodes.iter().enumerate() {
            assert!(old < n, "restrict node out of range");
            assert!(prev.map_or(true, |p| p < old), "restrict nodes must ascend");
            prev = Some(old);
            index_of[old] = new;
        }
        let mut graph = InterferenceGraph::new(nodes.len());
        let mut cells = Vec::with_capacity(nodes.len());
        let mut cell_base = Vec::with_capacity(nodes.len() * 2);
        for (new, &old) in nodes.iter().enumerate() {
            for nb in self.graph.neighbors(ApId(old)) {
                let mapped = index_of[nb.0];
                if mapped != usize::MAX && nb.0 > old {
                    graph.add_edge(ApId(new), ApId(mapped));
                }
            }
            cells.push(self.cells[old].clone());
            cell_base.push(self.cell_base[old * 2]);
            cell_base.push(self.cell_base[old * 2 + 1]);
        }
        NetworkModel {
            graph,
            cells,
            estimator: self.estimator,
            payload_bytes: self.payload_bytes,
            cell_base,
            table: self.table.clone(),
            table_cursor: self.table_cursor.clone(),
            memo: self.memo.clone(),
            stats: ModelStats::default(),
        }
    }

    fn rebuild_cell_base(&mut self) {
        self.stats.add_rebuild();
        let n = self.cells.len();
        let mut table = vec![0.0; n * 2];
        for ap in 0..n {
            for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
                table[ap * 2 + width_index(width)] =
                    self.cell_airtime(ApId(ap), width).cell_throughput_bps(1.0);
            }
        }
        self.cell_base = table;
    }

    /// The precomputed contention-free (`M = 1`) cell throughput.
    pub fn cell_base_bps(&self, ap: ApId, width: ChannelWidth) -> f64 {
        self.cell_base[ap.0 * 2 + width_index(width)]
    }

    /// Predicts the MAC-layer operating point of a client at a width —
    /// through the memoized table when one is attached, the exact §4.2
    /// pipeline otherwise (through the estimate memo when one is
    /// attached).
    pub fn client_link(&self, snr20_db: f64, width: ChannelWidth) -> ClientLink {
        let point = match (&self.table, &self.memo) {
            (Some(t), _) => {
                let snr = self
                    .estimator
                    .calibrate_snr(snr20_db, ChannelWidth::Ht20, width);
                t.rate_point(snr, width)
            }
            (None, Some(memo)) => memo.estimate(snr20_db).rate_point(width),
            (None, None) => self
                .estimator
                .estimate(snr20_db, ChannelWidth::Ht20)
                .rate_point(width),
        };
        ClientLink::from_rate_point(point, width, self.estimator.gi)
    }

    /// The cell's airtime accounting at a width.
    pub fn cell_airtime(&self, ap: ApId, width: ChannelWidth) -> CellAirtime {
        let links: Vec<ClientLink> = self.cells[ap.0]
            .iter()
            .map(|c| self.client_link(c.snr20_db, width))
            .collect();
        CellAirtime::new(&links, self.payload_bytes)
    }

    /// Isolated (contention-free) cell throughput at a width — the
    /// `X_i^{isol-20/40}` of the NP-completeness argument and Fig. 14's
    /// `Y*` calibration.
    pub fn isolated_throughput_bps(&self, ap: ApId, width: ChannelWidth) -> f64 {
        self.cell_base_bps(ap, width)
    }

    /// `X_i^{isol} = max(X_i^{isol-20}, X_i^{isol-40})`.
    pub fn isolated_best_bps(&self, ap: ApId) -> f64 {
        self.isolated_throughput_bps(ap, ChannelWidth::Ht20)
            .max(self.isolated_throughput_bps(ap, ChannelWidth::Ht40))
    }
}

impl ThroughputModel for NetworkModel {
    fn n_aps(&self) -> usize {
        self.graph.len()
    }

    fn ap_throughput_bps(&self, ap: ApId, assignments: &[ChannelAssignment]) -> f64 {
        let m = access_share(&self.graph, assignments, ap);
        m.clamp(0.0, 1.0) * self.cell_base_bps(ap, assignments[ap.0].width())
    }

    /// O(Δ) evaluation: switching `ap` can only change the access shares
    /// of `ap` itself and its interference-graph neighbours (everyone
    /// else's contender set is untouched), and cell throughput is linear
    /// in the share, so the delta is a sum over that neighbourhood of
    /// `M_new·base − M_old·base` — each term exactly the difference of
    /// the corresponding [`ThroughputModel::ap_throughput_bps`] values.
    fn delta_bps(
        &self,
        ap: ApId,
        colour: ChannelAssignment,
        assignments: &[ChannelAssignment],
    ) -> f64 {
        self.stats.add_delta_evals(1);
        let current = assignments[ap.0];
        if current == colour {
            return 0.0;
        }
        let patch = (ap, colour);
        let m_new = access_share_with(&self.graph, assignments, ap, patch);
        let m_old = access_share(&self.graph, assignments, ap);
        let mut delta = m_new.clamp(0.0, 1.0) * self.cell_base_bps(ap, colour.width())
            - m_old.clamp(0.0, 1.0) * self.cell_base_bps(ap, current.width());
        for j in self.graph.neighbors(ap) {
            let m_new = access_share_with(&self.graph, assignments, j, patch);
            let m_old = access_share(&self.graph, assignments, j);
            if m_new != m_old {
                let base = self.cell_base_bps(j, assignments[j.0].width());
                delta += m_new.clamp(0.0, 1.0) * base - m_old.clamp(0.0, 1.0) * base;
            }
        }
        delta
    }

    /// O(Δ) over the *whole* colour scan: the frozen-assignment state —
    /// the AP's own conflict count and every neighbour's conflict count
    /// and cell base — is computed once, and each colour then costs one
    /// O(Δ) rescan of the AP's own conflicts plus O(1) per neighbour
    /// (only the `ap`–`j` edge can change, so the neighbour's new count
    /// is its old count ±1). Term order matches
    /// [`delta_bps`](ThroughputModel::delta_bps), so gains are
    /// bit-identical to the per-colour scan.
    fn best_switch(
        &self,
        ap: ApId,
        colours: &[ChannelAssignment],
        assignments: &[ChannelAssignment],
    ) -> (ChannelAssignment, f64) {
        self.stats.add_best_switch_scan();
        self.stats.add_delta_evals(colours.len() as u64);
        let current = assignments[ap.0];
        let conflicts_of = |j: ApId, colour: ChannelAssignment| {
            self.graph
                .neighbors(j)
                .filter(|&nb| colour.conflicts(assignments[nb.0]))
                .count()
        };
        let share = |c: usize| (1.0 / (c as f64 + 1.0)).clamp(0.0, 1.0);
        let x_i_old = share(conflicts_of(ap, current)) * self.cell_base_bps(ap, current.width());
        // Per neighbour: (its current conflict count, its cell base).
        let neigh: Vec<(ChannelAssignment, usize, f64)> = self
            .graph
            .neighbors(ap)
            .map(|j| {
                let a_j = assignments[j.0];
                (
                    a_j,
                    conflicts_of(j, a_j),
                    self.cell_base_bps(j, a_j.width()),
                )
            })
            .collect();

        let mut best: Option<(ChannelAssignment, f64)> = None;
        for &c in colours {
            let gain = if c == current {
                0.0
            } else {
                let x_i_new = share(conflicts_of(ap, c)) * self.cell_base_bps(ap, c.width());
                let mut delta = x_i_new - x_i_old;
                for &(a_j, c_old, base) in &neigh {
                    let edge_old = a_j.conflicts(current);
                    let edge_new = a_j.conflicts(c);
                    if edge_old != edge_new {
                        let c_new = if edge_new { c_old + 1 } else { c_old - 1 };
                        delta += share(c_new) * base - share(c_old) * base;
                    }
                }
                delta
            };
            match best {
                Some((_, g)) if g >= gain => {}
                _ => best = Some((c, gain)),
            }
        }
        best.unwrap_or((current, 0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_topology::Channel20;

    fn single(c: u8) -> ChannelAssignment {
        ChannelAssignment::Single(Channel20(c))
    }

    fn bonded(c: u8) -> ChannelAssignment {
        ChannelAssignment::bonded(Channel20(c)).unwrap()
    }

    fn two_ap_model(snrs_a: &[f64], snrs_b: &[f64], connected: bool) -> NetworkModel {
        let graph = if connected {
            InterferenceGraph::complete(2)
        } else {
            InterferenceGraph::new(2)
        };
        let mk = |snrs: &[f64]| {
            snrs.iter()
                .enumerate()
                .map(|(i, &s)| ClientSnr {
                    client: i,
                    snr20_db: s,
                })
                .collect()
        };
        NetworkModel::new(graph, vec![mk(snrs_a), mk(snrs_b)])
    }

    #[test]
    fn strong_cell_prefers_bonding() {
        let m = two_ap_model(&[32.0, 30.0], &[], false);
        let t20 = m.isolated_throughput_bps(ApId(0), ChannelWidth::Ht20);
        let t40 = m.isolated_throughput_bps(ApId(0), ChannelWidth::Ht40);
        assert!(t40 > 1.3 * t20, "t20 {t20:.3e} t40 {t40:.3e}");
    }

    #[test]
    fn weak_cell_prefers_20mhz() {
        let m = two_ap_model(&[1.0], &[], false);
        let t20 = m.isolated_throughput_bps(ApId(0), ChannelWidth::Ht20);
        let t40 = m.isolated_throughput_bps(ApId(0), ChannelWidth::Ht40);
        assert!(t20 > t40, "t20 {t20:.3e} t40 {t40:.3e}");
    }

    #[test]
    fn contention_halves_cochannel_throughput() {
        let m = two_ap_model(&[25.0], &[25.0], true);
        let same = vec![single(0), single(0)];
        let diff = vec![single(0), single(1)];
        let y_same = m.total_bps(&same);
        let y_diff = m.total_bps(&diff);
        assert!((y_same * 2.0 - y_diff).abs() / y_diff < 1e-9);
    }

    #[test]
    fn bonded_overlap_contends() {
        // AP 0 bonded on {0,1}, AP 1 single on 1 → both share the medium.
        let m = two_ap_model(&[25.0], &[25.0], true);
        let overlap = vec![bonded(0), single(1)];
        let x1 = m.ap_throughput_bps(ApId(1), &overlap);
        let clear = vec![bonded(0), single(2)];
        let x1_clear = m.ap_throughput_bps(ApId(1), &clear);
        assert!((x1 * 2.0 - x1_clear).abs() / x1_clear < 1e-9);
    }

    #[test]
    fn isolated_best_picks_the_right_width() {
        let m = two_ap_model(&[32.0], &[1.0], false);
        assert_eq!(
            m.isolated_best_bps(ApId(0)),
            m.isolated_throughput_bps(ApId(0), ChannelWidth::Ht40)
        );
        assert_eq!(
            m.isolated_best_bps(ApId(1)),
            m.isolated_throughput_bps(ApId(1), ChannelWidth::Ht20)
        );
    }

    #[test]
    fn poor_client_drags_down_a_bonded_cell() {
        // The anomaly + CB interaction at the heart of the paper: a strong
        // cell loses more from one poor client at 40 MHz than at 20 MHz.
        let strong = two_ap_model(&[30.0, 30.0], &[], false);
        let mixed = two_ap_model(&[30.0, 30.0, 2.0], &[], false);
        let loss_at = |width| {
            mixed.isolated_throughput_bps(ApId(0), width)
                / strong.isolated_throughput_bps(ApId(0), width)
        };
        assert!(
            loss_at(ChannelWidth::Ht40) < loss_at(ChannelWidth::Ht20),
            "40 MHz should suffer relatively more: {} vs {}",
            loss_at(ChannelWidth::Ht40),
            loss_at(ChannelWidth::Ht20)
        );
    }

    #[test]
    fn empty_cell_contributes_zero() {
        let m = two_ap_model(&[], &[20.0], false);
        let a = vec![single(0), single(1)];
        assert_eq!(m.ap_throughput_bps(ApId(0), &a), 0.0);
        assert!(m.total_bps(&a) > 0.0);
    }

    #[test]
    #[should_panic(expected = "one cell per AP")]
    fn mismatched_cells_panic() {
        NetworkModel::new(InterferenceGraph::new(2), vec![vec![]]);
    }

    #[test]
    fn set_estimator_rebuilds_the_table() {
        // The stale-cache footgun the eager table removes: replacing the
        // estimator after first use must change subsequent predictions.
        let mut m = two_ap_model(&[25.0], &[20.0], false);
        let a = vec![single(0), single(1)];
        let before = m.total_bps(&a);
        let original = *m.estimator();
        let mut est = original;
        est.fading_sigma_db += 4.0;
        m.set_estimator(est);
        assert_ne!(m.total_bps(&a), before);
        m.set_estimator(original);
        assert_eq!(m.total_bps(&a), before, "rebuild is deterministic");
    }

    #[test]
    fn mismatched_cells_are_typed_errors_on_the_fallible_paths() {
        use crate::error::ControlError;
        let err = NetworkModel::try_with_config(
            InterferenceGraph::new(2),
            vec![vec![]],
            LinkQualityEstimator::default(),
            1500,
        )
        .err();
        assert!(matches!(
            err,
            Some(ControlError::CellCountMismatch { graph: 2, cells: 1 })
        ));
    }

    #[test]
    fn empty_colour_sets_degrade_to_stay_put() {
        let m = two_ap_model(&[25.0], &[20.0], true);
        let a = vec![single(0), single(1)];
        // Both the hoisted scan and the trait default must return the
        // current colour with zero gain, not abort.
        assert_eq!(m.best_switch(ApId(0), &[], &a), (single(0), 0.0));
        struct Slow<'m>(&'m NetworkModel);
        impl ThroughputModel for Slow<'_> {
            fn n_aps(&self) -> usize {
                self.0.n_aps()
            }
            fn ap_throughput_bps(&self, ap: ApId, a: &[ChannelAssignment]) -> f64 {
                self.0.ap_throughput_bps(ap, a)
            }
        }
        assert_eq!(Slow(&m).best_switch(ApId(1), &[], &a), (single(1), 0.0));
    }

    #[test]
    fn delta_matches_full_recompute() {
        // The O(Δ) specialization must agree with the trait's
        // full-recompute default on every (AP, colour) candidate,
        // including bonded/overlap transitions, to float-sum accuracy.
        let graph = InterferenceGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let cells = [
            &[28.0, 22.0][..],
            &[15.0][..],
            &[8.0, 6.0, 31.0][..],
            &[2.0][..],
        ];
        let cells = cells
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
        let m = NetworkModel::new(graph, cells);
        let assignments = vec![single(0), bonded(0), single(1), single(3)];
        let colours = [
            single(0),
            single(1),
            single(2),
            single(3),
            bonded(0),
            bonded(2),
        ];
        for ap in 0..4 {
            for &c in &colours {
                let fast = m.delta_bps(ApId(ap), c, &assignments);
                let mut alt = assignments.clone();
                alt[ap] = c;
                let slow = m.total_bps(&alt) - m.total_bps(&assignments);
                assert!(
                    (fast - slow).abs() <= 1e-6 * slow.abs().max(1.0),
                    "ap {ap} -> {c:?}: fast {fast} slow {slow}"
                );
            }
        }
    }

    #[test]
    fn best_switch_matches_the_per_colour_scan_exactly() {
        // The hoisted colour scan must pick the same colour as a
        // first-max fold over `delta_bps`, with the gain bit-identical.
        let graph = InterferenceGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
        let cells = [
            &[28.0, 22.0][..],
            &[15.0][..],
            &[8.0, 6.0, 31.0][..],
            &[2.0][..],
            &[19.0][..],
        ];
        let cells = cells
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
        let m = NetworkModel::new(graph, cells);
        let assignments = vec![single(0), bonded(0), single(1), single(3), bonded(2)];
        let colours = [
            single(0),
            single(1),
            single(2),
            single(3),
            bonded(0),
            bonded(2),
        ];
        for ap in 0..5 {
            let (c_fast, g_fast) = m.best_switch(ApId(ap), &colours, &assignments);
            let mut ref_best: Option<(ChannelAssignment, f64)> = None;
            for &c in &colours {
                let gain = m.delta_bps(ApId(ap), c, &assignments);
                match ref_best {
                    Some((_, g)) if g >= gain => {}
                    _ => ref_best = Some((c, gain)),
                }
            }
            let (c_ref, g_ref) = ref_best.unwrap();
            assert_eq!(c_fast, c_ref, "ap {ap}: colour");
            assert_eq!(
                g_fast.to_bits(),
                g_ref.to_bits(),
                "ap {ap}: {g_fast} vs {g_ref}"
            );
        }
    }

    #[test]
    fn delta_of_current_colour_is_exactly_zero() {
        let m = two_ap_model(&[25.0], &[20.0], true);
        let a = vec![single(0), single(1)];
        assert_eq!(m.delta_bps(ApId(0), single(0), &a), 0.0);
    }

    #[test]
    fn model_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<NetworkModel>();
    }

    #[test]
    fn stats_count_rebuilds_deltas_and_scans() {
        let mut m = two_ap_model(&[25.0], &[20.0], true);
        assert_eq!(m.stats().snapshot().rebuilds, 1, "construction builds once");
        let mut est = *m.estimator();
        est.fading_sigma_db += 4.0;
        m.set_estimator(est);
        assert_eq!(m.stats().snapshot().rebuilds, 2);

        let a = vec![single(0), single(1)];
        let before = m.stats().snapshot();
        m.delta_bps(ApId(0), single(1), &a);
        let colours = [single(0), single(1), single(2)];
        m.best_switch(ApId(0), &colours, &a);
        let after = m.stats().snapshot();
        assert_eq!(after.delta_evals - before.delta_evals, 1 + 3);
        assert_eq!(after.best_switch_scans - before.best_switch_scans, 1);

        // take() drains; a cloned model carries the values forward.
        let cloned = m.clone();
        assert_eq!(cloned.stats().snapshot(), after);
        assert_eq!(m.stats().take(), after);
        assert_eq!(m.stats().snapshot(), ModelStatsSnapshot::default());
    }

    #[test]
    fn restricted_submodel_copies_rows_and_edges_bit_exactly() {
        let graph = InterferenceGraph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let cells = [
            &[28.0, 22.0][..],
            &[15.0][..],
            &[8.0, 31.0][..],
            &[2.0][..],
            &[19.0][..],
        ];
        let cells: Vec<Vec<ClientSnr>> = cells
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
        let m = NetworkModel::new(graph, cells);
        let sub = m.restrict(&[3, 4]);
        assert_eq!(sub.n_aps(), 2);
        assert!(sub.graph.interferes(ApId(0), ApId(1)));
        for (new, old) in [(0usize, 3usize), (1, 4)] {
            for w in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
                assert_eq!(
                    sub.cell_base_bps(ApId(new), w).to_bits(),
                    m.cell_base_bps(ApId(old), w).to_bits(),
                    "row ({old}, {w:?}) must be copied, not re-derived"
                );
            }
        }
        // Restriction copies rows — no estimator pipeline rebuild.
        assert_eq!(sub.stats().snapshot().rebuilds, 0);
        // Edges to outside the subset are dropped.
        let sub2 = m.restrict(&[0, 1, 3]);
        assert!(sub2.graph.interferes(ApId(0), ApId(1)));
        assert_eq!(sub2.graph.degree(ApId(2)), 0, "edge (3,4) left the subset");
    }

    #[test]
    #[should_panic(expected = "must ascend")]
    fn restrict_rejects_unsorted_nodes() {
        let m = two_ap_model(&[25.0], &[20.0], true);
        m.restrict(&[1, 0]);
    }

    #[test]
    fn table_backed_model_tracks_the_exact_model() {
        use acorn_phy::GoodputTable;
        let graph = InterferenceGraph::complete(2);
        let mk = |snrs: &[f64]| {
            snrs.iter()
                .enumerate()
                .map(|(i, &s)| ClientSnr {
                    client: i,
                    snr20_db: s,
                })
                .collect::<Vec<_>>()
        };
        let cells = vec![mk(&[30.0, 8.5, 1.65]), mk(&[22.3, 14.0])];
        let exact = NetworkModel::new(graph.clone(), cells.clone());
        let table = std::sync::Arc::new(GoodputTable::build(
            LinkQualityEstimator::default(),
            -12.0,
            48.0,
            0.0625,
        ));
        let fast = NetworkModel::with_table(graph, cells, table.clone(), 1500);
        let a = vec![single(0), single(1)];
        let (ye, yf) = (exact.total_bps(&a), fast.total_bps(&a));
        assert!(
            (ye - yf).abs() / ye < 1e-3,
            "table-backed total {yf} vs exact {ye}"
        );
        assert!(table.stats().hits > 0, "cell-base build must hit the table");
        assert_eq!(
            fast.table().map(std::sync::Arc::as_ptr),
            Some(std::sync::Arc::as_ptr(&table))
        );
        // Restriction shares the same table.
        let sub = fast.restrict(&[0]);
        assert!(sub.table().is_some());
    }

    /// Regression for the DESIGN.md §13.3 footgun: epoch flushes used to
    /// *drain* the shared table's counters, so the second of two
    /// sequential runs over one `Arc<GoodputTable>` saw zero rebuilds
    /// (and whatever hits the first run hadn't stolen). With cumulative
    /// counters and per-attach flush cursors, both runs must report
    /// identical hit/miss/rebuild counts.
    #[test]
    fn sequential_runs_sharing_a_table_report_identical_counters() {
        use acorn_obs::RecordingSink;
        use acorn_phy::GoodputTable;
        let graph = InterferenceGraph::complete(2);
        let cells = vec![
            vec![ClientSnr {
                client: 0,
                snr20_db: 27.0,
            }],
            vec![ClientSnr {
                client: 1,
                snr20_db: 14.5,
            }],
        ];
        let table = std::sync::Arc::new(GoodputTable::build(
            LinkQualityEstimator::default(),
            -12.0,
            48.0,
            0.0625,
        ));
        let run = || {
            let m = NetworkModel::with_table(graph.clone(), cells.clone(), table.clone(), 1500);
            let a = vec![single(0), single(1)];
            m.total_bps(&a);
            let sink = RecordingSink::new();
            m.flush_stats_into(&sink);
            sink.with_telemetry(|t| {
                (
                    t.counter(names::TABLE_HITS),
                    t.counter(names::TABLE_MISSES),
                    t.counter(names::TABLE_REBUILDS),
                )
            })
        };
        let first = run();
        let second = run();
        assert_eq!(first, second, "shared-table runs must report identically");
        assert_eq!(first.2, 1, "each attach reports the one build it adopted");
        assert!(first.0 > 0, "cell-base build goes through the table");
        // The table itself keeps cumulative counts: two identical runs,
        // twice the traffic, still exactly one build.
        let s = table.stats();
        assert_eq!(s.rebuilds, 1);
        assert_eq!(s.hits, 2 * first.0);
    }

    #[test]
    fn stats_flush_reports_model_metrics() {
        use acorn_obs::RecordingSink;
        let m = two_ap_model(&[25.0], &[20.0], true);
        let a = vec![single(0), single(1)];
        m.best_switch(ApId(0), &[single(0), single(1)], &a);
        let sink = RecordingSink::new();
        m.stats().flush_into(&sink);
        sink.with_telemetry(|t| {
            assert_eq!(t.counter(acorn_obs::names::MODEL_REBUILDS), 1);
            assert_eq!(t.counter(acorn_obs::names::MODEL_DELTA_EVALS), 2);
            assert_eq!(t.counter(acorn_obs::names::MODEL_BEST_SWITCH_SCANS), 1);
        });
    }
}
