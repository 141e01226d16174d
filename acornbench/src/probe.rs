//! Layer probes for the traced run.
//!
//! At each checkpoint the probe times the public function of every layer
//! on a read-only [`View`] of the live world: the PHY estimator and a
//! goodput table over the live links' SNRs, the interference graph, the
//! throughput model, Algorithm 1's candidate build and width adaptation,
//! Algorithm 2, the beacon wire codec and the quantile sketch.
//!
//! The probe owns its controller and its [`GoodputTable`]. It never
//! touches the workload's controller or table: the table's counters are
//! cumulative and shared by every model that holds it, so a probe lookup
//! on the live table would leak into the run's telemetry.

use acorn_core::{
    allocate_sharded_with_restarts, allocate_with_restarts, parse_beacon, serialize_beacon,
    AcornConfig, AcornController, Beacon, ClientSnr, NetworkModel, NetworkState, ThroughputModel,
};
use acorn_ctrlplane::PlaneWorld;
use acorn_events::{AcornWorld, CityWorld};
use acorn_obs::{QuantileSketch, DEFAULT_SKETCH_K};
use acorn_phy::{ChannelWidth, GoodputTable, LinkQualityEstimator};
use acorn_topology::{ApId, ClientId, Wlan};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Live links sampled per checkpoint (evenly spaced over all links).
const LINK_SAMPLE: usize = 64;
/// Beacons encoded and parsed per checkpoint.
const BEACON_SAMPLE: usize = 64;
/// Passes over the sampled SNRs when timing table lookups (one lookup
/// is far below the clock's resolution).
const LOOKUP_PASSES: usize = 64;
/// Sketch insertions timed per checkpoint.
const SKETCH_INSERTS: usize = 4096;

/// What a probe may read of a live world.
pub struct View<'a> {
    /// The deployment.
    pub wlan: &'a Wlan,
    /// The controller's network state.
    pub state: &'a NetworkState,
}

/// A world the probe can look at.
pub trait Live {
    /// A read-only view of the deployment and network state.
    fn view(&self) -> View<'_>;
}

impl Live for AcornWorld {
    fn view(&self) -> View<'_> {
        View {
            wlan: &self.wlan,
            state: &self.state,
        }
    }
}

impl Live for CityWorld {
    fn view(&self) -> View<'_> {
        View {
            wlan: &self.wlan,
            state: &self.state,
        }
    }
}

impl Live for PlaneWorld {
    fn view(&self) -> View<'_> {
        View {
            wlan: &self.wlan,
            state: &self.state,
        }
    }
}

/// Which Algorithm 2 entry point a workload's controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocPath {
    /// `allocate_with_restarts` over the whole network.
    Whole,
    /// `allocate_sharded_with_restarts` over connected components.
    Sharded,
}

/// The per-layer probe of one traced run.
pub struct LayerProbe {
    exact: LinkQualityEstimator,
    table: Arc<GoodputTable>,
    ctl: AcornController,
    uses_table: bool,
    alloc: AllocPath,
    restarts: usize,
    seed: u64,
    /// Seconds the probe's own default table took to build.
    pub table_build_s: f64,
    /// Timing samples per metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl LayerProbe {
    /// A probe mirroring a workload's estimator path (`uses_table`) and
    /// Algorithm 2 entry point, with its own controller and table.
    pub fn new(uses_table: bool, alloc: AllocPath, restarts: usize, seed: u64) -> LayerProbe {
        let exact = LinkQualityEstimator::default();
        let t0 = Instant::now();
        let table = Arc::new(GoodputTable::new(exact));
        let table_build_s = t0.elapsed().as_secs_f64();
        let ctl = if uses_table {
            AcornController::with_table(AcornConfig::default(), Arc::clone(&table))
        } else {
            AcornController::new(AcornConfig::default())
        };
        LayerProbe {
            exact,
            table,
            ctl,
            uses_table,
            alloc,
            restarts,
            seed,
            table_build_s,
            samples: BTreeMap::new(),
        }
    }

    fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Times every layer once on the live world.
    pub fn checkpoint(&mut self, v: View<'_>) {
        let links: Vec<(usize, usize)> = v
            .state
            .assoc
            .iter()
            .enumerate()
            .filter_map(|(c, a)| a.map(|ap| (ap.0, c)))
            .collect();
        if links.is_empty() {
            return;
        }
        let stride = links.len().div_ceil(LINK_SAMPLE);
        let sampled: Vec<(usize, usize)> = links.iter().copied().step_by(stride).collect();
        let snrs: Vec<f64> = sampled
            .iter()
            .map(|&(ap, c)| v.wlan.snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20))
            .collect();

        // PHY: the exact union-bound estimator, one call at a time.
        for &snr in &snrs {
            let t = Instant::now();
            black_box(self.exact.estimate(black_box(snr), ChannelWidth::Ht20));
            self.push("phy.estimate_us", t.elapsed().as_secs_f64() * 1e6);
        }
        // PHY: the memoized table on the same SNRs.
        let t = Instant::now();
        for _ in 0..LOOKUP_PASSES {
            for &snr in &snrs {
                black_box(self.table.estimate(black_box(snr), ChannelWidth::Ht20));
            }
        }
        let per_lookup = t.elapsed().as_secs_f64() / (LOOKUP_PASSES * snrs.len()) as f64;
        self.push("phy.table_lookup_ns", per_lookup * 1e9);

        // Topology: the conflict graph under the live association.
        let t = Instant::now();
        let graph = black_box(v.wlan.interference_graph(&v.state.assoc));
        self.push("topology.graph_ms", t.elapsed().as_secs_f64() * 1e3);

        // Model: cells from one pass over the links, then the model
        // build on the workload's estimator path.
        let mut cells: Vec<Vec<ClientSnr>> = vec![Vec::new(); v.wlan.aps.len()];
        for &(ap, c) in &links {
            cells[ap].push(ClientSnr {
                client: c,
                snr20_db: v.wlan.snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20),
            });
        }
        let payload = self.ctl.config.payload_bytes;
        let t = Instant::now();
        let model = if self.uses_table {
            NetworkModel::with_table(graph, cells, Arc::clone(&self.table), payload)
        } else {
            NetworkModel::with_config(graph, cells, self.exact, payload)
        };
        self.push("model.build_ms", t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(model.total_bps(&v.state.assignments));
        self.push("model.total_bps_ms", t.elapsed().as_secs_f64() * 1e3);

        // Algorithm 2 on the probe's model.
        let cfg = &self.ctl.config;
        let t = Instant::now();
        black_box(match self.alloc {
            AllocPath::Whole => {
                allocate_with_restarts(&model, &cfg.plan, &cfg.allocation, self.restarts, self.seed)
            }
            AllocPath::Sharded => allocate_sharded_with_restarts(
                &model,
                &cfg.plan,
                v.state.assignments.clone(),
                &cfg.allocation,
                self.restarts,
                self.seed,
            ),
        });
        self.push("alloc.epoch_ms", t.elapsed().as_secs_f64() * 1e3);

        // Algorithm 1: the candidate build for one live client, and the
        // width adaptation on a copy of the state.
        let client = ClientId(sampled[sampled.len() / 2].1);
        let t = Instant::now();
        black_box(self.ctl.candidates_for(v.wlan, v.state, client));
        self.push("assoc.candidates_ms", t.elapsed().as_secs_f64() * 1e3);
        let mut state = v.state.clone();
        let t = Instant::now();
        self.ctl.adapt_widths(v.wlan, &mut state);
        self.push("assoc.adapt_widths_ms", t.elapsed().as_secs_f64() * 1e3);

        // Wire: beacons of occupied APs through encode and parse.
        let eff = v.state.effective_assignments();
        let occupied: Vec<usize> = (0..v.wlan.aps.len())
            .filter(|&ap| !model.cells()[ap].is_empty())
            .collect();
        let stride = occupied.len().div_ceil(BEACON_SAMPLE).max(1);
        for &ap in occupied.iter().step_by(stride) {
            let id = ApId(ap);
            let conflicting = model
                .graph
                .neighbors(id)
                .filter(|n| eff[ap].conflicts(eff[n.0]))
                .count();
            let airtime = model.cell_airtime(id, v.state.operating_width[ap]);
            let share = 1.0 / (conflicting as f64 + 1.0);
            let beacon = Beacon::from_airtime(id, eff[ap], &airtime, share);
            let t = Instant::now();
            let Ok(frame) = serialize_beacon(&beacon, [2, 0, 0, 0, 0, ap as u8], 0) else {
                continue;
            };
            self.push("wire.encode_us", t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let parsed = parse_beacon(black_box(&frame));
            self.push("wire.parse_us", t.elapsed().as_secs_f64() * 1e6);
            debug_assert!(parsed.is_ok(), "a clean frame must parse");
        }

        // Observability: sketch inserts of the sampled SNRs.
        if let Ok(mut sketch) = QuantileSketch::new(DEFAULT_SKETCH_K) {
            let t = Instant::now();
            for i in 0..SKETCH_INSERTS {
                sketch.observe(black_box(snrs[i % snrs.len()] + i as f64 * 1e-3));
            }
            black_box(&sketch);
            let per_insert = t.elapsed().as_secs_f64() / SKETCH_INSERTS as f64;
            self.push("obs.sketch_insert_ns", per_insert * 1e9);
        }
    }
}
