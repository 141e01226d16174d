//! The reference-table probe: one report-only pass over the layer calls
//! of the 25-AP exact composite, on `enterprise_grid(5, 5)` with 317
//! client slots of which 150 are associated, on both the exact path and
//! the goodput-table path. It reproduces the reference measurements in
//! ROADMAP.md (taken on a 2-CPU container, release build) and prints
//! each figure next to them with the ratio. It is not a gated workload.

use crate::stats::median;
use acorn_core::{AcornConfig, AcornController, NetworkState};
use acorn_phy::{ChannelWidth, GoodputTable, LinkQualityEstimator};
use acorn_sim::scenario::enterprise_grid;
use acorn_topology::{ApId, ClientId, Wlan};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SLOTS: usize = 317;
const ASSOCIATED: usize = 150;

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples).unwrap_or(f64::NAN)
}

/// One row of the reference table: the call, its cost on each path (ms)
/// and ROADMAP's figure for each (ms, `None` where it gives none).
struct Row {
    call: &'static str,
    exact_ms: f64,
    table_ms: Option<f64>,
    roadmap_exact_ms: f64,
    roadmap_table_ms: Option<f64>,
}

fn measure(
    wlan: &Wlan,
    state: &NetworkState,
    exact: &AcornController,
    table: &AcornController,
) -> Vec<Row> {
    let arriving = ClientId(ASSOCIATED);
    let links: Vec<(usize, usize)> = state
        .assoc
        .iter()
        .enumerate()
        .filter_map(|(c, a)| a.map(|ap| (ap.0, c)))
        .collect();
    let snrs: Vec<f64> = links
        .iter()
        .map(|&(ap, c)| wlan.snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20))
        .collect();
    let up = vec![true; wlan.aps.len()];
    let estimator = LinkQualityEstimator::default();
    let per_call = |total_ms: f64| total_ms / snrs.len() as f64;
    vec![
        Row {
            call: "wlan.interference_graph",
            exact_ms: time_ms(21, || {
                black_box(wlan.interference_graph(&state.assoc));
            }),
            table_ms: None,
            roadmap_exact_ms: 0.06,
            roadmap_table_ms: None,
        },
        Row {
            call: "snr_db, all APs x associated",
            exact_ms: time_ms(21, || {
                for ap in 0..wlan.aps.len() {
                    for &(_, c) in &links {
                        black_box(wlan.snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20));
                    }
                }
            }),
            table_ms: None,
            roadmap_exact_ms: 0.23,
            roadmap_table_ms: None,
        },
        Row {
            call: "build_model",
            exact_ms: time_ms(5, || {
                black_box(exact.build_model(wlan, state));
            }),
            table_ms: Some(time_ms(21, || {
                black_box(table.build_model(wlan, state));
            })),
            roadmap_exact_ms: 31.5,
            roadmap_table_ms: Some(0.087),
        },
        Row {
            call: "candidates_for (one arrival)",
            exact_ms: time_ms(5, || {
                black_box(exact.candidates_for(wlan, state, arriving));
            }),
            table_ms: Some(time_ms(21, || {
                black_box(table.candidates_for(wlan, state, arriving));
            })),
            roadmap_exact_ms: 52.0,
            roadmap_table_ms: Some(0.12),
        },
        Row {
            call: "adapt_widths",
            exact_ms: time_ms(5, || {
                exact.adapt_widths(wlan, &mut state.clone());
            }),
            table_ms: Some(time_ms(21, || {
                table.adapt_widths(wlan, &mut state.clone());
            })),
            roadmap_exact_ms: 51.5,
            roadmap_table_ms: None,
        },
        Row {
            call: "total_throughput_bps_up",
            exact_ms: time_ms(3, || {
                black_box(exact.total_throughput_bps_up(wlan, state, &up));
            }),
            table_ms: Some(time_ms(11, || {
                black_box(table.total_throughput_bps_up(wlan, state, &up));
            })),
            roadmap_exact_ms: 785.0,
            roadmap_table_ms: Some(2.3),
        },
        Row {
            call: "LinkQualityEstimator::estimate (per call)",
            exact_ms: per_call(time_ms(5, || {
                for &s in &snrs {
                    black_box(estimator.estimate(black_box(s), ChannelWidth::Ht20));
                }
            })),
            table_ms: None,
            roadmap_exact_ms: 0.115,
            roadmap_table_ms: None,
        },
    ]
}

fn ratio_cell(measured: Option<f64>, roadmap: Option<f64>) -> String {
    match (measured, roadmap) {
        (Some(m), Some(r)) => {
            let x = m / r;
            let flag = if (0.5..=2.0).contains(&x) { "" } else { " !" };
            format!("{x:.2}x{flag}")
        }
        _ => "-".to_string(),
    }
}

fn ms_cell(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |x| format!("{x:.4}"))
}

/// Runs the probe for `seed` and prints the table, flagging every figure
/// that lands outside 2× of its ROADMAP counterpart.
pub fn run(seed: u64) {
    let wlan = enterprise_grid(5, 5, 50.0, SLOTS, seed);
    let exact = AcornController::new(AcornConfig::default());
    let t = Instant::now();
    let table_ctl = AcornController::with_table(
        AcornConfig::default(),
        Arc::new(GoodputTable::new(LinkQualityEstimator::default())),
    );
    let build_s = t.elapsed().as_secs_f64();
    // Algorithm 1 on the table path places the first 150 clients; both
    // paths are then timed on that one state.
    let mut state = table_ctl.new_state(&wlan, seed);
    for c in 0..ASSOCIATED {
        table_ctl.associate(&wlan, &mut state, ClientId(c));
    }
    let placed = state.assoc.iter().filter(|a| a.is_some()).count();
    println!(
        "# reference probe: enterprise_grid(5,5), {SLOTS} slots, {placed} associated, seed {seed}"
    );
    println!("# goodput table build: {build_s:.3} s");
    let rows = measure(&wlan, &state, &exact, &table_ctl);
    println!(
        "{:<42} {:>12} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "call", "exact ms", "roadmap", "ratio", "table ms", "roadmap", "ratio"
    );
    let mut within = true;
    for r in &rows {
        for (m, rm) in [
            (Some(r.exact_ms), Some(r.roadmap_exact_ms)),
            (r.table_ms, r.roadmap_table_ms),
        ] {
            if let (Some(m), Some(rm)) = (m, rm) {
                within &= (0.5..=2.0).contains(&(m / rm));
            }
        }
        println!(
            "{:<42} {:>12} {:>12} {:>10} {:>12} {:>12} {:>10}",
            r.call,
            ms_cell(Some(r.exact_ms)),
            ms_cell(Some(r.roadmap_exact_ms)),
            ratio_cell(Some(r.exact_ms), Some(r.roadmap_exact_ms)),
            ms_cell(r.table_ms),
            ms_cell(r.roadmap_table_ms),
            ratio_cell(r.table_ms, r.roadmap_table_ms),
        );
    }
    println!(
        "# every figure within 2x of ROADMAP: {}",
        if within { "yes" } else { "no" }
    );
}
