//! Ablations of ACORN's design choices (DESIGN.md §5):
//!
//! 1. **ε stopping rule** — final throughput vs iterations for
//!    ε ∈ {1.0, 1.02, 1.05, 1.10} (paper uses 1.05).
//! 2. **Association utility** — Eq. 4 vs selfish vs RSSI, on Topology 2.
//! 3. **SNR calibration** — the estimator with vs without the −3 dB CB
//!    shift; without it the allocator over-bonds poor cells.
//! 4. **Rank order** — max-rank-first (the paper's "winner" rule) vs
//!    random AP order in the greedy.

use acorn_baselines::simple::associate_rssi;
use acorn_bench::{header, mbps, print_table, save_json};
use acorn_core::allocation::{allocate_with_restarts, random_initial, AllocationConfig};
use acorn_core::association::choose_ap_selfish;
use acorn_core::model::{ClientSnr, NetworkModel, ThroughputModel};
use acorn_core::{AcornConfig, AcornController};
use acorn_mac::airtime::{CellAirtime, ClientLink};
use acorn_mac::contention::access_share;
use acorn_obs::NullSink;
use acorn_phy::ChannelWidth;
use acorn_sim::runner::evaluate_analytic;
use acorn_sim::scenario::topology2;
use acorn_sim::traffic::Traffic;
use acorn_topology::{ApId, ChannelAssignment, ChannelPlan, ClientId, InterferenceGraph};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use serde::Serialize;

#[derive(Serialize, Default)]
struct Ablations {
    epsilon: Vec<(f64, f64, f64)>, // (eps, mean Y Mb/s, mean iterations)
    association: Vec<(String, f64)>,
    calibration: Vec<(String, f64)>,
    rank_order: Vec<(String, f64)>,
}

fn grid_model(seed: u64) -> NetworkModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 6;
    let cells = (0..n)
        .map(|a| {
            (0..3)
                .map(|i| ClientSnr {
                    client: a * 3 + i,
                    snr20_db: rng.gen_range(1.0..32.0),
                })
                .collect()
        })
        .collect();
    NetworkModel::new(InterferenceGraph::complete(n), cells)
}

fn ablate_epsilon(out: &mut Ablations) {
    header("Ablation 1: epsilon stopping rule");
    let plan = ChannelPlan::full_5ghz();
    let mut rows = Vec::new();
    for eps in [1.0, 1.02, 1.05, 1.10] {
        let cfg = AllocationConfig {
            epsilon: eps,
            max_rounds: 64,
        };
        let mut y = 0.0;
        let mut iters = 0.0;
        let trials = 12;
        for seed in 0..trials {
            let m = grid_model(seed);
            let r = allocate_with_restarts(&m, &plan, &cfg, 0, seed);
            y += r.total_bps / trials as f64;
            iters += r.iterations as f64 / trials as f64;
        }
        rows.push(vec![format!("{eps:.2}"), mbps(y), format!("{iters:.1}")]);
        out.epsilon.push((eps, y / 1e6, iters));
    }
    print_table(&["epsilon", "mean Y (Mb/s)", "mean iterations"], &rows);
    println!("note: the inner max-rank loop already runs each round to");
    println!("exhaustion, so on these instances later rounds rarely add");
    println!("anything and the ε knob is effectively free — consistent");
    println!("with the paper picking a lax 1.05 without quality loss.");
}

fn ablate_association(out: &mut Ablations) {
    header("Ablation 2: association utility (Eq. 4 vs selfish vs RSSI)");
    let wlan = topology2();
    let ctl = AcornController::new(AcornConfig::default());
    let mut rows = Vec::new();
    for (name, rule) in [("Eq. 4 (ACORN)", 0), ("selfish", 1), ("RSSI", 2)] {
        let mut state = ctl.new_state(&wlan, 3);
        for c in 0..wlan.clients.len() {
            match rule {
                0 => {
                    ctl.associate(&wlan, &mut state, ClientId(c));
                }
                1 => {
                    let cands = ctl.candidates_for(&wlan, &state, ClientId(c));
                    if let Some(ix) = choose_ap_selfish(&cands) {
                        state.assoc[c] = Some(cands[ix].ap);
                    }
                }
                _ => {
                    state.assoc[c] = associate_rssi(&wlan, ClientId(c), -3.0);
                }
            }
        }
        ctl.reallocate(&wlan, &mut state, 8, 5, &NullSink);
        let y = evaluate_analytic(
            &wlan,
            &state.assignments,
            &state.assoc,
            &ctl.config.estimator,
            1500,
            Traffic::Udp,
        )
        .total_bps;
        rows.push(vec![name.to_string(), mbps(y)]);
        out.association.push((name.to_string(), y / 1e6));
    }
    print_table(&["association rule", "network Y (Mb/s)"], &rows);
    let eq4 = out.association[0].1;
    assert!(
        out.association.iter().all(|(_, y)| eq4 + 1e-6 >= *y),
        "Eq. 4 must not lose to the strawmen on the grouping topology"
    );
}

/// A throughput model whose estimator *ignores* the −3 dB CB shift — what
/// a width-agnostic controller would predict.
struct Uncalibrated<'a>(&'a NetworkModel);

impl ThroughputModel for Uncalibrated<'_> {
    fn n_aps(&self) -> usize {
        self.0.graph.len()
    }

    fn ap_throughput_bps(&self, ap: ApId, assignments: &[ChannelAssignment]) -> f64 {
        let width = assignments[ap.0].width();
        let est = self.0.estimator();
        let links: Vec<ClientLink> = self.0.cells()[ap.0]
            .iter()
            .map(|c| {
                // No calibration: evaluate the 40 MHz rate table at the
                // *20 MHz* SNR (overestimating bonded quality by 3 dB).
                let p = est.best_rate_point(c.snr20_db, width);
                ClientLink::from_rate_point(p, width, est.gi)
            })
            .collect();
        let m = access_share(&self.0.graph, assignments, ap);
        CellAirtime::new(&links, self.0.payload_bytes()).cell_throughput_bps(m)
    }
}

fn ablate_calibration(out: &mut Ablations) {
    header("Ablation 3: estimator with vs without the -3 dB CB calibration");
    let plan = ChannelPlan::restricted(4);
    let cfg = AllocationConfig::default();
    let mut rows = Vec::new();
    let mut y_cal = 0.0;
    let mut y_uncal = 0.0;
    let mut overbond = 0usize;
    let trials = 12;
    for seed in 100..100 + trials {
        let m = grid_model(seed);
        // Plan with the calibrated model (the real ACORN).
        let r_cal = allocate_with_restarts(&m, &plan, &cfg, 0, seed);
        // Plan with the uncalibrated model, then score with the TRUE model.
        let uncal = Uncalibrated(&m);
        let r_uncal = allocate_with_restarts(&uncal, &plan, &cfg, 0, seed);
        let y_true_uncal = m.total_bps(&r_uncal.assignments);
        y_cal += r_cal.total_bps / trials as f64;
        y_uncal += y_true_uncal / trials as f64;
        let bonds =
            |a: &[ChannelAssignment]| a.iter().filter(|x| x.width() == ChannelWidth::Ht40).count();
        if bonds(&r_uncal.assignments) > bonds(&r_cal.assignments) {
            overbond += 1;
        }
    }
    rows.push(vec!["with -3 dB calibration".into(), mbps(y_cal)]);
    rows.push(vec!["without calibration".into(), mbps(y_uncal)]);
    print_table(&["estimator", "true network Y (Mb/s)"], &rows);
    println!("uncalibrated planner over-bonds in {overbond}/{trials} trials");
    out.calibration.push(("calibrated".into(), y_cal / 1e6));
    out.calibration.push(("uncalibrated".into(), y_uncal / 1e6));
    assert!(y_cal >= y_uncal, "calibration must not hurt on average");
}

/// Random-order greedy variant of Algorithm 2: in each round APs switch
/// in shuffled order instead of max-rank-first.
fn allocate_random_order(model: &NetworkModel, plan: &ChannelPlan, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let colours = plan.all_assignments();
    let mut assignments = random_initial(plan, model.n_aps(), seed);
    let mut y = model.total_bps(&assignments);
    for _ in 0..16 {
        let mut order: Vec<usize> = (0..model.n_aps()).collect();
        order.shuffle(&mut rng);
        let mut improved = false;
        for i in order {
            let cur = assignments[i];
            let mut best = (cur, y);
            for &c in &colours {
                assignments[i] = c;
                let t = model.total_bps(&assignments);
                if t > best.1 {
                    best = (c, t);
                }
            }
            assignments[i] = best.0;
            if best.1 > y {
                y = best.1;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    y
}

fn ablate_rank_order(out: &mut Ablations) {
    header("Ablation 4: max-rank-first vs random AP order");
    let plan = ChannelPlan::restricted(4);
    let cfg = AllocationConfig {
        epsilon: 1.0,
        max_rounds: 64,
    };
    let trials = 16;
    let mut y_rank = 0.0;
    let mut y_rand = 0.0;
    for seed in 200..200 + trials {
        let m = grid_model(seed);
        y_rank += allocate_with_restarts(&m, &plan, &cfg, 0, seed).total_bps / trials as f64;
        y_rand += allocate_random_order(&m, &plan, seed) / trials as f64;
    }
    print_table(
        &["switch order", "mean Y (Mb/s)"],
        &[
            vec!["max-rank first (paper)".into(), mbps(y_rank)],
            vec!["random order".into(), mbps(y_rand)],
        ],
    );
    out.rank_order.push(("max-rank".into(), y_rank / 1e6));
    out.rank_order.push(("random".into(), y_rand / 1e6));
}

fn ablate_fading() {
    header("Ablation 5: AWGN vs fading-averaged link curves (sigma >= 2 region)");
    // Full width of the sigma >= 2 region per modcod, crisp vs smeared.
    // (The paper's Table 1 quotes the 2-3 dB gap between its last sigma>=2
    // and first sigma<2 *sample points* -- the falling edge at their sweep
    // granularity -- not the full region measured here.)
    use acorn_phy::fading::faded_per;
    use acorn_phy::link::{rate_ratio_40_over_20, sigma};
    use acorn_phy::McsIndex;
    let cases = [
        (2u8, "QPSK 3/4"),
        (4, "16QAM 3/4"),
        (6, "64QAM 3/4"),
        (7, "64QAM 5/6"),
    ];
    let mut rows = Vec::new();
    for (idx, label) in cases {
        let mcs = McsIndex::new(idx).unwrap().mcs();
        let band = |sig: f64| {
            let s_of = |snr: f64| {
                sigma(
                    faded_per(&mcs, snr, sig, 1500),
                    faded_per(&mcs, snr - 3.0103, sig, 1500),
                )
            };
            let thr = rate_ratio_40_over_20();
            let mut lo = None;
            let mut hi = None;
            for i in 0..800 {
                let snr = -10.0 + i as f64 * 0.1;
                if s_of(snr) >= thr {
                    if lo.is_none() {
                        lo = Some(snr);
                    }
                    hi = Some(snr);
                }
            }
            match (lo, hi) {
                (Some(a), Some(b)) => b - a,
                _ => 0.0,
            }
        };
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", band(0.0)),
            format!("{:.1}", band(3.0)),
        ]);
    }
    print_table(
        &["modcod", "AWGN region (dB)", "fading σ=3 region (dB)"],
        &rows,
    );
    println!("fading smears the CB-hurts region ~3-4x wider — links spend more of");
    println!("their power range in it, matching the broad Fig. 5 humps.");
}

fn main() {
    let mut out = Ablations::default();
    ablate_epsilon(&mut out);
    ablate_association(&mut out);
    ablate_calibration(&mut out);
    ablate_rank_order(&mut out);
    ablate_fading();
    save_json("ablations", &out);
}
