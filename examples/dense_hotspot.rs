//! Dense hotspot: channel scarcity and why aggressive bonding backfires
//! (the paper's Fig. 11 scenario as a runnable demo).
//!
//! Three mutually contending APs, only four 20 MHz channels. ACORN,
//! the [17]-style aggressive-CB baseline, and the two fixed-width plans
//! are configured on the same deployment and scored side by side.
//!
//! ```text
//! cargo run --release --example dense_hotspot
//! ```

use acorn::baselines::{allocate_aggressive_cb, fixed_width};
use acorn::core::{AcornConfig, AcornController};
use acorn::obs::NullSink;
use acorn::phy::ChannelWidth;
use acorn::sim::runner::evaluate_analytic;
use acorn::sim::Traffic;
use acorn::topology::{ChannelPlan, ClientId};

fn main() {
    let wlan = acorn::sim::fig11();
    let plan = ChannelPlan::restricted(4);
    let ctl = AcornController::new(AcornConfig {
        plan,
        ..AcornConfig::default()
    });

    // Natural association (one client per AP here).
    let mut state = ctl.new_state(&wlan, 1);
    for c in 0..wlan.clients.len() {
        ctl.associate(&wlan, &mut state, ClientId(c));
    }

    // ACORN (run first: `score` borrows the settled association below).
    ctl.reallocate(&wlan, &mut state, 8, 3, &NullSink);

    let score = |assignments: &[acorn::topology::ChannelAssignment]| {
        evaluate_analytic(
            &wlan,
            assignments,
            &state.assoc,
            &ctl.config.estimator,
            1500,
            Traffic::Udp,
        )
    };
    let acorn = score(&state.assignments);
    let acorn_widths: Vec<_> = state.assignments.iter().map(|a| a.width()).collect();

    // Aggressive CB ([17]-style).
    let graph = wlan.interference_graph(&state.assoc);
    let aggressive = allocate_aggressive_cb(&wlan, &graph, &plan, 8);
    let agg = score(&aggressive);

    // Fixed-width strawmen.
    let all20 = fixed_width(&plan, wlan.aps.len(), ChannelWidth::Ht20);
    let all40 = fixed_width(&plan, wlan.aps.len(), ChannelWidth::Ht40);
    let f20 = score(&all20);
    let f40 = score(&all40);

    println!("3 contending APs, 4 channels (2 possible bonds):");
    println!();
    let row = |name: &str, e: &acorn::sim::Evaluation| {
        println!(
            "{name:<22} per-AP [{}] Mb/s   total {:>6.1} Mb/s",
            e.per_ap_bps
                .iter()
                .map(|b| format!("{:>5.1}", b / 1e6))
                .collect::<Vec<_>>()
                .join(", "),
            e.total_bps / 1e6
        );
    };
    println!("ACORN widths: {acorn_widths:?}");
    row("ACORN", &acorn);
    row("aggressive CB ([17])", &agg);
    row("fixed all-20 MHz", &f20);
    row("fixed all-40 MHz", &f40);
    println!();
    println!(
        "ACORN vs aggressive CB: {:.2}x (paper: ~2x in this scenario)",
        acorn.total_bps / agg.total_bps
    );
}
