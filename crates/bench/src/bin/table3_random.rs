//! Table 3 — ACORN vs the 10 best of 50 random manual configurations,
//! UDP and TCP network throughput.
//!
//! Paper: "ACORN configures the network in a way that achieves the
//! highest possible throughput as compared to what is achieved with these
//! random configurations" — for both UDP and (unsaturated) TCP.

use acorn_baselines::simple::random_config;
use acorn_bench::{header, mbps, print_table, save_json};
use acorn_core::{AcornConfig, AcornController};
use acorn_obs::NullSink;
use acorn_sim::runner::evaluate_analytic;
use acorn_sim::scenario::enterprise_grid;
use acorn_sim::traffic::Traffic;
use acorn_topology::ChannelPlan;
use acorn_topology::ClientId;
use serde::Serialize;

#[derive(Serialize)]
struct Table3 {
    acorn_udp_bps: f64,
    acorn_tcp_bps: f64,
    best10_random_udp_bps: Vec<f64>,
    best10_random_tcp_bps: Vec<f64>,
    acorn_beats_all_udp: bool,
    acorn_beats_all_tcp: bool,
}

fn main() {
    header("Table 3: ACORN vs 50 random manual configurations");
    // A randomly picked topology: 2×2 grid, 12 clients, shadowing on.
    let wlan = enterprise_grid(2, 2, 55.0, 12, 2010);
    let plan = ChannelPlan::full_5ghz();
    let ctl = AcornController::new(AcornConfig {
        plan,
        ..AcornConfig::default()
    });

    // ACORN: associate arrivals one by one, then allocate (with restarts),
    // then settle association under the final channels.
    let mut state = ctl.new_state(&wlan, 3);
    for c in 0..wlan.clients.len() {
        ctl.associate(&wlan, &mut state, ClientId(c));
    }
    ctl.reallocate(&wlan, &mut state, 10, 17, &NullSink);
    for c in 0..wlan.clients.len() {
        ctl.deassociate(&mut state, ClientId(c));
        ctl.associate(&wlan, &mut state, ClientId(c));
    }
    ctl.reallocate(&wlan, &mut state, 10, 19, &NullSink);
    let eval = |assignments: &[acorn_topology::ChannelAssignment],
                assoc: &[Option<acorn_topology::ApId>],
                traffic| {
        evaluate_analytic(
            &wlan,
            assignments,
            assoc,
            &ctl.config.estimator,
            1500,
            traffic,
        )
        .total_bps
    };
    let acorn_udp = eval(&state.assignments, &state.assoc, Traffic::Udp);
    let acorn_tcp = eval(&state.assignments, &state.assoc, Traffic::tcp_default());

    // 50 random configurations, scored in parallel. Each one is derived
    // from its own seed, and results come back in seed order, so the
    // numbers match the sequential loop exactly.
    let scored: Vec<(f64, f64)> = acorn_core::par::par_map_n(50, |seed| {
        let cfg = random_config(
            &wlan,
            &plan,
            ctl.config.association_snr_floor_db,
            1000 + seed as u64,
        );
        (
            eval(&cfg.assignments, &cfg.assoc, Traffic::Udp),
            eval(&cfg.assignments, &cfg.assoc, Traffic::tcp_default()),
        )
    });
    let mut udp: Vec<f64> = scored.iter().map(|&(u, _)| u).collect();
    let mut tcp: Vec<f64> = scored.iter().map(|&(_, t)| t).collect();
    udp.sort_by(|a, b| b.total_cmp(a));
    tcp.sort_by(|a, b| b.total_cmp(a));
    let best_udp: Vec<f64> = udp[..10].to_vec();
    let best_tcp: Vec<f64> = tcp[..10].to_vec();

    let fmt = |v: &[f64]| v.iter().map(|x| mbps(*x)).collect::<Vec<_>>().join(", ");
    print_table(
        &[
            "traffic",
            "ACORN (Mb/s)",
            "10 best random configs (Mb/s, descending)",
        ],
        &[
            vec!["UDP".into(), mbps(acorn_udp), fmt(&best_udp)],
            vec!["TCP".into(), mbps(acorn_tcp), fmt(&best_tcp)],
        ],
    );
    let beats_udp = acorn_udp >= best_udp[0];
    let beats_tcp = acorn_tcp >= best_tcp[0];
    println!();
    println!(
        "ACORN beats every random config: UDP {} (margin {:.1}%), TCP {} (margin {:.1}%)",
        if beats_udp { "yes" } else { "NO" },
        100.0 * (acorn_udp / best_udp[0] - 1.0),
        if beats_tcp { "yes" } else { "NO" },
        100.0 * (acorn_tcp / best_tcp[0] - 1.0),
    );
    println!("paper: ACORN 259.2 (UDP) / 178.93 (TCP) vs best random 201.63 / 161.7");

    save_json(
        "table3_random",
        &Table3 {
            acorn_udp_bps: acorn_udp,
            acorn_tcp_bps: acorn_tcp,
            best10_random_udp_bps: best_udp,
            best10_random_tcp_bps: best_tcp,
            acorn_beats_all_udp: beats_udp,
            acorn_beats_all_tcp: beats_tcp,
        },
    );
}
