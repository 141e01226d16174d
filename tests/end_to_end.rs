//! End-to-end integration tests: the full ACORN pipeline (association +
//! allocation + evaluation) against the baselines, across the paper's
//! scenarios. These tests span acorn-core, acorn-baselines, acorn-sim and
//! acorn-topology.

use acorn::baselines::{allocate_aggressive_cb, associate_rssi, fixed_width, random_config};
use acorn::core::{AcornConfig, AcornController};
use acorn::obs::NullSink;
use acorn::phy::ChannelWidth;
use acorn::sim::runner::evaluate_analytic;
use acorn::sim::{enterprise_grid, fig11, topology1, topology2, Traffic};
use acorn::topology::{ChannelPlan, ClientId, Wlan};

fn acorn_configure(
    wlan: &Wlan,
    plan: ChannelPlan,
    seed: u64,
) -> (AcornController, acorn::core::NetworkState) {
    let ctl = AcornController::new(AcornConfig {
        plan,
        ..AcornConfig::default()
    });
    let mut state = ctl.new_state(wlan, seed);
    for c in 0..wlan.clients.len() {
        ctl.associate(wlan, &mut state, ClientId(c));
    }
    ctl.reallocate(wlan, &mut state, 8, seed + 1, &NullSink);
    for c in 0..wlan.clients.len() {
        ctl.deassociate(&mut state, ClientId(c));
        ctl.associate(wlan, &mut state, ClientId(c));
    }
    ctl.reallocate(wlan, &mut state, 8, seed + 2, &NullSink);
    (ctl, state)
}

#[test]
fn acorn_beats_aggressive_cb_on_topology1() {
    let wlan = topology1();
    let plan = ChannelPlan::full_5ghz();
    let (ctl, state) = acorn_configure(&wlan, plan, 3);
    let acorn = evaluate_analytic(
        &wlan,
        &state.assignments,
        &state.assoc,
        &ctl.config.estimator,
        1500,
        Traffic::Udp,
    );
    let aggressive =
        allocate_aggressive_cb(&wlan, &wlan.interference_graph(&state.assoc), &plan, 8);
    let base = evaluate_analytic(
        &wlan,
        &aggressive,
        &state.assoc,
        &ctl.config.estimator,
        1500,
        Traffic::Udp,
    );
    // The poor cell must gain substantially (paper: ~4x).
    assert!(
        acorn.per_ap_bps[0] > 2.0 * base.per_ap_bps[0],
        "poor cell: acorn {:.3e} vs aggressive {:.3e}",
        acorn.per_ap_bps[0],
        base.per_ap_bps[0]
    );
    // The poor cell ends on 20 MHz.
    assert_eq!(state.assignments[0].width(), ChannelWidth::Ht20);
    assert!(acorn.total_bps >= base.total_bps);
}

#[test]
fn acorn_beats_every_baseline_on_fig11() {
    let wlan = fig11();
    let plan = ChannelPlan::restricted(4);
    let (ctl, state) = acorn_configure(&wlan, plan, 5);
    let score = |assignments: &[acorn::topology::ChannelAssignment]| {
        evaluate_analytic(
            &wlan,
            assignments,
            &state.assoc,
            &ctl.config.estimator,
            1500,
            Traffic::Udp,
        )
        .total_bps
    };
    let acorn = score(&state.assignments);
    let graph = wlan.interference_graph(&state.assoc);
    assert!(acorn >= score(&allocate_aggressive_cb(&wlan, &graph, &plan, 8)));
    assert!(acorn >= score(&fixed_width(&plan, 3, ChannelWidth::Ht20)));
    assert!(acorn >= score(&fixed_width(&plan, 3, ChannelWidth::Ht40)));
}

#[test]
fn acorn_beats_random_configs_on_an_enterprise_floor() {
    let wlan = enterprise_grid(2, 2, 55.0, 10, 77);
    let plan = ChannelPlan::full_5ghz();
    let (ctl, state) = acorn_configure(&wlan, plan, 9);
    let acorn = evaluate_analytic(
        &wlan,
        &state.assignments,
        &state.assoc,
        &ctl.config.estimator,
        1500,
        Traffic::Udp,
    )
    .total_bps;
    for seed in 0..25 {
        let cfg = random_config(&wlan, &plan, -3.0, seed);
        let y = evaluate_analytic(
            &wlan,
            &cfg.assignments,
            &cfg.assoc,
            &ctl.config.estimator,
            1500,
            Traffic::Udp,
        )
        .total_bps;
        assert!(
            acorn + 1.0 >= y,
            "random config {seed} beats ACORN: {y:.3e} vs {acorn:.3e}"
        );
    }
}

#[test]
fn acorn_helps_tcp_as_well() {
    // The Table 3 claim: gains carry over to (unsaturated) TCP traffic.
    let wlan = topology2();
    let plan = ChannelPlan::full_5ghz();
    let (ctl, state) = acorn_configure(&wlan, plan, 11);
    let graph = wlan.interference_graph(&state.assoc);
    let aggressive = allocate_aggressive_cb(&wlan, &graph, &plan, 8);
    for traffic in [Traffic::Udp, Traffic::tcp_default()] {
        let acorn = evaluate_analytic(
            &wlan,
            &state.assignments,
            &state.assoc,
            &ctl.config.estimator,
            1500,
            traffic,
        )
        .total_bps;
        let base = evaluate_analytic(
            &wlan,
            &aggressive,
            &state.assoc,
            &ctl.config.estimator,
            1500,
            traffic,
        )
        .total_bps;
        assert!(
            acorn > base,
            "{traffic:?}: acorn {acorn:.3e} !> aggressive {base:.3e}"
        );
    }
}

#[test]
fn rssi_association_is_never_better_on_the_grouping_topology() {
    let wlan = topology2();
    let plan = ChannelPlan::full_5ghz();
    let (ctl, state) = acorn_configure(&wlan, plan, 13);
    let acorn = evaluate_analytic(
        &wlan,
        &state.assignments,
        &state.assoc,
        &ctl.config.estimator,
        1500,
        Traffic::Udp,
    )
    .total_bps;

    // RSSI association with the same (ACORN) channels.
    let rssi_assoc: Vec<_> = (0..wlan.clients.len())
        .map(|c| associate_rssi(&wlan, ClientId(c), -3.0))
        .collect();
    let rssi = evaluate_analytic(
        &wlan,
        &state.assignments,
        &rssi_assoc,
        &ctl.config.estimator,
        1500,
        Traffic::Udp,
    )
    .total_bps;
    assert!(
        acorn + 1.0 >= rssi,
        "rssi {rssi:.3e} beats acorn {acorn:.3e}"
    );
}

#[test]
fn reallocation_is_stable_once_converged() {
    // Running Algorithm 2 twice in a row from its own output must not
    // change the assignment (idempotence at a local optimum).
    let wlan = topology2();
    let (ctl, mut state) = acorn_configure(&wlan, ChannelPlan::full_5ghz(), 17);
    let before = state.assignments.clone();
    let r = ctl.reallocate(&wlan, &mut state, 0, 0, &NullSink);
    assert_eq!(state.assignments, before, "allocation not stable");
    assert_eq!(r.switches, 0);
}

#[test]
fn mobility_adaptation_composes_with_allocation() {
    // A bonded AP with a degraded client falls back; after the client
    // leaves, adaptation returns to the full width.
    use acorn::sim::scenario::{distance_for_snr20, GOOD_SNR_DB, POOR_SNR_DB};
    use acorn::topology::pathloss::LogDistance;
    use acorn::topology::wlan::RadioParams;
    use acorn::topology::Point;

    let radio = RadioParams::default();
    let pl = LogDistance::indoor_5ghz(0);
    let d_good = distance_for_snr20(&radio, &pl, GOOD_SNR_DB);
    let d_poor = distance_for_snr20(&radio, &pl, POOR_SNR_DB);
    let mut wlan = Wlan::new(
        vec![Point::new(0.0, 0.0)],
        vec![Point::new(d_good, 0.0), Point::new(0.0, d_poor)],
        1,
    );
    wlan.pathloss.shadowing_sigma_db = 0.0;

    let ctl = AcornController::new(AcornConfig::default());
    let mut state = ctl.new_state(&wlan, 1);
    ctl.associate(&wlan, &mut state, ClientId(0));
    ctl.reallocate(&wlan, &mut state, 4, 2, &NullSink);
    // One good client → the AP bonds.
    assert_eq!(state.assignments[0].width(), ChannelWidth::Ht40);
    ctl.adapt_widths(&wlan, &mut state);
    assert_eq!(state.operating_width[0], ChannelWidth::Ht40);

    // The poor client joins: fallback to 20 MHz.
    ctl.associate(&wlan, &mut state, ClientId(1));
    ctl.adapt_widths(&wlan, &mut state);
    assert_eq!(state.operating_width[0], ChannelWidth::Ht20);

    // It leaves: back to the full width.
    ctl.deassociate(&mut state, ClientId(1));
    ctl.adapt_widths(&wlan, &mut state);
    assert_eq!(state.operating_width[0], ChannelWidth::Ht40);
}
