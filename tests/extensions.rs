//! Integration tests for the extension modules: IAPP-driven contention
//! estimation, per-channel scanning, the closed churn loop, and the
//! Bianchi cross-check — each composed with the core ACORN machinery.

use acorn::core::iapp::{IappAgent, IappBus};
use acorn::core::scanning::{HashSounding, ScanningModel};
use acorn::core::{AcornConfig, AcornController, ThroughputModel};
use acorn::mac::{bianchi_solve, saturation_throughput_bps};
use acorn::obs::NullSink;
use acorn::phy::ChannelWidth;
use acorn::sim::{enterprise_grid, run_churn, ChurnConfig};
use acorn::topology::{ApId, ChannelPlan, ClientId};
use acorn::traces::SessionGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn iapp_reproduces_the_controller_access_shares() {
    // Configure a floor with ACORN, then run one IAPP round and check the
    // distributed agents learn the same access shares the controller's
    // genie graph produces.
    let wlan = enterprise_grid(2, 2, 50.0, 8, 21);
    let ctl = AcornController::new(AcornConfig::default());
    let mut state = ctl.new_state(&wlan, 3);
    for c in 0..wlan.clients.len() {
        ctl.associate(&wlan, &mut state, ClientId(c));
    }
    ctl.reallocate(&wlan, &mut state, 4, 5, &NullSink);

    let mut agents: Vec<IappAgent> = (0..wlan.aps.len())
        .map(|i| IappAgent::new(ApId(i)))
        .collect();
    // Decode floor matched to the CS range so IAPP reach == genie reach.
    let cs = wlan.radio.carrier_sense_range_m;
    let floor =
        wlan.radio.tx_power_dbm + wlan.radio.antenna_gains_dbi - wlan.pathloss.median_db(cs);
    let bus = IappBus {
        decode_floor_dbm: floor,
        ..IappBus::new(&wlan)
    };
    let counts: Vec<usize> = (0..wlan.aps.len())
        .map(|i| state.cell_clients(ApId(i)).len())
        .collect();
    bus.round(&mut agents, &state.assignments, &counts, 0.0);

    // Compare against the AP-only genie graph (IAPP frames travel AP→AP;
    // the client-relay edges of footnote 5 need client reports, which the
    // protocol does not carry — a documented fidelity boundary).
    let genie = wlan.ap_only_interference_graph();
    for i in 0..wlan.aps.len() {
        let via_iapp = agents[i].access_share(state.assignments[i]);
        let via_genie = acorn::mac::access_share(&genie, &state.assignments, ApId(i));
        // Shadowing can put a borderline AP pair on opposite sides of the
        // CS-range vs decode-floor cut; allow one step of disagreement.
        let steps = [1.0, 0.5, 1.0 / 3.0, 0.25, 0.2, 1.0 / 6.0];
        let idx = |v: f64| steps.iter().position(|s| (s - v).abs() < 1e-9).unwrap();
        assert!(
            (idx(via_iapp) as i64 - idx(via_genie) as i64).abs() <= 1,
            "AP {i}: iapp {via_iapp} vs genie {via_genie}"
        );
    }
}

#[test]
fn iapp_tracks_channel_switches() {
    let wlan = enterprise_grid(1, 2, 40.0, 0, 9);
    let mut agents: Vec<IappAgent> = (0..2).map(|i| IappAgent::new(ApId(i))).collect();
    let bus = IappBus::new(&wlan);
    let plan = ChannelPlan::full_5ghz();
    let a0: Vec<_> = plan.all_assignments();
    // Round 1: both on the first bond.
    bus.round(&mut agents, &[a0[12], a0[12]], &[0, 0], 0.0);
    assert_eq!(agents[0].contender_count(a0[12]), 1);
    // Round 2: neighbour moves to a disjoint single channel.
    bus.round(&mut agents, &[a0[12], a0[4]], &[0, 0], 1.0);
    assert_eq!(
        agents[0].contender_count(a0[12]),
        0,
        "cache must track the switch"
    );
}

#[test]
fn scanning_model_composes_with_the_controller() {
    // Build the controller's model, wrap it with scanning, and verify
    // allocation over the scanned model is still legal and no worse under
    // the scanned truth than the blind plan.
    let wlan = enterprise_grid(2, 2, 55.0, 8, 31);
    let ctl = AcornController::new(AcornConfig::default());
    let mut state = ctl.new_state(&wlan, 7);
    for c in 0..wlan.clients.len() {
        ctl.associate(&wlan, &mut state, ClientId(c));
    }
    let base = ctl.build_model(&wlan, &state);
    let truth = ScanningModel::new(
        base.clone(),
        HashSounding {
            sigma_db: 2.0,
            seed: 3,
        },
    );

    let plan = ctl.config.plan;
    let cfg = acorn::core::AllocationConfig::default();
    let blind = acorn::core::allocate_with_restarts(&base, &plan, &cfg, 6, 1);
    let aware = acorn::core::allocate_with_restarts(&truth, &plan, &cfg, 6, 1);
    assert!(blind.assignments.iter().all(|a| plan.contains(*a)));
    assert!(aware.assignments.iter().all(|a| plan.contains(*a)));
    assert!(truth.total_bps(&aware.assignments) + 1e-6 >= truth.total_bps(&blind.assignments));
}

#[test]
fn churn_loop_sustains_throughput_over_a_workday() {
    let mut rng = StdRng::seed_from_u64(12);
    let sessions = SessionGenerator::enterprise_default().generate(&mut rng, 6.0 * 3600.0);
    let wlan = enterprise_grid(2, 2, 50.0, sessions.len(), 13);
    let ctl = AcornController::new(AcornConfig::default());
    let report = run_churn(
        &wlan,
        &ctl,
        &sessions,
        &ChurnConfig {
            horizon_s: 6.0 * 3600.0,
            restarts: 2,
            adapt_widths: true,
            ..ChurnConfig::default()
        },
        17,
    );
    assert_eq!(report.snapshots.len(), 11);
    // With steady-state occupancy, the network should be carrying real
    // traffic at most epochs.
    let busy = report
        .snapshots
        .iter()
        .filter(|s| s.after_bps > 10e6)
        .count();
    assert!(busy >= 8, "only {busy}/11 epochs carried >10 Mb/s");
    // And re-allocation never regresses the predicted objective.
    for s in &report.snapshots {
        assert!(s.after_bps + 1.0 >= s.before_bps);
    }
}

#[test]
fn bianchi_brackets_the_m_share_estimate() {
    // The paper's M = 1/n is an optimistic bound on the per-station
    // share; Bianchi (with collisions) sits just below it; both shrink
    // with n.
    for n in [2usize, 3, 4, 6] {
        let m = 1.0 / n as f64;
        let share = {
            let alone = saturation_throughput_bps(1, 1500, 65e6, 0.0, 4);
            saturation_throughput_bps(n, 1500, 65e6, 0.0, 4) / (n as f64 * alone)
        };
        assert!(share < m);
        assert!(share > 0.7 * m, "n={n}: share {share}");
        let pt = bianchi_solve(n);
        assert!(pt.p > 0.0 && pt.p < 1.0);
    }
}

#[test]
fn fading_aware_estimator_composes_with_allocation() {
    // Switching the controller's estimator to the fading-averaged mode
    // must keep the whole pipeline working and produce (weakly) more
    // conservative bonding on borderline cells.
    let wlan = enterprise_grid(2, 2, 55.0, 8, 41);
    let mut faded_cfg = AcornConfig::default();
    faded_cfg.estimator.fading_sigma_db = 3.0;
    for cfg in [AcornConfig::default(), faded_cfg] {
        let ctl = AcornController::new(cfg);
        let mut state = ctl.new_state(&wlan, 5);
        for c in 0..wlan.clients.len() {
            ctl.associate(&wlan, &mut state, ClientId(c));
        }
        let r = ctl.reallocate(&wlan, &mut state, 4, 3, &NullSink);
        assert!(r.total_bps > 0.0);
        assert!(state
            .assignments
            .iter()
            .all(|a| ctl.config.plan.contains(*a)));
    }
}

#[test]
fn sgi_rates_flow_through_the_stack() {
    // Short guard interval raises nominal rates by 10/9 end to end.
    use acorn::phy::estimator::LinkQualityEstimator;
    use acorn::phy::GuardInterval;
    let long = LinkQualityEstimator::default();
    let short = LinkQualityEstimator {
        gi: GuardInterval::Short,
        ..LinkQualityEstimator::default()
    };
    let l = long.best_rate_point(35.0, ChannelWidth::Ht40);
    let s = short.best_rate_point(35.0, ChannelWidth::Ht40);
    assert!((s.goodput_bps / l.goodput_bps - 10.0 / 9.0).abs() < 1e-6);
}

#[test]
fn association_works_over_the_wire() {
    // Serialize every AP's beacon to 802.11 bytes, parse them back, build
    // the candidate set from the *parsed* beacons, and verify Algorithm 1
    // reaches the same decision as the in-memory path — i.e. the wire
    // format carries everything the association algorithm needs.
    use acorn::core::association::{choose_ap, Candidate};
    use acorn::core::wire::{parse_beacon, serialize_beacon};
    use acorn::mac::timing::delivery_delay_s;

    let wlan = enterprise_grid(2, 2, 55.0, 6, 61);
    let ctl = AcornController::new(AcornConfig::default());
    let mut state = ctl.new_state(&wlan, 3);
    for c in 0..4 {
        ctl.associate(&wlan, &mut state, ClientId(c));
    }
    let arriving = ClientId(5);

    // In-memory decision.
    let reference = ctl.candidates_for(&wlan, &state, arriving);
    let expect = choose_ap(&reference).map(|i| reference[i].ap);

    // Over-the-wire decision.
    let mut candidates = Vec::new();
    for (i, b) in ctl.beacons(&wlan, &state).iter().enumerate() {
        let frame = serialize_beacon(b, [i as u8; 6], 1000 + i as u64).unwrap();
        let parsed = parse_beacon(&frame).expect("own frames must parse");
        let snr20 = wlan.snr_db(ApId(i), arriving, ChannelWidth::Ht20);
        if snr20 < ctl.config.association_snr_floor_db {
            continue;
        }
        // The client probes its own delay at the AP's advertised width.
        let est = ctl.config.estimator.estimate(snr20, ChannelWidth::Ht20);
        let point = est.rate_point(parsed.assignment.width());
        let d_u = delivery_delay_s(
            ctl.config.payload_bytes,
            point
                .mcs
                .mcs()
                .rate_bps(parsed.assignment.width(), ctl.config.estimator.gi),
            point.per,
        );
        candidates.push(Candidate {
            ap: parsed.ap,
            k_including_u: parsed.n_clients + 1,
            access_share: parsed.access_share,
            atd_including_u_s: parsed.atd_s + d_u,
            delay_u_s: d_u,
        });
    }
    let got = choose_ap(&candidates).map(|i| candidates[i].ap);
    assert_eq!(got, expect, "wire path must agree with the in-memory path");
}
