//! Oracle gate for the event-process library over both worlds.
//!
//! The session, re-allocation and drift processes, the scenario runners
//! and the fault layers' crash/restart clock serve both the exact
//! `AcornWorld` (composite scenarios) and the incremental `CityWorld`
//! (city and soak scenarios). The fingerprints below were captured from
//! the implementation that kept one copy of each process per world. Each
//! covers the telemetry snapshot's JSON bytes, every `ReallocRecord`
//! field (floats by bit pattern), the final `NetworkState`, the event
//! count and end time, the executed-event log and, where present, every
//! `ResilienceReport` field — so a moved telemetry write, a reordered
//! world call, a shifted seed or a changed crash schedule fails here.
//! `scripts/ci.sh` runs this file as its own step.

use acorn_core::{AcornConfig, AcornController, NetworkState};
use acorn_events::{
    CompositeScenario, DriftSpec, EventLog, FaultPlan, MobilitySpec, ReallocRecord,
    ResilienceReport, RunStats, TelemetrySnapshot,
};
use acorn_phy::{ChannelWidth, GoodputTable, LinkQualityEstimator};
use acorn_sim::scenario::{city_grid, enterprise_grid};
use acorn_soak::{SoakScenario, WatchdogSpec, WorkloadSpec};
use acorn_topology::{ChannelAssignment, ClientId, Point, Trajectory};
use acorn_traces::{Session, SessionGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bits: u64) {
    *h ^= bits;
    *h = h.wrapping_mul(0x100000001b3);
}

fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    fnv(h, bytes.len() as u64);
    for &b in bytes {
        fnv(h, b as u64);
    }
}

fn code(a: ChannelAssignment) -> u64 {
    match a {
        ChannelAssignment::Single(c) => c.0 as u64,
        ChannelAssignment::Bonded(c) => 0x100 | c.0 as u64,
    }
}

/// Everything one scenario run reports, borrowed from whichever report
/// type produced it.
struct Run<'a> {
    stats: RunStats,
    telemetry: &'a TelemetrySnapshot,
    log: Option<&'a EventLog>,
    realloc: &'a [ReallocRecord],
    final_state: &'a NetworkState,
    resilience: Option<&'a ResilienceReport>,
}

fn fingerprint(r: Run<'_>) -> u64 {
    let mut h = FNV_BASIS;
    fnv(&mut h, r.stats.events);
    fnv(&mut h, r.stats.end_time_s.to_bits());
    fnv_bytes(&mut h, r.telemetry.to_json().as_bytes());
    match r.log {
        Some(log) => {
            fnv(&mut h, log.entries.len() as u64);
            for e in &log.entries {
                fnv(&mut h, e.time_bits);
                fnv(&mut h, e.seq);
                fnv(&mut h, e.target as u64);
                fnv_bytes(&mut h, e.kind.as_bytes());
            }
        }
        None => fnv(&mut h, u64::MAX),
    }
    fnv(&mut h, r.realloc.len() as u64);
    for rec in r.realloc {
        fnv(&mut h, rec.t_s.to_bits());
        fnv(&mut h, rec.active_clients as u64);
        fnv(&mut h, rec.before_bps.to_bits());
        fnv(&mut h, rec.after_bps.to_bits());
        fnv(&mut h, rec.switches as u64);
        fnv(&mut h, rec.degraded as u64);
        fnv(&mut h, rec.down_aps as u64);
    }
    let s = r.final_state;
    for &a in &s.assignments {
        fnv(&mut h, code(a));
    }
    for w in &s.operating_width {
        fnv(&mut h, matches!(w, ChannelWidth::Ht40) as u64);
    }
    for a in &s.assoc {
        fnv(&mut h, a.map(|ap| ap.0 as u64 + 1).unwrap_or(0));
    }
    match r.resilience {
        Some(res) => {
            for n in [
                res.crashes,
                res.restarts,
                res.frames_sent,
                res.frames_lost,
                res.frames_corrupted,
                res.frames_delayed,
                res.parse_errors,
                res.measurement_faults,
                res.outliers_rejected,
                res.csa_orphans,
                res.rescans,
                res.solicits,
                res.safe_mode_epochs,
            ] {
                fnv(&mut h, n);
            }
            for x in [
                res.mean_detection_delay_s,
                res.mean_downtime_s,
                res.faulty_mean_bps,
                res.golden_mean_bps,
                res.throughput_retained,
            ] {
                fnv(&mut h, x.to_bits());
            }
        }
        None => fnv(&mut h, u64::MAX),
    }
    h
}

/// A crash-heavy plan with every message and measurement fault on.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        control_period_s: 20.0,
        ap_mttf_s: Some(300.0),
        ap_mttr_s: 400.0,
        max_crashes: 3,
        loss: 0.15,
        corruption: 0.05,
        delay_prob: 0.1,
        delay_max_s: 35.0,
        meas_nan: 0.03,
        meas_outlier: 0.05,
        meas_freeze: 0.03,
        ..FaultPlan::default()
    }
}

/// Six APs on a 50 m enterprise grid, half an hour of enterprise churn, one
/// walking client and shadowing drift.
fn composite(faults: Option<FaultPlan>) -> CompositeScenario {
    let mut rng = StdRng::seed_from_u64(71);
    let sessions: Vec<Session> = SessionGenerator::enterprise_default().generate(&mut rng, 1800.0);
    let n_clients = sessions.len() + 1;
    let mut wlan = enterprise_grid(3, 2, 50.0, n_clients, 71);
    wlan.pathloss.shadowing_sigma_db = 4.0;
    let mobile = ClientId(n_clients - 1);
    let from = wlan.clients[mobile.0].pos;
    CompositeScenario {
        wlan,
        sessions,
        horizon_s: 1800.0,
        reallocation_period_s: 450.0,
        restarts: 2,
        adapt_widths: true,
        mobility: Some(MobilitySpec {
            client: mobile,
            trajectory: Trajectory {
                from,
                to: Point::new(from.x + 60.0, from.y + 20.0),
                speed_mps: 0.05,
            },
            sample_period_s: 120.0,
        }),
        drift: Some(DriftSpec {
            period_s: 300.0,
            phase_step_rad: 0.04,
        }),
        faults,
        seed: 71,
        record_log: true,
    }
}

fn city(faults: Option<FaultPlan>) -> acorn_events::CityScenario {
    let mut rng = StdRng::seed_from_u64(83);
    let sessions = SessionGenerator {
        arrival_rate_per_s: 16.0 / 300.0,
        durations: acorn_traces::AssociationDurations::default(),
    }
    .generate(&mut rng, 2400.0);
    let mut wlan = city_grid(2, 2, sessions.len().max(1), 83);
    wlan.pathloss.shadowing_sigma_db = 4.0;
    acorn_events::CityScenario {
        wlan,
        sessions,
        horizon_s: 2400.0,
        reallocation_period_s: 600.0,
        restarts: 2,
        candidate_radius_m: 120.0,
        adapt_widths: true,
        drift: Some(DriftSpec {
            period_s: 400.0,
            phase_step_rad: 0.03,
        }),
        faults,
        seed: 83,
        record_log: true,
    }
}

/// A fresh coarse goodput table per run: its hit/miss counters are
/// cumulative, so each run must own one for its telemetry to be a pure
/// function of the scenario.
fn table_ctl() -> AcornController {
    let table = Arc::new(GoodputTable::build(
        LinkQualityEstimator::default(),
        -12.0,
        48.0,
        0.25,
    ));
    AcornController::with_table(AcornConfig::default(), table)
}

fn exact_ctl() -> AcornController {
    AcornController::new(AcornConfig::default())
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: fingerprint {got:#018x} differs from the captured {want:#018x}"
    );
}

macro_rules! run_of {
    ($r:expr) => {
        Run {
            stats: $r.stats,
            telemetry: &$r.telemetry,
            log: $r.log.as_ref(),
            realloc: &$r.realloc,
            final_state: &$r.final_state,
            resilience: $r.resilience.as_ref(),
        }
    };
}

#[test]
fn composite_churn_mobility_drift_matches_the_capture() {
    let r = composite(None).run(&exact_ctl());
    assert!(r.realloc.len() == 3 && r.resilience.is_none());
    check("composite", fingerprint(run_of!(r)), 0x6206_3c75_5c12_d456);
}

#[test]
fn composite_with_faults_matches_the_capture() {
    let r = composite(Some(fault_plan(5))).run(&exact_ctl());
    let res = r.resilience.expect("faults were set");
    assert!(res.crashes > 0 && res.rescans > 0, "{res:?}");
    check(
        "composite+faults",
        fingerprint(run_of!(r)),
        0x62d5_b4e7_c210_fa26,
    );
}

#[test]
fn composite_resilience_twin_matches_the_capture() {
    let r = composite(Some(fault_plan(6))).run_resilience(&exact_ctl());
    let res = r.resilience.expect("faults were set");
    assert!(res.golden_mean_bps > 0.0, "{res:?}");
    check(
        "composite resilience",
        fingerprint(run_of!(r)),
        0xb3fd_178b_c99b_32e8,
    );
}

#[test]
fn city_with_drift_matches_the_capture() {
    let r = city(None).run(&table_ctl());
    assert!(!r.realloc.is_empty() && r.resilience.is_none());
    check("city", fingerprint(run_of!(r)), 0x96cc_8a45_2e8a_acd6);
}

#[test]
fn city_with_faults_matches_the_capture() {
    let r = city(Some(fault_plan(7))).run(&table_ctl());
    let res = r.resilience.expect("faults were set");
    assert!(res.crashes > 0, "{res:?}");
    check(
        "city+faults",
        fingerprint(run_of!(r)),
        0x8fdc_8307_bcea_7ca2,
    );
}

#[test]
fn city_resilience_twin_matches_the_capture() {
    // One table shared by the faulty run and its golden twin, exactly as
    // a caller holding one controller would run it.
    let r = city(Some(fault_plan(8))).run_resilience(&table_ctl());
    let res = r.resilience.expect("faults were set");
    assert!(res.golden_mean_bps > 0.0, "{res:?}");
    check(
        "city resilience",
        fingerprint(run_of!(r)),
        0x072b_f042_2003_e21f,
    );
}

#[test]
fn soak_with_faults_and_watchdog_matches_the_capture() {
    let mut s = SoakScenario::new(city_grid(1, 2, 24, 97), 3000.0, 97);
    s.reallocation_period_s = 600.0;
    s.probe_period_s = 60.0;
    s.drift = Some(DriftSpec {
        period_s: 500.0,
        phase_step_rad: 0.03,
    });
    s.workload = WorkloadSpec {
        base_rate_per_s: 1.0 / 20.0,
        diurnal_amplitude: 0.5,
        day_period_s: 3000.0,
        ..WorkloadSpec::default()
    };
    s.watchdog = Some(WatchdogSpec {
        period_s: 100.0,
        graph_check_every: 3,
        fail_fast: true,
    });
    s.faults = Some(fault_plan(9));
    s.record_log = true;
    let r = s.run_resilience(&exact_ctl());
    assert_eq!(r.violations, 0);
    assert!(r.checks > 0);
    let res = r.resilience.expect("faults were set");
    assert!(res.crashes > 0, "{res:?}");
    check("soak", fingerprint(run_of!(r)), 0x35ad_c0ba_3b8f_d100);
}
