//! Continuous fault injection for [`CityScenario`](crate::CityScenario)
//! — the incremental counterpart of [`FaultProcess`](crate::FaultProcess).
//!
//! City mode exists because network-wide recomputation is too expensive
//! per event, and the fault layer keeps that discipline: every reaction
//! is localized. An AP crash touches only its own cell's clients (who
//! detect beacon silence and re-scan through the spatial index), a
//! measurement fault touches one cached SNR entry behind an outlier/NaN
//! gate, and a beacon copy goes through the real `wire` encode →
//! (corrupt) → parse path — so chaos at 1 000 APs costs O(faults), not
//! O(network).
//!
//! The process reports under the same `faults.*` telemetry namespace as
//! the composite fault layer, so
//! [`ResilienceReport`](crate::faults::ResilienceReport) aggregates both
//! scenario classes identically. Differences from the composite layer
//! (documented, not accidental):
//!
//! * No per-client [`ClientTracker`](acorn_core::ClientTracker) — the
//!   city world's measurement state *is* the `client_snr20` cache, so
//!   the NaN/outlier gates live here and write through
//!   [`CityWorld::set_client_snr20`].
//! * No IAPP/CSA machinery — city re-allocation deploys instantly
//!   through the sharded allocator; beacons are the only wire path.
//! * A client whose re-scan finds no live AP stays unassociated until
//!   its session departs (counted in `faults.rescan_failures`); retrying
//!   would risk resurrecting departed clients.
//!
//! Determinism: every draw derives from [`mix_seed`](crate::sim::mix_seed)
//! keyed on the firing event's sequence number plus a stream salt (the
//! same derivation as the composite layer), and all handlers are
//! sequential — bit-identical at any `ACORN_THREADS`.

use crate::acorn::AcornEvent;
use crate::city::CityWorld;
use crate::faults::{FaultPlan, FaultRng, FAULT_GAUNTLET};
use crate::sim::{Ctx, Process};
use crate::telemetry::Histogram;
use acorn_core::{parse_beacon, serialize_beacon, Beacon};
use acorn_obs::RecordingSink;
use acorn_phy::ChannelWidth;
use acorn_topology::{ApId, ClientId};
use std::collections::HashMap;

/// Stream salts (matching the composite fault layer's discipline; crash
/// and measurement streams share the composite's constants so plans
/// transplant between scenario classes without re-tuning).
const SALT_CRASH: u64 = 0x01;
const SALT_MEAS: u64 = 0x02;
const SALT_BEACON: u64 = 0x03;

/// A beacon copy in flight (delayed by the fault layer).
struct DelayedBeacon {
    frame: Vec<u8>,
    ap: usize,
    client: usize,
}

/// The city fault process. Register it *last* on a scenario so the
/// benign event schedule (and therefore every pre-existing golden
/// fingerprint) is untouched when it is absent.
pub struct CityFaultProcess {
    /// The plan.
    pub plan: FaultPlan,
    /// Horizon (s); rounds at or past it never fire.
    pub horizon_s: f64,
    round: u64,
    last_heard_round: Vec<u64>,
    /// The AP each client's liveness clock is bound to; rebinding (any
    /// association change) resets the clock.
    heard_ap: Vec<Option<u32>>,
    pending: HashMap<u32, DelayedBeacon>,
    next_msg_id: u32,
    crash_count: usize,
    down_since: Vec<Option<f64>>,
}

impl CityFaultProcess {
    /// Creates the process for `plan` over a given horizon.
    pub fn new(plan: FaultPlan, horizon_s: f64) -> CityFaultProcess {
        CityFaultProcess {
            plan,
            horizon_s,
            round: 0,
            last_heard_round: Vec::new(),
            heard_ap: Vec::new(),
            pending: HashMap::new(),
            next_msg_id: 0,
            crash_count: 0,
            down_since: Vec::new(),
        }
    }

    fn bssid(ap: usize) -> [u8; 6] {
        let b = ap as u64;
        [
            0x02,
            (b >> 32) as u8,
            (b >> 24) as u8,
            (b >> 16) as u8,
            (b >> 8) as u8,
            b as u8,
        ]
    }

    fn schedule_next_crash(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>, from_s: f64) {
        let Some(mttf) = self.plan.ap_mttf_s else {
            return;
        };
        if self.crash_count >= self.plan.max_crashes {
            return;
        }
        let n_aps = ctx.world.wlan.aps.len();
        if n_aps == 0 {
            return;
        }
        let mut rng = FaultRng::new(self.plan.seed, ctx.event_seq(), SALT_CRASH);
        let t = from_s - mttf * rng.u01_open().ln();
        let ap = (rng.next_u64() % n_aps as u64) as usize;
        if t < self.horizon_s {
            ctx.schedule_at(t, AcornEvent::ApCrash(ap));
        }
    }

    fn handle_crash(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>, ap: usize) {
        if !ctx.world.ap_up[ap] {
            return; // already down
        }
        self.crash_count += 1;
        ctx.world.ap_up[ap] = false;
        self.down_since[ap] = Some(ctx.now());
        ctx.telemetry.inc("faults.crashes");
        ctx.telemetry
            .set_gauge("faults.aps_down", ctx.world.down_count() as f64);
        let restart_at = ctx.now() + self.plan.ap_mttr_s;
        if restart_at < self.horizon_s {
            ctx.schedule_at(restart_at, AcornEvent::ApRestart(ap));
        }
    }

    fn handle_restart(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>, ap: usize) {
        if ctx.world.ap_up[ap] {
            return;
        }
        ctx.world.ap_up[ap] = true;
        if let Some(t0) = self.down_since[ap].take() {
            ctx.telemetry.observe("faults.downtime_s", ctx.now() - t0);
        }
        ctx.telemetry.inc("faults.restarts");
        ctx.telemetry
            .set_gauge("faults.aps_down", ctx.world.down_count() as f64);
        self.schedule_next_crash(ctx, ctx.now());
    }

    /// Delivers one beacon copy: only a frame the real parser decodes
    /// counts as "heard".
    fn deliver_beacon(
        &mut self,
        tel: &mut crate::telemetry::Telemetry,
        frame: &[u8],
        client: usize,
    ) {
        match parse_beacon(frame) {
            Ok(_) => self.last_heard_round[client] = self.round,
            Err(_) => tel.inc("faults.parse_errors"),
        }
    }

    /// Deassociates `client` from its (presumed-dead) AP and re-scans
    /// through the spatial index; dead APs are filtered inside
    /// [`CityWorld::associate_obs`].
    fn rescan(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>, client: usize) {
        let w = &mut *ctx.world;
        w.deassociate(client);
        let sink = RecordingSink::new();
        let found = w.associate_obs(client, &sink).is_some();
        sink.drain_into(ctx.telemetry);
        self.heard_ap[client] = ctx.world.state.assoc[client].map(|a| a.0 as u32);
        self.last_heard_round[client] = self.round;
        ctx.telemetry.inc("faults.rescans");
        if !found {
            ctx.telemetry.inc("faults.rescan_failures");
        }
    }

    /// One control round: measurements → beacons → detection →
    /// throughput sample.
    fn control_round(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        self.round += 1;
        let now = ctx.now();
        let seq = ctx.event_seq();
        let n_aps = ctx.world.wlan.aps.len();
        let n_clients = ctx.world.wlan.clients.len();

        // --- 0. Rebind liveness clocks on association changes (the churn
        // layer moves clients without telling us).
        for c in 0..n_clients {
            let assoc = ctx.world.state.assoc[c].map(|a| a.0 as u32);
            if assoc != self.heard_ap[c] {
                self.heard_ap[c] = assoc;
                self.last_heard_round[c] = self.round;
            }
        }

        // --- 1. Measurements: each live AP re-measures its own clients;
        // the NaN/outlier gates decide what reaches the cached SNRs the
        // beacon delays and the width adaptation read.
        let mut meas_rng = FaultRng::new(self.plan.seed, seq, SALT_MEAS);
        for ap in 0..n_aps {
            if !ctx.world.ap_up[ap] {
                continue; // a dead AP measures nothing
            }
            for i in 0..ctx.world.cell_clients(ap).len() {
                let c = ctx.world.cell_clients(ap)[i] as usize;
                if self.plan.meas_freeze > 0.0 && meas_rng.u01() < self.plan.meas_freeze {
                    continue; // stuck sensor: the cache keeps its last value
                }
                let true_snr = ctx
                    .world
                    .wlan
                    .snr_db(ApId(ap), ClientId(c), ChannelWidth::Ht20);
                let reported = if self.plan.meas_nan > 0.0 && meas_rng.u01() < self.plan.meas_nan {
                    f64::NAN
                } else if self.plan.meas_outlier > 0.0 && meas_rng.u01() < self.plan.meas_outlier {
                    let sign = if meas_rng.next_u64() & 1 == 0 {
                        1.0
                    } else {
                        -1.0
                    };
                    true_snr + sign * self.plan.outlier_db
                } else {
                    true_snr
                };
                if !reported.is_finite() {
                    ctx.telemetry.inc("faults.measurement_faults");
                    continue;
                }
                // Outlier gate: a jump of more than half the injected
                // spike magnitude against the cached value is rejected
                // (shadowing drift moves links by a few dB per step; a
                // 25 dB spike is physically implausible between rounds).
                let cached = ctx.world.client_snr20_cached(c);
                if cached.is_finite() && (reported - cached).abs() > 0.5 * self.plan.outlier_db {
                    ctx.telemetry.inc("faults.outliers_rejected");
                    continue;
                }
                ctx.world.set_client_snr20(c, reported);
            }
        }

        // --- 2. Beacons: each live AP serializes ONE frame; every client
        // in its cell gets an independent copy through the gauntlet.
        let mut beacon_rng = FaultRng::new(self.plan.seed, seq, SALT_BEACON);
        for ap in 0..n_aps {
            if !ctx.world.ap_up[ap] {
                continue;
            }
            if ctx.world.cell_clients(ap).is_empty() {
                continue;
            }
            let w = &*ctx.world;
            let width = w.state.operating_width[ap];
            let clients: Vec<usize> = w.cell_clients(ap).iter().map(|&c| c as usize).collect();
            let delays: Vec<f64> = clients
                .iter()
                .map(|&c| w.ctl.delay_from_snr(w.client_snr20_cached(c), width))
                .collect();
            let beacon = Beacon {
                ap: ApId(ap),
                assignment: w.state.effective_assignment(ApId(ap)),
                n_clients: clients.len(),
                atd_s: delays.iter().sum(),
                client_delays_s: delays,
                access_share: w.access_share_up(ap),
            };
            let Ok(frame) = serialize_beacon(&beacon, Self::bssid(ap), self.round) else {
                continue; // cell too large for one IE: skip this round
            };
            for c in clients {
                match self
                    .plan
                    .roll_copy(ctx.telemetry, &mut beacon_rng, &frame, &FAULT_GAUNTLET)
                {
                    None => {}
                    Some((f, Some(dt))) => {
                        let id = self.next_msg_id;
                        self.next_msg_id = self.next_msg_id.wrapping_add(1);
                        self.pending.insert(
                            id,
                            DelayedBeacon {
                                frame: f,
                                ap,
                                client: c,
                            },
                        );
                        ctx.schedule_after(dt, AcornEvent::DeliverMsg(id));
                    }
                    Some((f, None)) => self.deliver_beacon(ctx.telemetry, &f, c),
                }
            }
        }

        // --- 3. Detection: miss_limit rounds of beacon silence and the
        // client declares its AP dead and re-scans.
        for c in 0..n_clients {
            if ctx.world.state.assoc[c].is_none() {
                continue;
            }
            let silent_rounds = self.round.saturating_sub(self.last_heard_round[c]);
            if silent_rounds > self.plan.miss_limit {
                ctx.telemetry.observe(
                    "faults.detection_delay_s",
                    silent_rounds as f64 * self.plan.control_period_s,
                );
                self.rescan(ctx, c);
            }
        }

        // --- 4. Per-round live-network throughput.
        let bps = ctx.world.network_bps_up();
        ctx.telemetry.record("resilience.network_bps", now, bps);

        let next = now + self.plan.control_period_s;
        if next < self.horizon_s {
            ctx.schedule_at(next, AcornEvent::ControlRound);
        }
    }
}

impl Process<CityWorld, AcornEvent> for CityFaultProcess {
    fn start(&mut self, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        let n_aps = ctx.world.wlan.aps.len();
        let n_clients = ctx.world.wlan.clients.len();
        self.last_heard_round = vec![0; n_clients];
        self.heard_ap = vec![None; n_clients];
        self.down_since = vec![None; n_aps];
        ctx.telemetry.register_histogram(
            "faults.detection_delay_s",
            Histogram::linear(0.0, 600.0, 60).expect("static histogram bounds"),
        );
        ctx.telemetry.register_histogram(
            "faults.downtime_s",
            Histogram::linear(0.0, 1200.0, 60).expect("static histogram bounds"),
        );
        if self.plan.control_period_s < self.horizon_s {
            ctx.schedule_at(self.plan.control_period_s, AcornEvent::ControlRound);
        }
        self.schedule_next_crash(ctx, 0.0);
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, CityWorld, AcornEvent>) {
        match *event {
            AcornEvent::ControlRound => self.control_round(ctx),
            AcornEvent::ApCrash(ap) => self.handle_crash(ctx, ap),
            AcornEvent::ApRestart(ap) => self.handle_restart(ctx, ap),
            AcornEvent::DeliverMsg(id) => {
                if let Some(d) = self.pending.remove(&id) {
                    // Late beacons still prove liveness — if the client
                    // is still bound to the sender.
                    if ctx.world.state.assoc[d.client] == Some(ApId(d.ap)) {
                        self.deliver_beacon(ctx.telemetry, &d.frame, d.client);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::city::CityScenario;
    use crate::DriftSpec;
    use acorn_core::{AcornConfig, AcornController};
    use acorn_topology::{Point, Wlan};
    use acorn_traces::Session;

    fn wlan() -> Wlan {
        let mut w = Wlan::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(50.0, 0.0),
                Point::new(400.0, 0.0),
                Point::new(450.0, 0.0),
            ],
            vec![
                Point::new(10.0, 5.0),
                Point::new(40.0, -5.0),
                Point::new(410.0, 5.0),
                Point::new(440.0, -5.0),
                Point::new(25.0, 10.0),
                Point::new(425.0, 10.0),
            ],
            17,
        );
        w.pathloss.shadowing_sigma_db = 0.0;
        w
    }

    fn scenario(faults: Option<FaultPlan>) -> CityScenario {
        CityScenario {
            wlan: wlan(),
            sessions: (0..6)
                .map(|c| Session {
                    client: c,
                    start_s: 5.0 + 10.0 * c as f64,
                    duration_s: 2000.0,
                })
                .collect(),
            horizon_s: 1800.0,
            reallocation_period_s: 300.0,
            restarts: 1,
            candidate_radius_m: 120.0,
            adapt_widths: true,
            drift: Some(DriftSpec {
                period_s: 250.0,
                phase_step_rad: 0.05,
            }),
            faults,
            seed: 11,
            record_log: false,
        }
    }

    #[test]
    fn city_crash_is_detected_and_clients_rescan() {
        let ctl = AcornController::new(AcornConfig::default());
        let plan = FaultPlan {
            seed: 5,
            ap_mttf_s: Some(100.0),
            ap_mttr_s: 400.0,
            max_crashes: 1,
            ..FaultPlan::default()
        };
        let r = scenario(Some(plan)).run(&ctl);
        let res = r.resilience.expect("faults were set");
        assert_eq!(res.crashes, 1);
        assert!(res.rescans > 0, "silence detection never fired");
        // Every client that survived the crash sits on a live AP at the
        // end (sessions outlive the horizon, so all 6 stay active).
        assert!(res.frames_sent > 0);
    }

    #[test]
    fn city_faults_are_deterministic() {
        let ctl = AcornController::new(AcornConfig::default());
        let plan = FaultPlan {
            seed: 5,
            ap_mttf_s: Some(300.0),
            loss: 0.1,
            corruption: 0.05,
            delay_prob: 0.1,
            delay_max_s: 15.0,
            meas_nan: 0.02,
            meas_outlier: 0.05,
            meas_freeze: 0.02,
            ..FaultPlan::default()
        };
        let a = scenario(Some(plan)).run(&ctl);
        let b = scenario(Some(plan)).run(&ctl);
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(a.final_state, b.final_state);
    }

    #[test]
    fn benign_city_plan_changes_nothing_structural() {
        let ctl = AcornController::new(AcornConfig::default());
        let plan = FaultPlan {
            seed: 5,
            ..FaultPlan::default()
        };
        let r = scenario(Some(plan)).run(&ctl);
        let res = r.resilience.expect("faults were set");
        assert_eq!(res.crashes, 0);
        assert_eq!(res.frames_lost, 0);
        assert_eq!(res.parse_errors, 0);
        assert_eq!(res.safe_mode_epochs, 0);
        assert!(res.frames_sent > 0, "benign plans still run the wire path");
    }

    #[test]
    fn city_resilience_twin_fills_retention() {
        let ctl = AcornController::new(AcornConfig::default());
        let plan = FaultPlan {
            seed: 5,
            ap_mttf_s: Some(200.0),
            ap_mttr_s: 300.0,
            loss: 0.05,
            ..FaultPlan::default()
        };
        let r = scenario(Some(plan)).run_resilience(&ctl);
        let res = r.resilience.expect("faults were set");
        assert!(res.golden_mean_bps > 0.0);
        assert!(res.throughput_retained > 0.0 && res.throughput_retained <= 1.5);
    }
}
