//! Deterministic fault injection for ACORN scenarios.
//!
//! The robustness layer: a [`FaultProcess`] drives a periodic *control
//! round* over an [`AcornWorld`] that exercises
//! the real control-plane machinery — beacons and IAPP announcements go
//! through the actual `wire` encode → (corrupt) → parse path, SNR
//! measurements feed real [`ClientTracker`]s, channel switches ride the
//! real CSA state machines — while injecting seeded faults:
//!
//! * **AP crash/restart** — exponential inter-failure times (MTTF) with a
//!   fixed repair time (MTTR). A down AP stops beaconing and announcing;
//!   its clients detect the silence, deassociate, and re-scan.
//! * **Control-message faults** — per-copy loss, delay (reordering falls
//!   out naturally), and bit corruption. Corrupted frames reach the
//!   parser and must fail *typed* (`BadFcs`, never a panic).
//! * **Measurement faults** — NaN readings, ±outlier spikes, and frozen
//!   (stuck-sensor) SNR feeds into the per-client trackers; the
//!   staleness/outlier gates decide what reaches the advertised delays.
//!
//! Every random draw derives from [`mix_seed`] keyed on the firing
//! event's sequence number plus a stream salt, so a scenario is
//! bit-identical at any `ACORN_THREADS` — the same contract as the rest
//! of the runtime.

use crate::acorn::{AcornEvent, AcornWorld};
use crate::sim::{mix_seed, Ctx, Process};
use crate::telemetry::{Histogram, Telemetry};
use acorn_core::csa::CsaAction;
use acorn_core::iapp::IappAgent;
use acorn_core::{
    parse_announcement, parse_beacon, serialize_announcement, serialize_beacon, switch_plans,
    ApCsa, Beacon, ClientCsa, ClientTracker, ControlError, TrackerConfig,
};
use acorn_obs::{names, RecordingSink};
use acorn_phy::ChannelWidth;
use acorn_topology::{ApId, ChannelAssignment, ClientId};
use serde::Serialize;
use std::collections::HashMap;

/// Stream salts: each fault decision draws from its own independent
/// splitmix64 stream keyed `(plan.seed, event_seq, salt, counter)`.
const SALT_CRASH: u64 = 0x01;
const SALT_MEAS: u64 = 0x02;
const SALT_BEACON: u64 = 0x03;
const SALT_IAPP: u64 = 0x04;

/// What faults to inject, and how hard. `Default` is fully benign (no
/// crashes, no message faults, no measurement faults) — useful as the
/// golden twin of a faulty plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault stream.
    pub seed: u64,
    /// Control-round period (s): beacons, IAPP announcements, measurement
    /// reports, CSA ticks, and failure detection all advance once per
    /// round.
    pub control_period_s: f64,
    /// Mean time to failure for AP crashes (s); `None` disables crashes.
    pub ap_mttf_s: Option<f64>,
    /// Repair time after a crash (s).
    pub ap_mttr_s: f64,
    /// Hard cap on the number of crashes injected over the run.
    pub max_crashes: usize,
    /// Per-copy control-message loss probability in `[0, 1)`.
    pub loss: f64,
    /// Per-copy bit-corruption probability in `[0, 1)` (1–3 seeded bit
    /// flips; the FCS must catch them as typed parse errors).
    pub corruption: f64,
    /// Per-copy delay probability in `[0, 1)`.
    pub delay_prob: f64,
    /// Maximum injected delay (s); the actual delay is uniform in
    /// `(0, delay_max_s]`, so delayed copies can reorder across rounds.
    pub delay_max_s: f64,
    /// Per-sample probability of a NaN SNR reading.
    pub meas_nan: f64,
    /// Per-sample probability of a ±outlier spike.
    pub meas_outlier: f64,
    /// Outlier spike magnitude (dB).
    pub outlier_db: f64,
    /// Per-sample probability the sensor is frozen (no fresh reading this
    /// round — drives the staleness gate).
    pub meas_freeze: f64,
    /// CSA countdown (beacon rounds) used when deploying switches.
    pub csa_countdown: u8,
    /// Rounds of beacon silence before a client declares its AP dead.
    pub miss_limit: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            control_period_s: 10.0,
            ap_mttf_s: None,
            ap_mttr_s: 60.0,
            max_crashes: 1,
            loss: 0.0,
            corruption: 0.0,
            delay_prob: 0.0,
            delay_max_s: 0.0,
            meas_nan: 0.0,
            meas_outlier: 0.0,
            outlier_db: 25.0,
            meas_freeze: 0.0,
            csa_countdown: 4,
            miss_limit: 3,
        }
    }
}

impl FaultPlan {
    /// The fault-free twin of this plan: same seed, cadence, and
    /// detection thresholds, but nothing ever goes wrong. Running it
    /// yields the golden baseline a [`ResilienceReport`] compares
    /// against.
    pub fn benign_twin(&self) -> FaultPlan {
        FaultPlan {
            seed: self.seed,
            control_period_s: self.control_period_s,
            csa_countdown: self.csa_countdown,
            miss_limit: self.miss_limit,
            ..FaultPlan::default()
        }
    }

    /// Whether this plan injects any fault at all.
    pub fn is_benign(&self) -> bool {
        self.ap_mttf_s.is_none()
            && self.loss == 0.0
            && self.corruption == 0.0
            && self.delay_prob == 0.0
            && self.meas_nan == 0.0
            && self.meas_outlier == 0.0
            && self.meas_freeze == 0.0
    }

    /// Rolls the per-copy message-fault gauntlet. Returns `None` if the
    /// copy is lost, `Some((frame, Some(dt)))` if it is delayed by `dt`,
    /// and `Some((frame, None))` for immediate delivery. Corruption
    /// mutates the frame (and breaks its FCS — deliberately *not*
    /// repaired). Counters are reported under `counters`' names, so the
    /// AP control round and the distributed control plane share one
    /// pipeline with distinct namespaces.
    pub fn roll_copy(
        &self,
        tel: &mut Telemetry,
        rng: &mut FaultRng,
        frame: &[u8],
        counters: &GauntletCounters,
    ) -> Option<(Vec<u8>, Option<f64>)> {
        tel.inc(counters.sent);
        if self.loss > 0.0 && rng.u01() < self.loss {
            tel.inc(counters.lost);
            return None;
        }
        let mut frame = frame.to_vec();
        if self.corruption > 0.0 && rng.u01() < self.corruption {
            tel.inc(counters.corrupted);
            corrupt_frame(&mut frame, rng);
        }
        if self.delay_prob > 0.0 && rng.u01() < self.delay_prob {
            tel.inc(counters.delayed);
            let dt = rng.u01_open() * self.delay_max_s;
            return Some((frame, Some(dt)));
        }
        Some((frame, None))
    }
}

/// What a faulty run did to the network, aggregated from telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ResilienceReport {
    /// AP crashes injected.
    pub crashes: u64,
    /// AP restarts completed.
    pub restarts: u64,
    /// Control frames (beacon + IAPP copies) sent.
    pub frames_sent: u64,
    /// Copies dropped by the loss process.
    pub frames_lost: u64,
    /// Copies bit-corrupted before delivery.
    pub frames_corrupted: u64,
    /// Copies delivered late.
    pub frames_delayed: u64,
    /// Delivered frames the parser rejected (all typed errors).
    pub parse_errors: u64,
    /// Non-finite measurement reports rejected by the trackers.
    pub measurement_faults: u64,
    /// Outlier samples the trackers' median gate rejected.
    pub outliers_rejected: u64,
    /// Clients orphaned mid-CSA-countdown by a dead AP.
    pub csa_orphans: u64,
    /// Re-scans (deassociate + re-associate) triggered by detection.
    pub rescans: u64,
    /// IAPP hold-down solicitations issued.
    pub solicits: u64,
    /// Re-allocation epochs the controller ran in safe mode.
    pub safe_mode_epochs: u64,
    /// Mean time from an AP's last heard beacon to its clients declaring
    /// it dead (s); 0 when nothing was detected.
    pub mean_detection_delay_s: f64,
    /// Mean AP downtime per crash (s); 0 when nothing crashed.
    pub mean_downtime_s: f64,
    /// Mean of the per-round network throughput series (bits/s).
    pub faulty_mean_bps: f64,
    /// Same mean for the fault-free golden twin (bits/s); 0 until
    /// [`CompositeScenario::run_resilience`](crate::acorn::CompositeScenario::run_resilience)
    /// fills it in.
    pub golden_mean_bps: f64,
    /// `faulty_mean_bps / golden_mean_bps` (0 until the golden twin ran).
    pub throughput_retained: f64,
}

impl ResilienceReport {
    /// Aggregates the fault-layer telemetry of one run. The golden
    /// comparison fields stay zero until a golden twin fills them.
    pub fn from_telemetry(tel: &Telemetry) -> ResilienceReport {
        let hist_mean = |n: &str| tel.histogram(n).and_then(|h| h.mean()).unwrap_or(0.0);
        let series_mean = |n: &str| {
            tel.series(n)
                .filter(|s| !s.values.is_empty())
                .map(|s| s.values.iter().sum::<f64>() / s.values.len() as f64)
                .unwrap_or(0.0)
        };
        ResilienceReport {
            crashes: tel.counter("faults.crashes"),
            restarts: tel.counter("faults.restarts"),
            frames_sent: tel.counter("faults.frames_sent"),
            frames_lost: tel.counter("faults.frames_lost"),
            frames_corrupted: tel.counter("faults.frames_corrupted"),
            frames_delayed: tel.counter("faults.frames_delayed"),
            parse_errors: tel.counter("faults.parse_errors"),
            measurement_faults: tel.counter("faults.measurement_faults"),
            outliers_rejected: tel.counter("faults.outliers_rejected"),
            csa_orphans: tel.counter("faults.csa_orphans"),
            rescans: tel.counter("faults.rescans"),
            solicits: tel.counter("faults.solicits"),
            safe_mode_epochs: tel.counter(names::CONTROLLER_SAFE_MODE_EPOCHS),
            mean_detection_delay_s: hist_mean("faults.detection_delay_s"),
            mean_downtime_s: hist_mean("faults.downtime_s"),
            faulty_mean_bps: series_mean("resilience.network_bps"),
            golden_mean_bps: 0.0,
            throughput_retained: 0.0,
        }
    }
}

/// One independent fault stream: successive draws are
/// `mix_seed(mix_seed(seed, key), 0..)`.
///
/// Public so that other fault-routed layers (the distributed control
/// plane in `acorn-ctrlplane`) can key their own per-frame streams off
/// [`mix_seed`] with the same derivation discipline.
pub struct FaultRng {
    base: u64,
    n: u64,
}

impl FaultRng {
    /// A stream keyed `(seed, key, salt)` — typically the plan seed, the
    /// firing event's sequence number (or a frame id), and a stream salt.
    pub fn new(seed: u64, key: u64, salt: u64) -> FaultRng {
        FaultRng {
            base: mix_seed(mix_seed(seed, key), salt),
            n: 0,
        }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let x = mix_seed(self.base, self.n);
        self.n += 1;
        x
    }

    /// Uniform in `[0, 1)`.
    pub fn u01(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `(0, 1]` — safe under `ln`.
    pub fn u01_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Flips 1–3 seeded bits somewhere in the frame — the corruption model
/// every fault-routed message path shares. The FCS is deliberately *not*
/// repaired: parsers must catch the damage as a typed error.
pub fn corrupt_frame(frame: &mut [u8], rng: &mut FaultRng) {
    let bits = frame.len() * 8;
    if bits == 0 {
        return;
    }
    let flips = 1 + (rng.next_u64() % 3) as usize;
    for _ in 0..flips {
        let pos = (rng.next_u64() % bits as u64) as usize;
        frame[pos / 8] ^= 1 << (pos % 8);
    }
}

/// The counter names a message gauntlet reports under. The AP control
/// round uses the historical `faults.*` set; the distributed control
/// plane reports the same physical pipeline under `ctrl.frames.*`.
#[derive(Debug, Clone, Copy)]
pub struct GauntletCounters {
    /// Copies pushed through the gauntlet.
    pub sent: &'static str,
    /// Copies dropped by the loss process.
    pub lost: &'static str,
    /// Copies bit-corrupted in flight.
    pub corrupted: &'static str,
    /// Copies delivered late.
    pub delayed: &'static str,
}

/// The `faults.*` counter set the AP control round reports under.
pub const FAULT_GAUNTLET: GauntletCounters = GauntletCounters {
    sent: "faults.frames_sent",
    lost: "faults.frames_lost",
    corrupted: "faults.frames_corrupted",
    delayed: "faults.frames_delayed",
};

/// A frame copy in flight (delayed by the fault layer).
enum Delivery {
    /// A beacon copy addressed to one client of `ap`.
    Beacon {
        frame: Vec<u8>,
        ap: usize,
        client: usize,
    },
    /// An IAPP announcement copy addressed to AP `to`.
    Iapp {
        frame: Vec<u8>,
        to: usize,
        rx_dbm: f64,
    },
}

/// The fault-injection process. Register it *last* on a scenario so the
/// benign event schedule (and therefore every pre-existing golden
/// fingerprint) is untouched when it is absent.
pub struct FaultProcess {
    /// The plan.
    pub plan: FaultPlan,
    /// Horizon (s); rounds at or past it never fire.
    pub horizon_s: f64,
    round: u64,
    agents: Vec<IappAgent>,
    ap_csa: Vec<ApCsa>,
    client_csa: Vec<ClientCsa>,
    trackers: Vec<Option<ClientTracker>>,
    tracker_ap: Vec<Option<ApId>>,
    last_heard_round: Vec<u64>,
    last_assignments: Vec<ChannelAssignment>,
    pending: HashMap<u32, Delivery>,
    next_msg_id: u32,
    crash_count: usize,
    down_since: Vec<Option<f64>>,
}

impl FaultProcess {
    /// Creates the process for `plan` over a given horizon.
    pub fn new(plan: FaultPlan, horizon_s: f64) -> FaultProcess {
        FaultProcess {
            plan,
            horizon_s,
            round: 0,
            agents: Vec::new(),
            ap_csa: Vec::new(),
            client_csa: Vec::new(),
            trackers: Vec::new(),
            tracker_ap: Vec::new(),
            last_heard_round: Vec::new(),
            last_assignments: Vec::new(),
            pending: HashMap::new(),
            next_msg_id: 0,
            crash_count: 0,
            down_since: Vec::new(),
        }
    }

    fn bssid(ap: usize) -> [u8; 6] {
        let b = ap as u64;
        [
            0x02, // locally administered
            (b >> 32) as u8,
            (b >> 24) as u8,
            (b >> 16) as u8,
            (b >> 8) as u8,
            b as u8,
        ]
    }

    /// The per-copy gauntlet under the historical `faults.*` names.
    fn roll_copy(
        &self,
        tel: &mut Telemetry,
        rng: &mut FaultRng,
        frame: &[u8],
    ) -> Option<(Vec<u8>, Option<f64>)> {
        self.plan.roll_copy(tel, rng, frame, &FAULT_GAUNTLET)
    }

    fn queue_delayed(
        &mut self,
        ctx: &mut Ctx<'_, AcornWorld, AcornEvent>,
        dt: f64,
        delivery: Delivery,
    ) {
        let id = self.next_msg_id;
        self.next_msg_id = self.next_msg_id.wrapping_add(1);
        self.pending.insert(id, delivery);
        ctx.schedule_after(dt, AcornEvent::DeliverMsg(id));
    }

    /// Delivers one beacon copy to a client: the frame goes through the
    /// real parser; only a decodable frame counts as "heard".
    fn deliver_beacon(
        &mut self,
        tel: &mut Telemetry,
        frame: &[u8],
        ap: usize,
        client: usize,
        announce: Option<(ChannelAssignment, u8)>,
    ) {
        match parse_beacon(frame) {
            Ok(_) => {
                self.last_heard_round[client] = self.round;
                self.client_csa[client].note_heard(self.round);
                if let Some((to, remaining)) = announce {
                    self.client_csa[client].on_announcement(to, remaining, self.round);
                }
                let _ = ap;
            }
            Err(_) => tel.inc("faults.parse_errors"),
        }
    }

    /// Delivers one IAPP announcement copy to an AP's agent.
    fn deliver_iapp(
        &mut self,
        tel: &mut Telemetry,
        frame: &[u8],
        to: usize,
        rx_dbm: f64,
        now: f64,
    ) {
        match parse_announcement(frame) {
            Ok(a) => self.agents[to].handle(&a, rx_dbm, now),
            Err(_) => tel.inc("faults.parse_errors"),
        }
    }

    /// Deassociates `client` and immediately re-scans for a live AP.
    fn rescan(&mut self, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>, client: usize) {
        let w = &mut *ctx.world;
        w.state.assoc[client] = None;
        let mut candidates = w.ctl.candidates_for(&w.wlan, &w.state, ClientId(client));
        candidates.retain(|c| w.ap_up[c.ap.0]);
        let sink = RecordingSink::new();
        if let Some(i) = acorn_core::choose_ap_obs(&candidates, &sink) {
            w.state.assoc[client] = Some(candidates[i].ap);
        }
        sink.drain_into(ctx.telemetry);
        self.client_csa[client] = ClientCsa::default();
        self.trackers[client] = None;
        self.tracker_ap[client] = w.state.assoc[client];
        self.last_heard_round[client] = self.round;
        ctx.telemetry.inc("faults.rescans");
    }

    fn schedule_next_crash(&mut self, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>, from_s: f64) {
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

    fn handle_crash(&mut self, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>, ap: usize) {
        if !ctx.world.ap_up[ap] {
            return; // already down
        }
        self.crash_count += 1;
        ctx.world.ap_up[ap] = false;
        self.down_since[ap] = Some(ctx.now());
        // The dead AP forgets its own control-plane state: a restarted AP
        // comes back cold.
        self.ap_csa[ap] = ApCsa::default();
        self.agents[ap] = self.fresh_agent(ap);
        ctx.telemetry.inc("faults.crashes");
        ctx.telemetry
            .set_gauge("faults.aps_down", ctx.world.down_count() as f64);
        let restart_at = ctx.now() + self.plan.ap_mttr_s;
        if restart_at < self.horizon_s {
            ctx.schedule_at(restart_at, AcornEvent::ApRestart(ap));
        }
    }

    fn handle_restart(&mut self, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>, ap: usize) {
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

    fn fresh_agent(&self, ap: usize) -> IappAgent {
        let mut a = IappAgent::new(ApId(ap));
        // Cache lifetimes track the control cadence: ~2.5 rounds of
        // silence expire an entry into hold-down, retries start one round
        // later.
        a.expiry_s = 2.5 * self.plan.control_period_s;
        a.hold_down_s = 2.5 * self.plan.control_period_s;
        a.retry_backoff_s = self.plan.control_period_s;
        a
    }

    /// One control round: measurements → beacons (+CSA) → IAPP →
    /// detection → throughput sample.
    fn control_round(&mut self, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        self.round += 1;
        let now = ctx.now();
        let seq = ctx.event_seq();
        let n_aps = ctx.world.wlan.aps.len();
        let n_clients = ctx.world.wlan.clients.len();

        // --- 0. Track association changes: (re)bind trackers/CSA state.
        for c in 0..n_clients {
            let assoc = ctx.world.state.assoc[c];
            if assoc != self.tracker_ap[c] {
                self.tracker_ap[c] = assoc;
                self.trackers[c] = None;
                self.client_csa[c] = ClientCsa::default();
                self.last_heard_round[c] = self.round;
            }
        }

        // --- 1. Deploy new channel switches over CSA.
        if let Ok(plans) = switch_plans(&self.last_assignments, &ctx.world.state.assignments) {
            for p in &plans {
                if ctx.world.ap_up[p.ap.0]
                    && self.ap_csa[p.ap.0]
                        .schedule(p.to, self.plan.csa_countdown)
                        .is_ok()
                {
                    ctx.telemetry.inc(names::CSA_SCHEDULED);
                }
            }
        }
        self.last_assignments = ctx.world.state.assignments.clone();

        // Tick the AP-side countdowns (live APs only — a dead AP's
        // countdown dies with it).
        let mut round_announce: Vec<Option<(ChannelAssignment, u8)>> = vec![None; n_aps];
        for ap in 0..n_aps {
            if !ctx.world.ap_up[ap] {
                continue;
            }
            match self.ap_csa[ap].tick() {
                CsaAction::Announce { to, remaining } => {
                    ctx.telemetry.inc(names::CSA_ANNOUNCED);
                    round_announce[ap] = Some((to, remaining));
                }
                CsaAction::SwitchNow(_) => ctx.telemetry.inc(names::CSA_SWITCHED),
                CsaAction::Idle => {}
            }
        }

        // --- 2. Measurements: the AP-side driver reports each associated
        // client's SNR into its tracker, through the fault gauntlet.
        let mut meas_rng = FaultRng::new(self.plan.seed, seq, SALT_MEAS);
        for c in 0..n_clients {
            let Some(ap) = ctx.world.state.assoc[c] else {
                continue;
            };
            if !ctx.world.ap_up[ap.0] {
                continue; // a dead AP measures nothing
            }
            if self.plan.meas_freeze > 0.0 && meas_rng.u01() < self.plan.meas_freeze {
                continue; // stuck sensor: no fresh sample, staleness grows
            }
            let true_snr = ctx.world.wlan.snr_db(ap, ClientId(c), ChannelWidth::Ht20);
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
            let tracker = self.trackers[c].get_or_insert_with(|| {
                ClientTracker::new(TrackerConfig::default(), now)
                    .unwrap_or_else(|_| unreachable!("default tracker config is valid"))
            });
            match tracker.observe_snr(reported, now) {
                Ok(true) => {}
                Ok(false) => ctx.telemetry.inc("faults.outliers_rejected"),
                Err(ControlError::NonFiniteMeasurement(_)) => {
                    ctx.telemetry.inc("faults.measurement_faults")
                }
                Err(_) => ctx.telemetry.inc("faults.measurement_faults"),
            }
        }

        // --- 3. Beacons: each live AP serializes ONE frame, every
        // associated client gets an independent copy through the gauntlet.
        let mut beacon_rng = FaultRng::new(self.plan.seed, seq, SALT_BEACON);
        for ap in 0..n_aps {
            if !ctx.world.ap_up[ap] {
                continue;
            }
            let clients = ctx.world.state.cell_clients(ApId(ap));
            if clients.is_empty() {
                continue;
            }
            let width = ctx.world.state.operating_width[ap];
            let delays: Vec<f64> = clients
                .iter()
                .map(|c| match &self.trackers[c.0] {
                    Some(t) => ctx.world.ctl.tracked_delay_s(t, now, width),
                    None => f64::INFINITY, // no confirmed sample yet
                })
                .collect();
            let beacon = Beacon {
                ap: ApId(ap),
                assignment: ctx.world.state.effective_assignment(ApId(ap)),
                n_clients: clients.len(),
                atd_s: delays.iter().sum(),
                client_delays_s: delays,
                access_share: self.agents[ap]
                    .access_share(ctx.world.state.effective_assignment(ApId(ap))),
            };
            let Ok(frame) = serialize_beacon(&beacon, Self::bssid(ap), self.round) else {
                continue; // cell too large for one IE: skip this round
            };
            for c in clients {
                match self.roll_copy(ctx.telemetry, &mut beacon_rng, &frame) {
                    None => {}
                    Some((f, Some(dt))) => self.queue_delayed(
                        ctx,
                        dt,
                        Delivery::Beacon {
                            frame: f,
                            ap,
                            client: c.0,
                        },
                    ),
                    Some((f, None)) => {
                        self.deliver_beacon(ctx.telemetry, &f, ap, c.0, round_announce[ap])
                    }
                }
            }
        }

        // --- 4. IAPP: live APs announce to every live AP in decode
        // range; the caches then age, and hold-down entries re-solicit.
        let mut iapp_rng = FaultRng::new(self.plan.seed, seq, SALT_IAPP);
        let decode_floor_dbm = -85.0;
        for ap in 0..n_aps {
            if !ctx.world.ap_up[ap] {
                continue;
            }
            let eff = ctx.world.state.effective_assignment(ApId(ap));
            let n_cl = ctx.world.state.cell_clients(ApId(ap)).len();
            let ann = self.agents[ap].announce(eff, n_cl, now);
            let frame = serialize_announcement(&ann, Self::bssid(ap));
            for to in 0..n_aps {
                if to == ap || !ctx.world.ap_up[to] {
                    continue;
                }
                let rx = ctx.world.wlan.ap_to_ap_rx_dbm(ApId(ap), ApId(to));
                if rx < decode_floor_dbm {
                    continue;
                }
                match self.roll_copy(ctx.telemetry, &mut iapp_rng, &frame) {
                    None => {}
                    Some((f, Some(dt))) => self.queue_delayed(
                        ctx,
                        dt,
                        Delivery::Iapp {
                            frame: f,
                            to,
                            rx_dbm: rx,
                        },
                    ),
                    Some((f, None)) => self.deliver_iapp(ctx.telemetry, &f, to, rx, now),
                }
            }
        }
        for ap in 0..n_aps {
            if !ctx.world.ap_up[ap] {
                continue;
            }
            self.agents[ap].prune(now);
            let held = self.agents[ap].held_down().len() as u64;
            if held > 0 {
                ctx.telemetry.add(names::IAPP_HOLD_DOWNS, held);
            }
            for target in self.agents[ap].due_solicits(now) {
                ctx.telemetry.inc("faults.solicits");
                if !ctx.world.ap_up[target.0] {
                    continue; // genuinely dead: the hold-down will lapse
                }
                // The probed neighbour answers with a fresh unicast
                // announcement, through the same gauntlet.
                let eff = ctx.world.state.effective_assignment(target);
                let n_cl = ctx.world.state.cell_clients(target).len();
                let reply = self.agents[target.0].announce(eff, n_cl, now);
                let frame = serialize_announcement(&reply, Self::bssid(target.0));
                let rx = ctx.world.wlan.ap_to_ap_rx_dbm(target, ApId(ap));
                match self.roll_copy(ctx.telemetry, &mut iapp_rng, &frame) {
                    None => {}
                    Some((f, Some(dt))) => self.queue_delayed(
                        ctx,
                        dt,
                        Delivery::Iapp {
                            frame: f,
                            to: ap,
                            rx_dbm: rx,
                        },
                    ),
                    Some((f, None)) => self.deliver_iapp(ctx.telemetry, &f, ap, rx, now),
                }
            }
        }

        // --- 5. Detection: CSA orphans and dead-AP silence.
        for c in 0..n_clients {
            let Some(ap) = ctx.world.state.assoc[c] else {
                continue;
            };
            let _ = self.client_csa[c].poll(self.round);
            if self.client_csa[c].check_orphan(self.round, self.plan.miss_limit) {
                ctx.telemetry.inc("faults.csa_orphans");
                let silent_rounds = self.round - self.last_heard_round[c];
                ctx.telemetry.observe(
                    "faults.detection_delay_s",
                    silent_rounds as f64 * self.plan.control_period_s,
                );
                self.rescan(ctx, c);
                continue;
            }
            let silent_rounds = self.round.saturating_sub(self.last_heard_round[c]);
            if silent_rounds > self.plan.miss_limit {
                ctx.telemetry.observe(
                    "faults.detection_delay_s",
                    silent_rounds as f64 * self.plan.control_period_s,
                );
                let _ = ap;
                self.rescan(ctx, c);
            }
        }

        // --- 6. Per-round network throughput (live APs only).
        let w = &*ctx.world;
        let bps = w.ctl.total_throughput_bps_up(&w.wlan, &w.state, &w.ap_up);
        ctx.telemetry.record("resilience.network_bps", now, bps);

        let next = now + self.plan.control_period_s;
        if next < self.horizon_s {
            ctx.schedule_at(next, AcornEvent::ControlRound);
        }
    }
}

impl Process<AcornWorld, AcornEvent> for FaultProcess {
    fn start(&mut self, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        let n_aps = ctx.world.wlan.aps.len();
        let n_clients = ctx.world.wlan.clients.len();
        self.agents = (0..n_aps).map(|i| self.fresh_agent(i)).collect();
        self.ap_csa = vec![ApCsa::default(); n_aps];
        self.client_csa = vec![ClientCsa::default(); n_clients];
        self.trackers = (0..n_clients).map(|_| None).collect();
        self.tracker_ap = vec![None; n_clients];
        self.last_heard_round = vec![0; n_clients];
        self.last_assignments = ctx.world.state.assignments.clone();
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

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        match *event {
            AcornEvent::ControlRound => self.control_round(ctx),
            AcornEvent::ApCrash(ap) => self.handle_crash(ctx, ap),
            AcornEvent::ApRestart(ap) => self.handle_restart(ctx, ap),
            AcornEvent::DeliverMsg(id) => {
                let now = ctx.now();
                match self.pending.remove(&id) {
                    Some(Delivery::Beacon { frame, ap, client }) => {
                        // Late beacons still prove liveness but carry no
                        // CSA payload worth trusting.
                        if ctx.world.state.assoc[client] == Some(ApId(ap)) {
                            self.deliver_beacon(ctx.telemetry, &frame, ap, client, None);
                        }
                    }
                    Some(Delivery::Iapp { frame, to, rx_dbm }) => {
                        if ctx.world.ap_up[to] {
                            self.deliver_iapp(ctx.telemetry, &frame, to, rx_dbm, now);
                        }
                    }
                    None => {}
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_twin_strips_every_fault() {
        let plan = FaultPlan {
            seed: 9,
            ap_mttf_s: Some(100.0),
            loss: 0.2,
            corruption: 0.05,
            delay_prob: 0.1,
            delay_max_s: 5.0,
            meas_nan: 0.01,
            meas_outlier: 0.02,
            meas_freeze: 0.03,
            ..FaultPlan::default()
        };
        assert!(!plan.is_benign());
        let twin = plan.benign_twin();
        assert!(twin.is_benign());
        assert_eq!(twin.seed, 9);
        assert_eq!(twin.control_period_s, plan.control_period_s);
        assert_eq!(twin.miss_limit, plan.miss_limit);
    }

    #[test]
    fn fault_rng_streams_are_deterministic_and_distinct() {
        let mut a = FaultRng::new(1, 2, SALT_MEAS);
        let mut b = FaultRng::new(1, 2, SALT_MEAS);
        let mut c = FaultRng::new(1, 2, SALT_BEACON);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        for _ in 0..1000 {
            let u = a.u01();
            assert!((0.0..1.0).contains(&u));
            let v = a.u01_open();
            assert!(v > 0.0 && v <= 1.0);
            assert!(v.ln().is_finite());
        }
    }

    #[test]
    fn corruption_always_changes_the_frame() {
        let mut rng = FaultRng::new(3, 4, SALT_BEACON);
        for _ in 0..100 {
            let original = vec![0xA5u8; 40];
            let mut copy = original.clone();
            corrupt_frame(&mut copy, &mut rng);
            assert_ne!(copy, original, "1–3 bit flips must change something");
        }
    }

    #[test]
    fn report_from_empty_telemetry_is_all_zero() {
        let tel = Telemetry::new();
        let r = ResilienceReport::from_telemetry(&tel);
        assert_eq!(r.crashes, 0);
        assert_eq!(r.frames_sent, 0);
        assert_eq!(r.faulty_mean_bps, 0.0);
        assert_eq!(r.mean_detection_delay_s, 0.0);
    }
}
