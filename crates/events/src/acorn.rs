//! The standard ACORN process library: session churn, periodic
//! re-allocation, pedestrian mobility, and slow shadowing drift as
//! composable [`Process`]es over a shared [`AcornWorld`].
//!
//! Each process owns one real-world mechanism from the paper's operating
//! regime:
//!
//! * [`SessionProcess`] — WLAN session arrivals/departures from a trace
//!   (§3's CRAWDAD analysis), driving Algorithm 1 association.
//! * [`ReallocationTimer`] — the every-`T` Algorithm 2 re-run ("we run
//!   our channel allocation algorithm every 30 minutes", §4.2). Restart
//!   fan-out rides the evaluation engine's thread pool via
//!   `AcornController::reallocate`, and per-epoch seeds come from a
//!   [`SeedPolicy`], so results are bit-identical at any `ACORN_THREADS`.
//! * [`MobilityProcess`] — a client walking a [`Trajectory`] with
//!   periodic SNR re-sampling and opportunistic width adaptation (§5.2).
//! * [`DriftProcess`] — slow environmental shadowing drift (the
//!   [`drift_phase`](acorn_topology::pathloss::LogDistance::drift_phase)
//!   rotation), a scenario class the fixed-trace simulations could not
//!   express: link gains decorrelate over hours while every draw stays a
//!   pure function of the seed.
//!
//! [`CompositeScenario`] wires any subset of them into one
//! [`Simulation`] and returns the telemetry snapshot plus the executed
//! event log — the object the thread-count determinism tests compare.

use crate::faults::{FaultPlan, FaultProcess, ResilienceReport};
use crate::sim::{mix_seed, Ctx, Process, Simulation};
use crate::telemetry::{Histogram, TelemetrySnapshot};
use acorn_core::{choose_ap_obs, AcornController, NetworkState};
use acorn_obs::RecordingSink;
use acorn_phy::ChannelWidth;
use acorn_topology::{ApId, ChannelAssignment, ClientId, Trajectory, Wlan};
use acorn_traces::Session;

/// The shared world every ACORN process operates on.
pub struct AcornWorld {
    /// The deployment (mutable: mobility moves clients, drift rotates the
    /// shadowing phase).
    pub wlan: Wlan,
    /// The controller.
    pub ctl: AcornController,
    /// Its mutable network state (assignments, associations, widths).
    pub state: NetworkState,
    /// One record per re-allocation epoch, in firing order.
    pub realloc_log: Vec<ReallocRecord>,
    /// Liveness per AP — all `true` unless a fault process crashes one.
    pub ap_up: Vec<bool>,
    /// The last assignment + width vector a *healthy* re-allocation epoch
    /// deployed; safe mode restores it instead of re-optimizing on a
    /// partial view of the network.
    pub last_good: Option<(Vec<ChannelAssignment>, Vec<ChannelWidth>)>,
}

impl AcornWorld {
    /// A world with a fresh controller state seeded from `seed`.
    pub fn new(wlan: Wlan, ctl: AcornController, seed: u64) -> AcornWorld {
        let state = ctl.new_state(&wlan, seed);
        let n_aps = wlan.aps.len();
        AcornWorld {
            wlan,
            ctl,
            state,
            realloc_log: Vec::new(),
            ap_up: vec![true; n_aps],
            last_good: None,
        }
    }

    /// Clients currently associated.
    pub fn active_clients(&self) -> usize {
        self.state.assoc.iter().filter(|a| a.is_some()).count()
    }

    /// Whether every AP is up.
    pub fn all_up(&self) -> bool {
        self.ap_up.iter().all(|&u| u)
    }

    /// APs currently down.
    pub fn down_count(&self) -> usize {
        self.ap_up.iter().filter(|&&u| !u).count()
    }
}

/// What one [`ReallocationTimer`] firing recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReallocRecord {
    /// Firing time (s).
    pub t_s: f64,
    /// Clients associated at that instant.
    pub active_clients: usize,
    /// Predicted network throughput before the re-allocation (bits/s).
    pub before_bps: f64,
    /// Predicted network throughput after (bits/s).
    pub after_bps: f64,
    /// Channel switches performed.
    pub switches: usize,
    /// Whether this epoch ran in safe mode (degraded network: the
    /// controller kept the last-known-good plan instead of re-optimizing).
    pub degraded: bool,
    /// APs down when the epoch fired (the watchdog cross-checks
    /// `degraded == (down_aps > 0)` on safe-mode-enabled runs).
    pub down_aps: usize,
}

/// Event payload shared by the standard processes. Every variant carries
/// plain data, so the whole scenario state is `(world, processes, queue)`
/// and nothing hides in closures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AcornEvent {
    /// A session starts: `client` joins the WLAN.
    Arrive(usize),
    /// A session ends: `client` leaves.
    Depart(usize),
    /// Periodic Algorithm 2 re-allocation.
    Reallocate,
    /// Mobility position update + width re-evaluation.
    MobilitySample,
    /// One step of slow shadowing drift.
    DriftStep,
    /// An AP crashes (fault layer).
    ApCrash(usize),
    /// A crashed AP finishes repair and comes back cold (fault layer).
    ApRestart(usize),
    /// One control round: measurements, beacons, IAPP, CSA, detection
    /// (fault layer).
    ControlRound,
    /// A delayed control-message copy arrives (fault layer).
    DeliverMsg(u32),
    /// One streaming workload-generator tick (soak layer): draw the next
    /// arrival window without materializing a trace.
    WorkloadTick,
    /// One telemetry probe sample (soak layer): sketch-record goodput.
    ProbeSample,
    /// One online invariant check (soak layer).
    WatchdogCheck,
}

/// Drives Algorithm 1 association from a session trace.
///
/// At `start`, schedules an [`AcornEvent::Arrive`]/[`AcornEvent::Depart`]
/// pair per session (departures clamped to the horizon), in session
/// order — which fixes the dispatch order of simultaneous events to
/// match the trace order. Telemetry: `sessions.arrivals` /
/// `sessions.departures` counters, a `clients.active` gauge, and an
/// `association.delay_s` histogram of each arriving client's own
/// delivery delay at its chosen AP (the latency term Algorithm 1
/// optimizes).
pub struct SessionProcess {
    /// The session trace.
    pub sessions: Vec<Session>,
    /// Simulated horizon (s); arrivals at or past it never fire.
    pub horizon_s: f64,
    /// Run the §5.2 width adaptation after every association change.
    pub adapt_widths: bool,
}

impl Process<AcornWorld, AcornEvent> for SessionProcess {
    fn start(&mut self, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        for s in &self.sessions {
            assert!(
                s.client < ctx.world.wlan.clients.len(),
                "session client {} has no position in the deployment",
                s.client
            );
        }
        ctx.telemetry.register_histogram(
            "association.delay_s",
            // Delivery delays for 1500-byte payloads run sub-millisecond
            // at high MCS to a few ms near the floor; overflow catches
            // retry-dominated stragglers.
            Histogram::linear(0.0, 0.01, 50).expect("static histogram bounds"),
        );
        for i in 0..self.sessions.len() {
            let s = self.sessions[i];
            if s.start_s < self.horizon_s {
                ctx.schedule_at(s.start_s, AcornEvent::Arrive(s.client));
                ctx.schedule_at(s.end_s().min(self.horizon_s), AcornEvent::Depart(s.client));
            }
        }
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        match *event {
            AcornEvent::Arrive(c) => {
                // Algorithm 1, unrolled from `AcornController::associate`
                // so the chosen candidate's own delay is available for
                // telemetry without recomputing the candidate set.
                let w = &mut *ctx.world;
                let mut candidates = w.ctl.candidates_for(&w.wlan, &w.state, ClientId(c));
                // Dead APs don't beacon, so clients never see them as
                // candidates. A no-op while every AP is up.
                candidates.retain(|cand| w.ap_up[cand.ap.0]);
                let mut delay = None;
                // Candidate-ranking metrics (assoc.*) go through an
                // ephemeral sink drained into the run-wide recorder —
                // event handlers are sequential, so this is
                // deterministic by construction.
                let sink = RecordingSink::new();
                if let Some(i) = choose_ap_obs(&candidates, &sink) {
                    w.state.assoc[c] = Some(candidates[i].ap);
                    delay = Some(candidates[i].delay_u_s);
                }
                sink.drain_into(ctx.telemetry);
                if self.adapt_widths {
                    w.ctl.adapt_widths(&w.wlan, &mut w.state);
                }
                ctx.telemetry.inc("sessions.arrivals");
                if let Some(d) = delay {
                    ctx.telemetry.observe("association.delay_s", d);
                }
            }
            AcornEvent::Depart(c) => {
                let w = &mut *ctx.world;
                w.ctl.deassociate(&mut w.state, ClientId(c));
                if self.adapt_widths {
                    w.ctl.adapt_widths(&w.wlan, &mut w.state);
                }
                ctx.telemetry.inc("sessions.departures");
            }
            _ => {}
        }
        let active = ctx.world.active_clients() as f64;
        ctx.telemetry.set_gauge("clients.active", active);
    }
}

/// Where a [`ReallocationTimer`] epoch gets its restart seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeedPolicy {
    /// Use `next`, then increment by one — the historical churn-loop
    /// behaviour (`seed + 1`, `seed + 2`, …), kept for bit-compatibility
    /// with pre-kernel outputs.
    Sequential {
        /// The next epoch's seed.
        next: u64,
    },
    /// Derive each epoch's seed as `mix_seed(base, event_seq)` — the
    /// preferred policy for new scenarios: the event's globally unique
    /// sequence number keys an independent splitmix64 stream, so adding
    /// or removing unrelated processes never shifts which stream an
    /// epoch consumes in a structurally unchanged schedule.
    FromEventSeq {
        /// Base seed mixed with the firing event's sequence number.
        base: u64,
    },
}

impl SeedPolicy {
    pub(crate) fn epoch_seed(&mut self, event_seq: u64) -> u64 {
        match self {
            SeedPolicy::Sequential { next } => {
                let s = *next;
                *next = next.wrapping_add(1);
                s
            }
            SeedPolicy::FromEventSeq { base } => mix_seed(*base, event_seq),
        }
    }
}

/// Periodic Algorithm 2 re-allocation (the paper's every-30-minutes
/// controller loop). Fires at `period_s`, `2·period_s`, … strictly below
/// `horizon_s`, self-scheduling each next tick. Each firing records a
/// [`ReallocRecord`] into the world and telemetry series
/// `network_bps.before`/`network_bps.after`, a `switches` histogram, and
/// a `reallocations` counter.
pub struct ReallocationTimer {
    /// Re-allocation period `T` (s).
    pub period_s: f64,
    /// Horizon (s); ticks at or past it never fire.
    pub horizon_s: f64,
    /// Random restarts per epoch (fanned over the thread pool).
    pub restarts: usize,
    /// Run the width adaptation after each re-allocation.
    pub adapt_widths: bool,
    /// Per-epoch seed derivation.
    pub seed_policy: SeedPolicy,
    /// Degrade gracefully when APs are down: keep the last-known-good
    /// plan, skip re-optimization, and force cells bordering a dead AP to
    /// 20 MHz. Off, the timer re-optimizes blindly every epoch (the
    /// pre-fault-layer behaviour).
    pub safe_mode: bool,
}

impl Process<AcornWorld, AcornEvent> for ReallocationTimer {
    fn start(&mut self, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        ctx.telemetry.register_histogram(
            "switches",
            Histogram::linear(0.0, 32.0, 32).expect("static histogram bounds"),
        );
        if self.period_s < self.horizon_s {
            ctx.schedule_at(self.period_s, AcornEvent::Reallocate);
        }
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        debug_assert_eq!(*event, AcornEvent::Reallocate);
        let t = ctx.now();
        let seed = self.seed_policy.epoch_seed(ctx.event_seq());
        let w = &mut *ctx.world;
        // With every AP up this is bit-identical to the plain total, so
        // fault-free runs keep their golden fingerprints.
        let before = w.ctl.total_throughput_bps_up(&w.wlan, &w.state, &w.ap_up);
        let active = w.active_clients();
        let degraded = self.safe_mode && !w.all_up();
        let (after, switches) = if degraded {
            // Safe mode: a partial network means a partial view — any
            // re-optimization now would chase phantom interference. Keep
            // the last plan a healthy epoch deployed and shed the risky
            // 40 MHz bonds next to the hole.
            if let Some((assignments, widths)) = w.last_good.clone() {
                w.state.assignments = assignments;
                w.state.operating_width = widths;
            }
            let graph = w.wlan.ap_only_interference_graph();
            for ap in 0..w.wlan.aps.len() {
                if w.ap_up[ap] && graph.neighbors(ApId(ap)).any(|n| !w.ap_up[n.0]) {
                    w.state.operating_width[ap] = ChannelWidth::Ht20;
                }
            }
            ctx.telemetry
                .inc(acorn_obs::names::CONTROLLER_SAFE_MODE_EPOCHS);
            let after = w.ctl.total_throughput_bps_up(&w.wlan, &w.state, &w.ap_up);
            (after, 0)
        } else {
            // The epoch's alloc.*/model.* metrics ride an ephemeral sink
            // shared across the restart fan-out (counter adds commute,
            // so the totals are thread-invariant) and drain into the
            // run-wide recorder here, sequentially.
            let sink = RecordingSink::new();
            let r = w
                .ctl
                .reallocate(&w.wlan, &mut w.state, self.restarts, seed, &sink);
            sink.drain_into(ctx.telemetry);
            if self.adapt_widths {
                w.ctl.adapt_widths(&w.wlan, &mut w.state);
            }
            if self.safe_mode {
                w.last_good = Some((w.state.assignments.clone(), w.state.operating_width.clone()));
            }
            (r.total_bps, r.switches)
        };
        let record = ReallocRecord {
            t_s: t,
            active_clients: active,
            before_bps: before,
            after_bps: after,
            switches,
            degraded,
            down_aps: w.down_count(),
        };
        w.realloc_log.push(record);
        ctx.telemetry.inc("reallocations");
        ctx.telemetry.record("network_bps.before", t, before);
        ctx.telemetry.record("network_bps.after", t, after);
        ctx.telemetry.observe("switches", switches as f64);
        let next = t + self.period_s;
        if next < self.horizon_s {
            ctx.schedule_at(next, AcornEvent::Reallocate);
        }
    }
}

/// Walks one client along a [`Trajectory`], re-sampling its position
/// every `sample_period_s` (first sample at `t = 0`) and optionally
/// letting its AP re-evaluate the §5.2 width fallback. Telemetry:
/// `mobility.snr20_db` series (the mobile's best HT20 SNR over all APs)
/// and a `mobility.samples` counter.
pub struct MobilityProcess {
    /// The walking client.
    pub client: ClientId,
    /// Its walk.
    pub trajectory: Trajectory,
    /// Position-update period (s).
    pub sample_period_s: f64,
    /// Horizon (s); samples past it never fire.
    pub horizon_s: f64,
    /// Run the width adaptation after each position update.
    pub adapt_widths: bool,
}

impl Process<AcornWorld, AcornEvent> for MobilityProcess {
    fn start(&mut self, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        assert!(
            self.client.0 < ctx.world.wlan.clients.len(),
            "mobile client {} has no position in the deployment",
            self.client.0
        );
        ctx.schedule_at(0.0, AcornEvent::MobilitySample);
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        debug_assert_eq!(*event, AcornEvent::MobilitySample);
        let t = ctx.now();
        let w = &mut *ctx.world;
        w.wlan.clients[self.client.0].pos = self.trajectory.position_at(t);
        if self.adapt_widths {
            w.ctl.adapt_widths(&w.wlan, &mut w.state);
        }
        let snr = (0..w.wlan.aps.len())
            .map(|i| {
                w.wlan
                    .snr_db(ApId(i), self.client, acorn_phy::ChannelWidth::Ht20)
            })
            .fold(f64::NEG_INFINITY, f64::max);
        ctx.telemetry.record("mobility.snr20_db", t, snr);
        ctx.telemetry.inc("mobility.samples");
        let next = t + self.sample_period_s;
        if next <= self.horizon_s {
            ctx.schedule_at(next, AcornEvent::MobilitySample);
        }
    }
}

/// Slow environmental shadowing drift: every `period_s`, advances the
/// path-loss model's
/// [`drift_phase`](acorn_topology::pathloss::LogDistance::drift_phase) by
/// `phase_step_rad`, smoothly decorrelating every link's shadowing draw
/// from its initial value while keeping the marginal distribution — and
/// full determinism — intact. Models the hours-scale environment changes
/// (doors, furniture, crowds) that motivate periodic re-allocation in
/// the first place. Telemetry: `drift.phase_rad` gauge, `drift.steps`
/// counter.
pub struct DriftProcess {
    /// Drift step period (s).
    pub period_s: f64,
    /// Horizon (s); steps past it never fire.
    pub horizon_s: f64,
    /// Phase advance per step (radians).
    pub phase_step_rad: f64,
}

impl Process<AcornWorld, AcornEvent> for DriftProcess {
    fn start(&mut self, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        if self.period_s <= self.horizon_s {
            ctx.schedule_at(self.period_s, AcornEvent::DriftStep);
        }
    }

    fn handle(&mut self, event: &AcornEvent, ctx: &mut Ctx<'_, AcornWorld, AcornEvent>) {
        debug_assert_eq!(*event, AcornEvent::DriftStep);
        let t = ctx.now();
        ctx.world.wlan.pathloss.drift_phase += self.phase_step_rad;
        let phase = ctx.world.wlan.pathloss.drift_phase;
        ctx.telemetry.set_gauge("drift.phase_rad", phase);
        ctx.telemetry.inc("drift.steps");
        let next = t + self.period_s;
        if next <= self.horizon_s {
            ctx.schedule_at(next, AcornEvent::DriftStep);
        }
    }
}

/// Mobility parameters for a [`CompositeScenario`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilitySpec {
    /// The walking client.
    pub client: ClientId,
    /// Its walk.
    pub trajectory: Trajectory,
    /// Position-update period (s).
    pub sample_period_s: f64,
}

/// Drift parameters for a [`CompositeScenario`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftSpec {
    /// Drift step period (s).
    pub period_s: f64,
    /// Phase advance per step (radians).
    pub phase_step_rad: f64,
}

/// A full scenario: session churn + periodic re-allocation, optionally
/// with a mobile client, shadowing drift, and a fault-injection layer,
/// over one deployment. Process registration order is fixed (sessions,
/// timer, mobility, drift, faults), which pins every event's sequence
/// number and therefore the whole dispatch order — the fault process
/// registering *last* keeps fault-free schedules (and their golden
/// fingerprints) byte-identical to pre-fault builds.
#[derive(Clone)]
pub struct CompositeScenario {
    /// The deployment.
    pub wlan: Wlan,
    /// The session trace.
    pub sessions: Vec<Session>,
    /// Simulated horizon (s).
    pub horizon_s: f64,
    /// Re-allocation period `T` (s).
    pub reallocation_period_s: f64,
    /// Restarts per re-allocation epoch.
    pub restarts: usize,
    /// Run the §5.2 width adaptation after association/mobility events.
    pub adapt_widths: bool,
    /// Optional walking client.
    pub mobility: Option<MobilitySpec>,
    /// Optional shadowing drift.
    pub drift: Option<DriftSpec>,
    /// Optional fault-injection layer. Setting it (even to a benign plan)
    /// runs the full control-plane-on-the-wire machinery and switches the
    /// re-allocation timer to safe mode.
    pub faults: Option<FaultPlan>,
    /// Master seed (initial assignment + per-epoch restart streams).
    pub seed: u64,
    /// Record the executed-event log (costs a `String` per event).
    pub record_log: bool,
}

/// What a [`CompositeScenario`] run produced.
pub struct CompositeReport {
    /// Events dispatched and final virtual time.
    pub stats: crate::sim::RunStats,
    /// The frozen telemetry.
    pub telemetry: TelemetrySnapshot,
    /// The executed-event log (present iff `record_log` was set).
    pub log: Option<crate::sim::EventLog>,
    /// One record per re-allocation epoch.
    pub realloc: Vec<ReallocRecord>,
    /// The final controller state.
    pub final_state: NetworkState,
    /// Fault-layer aggregates (present iff `faults` was set). The golden
    /// comparison fields are zero unless
    /// [`run_resilience`](CompositeScenario::run_resilience) produced the
    /// report.
    pub resilience: Option<ResilienceReport>,
}

impl CompositeScenario {
    /// Runs the scenario under `ctl` to its horizon.
    pub fn run(&self, ctl: &AcornController) -> CompositeReport {
        let world = AcornWorld::new(self.wlan.clone(), ctl.clone(), self.seed);
        let mut sim: Simulation<AcornWorld, AcornEvent> = Simulation::new(world);
        sim.record_events(self.record_log);
        sim.add_process(Box::new(SessionProcess {
            sessions: self.sessions.clone(),
            horizon_s: self.horizon_s,
            adapt_widths: self.adapt_widths,
        }));
        sim.add_process(Box::new(ReallocationTimer {
            period_s: self.reallocation_period_s,
            horizon_s: self.horizon_s,
            restarts: self.restarts,
            adapt_widths: self.adapt_widths,
            // With faults on, epoch seeds count epochs rather than events:
            // a faulty run and its golden twin schedule different event
            // interleavings (delayed deliveries consume sequence numbers),
            // and the resilience comparison is only meaningful if both
            // draw identical per-epoch restart streams.
            seed_policy: if self.faults.is_some() {
                SeedPolicy::Sequential {
                    next: self.seed.wrapping_add(1),
                }
            } else {
                SeedPolicy::FromEventSeq { base: self.seed }
            },
            safe_mode: self.faults.is_some(),
        }));
        if let Some(m) = self.mobility {
            sim.add_process(Box::new(MobilityProcess {
                client: m.client,
                trajectory: m.trajectory,
                sample_period_s: m.sample_period_s,
                horizon_s: self.horizon_s,
                adapt_widths: self.adapt_widths,
            }));
        }
        if let Some(d) = self.drift {
            sim.add_process(Box::new(DriftProcess {
                period_s: d.period_s,
                horizon_s: self.horizon_s,
                phase_step_rad: d.phase_step_rad,
            }));
        }
        if let Some(plan) = self.faults {
            sim.add_process(Box::new(FaultProcess::new(plan, self.horizon_s)));
        }
        let stats = sim.run(self.horizon_s);
        let resilience = self
            .faults
            .map(|_| ResilienceReport::from_telemetry(&sim.telemetry));
        CompositeReport {
            stats,
            telemetry: sim.telemetry.snapshot(),
            log: sim.event_log().cloned(),
            realloc: std::mem::take(&mut sim.world.realloc_log),
            final_state: sim.world.state.clone(),
            resilience,
        }
    }

    /// Runs the scenario twice — once with its fault plan, once with the
    /// plan's fault-free twin — and returns the faulty report with its
    /// [`ResilienceReport`] golden-comparison fields filled in
    /// (`golden_mean_bps`, `throughput_retained`). The twin keeps the
    /// same seed, control cadence, and detection thresholds, so the only
    /// difference between the runs is the faults themselves.
    pub fn run_resilience(&self, ctl: &AcornController) -> CompositeReport {
        let plan = self.faults.unwrap_or_default();
        let mut faulty = self.clone();
        faulty.faults = Some(plan);
        let mut report = faulty.run(ctl);
        let mut golden = self.clone();
        golden.faults = Some(plan.benign_twin());
        let golden_report = golden.run(ctl);
        if let (Some(r), Some(g)) = (report.resilience.as_mut(), golden_report.resilience) {
            r.golden_mean_bps = g.faulty_mean_bps;
            r.throughput_retained = if g.faulty_mean_bps > 0.0 {
                r.faulty_mean_bps / g.faulty_mean_bps
            } else {
                0.0
            };
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_core::AcornConfig;
    use acorn_topology::{Point, Wlan};

    fn tiny_wlan(n_clients: usize) -> Wlan {
        let mut w = Wlan::new(
            vec![Point::new(0.0, 0.0), Point::new(60.0, 0.0)],
            (0..n_clients)
                .map(|i| Point::new(10.0 + 5.0 * i as f64, 5.0))
                .collect(),
            5,
        );
        w.pathloss.shadowing_sigma_db = 0.0;
        w
    }

    fn sessions() -> Vec<Session> {
        vec![
            Session {
                client: 0,
                start_s: 10.0,
                duration_s: 500.0,
            },
            Session {
                client: 1,
                start_s: 10.0, // simultaneous with client 0's arrival
                duration_s: 100.0,
            },
            Session {
                client: 2,
                start_s: 400.0,
                duration_s: 10_000.0, // clamped to the horizon
            },
        ]
    }

    fn scenario(seed: u64) -> CompositeScenario {
        CompositeScenario {
            wlan: tiny_wlan(4),
            sessions: sessions(),
            horizon_s: 1000.0,
            reallocation_period_s: 300.0,
            restarts: 1,
            adapt_widths: true,
            mobility: Some(MobilitySpec {
                client: ClientId(3),
                trajectory: Trajectory {
                    from: Point::new(5.0, 0.0),
                    to: Point::new(55.0, 0.0),
                    speed_mps: 0.1,
                },
                sample_period_s: 100.0,
            }),
            drift: Some(DriftSpec {
                period_s: 250.0,
                phase_step_rad: 0.05,
            }),
            faults: None,
            seed,
            record_log: true,
        }
    }

    #[test]
    fn composite_runs_all_processes() {
        let ctl = AcornController::new(AcornConfig::default());
        let r = scenario(7).run(&ctl);
        // 3 arrivals + 3 departures + 3 reallocs (300, 600, 900)
        // + 11 mobility samples (0..=1000) + 4 drift steps (250..=1000).
        assert_eq!(r.stats.events, 3 + 3 + 3 + 11 + 4);
        assert_eq!(r.realloc.len(), 3);
        let tel = &r.telemetry;
        let counter = |n: &str| {
            tel.counters
                .iter()
                .find(|c| c.name == n)
                .map(|c| c.value)
                .unwrap_or(0)
        };
        assert_eq!(counter("sessions.arrivals"), 3);
        assert_eq!(counter("sessions.departures"), 3);
        assert_eq!(counter("reallocations"), 3);
        assert_eq!(counter("mobility.samples"), 11);
        assert_eq!(counter("drift.steps"), 4);
        assert!(r.final_state.assoc.iter().all(|a| a.is_none()));
    }

    #[test]
    fn composite_is_reproducible() {
        let ctl = AcornController::new(AcornConfig::default());
        let a = scenario(7).run(&ctl);
        let b = scenario(7).run(&ctl);
        assert_eq!(a.log, b.log);
        assert_eq!(a.telemetry, b.telemetry);
        assert_eq!(a.final_state, b.final_state);
    }

    #[test]
    fn seed_changes_the_outcome() {
        let ctl = AcornController::new(AcornConfig::default());
        let a = scenario(7).run(&ctl);
        let b = scenario(8).run(&ctl);
        // Different initial assignments make some recorded quantity move.
        assert!(
            a.telemetry != b.telemetry || a.final_state != b.final_state,
            "seeds 7 and 8 produced identical runs"
        );
    }

    #[test]
    fn simultaneous_arrivals_dispatch_in_trace_order() {
        // Clients 0 and 1 arrive at the same instant; the log must show
        // client 0 first (its events were scheduled first).
        let ctl = AcornController::new(AcornConfig::default());
        let r = scenario(7).run(&ctl);
        let log = r.log.unwrap();
        let arrivals: Vec<&str> = log
            .entries
            .iter()
            .filter(|e| e.kind.starts_with("Arrive"))
            .map(|e| e.kind.as_str())
            .collect();
        assert_eq!(arrivals, vec!["Arrive(0)", "Arrive(1)", "Arrive(2)"]);
    }

    #[test]
    fn drift_decorrelates_links_over_the_run() {
        let ctl = AcornController::new(AcornConfig::default());
        let mut sc = scenario(7);
        sc.wlan.pathloss.shadowing_sigma_db = 6.0;
        let with_drift = sc.run(&ctl);
        sc.drift = None;
        let without = sc.run(&ctl);
        let phase = |r: &CompositeReport| {
            r.telemetry
                .gauges
                .iter()
                .find(|g| g.name == "drift.phase_rad")
                .map(|g| g.value)
        };
        assert_eq!(phase(&with_drift), Some(0.05 * 4.0));
        assert_eq!(phase(&without), None);
        // The drifted run sees different SNR samples once the phase moves.
        let snr = |r: &CompositeReport| {
            r.telemetry
                .series
                .iter()
                .find(|s| s.name == "mobility.snr20_db")
                .unwrap()
                .values
                .clone()
        };
        assert_ne!(snr(&with_drift), snr(&without));
    }
}
