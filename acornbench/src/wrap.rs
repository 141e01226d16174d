//! The timing wrapper: a [`Process`] that forwards every call to the
//! process it wraps and reads the clock around each `handle`.
//!
//! Wrapping changes nothing the simulation can observe — the wrapped
//! process sees the same context, schedules the same events and writes
//! the same telemetry — so a wrapped scenario reproduces its `run()`
//! bit-for-bit (the benchmark checks this on every run).

use acorn_ctrlplane::PlaneEvent;
use acorn_events::{AcornEvent, Ctx, Process};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The handler classes the clock keeps apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handler {
    /// Algorithm 1: a client arrives and picks an AP.
    Arrive,
    /// A client leaves.
    Depart,
    /// Algorithm 2: a re-allocation epoch (the control plane's `Epoch`).
    Realloc,
    /// A mobile client's position update.
    Mobility,
    /// One shadowing-drift step.
    Drift,
    /// An AP or zone controller crashes.
    Crash,
    /// A crashed AP or zone controller restarts.
    Restart,
    /// A fault-layer control round (measurements, beacons, detection).
    ControlRound,
    /// A delayed control frame is delivered.
    Deliver,
    /// A control-plane retransmit timer fires.
    Resend,
    /// A streaming workload tick (may carry an arrival).
    WorkloadTick,
    /// A soak goodput probe sample.
    Probe,
    /// An online invariant check.
    Watchdog,
}

impl Handler {
    /// Every class, in report order.
    pub const ALL: [Handler; 13] = [
        Handler::Arrive,
        Handler::Depart,
        Handler::Realloc,
        Handler::Mobility,
        Handler::Drift,
        Handler::Crash,
        Handler::Restart,
        Handler::ControlRound,
        Handler::Deliver,
        Handler::Resend,
        Handler::WorkloadTick,
        Handler::Probe,
        Handler::Watchdog,
    ];

    /// The metric stem (`events.<name>_s`).
    pub fn name(self) -> &'static str {
        match self {
            Handler::Arrive => "arrive",
            Handler::Depart => "depart",
            Handler::Realloc => "realloc",
            Handler::Mobility => "mobility",
            Handler::Drift => "drift",
            Handler::Crash => "crash",
            Handler::Restart => "restart",
            Handler::ControlRound => "control_round",
            Handler::Deliver => "deliver",
            Handler::Resend => "resend",
            Handler::WorkloadTick => "workload_tick",
            Handler::Probe => "probe",
            Handler::Watchdog => "watchdog",
        }
    }
}

/// Maps an event payload to its handler class.
pub trait Classify {
    /// The class whose clock this event's handling time goes to.
    fn handler(&self) -> Handler;
}

impl Classify for AcornEvent {
    fn handler(&self) -> Handler {
        match self {
            AcornEvent::Arrive(_) => Handler::Arrive,
            AcornEvent::Depart(_) => Handler::Depart,
            AcornEvent::Reallocate => Handler::Realloc,
            AcornEvent::MobilitySample => Handler::Mobility,
            AcornEvent::DriftStep => Handler::Drift,
            AcornEvent::ApCrash(_) => Handler::Crash,
            AcornEvent::ApRestart(_) => Handler::Restart,
            AcornEvent::ControlRound => Handler::ControlRound,
            AcornEvent::DeliverMsg(_) => Handler::Deliver,
            AcornEvent::WorkloadTick => Handler::WorkloadTick,
            AcornEvent::ProbeSample => Handler::Probe,
            AcornEvent::WatchdogCheck => Handler::Watchdog,
        }
    }
}

impl Classify for PlaneEvent {
    fn handler(&self) -> Handler {
        match self {
            PlaneEvent::Epoch(_) => Handler::Realloc,
            PlaneEvent::Deliver(_) => Handler::Deliver,
            PlaneEvent::Resend(_) => Handler::Resend,
            PlaneEvent::Crash => Handler::Crash,
            PlaneEvent::Restart => Handler::Restart,
        }
    }
}

/// Host time spent in each handler class over one run.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    busy_s: [f64; Handler::ALL.len()],
    calls: [u64; Handler::ALL.len()],
    /// Algorithm 1 decision latency of every arrival, in seconds.
    pub arrival_s: Vec<f64>,
}

impl Clock {
    /// Seconds spent in `h`'s handlers.
    pub fn busy_s(&self, h: Handler) -> f64 {
        self.busy_s[h as usize]
    }

    /// Events `h`'s handlers processed.
    pub fn calls(&self, h: Handler) -> u64 {
        self.calls[h as usize]
    }

    /// Seconds spent in all handlers.
    pub fn total_busy_s(&self) -> f64 {
        self.busy_s.iter().sum()
    }

    fn record(&mut self, h: Handler, dt_s: f64, arrival: bool) {
        self.busy_s[h as usize] += dt_s;
        self.calls[h as usize] += 1;
        if arrival {
            self.arrival_s.push(dt_s);
        }
    }
}

/// One clock shared by every wrapped process of a simulation.
pub type SharedClock = Rc<RefCell<Clock>>;

/// The telemetry counter every arrival handler increments.
const ARRIVALS: &str = "sessions.arrivals";

/// A process wrapped in the handler clock.
pub struct Timed<P> {
    inner: P,
    clock: SharedClock,
}

impl<P> Timed<P> {
    /// Wraps `inner`, charging its handling time to `clock`.
    pub fn boxed(inner: P, clock: &SharedClock) -> Box<Timed<P>> {
        Box::new(Timed {
            inner,
            clock: Rc::clone(clock),
        })
    }
}

impl<W, E: Classify, P: Process<W, E>> Process<W, E> for Timed<P> {
    fn start(&mut self, ctx: &mut Ctx<'_, W, E>) {
        self.inner.start(ctx);
    }

    fn handle(&mut self, event: &E, ctx: &mut Ctx<'_, W, E>) {
        let h = event.handler();
        // A workload tick carries an arrival only when the generator
        // accepts it; the arrival counter (read outside the timed span)
        // tells which ticks did.
        let before = (h == Handler::WorkloadTick).then(|| ctx.telemetry.counter(ARRIVALS));
        let t0 = Instant::now();
        self.inner.handle(event, ctx);
        let dt = t0.elapsed().as_secs_f64();
        let arrival = match before {
            Some(n) => ctx.telemetry.counter(ARRIVALS) > n,
            None => h == Handler::Arrive,
        };
        self.clock.borrow_mut().record(h, dt, arrival);
    }
}
