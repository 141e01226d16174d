//! The three workloads and what they share: the replay record, the
//! correctness comparison against the scenario's own `run()`, and the
//! stepped run loop the traced run uses to stop at checkpoints.
//!
//! Every workload is a batch replay, in virtual time, of inputs built
//! from the workload seed. A replay builds its inputs anew (the
//! set-up), then runs the scenario rebuilt from its public processes,
//! each wrapped in the handler clock.

pub mod exact;
pub mod plane;
pub mod soak;

use crate::probe::{AllocPath, LayerProbe, Live};
use crate::wrap::Clock;
use acorn_core::NetworkState;
use acorn_events::{Simulation, TelemetrySnapshot};
use std::time::Instant;

/// Sub-seed streams derived from the workload seed, so the deployment,
/// the trace, the controller and the faults never share a stream.
pub mod stream {
    /// Deployment geometry and shadowing.
    pub const DEPLOY: u64 = 1;
    /// Session trace or workload generator.
    pub const TRACE: u64 = 2;
    /// Initial assignment and re-allocation restarts.
    pub const SCENARIO: u64 = 3;
    /// Fault injection.
    pub const FAULTS: u64 = 4;
    /// First of the panel's instance seeds (one stream per instance).
    pub const PANEL: u64 = 16;
}

/// Derives the sub-seed of `stream` from the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    acorn_events::mix_seed(seed, stream)
}

/// The seeds of the `n` instances a workload seed stands for.
///
/// A workload is a panel of `n` independent instances, each built from
/// its own seed. How much work one seed's inputs ask for varies (the
/// floor plan, which clients overlap); summing over a panel keeps that
/// variation from reading as a change in speed between seeds.
pub fn instance_seeds(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| sub_seed(seed, stream::PANEL + i))
        .collect()
}

/// What the correctness check compares between two runs of one input.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Events dispatched.
    pub events: u64,
    /// The frozen telemetry.
    pub telemetry: TelemetrySnapshot,
    /// The final controller state (assignments, associations, widths).
    pub state: NetworkState,
}

/// Checks that `got` reproduces `want` exactly.
pub fn compare(got: &Outcome, want: &Outcome) -> Result<(), String> {
    if got.events != want.events {
        return Err(format!(
            "dispatched {} events, the scenario's run() dispatched {}",
            got.events, want.events
        ));
    }
    if got.state.assignments != want.state.assignments {
        return Err("final channel assignments differ from run()".into());
    }
    if got.state.operating_width != want.state.operating_width {
        return Err("final operating widths differ from run()".into());
    }
    if got.state.assoc != want.state.assoc {
        return Err("final associations differ from run()".into());
    }
    if got.telemetry != want.telemetry {
        return Err("telemetry snapshot differs from run()".into());
    }
    Ok(())
}

/// A counter's value in a snapshot (0 if never touched).
pub fn counter(tel: &TelemetrySnapshot, name: &str) -> u64 {
    tel.counters
        .iter()
        .find(|c| c.name == name)
        .map_or(0, |c| c.value)
}

/// Arrivals attempted and arrivals left unassociated, from a run's
/// telemetry: every arrival handler counts `sessions.arrivals` and
/// records the chosen AP's delay in `association.delay_s` only when it
/// placed the client; a streaming generator that finds every client
/// already associated drops the arrival as `workload.saturated`.
pub fn arrival_failures(tel: &TelemetrySnapshot) -> (u64, u64) {
    let dropped = counter(tel, "workload.saturated");
    let attempted = counter(tel, "sessions.arrivals") + dropped;
    let placed = tel
        .histograms
        .iter()
        .find(|h| h.name == "association.delay_s")
        .map_or(0, |h| h.count);
    (attempted, attempted.saturating_sub(placed))
}

/// One replay's measurements: set-up and the wrapped run. What the run
/// produced comes back beside it as an [`Outcome`], to be checked and
/// dropped, so that memory does not grow with the replays a run makes.
pub struct Replay {
    /// Seconds to build the inputs, controller and world.
    pub setup_s: f64,
    /// Seconds from registering the processes to the end of the run,
    /// minus the time the layer probe took.
    pub wall_s: f64,
    /// Seconds the layer probe took (0 without a probe).
    pub probe_s: f64,
    /// Handler times and arrival latencies.
    pub clock: Clock,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

/// The scenario's own `run()` on the same inputs, and the numbers the
/// benchmark takes from it.
pub struct Reference {
    /// What every replay must reproduce.
    pub outcome: Outcome,
    /// Simulated goodput of the configuration ACORN chose (bits/s).
    pub network_bps: f64,
    /// Workload-specific checks beyond reproduction (empty = all pass).
    pub errors: Vec<String>,
    /// Report-only rows measured on the reference run.
    pub rows: Vec<(&'static str, &'static str, f64)>,
}

/// A workload: how to build and replay it, and how to probe it.
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Instances in the panel (see [`instance_seeds`]).
    pub instances: usize,
    /// Builds the workload's set-up for `seed` and drops it; returns the
    /// seconds the build took.
    pub setup: fn(u64) -> f64,
    /// Replays the workload once for `seed`.
    pub replay: fn(u64, Option<&mut LayerProbe>) -> (Replay, Outcome),
    /// Runs the scenario's own `run()` for `seed`.
    pub reference: fn(u64) -> Reference,
    /// Whether the workload's controller answers from a goodput table.
    pub uses_table: bool,
    /// The Algorithm 2 entry point its controller runs.
    pub alloc: AllocPath,
    /// Restarts per re-allocation epoch.
    pub restarts: usize,
}

/// Every workload, in report order.
pub const ALL: [Workload; 3] = [exact::WORKLOAD, soak::WORKLOAD, plane::WORKLOAD];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Seconds `build` takes; what it built is dropped after the clock
/// stops.
pub fn time_setup<T>(build: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    let built = build();
    let s = t.elapsed().as_secs_f64();
    drop(built);
    s
}

/// Mean predicted goodput after each re-allocation epoch (bits/s).
pub fn mean_after_bps(realloc: &[acorn_events::ReallocRecord]) -> f64 {
    if realloc.is_empty() {
        return 0.0;
    }
    realloc.iter().map(|r| r.after_bps).sum::<f64>() / realloc.len() as f64
}

/// Checkpoint times `k·period` strictly inside `(0, horizon)`.
pub fn checkpoints(first_s: f64, period_s: f64, horizon_s: f64) -> Vec<f64> {
    let mut out = Vec::new();
    let mut t = first_s;
    while t < horizon_s {
        out.push(t);
        t += period_s;
    }
    out
}

/// Runs `sim` to `end_s`. With a probe, stops at each checkpoint and
/// lets it look at the live world; returns the events dispatched and the
/// seconds the probe took. Stopping and resuming does not change the
/// dispatch order.
pub fn drive<W: Live, E: std::fmt::Debug>(
    sim: &mut Simulation<W, E>,
    checkpoints: &[f64],
    end_s: f64,
    probe: Option<&mut LayerProbe>,
) -> (u64, f64) {
    let mut probe_s = 0.0;
    if let Some(probe) = probe {
        for &t in checkpoints {
            sim.run(t);
            let t0 = Instant::now();
            probe.checkpoint(sim.world.view());
            probe_s += t0.elapsed().as_secs_f64();
        }
    }
    (sim.run(end_s).events, probe_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_events::{Histogram, Telemetry};

    #[test]
    fn unplaced_and_dropped_arrivals_count_as_failed() {
        let mut tel = Telemetry::new();
        tel.register_histogram(
            "association.delay_s",
            Histogram::linear(0.0, 0.01, 10).expect("valid bounds"),
        );
        for _ in 0..5 {
            tel.inc("sessions.arrivals");
        }
        for d in [0.001, 0.002, 0.003] {
            tel.observe("association.delay_s", d);
        }
        tel.inc("workload.saturated");
        // 5 handled + 1 dropped attempted; 3 placed, so 3 failed.
        assert_eq!(arrival_failures(&tel.snapshot()), (6, 3));
        assert_eq!(arrival_failures(&Telemetry::new().snapshot()), (0, 0));
    }

    #[test]
    fn checkpoints_stay_inside_the_horizon() {
        assert_eq!(checkpoints(300.0, 300.0, 1200.0), vec![300.0, 600.0, 900.0]);
        assert_eq!(
            checkpoints(10.0, 100.0, 210.0 + 1e-9),
            vec![10.0, 110.0, 210.0]
        );
        assert!(checkpoints(5.0, 1.0, 5.0).is_empty());
    }

    #[test]
    fn a_panel_has_distinct_seeds_that_follow_the_workload_seed() {
        let a = instance_seeds(7, 4);
        assert_eq!(a.len(), 4);
        assert!(a.iter().enumerate().all(|(i, x)| !a[i + 1..].contains(x)));
        assert_eq!(a, instance_seeds(7, 4));
        assert_eq!(a[..2], instance_seeds(7, 2)[..]);
        assert!(instance_seeds(8, 4).iter().all(|x| !a.contains(x)));
    }
}
