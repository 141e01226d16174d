//! Wall-clock snapshot of the event runtime, written to
//! `BENCH_events.json` at the repo root (plus the 25-AP composite's
//! telemetry snapshot under `results/`):
//!
//! * **Kernel micro-benchmark** — a self-scheduling no-op process
//!   churning the queue: pure `(schedule, pop, dispatch)` overhead in
//!   events/second.
//! * **Composite scaling** — session workloads whose arrival rate scales
//!   with the deployment (`n_aps / 300` arrivals per second, i.e. the
//!   per-AP enterprise rate), so client count grows with AP count
//!   instead of pinning every row at a 16-client trace:
//!   - the 25-AP enterprise grid runs the exact
//!     [`CompositeScenario`] (full per-event model rebuilds, mobility,
//!     drift) — the reference semantics;
//!   - the 400-AP and 10k-AP city grids run the [`CityScenario`]
//!     (spatial-index candidates, incremental conflict graph, sharded
//!     re-allocation, memoized goodput table) — the path built for
//!     city-scale deployments, where the exact composite's O(network)
//!     per-event cost is the bottleneck being measured away;
//!   - the 400-AP city grid runs once more on an exact controller
//!     (no goodput table, only the exact per-SNR estimate memo): the
//!     `city-exact` row, which measures what the quantized table still
//!     buys over exact estimation at city scale.

use acorn_bench::{header, save_json};
use acorn_core::{AcornConfig, AcornController};
use acorn_events::{
    CityScenario, CompositeScenario, Ctx, DriftSpec, MobilitySpec, Process, Simulation,
    TelemetrySnapshot,
};
use acorn_phy::{GoodputTable, LinkQualityEstimator};
use acorn_sim::scenario::{city_grid, enterprise_grid};
use acorn_topology::{ClientId, Point, Trajectory};
use acorn_traces::{AssociationDurations, SessionGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

const MICRO_EVENTS: u64 = 500_000;
const HORIZON_S: f64 = 3600.0;

#[derive(Serialize)]
struct ScenarioBench {
    mode: &'static str,
    n_aps: usize,
    n_clients: usize,
    sessions: usize,
    events: u64,
    wall_s: f64,
    events_per_s: f64,
    reallocations: u64,
    /// Exact estimate-memo hits and misses over the run (`None` on a
    /// goodput-table controller, which has no memo).
    memo_hits: Option<u64>,
    memo_misses: Option<u64>,
}

#[derive(Serialize)]
struct BenchEvents {
    micro_events: u64,
    micro_wall_s: f64,
    micro_events_per_s: f64,
    scenarios: Vec<ScenarioBench>,
}

/// A no-op self-scheduler: the cheapest possible process, so the measured
/// rate is the kernel's own dispatch overhead.
struct Spinner {
    remaining: u64,
}

impl Process<u64, ()> for Spinner {
    fn start(&mut self, ctx: &mut Ctx<'_, u64, ()>) {
        ctx.schedule_after(1.0, ());
    }
    fn handle(&mut self, _e: &(), ctx: &mut Ctx<'_, u64, ()>) {
        *ctx.world += 1;
        self.remaining -= 1;
        if self.remaining > 0 {
            ctx.schedule_after(1.0, ());
        }
    }
}

fn micro() -> (u64, f64) {
    let mut sim: Simulation<u64, ()> = Simulation::new(0);
    sim.add_process(Box::new(Spinner {
        remaining: MICRO_EVENTS,
    }));
    let t0 = Instant::now();
    let stats = sim.run_to_completion();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(stats.events, MICRO_EVENTS);
    assert_eq!(sim.world, MICRO_EVENTS);
    (stats.events, wall)
}

/// The deployment-scaled session workload: `n_aps / 300` arrivals per
/// second (one per 5 minutes per AP), CRAWDAD-fit durations.
fn scaled_sessions(n_aps: usize, seed: u64) -> Vec<acorn_traces::Session> {
    let mut rng = StdRng::seed_from_u64(seed);
    SessionGenerator {
        arrival_rate_per_s: n_aps as f64 / 300.0,
        durations: AssociationDurations::default(),
    }
    .generate(&mut rng, HORIZON_S)
}

fn composite(side: usize, seed: u64) -> (ScenarioBench, TelemetrySnapshot) {
    let n_aps = side * side;
    let sessions = scaled_sessions(n_aps, seed);
    // One spare slot for the walking client.
    let n_clients = sessions.len().max(1) + 1;
    let wlan = enterprise_grid(side, side, 50.0, n_clients, seed);
    let ctl = AcornController::new(AcornConfig::default());
    let mobile = ClientId(n_clients - 1);
    let from = wlan.clients[mobile.0].pos;
    let scenario = CompositeScenario {
        wlan,
        sessions: sessions.clone(),
        horizon_s: HORIZON_S,
        reallocation_period_s: 1800.0,
        restarts: 2,
        adapt_widths: true,
        mobility: Some(MobilitySpec {
            client: mobile,
            trajectory: Trajectory {
                from,
                to: Point::new(from.x + 50.0, from.y),
                speed_mps: 0.02,
            },
            sample_period_s: 60.0,
        }),
        drift: Some(DriftSpec {
            period_s: 600.0,
            phase_step_rad: 0.02,
        }),
        faults: None,
        seed,
        record_log: false,
    };
    let t0 = Instant::now();
    let report = scenario.run(&ctl);
    let wall = t0.elapsed().as_secs_f64();
    (
        ScenarioBench {
            mode: "exact",
            n_aps,
            n_clients,
            sessions: sessions.len(),
            events: report.stats.events,
            wall_s: wall,
            events_per_s: report.stats.events as f64 / wall,
            reallocations: report.realloc.len() as u64,
            memo_hits: ctl.memo_stats().map(|m| m.hits),
            memo_misses: ctl.memo_stats().map(|m| m.misses),
        },
        report.telemetry,
    )
}

/// A city run; `exact` swaps the goodput-table controller for an exact
/// one (estimate memo only).
fn city(districts_per_side: usize, seed: u64, exact: bool) -> ScenarioBench {
    let aps_per_district_side = 4usize;
    let n_aps = districts_per_side * districts_per_side * aps_per_district_side.pow(2);
    let sessions = scaled_sessions(n_aps, seed);
    let n_clients = sessions.len().max(1);
    let wlan = city_grid(districts_per_side, aps_per_district_side, n_clients, seed);
    let ctl = if exact {
        AcornController::new(AcornConfig::default())
    } else {
        let table = Arc::new(GoodputTable::new(LinkQualityEstimator::default()));
        AcornController::with_table(AcornConfig::default(), table)
    };
    let scenario = CityScenario {
        wlan,
        sessions: sessions.clone(),
        horizon_s: HORIZON_S,
        reallocation_period_s: 1800.0,
        restarts: 2,
        candidate_radius_m: 120.0,
        adapt_widths: true,
        drift: Some(DriftSpec {
            period_s: 600.0,
            phase_step_rad: 0.02,
        }),
        faults: None,
        seed,
        record_log: false,
    };
    let t0 = Instant::now();
    let report = scenario.run(&ctl);
    let wall = t0.elapsed().as_secs_f64();
    ScenarioBench {
        mode: if exact { "city-exact" } else { "city" },
        n_aps,
        n_clients,
        sessions: sessions.len(),
        events: report.stats.events,
        wall_s: wall,
        events_per_s: report.stats.events as f64 / wall,
        reallocations: report.realloc.len() as u64,
        memo_hits: ctl.memo_stats().map(|m| m.hits),
        memo_misses: ctl.memo_stats().map(|m| m.misses),
    }
}

fn print_row(b: &ScenarioBench) {
    println!(
        "[{}] {} APs, {} clients, {} sessions: {} events in {:.3} s -> {:.0} events/s ({} reallocations)",
        b.mode, b.n_aps, b.n_clients, b.sessions, b.events, b.wall_s, b.events_per_s, b.reallocations
    );
    if let (Some(hits), Some(misses)) = (b.memo_hits, b.memo_misses) {
        println!("  estimate memo: {hits} hits, {misses} misses");
    }
}

fn main() {
    header("event runtime: kernel micro-benchmark");
    let (events, wall) = micro();
    let micro_rate = events as f64 / wall;
    println!("{events} no-op events in {wall:.3} s -> {micro_rate:.0} events/s");

    let mut scenarios = Vec::new();

    header("event runtime: exact composite churn+mobility+drift, 5x5 grid");
    let (b, telemetry) = composite(5, 42);
    print_row(&b);
    save_json("events_composite", &telemetry);
    scenarios.push(b);

    for (districts, exact) in [(5usize, false), (25, false), (5, true)] {
        let path = if exact { "exact memo" } else { "goodput table" };
        header(&format!(
            "event runtime: city churn+drift, {districts}x{districts} districts x 16 APs, {path}"
        ));
        let b = city(districts, 42, exact);
        print_row(&b);
        scenarios.push(b);
    }

    let record = BenchEvents {
        micro_events: events,
        micro_wall_s: wall,
        micro_events_per_s: micro_rate,
        scenarios,
    };
    match serde_json::to_string_pretty(&record) {
        Ok(s) => {
            if let Err(e) = std::fs::write("BENCH_events.json", s) {
                eprintln!("warning: cannot write BENCH_events.json: {e}");
            } else {
                println!("\n[saved BENCH_events.json]");
            }
        }
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }
}
