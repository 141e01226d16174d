//! `acornbench` — the ACORN controller's benchmark.
//!
//! ```text
//! acornbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rows <file>]
//! acornbench --diff <base-rows> <new-rows>
//! acornbench --reference [--seed <n>]
//! ```
//!
//! A run builds the named workload's panel of instances from the seed,
//! runs each instance's own `run()` once as its reference, then makes
//! passes over the panel, replaying every instance with each process
//! wrapped in a handler clock, while the next pass should end within
//! `--seconds` of the run's start (at least two passes). Every replay
//! must reproduce its reference exactly — event count, telemetry
//! snapshot, final state — or the run fails.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` stops each
//! replay at checkpoints for the layer probes and prints the per-layer
//! metrics (`--rows` also writes them, with report-only rows, for
//! `--diff`). The last line of standard output is the JSON result.

mod diff;
mod probe;
mod reference;
mod report;
mod stats;
mod workloads;
mod wrap;

use probe::LayerProbe;
use report::{Metric, Verdict};
use std::path::PathBuf;
use std::time::Instant;
use workloads::{compare, counter, stream, sub_seed, Outcome, Reference, Replay, Workload};
use wrap::Handler;

const USAGE: &str = "usage: acornbench --workload <exact-churn|soak-faults|plane-lossy> \
--seed <n> --seconds <s> --trace <0|1> [--rows <file>]\n       acornbench --diff <base-rows> <new-rows>\n       \
acornbench --reference [--seed <n>]";

/// Passes over the panel every run makes, however short `--seconds` is.
const MIN_PASSES: usize = 2;
/// Set-ups every run times per instance (replays' own set-ups included) …
const MIN_SETUPS: usize = 5;
/// … and the least time spent on them, so that a set-up of microseconds
/// still gets a median over many samples.
const MIN_SETUP_TIME_S: f64 = 0.25;

/// A benchmark run's settings.
struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rows: Option<PathBuf>,
}

enum Command {
    Run(RunArgs),
    Diff(PathBuf, PathBuf),
    Reference(u64),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut rows = None;
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    match args.first().map(String::as_str) {
        Some("--diff") => {
            let [_, a, b] = args else {
                return Err("--diff takes two row files".into());
            };
            return Ok(Command::Diff(a.into(), b.into()));
        }
        Some("--reference") => {
            return match args {
                [_] => Ok(Command::Reference(1)),
                [_, flag, n] if flag == "--seed" => n
                    .parse()
                    .map(Command::Reference)
                    .map_err(|e| format!("--seed {n:?}: {e}")),
                _ => Err("--reference takes only --seed <n>".into()),
            };
        }
        _ => {}
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                workload = Some(
                    workloads::by_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let v = value(&mut it, flag)?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v:?}: {e}"))?);
            }
            "--seconds" => {
                let v = value(&mut it, flag)?;
                let s: f64 = v.parse().map_err(|e| format!("--seconds {v:?}: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {v}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                let v = value(&mut it, flag)?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                });
            }
            "--rows" => rows = Some(PathBuf::from(value(&mut it, flag)?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        rows,
    }))
}

/// The commit of the checkout, read from `.git` without running git.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print_header(a: &RunArgs) {
    let on = |b: bool| if b { "on" } else { "off" };
    println!(
        "# acornbench workload={} seed={} seconds={} trace={}",
        a.workload.name, a.seed, a.seconds, a.trace as u8
    );
    println!("# commit: {}", commit());
    println!("# cpu: {}", cpu_model());
    println!(
        "# target features: avx2={} avx512f={} avx512bw={}",
        on(cfg!(target_feature = "avx2")),
        on(cfg!(target_feature = "avx512f")),
        on(cfg!(target_feature = "avx512bw")),
    );
    println!(
        "# nproc: {}  ACORN_THREADS (effective): {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        acorn_core::par::max_threads()
    );
}

/// What one run measured: per instance of the panel, its reference,
/// its replays (one per pass) and its set-up times; the replays that did
/// not reproduce their reference; and the process's peak RSS once the
/// references had run.
struct Panel {
    references: Vec<Reference>,
    replays: Vec<Vec<Replay>>,
    setups: Vec<Vec<f64>>,
    mismatches: Vec<String>,
    peak_rss_kb: u64,
}

impl Panel {
    /// The panel's value of a per-replay quantity: its median over each
    /// instance's replays, summed over the instances. The median keeps a
    /// slow replay from moving the result; the sum weighs every instance
    /// by the work it asks for.
    fn sum_med(&self, f: impl Fn(&Replay) -> f64) -> f64 {
        self.replays
            .iter()
            .map(|rs| {
                let v: Vec<f64> = rs.iter().map(&f).collect();
                stats::median(&v).unwrap_or(f64::NAN)
            })
            .sum()
    }

    /// Median host seconds of a replay, summed over the panel.
    fn wall_s(&self) -> f64 {
        self.sum_med(|r| r.wall_s)
    }

    /// Events one pass over the panel dispatches.
    fn events(&self) -> u64 {
        self.references.iter().map(|r| r.outcome.events).sum()
    }

    /// A telemetry counter summed over the instances' references.
    fn counter(&self, name: &str) -> u64 {
        self.references
            .iter()
            .map(|r| counter(&r.outcome.telemetry, name))
            .sum()
    }

    /// Calls of handler `h` in one pass (the first).
    fn calls(&self, h: Handler) -> u64 {
        self.replays.iter().map(|rs| rs[0].clock.calls(h)).sum()
    }

    /// Algorithm 1 decision latencies of every replay, in milliseconds.
    fn arrival_ms(&self) -> Vec<f64> {
        self.replays
            .iter()
            .flatten()
            .flat_map(|r| r.clock.arrival_s.iter().map(|s| s * 1e3))
            .collect()
    }

    /// Median set-up time of each instance, summed over the panel.
    fn setup_s(&self) -> Result<f64, String> {
        self.setups
            .iter()
            .map(|v| stats::median(v).ok_or_else(|| "no set-up was timed".to_string()))
            .sum()
    }
}

fn end_to_end(p: &Panel) -> Result<Vec<Metric>, String> {
    let arrivals = p.arrival_ms();
    let wall_s = p.wall_s();
    let network_bps =
        p.references.iter().map(|r| r.network_bps).sum::<f64>() / p.references.len() as f64;
    Ok(vec![
        Metric::new("setup_s", "s", p.setup_s()?),
        Metric::new("wall_s", "s", wall_s),
        Metric::new("events_per_s", "1/s", p.events() as f64 / wall_s),
        Metric::new(
            "arrival_ms_p50",
            "ms",
            stats::reportable_percentile(&arrivals, 0.5)?,
        ),
        Metric::new(
            "arrival_ms_p90",
            "ms",
            stats::reportable_percentile(&arrivals, 0.9)?,
        ),
        Metric::new("peak_rss_mb", "MB", p.peak_rss_kb as f64 / 1024.0),
        Metric::new("network_mbps", "Mbit/s", network_bps / 1e6),
    ])
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The per-layer metrics (first) and the report-only rows (second).
fn per_layer(p: &Panel, probe: &LayerProbe) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    use acorn_obs::names;
    let c = |name: &str| p.counter(name);
    let probe_med = |name: &'static str| -> Result<f64, String> {
        probe
            .samples
            .get(name)
            .and_then(|v| stats::median(v))
            .ok_or_else(|| format!("the layer probe took no {name} sample"))
    };
    let n_aps: u64 = p
        .references
        .iter()
        .map(|r| r.outcome.state.assignments.len() as u64)
        .sum();
    let wall_s = p.wall_s();
    let (hits, misses) = (c(names::TABLE_HITS), c(names::TABLE_MISSES));
    let sent = c(names::CTRL_MSGS_SENT);
    let mut layer = vec![
        Metric::new("events.dispatched", "count", p.events() as f64),
        Metric::new(
            "events.kernel_s",
            "s",
            p.sum_med(|r| r.wall_s - r.clock.total_busy_s()),
        ),
        Metric::new(
            "events.handler_s",
            "s",
            p.sum_med(|r| r.clock.total_busy_s()),
        ),
        Metric::new(
            "events.realloc_s",
            "s",
            p.sum_med(|r| r.clock.busy_s(Handler::Realloc)),
        ),
        Metric::new(
            "events.realloc.n",
            "count",
            p.calls(Handler::Realloc) as f64,
        ),
        Metric::new("phy.table_build_s", "s", probe.table_build_s),
        Metric::new("phy.table.hits", "count", hits as f64),
        Metric::new("phy.table.misses", "count", misses as f64),
        Metric::new("phy.table.hit_ratio", "ratio", ratio(hits, hits + misses)),
        Metric::new(
            "model.cell_base_rebuilds",
            "count",
            c(names::MODEL_REBUILDS) as f64,
        ),
        Metric::new(
            "model.delta_evals",
            "count",
            c(names::MODEL_DELTA_EVALS) as f64,
        ),
        Metric::new(
            "assoc.candidates_per_choice",
            "ratio",
            ratio(c(names::ASSOC_CANDIDATES), c(names::ASSOC_CHOICES)),
        ),
        Metric::new("alloc.rounds", "count", c(names::ALLOC_ROUNDS) as f64),
        Metric::new(
            "alloc.iterations",
            "count",
            c(names::ALLOC_ITERATIONS) as f64,
        ),
        Metric::new(
            "alloc.switch_yield",
            "ratio",
            ratio(c(names::ALLOC_SWITCHES), c(names::ALLOC_ITERATIONS)),
        ),
        Metric::new(
            "wire.frames_sent",
            "count",
            (c("faults.frames_sent") + c(names::CTRL_FRAMES_SENT)) as f64,
        ),
        Metric::new(
            "wire.frames_lost",
            "count",
            (c("faults.frames_lost") + c(names::CTRL_FRAMES_LOST)) as f64,
        ),
        Metric::new(
            "wire.parse_errors",
            "count",
            (c("faults.parse_errors") + c(names::CTRL_PARSE_ERRORS)) as f64,
        ),
        Metric::new("ctrl.msgs.sent", "count", sent as f64),
        Metric::new(
            "ctrl.msgs.retransmitted",
            "count",
            c(names::CTRL_MSGS_RETRANSMITTED) as f64,
        ),
        Metric::new(
            "ctrl.msgs.deduped",
            "count",
            c(names::CTRL_MSGS_DEDUPED) as f64,
        ),
        Metric::new(
            "ctrl.msgs.expired",
            "count",
            c(names::CTRL_MSGS_EXPIRED) as f64,
        ),
        Metric::new(
            "ctrl.ack_ratio",
            "ratio",
            ratio(c(names::CTRL_MSGS_ACKED), sent),
        ),
        Metric::new("ctrl.msgs_per_ap", "ratio", ratio(sent, n_aps)),
        Metric::new("soak.watchdog_checks", "count", c("watchdog.checks") as f64),
    ];
    for (name, unit) in [
        ("phy.estimate_us", "us"),
        ("phy.table_lookup_ns", "ns"),
        ("topology.graph_ms", "ms"),
        ("model.build_ms", "ms"),
        ("model.total_bps_ms", "ms"),
        ("assoc.candidates_ms", "ms"),
        ("assoc.adapt_widths_ms", "ms"),
        ("alloc.epoch_ms", "ms"),
        ("wire.encode_us", "us"),
        ("wire.parse_us", "us"),
        ("obs.sketch_insert_ns", "ns"),
    ] {
        layer.push(Metric::new(name, unit, probe_med(name)?));
    }

    // Report-only rows: the per-handler split, shares of the run, the
    // probe's own cost and what the reference measured.
    let mut rows = vec![
        Metric::new("setup_s", "s", p.sum_med(|r| r.setup_s)),
        Metric::new("wall_s", "s", wall_s),
        Metric::new("probe.overhead_s", "s", p.sum_med(|r| r.probe_s)),
        Metric::new("arrival.samples", "count", p.arrival_ms().len() as f64),
        Metric::new(
            "events.kernel_share",
            "ratio",
            p.sum_med(|r| r.wall_s - r.clock.total_busy_s()) / wall_s,
        ),
    ];
    for h in Handler::ALL.into_iter().filter(|&h| p.calls(h) > 0) {
        let stem = format!("events.{}", h.name());
        // The re-allocation handler's time and count are per-layer
        // metrics already.
        if h != Handler::Realloc {
            rows.push(Metric::new(
                format!("{stem}_s"),
                "s",
                p.sum_med(|r| r.clock.busy_s(h)),
            ));
            rows.push(Metric::new(format!("{stem}.n"), "count", p.calls(h) as f64));
        }
        rows.push(Metric::new(
            format!("{stem}_share"),
            "ratio",
            p.sum_med(|r| r.clock.busy_s(h)) / wall_s,
        ));
    }
    // What the references measured: the median over the instances.
    for (k, &(n, u, _)) in p.references[0].rows.iter().enumerate() {
        let v: Vec<f64> = p.references.iter().map(|r| r.rows[k].2).collect();
        rows.push(Metric::new(n, u, stats::median(&v).unwrap_or(f64::NAN)));
    }
    Ok((layer, rows))
}

/// Checks replay `i` of instance `k` against the instance's reference.
fn check(k: usize, i: usize, got: &Outcome, reference: &Reference) -> Result<(), String> {
    compare(got, &reference.outcome).map_err(|e| format!("instance {k}, replay {i}: {e}"))
}

/// The verdict on a panel and every error found: the references' own
/// checks, the replays' mismatches, and a run that attempted nothing.
fn evaluate(p: &Panel) -> (Verdict, Vec<String>) {
    let mut errors = Vec::new();
    for (k, reference) in p.references.iter().enumerate() {
        errors.extend(
            reference
                .errors
                .iter()
                .map(|e| format!("instance {k}: {e}")),
        );
    }
    errors.extend(p.mismatches.iter().cloned());
    let attempted = p.replays.iter().flatten().map(|r| r.attempted).sum::<u64>();
    let failed = p.replays.iter().flatten().map(|r| r.failed).sum::<u64>();
    if attempted == 0 {
        errors.push("no operation was attempted".into());
    }
    let verdict = Verdict {
        correct: errors.is_empty(),
        attempted,
        failed,
    };
    (verdict, errors)
}

/// Process exit code for a verdict: a mismatch fails the command.
fn exit_code(v: &Verdict) -> i32 {
    if v.correct {
        0
    } else {
        1
    }
}

fn run(a: &RunArgs) -> Result<i32, String> {
    print_header(a);
    let w = a.workload;
    let seeds = workloads::instance_seeds(a.seed, w.instances);
    // `--seconds` bounds the whole run, references included: a pass
    // starts only if it should end in time (bar the first two), so a slow
    // host makes fewer passes rather than a longer run.
    let started = Instant::now();
    // The references also warm the caches before anything is timed.
    let references: Vec<Reference> = seeds.iter().map(|&s| (w.reference)(s)).collect();
    // Read now: what the replays keep for the metrics grows with the
    // passes a run makes, and the program's peak must not.
    let peak_rss_kb = acorn_soak::peak_rss_kb().ok_or("VmHWM is not readable")?;
    let mut probe = a.trace.then(|| {
        LayerProbe::new(
            w.uses_table,
            w.alloc,
            w.restarts,
            sub_seed(a.seed, stream::SCENARIO),
        )
    });
    let mut replays: Vec<Vec<Replay>> = seeds.iter().map(|_| Vec::new()).collect();
    let mut mismatches = Vec::new();
    let mut passes = 0;
    let mut last_pass_s = 0.0;
    while passes < MIN_PASSES || started.elapsed().as_secs_f64() + last_pass_s <= a.seconds {
        let t = Instant::now();
        let mut pass_s = 0.0;
        for (k, (rs, &s)) in replays.iter_mut().zip(&seeds).enumerate() {
            let (r, outcome) = (w.replay)(s, probe.as_mut());
            if let Err(e) = check(k, rs.len(), &outcome, &references[k]) {
                mismatches.push(e);
            }
            pass_s += r.wall_s;
            rs.push(r);
        }
        last_pass_s = t.elapsed().as_secs_f64();
        passes += 1;
        println!("# pass {passes}: wall_s {pass_s}");
    }
    let mut setups: Vec<Vec<f64>> = replays
        .iter()
        .map(|rs| rs.iter().map(|r| r.setup_s).collect())
        .collect();
    let setup_time = |v: &[Vec<f64>]| v.iter().flatten().sum::<f64>();
    while setups[0].len() < MIN_SETUPS || setup_time(&setups) < MIN_SETUP_TIME_S {
        for (v, &s) in setups.iter_mut().zip(&seeds) {
            v.push((w.setup)(s));
        }
    }
    let panel = Panel {
        references,
        replays,
        setups,
        mismatches,
        peak_rss_kb,
    };
    let (verdict, errors) = evaluate(&panel);
    for e in &errors {
        eprintln!("acornbench: MISMATCH on {}: {e}", w.name);
    }
    println!(
        "# instances: {}  passes: {}  set-ups per instance: {}  events per pass: {}  arrival samples: {}",
        seeds.len(),
        passes,
        panel.setups[0].len(),
        panel.events(),
        panel.arrival_ms().len()
    );
    let metrics = match &probe {
        None => end_to_end(&panel)?,
        Some(p) => {
            let (layer, extra) = per_layer(&panel, p)?;
            let all: Vec<Metric> = layer.iter().chain(&extra).cloned().collect();
            for m in &all {
                println!("# {:<32} {:>18} {}", m.name, m.value, m.unit);
            }
            if let Some(path) = &a.rows {
                std::fs::write(path, report::to_rows(&all))
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            }
            layer
        }
    };
    println!("{}", report::result_line(&verdict, &metrics)?);
    Ok(exit_code(&verdict))
}

fn run_diff(base: &PathBuf, new: &PathBuf) -> Result<i32, String> {
    let load = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {}: {e}", p.display()))
            .and_then(|t| report::parse_rows(&t))
    };
    let rows = diff::diff(&load(base)?, &load(new)?);
    print!("{}", diff::render(&rows));
    Ok(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(e) => Err(format!("{e}\n{USAGE}")),
        Ok(Command::Run(a)) => run(&a),
        Ok(Command::Diff(a, b)) => run_diff(&a, &b),
        Ok(Command::Reference(seed)) => {
            reference::run(seed);
            Ok(0)
        }
    };
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("acornbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acorn_core::NetworkState;
    use acorn_events::Telemetry;

    fn outcome(events: u64) -> Outcome {
        Outcome {
            events,
            telemetry: Telemetry::new().snapshot(),
            state: NetworkState {
                assignments: Vec::new(),
                assoc: Vec::new(),
                operating_width: Vec::new(),
            },
        }
    }

    fn replay(events: u64, attempted: u64, failed: u64) -> (Replay, Outcome) {
        let r = Replay {
            setup_s: 0.1,
            wall_s: 1.0,
            probe_s: 0.0,
            clock: wrap::Clock::default(),
            attempted,
            failed,
        };
        (r, outcome(events))
    }

    fn reference(events: u64, errors: Vec<String>) -> Reference {
        Reference {
            outcome: outcome(events),
            network_bps: 1.0,
            errors,
            rows: Vec::new(),
        }
    }

    /// A panel of one instance per `(reference, replays)` pair, each
    /// replay checked as `run` checks it.
    fn panel(instances: Vec<(Reference, Vec<(Replay, Outcome)>)>) -> Panel {
        let mut p = Panel {
            references: Vec::new(),
            replays: Vec::new(),
            setups: Vec::new(),
            mismatches: Vec::new(),
            peak_rss_kb: 0,
        };
        for (k, (reference, runs)) in instances.into_iter().enumerate() {
            let mut rs = Vec::new();
            for (i, (r, outcome)) in runs.into_iter().enumerate() {
                p.mismatches.extend(check(k, i, &outcome, &reference).err());
                rs.push(r);
            }
            p.setups.push(rs.iter().map(|r| r.setup_s).collect());
            p.replays.push(rs);
            p.references.push(reference);
        }
        p
    }

    #[test]
    fn matching_replays_pass_and_sum_their_operations() {
        let (v, errors) = evaluate(&panel(vec![
            (
                reference(10, vec![]),
                vec![replay(10, 4, 1), replay(10, 4, 1)],
            ),
            (reference(7, vec![]), vec![replay(7, 3, 0), replay(7, 3, 0)]),
        ]));
        assert!(errors.is_empty(), "{errors:?}");
        assert!(v.correct);
        assert_eq!((v.attempted, v.failed), (14, 2));
        assert_eq!(exit_code(&v), 0);
    }

    #[test]
    fn a_mismatch_fails_the_command() {
        let (v, errors) = evaluate(&panel(vec![
            (
                reference(10, vec![]),
                vec![replay(10, 4, 0), replay(10, 4, 0)],
            ),
            (reference(7, vec![]), vec![replay(7, 4, 0), replay(8, 4, 0)]),
        ]));
        assert!(!v.correct);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].starts_with("instance 1, replay 1:"), "{errors:?}");
        assert_eq!(exit_code(&v), 1);
        let line = report::result_line(&v, &[]).unwrap();
        assert!(line.starts_with("{\"correct\": false"), "{line}");
    }

    #[test]
    fn a_failed_workload_check_fails_the_command() {
        let (v, _) = evaluate(&panel(vec![(
            reference(10, vec!["watchdog".into()]),
            vec![replay(10, 4, 0)],
        )]));
        assert_eq!(exit_code(&v), 1);
    }

    #[test]
    fn a_run_with_no_operation_fails() {
        let (v, errors) = evaluate(&panel(vec![(
            reference(10, vec![]),
            vec![replay(10, 0, 0)],
        )]));
        assert!(!v.correct, "{errors:?}");
    }

    #[test]
    fn a_panel_sums_per_instance_medians() {
        let timed = |wall_s: f64, events: u64| {
            let (r, outcome) = replay(events, 1, 0);
            (Replay { wall_s, ..r }, outcome)
        };
        let p = panel(vec![
            (
                reference(10, vec![]),
                vec![timed(1.0, 10), timed(9.0, 10), timed(2.0, 10)],
            ),
            (reference(30, vec![]), vec![timed(3.0, 30), timed(4.0, 30)]),
        ]);
        // Median 2.0 of the first instance (the slow replay is ignored),
        // lower median 3.0 of the second.
        assert_eq!(p.wall_s(), 5.0);
        assert_eq!(p.events(), 40);
        assert_eq!(p.setup_s(), Ok(0.2));
    }

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let ok = parse_args(&args(
            "--workload soak-faults --seed 9 --seconds 10 --trace 1",
        ));
        let Ok(Command::Run(a)) = ok else {
            panic!("a full command line must parse");
        };
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("soak-faults", 9, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload soak-faults --seed x --seconds 1 --trace 0",
            "--workload soak-faults --seed 1 --seconds 1 --trace 2",
            "--workload soak-faults --seed 1 --trace 0",
            "--workload soak-faults --seed 1 --seconds 1 --trace 0 --extra",
            "--diff only-one",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
        assert!(matches!(
            parse_args(&args("--diff a b")),
            Ok(Command::Diff(..))
        ));
        assert!(matches!(
            parse_args(&args("--reference --seed 4")),
            Ok(Command::Reference(4))
        ));
    }
}
