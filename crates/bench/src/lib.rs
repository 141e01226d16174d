//! # acorn-bench — experiment binaries and snapshots
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index). Every binary prints the paper-style rows/series to stdout and
//! writes a JSON record under `results/` so EXPERIMENTS.md can cite exact
//! numbers.
//!
//! The `bench_*` binaries write the `BENCH_*.json` snapshots at the repo
//! root; `scripts/bench_snapshot.sh` refreshes all five. `bench_snapshot`
//! times the baseband engine; `bench_dcb`, `bench_faults`,
//! `bench_distributed` and `bench_soak` record experiment results with
//! their wall time. The controller path is timed by the `acornbench`
//! package, not here.
//!
//! Run them all with:
//!
//! ```text
//! for b in fig01_psd fig02_constellation fig03_ber fig04_per fig05_sigma \
//!          table1_transitions fig06_throughput fig08_channels \
//!          fig09_durations fig10_topologies fig11_interference \
//!          table3_random fig13_mobility fig14_approx; do
//!     cargo run --release -p acorn-bench --bin $b
//! done
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_counter;

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Directory experiment outputs are written to (repo-relative), override
/// with `ACORN_RESULTS_DIR`.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("ACORN_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// Serializes an experiment record to `results/<name>.json` (best-effort:
/// failures are reported but not fatal, so binaries still print their
/// tables on read-only filesystems).
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = fs::write(&path, s) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("[saved {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }
}

/// Prints a section header in a consistent style.
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Formats a throughput in Mbit/s with two decimals.
pub fn mbps(bps: f64) -> String {
    format!("{:.2}", bps / 1e6)
}

/// A generic (x, series…) row dump: prints a column-aligned table.
pub fn print_table(columns: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&columns.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mbps_formatting() {
        assert_eq!(mbps(65.0e6), "65.00");
        assert_eq!(mbps(1.5e6), "1.50");
    }

    #[test]
    fn results_dir_has_a_default() {
        assert!(!results_dir().as_os_str().is_empty());
    }

    #[test]
    fn print_table_does_not_panic_on_ragged_rows() {
        print_table(
            &["a", "b"],
            &[
                vec!["1".into()],
                vec!["22".into(), "333".into(), "x".into()],
            ],
        );
    }
}
