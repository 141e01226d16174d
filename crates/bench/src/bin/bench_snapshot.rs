//! Wall-clock snapshot of the baseband Monte-Carlo engine, written to
//! `BENCH_baseband.json` in the current directory (the repo root when
//! launched via `scripts/bench_snapshot.sh`): on the Fig. 3 configs
//! (1500-byte QPSK frames, 20 MHz, coded and uncoded), single-thread
//! packets/sec, the 1/2/8-thread bit-identity check and the measured
//! steady-state allocations per packet. The controller path (Algorithms
//! 1 and 2) is timed by the `acornbench` package instead.

use acorn_baseband::frame::{
    mix_seed, run_trial_with, try_run_trial, Equalization, FrameConfig, FrameWorkspace, SyncMode,
};
use acorn_baseband::ChannelModel;
use acorn_baseband::PACKET_CHUNK;
use acorn_bench::alloc_counter::allocations_during;
use acorn_bench::header;
use acorn_phy::{ChannelWidth, CodeRate, Modulation};
use serde::Serialize;
use std::time::Instant;

const REPS: usize = 5;

/// Best-of-`REPS` wall-clock seconds for `f`.
fn time_best<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best, out.expect("REPS >= 1"))
}

#[derive(Serialize)]
struct BasebandConfigBench {
    label: String,
    packets: usize,
    /// Workspace engine at ACORN_THREADS=1: packets/sec.
    engine_pkt_per_s: f64,
    /// Heap allocation events per packet in the engine's steady state
    /// (workspace warm, single-threaded — exact count, not an estimate).
    engine_allocs_per_packet: f64,
    /// try_run_trial reports are bit-identical at 1, 2 and 8 threads.
    parallel_bit_identical: bool,
    /// Per-worker packet batch handed to `run_packets` (PACKET_CHUNK).
    batch_packets: usize,
    /// The `-C target-cpu` the engine binary was compiled with
    /// (`.cargo/config.toml`); lane-kernel throughput depends on it.
    target_cpu: String,
}

#[derive(Serialize)]
struct BenchBaseband {
    reps: usize,
    configs: Vec<BasebandConfigBench>,
}

/// The Fig. 3 operating point: 1500-byte QPSK at 7 dB per-subcarrier SNR
/// on a 20 MHz AWGN channel — coded (the acceptance config) and uncoded.
fn fig03_config(code_rate: Option<CodeRate>) -> FrameConfig {
    FrameConfig {
        width: ChannelWidth::Ht20,
        modulation: Modulation::Qpsk,
        code_rate,
        stbc: false,
        tx_power: 1.0,
        noise_density: 1.0,
        channel: ChannelModel::Awgn,
        packet_bytes: 1500,
        sync: SyncMode::Genie,
        equalization: Equalization::Training { symbols: 4 },
        gi: acorn_phy::GuardInterval::Long,
    }
    .with_target_snr(7.0)
}

fn bench_baseband_config(label: &str, cfg: &FrameConfig, packets: usize) -> BasebandConfigBench {
    let seed = 2010u64;
    std::env::set_var("ACORN_THREADS", "1");

    // Warm-up, then exact steady-state allocation counts for the packet
    // hot path (single-threaded, so the counter sees only this pipeline).
    // Measured over bare run_packet calls: trial-level bookkeeping (the
    // report's constellation sample) is amortized per trial, not per
    // packet, and is excluded here.
    let mut ws = FrameWorkspace::new();
    run_trial_with(cfg, 3, seed, &mut ws).expect("valid config");
    let (engine_allocs, _) = allocations_during(|| {
        for i in 0..packets {
            ws.run_packet(cfg, mix_seed(seed, i as u64))
                .expect("valid config");
        }
    });
    let (t_engine, _) =
        time_best(|| run_trial_with(cfg, packets, seed, &mut ws).expect("valid config"));

    // Determinism across thread counts, on the exact snapshot config.
    let mut reports = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var("ACORN_THREADS", threads);
        reports.push(try_run_trial(cfg, packets.min(40), seed).expect("valid config"));
    }
    std::env::remove_var("ACORN_THREADS");
    let identical = reports.windows(2).all(|w| w[0] == w[1]);
    assert!(identical, "{label}: thread count changed the report");

    BasebandConfigBench {
        label: label.to_string(),
        packets,
        engine_pkt_per_s: packets as f64 / t_engine,
        engine_allocs_per_packet: engine_allocs as f64 / packets as f64,
        parallel_bit_identical: identical,
        batch_packets: PACKET_CHUNK,
        target_cpu: effective_target_cpu(),
    }
}

/// The widest SIMD tier compiled into this binary — the observable effect
/// of `.cargo/config.toml`'s `-C target-cpu=native` on the machine the
/// snapshot ran on, recorded so rows from different hosts are comparable.
fn effective_target_cpu() -> String {
    let tier = if cfg!(target_feature = "avx512bw") {
        "avx512bw"
    } else if cfg!(target_feature = "avx2") {
        "avx2"
    } else if cfg!(target_feature = "sse2") {
        "sse2"
    } else {
        "baseline"
    };
    format!("native ({tier})")
}

fn bench_baseband() -> BenchBaseband {
    header("Baseband-engine snapshot: Fig. 3 QPSK frames on the workspace engine");
    let configs = vec![
        bench_baseband_config(
            "qpsk-r12-20mhz-1500B",
            &fig03_config(Some(CodeRate::R12)),
            60,
        ),
        bench_baseband_config("qpsk-uncoded-20mhz-1500B", &fig03_config(None), 150),
    ];
    for c in &configs {
        println!(
            "{}: engine {:.0} pkt/s, {:.2} allocs/pkt steady state, parallel identical: {}",
            c.label, c.engine_pkt_per_s, c.engine_allocs_per_packet, c.parallel_bit_identical,
        );
    }
    BenchBaseband {
        reps: REPS,
        configs,
    }
}

fn main() {
    let baseband = bench_baseband();
    match serde_json::to_string_pretty(&baseband) {
        Ok(s) => {
            std::fs::write("BENCH_baseband.json", s).expect("write BENCH_baseband.json");
            println!("[saved BENCH_baseband.json]");
        }
        Err(e) => eprintln!("warning: serialization failed: {e}"),
    }
}
