//! The disabled-observability overhead gate.
//!
//! The observability layer's core promise is that a [`NullSink`] costs
//! nothing: the baseband packet path must stay zero-allocation once the
//! workspace is warm, whether instrumented or not, and the instrumented
//! path must produce bit-identical outcomes. This test runs under the
//! counting global allocator `acorn-bench` installs, so the claim is
//! measured rather than asserted on faith. `scripts/ci.sh` runs it as the
//! overhead gate.
//!
//! The counting allocator is process-global, so a count is only meaningful
//! while no other thread allocates: every test here holds [`serial`] for
//! its whole run, keeping the harness's parallel test threads out of each
//! other's measurements.

use acorn_baseband::{mix_seed, FrameConfig, FrameWorkspace};
use acorn_bench::alloc_counter::allocations_during;
use acorn_obs::{NullSink, RecordingSink, Sink};
use acorn_phy::ChannelWidth;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serializes this file's tests (see the module docs). A test that fails
/// while holding the lock poisons it; the others still run.
///
/// When one test releases the lock, the harness starts the next test's
/// thread, which allocates its name and output buffer before it blocks
/// here. The short settle after acquiring keeps that start-up out of the
/// measured window.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    let guard = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    std::thread::sleep(Duration::from_millis(20));
    guard
}

fn warm_config() -> FrameConfig {
    let mut cfg = FrameConfig::baseline(ChannelWidth::Ht20);
    cfg.packet_bytes = 200;
    cfg
}

#[test]
fn null_sink_keeps_the_packet_path_allocation_free() {
    let _serial = serial();
    let cfg = warm_config();
    let mut ws = FrameWorkspace::new();
    // Warm-up: buffers grow to steady state on the first packets.
    for i in 0..4u64 {
        ws.run_packet_obs(&cfg, mix_seed(7, i), &NullSink).unwrap();
    }
    let (allocs, _) = allocations_during(|| {
        for i in 4..20u64 {
            ws.run_packet_obs(&cfg, mix_seed(7, i), &NullSink).unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "instrumented packet path must stay zero-alloc with NullSink"
    );
}

#[test]
fn plain_and_null_sink_paths_are_bit_identical() {
    let _serial = serial();
    let cfg = warm_config();
    let mut ws_plain = FrameWorkspace::new();
    let mut ws_obs = FrameWorkspace::new();
    for i in 0..8u64 {
        let seed = mix_seed(11, i);
        let a = ws_plain.run_packet(&cfg, seed).unwrap();
        let b = ws_obs.run_packet_obs(&cfg, seed, &NullSink).unwrap();
        assert_eq!(a.bits, b.bits);
        assert_eq!(a.bit_errors, b.bit_errors);
        assert_eq!(a.sync_failed, b.sync_failed);
        assert_eq!(a.tx_power.to_bits(), b.tx_power.to_bits());
        assert_eq!(a.evm_sum.to_bits(), b.evm_sum.to_bits());
        assert_eq!(a.evm_n, b.evm_n);
    }
}

#[test]
fn batched_null_sink_path_is_allocation_free() {
    let _serial = serial();
    let cfg = warm_config();
    let mut ws = FrameWorkspace::new();
    let seeds: Vec<u64> = (0..16u64).map(|i| mix_seed(7, i)).collect();
    let mut outcomes = Vec::new();
    // Warm-up grows the outcome vector and workspace buffers.
    ws.run_packets_obs(&cfg, &seeds, &mut outcomes, &NullSink)
        .unwrap();
    let (allocs, _) = allocations_during(|| {
        ws.run_packets_obs(&cfg, &seeds, &mut outcomes, &NullSink)
            .unwrap();
    });
    assert_eq!(
        allocs, 0,
        "batched instrumented path must stay zero-alloc with NullSink"
    );
}

#[test]
fn batched_and_per_packet_paths_are_bit_identical() {
    let _serial = serial();
    let cfg = warm_config();
    let mut ws_seq = FrameWorkspace::new();
    let mut ws_batch = FrameWorkspace::new();
    let seeds: Vec<u64> = (0..12u64).map(|i| mix_seed(11, i)).collect();
    let mut outcomes = Vec::new();
    ws_batch.run_packets(&cfg, &seeds, &mut outcomes).unwrap();
    assert_eq!(outcomes.len(), seeds.len());
    for (&seed, b) in seeds.iter().zip(outcomes.iter()) {
        let a = ws_seq.run_packet(&cfg, seed).unwrap();
        assert_eq!(a.bits, b.bits);
        assert_eq!(a.bit_errors, b.bit_errors);
        assert_eq!(a.sync_failed, b.sync_failed);
        assert_eq!(a.tx_power.to_bits(), b.tx_power.to_bits());
        assert_eq!(a.evm_sum.to_bits(), b.evm_sum.to_bits());
        assert_eq!(a.evm_n, b.evm_n);
    }
}

#[test]
fn null_sink_spans_report_no_wall_time() {
    let _serial = serial();
    // The NullSink must never ask for wall-clock time: that is what makes
    // the disabled spans free and the deterministic contract trivial.
    assert!(!NullSink.enabled());
    assert!(!NullSink.wants_wall_time());
    // And the deterministic RecordingSink must not ask for it either.
    assert!(!RecordingSink::new().wants_wall_time());
    assert!(RecordingSink::with_wall_time().wants_wall_time());
}
