//! Oracle gate for the exact estimator's shortcuts.
//!
//! The exact §4.2 path has three shortcuts that must never move an output
//! bit: the tabulated `ln(n!)` inside the union bound, the fused
//! coded-BER/PER evaluation in `LinkQualityEstimator::error_rates`, and
//! the controller's per-SNR estimate memo (plus the one-model throughput
//! total built on it). Each is checked here against the computation it
//! replaced: the union bound and the estimator against fingerprints
//! captured from the implementation before the shortcuts, the memo and the
//! total against fresh, unshared evaluations. `scripts/ci.sh` runs this
//! file next to the goodput-table accuracy gate.

use acorn::core::{AcornConfig, AcornController, NetworkModel};
use acorn::obs::NullSink;
use acorn::phy::{
    coded_ber, faded_coded_ber, faded_per, ChannelWidth, CodeRate, EstimateMemo,
    LinkQualityEstimator, McsIndex,
};
use acorn::sim::scenario::enterprise_grid;
use acorn::topology::{ApId, ClientId, Wlan};
use proptest::prelude::*;

fn fnv(h: &mut u64, bits: u64) {
    *h ^= bits;
    *h = h.wrapping_mul(0x100000001b3);
}

/// `coded_ber` for every code rate over 4001 log-spaced channel BERs from
/// 5·10⁻¹³ to 0.5, fingerprinted. The expected values were captured from
/// the union bound that re-summed `ln(n!)` on every term.
#[test]
fn coded_ber_fingerprints_match_the_untabulated_union_bound() {
    let expected = [
        (CodeRate::R12, 0x1c2a_5db8_989c_8e81u64),
        (CodeRate::R23, 0x9b01_eef0_59c2_d588),
        (CodeRate::R34, 0x4ce6_c4bf_c822_708a),
        (CodeRate::R56, 0xfdbe_e7b4_ae0b_c3e6),
    ];
    for (rate, want) in expected {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..=4000u32 {
            let p = 0.5 * 10f64.powf(-12.0 * (1.0 - i as f64 / 4000.0));
            fnv(&mut h, coded_ber(rate, p).to_bits());
        }
        assert_eq!(h, want, "{rate:?}: {h:#018x}");
    }
}

/// The full estimate (both widths' MCS, coded BER, PER and goodput) over
/// 4001 SNRs from −20 to 30 dB, crisp and fading-averaged, fingerprinted
/// against the estimator that evaluated the union bound twice per MCS.
#[test]
fn estimate_fingerprints_match_the_unfused_estimator() {
    for (sigma, want) in [
        (0.0, 0x8b15_5fdb_3bc2_dcf1u64),
        (3.0, 0x9c2b_2ec9_1df6_5856),
    ] {
        let e = LinkQualityEstimator {
            fading_sigma_db: sigma,
            ..LinkQualityEstimator::default()
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..=4000u32 {
            let est = e.estimate(-20.0 + i as f64 * 0.0125, ChannelWidth::Ht20);
            for rp in [est.best20, est.best40] {
                fnv(&mut h, rp.mcs.value() as u64);
                fnv(&mut h, rp.coded_ber.to_bits());
                fnv(&mut h, rp.per.to_bits());
                fnv(&mut h, rp.goodput_bps.to_bits());
            }
            fnv(&mut h, est.snr40_db.to_bits());
        }
        assert_eq!(h, want, "σ = {sigma} dB: {h:#018x}");
    }
}

/// `error_rates` equals the separate coded-BER and PER evaluations it
/// fuses, for every MCS, crisp and at σ ∈ {1, 3, 5} dB.
#[test]
fn error_rates_equal_the_separate_evaluations() {
    for sigma in [0.0, 1.0, 3.0, 5.0] {
        let e = LinkQualityEstimator {
            fading_sigma_db: sigma,
            ..LinkQualityEstimator::default()
        };
        for idx in McsIndex::all() {
            let mcs = idx.mcs();
            for i in 0..=120 {
                let snr = -15.0 + i as f64 * 0.5;
                let (cb, per) = e.error_rates(&mcs, snr);
                let (want_cb, want_per) = if sigma > 0.0 {
                    (
                        faded_coded_ber(&mcs, snr, sigma),
                        faded_per(&mcs, snr, sigma, e.packet_bytes),
                    )
                } else {
                    (mcs.coded_ber(snr), mcs.per(snr, e.packet_bytes))
                };
                let at = format!("σ={sigma} {idx:?} {snr} dB");
                assert_eq!(cb.to_bits(), want_cb.to_bits(), "coded BER at {at}");
                assert_eq!(per.to_bits(), want_per.to_bits(), "PER at {at}");
            }
        }
    }
}

proptest! {
    /// A memo answers every query of a random sequence with repeats
    /// exactly as a fresh estimate would, and misses once per distinct
    /// SNR.
    #[test]
    fn memoized_estimates_equal_fresh_estimates(
        pool in proptest::collection::vec(-15.0f64..45.0, 1..6),
        picks in proptest::collection::vec(0usize..6, 1..20),
        faded in any::<bool>(),
    ) {
        let e = LinkQualityEstimator {
            fading_sigma_db: if faded { 3.0 } else { 0.0 },
            ..LinkQualityEstimator::default()
        };
        let memo = EstimateMemo::new(e);
        let mut seen = std::collections::HashSet::new();
        for &p in &picks {
            let snr = pool[p % pool.len()];
            seen.insert(snr.to_bits());
            prop_assert_eq!(
                format!("{:?}", memo.estimate(snr)),
                format!("{:?}", e.estimate(snr, ChannelWidth::Ht20))
            );
        }
        let s = memo.stats();
        prop_assert_eq!(s.misses, seen.len() as u64);
        prop_assert_eq!(s.hits + s.misses, picks.len() as u64);
    }

    /// The one-model throughput total equals the sum of per-AP
    /// throughputs, each from its own freshly built model, bit for bit,
    /// under any up mask.
    #[test]
    fn one_model_total_equals_the_per_ap_sum(
        mask in proptest::collection::vec(any::<bool>(), 0..10),
        seed in 0u64..1000,
    ) {
        let (wlan, ctl, state) = floor(seed);
        let per_ap: f64 = (0..wlan.aps.len())
            .filter(|&i| mask.get(i).copied().unwrap_or(true))
            .map(|i| ctl.ap_throughput_bps(&wlan, &state, ApId(i)))
            .sum();
        let total = ctl.total_throughput_bps_up(&wlan, &state, &mask);
        prop_assert_eq!(total.to_bits(), per_ap.to_bits());
    }
}

/// A 3×3 floor with every client associated through Algorithm 1 and one
/// Algorithm 2 pass, on a memo controller.
fn floor(seed: u64) -> (Wlan, AcornController, acorn::core::NetworkState) {
    let wlan = enterprise_grid(3, 3, 40.0, 24, seed);
    let ctl = AcornController::new(AcornConfig::default());
    let mut state = ctl.new_state(&wlan, seed);
    for c in 0..wlan.clients.len() {
        ctl.associate(&wlan, &mut state, ClientId(c));
    }
    ctl.reallocate(&wlan, &mut state, 0, 0, &NullSink);
    (wlan, ctl, state)
}

/// Ranking the same client twice on unchanged state estimates nothing the
/// second time: every link is already in the memo.
#[test]
fn repeated_candidates_take_no_memo_misses() {
    let (wlan, ctl, mut state) = floor(7);
    let client = ClientId(0);
    state.assoc[client.0] = None;
    let first = ctl.candidates_for(&wlan, &state, client);
    let warm = ctl.memo_stats().expect("exact controllers carry a memo");
    let second = ctl.candidates_for(&wlan, &state, client);
    let after = ctl.memo_stats().expect("exact controllers carry a memo");
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
    assert_eq!(
        after.misses, warm.misses,
        "second ranking re-estimated a link"
    );
    assert!(after.hits > warm.hits);
}

/// `config` is public: changing the estimator after the memo was filled
/// must bypass the memo, so beacons and candidates equal a fresh
/// controller's built with the new estimator.
#[test]
fn changing_the_estimator_after_warm_up_bypasses_the_memo() {
    let (wlan, mut ctl, mut state) = floor(3);
    let client = ClientId(5);
    state.assoc[client.0] = None;
    ctl.candidates_for(&wlan, &state, client);
    let before = ctl.memo_stats().expect("exact controllers carry a memo");

    ctl.config.estimator.fading_sigma_db = 3.0;
    let fresh = AcornController::new(ctl.config);
    assert_eq!(
        format!("{:?}", ctl.beacons(&wlan, &state)),
        format!("{:?}", fresh.beacons(&wlan, &state))
    );
    assert_eq!(
        format!("{:?}", ctl.candidates_for(&wlan, &state, client)),
        format!("{:?}", fresh.candidates_for(&wlan, &state, client))
    );
    assert_eq!(
        ctl.total_throughput_bps(&wlan, &state).to_bits(),
        fresh.total_throughput_bps(&wlan, &state).to_bits()
    );
    let after = ctl.memo_stats().expect("exact controllers carry a memo");
    assert_eq!(after, before, "a stale memo must not even be consulted");
    assert!(ctl.build_model(&wlan, &state).memo().is_none());
}

/// `NetworkModel::set_estimator` detaches the memo as it detaches the
/// table: the model then predicts with the new estimator, exactly like a
/// model built with it.
#[test]
fn set_estimator_detaches_the_memo() {
    let (wlan, ctl, state) = floor(11);
    let mut model = ctl.build_model(&wlan, &state);
    assert!(model.memo().is_some());
    let faded = LinkQualityEstimator {
        fading_sigma_db: 3.0,
        ..LinkQualityEstimator::default()
    };
    model.set_estimator(faded);
    assert!(model.memo().is_none());
    let plain = NetworkModel::with_config(
        model.graph.clone(),
        model.cells().to_vec(),
        faded,
        model.payload_bytes(),
    );
    for ap in 0..wlan.aps.len() {
        for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
            assert_eq!(
                model.cell_base_bps(ApId(ap), width).to_bits(),
                plain.cell_base_bps(ApId(ap), width).to_bits()
            );
        }
    }
}

/// The memo-backed controller decides exactly as an exact controller with
/// no memo: same model, same beacons, same candidate sets.
#[test]
fn memo_backed_model_equals_the_unmemoized_model() {
    let (wlan, ctl, state) = floor(5);
    let memo_model = ctl.build_model(&wlan, &state);
    let plain = NetworkModel::with_config(
        memo_model.graph.clone(),
        memo_model.cells().to_vec(),
        ctl.config.estimator,
        ctl.config.payload_bytes,
    );
    for ap in 0..wlan.aps.len() {
        for width in [ChannelWidth::Ht20, ChannelWidth::Ht40] {
            assert_eq!(
                memo_model.cell_base_bps(ApId(ap), width).to_bits(),
                plain.cell_base_bps(ApId(ap), width).to_bits()
            );
        }
        let sub = memo_model.restrict(&[ap]);
        assert!(sub.memo().is_some(), "restriction keeps the memo");
    }
}
