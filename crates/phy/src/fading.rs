//! Fading-averaged error rates (estimator extension).
//!
//! The closed-form AWGN curves in [`crate::coding`] transition from
//! "perfect" to "dead" within ~1.5 dB — much steeper than testbed
//! measurements, where shadowing and residual fading smear the effective
//! SNR over several dB (one reason the paper's Table 1 shows a 2–3 dB
//! transition band). This module provides the smeared version: error
//! rates averaged over a lognormal SNR distribution,
//!
//! ```text
//! E[PER] = ∫ PER(γ + x)·N(x; 0, σ²) dx
//! ```
//!
//! evaluated with 7-point Gauss–Hermite quadrature. The estimator exposes
//! it through [`crate::estimator::LinkQualityEstimator::fading_sigma_db`]
//! (0 = plain AWGN, the default, which keeps the analytic reproduction of
//! Table 1 crisp).

use crate::coding::per_from_ber_bytes;
use crate::mcs::Mcs;

/// 7-point Gauss–Hermite abscissae (for ∫ e^{−x²} f(x) dx).
const GH_X: [f64; 7] = [
    -2.651_961_356_835_233,
    -1.673_551_628_767_471,
    -0.816_287_882_858_964_7,
    0.0,
    0.816_287_882_858_964_7,
    1.673_551_628_767_471,
    2.651_961_356_835_233,
];

/// Matching Gauss–Hermite weights.
const GH_W: [f64; 7] = [
    9.717_812_450_995_192e-4,
    5.451_558_281_912_703e-2,
    4.256_072_526_101_278e-1,
    8.102_646_175_568_073e-1,
    4.256_072_526_101_278e-1,
    5.451_558_281_912_703e-2,
    9.717_812_450_995_192e-4,
];

/// Averages an SNR-indexed metric over a Gaussian (in dB) SNR spread:
/// `E[f(γ + X)]` with `X ~ N(0, sigma_db²)`.
pub fn gaussian_snr_average<F: Fn(f64) -> f64>(snr_db: f64, sigma_db: f64, f: F) -> f64 {
    if sigma_db <= 0.0 {
        return f(snr_db);
    }
    let norm = std::f64::consts::PI.sqrt();
    GH_X.iter()
        .zip(GH_W.iter())
        .map(|(&x, &w)| w * f(snr_db + std::f64::consts::SQRT_2 * sigma_db * x))
        .sum::<f64>()
        / norm
}

/// Fading-averaged `(coded BER, PER)` of an MCS at mean per-stream SNR in
/// one pass over the quadrature points: each point's coded BER is computed
/// once and its PER derived from it. Both averages keep the summation
/// order of [`gaussian_snr_average`], so the pair equals
/// `(faded_coded_ber(..), faded_per(..))` bit for bit.
pub fn faded_error_rates(
    mcs: &Mcs,
    mean_snr_db: f64,
    sigma_db: f64,
    packet_bytes: u32,
) -> (f64, f64) {
    if sigma_db <= 0.0 {
        let cb = mcs.coded_ber(mean_snr_db);
        return (
            cb.clamp(0.0, 0.5),
            per_from_ber_bytes(cb, packet_bytes).clamp(0.0, 1.0),
        );
    }
    let mut ber_terms = [0.0; 7];
    let mut per_terms = [0.0; 7];
    for (i, (&x, &w)) in GH_X.iter().zip(GH_W.iter()).enumerate() {
        let cb = mcs.coded_ber(mean_snr_db + std::f64::consts::SQRT_2 * sigma_db * x);
        ber_terms[i] = w * cb;
        per_terms[i] = w * per_from_ber_bytes(cb, packet_bytes);
    }
    let norm = std::f64::consts::PI.sqrt();
    (
        (ber_terms.iter().sum::<f64>() / norm).clamp(0.0, 0.5),
        (per_terms.iter().sum::<f64>() / norm).clamp(0.0, 1.0),
    )
}

/// Fading-averaged packet error rate of an MCS at mean per-stream SNR.
pub fn faded_per(mcs: &Mcs, mean_snr_db: f64, sigma_db: f64, packet_bytes: u32) -> f64 {
    gaussian_snr_average(mean_snr_db, sigma_db, |g| mcs.per(g, packet_bytes)).clamp(0.0, 1.0)
}

/// Fading-averaged coded BER of an MCS at mean per-stream SNR.
pub fn faded_coded_ber(mcs: &Mcs, mean_snr_db: f64, sigma_db: f64) -> f64 {
    gaussian_snr_average(mean_snr_db, sigma_db, |g| mcs.coded_ber(g)).clamp(0.0, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::McsIndex;

    fn mcs4() -> Mcs {
        McsIndex::new(4).unwrap().mcs()
    }

    #[test]
    fn zero_sigma_is_the_awgn_curve() {
        let m = mcs4();
        for snr in [5.0, 10.0, 15.0, 20.0] {
            assert_eq!(faded_per(&m, snr, 0.0, 1500), m.per(snr, 1500));
        }
    }

    #[test]
    fn quadrature_weights_sum_to_sqrt_pi() {
        let s: f64 = GH_W.iter().sum();
        assert!((s - std::f64::consts::PI.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn average_of_constant_is_the_constant() {
        let v = gaussian_snr_average(12.0, 4.0, |_| 0.37);
        assert!((v - 0.37).abs() < 1e-9);
    }

    #[test]
    fn average_of_linear_is_the_mean() {
        // E[γ + X] = γ for zero-mean X.
        let v = gaussian_snr_average(9.0, 3.0, |g| g);
        assert!((v - 9.0).abs() < 1e-9);
    }

    #[test]
    fn fading_smears_the_cliff() {
        // On the steep part of the PER curve, fading raises the "almost
        // clean" side and lowers the "almost dead" side.
        let m = mcs4();
        // Find a clean point and a dead point around the cliff.
        let mut clean = None;
        let mut dead = None;
        for i in 0..400 {
            let snr = i as f64 * 0.1;
            let p = m.per(snr, 1500);
            if p < 0.01 && clean.is_none() {
                clean = Some(snr);
            }
            if p > 0.99 {
                dead = Some(snr);
            }
        }
        let clean = clean.unwrap();
        let dead = dead.unwrap();
        assert!(faded_per(&m, clean, 4.0, 1500) > m.per(clean, 1500) + 0.01);
        assert!(faded_per(&m, dead, 4.0, 1500) < m.per(dead, 1500) - 0.01);
    }

    #[test]
    fn faded_per_is_monotone_in_snr() {
        let m = mcs4();
        let mut prev = 1.0;
        for i in 0..80 {
            let p = faded_per(&m, i as f64 * 0.5, 3.0, 1500);
            assert!(p <= prev + 1e-9, "at {} dB", i as f64 * 0.5);
            prev = p;
        }
    }

    #[test]
    fn faded_transition_band_is_wider() {
        // Width of the 0.1..0.9 PER region, AWGN vs faded — the Table 1
        // "2–3 dB band" mechanism.
        let m = mcs4();
        let band = |sigma: f64| {
            let mut lo = None;
            let mut hi = None;
            for i in 0..600 {
                let snr = i as f64 * 0.05;
                let p = faded_per(&m, snr, sigma, 1500);
                if p < 0.9 && hi.is_none() {
                    hi = Some(snr);
                }
                if p < 0.1 && lo.is_none() {
                    lo = Some(snr);
                }
            }
            lo.unwrap() - hi.unwrap()
        };
        assert!(
            band(3.0) > 2.0 * band(0.0),
            "faded {} vs awgn {}",
            band(3.0),
            band(0.0)
        );
    }

    #[test]
    fn fused_error_rates_equal_the_two_averages_bit_for_bit() {
        for sigma in [0.0, 1.0, 3.0, 5.0] {
            for idx in McsIndex::all() {
                let m = idx.mcs();
                for i in 0..=240 {
                    let snr = -20.0 + i as f64 * 0.25;
                    let (cb, per) = faded_error_rates(&m, snr, sigma, 1500);
                    let at = format!("σ={sigma} {idx:?} {snr} dB");
                    assert_eq!(
                        cb.to_bits(),
                        faded_coded_ber(&m, snr, sigma).to_bits(),
                        "{at}"
                    );
                    assert_eq!(
                        per.to_bits(),
                        faded_per(&m, snr, sigma, 1500).to_bits(),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn faded_ber_stays_bounded() {
        let m = mcs4();
        for snr in [-20.0, 0.0, 15.0, 40.0] {
            let b = faded_coded_ber(&m, snr, 5.0);
            assert!((0.0..=0.5).contains(&b));
        }
    }
}
