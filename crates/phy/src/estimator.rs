//! ACORN's link-quality estimator (§4.2 of the paper).
//!
//! To decide channel widths, an AP must predict how each client link would
//! behave on a channel of the *other* width without actually switching to
//! it. The paper's estimator does this in three steps, reproduced here
//! exactly:
//!
//! 1. **SNR calibration** — "When we change the width (20/40 MHz), there is
//!    a 3 dB change in the SNR; this processing is performed by a SNR
//!    calibration module" ([`LinkQualityEstimator::calibrate_snr`]).
//! 2. **BER estimation** — "a BER estimation module calculates the
//!    theoretical coded BER (from \[19\])" (via `Mcs::coded_ber`).
//! 3. **PER estimation** — Eq. 6, `PER = 1 − (1 − BER)^L` under the
//!    independent-bit-error assumption (via `Mcs::per`).
//!
//! "Note here that ACORN does not require the exact BER or PER values; it
//! only needs a coarse estimate of the link quality i.e., a reasonable
//! classification of good and poor links" — that classification is
//! [`LinkClass`], derived by comparing the link's best achievable goodput
//! with and without bonding.

use crate::coding::per_from_ber_bytes;
use crate::link::cb_snr_shift_db;
use crate::mcs::{McsIndex, MimoMode};
use crate::ofdm::{ChannelWidth, GuardInterval};

/// Coarse link classification used by ACORN's association and allocation
/// modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// A link that benefits from channel bonding (its best 40 MHz goodput
    /// exceeds its best 20 MHz goodput).
    Good,
    /// A link that bonding hurts or barely helps — the kind that drags a
    /// bonded cell down via the 802.11 performance anomaly.
    Poor,
}

/// One operating point chosen by exhaustive MCS/mode search: the best
/// (MCS, MIMO mode) at a given SNR and width, with its predicted error
/// rates and goodput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    /// Chosen MCS index.
    pub mcs: McsIndex,
    /// Chosen MIMO mode (STBC for reliability, SDM for rate).
    pub mode: MimoMode,
    /// Predicted post-FEC bit error rate.
    pub coded_ber: f64,
    /// Predicted packet error rate (Eq. 6).
    pub per: f64,
    /// Predicted goodput `(1 − PER) · R` in bits/s.
    pub goodput_bps: f64,
}

/// Full estimator output for one link: the predicted operating point on
/// both widths plus the good/poor classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQualityEstimate {
    /// Calibrated per-subcarrier SNR on a 20 MHz channel (dB).
    pub snr20_db: f64,
    /// Calibrated per-subcarrier SNR on a bonded 40 MHz channel (dB).
    pub snr40_db: f64,
    /// Best predicted operating point on 20 MHz.
    pub best20: RatePoint,
    /// Best predicted operating point on 40 MHz.
    pub best40: RatePoint,
    /// Good/poor classification (does bonding help this link?).
    pub class: LinkClass,
}

impl LinkQualityEstimate {
    /// The width that maximizes this link's predicted goodput.
    pub fn preferred_width(&self) -> ChannelWidth {
        if self.best40.goodput_bps > self.best20.goodput_bps {
            ChannelWidth::Ht40
        } else {
            ChannelWidth::Ht20
        }
    }

    /// Predicted goodput (bits/s) at a given width.
    pub fn goodput_bps(&self, width: ChannelWidth) -> f64 {
        match width {
            ChannelWidth::Ht20 => self.best20.goodput_bps,
            ChannelWidth::Ht40 => self.best40.goodput_bps,
        }
    }

    /// Predicted best operating point at a given width.
    pub fn rate_point(&self, width: ChannelWidth) -> RatePoint {
        match width {
            ChannelWidth::Ht20 => self.best20,
            ChannelWidth::Ht40 => self.best40,
        }
    }
}

/// The estimator configuration: packet size used for PER prediction and the
/// guard interval in force.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQualityEstimator {
    /// Packet length in bytes assumed by the PER model (the paper uses
    /// 1500-byte packets throughout).
    pub packet_bytes: u32,
    /// Guard interval used for nominal rates.
    pub gi: GuardInterval,
    /// Minimum 40 MHz / 20 MHz goodput ratio for a link to classify as
    /// [`LinkClass::Good`]. ACORN assigns 20 MHz channels to APs that "do
    /// not achieve significant gains with CB" — marginal gains do not
    /// justify occupying twice the spectrum, so the default requires a 20 %
    /// improvement.
    pub cb_benefit_threshold: f64,
    /// SNR spread (dB) of the fading-averaged PER model
    /// ([`crate::fading`]); 0 (the default) uses the crisp AWGN curves.
    /// Around 3 dB reproduces testbed-like transition-band widths.
    pub fading_sigma_db: f64,
}

impl Default for LinkQualityEstimator {
    fn default() -> Self {
        LinkQualityEstimator {
            packet_bytes: 1500,
            gi: GuardInterval::Long,
            cb_benefit_threshold: 1.2,
            fading_sigma_db: 0.0,
        }
    }
}

impl LinkQualityEstimator {
    /// SNR calibration (§4.2): translate an SNR measured at `from` width to
    /// the SNR the same link would see at `to` width (±3 dB, or unchanged
    /// when the widths match).
    pub fn calibrate_snr(&self, snr_db: f64, from: ChannelWidth, to: ChannelWidth) -> f64 {
        match (from, to) {
            (ChannelWidth::Ht20, ChannelWidth::Ht40) => snr_db + cb_snr_shift_db(),
            (ChannelWidth::Ht40, ChannelWidth::Ht20) => snr_db - cb_snr_shift_db(),
            _ => snr_db,
        }
    }

    /// The (coded BER, PER) prediction for one MCS at a mode-effective
    /// SNR — the single primitive both
    /// [`best_rate_point`](LinkQualityEstimator::best_rate_point) and the memoized
    /// `GoodputTable` build call, so the exact and tabulated paths always
    /// share the same error model (crisp AWGN or fading-averaged).
    ///
    /// The coded BER is evaluated once per SNR point and the PER derived
    /// from it, so the result equals `(mcs.coded_ber(s), mcs.per(s, L))`
    /// (or the two `fading::faded_*` averages) bit for bit at half the
    /// union-bound evaluations.
    pub fn error_rates(&self, mcs: &crate::mcs::Mcs, eff_snr_db: f64) -> (f64, f64) {
        if self.fading_sigma_db > 0.0 {
            crate::fading::faded_error_rates(
                mcs,
                eff_snr_db,
                self.fading_sigma_db,
                self.packet_bytes,
            )
        } else {
            let cb = mcs.coded_ber(eff_snr_db);
            (cb, per_from_ber_bytes(cb, self.packet_bytes))
        }
    }

    /// Exhaustive best-(MCS, mode) search at a given calibrated SNR and
    /// width — the model of the testbed's auto-rate behaviour used for
    /// prediction: maximize expected goodput `(1 − PER) · R` over MCS 0–7
    /// with STBC and MCS 8–15 with SDM.
    pub fn best_rate_point(&self, snr_db: f64, width: ChannelWidth) -> RatePoint {
        let rate_point = |idx: McsIndex| {
            let mcs = idx.mcs();
            let mode = if mcs.n_ss == 1 {
                MimoMode::Stbc
            } else {
                MimoMode::Sdm
            };
            let eff_snr = mode.effective_snr_db(snr_db);
            let (coded_ber, per) = self.error_rates(&mcs, eff_snr);
            RatePoint {
                mcs: idx,
                mode,
                coded_ber,
                per,
                goodput_bps: (1.0 - per) * mcs.rate_bps(width, self.gi),
            }
        };
        // Seed with MCS 0, then scan upward keeping the first candidate
        // on exact ties — same selection order as the auto-rate model.
        let mut best = rate_point(McsIndex::new(0).unwrap_or(McsIndex::MAX));
        for idx in McsIndex::all().skip(1) {
            let candidate = rate_point(idx);
            if candidate.goodput_bps > best.goodput_bps {
                best = candidate;
            }
        }
        best
    }

    /// Runs the full §4.2 pipeline: calibrate the measured SNR to both
    /// widths, predict the best operating point on each, and classify the
    /// link.
    pub fn estimate(&self, measured_snr_db: f64, measured_at: ChannelWidth) -> LinkQualityEstimate {
        let snr20 = self.calibrate_snr(measured_snr_db, measured_at, ChannelWidth::Ht20);
        let snr40 = self.calibrate_snr(measured_snr_db, measured_at, ChannelWidth::Ht40);
        let best20 = self.best_rate_point(snr20, ChannelWidth::Ht20);
        let best40 = self.best_rate_point(snr40, ChannelWidth::Ht40);
        let class = if best40.goodput_bps > self.cb_benefit_threshold * best20.goodput_bps {
            LinkClass::Good
        } else {
            LinkClass::Poor
        };
        LinkQualityEstimate {
            snr20_db: snr20,
            snr40_db: snr40,
            best20,
            best40,
            class,
        }
    }

    /// Batched [`estimate`](LinkQualityEstimator::estimate) over a
    /// measurement grid — the shape the AP-side width allocator and the
    /// Monte-Carlo calibration harness consume: one call per cell (or per
    /// sweep), not one per link. `estimates[i]` equals
    /// `self.estimate(measurements[i].0, measurements[i].1)` exactly.
    pub fn estimate_grid(&self, measurements: &[(f64, ChannelWidth)]) -> Vec<LinkQualityEstimate> {
        measurements
            .iter()
            .map(|&(snr_db, at)| self.estimate(snr_db, at))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_symmetric() {
        let e = LinkQualityEstimator::default();
        let snr = 13.7;
        let to40 = e.calibrate_snr(snr, ChannelWidth::Ht20, ChannelWidth::Ht40);
        assert!((to40 - (snr - 3.0103)).abs() < 1e-3);
        let back = e.calibrate_snr(to40, ChannelWidth::Ht40, ChannelWidth::Ht20);
        assert!((back - snr).abs() < 1e-9);
        assert_eq!(
            e.calibrate_snr(snr, ChannelWidth::Ht20, ChannelWidth::Ht20),
            snr
        );
    }

    #[test]
    fn strong_links_classify_good() {
        let e = LinkQualityEstimator::default();
        let est = e.estimate(35.0, ChannelWidth::Ht20);
        assert_eq!(est.class, LinkClass::Good);
        assert_eq!(est.preferred_width(), ChannelWidth::Ht40);
        // A clean bonded link should be close to doubling throughput, but
        // per §3 it never quite doubles relative to nominal expectations
        // when error rates are non-zero at the chosen MCS.
        assert!(est.best40.goodput_bps > 1.5 * est.best20.goodput_bps);
    }

    #[test]
    fn weak_links_classify_poor() {
        let e = LinkQualityEstimator::default();
        // Around the σ-transition SNRs of Table 1, bonding gains are
        // marginal at best — the link classifies Poor.
        let est = e.estimate(3.0, ChannelWidth::Ht20);
        assert_eq!(est.class, LinkClass::Poor);
        // At the bottom of the MCS ladder there is no lower rate to retreat
        // to, so the bonded channel loses outright and even the raw goodput
        // preference is 20 MHz.
        let very_weak = e.estimate(0.0, ChannelWidth::Ht20);
        assert_eq!(very_weak.class, LinkClass::Poor);
        assert_eq!(very_weak.preferred_width(), ChannelWidth::Ht20);
    }

    #[test]
    fn best_rate_point_uses_low_mcs_at_low_snr() {
        let e = LinkQualityEstimator::default();
        let low = e.best_rate_point(2.0, ChannelWidth::Ht20);
        let high = e.best_rate_point(35.0, ChannelWidth::Ht20);
        assert!(low.mcs.value() < high.mcs.value());
        assert_eq!(high.mode, MimoMode::Sdm);
        assert_eq!(low.mode, MimoMode::Stbc);
    }

    #[test]
    fn optimal_mcs_less_aggressive_on_bonded_channel() {
        // Fig. 6(b): the optimal MCS with 40 MHz is almost always ≤ the one
        // with 20 MHz (because of the 3 dB SNR loss).
        let e = LinkQualityEstimator::default();
        for snr20 in [5.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0] {
            let est = e.estimate(snr20, ChannelWidth::Ht20);
            assert!(
                est.best40.mcs.value() <= est.best20.mcs.value(),
                "snr {snr20}: 40MHz MCS {} > 20MHz MCS {}",
                est.best40.mcs.value(),
                est.best20.mcs.value()
            );
        }
    }

    #[test]
    fn goodput_never_doubles_with_cb() {
        // §3.2: "the throughput observed with CB is almost always less than
        // double of that without CB". Allow the 108/104 nominal-rate edge.
        let e = LinkQualityEstimator::default();
        for snr in (-5..40).step_by(2) {
            let est = e.estimate(snr as f64, ChannelWidth::Ht20);
            let ratio = est.best40.goodput_bps / est.best20.goodput_bps.max(1.0);
            assert!(ratio < 2.1, "snr {snr}: ratio {ratio}");
        }
    }

    #[test]
    fn estimate_monotone_in_snr() {
        let e = LinkQualityEstimator::default();
        let mut prev20 = 0.0;
        for snr in (-10..=40).step_by(1) {
            let est = e.estimate(snr as f64, ChannelWidth::Ht20);
            assert!(
                est.best20.goodput_bps + 1.0 >= prev20,
                "goodput dropped at snr {snr}"
            );
            prev20 = est.best20.goodput_bps;
        }
    }

    #[test]
    fn measured_at_40_maps_back_to_20() {
        let e = LinkQualityEstimator::default();
        let a = e.estimate(20.0, ChannelWidth::Ht20);
        let b = e.estimate(20.0 + cb_snr_shift_db(), ChannelWidth::Ht40);
        assert!((a.snr20_db - b.snr20_db).abs() < 1e-9);
        assert!((a.snr40_db - b.snr40_db).abs() < 1e-9);
    }

    use crate::link::cb_snr_shift_db;

    #[test]
    fn estimate_grid_matches_pointwise_estimates() {
        let e = LinkQualityEstimator::default();
        let grid: Vec<(f64, ChannelWidth)> = (-5..=35)
            .step_by(5)
            .flat_map(|s| {
                [
                    (s as f64, ChannelWidth::Ht20),
                    (s as f64, ChannelWidth::Ht40),
                ]
            })
            .collect();
        let batched = e.estimate_grid(&grid);
        assert_eq!(batched.len(), grid.len());
        for (i, &(snr, at)) in grid.iter().enumerate() {
            assert_eq!(batched[i], e.estimate(snr, at), "cell {i}");
        }
        assert!(e.estimate_grid(&[]).is_empty());
    }

    #[test]
    fn error_rates_equal_the_separate_mcs_calls_bit_for_bit() {
        let e = LinkQualityEstimator::default();
        for idx in McsIndex::all() {
            let mcs = idx.mcs();
            for i in 0..=400 {
                let snr = -10.0 + i as f64 * 0.125;
                let (cb, per) = e.error_rates(&mcs, snr);
                assert_eq!(cb.to_bits(), mcs.coded_ber(snr).to_bits(), "{idx:?} {snr}");
                assert_eq!(per.to_bits(), mcs.per(snr, 1500).to_bits(), "{idx:?} {snr}");
            }
        }
    }

    #[test]
    fn rate_point_accessor_matches_fields() {
        let e = LinkQualityEstimator::default();
        let est = e.estimate(18.0, ChannelWidth::Ht20);
        assert_eq!(est.rate_point(ChannelWidth::Ht20), est.best20);
        assert_eq!(est.rate_point(ChannelWidth::Ht40), est.best40);
        assert_eq!(est.goodput_bps(ChannelWidth::Ht40), est.best40.goodput_bps);
    }
}
