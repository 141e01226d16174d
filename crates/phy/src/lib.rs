//! # acorn-phy — analytic 802.11n PHY models
//!
//! This crate provides the *analytic* physical-layer machinery that the
//! ACORN paper ("Auto-configuration of 802.11n WLANs", CoNEXT 2010) builds
//! its measurement insights and its link-quality estimator on:
//!
//! * OFDM channelization for 20 MHz and 40 MHz (channel-bonded) operation —
//!   subcarrier layouts, symbol timings and guard intervals ([`ofdm`]).
//! * The full HT MCS 0–15 table with nominal rates for both widths ([`mcs`]).
//! * Thermal-noise floor `N = −174 + 10·log10(B)` dBm ([`noise`]).
//! * Exact AWGN bit-error-rate formulas for BPSK/QPSK/16-QAM/64-QAM and
//!   Shannon capacity ([`modulation`]).
//! * Coded-BER union bounds for the K=7 convolutional code at the punctured
//!   802.11 rates, and the PER model `PER = 1 − (1 − BER)^L` ([`coding`]).
//! * Link budgets, the paper's central **−3 dB channel-bonding calibration
//!   rule**, the σ delivery-ratio metric of Eq. 3 and its crossover-threshold
//!   search (Table 1) ([`link`]).
//! * ACORN's link-quality estimator pipeline from §4.2: SNR calibration →
//!   BER estimation → PER estimation → good/poor classification
//!   ([`estimator`]), with an exact per-SNR memo of it ([`memo`]) and a
//!   quantized goodput table ([`table`]).
//!
//! Everything here is pure, deterministic math; the Monte-Carlo baseband
//! (the WARP-board substitute) lives in `acorn-baseband`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coding;
pub mod estimator;
pub mod fading;
pub mod link;
pub mod mcs;
pub mod memo;
pub mod modulation;
pub mod noise;
pub mod ofdm;
pub mod table;
pub mod units;

pub use coding::{coded_ber, per_from_ber, CodeRate};
pub use estimator::{LinkClass, LinkQualityEstimate, LinkQualityEstimator};
pub use fading::{faded_coded_ber, faded_error_rates, faded_per, gaussian_snr_average};
pub use link::{cb_snr_shift_db, sigma, sigma_crossover_snr, LinkBudget};
pub use mcs::{Mcs, McsIndex, MimoMode};
pub use memo::{EstimateMemo, MemoStats};
pub use modulation::Modulation;
pub use noise::noise_floor_dbm;
pub use ofdm::{ChannelWidth, GuardInterval, OfdmParams};
pub use table::{GoodputTable, TableStats};
pub use units::{db_to_linear, dbm_to_mw, linear_to_db, mw_to_dbm};
