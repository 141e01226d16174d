//! 802.11n OFDM channelization: channel widths, subcarrier layouts and
//! symbol timing.
//!
//! The paper's §3.1 ("Channel bonding micro-effects") is entirely about what
//! changes when 802.11n moves from a 20 MHz channel (52 data subcarriers,
//! 64-point FFT) to a bonded 40 MHz channel (108 data subcarriers, 128-point
//! FFT) while the total transmit power stays fixed. This module encodes
//! those layouts so that both the analytic models (`acorn-phy`) and the
//! Monte-Carlo baseband (`acorn-baseband`) agree on a single set of numbers.

use crate::units::linear_to_db;

/// Operating channel width of an 802.11n transmitter.
///
/// `Ht40` is the channel-bonded mode: two adjacent 20 MHz channels combined
/// into one 40 MHz band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ChannelWidth {
    /// Conventional 20 MHz channel (52 data subcarriers).
    Ht20,
    /// Channel-bonded 40 MHz channel (108 data subcarriers).
    Ht40,
}

impl ChannelWidth {
    /// Bandwidth in Hz.
    pub fn bandwidth_hz(self) -> f64 {
        match self {
            ChannelWidth::Ht20 => 20e6,
            ChannelWidth::Ht40 => 40e6,
        }
    }

    /// Number of OFDM *data* subcarriers (802.11n-2009: 52 for HT20,
    /// 108 for HT40).
    pub fn data_subcarriers(self) -> usize {
        match self {
            ChannelWidth::Ht20 => 52,
            ChannelWidth::Ht40 => 108,
        }
    }

    /// Number of pilot subcarriers (4 for HT20, 6 for HT40).
    pub fn pilot_subcarriers(self) -> usize {
        match self {
            ChannelWidth::Ht20 => 4,
            ChannelWidth::Ht40 => 6,
        }
    }

    /// Total populated subcarriers (data + pilots).
    pub fn populated_subcarriers(self) -> usize {
        self.data_subcarriers() + self.pilot_subcarriers()
    }

    /// FFT size used by the baseband for this width (64 vs 128 points).
    pub fn fft_size(self) -> usize {
        match self {
            ChannelWidth::Ht20 => 64,
            ChannelWidth::Ht40 => 128,
        }
    }

    /// The other width — `Ht20.flipped() == Ht40` and vice versa.
    ///
    /// ACORN's estimator uses this when asking "what would this link look
    /// like on the *other* channel width?" (§4.2).
    pub fn flipped(self) -> ChannelWidth {
        match self {
            ChannelWidth::Ht20 => ChannelWidth::Ht40,
            ChannelWidth::Ht40 => ChannelWidth::Ht20,
        }
    }

    /// Per-subcarrier energy penalty (in dB, non-positive) of operating at
    /// this width relative to HT20 for the *same total transmit power*.
    ///
    /// 802.11n mandates the same maximum transmit power with and without
    /// bonding, and OFDM spreads that power evenly over the populated
    /// subcarriers, so HT40 pays `10·log10(52/108) ≈ −3.17 dB` per
    /// subcarrier — the paper's "approximately 3 dB reduction" of Fig. 1.
    pub fn per_subcarrier_energy_shift_db(self) -> f64 {
        match self {
            ChannelWidth::Ht20 => 0.0,
            ChannelWidth::Ht40 => linear_to_db(
                ChannelWidth::Ht20.data_subcarriers() as f64
                    / ChannelWidth::Ht40.data_subcarriers() as f64,
            ),
        }
    }
}

/// 802.11n guard-interval options.
///
/// The long 800 ns GI yields a 4 µs OFDM symbol; the short 400 ns GI yields
/// 3.6 µs and raises nominal rates by a factor of 10/9 (paper §3.1 fn. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GuardInterval {
    /// 800 ns guard interval (4 µs symbols) — the paper's default.
    Long,
    /// 400 ns guard interval (3.6 µs symbols).
    Short,
}

impl GuardInterval {
    /// Guard-interval duration in seconds.
    pub fn duration_s(self) -> f64 {
        match self {
            GuardInterval::Long => 0.8e-6,
            GuardInterval::Short => 0.4e-6,
        }
    }

    /// Full OFDM symbol duration (3.2 µs useful part + GI) in seconds.
    pub fn symbol_duration_s(self) -> f64 {
        3.2e-6 + self.duration_s()
    }
}

/// Combined OFDM parameter set for one (width, GI) operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfdmParams {
    /// Channel width (20 or 40 MHz).
    pub width: ChannelWidth,
    /// Guard interval (long 800 ns or short 400 ns).
    pub gi: GuardInterval,
}

impl OfdmParams {
    /// Constructs the parameter set the paper uses by default
    /// (long guard interval).
    pub fn new(width: ChannelWidth) -> Self {
        OfdmParams {
            width,
            gi: GuardInterval::Long,
        }
    }

    /// OFDM symbol rate in symbols per second.
    pub fn symbol_rate(&self) -> f64 {
        1.0 / self.gi.symbol_duration_s()
    }

    /// Nominal PHY bit rate in bits/s for a given number of coded bits per
    /// subcarrier (`bits_per_subcarrier = log2(M)`), code rate `r`, and
    /// `n_ss` spatial streams.
    ///
    /// For HT20 / BPSK / r=1/2 / 1 stream / long GI this evaluates to the
    /// familiar 6.5 Mb/s (MCS 0); for HT40 it gives 13.5 Mb/s — "slightly
    /// higher than double", exactly as §3.1 observes, because HT40 carries
    /// 108 data subcarriers rather than 2 × 52.
    pub fn nominal_bit_rate(&self, bits_per_subcarrier: u32, code_rate: f64, n_ss: u32) -> f64 {
        self.width.data_subcarriers() as f64
            * bits_per_subcarrier as f64
            * code_rate
            * n_ss as f64
            * self.symbol_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subcarrier_counts_match_the_standard() {
        assert_eq!(ChannelWidth::Ht20.data_subcarriers(), 52);
        assert_eq!(ChannelWidth::Ht40.data_subcarriers(), 108);
        assert_eq!(ChannelWidth::Ht20.fft_size(), 64);
        assert_eq!(ChannelWidth::Ht40.fft_size(), 128);
        assert_eq!(ChannelWidth::Ht20.populated_subcarriers(), 56);
        assert_eq!(ChannelWidth::Ht40.populated_subcarriers(), 114);
    }

    #[test]
    fn ht40_pays_about_three_db_per_subcarrier() {
        let shift = ChannelWidth::Ht40.per_subcarrier_energy_shift_db();
        // 10·log10(52/108) = −3.17 dB; the paper rounds to "about 3 dB".
        assert!(shift < -3.0 && shift > -3.4, "shift = {shift}");
        assert_eq!(ChannelWidth::Ht20.per_subcarrier_energy_shift_db(), 0.0);
    }

    #[test]
    fn ht40_energy_reduction_is_about_half() {
        // The paper quotes a ~48% reduction (approximately halved energy).
        let lin = 10f64.powf(ChannelWidth::Ht40.per_subcarrier_energy_shift_db() / 10.0);
        assert!((lin - 52.0 / 108.0).abs() < 1e-9);
        assert!(lin > 0.45 && lin < 0.52);
    }

    #[test]
    fn symbol_durations() {
        assert!((GuardInterval::Long.symbol_duration_s() - 4.0e-6).abs() < 1e-12);
        assert!((GuardInterval::Short.symbol_duration_s() - 3.6e-6).abs() < 1e-12);
    }

    #[test]
    fn mcs0_rates_match_the_standard_table() {
        let p20 = OfdmParams::new(ChannelWidth::Ht20);
        let p40 = OfdmParams::new(ChannelWidth::Ht40);
        // BPSK (1 bit), rate 1/2, single stream.
        assert!((p20.nominal_bit_rate(1, 0.5, 1) - 6.5e6).abs() < 1.0);
        assert!((p40.nominal_bit_rate(1, 0.5, 1) - 13.5e6).abs() < 1.0);
    }

    #[test]
    fn mcs7_rate_is_65_mbps() {
        let p20 = OfdmParams::new(ChannelWidth::Ht20);
        // 64-QAM (6 bits), rate 5/6, single stream = 65 Mb/s — the paper's
        // "nominal bit rate of 65 Mbps for a single data stream".
        assert!((p20.nominal_bit_rate(6, 5.0 / 6.0, 1) - 65.0e6).abs() < 1.0);
    }

    #[test]
    fn short_gi_scales_rates_by_ten_ninths() {
        let long = OfdmParams::new(ChannelWidth::Ht20);
        let short = OfdmParams {
            width: ChannelWidth::Ht20,
            gi: GuardInterval::Short,
        };
        let ratio =
            short.nominal_bit_rate(6, 5.0 / 6.0, 1) / long.nominal_bit_rate(6, 5.0 / 6.0, 1);
        assert!((ratio - 10.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn ht40_rate_is_slightly_more_than_double() {
        // 108 / (2·52) = 1.038…, so bonding more than doubles nominal rate.
        let p20 = OfdmParams::new(ChannelWidth::Ht20);
        let p40 = OfdmParams::new(ChannelWidth::Ht40);
        let ratio = p40.nominal_bit_rate(2, 0.75, 1) / p20.nominal_bit_rate(2, 0.75, 1);
        assert!(ratio > 2.0 && ratio < 2.1, "ratio = {ratio}");
    }

    #[test]
    fn flipped_is_involutive() {
        assert_eq!(ChannelWidth::Ht20.flipped(), ChannelWidth::Ht40);
        assert_eq!(ChannelWidth::Ht40.flipped().flipped(), ChannelWidth::Ht40);
    }
}
