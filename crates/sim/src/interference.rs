//! SINR-aware evaluation: far-field co-channel interference.
//!
//! The carrier-sense based model (interference graph + access shares)
//! covers APs that *defer* to each other. APs outside carrier-sense range
//! but on overlapping spectrum don't defer — they transmit concurrently
//! and leak interference power into each other's cells, lowering SINR
//! rather than airtime. §1 of the paper: "due to the 3 dB reduction in
//! the per-carrier signal power, transmissions with the wider bands are
//! more susceptible to interference (i.e., the SINR is lower)", and
//! bonded channels additionally collect interference from *both* member
//! channels.
//!
//! [`evaluate_analytic_sinr`] extends the runner with this mechanism:
//! each client's SNR becomes an SINR that folds in every out-of-CS-range
//! co-spectrum AP, weighted by that AP's duty cycle (its access share)
//! and by the spectral-overlap fraction between the two assignments.

use crate::runner::Evaluation;
use crate::traffic::{cell_goodput_bps, Traffic};
use acorn_mac::airtime::{CellAirtime, ClientLink};
use acorn_mac::contention::access_shares;
use acorn_phy::estimator::LinkQualityEstimator;
use acorn_topology::{ApId, ChannelAssignment, ClientId, Wlan};

/// Fraction of interferer `from`'s transmit power that lands inside the
/// victim assignment's band: |overlap| / |from's occupied channels|.
pub fn spectral_overlap_fraction(from: ChannelAssignment, victim: ChannelAssignment) -> f64 {
    let from_ch: Vec<_> = from.occupied().collect();
    let overlap = from_ch
        .iter()
        .filter(|c| victim.occupied().any(|v| v == **c))
        .count();
    overlap as f64 / from_ch.len() as f64
}

/// Aggregate far-field interference power (dBm) at `client` while served
/// by `serving`, from every AP that (a) spectrally overlaps the serving
/// assignment and (b) is *not* deferring to the serving AP (no
/// interference-graph edge — footnote 5's relation). Each interferer is
/// weighted by its duty cycle `duty[j]`.
pub fn interference_at_client_dbm(
    wlan: &Wlan,
    graph: &acorn_topology::InterferenceGraph,
    assignments: &[ChannelAssignment],
    serving: ApId,
    client: ClientId,
    duty: &[f64],
) -> f64 {
    let victim = assignments[serving.0];
    let mut total_mw = 0.0f64;
    for j in 0..wlan.aps.len() {
        if j == serving.0 || graph.interferes(serving, ApId(j)) {
            continue; // deferring neighbours are handled by the M share
        }
        let frac = spectral_overlap_fraction(assignments[j], victim);
        if frac <= 0.0 {
            continue;
        }
        let rx_dbm = wlan.link_budget(ApId(j), client).rx_power_dbm();
        total_mw += duty[j].clamp(0.0, 1.0) * frac * 10f64.powf(rx_dbm / 10.0);
    }
    if total_mw <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * total_mw.log10()
    }
}

/// SINR-aware analytic evaluation (saturated UDP or TCP): like
/// `evaluate_analytic`, plus far-field co-spectrum interference folded
/// into each client's effective SNR.
pub fn evaluate_analytic_sinr(
    wlan: &Wlan,
    assignments: &[ChannelAssignment],
    assoc: &[Option<ApId>],
    estimator: &LinkQualityEstimator,
    payload_bytes: u32,
    traffic: Traffic,
) -> Evaluation {
    assert_eq!(assignments.len(), wlan.aps.len(), "one assignment per AP");
    let graph = wlan.interference_graph(assoc);
    let duty = access_shares(&graph, assignments);
    let per_ap: Vec<f64> = (0..wlan.aps.len())
        .map(|i| {
            let ap = ApId(i);
            let width = assignments[i].width();
            let links: Vec<ClientLink> = assoc
                .iter()
                .enumerate()
                .filter(|(_, a)| **a == Some(ap))
                .map(|(c, _)| {
                    let client = ClientId(c);
                    let budget = wlan.link_budget(ap, client);
                    let interference =
                        interference_at_client_dbm(wlan, &graph, assignments, ap, client, &duty);
                    let sinr = budget.sinr_db(width, interference);
                    // Map the width-specific SINR back through the
                    // estimator (measured at the serving width).
                    let est = estimator.estimate(sinr, width);
                    ClientLink::from_rate_point(est.rate_point(width), width, estimator.gi)
                })
                .collect();
            if links.is_empty() {
                return 0.0;
            }
            let airtime = CellAirtime::new(&links, payload_bytes);
            cell_goodput_bps(&airtime, &links, duty[i], traffic)
        })
        .collect();
    let total_bps = per_ap.iter().sum();
    Evaluation {
        per_ap_bps: per_ap,
        total_bps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::evaluate_analytic;
    use acorn_topology::{Channel20, Point};

    fn single(c: u8) -> ChannelAssignment {
        ChannelAssignment::Single(Channel20(c))
    }

    fn bonded(c: u8) -> ChannelAssignment {
        ChannelAssignment::bonded(Channel20(c)).unwrap()
    }

    /// Two cells far outside carrier sense (no deferral) but close enough
    /// to leak interference: 150 m apart with an 80 m CS range.
    fn hidden_pair() -> (Wlan, Vec<Option<ApId>>) {
        // Clients sit toward their cell edges, where the neighbour's
        // leakage meaningfully moves the SINR.
        let mut w = Wlan::new(
            vec![Point::new(0.0, 0.0), Point::new(150.0, 0.0)],
            vec![Point::new(45.0, 0.0), Point::new(105.0, 0.0)],
            3,
        );
        w.pathloss.shadowing_sigma_db = 0.0;
        let assoc = vec![Some(ApId(0)), Some(ApId(1))];
        (w, assoc)
    }

    #[test]
    fn overlap_fractions() {
        assert_eq!(spectral_overlap_fraction(single(0), single(0)), 1.0);
        assert_eq!(spectral_overlap_fraction(single(0), single(1)), 0.0);
        assert_eq!(spectral_overlap_fraction(bonded(0), single(0)), 0.5);
        assert_eq!(spectral_overlap_fraction(single(0), bonded(0)), 1.0);
        assert_eq!(spectral_overlap_fraction(bonded(0), bonded(0)), 1.0);
        assert_eq!(spectral_overlap_fraction(bonded(0), bonded(2)), 0.0);
    }

    #[test]
    fn orthogonal_channels_match_the_plain_evaluator() {
        let (w, assoc) = hidden_pair();
        let est = LinkQualityEstimator::default();
        let a = [single(0), single(1)];
        let plain = evaluate_analytic(&w, &a, &assoc, &est, 1500, Traffic::Udp);
        let sinr = evaluate_analytic_sinr(&w, &a, &assoc, &est, 1500, Traffic::Udp);
        assert!((plain.total_bps - sinr.total_bps).abs() < 1e-6);
    }

    #[test]
    fn hidden_cochannel_interferer_degrades_throughput() {
        let (w, assoc) = hidden_pair();
        let est = LinkQualityEstimator::default();
        let same = [single(0), single(0)];
        let diff = [single(0), single(1)];
        let y_same = evaluate_analytic_sinr(&w, &same, &assoc, &est, 1500, Traffic::Udp);
        let y_diff = evaluate_analytic_sinr(&w, &diff, &assoc, &est, 1500, Traffic::Udp);
        assert!(
            y_same.total_bps < y_diff.total_bps,
            "hidden interference should cost something: {:.3e} !< {:.3e}",
            y_same.total_bps,
            y_diff.total_bps
        );
        // The plain evaluator is blind to this (no IG edge → full shares).
        let blind = evaluate_analytic(&w, &same, &assoc, &est, 1500, Traffic::Udp);
        assert!((blind.total_bps - y_diff.total_bps).abs() / y_diff.total_bps < 0.01);
    }

    #[test]
    fn bonded_victims_are_more_susceptible() {
        // The paper's §1 claim: at the same distance from an interferer,
        // the bonded cell loses a larger fraction of its throughput.
        let (w, assoc) = hidden_pair();
        let est = LinkQualityEstimator::default();
        let loss_fraction = |victim: ChannelAssignment, interferer: ChannelAssignment| {
            let with =
                evaluate_analytic_sinr(&w, &[victim, interferer], &assoc, &est, 1500, Traffic::Udp)
                    .per_ap_bps[0];
            let clean =
                evaluate_analytic_sinr(&w, &[victim, single(11)], &assoc, &est, 1500, Traffic::Udp)
                    .per_ap_bps[0];
            1.0 - with / clean
        };
        // Interferer fully covers the victim's band in both cases.
        let narrow = loss_fraction(single(0), bonded(0));
        let wide = loss_fraction(bonded(0), bonded(0));
        assert!(
            wide >= narrow,
            "bonded victim should lose at least as much: {wide:.3} vs {narrow:.3}"
        );
    }

    #[test]
    fn duty_cycle_scales_interference() {
        let (w, assoc) = hidden_pair();
        let graph = w.interference_graph(&assoc);
        let a = [single(0), single(0)];
        let full = interference_at_client_dbm(&w, &graph, &a, ApId(0), ClientId(0), &[1.0, 1.0]);
        let half = interference_at_client_dbm(&w, &graph, &a, ApId(0), ClientId(0), &[1.0, 0.5]);
        assert!((full - half - 3.0103).abs() < 1e-6);
        let none = interference_at_client_dbm(&w, &graph, &a, ApId(0), ClientId(0), &[1.0, 0.0]);
        assert_eq!(none, f64::NEG_INFINITY);
    }

    #[test]
    fn deferring_neighbours_are_excluded() {
        // Put the APs inside CS range: the IG edge suppresses the SINR
        // term (they time-share instead).
        let mut w = Wlan::new(
            vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0)],
            vec![Point::new(5.0, 0.0)],
            1,
        );
        w.pathloss.shadowing_sigma_db = 0.0;
        let assoc = vec![Some(ApId(0))];
        let graph = w.interference_graph(&assoc);
        assert!(graph.interferes(ApId(0), ApId(1)));
        let a = [single(0), single(0)];
        let i = interference_at_client_dbm(&w, &graph, &a, ApId(0), ClientId(0), &[0.5, 0.5]);
        assert_eq!(i, f64::NEG_INFINITY);
    }
}
