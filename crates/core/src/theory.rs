//! The theoretical backbone of §4.2: the Y* upper bound, the NP-
//! completeness argument, and the O(1/(Δ+1)) worst-case approximation
//! ratio.
//!
//! **NP-completeness (paper's argument, recorded here).** The aggregate
//! throughput is upper-bounded by `Y* = Σ_i X_i^{isol}`, each AP's best
//! isolated throughput. A solution `F'` attains `Y' = Y*` iff every AP is
//! free of conflicts on its preferred colour, i.e. iff the interference
//! graph admits a proper k-colouring with the available colours — so
//! deciding whether the throughput-maximal assignment reaches `Y*` decides
//! graph k-colourability, which is NP-complete. (Membership in NP: a
//! claimed assignment's `Y` is computable in polynomial time.)
//!
//! **Worst case of Algorithm 2.** The worst local optimum has every AP on
//! the *same* colour (conflicting-but-different colours always yield
//! strictly more throughput). Then each AP keeps `1/(deg_i + 1)` of its
//! isolated throughput, so
//!
//! ```text
//! Y_worst = Σ_i X_i^{isol}/(deg_i + 1) ≥ Y*/(Δ + 1)
//! ```
//!
//! giving the O(1/(Δ+1)) ratio. [`worst_case_bound_bps`] computes the
//! bound and [`approximation_ratio`] measures where a concrete run landed
//! (Fig. 14 shows practice is far better).

use crate::model::NetworkModel;
use acorn_topology::ApId;

/// `Y* = Σ_i max(X_i^{isol-20}, X_i^{isol-40})` — the interference-free
/// upper bound on aggregate throughput (bits/s).
pub fn y_star_bps(model: &NetworkModel) -> f64 {
    (0..model.graph.len())
        .map(|i| model.isolated_best_bps(ApId(i)))
        .sum()
}

/// The degree-aware worst-case throughput of Algorithm 2:
/// `Σ_i X_i^{isol}/(deg_i + 1)`.
pub fn worst_case_bps(model: &NetworkModel) -> f64 {
    (0..model.graph.len())
        .map(|i| model.isolated_best_bps(ApId(i)) / (model.graph.degree(ApId(i)) as f64 + 1.0))
        .sum()
}

/// The coarser Δ-based bound the paper quotes: `Y*/(Δ+1)` (bits/s).
pub fn worst_case_bound_bps(model: &NetworkModel) -> f64 {
    y_star_bps(model) / (model.graph.max_degree() as f64 + 1.0)
}

/// Empirical approximation ratio `Y/Y*` of a concrete outcome.
pub fn approximation_ratio(achieved_bps: f64, y_star_bps: f64) -> f64 {
    if y_star_bps <= 0.0 {
        1.0
    } else {
        achieved_bps / y_star_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::{allocate_with_restarts, AllocationConfig};
    use crate::model::{ClientSnr, NetworkModel, ThroughputModel};
    use acorn_topology::{ChannelPlan, InterferenceGraph};

    fn model(snrs_per_ap: &[&[f64]], graph: InterferenceGraph) -> NetworkModel {
        let cells = snrs_per_ap
            .iter()
            .map(|snrs| {
                snrs.iter()
                    .enumerate()
                    .map(|(i, &s)| ClientSnr {
                        client: i,
                        snr20_db: s,
                    })
                    .collect()
            })
            .collect();
        NetworkModel::new(graph, cells)
    }

    #[test]
    fn y_star_sums_isolated_bests() {
        let m = model(&[&[30.0], &[3.0]], InterferenceGraph::complete(2));
        let y = y_star_bps(&m);
        let manual = m.isolated_best_bps(ApId(0)) + m.isolated_best_bps(ApId(1));
        assert!((y - manual).abs() < 1e-6);
    }

    #[test]
    fn bounds_are_ordered() {
        // worst_case_bound ≤ degree-aware worst case ≤ Y*.
        let g = InterferenceGraph::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let m = model(&[&[25.0], &[20.0], &[15.0], &[10.0]], g);
        let ystar = y_star_bps(&m);
        let worst = worst_case_bps(&m);
        let bound = worst_case_bound_bps(&m);
        assert!(bound <= worst + 1e-9, "bound {bound} worst {worst}");
        assert!(worst <= ystar + 1e-9);
        // Δ = 3 here.
        assert!((bound - ystar / 4.0).abs() < 1e-9);
    }

    #[test]
    fn algorithm2_beats_its_worst_case_bound() {
        // The paper's headline (Fig. 14): in practice the greedy lands
        // well above Y*/(Δ+1).
        let m = model(&[&[28.0], &[10.0], &[4.0]], InterferenceGraph::complete(3));
        for n_channels in [2u8, 4, 6] {
            let plan = ChannelPlan::restricted(n_channels);
            let r = allocate_with_restarts(&m, &plan, &AllocationConfig::default(), 0, 5);
            let bound = worst_case_bound_bps(&m);
            assert!(
                r.total_bps + 1e-9 >= bound,
                "{n_channels} channels: {:.3e} < bound {:.3e}",
                r.total_bps,
                bound
            );
        }
    }

    #[test]
    fn six_channels_reach_y_star_for_three_aps() {
        // Fig. 14: "In the case of 6 channels, ACORN can achieve Y*, since
        // channel allocation isolates every AP and configures the best
        // channel width for each AP."
        let m = model(&[&[28.0], &[10.0], &[4.0]], InterferenceGraph::complete(3));
        let plan = ChannelPlan::restricted(6);
        let cfg = AllocationConfig {
            epsilon: 1.0,
            max_rounds: 64,
        };
        let r = allocate_with_restarts(&m, &plan, &cfg, 0, 5);
        let ratio = approximation_ratio(r.total_bps, y_star_bps(&m));
        assert!(ratio > 0.999, "ratio {ratio}");
    }

    #[test]
    fn two_channels_land_near_y_star_over_three() {
        // Fig. 14: "With 2 channels ... the aggregate network throughput
        // is Y*/3, since the medium access is shared among the contending
        // APs" (loose: Y* is an upper bound, and mixed widths shift it).
        let m = model(&[&[28.0], &[26.0], &[27.0]], InterferenceGraph::complete(3));
        let plan = ChannelPlan::restricted(2);
        let r = allocate_with_restarts(&m, &plan, &AllocationConfig::default(), 0, 5);
        let ratio = approximation_ratio(r.total_bps, y_star_bps(&m));
        assert!(ratio >= 1.0 / 3.0 - 1e-9, "ratio {ratio}");
        assert!(
            ratio < 0.75,
            "with 2 channels full isolation of 3 APs is impossible: {ratio}"
        );
    }

    #[test]
    fn ratio_edge_cases() {
        assert_eq!(approximation_ratio(5.0, 0.0), 1.0);
        assert_eq!(approximation_ratio(5.0, 10.0), 0.5);
    }

    #[test]
    fn empty_network_bounds_are_zero() {
        let m = model(&[], InterferenceGraph::new(0));
        assert_eq!(y_star_bps(&m), 0.0);
        assert_eq!(worst_case_bps(&m), 0.0);
        let _ = m.total_bps(&[]);
    }
}
