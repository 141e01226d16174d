//! # acorn-core — the ACORN auto-configuration framework
//!
//! The paper's primary contribution: joint user association and
//! channel-bonding-aware channel allocation for enterprise 802.11n WLANs
//! ("Auto-configuration of 802.11n WLANs", CoNEXT 2010).
//!
//! * [`beacon`] — the modified beacon payload (`K_i`, per-client delays,
//!   `ATD_i`, `M_i`) ACORN APs broadcast.
//! * [`association`] — **Algorithm 1**: network-aware user association via
//!   the Eq. 4 utility (plus a selfish baseline for ablations).
//! * [`allocation`] — **Algorithm 2**: iterative max-rank greedy colouring
//!   over basic (20 MHz) and composite (40 MHz) colours with the ε = 1.05
//!   stopping rule.
//! * [`model`] — the throughput model both algorithms optimize: the §4.2
//!   estimator feeding the performance-anomaly airtime model under
//!   `M = 1/(|con|+1)` contention.
//! * [`theory`] — `Y*`, the NP-completeness argument, and the O(1/(Δ+1))
//!   worst-case approximation bound.
//! * [`controller`] — the live controller: beacons, arrival-driven
//!   association, periodic re-allocation (T = 30 min), and the
//!   opportunistic 20-MHz fallback for mobility.
//! * [`scanning`] — the §4.2 per-channel scanning extension.
//! * [`iapp`] — the IEEE 802.11F-style Inter-AP Protocol substrate for
//!   distributed neighbour/contender discovery.
//! * [`wire`] — the 802.11 wire format of the modified beacon (management
//!   frame + vendor IE), with defensive parsing.
//! * [`csa`] — 802.11h-style channel-switch announcements so re-allocation
//!   epochs deploy without stranding clients.
//! * [`tracker`] — driver-style per-client SNR/association bookkeeping
//!   (EWMA smoothing, outlier rejection, staleness) per §5.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod association;
pub mod beacon;
pub mod controller;
pub mod csa;
pub mod error;
pub mod iapp;
pub mod model;
pub mod par;
pub mod scanning;
pub mod theory;
pub mod tracker;
pub mod wire;

pub use allocation::{
    allocate, allocate_sharded, allocate_sharded_with_restarts, allocate_with_restarts,
    random_initial, AllocSpec, AllocationConfig, AllocationResult,
};
pub use association::{
    choose_ap, choose_ap_obs, choose_ap_selfish, choose_ap_selfish_obs, screen_score, utility,
    Candidate,
};
pub use beacon::Beacon;
pub use controller::{AcornConfig, AcornController, NetworkState};
pub use csa::{switch_plans, ApCsa, ClientCsa, CsaAction, SwitchPlan};
pub use error::ControlError;
pub use model::{ClientSnr, ModelStats, ModelStatsSnapshot, NetworkModel, ThroughputModel};
pub use theory::{approximation_ratio, worst_case_bound_bps, y_star_bps};
pub use tracker::{ClientTracker, TrackerConfig};
pub use wire::{
    crc32, parse_announcement, parse_beacon, refresh_fcs, serialize_announcement, serialize_beacon,
    WireError,
};
