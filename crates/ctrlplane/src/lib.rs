//! # acorn-ctrlplane — the distributed control plane
//!
//! Production ACORN does not run as one process: a city-scale deployment
//! splits into interference *zones* (connected components of the
//! conflict graph), each owned by a zone controller that runs
//! Algorithms 1/2 locally and coordinates with its peers over an
//! IAPP-style message protocol. This crate builds that plane on the
//! deterministic event runtime of `acorn-events`:
//!
//! * [`msg`] — the typed message taxonomy ([`CtrlMsg`],
//!   [`CtrlEnvelope`]) and its 802.11-style wire codec with CRC-32 FCS
//!   and defensive, typed-error parsing ([`CtrlWireError`]).
//! * [`zone`] — the [`ZoneController`] process: epoch catch-up replay,
//!   reliable batched gossip (per-peer unacked maps, capped exponential
//!   backoff, dedup-on-receive), and partition safe mode.
//! * [`plane`] — assembly and oracle: [`DistributedPlane`] wires one
//!   controller per zone over a shared world; its
//!   [`centralized_twin`] recomputes the allocation a single
//!   centralized controller would deploy.
//!
//! ## The golden-twin contract
//!
//! The centralized allocator already shards Algorithm 2 by connected
//! component with a per-shard restart schedule. Each zone controller
//! replays exactly its shard's schedule
//! ([`AcornController::reallocate_zone`]) against a bit-exact
//! restricted submodel, so a **benign** distributed run converges to
//! the centralized allocation bit-for-bit — not approximately. Faults
//! (loss, corruption, delay, duplication, controller crashes) are
//! absorbed by the reliable-delivery layer and epoch catch-up replay;
//! a *partition* degrades the isolated zone to safe mode (last-known-
//! good plan, border cells at 20 MHz) until quorum heals, after which
//! catch-up replay restores twin equality.
//!
//! All randomness — restart schedules, fault draws — is keyed through
//! `mix_seed` streams, so every run is a pure function of its
//! [`PlaneConfig`] at any thread count.
//!
//! [`AcornController::reallocate_zone`]: acorn_core::AcornController::reallocate_zone

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod msg;
pub mod plane;
pub mod zone;

pub use msg::{
    encode_envelope, fingerprint_slice, parse_envelope, CtrlEnvelope, CtrlMsg, CtrlWireError,
    CTRL_SUBTYPE, CTRL_VERSION, SALT_CTRL,
};
pub use plane::{
    centralized_twin, CrashWindow, DistributedPlane, NetState, PartitionWindow, PlaneConfig,
    PlaneEvent, PlaneReport, PlaneWorld, ZoneReport, CTRL_GAUNTLET,
};
pub use zone::{backoff_for, ZoneController};
