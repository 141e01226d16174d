//! An exact per-SNR memo of the §4.2 estimator.
//!
//! The controller re-estimates the same links many times: every arrival
//! ranks candidates from a freshly built model, every width adaptation and
//! re-allocation rebuilds it, and between those events most SNRs have not
//! moved. An [`EstimateMemo`] remembers the full
//! [`LinkQualityEstimate`] for each 20 MHz-referenced SNR it has seen,
//! keyed on the SNR's `f64::to_bits`, so a repeated query returns the
//! stored estimate instead of re-running the union-bound search.
//!
//! Unlike the [`GoodputTable`](crate::GoodputTable) it is *exact*: a hit
//! returns the very value `estimator.estimate(snr20, Ht20)` returned for
//! the same bits, so nothing downstream can tell a hit from a miss. A link
//! whose SNR drifts or moves produces new bits and simply misses, which is
//! the whole invalidation story for SNR changes. The estimator itself is
//! fixed at construction; callers holding a possibly different estimator
//! must compare it with [`EstimateMemo::estimator`] and bypass the memo on
//! a mismatch.

use crate::estimator::{LinkQualityEstimate, LinkQualityEstimator};
use crate::ofdm::ChannelWidth;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// A point-in-time copy of a memo's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Queries answered from the memo.
    pub hits: u64,
    /// Queries that ran the estimator (and stored the result).
    pub misses: u64,
    /// Entries currently held (at most [`EstimateMemo::CAPACITY`]).
    pub len: usize,
}

/// An exact, size-capped SNR → estimate memo for one estimator
/// configuration. `Sync`: the map sits behind a mutex that is held only
/// for the lookup and the insert, never across an estimate. Its `Debug`
/// form shows the estimator and the counters, not the entries.
pub struct EstimateMemo {
    estimator: LinkQualityEstimator,
    entries: Mutex<HashMap<u64, LinkQualityEstimate>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for EstimateMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstimateMemo")
            .field("estimator", &self.estimator)
            .field("stats", &self.stats())
            .finish()
    }
}

impl EstimateMemo {
    /// Maximum number of stored estimates. Inserting into a full memo
    /// first clears it: drift and mobility leave stale SNR keys behind
    /// that would otherwise accumulate forever, and the live working set
    /// (one key per associated client plus the arriving client's
    /// candidates) refills within one event. At roughly 100 bytes per
    /// entry the cap bounds the memo near 0.5 MB.
    pub const CAPACITY: usize = 4096;

    /// An empty memo for `estimator`.
    pub fn new(estimator: LinkQualityEstimator) -> EstimateMemo {
        EstimateMemo {
            estimator,
            entries: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The estimator every stored estimate was computed with.
    pub fn estimator(&self) -> &LinkQualityEstimator {
        &self.estimator
    }

    /// `self.estimator().estimate(snr20_db, ChannelWidth::Ht20)`, bit for
    /// bit, from the memo when these SNR bits have been seen before.
    pub fn estimate(&self, snr20_db: f64) -> LinkQualityEstimate {
        let key = snr20_db.to_bits();
        let cached = self
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .copied();
        if let Some(est) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return est;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let est = self.estimator.estimate(snr20_db, ChannelWidth::Ht20);
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if entries.len() >= Self::CAPACITY {
            entries.clear();
        }
        entries.insert(key, est);
        est
    }

    /// Reads the counters and the current size.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            len: self
                .entries
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_return_the_estimate_a_miss_computed() {
        let e = LinkQualityEstimator::default();
        let memo = EstimateMemo::new(e);
        for snr in [-4.0, 7.25, 18.5, 31.0] {
            let first = memo.estimate(snr);
            let second = memo.estimate(snr);
            assert_eq!(first, e.estimate(snr, ChannelWidth::Ht20));
            assert_eq!(first, second);
        }
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.len), (4, 4, 4));
    }

    #[test]
    fn keys_are_bit_patterns() {
        let memo = EstimateMemo::new(LinkQualityEstimator::default());
        memo.estimate(0.0);
        memo.estimate(-0.0);
        memo.estimate(0.1 + 0.2);
        memo.estimate(0.3);
        assert_eq!(memo.stats().misses, 4, "distinct bits are distinct keys");
    }

    #[test]
    fn a_full_memo_clears_before_inserting() {
        let memo = EstimateMemo::new(LinkQualityEstimator::default());
        for i in 0..EstimateMemo::CAPACITY {
            memo.estimate(i as f64 * 1e-3);
        }
        assert_eq!(memo.stats().len, EstimateMemo::CAPACITY);
        memo.estimate(-1.0);
        assert_eq!(memo.stats().len, 1);
        // The evicted keys miss again but still answer exactly.
        let e = LinkQualityEstimator::default();
        assert_eq!(memo.estimate(0.0), e.estimate(0.0, ChannelWidth::Ht20));
        assert_eq!(memo.stats().misses, EstimateMemo::CAPACITY as u64 + 2);
    }
}
