//! Order-stable parallel map on std scoped threads.
//!
//! The evaluation engine's one concurrency primitive: [`par_map`] (and
//! its index-driven sibling [`par_map_n`]) fans work items out over a
//! pool of `std::thread::scope` workers and returns results **in item
//! order**, so every reduction downstream is identical to the sequential
//! fold — parallelism never changes an answer, only how fast it arrives.
//! Work is claimed from an atomic counter (no pre-chunking), results flow
//! back through a channel tagged with their index, and a panic in a
//! worker resumes on the caller with the worker's own payload once every
//! worker has been joined.
//!
//! Thread count comes from `std::thread::available_parallelism`, capped
//! by the `ACORN_THREADS` env var (read per call, so tests can flip it at
//! runtime). Nested calls run sequentially on the calling worker — outer
//! parallelism (e.g. restarts) already owns the cores, and keeping the
//! nesting flat means the result is the same whichever level fans out.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

thread_local! {
    /// True on threads that are themselves `par_map` workers.
    static IN_PAR_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The maximum worker count: `available_parallelism`, overridden by the
/// `ACORN_THREADS` env var (values < 1 or unparsable are ignored).
pub fn max_threads() -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    match std::env::var("ACORN_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or(hw),
        Err(_) => hw,
    }
}

/// Maps `f` over `items` in parallel, returning results in item order.
///
/// Equivalent to `items.iter().map(f).collect()` — bit-identical
/// results, any thread count (including 1).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_n(items.len(), |i| f(&items[i]))
}

/// Maps `f` over `0..n` in parallel, returning results in index order.
///
/// Equivalent to `(0..n).map(f).collect()` — bit-identical results, any
/// thread count. `f` gets the item index, which doubles as the stable
/// per-work-item seed derivation point for randomized workloads.
pub fn par_map_n<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = max_threads().min(n);
    if threads <= 1 || IN_PAR_WORKER.with(|w| w.get()) {
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, U)>();
    let panicked = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    IN_PAR_WORKER.with(|w| w.set(true));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // The receiver outlives the scope; a send can only
                        // fail if the main thread is already unwinding.
                        let _ = tx.send((i, f(i)));
                    }
                })
            })
            .collect();
        drop(tx);
        // Joining every handle ourselves keeps the scope from replacing a
        // worker's panic with its generic "a scoped thread panicked".
        let mut first = None;
        for w in workers {
            if let Err(payload) = w.join() {
                first.get_or_insert(payload);
            }
        }
        first
    });
    if let Some(payload) = panicked {
        std::panic::resume_unwind(payload);
    }

    let mut slots: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for (i, v) in rx {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * x).collect();
        let par: Vec<u64> = par_map(&items, |&x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let empty: Vec<u32> = par_map_n(0, |i| i as u32);
        assert!(empty.is_empty());
        assert_eq!(par_map_n(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn nested_calls_fall_back_to_sequential() {
        // Inner calls run on the worker thread; results stay identical.
        let out = par_map_n(8, |i| par_map_n(8, move |j| i * 8 + j));
        for (i, row) in out.iter().enumerate() {
            assert_eq!(*row, (i * 8..i * 8 + 8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn float_sums_are_bit_identical_to_sequential() {
        let xs: Vec<f64> = (0..4096).map(|i| (i as f64).sin() * 1e7).collect();
        let seq: f64 = xs.iter().map(|x| x.sqrt().abs().ln_1p()).sum();
        let par: f64 = par_map(&xs, |x| x.sqrt().abs().ln_1p()).into_iter().sum();
        assert_eq!(seq.to_bits(), par.to_bits());
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let _ = par_map_n(64, |i| {
            if i == 33 {
                panic!("worker boom");
            }
            i
        });
    }
}
