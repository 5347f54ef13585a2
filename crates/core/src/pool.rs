//! The workspace's one worker pool: an ordered, chunked map with
//! per-worker state.
//!
//! Every parallel loop of PMEvo runs through [`map`]: measuring
//! experiment batches on the simulator, scoring each generation's
//! candidate mappings, solving a predictor's cache misses and running
//! concurrent inference sessions. Each caller brings one state per
//! worker (a solver with warm scratch buffers, a measurement harness, or
//! nothing) and a function that turns a contiguous index range into that
//! range's results.
//!
//! Workers claim chunks dynamically, so a slow chunk does not leave the
//! other workers idle, and the results are reassembled by chunk start.
//! A caller whose function is pure in its index range therefore gets the
//! same output for every worker count and every schedule.

use std::any::Any;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Chunks per worker: enough that a worker finishing early finds more
/// work, few enough that the per-chunk cost stays negligible.
const CHUNKS_PER_WORKER: usize = 4;

/// The default worker count: the machine's available parallelism, or 4
/// when it cannot be determined.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Maps `f` over the index range `0..n` in contiguous chunks, one worker
/// per element of `states`, and returns the concatenated results in
/// index order.
///
/// The calling thread is the worker of `states[0]`; one scoped thread
/// serves each further state that has work (at most one per chunk). A
/// single state therefore runs all of `0..n` as one call on the calling
/// thread, without spawning. `f` must return one result per index of its
/// range for the output to line up with `0..n`; `map` itself only
/// concatenates.
///
/// # Panics
///
/// Panics if `states` is empty. If `f` panics, no worker claims a
/// further chunk, and once every worker has stopped the first panic's
/// payload is re-raised on the calling thread. States are left as the
/// interrupted calls left them.
pub fn map<S, R, F>(states: &mut [S], n: usize, f: F) -> Vec<R>
where
    S: Send,
    R: Send,
    F: Fn(&mut S, Range<usize>) -> Vec<R> + Sync,
{
    assert!(
        !states.is_empty(),
        "the pool needs at least one worker state"
    );
    if n == 0 {
        return Vec::new();
    }
    // A lone worker has nobody to balance against: one chunk.
    let chunks = if states.len() == 1 {
        1
    } else {
        states.len() * CHUNKS_PER_WORKER
    };
    let chunks = Chunks::new(n, n.div_ceil(chunks));
    let workers = states.len().min(n.div_ceil(chunks.size));
    let (own, others) = states.split_first_mut().expect("states checked non-empty");
    let mut done = std::thread::scope(|scope| {
        let (chunks, f) = (&chunks, &f);
        let handles: Vec<_> = others[..workers - 1]
            .iter_mut()
            .map(|state| scope.spawn(move || chunks.work(state, f)))
            .collect();
        let mut done = chunks.work(own, f);
        for handle in handles {
            done.extend(
                handle
                    .join()
                    .expect("panics in `f` are caught in the worker"),
            );
        }
        done
    });
    if let Some(payload) = chunks.first_panic.into_inner().expect("payload slot lock") {
        std::panic::resume_unwind(payload);
    }
    done.sort_unstable_by_key(|&(start, _)| start);
    done.into_iter().flat_map(|(_, results)| results).collect()
}

/// The claim state one [`map`] call shares between its workers.
struct Chunks {
    n: usize,
    size: usize,
    /// Index of the next unclaimed chunk.
    next: AtomicUsize,
    /// Set once any chunk has panicked: no further chunk is claimed.
    stop: AtomicBool,
    first_panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Chunks {
    fn new(n: usize, size: usize) -> Chunks {
        Chunks {
            n,
            size,
            next: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            first_panic: Mutex::new(None),
        }
    }

    /// Runs `f` on claimed chunks until none is left or one has
    /// panicked, returning each finished chunk's results with its start.
    fn work<S, R>(
        &self,
        state: &mut S,
        f: &impl Fn(&mut S, Range<usize>) -> Vec<R>,
    ) -> Vec<(usize, Vec<R>)> {
        let mut done = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            let start = self.next.fetch_add(1, Ordering::SeqCst) * self.size;
            if start >= self.n {
                break;
            }
            let range = start..(start + self.size).min(self.n);
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(state, range))) {
                Ok(results) => done.push((start, results)),
                Err(payload) => {
                    self.stop.store(true, Ordering::SeqCst);
                    self.first_panic
                        .lock()
                        .expect("payload slot lock")
                        .get_or_insert(payload);
                    break;
                }
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_in_index_order_for_every_worker_count() {
        for workers in [1usize, 2, 3, 8] {
            for n in [0, 1, workers - 1, workers + 1, 257] {
                let mut states: Vec<Vec<usize>> = vec![Vec::new(); workers];
                let got = map(&mut states, n, |seen, range| {
                    seen.extend(range.clone());
                    range.map(|i| i * i).collect()
                });
                let want: Vec<usize> = (0..n).map(|i| i * i).collect();
                assert_eq!(got, want, "{workers} workers, n = {n}");
                // Every index was served exactly once, by some worker.
                let mut served = states.concat();
                served.sort_unstable();
                assert_eq!(served, (0..n).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn results_are_in_order_when_chunks_finish_out_of_order() {
        // The caller finishes its first chunk only after a spawned worker
        // has finished one, and spawned workers start their second chunk
        // only after the caller has finished two. So the caller always
        // finishes a chunk claimed after one a spawned worker finished.
        for workers in [2usize, 3, 8] {
            let (by_caller, by_spawned) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let mut states: Vec<(usize, usize)> = (0..workers).map(|id| (id, 0)).collect();
            let got = map(&mut states, 257, |(id, calls), range| {
                if *id == 0 {
                    while *calls == 0 && by_spawned.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                    by_caller.fetch_add(1, Ordering::SeqCst);
                } else {
                    while *calls == 1 && by_caller.load(Ordering::SeqCst) < 2 {
                        std::thread::yield_now();
                    }
                    by_spawned.fetch_add(1, Ordering::SeqCst);
                }
                *calls += 1;
                range.collect::<Vec<_>>()
            });
            assert_eq!(got, (0..257).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn the_first_panic_reaches_the_caller() {
        for workers in [1usize, 2, 8] {
            let mut states = vec![(); workers];
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                map(&mut states, 100, |(), range| {
                    assert!(range.start != 0, "chunk at 0 failed");
                    range.collect::<Vec<_>>()
                })
            }));
            let payload = outcome.expect_err("the panic was swallowed");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk at 0 failed"));
        }
    }

    #[test]
    fn no_chunk_is_claimed_after_a_panic() {
        // Two workers in turn: the first fails on its third chunk, the
        // second must then claim nothing.
        let chunks = Chunks::new(100, 10);
        let f = |calls: &mut usize, range: Range<usize>| {
            *calls += 1;
            assert!(range.start != 20, "third chunk failed");
            range.collect::<Vec<_>>()
        };
        let (mut first, mut second) = (0, 0);
        let done = chunks.work(&mut first, &f);
        assert_eq!(
            done.iter().map(|&(start, _)| start).collect::<Vec<_>>(),
            [0, 10]
        );
        assert_eq!(first, 3);
        assert!(chunks.work(&mut second, &f).is_empty());
        assert_eq!(second, 0);
        let payload = chunks
            .first_panic
            .into_inner()
            .unwrap()
            .expect("payload kept");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"third chunk failed"));
    }

    #[test]
    fn a_single_state_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut states = vec![0usize];
        let threads = map(&mut states, 50, |calls, range| {
            *calls += 1;
            range.map(|_| std::thread::current().id()).collect()
        });
        assert_eq!(threads.len(), 50);
        assert!(threads.iter().all(|&t| t == caller));
        assert_eq!(states[0], 1, "one worker, one chunk");
    }
}
