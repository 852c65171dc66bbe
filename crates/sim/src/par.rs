//! The workspace's one parallel map and one worker count.
//!
//! Chaos campaigns judge scenarios and the placement ILP's LNS warm
//! start runs replicas with [`par_map`]; both size it, and the
//! branch-and-bound helpers, by [`workers`]. Each result is placed by its
//! index, so anything folded from the output in order is the same at any
//! worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count of a parallel phase: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `(0..n).map(f)` on up to `workers` threads, in index order.
///
/// Workers claim indices from one shared counter, so a slow index holds
/// up only its own worker; the calling thread is one of them, so one
/// worker spawns no thread. Each result is placed by its index, so the
/// output — and everything folded from it — is the same at any worker
/// count. A panic in `f` reaches the caller with its original payload.
pub fn par_map<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.clamp(1, n.max(1)))
            .map(|_| s.spawn(work))
            .collect();
        let mut done = work();
        for h in helpers {
            // A worker's panic is a panic of `f`: re-raise it here.
            done.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Index `i` costs `(i * 7) % 13` units of busy work, so workers
    /// finish out of order.
    fn uneven(i: usize) -> u64 {
        let mut acc = i as u64;
        for k in 0..((i * 7) % 13) * 2_000 {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(k as u64));
        }
        std::hint::black_box(acc);
        (i as u64) * 3
    }

    #[test]
    fn output_is_in_index_order_at_every_worker_count() {
        let want: Vec<u64> = (0..100).map(|i| i * 3).collect();
        for w in [0, 1, 2, 4, 8, 64] {
            assert_eq!(par_map(100, w, uneven), want, "{w} workers");
        }
    }

    #[test]
    fn no_indices_give_an_empty_result() {
        for w in [0, 1, 4] {
            assert!(par_map(0, w, uneven).is_empty(), "{w} workers");
        }
    }

    #[test]
    fn a_panic_reaches_the_caller_with_its_payload() {
        // Each index panics in turn, so the panic lands on the calling
        // thread in some runs and on a helper in others.
        for bad in 0..8 {
            for w in [1, 2, 4] {
                let caught = std::panic::catch_unwind(|| {
                    par_map(8, w, |i| {
                        if i == bad {
                            std::panic::panic_any(format!("index {i}"));
                        }
                        i
                    })
                })
                .expect_err("the panic must propagate");
                let payload = caught.downcast::<String>().expect("a String payload");
                assert_eq!(*payload, format!("index {bad}"), "{w} workers");
            }
        }
    }
}
