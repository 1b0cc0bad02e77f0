//! The one scoped thread pool of the workspace (std only).
//!
//! [`par`] runs indexed jobs on up to `jobs` threads, the calling thread
//! included, and hands every `(index, result)` back to the caller's
//! thread. Each thread pulls the next position of `order` from a shared
//! counter, so `order` is the dispatch order and a slow job never holds
//! up the others. The callers are the optimizer's scaling-chunk driver,
//! the campaign pool and the cache-directory scans; each slots results by
//! index, which is what keeps their outcomes independent of `jobs` and
//! of completion order.
//!
//! The calling thread is one of the `jobs` workers rather than a
//! collector waiting on the others: it spawns `jobs - 1` helpers, and
//! between its own jobs it delivers whatever the helpers have finished.
//! So exactly `jobs` threads compete for cores, and a helper's result
//! waits in the channel instead of waking a sleeping collector. On a
//! host whose cores are shared with other work, a collector's wake-ups
//! and an extra runnable thread make run times swing with that load. The
//! price is latency: a helper's result can wait until the caller's job
//! in progress ends.
//!
//! A panicking job propagates to the caller once every other thread has
//! finished (the `std::thread::scope` rule).

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `job(i)` for every `i` in `order` on up to `jobs` threads, the
/// calling thread one of them, and passes each `(i, result)` to
/// `deliver` on the calling thread. The caller delivers its own results
/// as its jobs finish, and the helpers' results in their completion order
/// before it claims its next job and after its last.
///
/// When `deliver` returns [`ControlFlow::Break`], dispatch ends: no
/// thread claims another index, the helpers' jobs already running
/// finish, and their results are dropped. At `jobs <= 1`, or with at
/// most one job, everything runs on the calling thread, in `order`, and
/// no thread is spawned.
pub fn par<T, J, D>(jobs: usize, order: &[usize], job: J, mut deliver: D)
where
    T: Send,
    J: Fn(usize) -> T + Sync,
    D: FnMut(usize, T) -> ControlFlow<()>,
{
    // Relaxed: the counter and the flag publish no data; results travel
    // through the channel, which orders them.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let claim = || order.get(next.fetch_add(1, Ordering::Relaxed)).copied();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        for _ in 1..jobs.min(order.len()) {
            let tx = tx.clone();
            let (stop, job, claim) = (&stop, &job, &claim);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let Some(i) = claim() else {
                        break;
                    };
                    if tx.send((i, job(i))).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        let mut caller = || -> ControlFlow<()> {
            loop {
                for (i, result) in rx.try_iter() {
                    deliver(i, result)?;
                }
                let Some(i) = claim() else {
                    break;
                };
                deliver(i, job(i))?;
            }
            rx.iter().try_for_each(|(i, result)| deliver(i, result))
        };
        if caller().is_break() {
            // The receiver drops as the scope closes, so a helper's next
            // send fails even if it missed the flag.
            stop.store(true, Ordering::Relaxed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Runs `n` jobs in index order and returns what `deliver` saw.
    fn run(jobs: usize, n: usize) -> Vec<(usize, usize, ThreadId)> {
        let order: Vec<usize> = (0..n).collect();
        let mut seen = Vec::new();
        par(
            jobs,
            &order,
            |i| i * 10,
            |i, r| {
                seen.push((i, r, std::thread::current().id()));
                ControlFlow::Continue(())
            },
        );
        seen
    }

    #[test]
    fn every_index_is_delivered_once_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for (jobs, n) in [(1, 9), (2, 9), (3, 40), (8, 3), (4, 0), (0, 5)] {
            let seen = run(jobs, n);
            let mut indices: Vec<usize> = seen.iter().map(|&(i, _, _)| i).collect();
            indices.sort_unstable();
            assert_eq!(indices, (0..n).collect::<Vec<_>>(), "jobs={jobs} n={n}");
            assert!(seen.iter().all(|&(i, r, t)| r == i * 10 && t == caller));
        }
    }

    #[test]
    fn one_job_runs_inline_in_order() {
        let caller = std::thread::current().id();
        let order = [4, 0, 3, 1, 2];
        let started = Mutex::new(Vec::new());
        let mut delivered = Vec::new();
        par(
            1,
            &order,
            |i| {
                assert_eq!(std::thread::current().id(), caller, "ran inline");
                started.lock().unwrap().push(i);
                i
            },
            |i, _| {
                delivered.push(i);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(*started.lock().unwrap(), order);
        assert_eq!(delivered, order);
    }

    #[test]
    fn a_break_starts_no_new_job() {
        const K: usize = 5;
        // Inline: exactly the first K jobs run.
        let order: Vec<usize> = (0..50).collect();
        let started = AtomicUsize::new(0);
        let mut delivered = 0;
        par(
            1,
            &order,
            |_| started.fetch_add(1, Ordering::SeqCst),
            |_, _| {
                delivered += 1;
                if delivered == K {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
        assert_eq!((delivered, started.load(Ordering::SeqCst)), (K, K));

        // Threaded, on the caller and one helper. The helper's first job
        // ends once the caller has started its own, so its result is
        // queued, undelivered, while the caller works; its second job
        // blocks until a result is dropped undelivered, which only the
        // wind-down after a break does. The caller's job ends once the
        // helper is blocked, and `deliver` breaks on that first result.
        // Three jobs have started then; a pool that kept dispatching
        // would start a fourth.
        let caller = std::thread::current().id();
        let caller_started = AtomicBool::new(false);
        let released = AtomicBool::new(false);
        let waiting = AtomicUsize::new(0);
        let helper_jobs = AtomicUsize::new(0);
        let started = AtomicUsize::new(0);
        // One bound on all the waiting, so a broken pool fails the
        // asserts below instead of hanging.
        let deadline = Instant::now() + Duration::from_secs(10);
        let wait_for = |flag: &dyn Fn() -> bool| {
            while !flag() && Instant::now() < deadline {
                std::thread::yield_now();
            }
        };
        let mut delivered = 0;
        par(
            2,
            &order,
            |_| {
                started.fetch_add(1, Ordering::SeqCst);
                if std::thread::current().id() == caller {
                    caller_started.store(true, Ordering::SeqCst);
                    wait_for(&|| waiting.load(Ordering::SeqCst) == 1);
                } else if helper_jobs.fetch_add(1, Ordering::SeqCst) == 0 {
                    wait_for(&|| caller_started.load(Ordering::SeqCst));
                } else {
                    waiting.fetch_add(1, Ordering::SeqCst);
                    wait_for(&|| released.load(Ordering::SeqCst));
                }
                Tracked {
                    delivered: false,
                    released: &released,
                }
            },
            |_, mut result| {
                result.delivered = true;
                delivered += 1;
                ControlFlow::Break(())
            },
        );
        assert_eq!(delivered, 1);
        assert!(released.load(Ordering::SeqCst), "the queued result dropped");
        assert_eq!(
            started.load(Ordering::SeqCst),
            3,
            "a job started after the break"
        );
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        // Three jobs that each wait until all three run at once finish
        // only on three threads; at `jobs = 3` that takes the caller and
        // two helpers.
        let caller = std::thread::current().id();
        let running = AtomicUsize::new(0);
        let threads = Mutex::new(HashSet::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        par(
            3,
            &[0, 1, 2],
            |_| {
                threads.lock().unwrap().insert(std::thread::current().id());
                running.fetch_add(1, Ordering::SeqCst);
                while running.load(Ordering::SeqCst) < 3 && Instant::now() < deadline {
                    std::thread::yield_now();
                }
            },
            |_, ()| ControlFlow::Continue(()),
        );
        let threads = threads.into_inner().unwrap();
        assert_eq!(threads.len(), 3, "three jobs ran at once");
        assert!(threads.contains(&caller), "the caller ran a job");
    }

    /// A job result that sets `released` when dropped undelivered.
    struct Tracked<'a> {
        delivered: bool,
        released: &'a AtomicBool,
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            if !self.delivered {
                self.released.store(true, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn more_threads_than_jobs_and_no_jobs_work() {
        assert!(run(8, 0).is_empty());
        assert_eq!(run(16, 2).len(), 2);
        let mut called = false;
        par(
            4,
            &[],
            |i| i,
            |_, _: usize| {
                called = true;
                ControlFlow::Continue(())
            },
        );
        assert!(!called);
    }
}
