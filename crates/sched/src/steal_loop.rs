//! The worker loop of a copy-on-steal driver.
//!
//! The paper's fine-grained searches (§5) all schedule the same way: a
//! worker claims the next root from a shared counter and runs its search,
//! registered in a [`StealRegistry`]; once the roots are gone it splits work
//! off a registered search instead, and it leaves only when no search can
//! yield work any more. [`StealLoop`] is that loop, with its termination
//! count and idle policy; the drivers supply the search and the split.

use crate::parallel::DynamicCounter;
use crate::registry::{RegistrationGuard, StealRegistry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Failed steal rounds an idle worker spins through (yielding) before it
/// naps between rounds.
const IDLE_SPINS: u32 = 64;
/// An idle worker's nap between steal rounds once spinning found nothing.
const IDLE_NAP: Duration = Duration::from_micros(50);

/// Root claiming, stealing and termination shared by the workers of one
/// copy-on-steal run over searches of type `S`.
#[derive(Debug)]
pub struct StealLoop<S> {
    roots: DynamicCounter,
    registry: StealRegistry<S>,
    /// Searches that may still yield work: unclaimed and running roots plus
    /// running split-off searches. Counting a root from before it is claimed
    /// keeps idle workers around while its owner still prepares it.
    outstanding: AtomicUsize,
}

/// Counts one outstanding search (a root or a split-off search) as finished
/// when dropped — also when a panic unwinds out of it, so the idle workers
/// waiting for the count to reach zero still leave and the pool can re-raise
/// the panic.
struct Finished<'a>(&'a AtomicUsize);

impl Drop for Finished<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl<S> StealLoop<S> {
    /// A run over the roots `0..roots`.
    pub fn new(roots: usize) -> Self {
        Self {
            roots: DynamicCounter::new(roots, 1),
            registry: StealRegistry::new(),
            outstanding: AtomicUsize::new(roots),
        }
    }

    /// Opens a running search to thieves until the guard is dropped.
    pub fn register(&self, search: Arc<S>) -> RegistrationGuard<'_, S> {
        self.registry.register(search)
    }

    /// Counts a search just split off a victim as outstanding. Call it while
    /// still holding the victim's lock: the victim cannot finish first, so
    /// the count never touches zero while the split-off work is in flight.
    pub fn count_split(&self) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
    }

    /// Runs one worker until every search is done or `stopped` returns
    /// `true`. Each round, the worker claims a root and calls
    /// `run_root(local, index)`; once the roots are gone, it offers
    /// registered victims to `split(local, victim)` and runs the first split
    /// through `run_split(local, split)`. `local` is the worker's own state,
    /// lent to each call in turn. With nothing to steal the worker yields
    /// for a few rounds, then naps between rounds so it does not compete
    /// with the running searches for the cores.
    pub fn run_worker<L, T>(
        &self,
        local: &mut L,
        stopped: impl Fn() -> bool,
        mut run_root: impl FnMut(&mut L, usize),
        mut split: impl FnMut(&mut L, &S) -> Option<T>,
        mut run_split: impl FnMut(&mut L, T),
    ) {
        let mut idle = 0u32;
        while !stopped() {
            if let Some(index) = self.roots.next() {
                let _finished = Finished(&self.outstanding);
                run_root(local, index);
                idle = 0;
            } else if let Some(work) = self.registry.try_steal(|victim| split(local, victim)) {
                let _finished = Finished(&self.outstanding);
                run_split(local, work);
                idle = 0;
            } else if self.outstanding.load(Ordering::Acquire) == 0 {
                break;
            } else if idle < IDLE_SPINS {
                idle += 1;
                std::hint::spin_loop();
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_NAP);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use parking_lot::Mutex;

    /// A search is a stack of pending items; an item `n > 0` expands into
    /// two items `n - 1`, so the root `n` yields `2^n` leaves.
    struct Search(Mutex<Vec<u32>>);

    fn run(threads: usize, roots: &[u32]) -> (u64, u64) {
        let sched: StealLoop<Search> = StealLoop::new(roots.len());
        let leaves = AtomicUsize::new(0);
        let splits = AtomicUsize::new(0);
        let pool = ThreadPool::new(threads);
        let drive = |stack: Vec<u32>| {
            let search = Arc::new(Search(Mutex::new(stack)));
            let _guard = sched.register(Arc::clone(&search));
            loop {
                let Some(n) = search.0.lock().pop() else {
                    break;
                };
                if n == 0 {
                    leaves.fetch_add(1, Ordering::Relaxed);
                } else {
                    search.0.lock().extend([n - 1, n - 1]);
                }
            }
        };
        pool.scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_, _| {
                    sched.run_worker(
                        &mut (),
                        || false,
                        |_, i| drive(vec![roots[i]]),
                        |_, victim: &Search| {
                            let mut stack = victim.0.lock();
                            if stack.len() < 2 {
                                return None;
                            }
                            let item = stack.remove(0);
                            sched.count_split();
                            Some(item)
                        },
                        |_, item| {
                            splits.fetch_add(1, Ordering::Relaxed);
                            drive(vec![item]);
                        },
                    );
                });
            }
        });
        (leaves.into_inner() as u64, splits.into_inner() as u64)
    }

    #[test]
    fn every_leaf_is_reached_once() {
        for threads in [1, 2, 4] {
            let (leaves, _) = run(threads, &[3, 0, 10, 5]);
            assert_eq!(leaves, 8 + 1 + 1024 + 32, "threads={threads}");
        }
        assert_eq!(run(1, &[12]).1, 0, "a lone worker never splits");
    }

    #[test]
    fn stopped_workers_leave_at_once() {
        let sched: StealLoop<Search> = StealLoop::new(3);
        let mut roots = 0;
        sched.run_worker(
            &mut roots,
            || true,
            |r, _| *r += 1,
            |_, _| None::<()>,
            |_, _| {},
        );
        assert_eq!(roots, 0);
    }
}
