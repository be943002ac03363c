//! One process-wide pool of parked helper threads.
//!
//! [`broadcast`] runs a task on the calling thread and on `helpers` more,
//! and returns when every one has finished: the contract of std's scoped
//! threads, on threads that are spawned once and park between calls. Both
//! of the workspace's fine-grained thread users run on it — the executor's
//! workers of every request (`chehab-runtime`) and every
//! [`KeyGenerator`](crate::KeyGenerator) sampling batch — so a warm process
//! serves requests and builds sessions without spawning a thread.
//!
//! A call hands its indices to idle helpers and spawns one only when none
//! is idle. The pool is never capped: a call that asks for `h` helpers gets
//! `h` threads, so every index runs as it would on a scoped thread of its
//! own, and the pool grows to the process's peak concurrent demand and no
//! further. A helper's panic is caught on the helper, which goes back to
//! parking, and resumed on the caller once every helper of the call is done.
//!
//! The task borrows the caller's stack, so handing it to a thread that
//! outlives the call erases its lifetime. That is the module's one
//! `unsafe`, sound for the reason std's scoped threads are: `broadcast`
//! neither returns nor unwinds before the last helper it handed an index
//! has signalled, and a helper drops its reference to the task before
//! signalling. The count it signals lives in an `Arc` the helper co-owns,
//! as std's `ScopeData` does, so its last touch after signalling never
//! lands in the caller's frame.

#![allow(unsafe_code)]

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A task that borrows for `'a`; a helper holds a `Task<'static>`.
type Task<'a> = dyn Fn(usize) + Sync + 'a;

/// A panic payload, as `catch_unwind` returns it.
type Panic = Box<dyn Any + Send>;

static POOL: Pool = Pool::new();

/// Runs `task(0)` on the calling thread and `task(1)` … `task(helpers)` on
/// as many pool helpers, and returns once all of them have returned.
///
/// # Panics
///
/// Resumes the caller's own panic, else the first helper's, after every
/// helper of the call has finished; panics if a helper that is needed
/// cannot be spawned.
pub fn broadcast<F: Fn(usize) + Sync>(helpers: usize, task: &F) {
    POOL.broadcast(helpers, task);
}

/// Helpers the process-wide pool has spawned so far. Public, but hidden,
/// for the test that a warm process spawns no thread.
#[doc(hidden)]
pub fn spawned_helpers() -> usize {
    POOL.spawned.load(Ordering::Relaxed)
}

struct Pool {
    /// Parked helpers, the most recently parked last.
    idle: Mutex<Vec<Arc<Helper>>>,
    spawned: AtomicUsize,
}

/// One helper thread's mailbox.
struct Helper {
    job: Mutex<Option<Job>>,
    handed: Condvar,
}

struct Job {
    task: &'static Task<'static>,
    index: usize,
    call: Arc<Call>,
}

/// What the helpers of one call report back to its caller.
#[derive(Default)]
struct Call {
    state: Mutex<CallState>,
    finished: Condvar,
}

#[derive(Default)]
struct CallState {
    /// Helpers handed an index that have not signalled yet.
    running: usize,
    /// The first helper panic of the call.
    panic: Option<Panic>,
}

impl Pool {
    const fn new() -> Self {
        Pool {
            idle: Mutex::new(Vec::new()),
            spawned: AtomicUsize::new(0),
        }
    }

    fn broadcast<F: Fn(usize) + Sync>(&'static self, helpers: usize, task: &F) {
        if helpers == 0 {
            task(0);
            return;
        }
        let call = Arc::new(Call::default());
        let task: &Task<'_> = task;
        // SAFETY: the reference outlives no use of it. `call.join()` below
        // runs whether handing or `task(0)` returns or unwinds, and waits
        // until every helper handed `task` has signalled `call`; a helper
        // drops its copy of the reference before it signals.
        let task = unsafe { std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task) };
        let own = panic::catch_unwind(AssertUnwindSafe(|| {
            for index in 1..=helpers {
                lock(&call.state).running += 1;
                let job = Job {
                    task,
                    index,
                    call: Arc::clone(&call),
                };
                if let Err(error) = self.hand(job) {
                    call.finish(None);
                    panic!("cannot spawn a pool helper: {error}");
                }
            }
            task(0);
        }));
        let helper_panic = call.join();
        if let Err(payload) = own {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = helper_panic {
            panic::resume_unwind(payload);
        }
    }

    /// Gives `job` to the most recently parked helper, or to a new one.
    fn hand(&'static self, job: Job) -> std::io::Result<()> {
        let parked = lock(&self.idle).pop();
        if let Some(helper) = parked {
            *lock(&helper.job) = Some(job);
            helper.handed.notify_one();
            return Ok(());
        }
        let helper = Arc::new(Helper {
            job: Mutex::new(Some(job)),
            handed: Condvar::new(),
        });
        let n = self.spawned.fetch_add(1, Ordering::Relaxed);
        std::thread::Builder::new()
            .name(format!("chehab-pool-{n}"))
            .spawn(move || self.serve(&helper))
            .map(drop)
    }

    /// A helper's life: run each job handed to it, park in between.
    fn serve(&'static self, helper: &Arc<Helper>) {
        loop {
            let (panic, call) = {
                let Job { task, index, call } = helper.next_job();
                (
                    panic::catch_unwind(AssertUnwindSafe(|| task(index))).err(),
                    call,
                )
            };
            // Parked again before the caller hears back, so its next call
            // finds this helper idle.
            lock(&self.idle).push(Arc::clone(helper));
            call.finish(panic);
        }
    }
}

impl Helper {
    fn next_job(&self) -> Job {
        let mut job = lock(&self.job);
        loop {
            if let Some(job) = job.take() {
                return job;
            }
            job = self
                .handed
                .wait(job)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Call {
    /// One helper is done with the task; the first panic is kept.
    fn finish(&self, panic: Option<Panic>) {
        let mut state = lock(&self.state);
        state.running -= 1;
        if let Some(panic) = panic {
            state.panic.get_or_insert(panic);
        }
        if state.running == 0 {
            self.finished.notify_one();
        }
    }

    /// Waits until every helper handed an index has finished.
    fn join(&self) -> Option<Panic> {
        let mut state = lock(&self.state);
        while state.running > 0 {
            state = self
                .finished
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.panic.take()
    }
}

/// No lock of the pool is held across a task, so none is poisoned by one.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    /// A pool of its own, so no other test's calls spawn into its count.
    fn fresh_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    fn spawned(pool: &Pool) -> usize {
        pool.spawned.load(Ordering::Relaxed)
    }

    /// The helper threads one call runs its indices `1..=helpers` on.
    fn helper_threads(pool: &'static Pool, helpers: usize) -> HashSet<ThreadId> {
        let seen = Mutex::new(HashSet::new());
        pool.broadcast(helpers, &|index| {
            if index > 0 {
                lock(&seen).insert(thread::current().id());
            }
        });
        seen.into_inner().unwrap()
    }

    #[test]
    fn a_helper_panic_resumes_on_the_caller_and_the_helpers_are_reused() {
        let pool = fresh_pool();
        let seen = Mutex::new(HashSet::new());
        // All three indices run at once, so the call needs two helpers.
        let all_running = Barrier::new(3);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.broadcast(2, &|index| {
                all_running.wait();
                if index > 0 {
                    lock(&seen).insert(thread::current().id());
                }
                if index == 2 {
                    panic!("helper {index} fails");
                }
            });
        }));
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("helper 2 fails")
        );
        let first = seen.into_inner().unwrap();
        assert_eq!((first.len(), spawned(pool)), (2, 2));
        // A helper parked again before the caller handed its last index may
        // take that one too: a later call runs on some of the same helpers.
        for _ in 0..10 {
            assert!(helper_threads(pool, 2).is_subset(&first));
        }
        assert_eq!(spawned(pool), 2, "no helper is spawned twice");
    }

    #[test]
    fn a_broadcast_nested_in_a_helper_task_completes() {
        let pool = fresh_pool();
        let runs = AtomicUsize::new(0);
        pool.broadcast(2, &|_| {
            pool.broadcast(2, &|_| {
                runs.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(runs.into_inner(), 9);
    }

    /// Four client threads — one call on a second pool — make 1,000 calls
    /// of one to three helpers each; the pool they share spawns no more
    /// helpers than the most they asked for at once, and every index runs.
    #[test]
    fn concurrent_calls_spawn_no_more_helpers_than_their_peak_demand() {
        let (clients, pool) = (fresh_pool(), fresh_pool());
        let (demand, peak, runs) = (
            AtomicUsize::new(0),
            AtomicUsize::new(0),
            AtomicUsize::new(0),
        );
        clients.broadcast(3, &|client| {
            for call in 0..250 {
                let helpers = 1 + (call + client) % 3;
                let now = demand.fetch_add(helpers, Ordering::SeqCst) + helpers;
                peak.fetch_max(now, Ordering::SeqCst);
                pool.broadcast(helpers, &|_| {
                    runs.fetch_add(1, Ordering::Relaxed);
                });
                demand.fetch_sub(helpers, Ordering::SeqCst);
            }
        });
        let expected: usize = (0..4)
            .flat_map(|client| (0..250).map(move |call| 2 + (call + client) % 3))
            .sum();
        assert_eq!(runs.into_inner(), expected);
        let peak = peak.into_inner();
        assert!(
            spawned(pool) <= peak,
            "{} helpers spawned for a peak demand of {peak}",
            spawned(pool)
        );
    }
}
