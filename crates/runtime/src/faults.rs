//! Cancellation tokens and deterministic fault injection.
//!
//! Production serving needs two things a well-behaved benchmark never
//! exercises: a way to *stop* work that is no longer wanted (explicit
//! cancellation, expired deadlines) and a way to *prove* the engine survives
//! misbehaving work (worker panics, latency spikes, saturated queues). This
//! module provides both as plain shared-state handles:
//!
//! * [`CancellationToken`] — a cloneable flag + optional deadline carried in
//!   [`ExecResources`](crate::ExecResources) and checked at every instruction
//!   dispatch by both executors, so a cancelled request stops scheduling its
//!   remaining instructions *mid-flight* rather than only at dequeue.
//! * [`FaultPlan`] — a hermetic, seeded fault-injection plan (panic at
//!   dispatch N, artificial latency spikes, forced queue-full rejections,
//!   cancel-a-token-at-dispatch-N) whose global dispatch counter doubles as
//!   the instruction-count telemetry the cancellation tests assert against.
//!
//! Everything is deterministic: a plan derives its fault points from an
//! explicit seed (or explicit builder calls), never from wall-clock time or
//! an ambient RNG, so a fault storm replays identically across runs.

use crate::exec::lock;
use chehab_fhe::FheError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A cloneable cancellation flag with an optional deadline.
///
/// Clones share state: cancelling any clone cancels them all. The token is
/// checked by [`check`](CancellationToken::check) at instruction-dispatch
/// granularity inside both executors, which is what makes mid-flight
/// cancellation possible without interrupting an individual homomorphic op.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    inner: Arc<TokenInner>,
}

#[derive(Debug, Default)]
struct TokenInner {
    cancelled: AtomicBool,
    /// The instant at which the deadline expires; `None` when the token has
    /// no deadline.
    deadline: Option<Instant>,
}

impl CancellationToken {
    /// A token with no deadline that only cancels explicitly.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that reports [`FheError::DeadlineExceeded`] once `deadline`
    /// has passed (and can still be cancelled explicitly before then).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancellationToken {
            inner: Arc::new(TokenInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token whose deadline is `timeout` from now.
    pub fn deadline_in(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Flags the token as cancelled; every clone observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// The token's deadline, if one was set at construction.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// The dispatch-time check: `Err(Cancelled)` if the token was cancelled,
    /// `Err(DeadlineExceeded)` if its deadline has passed, `Ok(())` otherwise.
    /// Explicit cancellation wins over deadline expiry when both hold.
    pub fn check(&self) -> Result<(), FheError> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Err(FheError::Cancelled);
        }
        if self.inner.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(FheError::DeadlineExceeded);
        }
        Ok(())
    }
}

/// SplitMix64: the standard 64-bit seed scrambler. Deterministic and
/// dependency-free, which is all fault-point derivation needs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Default)]
struct PlanInner {
    /// Global dispatch indices (0-based, pre-increment) at which the
    /// dispatching worker panics. Sorted for binary search.
    panic_at: Vec<u64>,
    /// `(period, spike)`: every `period`-th dispatch sleeps for `spike`.
    latency_every: Option<(u64, Duration)>,
    /// Remaining forced `QueueFull` rejections the serving engine will
    /// report before admitting work again.
    queue_full_budget: AtomicU64,
    /// Remaining worker kills: a serving worker that draws one panics
    /// *outside* the handler's `catch_unwind`, killing the thread — the
    /// hard-failure mode the abandoned-handle machinery defends against.
    kill_worker_budget: AtomicU64,
    /// Tokens to cancel when the dispatch counter reaches the given index.
    cancel_at: Mutex<Vec<(u64, CancellationToken)>>,
    /// Instructions dispatched under this plan, across all executors and
    /// worker threads. This is the telemetry the cancellation acceptance
    /// test asserts against.
    dispatched: AtomicU64,
}

/// A deterministic, seeded fault-injection plan.
///
/// Clones share state (one global dispatch counter, one queue-full budget).
/// Wire a plan through [`ExecResources::faults`](crate::ExecResources) to
/// inject executor-level faults, and through
/// [`ServingConfig::faults`](crate::ServingConfig) to inject submission-level
/// faults. A default plan injects nothing and costs one atomic increment per
/// dispatched instruction.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl FaultPlan {
    /// A plan that injects no faults but still counts dispatches — useful as
    /// pure instruction-count telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A seeded storm: `panics` panic points and a latency spike cadence are
    /// derived deterministically from `seed` over the dispatch range
    /// `[0, span)`. The same `(seed, span, panics)` always yields the same
    /// plan.
    pub fn storm(seed: u64, span: u64, panics: usize) -> Self {
        let mut state = seed;
        let mut panic_at: Vec<u64> = (0..panics)
            .map(|_| splitmix64(&mut state) % span.max(1))
            .collect();
        panic_at.sort_unstable();
        panic_at.dedup();
        // A spike roughly every 1/8th of the span, 1–4ms long.
        let period = (span / 8).max(1);
        let spike = Duration::from_millis(1 + splitmix64(&mut state) % 4);
        FaultPlan {
            inner: Arc::new(PlanInner {
                panic_at,
                latency_every: Some((period, spike)),
                ..PlanInner::default()
            }),
        }
    }

    /// A plan that panics at exactly the given global dispatch indices.
    pub fn panic_at(indices: &[u64]) -> Self {
        let mut panic_at = indices.to_vec();
        panic_at.sort_unstable();
        panic_at.dedup();
        FaultPlan {
            inner: Arc::new(PlanInner {
                panic_at,
                ..PlanInner::default()
            }),
        }
    }

    /// Arms `budget` forced queue-full rejections: the serving engine's
    /// submission paths report `QueueFull` until the budget is spent.
    pub fn force_queue_full(&self, budget: u64) {
        self.inner
            .queue_full_budget
            .store(budget, Ordering::Release);
    }

    /// Arms `budget` worker kills: serving workers that pop a job while the
    /// budget lasts die outright (their thread panics outside the handler's
    /// `catch_unwind`), exercising the abandoned-handle path.
    pub fn kill_workers(&self, budget: u64) {
        self.inner
            .kill_worker_budget
            .store(budget, Ordering::Release);
    }

    /// Consumes one unit of the worker-kill budget. Returns `true` when the
    /// drawing worker should die.
    pub fn take_worker_kill(&self) -> bool {
        self.inner
            .kill_worker_budget
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(1))
            .is_ok()
    }

    /// Registers `token` to be cancelled when the global dispatch counter
    /// reaches `index` (0-based). Several tokens may be registered.
    pub fn cancel_token_at(&self, index: u64, token: &CancellationToken) {
        lock(&self.inner.cancel_at).push((index, token.clone()));
    }

    /// Instructions dispatched under this plan so far, across all threads.
    pub fn instructions_dispatched(&self) -> u64 {
        self.inner.dispatched.load(Ordering::Acquire)
    }

    /// Consumes one unit of the forced queue-full budget. Returns `true`
    /// when the submission should be rejected as `QueueFull`.
    pub fn take_forced_queue_full(&self) -> bool {
        self.inner
            .queue_full_budget
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(1))
            .is_ok()
    }

    /// The dispatch hook, called by both executors immediately before each
    /// instruction runs. Increments the dispatch counter, applies any
    /// registered token cancellations and latency spikes for this index, and
    /// **panics deliberately** when the index is a planned panic point — the
    /// executors run this under `catch_unwind` and convert the panic into
    /// [`FheError::WorkerPanic`].
    pub fn before_instr(&self) {
        let index = self.inner.dispatched.fetch_add(1, Ordering::AcqRel);
        {
            let pending = lock(&self.inner.cancel_at);
            for (at, token) in pending.iter() {
                if index >= *at {
                    token.cancel();
                }
            }
        }
        if let Some((period, spike)) = self.inner.latency_every {
            if index % period == period - 1 {
                std::thread::sleep(spike);
            }
        }
        if self.inner.panic_at.binary_search(&index).is_ok() {
            panic!("injected fault: worker panic at dispatch index {index}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cancelled_token_is_seen_by_every_clone() {
        let token = CancellationToken::new();
        let clone = token.clone();
        assert!(token.check().is_ok());
        clone.cancel();
        assert_eq!(token.check(), Err(FheError::Cancelled));
    }

    #[test]
    fn an_expired_deadline_reports_deadline_exceeded() {
        let token = CancellationToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(token.check(), Err(FheError::DeadlineExceeded));
        // Explicit cancellation takes precedence over the expired deadline.
        token.cancel();
        assert_eq!(token.check(), Err(FheError::Cancelled));
    }

    #[test]
    fn storms_are_deterministic_in_the_seed() {
        let a = FaultPlan::storm(42, 1000, 5);
        let b = FaultPlan::storm(42, 1000, 5);
        let c = FaultPlan::storm(43, 1000, 5);
        assert_eq!(a.inner.panic_at, b.inner.panic_at);
        assert_ne!(a.inner.panic_at, c.inner.panic_at);
    }

    #[test]
    fn the_dispatch_hook_counts_cancels_and_panics() {
        let plan = FaultPlan::panic_at(&[2]);
        let token = CancellationToken::new();
        plan.cancel_token_at(1, &token);
        plan.before_instr(); // index 0
        assert_eq!(token.check(), Ok(()));
        plan.before_instr(); // index 1: cancels the token
        assert_eq!(token.check(), Err(FheError::Cancelled));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.before_instr() // index 2: planned panic
        }));
        assert!(panic.is_err());
        assert_eq!(plan.instructions_dispatched(), 3);
    }

    #[test]
    fn the_queue_full_budget_is_consumed_exactly() {
        let plan = FaultPlan::new();
        assert!(!plan.take_forced_queue_full());
        plan.force_queue_full(2);
        assert!(plan.take_forced_queue_full());
        assert!(plan.take_forced_queue_full());
        assert!(!plan.take_forced_queue_full());
    }
}
