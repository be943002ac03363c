//! Cross-request SIMD batching: a request coalescer that packs many users
//! into one ciphertext.
//!
//! The serving engine spends one ciphertext per scalar request lane while
//! most BFV slots sit idle: a kernel touching a handful of slots wastes the
//! other ~16k of a `degree`-slot vector. This module adds the second level
//! of the two-level parallelization scheme (Bogdanov et al.): the dataflow
//! scheduler parallelizes *within* a request, and the [`RequestCoalescer`]
//! amortizes *across* requests by gathering compatible same-program
//! requests, packing their scalar inputs into disjoint slot **lanes** of
//! shared ciphertexts, executing the program once per batch, and scattering
//! per-user results back to each caller's own
//! [`RequestHandle`](crate::RequestHandle).
//!
//! # Why lane batching is exact
//!
//! Rotation in this runtime is **cyclic** (`slots[i] = a.slots[(i + step) %
//! n]`), so every scheduled instruction — slot-wise add/sub/neg/mul and
//! cyclic rotation — commutes with translating a user's data by a fixed
//! base offset, as long as no two users' *supports* ever overlap. The
//! [`lane_geometry`] analysis bounds, per register, the interval of slots a
//! user's data can occupy relative to its lane base (rotations shift the
//! interval, packs spread it, binary ops union it) and sizes the lane
//! stride to the global envelope: with stride `G` covering every
//! intermediate's excursion and `B <= n / G` lanes, the per-user windows
//! tile the slot vector without wrapping into each other, and batched
//! execution is **bit-identical per user** to running each request alone.
//! Lane bases start at the envelope's lower end (`origin`), so no user's
//! excursion towards slot 0 wraps to the top of the vector: a run of `B`
//! users occupies exactly `[0, B * G)`, which is what lets its slot vectors
//! be stored as prefixes that long ([`LaneGeometry::window`]) instead of `n`.
//!
//! # Batch formation
//!
//! Gathering is not a second engine: every [`ServingEngine`] worker gathers
//! under a [`BatchPolicy`] — a batch flushes when it reaches `max_batch`
//! requests, when the oldest member has lingered `max_linger`, or early
//! enough that no member misses its deadline waiting for stragglers — and an
//! unbatched engine is simply [`BatchPolicy::solo`]. The same engine
//! isolates a poisoned batch's offender and counts batches, linger
//! times and lane occupancy in its [`ServingStats`]; the
//! [`RequestCoalescer`] is only its constructor for plain batch handlers.

use crate::schedule::{Instr, Schedule};
use crate::serving::{
    Classify, RequestHandle, ServingConfig, ServingEngine, ServingError, ServingStats,
    TrySubmitError,
};
use std::time::Duration;

/// Gather policy of a [`ServingEngine`] worker: when a gathering batch stops
/// waiting for more requests and flushes to the handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush as soon as this many requests have gathered (clamped to at
    /// least 1).
    pub max_batch: usize,
    /// Flush once the *first* request of the batch has waited this long —
    /// the latency each request is willing to trade for amortization.
    pub max_linger: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 16,
            max_linger: Duration::from_millis(2),
        }
    }
}

impl BatchPolicy {
    /// The unbatched policy: every request flushes alone, immediately — a
    /// batch of one.
    pub fn solo() -> Self {
        BatchPolicy {
            max_batch: 1,
            max_linger: Duration::ZERO,
        }
    }

    /// Replaces the batch-size bound.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Replaces the linger bound.
    pub fn with_max_linger(mut self, max_linger: Duration) -> Self {
        self.max_linger = max_linger;
        self
    }
}

/// The slot-lane layout one execution runs under: consecutive users are
/// placed `stride` slots apart, and `lanes` users share the ciphertext (a
/// solo request is `lanes = 1`).
///
/// Executors receive this through `ExecResources::lanes` so the one
/// lane-sensitive instruction — run-time packing of *plaintext* elements —
/// can replicate each plaintext value into every live lane (every other
/// instruction is slot-wise or cyclic and needs no lane awareness at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneGeometry {
    /// How far below its base a user's data reaches at most (the lower end
    /// of the rotation envelope, negated): lane 0 is based here, so its
    /// excursions towards slot 0 stop at slot 0 instead of wrapping.
    pub origin: usize,
    /// Slots between consecutive lane bases.
    pub stride: usize,
    /// Live lanes in this execution: the actual batch size, not the
    /// capacity.
    pub lanes: usize,
}

impl LaneGeometry {
    /// The lane base of user `lane` — the one formula bind, run-time
    /// packing and the scatter all place users by.
    pub fn base(&self, lane: usize) -> usize {
        self.origin + lane * self.stride
    }

    /// The slot-vector length one run stores: its `lanes` users occupy
    /// `[0, lanes * stride)`, rounded up to a power of two and capped at
    /// the ciphertext's `vector_slots`. Every register of the run — bound
    /// inputs, packing plaintexts, intermediates — has this one length.
    pub fn window(&self, vector_slots: usize) -> usize {
        (self.lanes * self.stride)
            .next_power_of_two()
            .min(vector_slots)
    }
}

/// Sizes the lane stride of a compiled schedule by bounding, per register,
/// the slot interval a user's data can occupy relative to its lane base.
///
/// `prebound_widths[slot]` is the structural width of each pre-bound
/// register the client binds (0 for slots instructions produce, and for
/// pre-bound registers nothing reads); `output_slots` is how many slots of
/// the output register the per-user scatter reads; `vector_slots` is the
/// ciphertext slot count `n`. The returned geometry's `lanes` field is the
/// **capacity** `max(1, n / stride)`, and its `origin` the envelope's lower
/// end.
///
/// The analysis walks the schedule in order, tracking per register a
/// conservative `[lo, hi]` support interval (relative to the lane base):
///
/// - pre-bound registers of width `w` occupy `[0, w-1]`;
/// - binary ops union their operands' intervals, negation copies;
/// - a rotation by cumulative step `s` shifts the interval by `-s`
///   (`rotate` moves the value at slot `j` to slot `j - s`), and every
///   realized interim step is folded into the envelope too;
/// - run-time packing places element `i` at displacement `+i`.
///
/// The global envelope is the union over all registers (plus `[0,
/// output_slots-1]` for the scatter); a stride of its span keeps every
/// user's every intermediate inside its own window, which is what makes
/// batched execution exact (see the module docs).
pub fn lane_geometry(
    schedule: &Schedule,
    prebound_widths: &[usize],
    output_slots: usize,
    vector_slots: usize,
) -> LaneGeometry {
    assert_eq!(
        prebound_widths.len(),
        schedule.slot_count(),
        "one width per register slot"
    );
    let mut intervals: Vec<(i64, i64)> = prebound_widths
        .iter()
        .map(|&w| (0, w.max(1) as i64 - 1))
        .collect();
    // The envelope starts at the scatter window plus every pre-bound
    // register actually bound (width >= 1).
    let mut env = (0i64, output_slots.max(1) as i64 - 1);
    let fold = |env: &mut (i64, i64), interval: (i64, i64)| {
        env.0 = env.0.min(interval.0);
        env.1 = env.1.max(interval.1);
    };
    for &w in prebound_widths.iter().filter(|&&w| w >= 1) {
        fold(&mut env, (0, w as i64 - 1));
    }
    for si in schedule.instrs() {
        let interval = match &si.instr {
            Instr::Bin { a, b, .. } => {
                let (alo, ahi) = intervals[*a];
                let (blo, bhi) = intervals[*b];
                (alo.min(blo), ahi.max(bhi))
            }
            Instr::Neg { a } => intervals[*a],
            Instr::Rot { a, parts } => {
                let (lo, hi) = intervals[*a];
                let mut cumulative = 0i64;
                let mut interim = (lo, hi);
                for part in parts {
                    cumulative += part;
                    interim = (lo - cumulative, hi - cumulative);
                    // Interim rotation results are materialized registers
                    // too: their excursions must stay inside the window.
                    fold(&mut env, interim);
                }
                interim
            }
            Instr::Pack { elems, .. } => {
                let mut packed = (i64::MAX, i64::MIN);
                for (i, &elem) in elems.iter().enumerate() {
                    let (lo, hi) = intervals[elem];
                    packed.0 = packed.0.min(lo + i as i64);
                    packed.1 = packed.1.max(hi + i as i64);
                }
                if elems.is_empty() {
                    packed = (0, 0);
                }
                packed
            }
        };
        intervals[si.dst] = interval;
        fold(&mut env, interval);
    }
    let span = (env.1 - env.0 + 1).max(1) as usize;
    if span >= vector_slots {
        // Degenerate: one user needs (almost) the whole vector — no SIMD
        // sharing, but batched execution still works one lane at a time,
        // based at slot 0 and wrapping cyclically over the full vector.
        return LaneGeometry {
            origin: 0,
            stride: vector_slots.max(1),
            lanes: 1,
        };
    }
    LaneGeometry {
        origin: (-env.0) as usize,
        stride: span,
        lanes: (vector_slots / span).max(1),
    }
}

/// Sizing knobs of a [`RequestCoalescer`].
#[derive(Debug, Clone, Copy)]
pub struct CoalescerConfig {
    /// When a gathering batch flushes.
    pub policy: BatchPolicy,
    /// Engine workers forming and executing batches concurrently (clamped
    /// to at least 1). One worker keeps batches maximal; more trade
    /// occupancy for pipeline overlap.
    pub workers: usize,
    /// Maximum queued (submitted but not yet gathered) requests before
    /// [`RequestCoalescer::submit`] blocks.
    pub queue_capacity: usize,
    /// Lane capacity of the executor (users one ciphertext can carry): the
    /// policy's `max_batch` is clamped to it.
    pub lane_capacity: usize,
}

/// A coalescer's stats are its engine's.
pub type CoalescerStats = ServingStats;

/// The request coalescer: the one [`ServingEngine`], built over a plain
/// batch handler that takes the whole batch as `(request id, request)`
/// pairs and returns one result per request, in order. The engine gathers
/// compatible requests under a [`BatchPolicy`], scatters the per-user
/// results to each caller's own [`RequestHandle`], and re-runs the members
/// of a poisoned batch solo so that only the offender's waiters re-raise
/// (see [`ServingEngine::batched`]). Dropping a coalescer shuts it down
/// gracefully (drains queued work, joins workers); call
/// [`RequestCoalescer::shutdown`] to also retrieve the final stats.
#[derive(Debug)]
pub struct RequestCoalescer<T, R>(ServingEngine<T, R>);

impl<T: Clone + Send + 'static, R: Classify + Send + 'static> RequestCoalescer<T, R> {
    /// Starts a coalescer: an engine of `config.workers` threads that form
    /// batches under `config.policy`, with `max_batch` clamped to
    /// `config.lane_capacity`, and execute them through `handler`.
    pub fn new<F>(config: CoalescerConfig, handler: F) -> Self
    where
        F: Fn(Vec<(u64, T)>) -> Vec<R> + Send + Sync + 'static,
    {
        let policy = config
            .policy
            .with_max_batch(config.policy.max_batch.min(config.lane_capacity));
        RequestCoalescer(ServingEngine::batched(
            ServingConfig::sized(config.workers, config.queue_capacity),
            policy,
            move |batch, _token| handler(batch),
        ))
    }
}

impl<T, R> RequestCoalescer<T, R> {
    /// Enqueues one request and returns its handle; see
    /// [`ServingEngine::submit`].
    ///
    /// # Errors
    ///
    /// [`ServingError::ShutDown`] once shutdown has started.
    pub fn submit(&self, request: T) -> Result<RequestHandle<R>, ServingError> {
        self.0.submit(request)
    }

    /// Non-blocking submission; see [`ServingEngine::try_submit`].
    ///
    /// # Errors
    ///
    /// [`TrySubmitError::ShutDown`] or [`TrySubmitError::QueueFull`]; both
    /// carry the request back.
    pub fn try_submit(&self, request: T) -> Result<RequestHandle<R>, TrySubmitError<T>> {
        self.0.try_submit(request)
    }

    /// A point-in-time snapshot of the engine's counters.
    pub fn stats(&self) -> CoalescerStats {
        self.0.stats()
    }

    /// Stops intake, flushes and executes everything already queued, joins
    /// the engine workers, and returns the final stats. Concurrent
    /// submitters receive [`ServingError::ShutDown`].
    pub fn shutdown(self) -> CoalescerStats {
        self.0.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::lock;
    use crate::schedule::data_kinds;
    use chehab_ir::{parse, CircuitDag, DagNode, DataKind};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    fn doubling_coalescer(policy: BatchPolicy, capacity: usize) -> RequestCoalescer<u64, u64> {
        RequestCoalescer::new(
            CoalescerConfig {
                policy,
                workers: 1,
                queue_capacity: capacity,
                lane_capacity: policy.max_batch,
            },
            |requests| requests.into_iter().map(|(_, v)| v * 2).collect(),
        )
    }

    /// A doubling engine that stamps `deadline` on every request: the
    /// deadline is the engine's ([`ServingConfig::deadline`]), the policy
    /// only says when a gathering batch flushes.
    fn deadline_coalescer(policy: BatchPolicy, deadline: Duration) -> ServingEngine<u64, u64> {
        ServingEngine::batched(
            ServingConfig {
                deadline: Some(deadline),
                ..ServingConfig::sized(1, 64)
            },
            policy,
            |requests, _token| requests.into_iter().map(|(_, v)| v * 2).collect(),
        )
    }

    #[test]
    fn scatters_each_users_own_result() {
        let coalescer = doubling_coalescer(BatchPolicy::default().with_max_batch(4), 64);
        let handles: Vec<_> = (0..10).map(|v| coalescer.submit(v).unwrap()).collect();
        for (v, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.id(), v as u64);
            assert_eq!(handle.wait(), v as u64 * 2);
        }
        let stats = coalescer.shutdown();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.completed, 10);
        assert!(stats.batches_formed >= 3, "max_batch 4 forces >= 3 batches");
        assert_eq!(stats.lane_occupancy.count(), stats.batches_formed);
        assert!(stats.lane_occupancy.max().unwrap() <= Duration::from_nanos(100));
    }

    #[test]
    fn full_batches_flush_without_waiting_out_the_linger() {
        // A generous linger must not delay a batch that is already full.
        let coalescer = doubling_coalescer(
            BatchPolicy::default()
                .with_max_batch(2)
                .with_max_linger(Duration::from_secs(60)),
            64,
        );
        let a = coalescer.submit(3).unwrap();
        let b = coalescer.submit(4).unwrap();
        assert_eq!(a.wait(), 6);
        assert_eq!(b.wait(), 8);
        let stats = coalescer.shutdown();
        assert!(stats.linger.max().unwrap() < Duration::from_secs(10));
    }

    #[test]
    fn linger_flushes_a_partial_batch() {
        let coalescer = doubling_coalescer(
            BatchPolicy::default()
                .with_max_batch(64)
                .with_max_linger(Duration::from_millis(5)),
            64,
        );
        let handle = coalescer.submit(21).unwrap();
        // No companions ever arrive: the linger timer alone must flush.
        assert_eq!(handle.wait(), 42);
        let stats = coalescer.shutdown();
        assert_eq!(stats.batches_formed, 1);
        // One member of 64 lanes: 1 % occupancy.
        assert_eq!(stats.lane_occupancy.max(), Some(Duration::from_nanos(1)));
    }

    #[test]
    fn deadline_beats_a_longer_linger() {
        let coalescer = deadline_coalescer(
            BatchPolicy::default()
                .with_max_batch(64)
                .with_max_linger(Duration::from_secs(60)),
            Duration::from_millis(5),
        );
        let started = Instant::now();
        let handle = coalescer.submit(5).unwrap();
        assert_eq!(handle.wait(), 10);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "deadline must flush long before the linger"
        );
        coalescer.shutdown();
    }

    #[test]
    fn try_submit_sheds_load_on_a_full_queue() {
        // Gate the single engine worker so the queue backs up.
        let gate = Arc::new(Mutex::new(()));
        let guard = lock(&gate);
        let handler_gate = Arc::clone(&gate);
        let coalescer: RequestCoalescer<u32, u32> = RequestCoalescer::new(
            CoalescerConfig {
                policy: BatchPolicy::default().with_max_batch(1),
                workers: 1,
                queue_capacity: 1,
                lane_capacity: 1,
            },
            move |requests| {
                drop(lock(&handler_gate));
                requests.into_iter().map(|(_, v)| v + 1).collect()
            },
        );
        let first = coalescer.submit(1).unwrap();
        // Wait until the engine worker owns the first job, then fill the
        // queue back up to capacity.
        while coalescer.stats().queue_depth > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let second = coalescer.try_submit(2).expect("queue has room");
        let rejected = coalescer.try_submit(3).expect_err("queue is at capacity");
        assert_eq!(rejected, TrySubmitError::QueueFull(3));
        assert_eq!(rejected.into_request(), 3);
        drop(guard);
        assert_eq!(first.wait(), 2);
        assert_eq!(second.wait(), 3);
        let mut coalescer = coalescer;
        coalescer.0.halt();
        assert_eq!(
            coalescer.try_submit(9).unwrap_err(),
            TrySubmitError::ShutDown(9)
        );
    }

    #[test]
    fn batch_poison_retries_survivors_solo_and_fails_only_the_offender() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let coalescer: RequestCoalescer<u32, u32> = RequestCoalescer::new(
            CoalescerConfig {
                policy: BatchPolicy::default()
                    .with_max_batch(2)
                    .with_max_linger(Duration::from_millis(1)),
                workers: 1,
                queue_capacity: 8,
                lane_capacity: 2,
            },
            move |requests| {
                counter.fetch_add(1, Ordering::Relaxed);
                assert!(!requests.iter().any(|&(_, v)| v == 13), "unlucky batch");
                requests.into_iter().map(|(_, v)| v).collect()
            },
        );
        let bad = coalescer.submit(13).unwrap();
        let survivor = coalescer.submit(7).unwrap();
        // The batched run panics; each member is retried solo. Only the
        // offender's waiter re-raises — the innocent batch-mate still gets
        // its result, and the engine worker survives.
        let reraised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.wait()));
        assert!(reraised.is_err(), "the offending request re-raises");
        assert_eq!(survivor.wait(), 7);
        let good = coalescer.submit(4).unwrap();
        assert_eq!(good.wait(), 4);
        // One poisoned batch run + two solo retries + the follow-up batch.
        assert!(calls.load(Ordering::Relaxed) >= 4);
        let stats = coalescer.shutdown();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.batch_panics, 1);
        assert_eq!(stats.solo_retries, 2);
    }

    #[test]
    fn solo_batches_fail_fast_without_a_pointless_retry() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let coalescer: RequestCoalescer<u32, u32> = RequestCoalescer::new(
            CoalescerConfig {
                policy: BatchPolicy::default()
                    .with_max_batch(1)
                    .with_max_linger(Duration::from_millis(1)),
                workers: 1,
                queue_capacity: 8,
                lane_capacity: 1,
            },
            move |_| {
                counter.fetch_add(1, Ordering::Relaxed);
                panic!("always poisoned")
            },
        );
        let doomed = coalescer.submit(1).unwrap();
        let reraised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| doomed.wait()));
        assert!(reraised.is_err());
        // Wait until the worker has recorded the poisoned batch before
        // asserting on the counters.
        while coalescer.stats().batch_panics < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "no solo retry of a solo batch"
        );
        let stats = coalescer.shutdown();
        assert_eq!(stats.solo_retries, 0);
    }

    #[test]
    fn adversarial_bursts_fill_batches_while_all_results_stay_exact() {
        // Open-loop bursts: 4 bursts of 8 arrive faster than the worker can
        // drain, separated by pauses longer than the linger. Every request
        // must still get its own doubled value.
        let coalescer = doubling_coalescer(
            BatchPolicy::default()
                .with_max_batch(8)
                .with_max_linger(Duration::from_millis(2)),
            256,
        );
        let mut handles = Vec::new();
        for burst in 0..4u64 {
            for i in 0..8u64 {
                handles.push((burst * 8 + i, coalescer.submit(burst * 8 + i).unwrap()));
            }
            std::thread::sleep(Duration::from_millis(6));
        }
        for (v, handle) in handles {
            assert_eq!(handle.wait(), v * 2);
        }
        let stats = coalescer.shutdown();
        assert_eq!(stats.completed, 32);
        assert!(
            stats.batches_formed >= 4,
            "bursts separated by > linger cannot share one batch"
        );
        assert_eq!(stats.lane_occupancy.count(), stats.batches_formed);
        assert!(stats.lane_occupancy.max().unwrap() <= Duration::from_nanos(100));
    }

    #[test]
    fn adversarial_slow_trickle_pays_at_most_the_linger_per_request() {
        // A trickle slower than the linger: every batch flushes solo after
        // its full linger, and no request waits on a companion that never
        // comes.
        let linger = Duration::from_millis(3);
        let coalescer = doubling_coalescer(
            BatchPolicy::default()
                .with_max_batch(16)
                .with_max_linger(linger),
            64,
        );
        for v in 0..5u64 {
            let submitted = Instant::now();
            let handle = coalescer.submit(v).unwrap();
            assert_eq!(handle.wait(), v * 2);
            assert!(
                submitted.elapsed() < linger + Duration::from_secs(2),
                "a trickle request must not wait unboundedly for companions"
            );
            std::thread::sleep(linger * 2);
        }
        let stats = coalescer.shutdown();
        assert_eq!(
            stats.batches_formed, 5,
            "each trickle request flushes alone"
        );
        // One member of 16 lanes: 100 / 16 = 6 % occupancy.
        assert_eq!(stats.lane_occupancy.max(), Some(Duration::from_nanos(6)));
    }

    #[test]
    fn adversarial_deadline_skew_flushes_by_the_tightest_member() {
        // The first member has burned most of its deadline budget before a
        // late companion arrives; the batch must flush by the *earliest*
        // absolute deadline, not restart the clock per member.
        let coalescer = deadline_coalescer(
            BatchPolicy::default()
                .with_max_batch(64)
                .with_max_linger(Duration::from_secs(60)),
            Duration::from_millis(40),
        );
        let started = Instant::now();
        let old = coalescer.submit(1).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let young = coalescer.submit(2).unwrap();
        assert_eq!(old.wait(), 2);
        assert_eq!(young.wait(), 4);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the old member's deadline must flush the batch long before the linger"
        );
        let stats = coalescer.shutdown();
        assert_eq!(stats.batches_formed, 1, "the young member rides along");
        coalescer_deadline_sanity(&stats);
    }

    /// Shared sanity assertions for deadline-policy tests.
    fn coalescer_deadline_sanity(stats: &CoalescerStats) {
        assert_eq!(stats.batch_panics, 0);
        assert_eq!(stats.solo_retries, 0);
        assert_eq!(stats.submitted, stats.completed);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let coalescer = doubling_coalescer(
            BatchPolicy::default()
                .with_max_batch(4)
                .with_max_linger(Duration::from_secs(60)),
            64,
        );
        // Fewer than max_batch queued, linger effectively infinite: only
        // the shutdown flush can complete these.
        let handles: Vec<_> = (0..3).map(|v| coalescer.submit(v).unwrap()).collect();
        let stats = coalescer.shutdown();
        assert_eq!(stats.completed, 3);
        // Every sender was used before the workers exited: none can block.
        for (v, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.try_wait(), Ok(v as u64 * 2));
        }
    }

    /// Mirrors the compiler's default client-side layout (as in the
    /// schedule tests): leaves, plaintext subcircuits, and leaf-only
    /// vectors are pre-bound.
    fn client_prebound(dag: &CircuitDag) -> Vec<bool> {
        let kinds = data_kinds(dag);
        dag.nodes()
            .iter()
            .enumerate()
            .map(|(id, n)| {
                n.is_leaf()
                    || kinds[id] == DataKind::Plaintext
                    || matches!(n, DagNode::Vec(elems)
                        if elems.iter().all(|&e| dag.nodes()[e].is_leaf()))
            })
            .collect()
    }

    fn structural_width(dag: &CircuitDag, id: usize, widths: &mut Vec<usize>) -> usize {
        if widths[id] != 0 {
            return widths[id];
        }
        let w = match &dag.nodes()[id] {
            DagNode::CtVar(_) | DagNode::PtVar(_) | DagNode::Const(_) => 1,
            DagNode::Vec(elems) => elems.len().max(1),
            node => node
                .operands()
                .into_iter()
                .map(|op| structural_width(dag, op, widths))
                .max()
                .unwrap_or(1),
        };
        widths[id] = w;
        w
    }

    fn geometry_of(source: &str, output_slots: usize, vector_slots: usize) -> LaneGeometry {
        let expr = parse(source).unwrap();
        let dag = CircuitDag::from_expr(&expr).eliminate_dead_code();
        let prebound = client_prebound(&dag);
        let schedule = Schedule::lower(&dag, &prebound, |step| vec![step]);
        let mut widths = vec![0usize; dag.len()];
        let prebound_widths: Vec<usize> = (0..dag.len())
            .map(|id| {
                if prebound[id] {
                    structural_width(&dag, id, &mut widths)
                } else {
                    0
                }
            })
            .collect();
        lane_geometry(&schedule, &prebound_widths, output_slots, vector_slots)
    }

    #[test]
    fn rotation_free_kernels_get_width_sized_lanes() {
        // Width-2 vectors, no rotations: the envelope is [0, 1], so the
        // stride is 2 and half the slots' worth of users fit.
        let geometry = geometry_of("(VecAdd (Vec a b) (Vec c d))", 2, 1024);
        assert_eq!(geometry.stride, 2);
        assert_eq!(geometry.lanes, 512);
    }

    #[test]
    fn rotations_widen_the_stride_by_their_excursion() {
        // rotate(x, 3) moves slot j to j - 3: the envelope grows to
        // [-3, 3] and the stride to 7.
        let geometry = geometry_of("(<< (VecMul (Vec a b c d) (Vec e f g h)) 3)", 4, 1024);
        assert_eq!(geometry.stride, 7);
        assert_eq!(geometry.lanes, 1024 / 7);
    }

    #[test]
    fn degenerate_envelopes_fall_back_to_one_lane() {
        let geometry = geometry_of("(<< (VecMul (Vec a b c d) (Vec e f g h)) 3)", 4, 4);
        assert_eq!(geometry.lanes, 1);
        assert_eq!(geometry.stride, 4);
    }
}
