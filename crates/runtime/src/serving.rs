//! The persistent serving front end: one bounded request queue drained by
//! long-lived worker threads, each running the one request path — gather a
//! batch under a [`BatchPolicy`] → handler(batch) → scatter to handles.
//!
//! Serving traffic is open-ended: requests arrive one at a time, the caller
//! wants a handle back immediately, and the expensive per-program state
//! (keys, leveled schedule, calibration) must stay alive between requests
//! instead of being rebuilt per call. A [`ServingEngine`] provides exactly
//! that shape:
//!
//! - [`ServingEngine::submit`] enqueues a request into a **bounded** queue
//!   (back-pressure: it blocks while the queue is at capacity) and returns a
//!   [`RequestHandle`]; [`ServingEngine::try_submit`] is the non-blocking
//!   variant that hands the request back on a full queue instead;
//! - each persistent worker gathers up to `max_batch` queued requests
//!   (flushing on a full batch, the linger bound, or a member's deadline)
//!   and calls the one shared handler once per batch — for FHE serving, a
//!   closure over one long-lived `FheSession` (see
//!   `chehab_core::FheSession::serve_with`). An unbatched engine
//!   ([`ServingEngine::new`]) is the `max_batch = 1, max_linger = 0` case:
//!   every request is a batch of one;
//! - each request gets its own one-shot channel: the worker sends the result
//!   (or a handler panic) down it, and [`RequestHandle::wait`] /
//!   [`RequestHandle::try_wait`] receive *that* request's result, so callers
//!   observe submission order even when completions happen out of order. A
//!   sender dropped unsent (a dead worker, a halt with the job still queued)
//!   is an abandoned request, never a hung waiter. A caller that blocks on
//!   a request no worker has started yet serves it itself (unbatched
//!   engines only), instead of two hand-offs between threads;
//! - [`ServingEngine::shutdown`] stops intake, drains everything already
//!   queued or in flight, joins the workers, and reports final
//!   [`ServingStats`].
//!
//! The engine is generic over request and response types (it knows nothing
//! about FHE), which keeps this crate's dependency surface unchanged —
//! `chehab-core` layers the session-backed serving API on top.

use crate::batching::BatchPolicy;
use crate::exec::lock;
use crate::faults::{CancellationToken, FaultPlan};
use crate::telemetry::{Counter, Histogram, SpanEvent, TraceSink};
use chehab_fhe::FheError;
use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing, resilience knobs and observability sinks of a [`ServingEngine`].
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Persistent worker threads draining the queue (clamped to at least 1).
    /// Callers blocked in [`RequestHandle::wait`] on a still-queued request
    /// of an unbatched engine serve it themselves, on top of these.
    pub workers: usize,
    /// Maximum *queued* (submitted but not yet started) requests before
    /// [`ServingEngine::submit`] blocks (clamped to at least 1).
    pub queue_capacity: usize,
    /// Per-request deadline: each submission's [`CancellationToken`] is
    /// stamped `now + deadline` at enqueue, so a gathering batch flushes
    /// before a member's deadline, and a request that outlives it stops
    /// executing mid-flight (when the handler threads the token into the
    /// executors). `None` (the default) runs every request to completion.
    pub deadline: Option<Duration>,
    /// Optional deterministic fault-injection plan: submission-side faults
    /// (forced queue-full rejections, worker kills) draw from it. Executor
    /// faults are wired separately through
    /// [`ExecResources::faults`](crate::ExecResources). `None` (the
    /// default) injects nothing.
    pub faults: Option<FaultPlan>,
    /// Optional span sink: when set, every worker records one request-level
    /// span per served job on its own trace track, with the job's queue
    /// wait attached.
    pub trace: Option<Arc<TraceSink>>,
    /// Resilience counter cells; clones share them, so one set aggregates
    /// across engines (on the FHE path, the session's registry cells).
    pub resilience: ResilienceStats,
}

/// Default bound of the request queue.
pub const DEFAULT_QUEUE_CAPACITY: usize = 64;

/// The standard configuration: host-derived worker count, the default queue
/// bound, no deadline, no faults, private sinks.
impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            workers: default_workers(),
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            deadline: None,
            faults: None,
            trace: None,
            resilience: ResilienceStats::default(),
        }
    }
}

impl ServingConfig {
    /// The sizing-only constructor most callers want: `workers` threads, a
    /// `queue_capacity`-bounded queue, no deadline, no faults.
    pub fn sized(workers: usize, queue_capacity: usize) -> Self {
        ServingConfig {
            workers,
            queue_capacity,
            ..ServingConfig::default()
        }
    }
}

/// Worker count derived from the host: `std::thread::available_parallelism`,
/// clamped to `[1, 8]` so 1-CPU hosts are not oversubscribed and large hosts
/// are not flooded by default (callers can always ask for more explicitly).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, 8)
}

/// Why a submission was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingError {
    /// The engine is shutting down (or already shut down); no new requests
    /// are accepted.
    ShutDown,
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::ShutDown => write!(f, "serving engine is shut down"),
        }
    }
}

impl std::error::Error for ServingError {}

/// Why a non-blocking submission was rejected. Both variants hand the
/// request back to the caller, so an overloaded producer can retry, drop
/// the request, or route it elsewhere without having cloned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySubmitError<T> {
    /// The engine is shutting down (or already shut down); no new requests
    /// are accepted. Carries the rejected request.
    ShutDown(T),
    /// The queue is at capacity right now. Carries the rejected request;
    /// the blocking [`ServingEngine::submit`] would have waited instead.
    QueueFull(T),
}

impl<T> TrySubmitError<T> {
    /// Recovers the rejected request.
    pub fn into_request(self) -> T {
        match self {
            TrySubmitError::ShutDown(request) | TrySubmitError::QueueFull(request) => request,
        }
    }
}

impl<T> std::fmt::Display for TrySubmitError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrySubmitError::ShutDown(_) => write!(f, "serving engine is shut down"),
            TrySubmitError::QueueFull(_) => write!(f, "serving queue is at capacity"),
        }
    }
}

impl<T: std::fmt::Debug> std::error::Error for TrySubmitError<T> {}

/// The one count of each request outcome: three [`Counter`] cells the
/// engine bumps once per request, from the [`Outcome`] of the value its
/// handle receives. Clones share the cells; the default ones are private,
/// and `chehab-core` hands every engine of a session the session's
/// `MetricsRegistry` cells, so those series count across its engines.
#[derive(Debug, Clone, Default)]
pub struct ResilienceStats {
    /// Requests whose result reports [`Outcome::Cancelled`].
    pub cancelled: Counter,
    /// Requests whose result reports [`Outcome::DeadlineMissed`].
    pub deadline_missed: Counter,
    /// Requests whose handler panicked, whose result reports
    /// [`Outcome::Panicked`], or whose worker was killed serving them.
    pub worker_panics: Counter,
}

/// How a request ended, as the value its handle receives says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The handler produced a result (an error of no kind below included).
    Served,
    /// The request was cancelled before it finished.
    Cancelled,
    /// The request's deadline expired before it finished.
    DeadlineMissed,
    /// A worker panicked running the request.
    Panicked,
}

/// A handler result the engine can classify: the one place a request's
/// [`Outcome`] is read. A plain value is [`Outcome::Served`] through the
/// provided method, so its impl is an empty block.
pub trait Classify {
    /// The outcome this result reports.
    fn outcome(&self) -> Outcome {
        Outcome::Served
    }
}

impl<T> Classify for Result<T, FheError> {
    fn outcome(&self) -> Outcome {
        match self {
            Err(FheError::Cancelled) => Outcome::Cancelled,
            Err(FheError::DeadlineExceeded) => Outcome::DeadlineMissed,
            Err(FheError::WorkerPanic { .. }) => Outcome::Panicked,
            _ => Outcome::Served,
        }
    }
}

impl Classify for () {}
impl Classify for u32 {}
impl Classify for u64 {}

/// Latency histograms of one engine's served traffic, carried in
/// [`ServingStats::latency`]: what the engine itself observes of a request
/// (queue wait, handler wall).
#[derive(Debug, Clone, Default)]
pub struct LatencySnapshot {
    /// Handler wall latency of each completed request (for a member of a
    /// poisoned batch, its solo retries included).
    pub request_wall: Histogram,
    /// Time each request spent queued (submit to handler start, so it
    /// includes the time its batch lingered gathering).
    pub queue_wait: Histogram,
}

/// What one engine observed: the accumulator its workers record into, and
/// the snapshot [`ServingEngine::stats`] returns. A request's outcome is
/// counted in [`ServingConfig::resilience`], not here.
///
/// Every member of a batch is counted once in `completed`, `latency` and
/// the trace, whatever retries ran; the batch-level fields count batches.
#[derive(Debug, Clone, Default)]
pub struct ServingStats {
    /// Requests accepted by [`ServingEngine::submit`] so far.
    pub submitted: u64,
    /// Requests whose handler has finished (including handlers that
    /// panicked — their handles re-raise the panic on retrieval).
    pub completed: u64,
    /// Requests currently queued (submitted, not yet started).
    pub queue_depth: usize,
    /// Requests currently executing on a worker.
    pub in_flight: usize,
    /// Persistent worker threads of the engine.
    pub workers: usize,
    /// Wall-clock since the engine started.
    pub elapsed: Duration,
    /// Latency histograms of the served traffic, recorded by the engine.
    pub latency: LatencySnapshot,
    /// Batches flushed to the handler (solo retries are not batches): the
    /// count of `lane_occupancy`. An unbatched engine forms one per request.
    pub batches_formed: u64,
    /// How long each flushed batch's first request lingered gathering.
    pub linger: Histogram,
    /// Lane occupancy per batch, in percent of the policy's `max_batch`
    /// (recorded as raw percentages): 100 for every batch of an unbatched
    /// engine.
    pub lane_occupancy: Histogram,
    /// Poisoned batches: the handler panicked, miscounted its results, or
    /// returned a member result that reports [`Outcome::Panicked`].
    pub batch_panics: u64,
    /// Solo re-runs of the members of poisoned batches of two or more.
    pub solo_retries: u64,
}

impl ServingStats {
    /// Completed requests per wall-clock second since the engine started.
    /// Returns exactly `0.0` (never `NaN` or infinity) when nothing has
    /// completed or no time has elapsed.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if self.completed == 0 || secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }
}

/// Why a request's result will never arrive, from
/// [`RequestHandle::try_wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestError {
    /// The request's handler panicked; the panic was isolated by the worker.
    Panicked,
    /// The engine dropped the request's sender unsent: the worker serving
    /// the request died, or the engine was halted/dropped with the request
    /// still queued behind dead workers.
    Abandoned,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Panicked => write!(f, "request panicked in its handler"),
            RequestError::Abandoned => write!(f, "request was abandoned by the engine"),
        }
    }
}

impl std::error::Error for RequestError {}

/// The caller's side of one submitted request: the receiving end of the
/// request's one-shot result channel.
///
/// [`RequestHandle::wait`] and [`RequestHandle::try_wait`] consume the
/// handle, so a result is retrieved at most once. Dropping a handle
/// discards its result; the engine still serves and counts the request.
pub struct RequestHandle<R> {
    id: u64,
    /// `None` when the handler panicked; disconnected without a message when
    /// the engine dropped the sender unsent.
    result: Receiver<Option<R>>,
    token: CancellationToken,
    /// The engine's [`ServeQueued`], when waiters serve their own jobs.
    serve_queued: Option<Arc<ServeQueued>>,
}

impl<R> std::fmt::Debug for RequestHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestHandle")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl<R> RequestHandle<R> {
    /// The engine-assigned request id, in submission order starting at 0.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cancellation: flags the request's [`CancellationToken`], so
    /// a handler that threads it into the executors stops scheduling the
    /// request's remaining instructions mid-flight. Cancellation is
    /// cooperative and asynchronous — the handle still completes (typically
    /// with `FheError::Cancelled` on the FHE serving path), so callers
    /// retrieve the result as usual.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Blocks until the request completes and returns its result, or an
    /// error when it never will: [`RequestError::Panicked`] if the handler
    /// panicked, [`RequestError::Abandoned`] if the engine dropped the
    /// request's sender unsent (worker death, or a halt with the request
    /// still queued behind dead workers). Never blocks forever on a dead
    /// engine.
    ///
    /// On an unbatched engine a request still in the queue is served right
    /// here, on the calling thread, instead of waiting for a worker to get
    /// to it (see [`ServingEngine::batched`]).
    pub fn try_wait(self) -> Result<R, RequestError> {
        if let Some(serve_queued) = &self.serve_queued {
            serve_queued(self.id);
        }
        match self.result.recv() {
            Ok(Some(value)) => Ok(value),
            Ok(None) => Err(RequestError::Panicked),
            Err(RecvError) => Err(RequestError::Abandoned),
        }
    }

    /// Blocks until the request completes and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if the request's handler panicked (the panic is propagated to
    /// the retriever, like `JoinHandle::join`), or if the engine abandoned
    /// the request (worker death / halt) — never blocks forever on a dead
    /// engine. Use [`RequestHandle::try_wait`] to receive those terminal
    /// states as errors instead.
    pub fn wait(self) -> R {
        let id = self.id;
        self.try_wait()
            .unwrap_or_else(|error| panic!("serving request {id}: {error}"))
    }
}

/// One queued request: id, payload, the sender its result goes out on, and
/// the cancellation token shared with the caller's handle.
struct Job<T, R> {
    id: u64,
    request: T,
    member: Member<R>,
}

/// The engine-side remainder of a job once its payload went to the handler.
/// Dropping it unsent abandons the request.
struct Member<R> {
    /// `None` reports a handler panic; a send to a dropped handle is ignored.
    result: SyncSender<Option<R>>,
    token: CancellationToken,
    /// When the job entered the queue — measured against the handler start,
    /// it is the request's queue wait.
    enqueued: Instant,
}

struct QueueState<T, R> {
    queue: VecDeque<Job<T, R>>,
    shutting_down: bool,
    submitted: u64,
    in_flight: usize,
}

struct Shared<T, R> {
    state: Mutex<QueueState<T, R>>,
    /// Signals workers that the queue gained a job (or shutdown started).
    not_empty: Condvar,
    /// Signals blocked submitters that the queue lost jobs.
    not_full: Condvar,
    /// Signals a halting engine that a job served by its waiter finished.
    waiter_done: Condvar,
    /// What the workers record of each batch and request; fixed footprint,
    /// so a long-lived engine never grows it with traffic.
    stats: Mutex<ServingStats>,
    /// The engine's configuration, with `workers`, `queue_capacity` and the
    /// policy's `max_batch` clamped to at least 1.
    config: ServingConfig,
    /// When a gathering batch flushes to the handler.
    policy: BatchPolicy,
    started: Instant,
}

/// The one handler shape the worker loop calls: a gathered batch of
/// `(request id, request)` pairs plus, for a batch of one, its member's own
/// cancellation token; one `R` per member back, in order.
type BatchHandler<T, R> = dyn Fn(Vec<(u64, T)>, Option<&CancellationToken>) -> Vec<R> + Send + Sync;

/// Serves the job with the given id on the calling thread if it is still
/// queued (no-op once a worker has taken it): what a [`RequestHandle`] of an
/// unbatched engine runs before it would block.
type ServeQueued = dyn Fn(u64) + Send + Sync;

/// A persistent request-serving engine: a bounded queue plus a pool of
/// long-lived worker threads draining it through one shared handler.
///
/// `submit` gives back-pressure on a bounded queue, per-request
/// [`RequestHandle`]s pair each submission with its own result, and
/// [`ServingStats`] track queue depth and throughput. Dropping an engine
/// shuts it down gracefully (drains queued work, joins workers); call
/// [`ServingEngine::shutdown`] explicitly to also retrieve the final stats.
pub struct ServingEngine<T, R> {
    shared: Arc<Shared<T, R>>,
    workers: Vec<JoinHandle<()>>,
    /// Handed to every [`RequestHandle`]; `None` when jobs stay on workers.
    serve_queued: Option<Arc<ServeQueued>>,
}

impl<T, R> std::fmt::Debug for ServingEngine<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingEngine")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.shared.config.queue_capacity)
            .field("policy", &self.shared.policy)
            .finish_non_exhaustive()
    }
}

impl<T: Clone + Send + 'static, R: Classify + Send + 'static> ServingEngine<T, R> {
    /// Starts an unbatched engine: spawns `config.workers` persistent
    /// threads that drain the queue through `handler` (called with the
    /// request id and the request), one request per call — the
    /// [`BatchPolicy::solo`] case of [`ServingEngine::batched`].
    pub fn new<F>(config: ServingConfig, handler: F) -> Self
    where
        F: Fn(u64, T) -> R + Send + Sync + 'static,
    {
        Self::batched(config, BatchPolicy::solo(), move |batch, _token| {
            batch
                .into_iter()
                .map(|(id, request)| handler(id, request))
                .collect()
        })
    }

    /// The general, token-aware constructor: each worker gathers up to
    /// `policy.max_batch` queued requests — flushing on a full batch, the
    /// linger bound, or the earliest member deadline (`config.deadline`,
    /// stamped into every submission's [`CancellationToken`] at enqueue) —
    /// and calls `handler` once per batch with the `(request id, request)`
    /// pairs.
    ///
    /// A batch of one additionally hands the handler its member's own token,
    /// so the handler can thread it into the executors and stop a cancelled
    /// or expired request mid-flight; the members of a larger batch share
    /// their ciphertexts, so none can stop alone and the handler gets `None`.
    ///
    /// The handler returns one result per member, in order. One that
    /// panics, miscounts, or returns a result that reports
    /// [`Outcome::Panicked`] poisons the batch; the worker survives. A batch
    /// of one sends its member what it got (a handler panic re-raises in
    /// its retrievers). The members of a poisoned larger batch shared their
    /// ciphertexts, so each runs once more alone, under its own token (hence
    /// `T: Clone`), and only the offender's handle gets the failure. Each
    /// request's outcome is counted once, from what its handle receives.
    ///
    /// Under `max_batch = 1` a job needs no companions, so a caller that
    /// blocks on its handle while the job is still queued takes it off the
    /// queue and runs the handler itself — same bookkeeping, no hand-off.
    /// Engines with a fault plan or a trace sink keep every job on their
    /// workers: worker kills and per-worker trace tracks are about *which
    /// thread* serves.
    pub fn batched<F>(config: ServingConfig, policy: BatchPolicy, handler: F) -> Self
    where
        F: Fn(Vec<(u64, T)>, Option<&CancellationToken>) -> Vec<R> + Send + Sync + 'static,
    {
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutting_down: false,
                submitted: 0,
                in_flight: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            waiter_done: Condvar::new(),
            stats: Mutex::new(ServingStats::default()),
            config: ServingConfig {
                workers: config.workers.max(1),
                queue_capacity: config.queue_capacity.max(1),
                ..config
            },
            // `with_max_batch` clamps a zero bound to 1.
            policy: policy.with_max_batch(policy.max_batch),
            started: Instant::now(),
        });
        let handler: Arc<BatchHandler<T, R>> = Arc::new(handler);
        let workers = (0..shared.config.workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || worker_loop(&shared, worker, &*handler))
            })
            .collect();
        let waiters_serve = shared.policy.max_batch == 1
            && shared.config.faults.is_none()
            && shared.config.trace.is_none();
        let serve_queued = waiters_serve.then(|| {
            let shared = Arc::clone(&shared);
            Arc::new(move |id: u64| {
                let mut state = lock(&shared.state);
                let Some(at) = state.queue.iter().position(|job| job.id == id) else {
                    return;
                };
                let job = state.queue.remove(at).expect("position is in the queue");
                state.in_flight += 1;
                drop(state);
                shared.not_full.notify_all();
                serve_batch(
                    &shared,
                    &*handler,
                    None,
                    vec![(job.id, job.request)],
                    vec![job.member],
                    Duration::ZERO,
                );
                shared.waiter_done.notify_all();
            }) as Arc<ServeQueued>
        });
        ServingEngine {
            shared,
            workers,
            serve_queued,
        }
    }
}

impl<T, R> ServingEngine<T, R> {
    /// Enqueues one request and returns its handle.
    ///
    /// Blocks while the queue is at capacity (back-pressure on producers).
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::ShutDown`] once [`ServingEngine::shutdown`]
    /// has started — including for submitters that were blocked on a full
    /// queue when shutdown began.
    pub fn submit(&self, request: T) -> Result<RequestHandle<R>, ServingError> {
        let capacity = self.shared.config.queue_capacity;
        let state = (self.shared.not_full)
            .wait_while(lock(&self.shared.state), |state| {
                !state.shutting_down && state.queue.len() >= capacity
            })
            .unwrap_or_else(PoisonError::into_inner);
        if state.shutting_down {
            return Err(ServingError::ShutDown);
        }
        Ok(self.enqueue(state, request))
    }

    /// Enqueues one request without ever blocking: where
    /// [`ServingEngine::submit`] would wait on a full queue, this hands the
    /// request straight back as [`TrySubmitError::QueueFull`], so overload
    /// policy (retry, drop, divert) stays with the caller.
    ///
    /// # Errors
    ///
    /// [`TrySubmitError::ShutDown`] once shutdown has started,
    /// [`TrySubmitError::QueueFull`] while the queue is at capacity (or a
    /// fault plan forces the rejection); both return the request to the
    /// caller.
    pub fn try_submit(&self, request: T) -> Result<RequestHandle<R>, TrySubmitError<T>> {
        if let Some(plan) = &self.shared.config.faults {
            if plan.take_forced_queue_full() {
                return Err(TrySubmitError::QueueFull(request));
            }
        }
        let state = lock(&self.shared.state);
        if state.shutting_down {
            return Err(TrySubmitError::ShutDown(request));
        }
        if state.queue.len() >= self.shared.config.queue_capacity {
            return Err(TrySubmitError::QueueFull(request));
        }
        Ok(self.enqueue(state, request))
    }

    /// The shared tail of both submission paths: assigns the id, opens the
    /// request's one-shot result channel, mints its deadline-stamped
    /// cancellation token, enqueues the job, and wakes one worker. The
    /// caller has already established that the queue has room and intake
    /// is open.
    fn enqueue(
        &self,
        mut state: std::sync::MutexGuard<'_, QueueState<T, R>>,
        request: T,
    ) -> RequestHandle<R> {
        let id = state.submitted;
        state.submitted += 1;
        let (sender, result) = std::sync::mpsc::sync_channel(1);
        let deadline = self.shared.config.deadline;
        let token = deadline.map_or_else(CancellationToken::new, CancellationToken::deadline_in);
        state.queue.push_back(Job {
            id,
            request,
            member: Member {
                result: sender,
                token: token.clone(),
                enqueued: Instant::now(),
            },
        });
        drop(state);
        self.shared.not_empty.notify_one();
        RequestHandle {
            id,
            result,
            token,
            serve_queued: self.serve_queued.clone(),
        }
    }

    /// A point-in-time snapshot of the engine's serving counters.
    pub fn stats(&self) -> ServingStats {
        // Both counts are monotone, so reading the completions strictly
        // before `submitted` keeps the snapshot consistent (`completed <=
        // submitted`) without holding both locks at once.
        let recorded = lock(&self.shared.stats).clone();
        let state = lock(&self.shared.state);
        ServingStats {
            submitted: state.submitted,
            completed: recorded.latency.request_wall.count(),
            queue_depth: state.queue.len(),
            in_flight: state.in_flight,
            workers: self.shared.config.workers,
            elapsed: self.shared.started.elapsed(),
            batches_formed: recorded.lane_occupancy.count(),
            ..recorded
        }
    }

    /// Stops intake, flushes and drains every already-queued request, joins
    /// the workers and returns the final stats. Requests submitted before
    /// the call are all completed; concurrent submitters receive
    /// [`ServingError::ShutDown`].
    pub fn shutdown(mut self) -> ServingStats {
        self.halt();
        self.stats()
    }

    /// Idempotent part of shutdown: flips the flag, wakes everyone, joins,
    /// waits out jobs their own waiters are serving, then drops any job
    /// still queued after every worker has exited (possible only when
    /// workers died): its dropped sender resolves the waiter with
    /// [`RequestError::Abandoned`] instead of leaving it blocked forever.
    pub(crate) fn halt(&mut self) {
        lock(&self.shared.state).shutting_down = true;
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        (self.shared.waiter_done)
            .wait_while(lock(&self.shared.state), |state| state.in_flight > 0)
            .unwrap_or_else(PoisonError::into_inner)
            .queue
            .clear();
    }
}

impl<T, R> Drop for ServingEngine<T, R> {
    fn drop(&mut self) {
        self.halt();
    }
}

/// RAII companion of one in-flight batch: if the thread serving it dies
/// between popping the jobs and sending their results (a planned worker
/// kill, or a genuine panic in the engine's own bookkeeping), the guard's
/// drop runs during the unwind, repairs the in-flight count so stats stay
/// truthful, and counts a worker panic per abandoned member. The members
/// drop after the guard, so their waiters wake to
/// [`RequestError::Abandoned`] with the count already repaired.
struct FulfillGuard<'a, T, R> {
    shared: &'a Shared<T, R>,
    size: usize,
}

impl<T, R> Drop for FulfillGuard<'_, T, R> {
    fn drop(&mut self) {
        let mut state = lock(&self.shared.state);
        state.in_flight = state.in_flight.saturating_sub(self.size);
        drop(state);
        self.shared.waiter_done.notify_all();
        let panics = &self.shared.config.resilience.worker_panics;
        panics.add(self.size as u64);
    }
}

/// One worker: wait for a first request, gather companions under the
/// policy, call the handler once for the flushed batch, scatter, repeat —
/// until shutdown *and* an empty queue. Shutdown flushes the gathering
/// batch immediately. Under [`BatchPolicy::solo`] the gather step is a
/// no-op and this is a plain pop-execute-publish loop.
fn worker_loop<T: Clone, R: Classify>(
    shared: &Shared<T, R>,
    worker: usize,
    handler: &BatchHandler<T, R>,
) {
    let policy = shared.policy;
    // Trace track of this serving worker, allocated on its first served job
    // so idle workers leave no empty tracks in the export.
    let mut track: Option<usize> = None;
    loop {
        let mut state = lock(&shared.state);
        let first = loop {
            if let Some(job) = state.queue.pop_front() {
                break job;
            }
            if state.shutting_down {
                return;
            }
            state = shared
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        };
        let gather_start = Instant::now();
        // The linger clock runs from the first member, and the batch must
        // flush early enough that no member overshoots its deadline waiting.
        let mut flush_by = gather_start + policy.max_linger;
        let mut requests = Vec::with_capacity(1);
        let mut members = Vec::with_capacity(1);
        let mut pending = Some(first);
        loop {
            if let Some(job) = pending.take() {
                if let Some(deadline) = job.member.token.deadline() {
                    flush_by = flush_by.min(deadline);
                }
                requests.push((job.id, job.request));
                members.push(job.member);
                if members.len() >= policy.max_batch {
                    break;
                }
                pending = state.queue.pop_front();
                continue;
            }
            let now = Instant::now();
            if state.shutting_down || now >= flush_by {
                break;
            }
            let (next, timeout) = shared
                .not_empty
                .wait_timeout(state, flush_by - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = next;
            pending = state.queue.pop_front();
            if timeout.timed_out() && pending.is_none() {
                break;
            }
        }
        let size = members.len();
        state.in_flight += size;
        drop(state);
        shared.not_full.notify_all();
        let linger = gather_start.elapsed();

        let worker = Some((worker, &mut track));
        serve_batch(shared, handler, worker, requests, members, linger);
    }
}

/// Runs the handler once for a batch already taken off the queue (and
/// counted in `in_flight`) — and, if that run is poisoned, each member of a
/// larger batch once more alone — records it, counts each member's outcome
/// from the value it is sent, and sends it. `worker` is the serving
/// worker's index and lazily allocated trace track; `None` is the caller
/// blocked on the job's handle (engines without a fault plan or a trace
/// sink only, so neither applies to it).
fn serve_batch<T: Clone, R: Classify>(
    shared: &Shared<T, R>,
    handler: &BatchHandler<T, R>,
    worker: Option<(usize, &mut Option<usize>)>,
    requests: Vec<(u64, T)>,
    members: Vec<Member<R>>,
    linger: Duration,
) {
    let size = members.len();
    // Until the guard is forgotten the batch is this thread's
    // responsibility: if it dies, the guard repairs the counts and
    // `members`, dropped after it, abandons every handle.
    let guard = FulfillGuard { shared, size };
    if let (Some(plan), Some((index, _))) = (&shared.config.faults, &worker) {
        if plan.take_worker_kill() {
            panic!("injected fault: serving worker {index} killed");
        }
    }
    let started = Instant::now();
    // A panicking (or miscounting) handler must not kill the worker (the
    // queue behind it would never drain) nor leave its waiters blocked
    // forever: catch the unwind and poison the run. A batch of one gets its
    // member's own token; the members of a larger batch share their
    // ciphertexts, so none can stop alone.
    let run = |requests: Vec<(u64, T)>, token: Option<&CancellationToken>| {
        let expected = requests.len();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(requests, token)))
            .ok()
            .filter(|results| results.len() == expected)
    };
    let retry_pool = (size > 1).then(|| requests.clone());
    let solo_token = (size == 1).then(|| &members[0].token);
    let results = run(requests, solo_token);
    // So does a member result that reports a worker panic: an executor
    // panic fails every member of the shared run.
    let poisoned = results
        .as_ref()
        .is_none_or(|results| results.iter().any(|r| r.outcome() == Outcome::Panicked));
    let results: Vec<Option<R>> = match retry_pool {
        // Isolate the offender: each member runs alone, exactly once, as
        // the batch of one it now is.
        Some(pool) if poisoned => pool
            .into_iter()
            .zip(&members)
            .map(|(request, member)| {
                run(vec![request], Some(&member.token)).and_then(|mut result| result.pop())
            })
            .collect(),
        _ => results.map_or_else(|| vec![None], |r| r.into_iter().map(Some).collect()),
    };
    let elapsed = started.elapsed();

    // Book-keeping first: a waiter woken by the send below must
    // already observe its request in the counters when it calls
    // `stats()` — the latency counters before `in_flight`, so that a halt
    // that sees nothing in flight reports everything completed.
    let resilience = &shared.config.resilience;
    let queue_wait = |member: &Member<R>| started.saturating_duration_since(member.enqueued);
    let mut stats = lock(&shared.stats);
    stats.linger.record(linger);
    stats
        .lane_occupancy
        .record_nanos((100 * size / shared.policy.max_batch) as u64);
    if poisoned {
        stats.batch_panics += 1;
        if size > 1 {
            stats.solo_retries += size as u64;
        }
    }
    for (member, result) in members.iter().zip(&results) {
        stats.latency.request_wall.record(elapsed);
        stats.latency.queue_wait.record(queue_wait(member));
        match result.as_ref().map_or(Outcome::Panicked, R::outcome) {
            Outcome::Served => {}
            Outcome::Cancelled => resilience.cancelled.inc(),
            Outcome::DeadlineMissed => resilience.deadline_missed.inc(),
            Outcome::Panicked => resilience.worker_panics.inc(),
        }
    }
    drop(stats);
    lock(&shared.state).in_flight -= size;
    if let (Some(sink), Some((index, track))) = (shared.config.trace.as_deref(), worker) {
        let track =
            *track.get_or_insert_with(|| sink.allocate_track(format!("serving worker {index}")));
        for member in &members {
            let queue_wait = queue_wait(member);
            sink.push(SpanEvent {
                name: "request",
                cat: "request",
                track,
                start_ns: sink.offset_ns(started),
                dur_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                instr: None,
                queue_wait_ns: Some(u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX)),
                stolen_from: None,
            });
        }
    }

    for (member, result) in members.iter().zip(results) {
        let _ = member.result.send(result);
    }
    std::mem::forget(guard);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    impl Classify for (u64, u64) {}
    impl Classify for std::thread::ThreadId {}

    fn engine_with<F, T, R>(workers: usize, capacity: usize, handler: F) -> ServingEngine<T, R>
    where
        F: Fn(u64, T) -> R + Send + Sync + 'static,
        T: Clone + Send + 'static,
        R: Classify + Send + 'static,
    {
        ServingEngine::new(ServingConfig::sized(workers, capacity), handler)
    }

    #[test]
    fn handles_return_their_own_request_despite_out_of_order_completion() {
        // Earlier submissions sleep longer, so with 4 workers the completion
        // order inverts the submission order — handles must still pair each
        // submission with its own result.
        let engine = engine_with(4, 16, move |id, sleep_ms: u64| {
            std::thread::sleep(Duration::from_millis(sleep_ms));
            (id, sleep_ms * 2)
        });
        let handles: Vec<_> = (0..4)
            .map(|i| engine.submit((4 - i) * 40).unwrap())
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(handle.id(), i as u64);
            assert_eq!(handle.wait(), (i as u64, (4 - i as u64) * 40 * 2));
        }
        assert_eq!(engine.shutdown().completed, 4);
    }

    /// A thread that panics holding the engine's stats accumulator poisons
    /// it; `stats()` — which snapshots it — and the next request — whose
    /// completion records into it — still succeed instead of re-raising
    /// that panic.
    #[test]
    fn a_poisoned_stats_accumulator_does_not_cascade() {
        let engine: ServingEngine<u32, u32> = engine_with(1, 4, |_, v| v * 2);
        assert_eq!(engine.submit(1).unwrap().wait(), 2);
        let shared = Arc::clone(&engine.shared);
        let panicked = std::thread::spawn(move || {
            let _held = lock(&shared.stats);
            panic!("poisoning the stats accumulator on purpose");
        })
        .join();
        assert!(panicked.is_err() && engine.shared.stats.is_poisoned());

        assert_eq!(engine.stats().completed, 1);
        assert_eq!(engine.submit(4).unwrap().wait(), 8);
        let stats = engine.shutdown();
        assert_eq!((stats.submitted, stats.completed), (2, 2));
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let executed = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&executed);
        let engine = engine_with(2, 64, move |_, ()| {
            std::thread::sleep(Duration::from_millis(5));
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let handles: Vec<_> = (0..20).map(|_| engine.submit(()).unwrap()).collect();
        let stats = engine.shutdown();
        assert_eq!(stats.submitted, 20);
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(executed.load(Ordering::Relaxed), 20);
        assert!(stats.throughput_rps() > 0.0);
        assert!(stats.latency.request_wall.mean().unwrap() >= Duration::from_millis(5));
        // Every sender was used before the workers exited, so none of these
        // can block.
        for handle in handles {
            assert_eq!(handle.try_wait(), Ok(()));
        }
    }

    #[test]
    fn submission_after_shutdown_is_rejected() {
        let mut engine: ServingEngine<u32, u32> = engine_with(1, 4, |_, v| v);
        assert_eq!(engine.submit(7).unwrap().wait(), 7);
        engine.halt();
        assert_eq!(engine.stats().completed, 1);
        assert_eq!(engine.submit(2).unwrap_err(), ServingError::ShutDown);
    }

    /// A result sent to a dropped handle is discarded: the worker neither
    /// dies nor blocks on it, every request is still counted, and the
    /// engine keeps serving.
    #[test]
    fn a_dropped_handle_costs_nothing() {
        // Under the default policy every job stays on the one worker, so it
        // sends to every dropped handle itself.
        for policy in [BatchPolicy::solo(), BatchPolicy::default()] {
            let config = ServingConfig::sized(1, 16);
            let panics = config.resilience.worker_panics.clone();
            let engine = ServingEngine::batched(config, policy, |batch, _| {
                batch.into_iter().map(|(_, v): (u64, u32)| v * 2).collect()
            });
            let kept: Vec<_> = (0..16)
                .map(|v| (v, engine.submit(v).unwrap()))
                .filter(|(v, _)| v % 2 == 0)
                .collect();
            for (v, handle) in kept {
                assert_eq!(handle.wait(), v * 2);
            }
            assert_eq!(engine.submit(21).unwrap().wait(), 42);
            let stats = engine.shutdown();
            assert_eq!((stats.submitted, stats.completed), (17, 17));
            assert_eq!(panics.get(), 0);
        }
    }

    #[test]
    fn a_waiter_serves_its_own_still_queued_request() {
        let gate = Arc::new(Mutex::new(()));
        let guard = lock(&gate);
        let handler_gate = Arc::clone(&gate);
        let engine = engine_with(1, 8, move |_, gated: bool| {
            if gated {
                drop(lock(&handler_gate));
            } else {
                std::thread::sleep(Duration::from_millis(30));
            }
            std::thread::current().id()
        });
        // The lone worker takes the gated job and blocks on the gate.
        let gated = engine.submit(true).unwrap();
        while engine.stats().in_flight == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // With the worker stuck, waiting on a queued job serves it here.
        let queued = engine.submit(false).unwrap();
        assert_eq!(queued.wait(), std::thread::current().id());

        // A halt also waits for a job its waiter is still serving.
        let queued = engine.submit(false).unwrap();
        let waiter = std::thread::spawn(move || queued.wait());
        while engine.stats().in_flight < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(guard);
        let stats = engine.shutdown();
        assert_eq!((stats.completed, stats.in_flight), (3, 0));
        assert_ne!(gated.wait(), std::thread::current().id());
        waiter.join().unwrap();
    }

    #[test]
    fn bounded_queue_applies_backpressure() {
        let gate = Arc::new(Mutex::new(()));
        let guard = lock(&gate);
        let handler_gate = Arc::clone(&gate);
        let engine = engine_with(1, 2, move |_, ()| {
            drop(lock(&handler_gate));
        });
        // Worker takes one job and blocks on the gate; two more fill the
        // bounded queue.
        for _ in 0..3 {
            engine.submit(()).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        let stats = engine.stats();
        assert_eq!(stats.queue_depth, 2, "queue holds exactly its capacity");
        assert_eq!(stats.in_flight, 1);
        drop(guard);
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn try_submit_returns_the_request_instead_of_blocking() {
        let gate = Arc::new(Mutex::new(()));
        let guard = lock(&gate);
        let handler_gate = Arc::clone(&gate);
        let engine = engine_with(1, 1, move |_, v: u32| {
            drop(lock(&handler_gate));
            v * 10
        });
        // The worker picks up the first job and blocks on the gate; the
        // second fills the queue to its capacity of one.
        let first = engine.submit(1).unwrap();
        // The worker may not have dequeued the first job yet, so make room
        // deterministically: spin until the queue has drained to the worker.
        while engine.stats().queue_depth > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let second = engine.try_submit(2).expect("queue has room");
        // Queue full now: the rejection carries the request back unchanged.
        let rejected = engine.try_submit(3).expect_err("queue is at capacity");
        assert_eq!(rejected, TrySubmitError::QueueFull(3));
        assert_eq!(rejected.into_request(), 3);
        drop(guard);
        assert_eq!(first.wait(), 10);
        assert_eq!(second.wait(), 20);
        let mut engine = engine;
        engine.halt();
        assert_eq!(
            engine.try_submit(4).unwrap_err(),
            TrySubmitError::ShutDown(4)
        );
    }

    #[test]
    fn handler_panic_poisons_only_its_own_request() {
        let engine = engine_with(1, 8, |_, v: u32| {
            assert!(v != 13, "unlucky request");
            v * 2
        });
        let bad = engine.submit(13).unwrap();
        let good = engine.submit(4).unwrap();
        // The worker survives the panic; the rest of the queue still drains
        // (by the worker, or by this waiter ahead of it).
        assert_eq!(good.wait(), 8);
        // Waiting re-raises the handler panic with the intended message.
        let reraised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.wait()));
        let message = *reraised
            .expect_err("waiting on a panicked request re-raises")
            .downcast::<String>()
            .expect("panic message is a string");
        assert!(message.contains("panicked in its handler"), "{message}");
        let stats = engine.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn stats_snapshot_while_serving() {
        let engine = engine_with(2, 8, |_, v: u64| v + 1);
        let handles: Vec<_> = (0..10).map(|v| engine.submit(v).unwrap()).collect();
        let results: Vec<u64> = handles.into_iter().map(RequestHandle::wait).collect();
        assert_eq!(results, (1..=10).collect::<Vec<_>>());
        let stats = engine.stats();
        assert_eq!(stats.submitted, 10);
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.workers, 2);
        engine.shutdown();
    }

    /// An outcome is counted from the value the handle receives, not from
    /// the token: a cancelled request whose handler ran it to a result
    /// anyway counts as served.
    #[test]
    fn cancelled_and_expired_requests_are_classified_per_outcome() {
        let config = ServingConfig {
            deadline: Some(Duration::from_millis(5)),
            ..ServingConfig::sized(1, 8)
        };
        let resilience = config.resilience.clone();
        // A handler shaped like the FHE one: it sleeps, then (when asked)
        // stops on its member's token the way an executor does.
        let engine: ServingEngine<(u64, bool), Result<u64, FheError>> =
            ServingEngine::batched(config, BatchPolicy::solo(), |batch, token| {
                let token = token.expect("a batch of one carries its token");
                let (_, (sleep_ms, checked)) = batch[0];
                std::thread::sleep(Duration::from_millis(sleep_ms));
                let stopped = if checked { token.check() } else { Ok(()) };
                vec![stopped.map(|()| sleep_ms)]
            });
        assert_eq!(engine.submit((0, true)).unwrap().wait(), Ok(0));
        let slow = engine.submit((20, true)).unwrap();
        assert_eq!(slow.wait(), Err(FheError::DeadlineExceeded));
        let doomed = engine.submit((1, true)).unwrap();
        doomed.cancel();
        assert_eq!(doomed.wait(), Err(FheError::Cancelled));
        let finished = engine.submit((1, false)).unwrap();
        finished.cancel();
        assert_eq!(finished.wait(), Ok(1));
        assert_eq!(engine.shutdown().completed, 4);
        assert_eq!(resilience.cancelled.get(), 1);
        assert_eq!(resilience.deadline_missed.get(), 1);
        assert_eq!(resilience.worker_panics.get(), 0);
    }

    /// A poisoned batch of requests 13 and 7 (flushed only when full)
    /// re-runs each member alone, under its own token, counting each once
    /// whatever retries ran: returns both results and the panics counted.
    fn a_poisoned_batch_reruns<F, R>(handler: F) -> ([Result<R, RequestError>; 2], u64)
    where
        F: Fn(Vec<(u64, u32)>) -> Vec<R> + Send + Sync + 'static,
        R: Classify + Send + 'static,
    {
        let policy = BatchPolicy::default()
            .with_max_batch(2)
            .with_max_linger(Duration::from_secs(60));
        let config = ServingConfig::sized(1, 8);
        let panics = config.resilience.worker_panics.clone();
        let engine = ServingEngine::batched(config, policy, move |batch, token| {
            assert_eq!(
                token.is_some(),
                batch.len() == 1,
                "a solo run has its token"
            );
            handler(batch)
        });
        let bad = engine.submit(13).unwrap();
        let mate = engine.submit(7).unwrap();
        let results = [bad.try_wait(), mate.try_wait()];
        let stats = engine.shutdown();
        assert_eq!((stats.batches_formed, stats.completed), (1, 2));
        assert_eq!((stats.batch_panics, stats.solo_retries), (1, 2));
        assert_eq!(stats.latency.queue_wait.count(), 2);
        (results, panics.get())
    }

    #[test]
    fn a_panicking_batch_poisons_only_its_offender() {
        let results = a_poisoned_batch_reruns(|batch| {
            assert!(batch.iter().all(|&(_, v)| v != 13), "unlucky batch");
            batch.into_iter().map(|(_, v)| v * 2).collect::<Vec<_>>()
        });
        assert_eq!(results, ([Err(RequestError::Panicked), Ok(14)], 1));
    }

    #[test]
    fn a_miscounting_batch_poisons_only_its_offender() {
        // One result too few whenever the offender is in the batch.
        let results = a_poisoned_batch_reruns(|batch| {
            let kept = batch.into_iter().filter(|&(_, v)| v != 13);
            kept.map(|(_, v)| v * 2).collect::<Vec<_>>()
        });
        assert_eq!(results, ([Err(RequestError::Panicked), Ok(14)], 1));
    }

    /// A batch whose results report a worker panic (an executor panic fails
    /// the whole shared run) is poisoned like one whose handler panics:
    /// each handle gets its member's solo result.
    #[test]
    fn a_batch_whose_results_report_a_panic_reruns_each_member_alone() {
        let results = a_poisoned_batch_reruns(|batch| {
            let shared = batch.len() > 1;
            let panic = || FheError::WorkerPanic {
                message: "the shared run".into(),
            };
            let result = |v: u32| if shared { Err(panic()) } else { Ok(v * 2) };
            batch
                .into_iter()
                .map(|(_, v)| result(v))
                .collect::<Vec<_>>()
        });
        assert_eq!(results, ([Ok(Ok(26)), Ok(Ok(14))], 0));
    }

    #[test]
    fn an_unbatched_engine_fills_every_lane_it_has() {
        let engine = engine_with(2, 8, |_, v: u32| v + 1);
        for v in 0..6 {
            assert_eq!(engine.submit(v).unwrap().wait(), v + 1);
        }
        let stats = engine.shutdown();
        assert_eq!(stats.batches_formed, stats.completed);
        assert_eq!(stats.lane_occupancy.count(), stats.completed);
        let full = Some(Duration::from_nanos(100));
        assert_eq!(stats.lane_occupancy.max(), full);
        assert_eq!(stats.lane_occupancy.mean(), full);
    }

    #[test]
    fn dead_workers_abandon_their_jobs_instead_of_hanging_waiters() {
        for policy in [BatchPolicy::solo(), BatchPolicy::default()] {
            dead_worker_abandons_under(policy);
        }
    }

    fn dead_worker_abandons_under(policy: BatchPolicy) {
        let plan = FaultPlan::new();
        plan.kill_workers(1);
        let config = ServingConfig {
            faults: Some(plan.clone()),
            ..ServingConfig::sized(1, 8)
        };
        let panics = config.resilience.worker_panics.clone();
        let engine = ServingEngine::batched(config, policy, |batch, _| {
            batch.into_iter().map(|(_, v): (u64, u32)| v + 1).collect()
        });
        // The lone worker draws the kill on the first job: its waiter must
        // resolve as abandoned, not block forever.
        let doomed = engine.submit(1).unwrap();
        assert_eq!(doomed.try_wait(), Err(RequestError::Abandoned));
        // A second job sits queued behind a dead pool; halt() drops it, and
        // with it its sender, so its waiter resolves too.
        let stranded = engine.submit(2).unwrap();
        engine.shutdown();
        // One kill abandons one member; a job dropped at halt is no panic.
        assert_eq!(panics.get(), 1);
        assert_eq!(stranded.try_wait(), Err(RequestError::Abandoned));
    }

    #[test]
    fn waiting_on_an_abandoned_request_panics_with_the_abandoned_message() {
        let plan = FaultPlan::new();
        plan.kill_workers(1);
        let config = ServingConfig {
            faults: Some(plan),
            ..ServingConfig::sized(1, 8)
        };
        let engine = ServingEngine::new(config, |_, v: u32| v);
        // The worker dies with the job: its dropped sender wakes the waiter.
        let doomed = engine.submit(7).unwrap();
        let raised = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| doomed.wait()));
        let message = *raised
            .expect_err("waiting on an abandoned request panics")
            .downcast::<String>()
            .expect("panic message is a string");
        assert!(message.contains("abandoned"), "{message}");
        engine.shutdown();
    }
}
