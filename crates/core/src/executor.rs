//! Code generation and execution: lowering an optimized circuit onto the BFV
//! backend and running it through the parallel runtime.
//!
//! Code generation in CHEHAB maps every IR operator to its backend call
//! (Appendix D); here the compiled artifact keeps the hash-consed circuit DAG
//! plus the rotation-key plan and the input-layout decision. Execution is
//! organized around long-lived serving state: [`CompiledProgram::session`]
//! builds an [`FheSession`] **once** — FHE context, public/relin/Galois
//! keys, and the leveled instruction [`Schedule`] — and every request after
//! that only pays for encryption, scheduled evaluation and decryption.
//! There is one request path — bind → execute → scatter over `lanes` users
//! sharing the ciphertexts ([`FheSession::run_batched`]) — and a solo
//! request ([`FheSession::run`] / [`FheSession::run_parallel`]) is its
//! `lanes = 1` case. An `Arc`'d session feeds [`FheSession::serve_with`],
//! the persistent request-queue front end backed by
//! [`chehab_runtime::ServingEngine`].
//!
//! Plaintext-only subcircuits are computed on the client side (they never
//! touch ciphertexts), and packed vector inputs are either packed by the
//! client before encryption (Section 7.3, the default) or assembled at run
//! time from individually encrypted scalars with rotations and additions.
//! Which registers that takes is decided once per session, next to the
//! schedule, as a flat `BindPlan` (`bind.rs`): one encryption per
//! ciphertext input register the schedule actually reads.

use crate::bind::{is_live, BindPlan};
use crate::rotation_keys::RotationKeyPlan;
use chehab_fhe::{
    ArenaPool, BfvParameters, Decryptor, EvaluatorStats, FheContext, FheError, GaloisKeys,
    KeyGenerator, RelinKeys,
};
use chehab_ir::{CircuitDag, CircuitSummary, DagNode, DataKind, Expr, Ty};
use chehab_runtime::{
    data_kinds, default_workers, lane_geometry, lock, BatchPolicy, CancellationToken, Counter,
    ExecOutcome, ExecResources, Executor, FaultPlan, Gauge, LaneGeometry, MetricsRegistry,
    Register, ResilienceStats, RunInputs, Schedule, SchedulerKind, ServingConfig, ServingEngine,
    SpanEvent, TimingBreakdown, TraceSink, DEFAULT_QUEUE_CAPACITY,
};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deterministic key-generation seed of the execution backend.
const KEYGEN_SEED: u64 = 0xC4E4AB;

/// Counters of the optimizer's search. The greedy rewriter stands in one
/// state per applied rewrite and takes no other action; the RL agent's
/// rollouts also stop, try invalid actions and walk back into states they
/// have been in, which is what these counters show.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Actions taken (for the RL agent: over all rollouts, `END` and invalid
    /// actions included).
    pub actions: usize,
    /// Distinct program states the search stood in, the input included.
    pub distinct_states: usize,
    /// Forward passes of the policy network (0 without an RL agent).
    pub policy_evaluations: usize,
    /// First-layer encoder rows the policy computed: one per distinct (token
    /// id, position) among the evaluated observations (0 without an RL
    /// agent, and for a GRU encoder).
    pub encoded_rows: usize,
}

/// Compile-time statistics of a compiled program.
#[derive(Debug, Clone)]
pub struct CompileStats {
    /// Wall-clock compilation time (optimization plus code generation).
    pub compile_time: Duration,
    /// Cost-model value of the program before optimization.
    pub cost_before: f64,
    /// Cost-model value after optimization.
    pub cost_after: f64,
    /// Number of rewrite steps the optimizer applied (0 for the identity
    /// optimizer and for externally produced circuits).
    pub optimizer_steps: usize,
    /// What the optimizer's search did to find those steps.
    pub search: SearchCounters,
    /// Circuit summary before optimization.
    pub summary_before: CircuitSummary,
    /// Circuit summary after optimization.
    pub summary_after: CircuitSummary,
}

/// Unified execution options of the session API — worker counts, the
/// serving queue bound, the scheduling discipline, the batching policy and
/// the serving deadline — behind one builder.
///
/// ```
/// use chehab_core::ExecOptions;
///
/// let options = ExecOptions::new()
///     .with_request_threads(2)
///     .with_threads_per_request(4)
///     .with_queue_capacity(128);
/// assert_eq!(options.request_threads, 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Worker threads at the request level: the persistent worker threads
    /// of [`FheSession::serve_with`] (unbatched, a caller blocked on a
    /// still-queued request serves it on its own thread besides). Defaults
    /// to the host's [`std::thread::available_parallelism`], clamped to
    /// `[1, 8]` (see [`chehab_runtime::default_workers`]).
    pub request_threads: usize,
    /// Worker threads inside each request's scheduled execution, the calling
    /// thread included (1 = the calling thread alone; the others are parked
    /// helpers of [`chehab_fhe::pool`], spawned once per process, and help
    /// schedules with instruction-level parallelism).
    pub threads_per_request: usize,
    /// Bound of the serving queue of [`FheSession::serve_with`]: `submit`
    /// blocks while this many requests are already queued.
    pub queue_capacity: usize,
    /// The release rule of the one executor: barrier-free
    /// [`SchedulerKind::Dataflow`] (the default — an instruction becomes
    /// runnable the instant its operands are written, ready ones ordered by
    /// the schedule's critical-path priority) or [`SchedulerKind::Leveled`] (a
    /// level is released when the level below has retired). Outputs are
    /// bit-identical either way, and so is what the report's `timing`
    /// records; only the wall-clock differs.
    pub scheduler: SchedulerKind,
    /// Cross-request SIMD batching policy of [`FheSession::run_batched`] and
    /// [`FheSession::serve_with`]: when set, compatible requests are
    /// coalesced into the slot lanes of shared ciphertexts and the program
    /// executes once per batch. `None` (the default) keeps every request in
    /// its own ciphertext — a batch of one.
    pub batching: Option<BatchPolicy>,
    /// Per-request deadline of [`FheSession::serve_with`]: each submitted
    /// request gets a [`CancellationToken`] armed with this budget, checked
    /// at every instruction dispatch, so an expired request stops scheduling
    /// work mid-flight and resolves with
    /// [`FheError::DeadlineExceeded`](chehab_fhe::FheError::DeadlineExceeded).
    /// `None` (the default) lets every request run to completion.
    pub deadline: Option<Duration>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            request_threads: default_workers(),
            ..ExecOptions::sequential()
        }
    }
}

impl ExecOptions {
    /// Host-derived defaults (same as `Default`).
    pub fn new() -> Self {
        ExecOptions::default()
    }

    /// Fully sequential execution: one request at a time, one scheduled
    /// worker.
    pub fn sequential() -> Self {
        ExecOptions {
            request_threads: 1,
            threads_per_request: 1,
            queue_capacity: DEFAULT_QUEUE_CAPACITY,
            scheduler: SchedulerKind::default(),
            batching: None,
            deadline: None,
        }
    }

    /// Sets the request-level worker count (clamped to at least 1).
    pub fn with_request_threads(mut self, threads: usize) -> Self {
        self.request_threads = threads.max(1);
        self
    }

    /// Sets the per-request executor worker count (clamped to at least 1).
    pub fn with_threads_per_request(mut self, threads: usize) -> Self {
        self.threads_per_request = threads.max(1);
        self
    }

    /// Sets the serving queue bound (clamped to at least 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Selects the executor's release rule.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Enables cross-request SIMD batching under `policy` (see
    /// [`FheSession::run_batched`] / [`FheSession::serve_with`]).
    pub fn with_batching(mut self, policy: BatchPolicy) -> Self {
        self.batching = Some(policy);
        self
    }

    /// Arms a per-request deadline on the serving path (see
    /// [`ExecOptions::deadline`]).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Per-call observation and control hooks of [`FheSession::run_batched`] and
/// [`FheSession::serve_with`], as data: `ExecHooks::default()` hooks nothing.
#[derive(Debug, Clone, Default)]
pub struct ExecHooks {
    /// Span sink. [`FheSession::run_batched`] records the `bind` /
    /// `execute` / `decrypt` phase spans of every chunk on one session track
    /// plus instruction-level spans (operation label, instruction index,
    /// queue wait, steal provenance) on one track per executor worker that
    /// ran an instruction — drawn after the run from the report's `timing`,
    /// the executor's one record, so a failed run (which returns no report)
    /// records no instruction spans. [`FheSession::serve_with`] records one
    /// request-level span per served job (with its queue wait) on one track
    /// per serving worker — deliberately *not* instruction-level spans: each
    /// executor run would allocate fresh worker tracks, unbounded over an
    /// open request stream. Tracing only *observes* timings; reports are
    /// bit-identical to an untraced run. Keep a clone of the `Arc` and, once
    /// every other clone is dropped, export it with
    /// [`TraceSink::into_trace`].
    pub trace: Option<Arc<TraceSink>>,
    /// External cancellation token of [`FheSession::run_batched`], checked
    /// before binding and at **every instruction dispatch**: cancelling it —
    /// or its deadline expiring — stops the executor from scheduling any
    /// further instruction, releases the registers and arena buffers back
    /// to the session pool, and returns
    /// [`FheError::Cancelled`](chehab_fhe::FheError::Cancelled) /
    /// [`FheError::DeadlineExceeded`](chehab_fhe::FheError::DeadlineExceeded).
    /// Not consulted by [`FheSession::serve_with`], where every request
    /// carries its own engine-minted token.
    pub cancel: Option<CancellationToken>,
    /// Deterministic fault plan: instruction-level faults (planned panics,
    /// latency spikes, mid-flight cancellations) fire hermetically inside
    /// the executor; on the serving path the engine also draws its
    /// submission-side faults (forced queue-full rejections, worker kills)
    /// from it.
    pub faults: Option<FaultPlan>,
}

/// A compiled FHE program, ready to execute on the BFV backend.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    name: String,
    circuit: Expr,
    dag: CircuitDag,
    output_slots: usize,
    rotation_plan: RotationKeyPlan,
    layout_before_encryption: bool,
    pub(crate) stats: CompileStats,
}

impl CompiledProgram {
    /// Wraps an already-optimized circuit (used both by the CHEHAB pipeline
    /// and to execute circuits produced by the Coyote baseline on the same
    /// backend).
    pub fn from_circuit(
        name: impl Into<String>,
        circuit: Expr,
        output_slots: usize,
        rotation_plan: RotationKeyPlan,
        layout_before_encryption: bool,
        stats: CompileStats,
    ) -> Self {
        let dag = CircuitDag::from_expr(&circuit).eliminate_dead_code();
        CompiledProgram {
            name: name.into(),
            circuit,
            dag,
            output_slots,
            rotation_plan,
            layout_before_encryption,
            stats,
        }
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The optimized circuit in IR form.
    pub fn circuit(&self) -> &Expr {
        &self.circuit
    }

    /// Number of live output slots.
    pub fn output_slots(&self) -> usize {
        self.output_slots
    }

    /// The rotation-key plan selected for the circuit.
    pub fn rotation_plan(&self) -> &RotationKeyPlan {
        &self.rotation_plan
    }

    /// Compile-time statistics.
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// Whether packed inputs are laid out by the client before encryption.
    pub fn layout_before_encryption(&self) -> bool {
        self.layout_before_encryption
    }

    /// Lowers the server-side portion of the circuit: every node's data
    /// kind, the mask of the register slots the client binds before
    /// server-side execution (plaintext subcircuits, encrypted scalar
    /// inputs, and under the default layout leaf-only vectors packed before
    /// encryption), and the leveled instruction schedule over the rest.
    fn lower(&self) -> (Vec<DataKind>, Vec<bool>, Schedule) {
        let kinds = data_kinds(&self.dag);
        let nodes = self.dag.nodes();
        let prebound: Vec<bool> = (nodes.iter().enumerate())
            .map(|(id, node)| {
                kinds[id] == DataKind::Plaintext
                    || matches!(node, DagNode::CtVar(_))
                    || (self.layout_before_encryption
                        && matches!(node, DagNode::Vec(elems)
                            if elems.iter().all(|&e| nodes[e].is_leaf())))
            })
            .collect();
        let schedule = Schedule::lower(&self.dag, &prebound, |step| {
            self.rotation_plan.realize(step)
        });
        (kinds, prebound, schedule)
    }

    /// Lowers the server-side portion of the circuit into a leveled
    /// instruction schedule (exposed so harnesses can inspect level widths
    /// when picking thread counts).
    pub fn schedule(&self) -> Schedule {
        self.lower().2
    }

    /// Builds the long-lived serving state of this program under `params`:
    /// FHE context, public/relinearization/Galois keys and the leveled
    /// instruction schedule. Key generation and schedule lowering happen
    /// exactly once here, no matter how many requests the session serves
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns an [`FheError`] if the context rejects the parameters.
    pub fn session(&self, params: &BfvParameters) -> Result<FheSession, FheError> {
        FheSession::new(self, params)
    }
}

/// The serving alias of [`chehab_runtime::ServingEngine`]: requests are
/// input bindings, responses are execution reports (or the error that
/// request hit). Built by [`FheSession::serve`].
pub type FheServingEngine = ServingEngine<HashMap<String, i64>, Result<ExecutionReport, FheError>>;

/// Point-in-time statistics of one [`FheSession`].
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// One-time cost of building the FHE context and generating the key
    /// material (public, relinearization and Galois keys) — paid at
    /// [`CompiledProgram::session`] time, never again.
    pub keygen_time: Duration,
    /// One-time cost of lowering the circuit DAG into the leveled
    /// instruction schedule.
    pub lowering_time: Duration,
    /// Requests served through this session so far (across `run`,
    /// `run_parallel`, `run_batched` and the serving engines).
    pub requests_served: u64,
    /// Galois keys held by the session.
    pub galois_key_count: usize,
    /// Encryptions one run performs, whatever the batch size: one per
    /// *live* ciphertext input register of the session's bind plan (a
    /// scalar input that only feeds client-packed vectors is not one).
    pub encryptions_per_request: usize,
}

/// The session's named metric handles, registered once at session build on
/// the session-owned [`MetricsRegistry`]. Every handle is bumped by the
/// layer that observes its fact — the request path here, the serving
/// engines through `resilience`, the Galois-key gauge once at build — except
/// the arena and NTT handles: those facts live in `chehab-fhe`, below the
/// crate that defines the cells, so they are mirrored in at every read.
#[derive(Debug)]
struct SessionMetrics {
    registry: MetricsRegistry,
    requests: Counter,
    encryptions: Counter,
    batches: Counter,
    lane_occupancy: Gauge,
    steals: Counter,
    arena_fresh: Counter,
    arena_reused: Counter,
    arena_retained: Gauge,
    ntt_forward: Counter,
    ntt_inverse: Counter,
    /// Shared with every serving engine this session starts, so the
    /// exported series aggregate across engines.
    resilience: ResilienceStats,
}

impl SessionMetrics {
    fn new(galois_keys: usize) -> Self {
        let registry = MetricsRegistry::new();
        registry
            .gauge("chehab_galois_keys", "Galois keys held by the session")
            .set(galois_keys as f64);
        SessionMetrics {
            requests: registry.counter(
                "chehab_requests_served_total",
                "Requests served through this session",
            ),
            encryptions: registry.counter(
                "chehab_encryptions_total",
                "Input encryptions performed binding this session's requests",
            ),
            batches: registry.counter(
                "chehab_batches_formed_total",
                "Cross-request SIMD batches executed through this session",
            ),
            lane_occupancy: registry.gauge(
                "chehab_batch_lane_occupancy",
                "Lane occupancy of the most recent SIMD batch, percent of capacity",
            ),
            steals: registry.counter(
                "chehab_dataflow_steals_total",
                "Work-stealing pops across every dataflow-scheduled request",
            ),
            arena_fresh: registry.counter(
                "chehab_arena_fresh_allocations_total",
                "Buffer-pool misses of the session arena pool",
            ),
            arena_reused: registry.counter(
                "chehab_arena_reuses_total",
                "Buffer-pool hits of the session arena pool",
            ),
            arena_retained: registry.gauge(
                "chehab_arena_retained_buffers",
                "Warm buffers currently parked in the session arena pool",
            ),
            ntt_forward: registry.counter(
                "chehab_ntt_forward_transforms_total",
                "Forward NTT transforms executed by the session context, one per limb stripe",
            ),
            ntt_inverse: registry.counter(
                "chehab_ntt_inverse_transforms_total",
                "Inverse NTT transforms executed by the session context, one per limb stripe",
            ),
            resilience: ResilienceStats {
                cancelled: registry.counter(
                    "chehab_requests_cancelled_total",
                    "Requests cancelled before or during execution across this session's engines",
                ),
                deadline_missed: registry.counter(
                    "chehab_deadline_missed_total",
                    "Requests whose deadline expired across this session's engines",
                ),
                worker_panics: registry.counter(
                    "chehab_worker_panics_total",
                    "Requests abandoned by a serving-worker panic, or stranded behind dead workers at shutdown, across this session's engines",
                ),
            },
            registry,
        }
    }
}

/// Everything one compiled program shares across executions under fixed
/// parameters: FHE context, key material and the leveled schedule.
///
/// A session is built **once** per `(program, parameters)` pair by
/// [`CompiledProgram::session`]; every request served through it afterwards
/// pays only for input encryption, scheduled evaluation and decryption —
/// key generation and schedule lowering never rerun. Sessions are `Sync`:
/// [`FheSession::serve`] parks one behind a persistent request queue shared
/// by every serving worker.
///
/// ```
/// use chehab_core::{Compiler, DslProgram};
/// use chehab_fhe::BfvParameters;
/// use std::collections::HashMap;
///
/// let mut p = DslProgram::new("square");
/// let x = p.ciphertext_input("x");
/// let out = &x * &x;
/// p.set_output(&out);
/// let compiled = Compiler::greedy().compile(p.name(), &p.lower());
///
/// // Keygen + schedule lowering happen here, once...
/// let session = compiled.session(&BfvParameters::insecure_test())?;
/// // ...and every request after that reuses them.
/// for value in 1..=4 {
///     let inputs: HashMap<String, i64> = [("x".to_string(), value)].into();
///     assert_eq!(session.run(&inputs)?.outputs[0], (value * value) as u64);
/// }
/// assert_eq!(session.stats().requests_served, 4);
/// # Ok::<(), chehab_fhe::FheError>(())
/// ```
#[derive(Debug)]
pub struct FheSession {
    /// Owned (not borrowed) so sessions are `'static` and self-contained —
    /// the serving engine's persistent worker threads require it.
    program: CompiledProgram,
    ctx: FheContext,
    public_key: chehab_fhe::PublicKey,
    decryptor: Decryptor,
    relin_keys: RelinKeys,
    galois_keys: GaloisKeys,
    schedule: Schedule,
    /// The client side, lowered once next to the schedule: one flat recipe
    /// per pre-bound register the schedule reads.
    bind_plan: BindPlan,
    /// Capacity lane geometry of this program on this context: `stride` is
    /// the rotation-envelope span of one user's data, `origin` how far below
    /// its base that data reaches, `lanes` how many users one ciphertext can
    /// carry ([`FheSession::batch_capacity`]). Computed once at session
    /// build by [`chehab_runtime::lane_geometry`].
    lanes: LaneGeometry,
    /// Warm buffer arenas shared by every request served through this
    /// session: encryption, evaluation and decryption draw slot vectors and
    /// payload stripes from here and return them when their ciphertexts
    /// die, so steady-state requests perform zero fresh buffer allocations.
    arena_pool: ArenaPool,
    keygen_time: Duration,
    lowering_time: Duration,
    /// Runs started so far. Run `r` encrypts with encryptions `r·E ..
    /// (r+1)·E` of the public key's stream (`E` the plan's encryptions per
    /// run), so no two runs of a session draw the same randomness.
    runs: AtomicU64,
    /// The session-owned metrics registry and its named handles (see
    /// [`FheSession::metrics`]).
    metrics: SessionMetrics,
}

impl FheSession {
    fn new(program: &CompiledProgram, params: &BfvParameters) -> Result<Self, FheError> {
        let keygen_started = Instant::now();
        let ctx = FheContext::new(params.clone())?;
        let mut keygen = KeyGenerator::new(ctx.params(), KEYGEN_SEED);
        let public_key = keygen.public_key();
        let decryptor = Decryptor::new(&ctx, &keygen.secret_key());
        let relin_keys = keygen.relin_keys();

        // Galois keys: the planned rotation keys plus the unit steps needed
        // for run-time packing. Packing at run time happens for every
        // ciphertext `Vec` node when the layout is applied after encryption,
        // and for `Vec` nodes with non-leaf elements even under the default
        // client-side layout.
        let mut steps: Vec<i64> = program.rotation_plan.keys.clone();
        let runtime_packed_arity = program
            .dag
            .nodes()
            .iter()
            .filter_map(|n| match n {
                DagNode::Vec(elems) => {
                    let all_leaves = elems.iter().all(|&e| program.dag.nodes()[e].is_leaf());
                    let packed_at_runtime = !program.layout_before_encryption || !all_leaves;
                    packed_at_runtime.then_some(elems.len())
                }
                _ => None,
            })
            .max()
            .unwrap_or(1);
        for i in 1..runtime_packed_arity as i64 {
            steps.push(-i);
        }
        let galois_keys = keygen.galois_keys(&steps);
        let keygen_time = keygen_started.elapsed();

        let lowering_started = Instant::now();
        let (kinds, prebound, schedule) = program.lower();
        // Lane geometry for cross-request SIMD batching: bound the slot
        // excursion of every register the server reads and size the stride
        // so one user's intermediates never leave its lane window.
        let mut widths = vec![0usize; program.dag.len()];
        let prebound_widths: Vec<usize> = (0..program.dag.len())
            .map(|id| {
                if prebound[id] && is_live(&schedule, id) {
                    structural_width(&program.dag, id, &mut widths)
                } else {
                    0
                }
            })
            .collect();
        let lanes = lane_geometry(
            &schedule,
            &prebound_widths,
            program.output_slots,
            ctx.slot_count(),
        );
        let bind_plan = BindPlan::new(
            &program.dag,
            &kinds,
            &prebound,
            &schedule,
            ctx.plain_modulus(),
        );
        let lowering_time = lowering_started.elapsed();
        let metrics = SessionMetrics::new(galois_keys.key_count());

        Ok(FheSession {
            program: program.clone(),
            ctx,
            public_key,
            decryptor,
            relin_keys,
            galois_keys,
            schedule,
            bind_plan,
            lanes,
            arena_pool: ArenaPool::new(),
            keygen_time,
            lowering_time,
            runs: AtomicU64::new(0),
            metrics,
        })
    }

    /// Serves one request sequentially: client-side binding, the timed
    /// (leveled, single-worker) execution, and decryption. This is the
    /// stable measurement baseline; [`FheSession::run_parallel`] is
    /// bit-identical at every worker count and scheduler.
    ///
    /// # Errors
    ///
    /// Same contract as [`FheSession::run_batched`].
    pub fn run(&self, inputs: &HashMap<String, i64>) -> Result<ExecutionReport, FheError> {
        self.run_parallel(
            inputs,
            &ExecOptions::sequential().with_scheduler(SchedulerKind::Leveled),
        )
    }

    /// Serves one request with `options.threads_per_request` workers under
    /// `options.scheduler` — by default the barrier-free dataflow rule
    /// with the schedule's critical-path priorities. Results are
    /// bit-identical to [`FheSession::run`] at every worker count and
    /// scheduler. A solo request is a batch of one of
    /// [`FheSession::run_batched`].
    ///
    /// # Errors
    ///
    /// Same contract as [`FheSession::run_batched`].
    pub fn run_parallel(
        &self,
        inputs: &HashMap<String, i64>,
        options: &ExecOptions,
    ) -> Result<ExecutionReport, FheError> {
        let reports =
            self.run_batched(std::slice::from_ref(inputs), options, &ExecHooks::default())?;
        Ok(reports.into_iter().next().expect("one report per user"))
    }

    /// Starts a persistent serving engine over this session:
    /// [`FheSession::serve_with`] without hooks.
    pub fn serve(self: &Arc<Self>, options: &ExecOptions) -> FheServingEngine {
        self.serve_with(options, &ExecHooks::default())
    }

    /// Starts a lane-batching serving engine over this session:
    /// [`FheSession::serve_with`] without hooks, under `options.batching`
    /// (defaulting to [`BatchPolicy::default`] when unset) and — whatever
    /// `options.request_threads` says — one engine worker, which keeps
    /// batches maximal; intra-batch parallelism comes from
    /// `options.threads_per_request`.
    pub fn serve_batched(self: &Arc<Self>, options: &ExecOptions) -> FheServingEngine {
        let policy = options.batching.unwrap_or_default();
        let options = options.with_request_threads(1).with_batching(policy);
        self.serve_with(&options, &ExecHooks::default())
    }

    /// Starts the persistent serving front end over this session: one
    /// bounded request queue (`options.queue_capacity`) drained by
    /// `options.request_threads` long-lived workers. Each worker gathers a
    /// batch under `options.batching` — flushing on a full batch, the
    /// linger bound, or a member's deadline; with batching unset every
    /// request is a batch of one — executes it **once** through
    /// [`FheSession::run_batched`] with `options.threads_per_request`
    /// workers under `options.scheduler`, and scatters the per-user reports
    /// to their [`chehab_runtime::RequestHandle`]s. The batch bound is
    /// clamped to [`FheSession::batch_capacity`]. A batch-level
    /// [`FheError`] is the result of every member, except that a
    /// [`FheError::WorkerPanic`](chehab_fhe::FheError::WorkerPanic) poisons
    /// a batch of two or more: the engine re-runs each member alone, under
    /// its own token, so only the offender's handle gets the panic.
    ///
    /// `submit` returns a handle immediately; `wait`/`try_wait` receive
    /// that request's report, so callers observe submission order even when
    /// completions are out of order. With batching unset (and no trace sink
    /// or fault plan in `hooks`), `wait` on a request no worker has started
    /// runs it on the calling thread — no hand-off to a worker and back.
    /// Every request's
    /// [`CancellationToken`] is stamped with `options.deadline` at enqueue;
    /// a batch of one executes under its member's own token, so a cancelled
    /// or expired request stops scheduling work mid-flight and resolves
    /// with [`FheError::Cancelled`](chehab_fhe::FheError::Cancelled) /
    /// [`FheError::DeadlineExceeded`](chehab_fhe::FheError::DeadlineExceeded)
    /// (the members of a larger batch share their ciphertexts, so none can
    /// stop alone). `hooks.trace` and `hooks.faults` apply as documented on
    /// [`ExecHooks`].
    ///
    /// `shutdown` drains in-flight work and reports what the engine observes
    /// (queue, gather, lane occupancy, wall, poisoned batches) as
    /// [`chehab_runtime::ServingStats`]; a request's outcome is counted once,
    /// by the engine from the result its handle receives, in the session's
    /// registry cells, shared by all its engines. What a run
    /// observes — steals, encryptions — is counted by the session
    /// ([`FheSession::stats`], [`FheSession::metrics`]), its op latencies
    /// are carried per run in each report's `timing`, and the handler
    /// records nothing.
    pub fn serve_with(
        self: &Arc<Self>,
        options: &ExecOptions,
        hooks: &ExecHooks,
    ) -> FheServingEngine {
        let batching = options
            .batching
            .map(|policy| policy.with_max_batch(self.lanes.lanes.min(policy.max_batch)));
        let policy = batching.unwrap_or_else(BatchPolicy::solo);
        let exec = ExecOptions {
            batching,
            ..*options
        };
        let session = Arc::clone(self);
        let faults = hooks.faults.clone();
        ServingEngine::batched(
            ServingConfig {
                workers: options.request_threads,
                queue_capacity: options.queue_capacity,
                deadline: options.deadline,
                faults: hooks.faults.clone(),
                trace: hooks.trace.clone(),
                resilience: self.metrics.resilience.clone(),
            },
            policy,
            move |batch: Vec<(u64, HashMap<String, i64>)>, token: Option<&CancellationToken>| {
                let inputs: Vec<HashMap<String, i64>> =
                    batch.into_iter().map(|(_, inputs)| inputs).collect();
                let hooks = ExecHooks {
                    trace: None,
                    cancel: token.cloned(),
                    faults: faults.clone(),
                };
                match session.run_batched(&inputs, &exec, &hooks) {
                    Ok(reports) => reports.into_iter().map(Ok).collect(),
                    Err(error) => inputs.iter().map(|_| Err(error.clone())).collect(),
                }
            },
        )
    }

    /// The program this session serves.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// The parameters the session's context was built with.
    pub fn params(&self) -> &BfvParameters {
        self.ctx.params()
    }

    /// Number of RNS limbs every payload stripe in this session carries
    /// (1 on the single-modulus Goldilocks path).
    pub fn limb_count(&self) -> usize {
        self.ctx.params().limb_count
    }

    /// The session's leveled instruction schedule (lowered once at session
    /// construction).
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Point-in-time session statistics: one-time setup costs, requests
    /// served, Galois keys held and encryptions per run.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            keygen_time: self.keygen_time,
            lowering_time: self.lowering_time,
            requests_served: self.metrics.requests.get(),
            galois_key_count: self.galois_keys.key_count(),
            encryptions_per_request: self.bind_plan.encryptions(),
        }
    }

    /// Mirrors into the registry what is counted *below* the runtime crate:
    /// the arena pool's allocation counters and the context's NTT transform
    /// counts live in `chehab-fhe`, which cannot see `telemetry` to count
    /// into its cells itself. Everything else is bumped live by the layer
    /// that observes it, or set once at session build, and needs no sync.
    fn refresh_metrics(&self) {
        let m = &self.metrics;
        let arena = self.arena_pool.alloc_stats();
        m.arena_fresh.store(arena.fresh_allocations);
        m.arena_reused.store(arena.reuses);
        m.arena_retained.set(self.arena_pool.retained() as f64);
        let transforms = self.ctx.transform_stats();
        m.ntt_forward.store(transforms.forward);
        m.ntt_inverse.store(transforms.inverse);
    }

    /// The session's unified metrics registry, freshly synced: request,
    /// encryption and dataflow-steal counters bumped on the request path,
    /// the resilience counters (`chehab_requests_cancelled_total`,
    /// `chehab_deadline_missed_total`, `chehab_worker_panics_total`) bumped
    /// by this session's serving engines, the mirrored arena and NTT
    /// figures, and the Galois-key count set at session build. Render it
    /// with [`MetricsRegistry::render_text`] (or use the
    /// [`FheSession::render_metrics`] shorthand).
    pub fn metrics(&self) -> &MetricsRegistry {
        self.refresh_metrics();
        &self.metrics.registry
    }

    /// The session's metrics in the Prometheus text exposition format
    /// (synced first, like [`FheSession::metrics`]).
    pub fn render_metrics(&self) -> String {
        self.metrics().render_text()
    }

    /// The lane stride of this program on this context: the slot distance
    /// between consecutive users' windows in a batched execution (the
    /// rotation-envelope span of one user's data).
    pub fn lane_stride(&self) -> usize {
        self.lanes.stride
    }

    /// How many users one ciphertext can carry under this program's lane
    /// stride (`slot_count / stride`, at least 1). The effective batch bound
    /// of [`FheSession::run_batched`] is the minimum of this and the
    /// policy's `max_batch`.
    pub fn batch_capacity(&self) -> usize {
        self.lanes.lanes
    }

    /// The slot-vector, payload-splat and stripe lengths parked in the
    /// session's arena pool — what the window tests read to see that no
    /// register of a run outgrew its lane window.
    #[doc(hidden)]
    pub fn parked_buffer_lengths(&self) -> Vec<usize> {
        self.arena_pool.parked_lengths()
    }

    /// The caller's half of binding (untimed): walks the session's
    /// [`BindPlan`] — `input_sets.len()` users into **shared** registers,
    /// user `k` based at slot `lanes.base(k)`, one encryption entry per live
    /// ciphertext register whatever the batch size, every register as long
    /// as the run's window — and gives the run the next stretch of the
    /// encryption stream. The encryptions themselves are the first phase of
    /// the run, on the executor's workers, drawing from the session's arena
    /// pool.
    fn prepare(&self, input_sets: &[HashMap<String, i64>], lanes: LaneGeometry) -> RunInputs {
        debug_assert!(input_sets.len() == lanes.lanes && lanes.lanes <= self.lanes.lanes);
        let window = lanes.window(self.ctx.slot_count());
        let run = self.runs.fetch_add(1, Ordering::Relaxed);
        RunInputs {
            first_encryption: run * self.bind_plan.encryptions() as u64,
            ..self.bind_plan.prepare(input_sets, lanes, window)
        }
    }

    /// The server side of one chunk on the one executor, under `options`.
    fn execute(
        &self,
        inputs: RunInputs,
        res: &ExecResources<'_>,
        options: &ExecOptions,
    ) -> Result<ExecOutcome, FheError> {
        Executor::new(options.threads_per_request).execute(
            &self.schedule,
            inputs,
            res,
            options.scheduler,
        )
    }

    /// The one request path: serves a closed set of requests, each chunk of
    /// up to `min(batch_capacity, policy.max_batch)` users packed into the
    /// slot lanes of shared ciphertexts — bind → execute → scatter, the
    /// program executing *once* per chunk, so every homomorphic operation is
    /// amortized across the whole chunk. Per-user results are scattered back
    /// at decrypt from each user's lane window, in input order. Without
    /// `options.batching` every request is a chunk of one: its own
    /// ciphertexts, the plain single-user layout.
    ///
    /// Each chunk executes with `options.threads_per_request` workers under
    /// `options.scheduler`. Outputs are bit-identical per user at every
    /// chunk size, worker count and scheduler; each user's report carries
    /// the chunk's shared server time and operation stats (the whole point:
    /// one execution, many users). `hooks` trace, cancel or fault the call
    /// as documented on [`ExecHooks`].
    ///
    /// # Errors
    ///
    /// Returns an [`FheError`] for missing Galois keys or other backend
    /// failures, and the cancellation/deadline/panic variants when `hooks`
    /// stop the call; an error fails the entire call. An exhausted noise
    /// budget is *not* an error and is reported through
    /// [`ExecutionReport::decryption_ok`].
    pub fn run_batched(
        &self,
        input_sets: &[HashMap<String, i64>],
        options: &ExecOptions,
        hooks: &ExecHooks,
    ) -> Result<Vec<ExecutionReport>, FheError> {
        self.run_chunks(input_sets, options.batching, hooks, |inputs, res| {
            self.execute(inputs, res, options)
        })
    }

    /// One solo request through the runtime's in-order reference walk
    /// instead of the executor — the oracle of the equivalence suites.
    #[doc(hidden)]
    pub fn run_in_order(&self, inputs: &HashMap<String, i64>) -> Result<ExecutionReport, FheError> {
        let inputs = std::slice::from_ref(inputs);
        let reports = self.run_chunks(inputs, None, &ExecHooks::default(), |inputs, res| {
            chehab_runtime::execute_in_order(&self.schedule, inputs, res)
        })?;
        Ok(reports.into_iter().next().expect("one report per user"))
    }

    /// Test hook: serves `input_sets` as one chunk of the ordinary request
    /// path — on the executor under `options`, or on the in-order walk when
    /// `None` — drawing the randomness of run number `run` of the session's
    /// stream (the next run's, like any request, when `None`). Returns the
    /// payload stripe of every input ciphertext in stream order, then the
    /// output's (none for a plaintext output), as they stood when the
    /// executor returned.
    ///
    /// # Panics
    ///
    /// Panics if `input_sets` does not fit one chunk
    /// ([`FheSession::batch_capacity`]).
    #[doc(hidden)]
    pub fn run_payloads(
        &self,
        input_sets: &[HashMap<String, i64>],
        options: Option<&ExecOptions>,
        run: Option<u64>,
    ) -> Result<Vec<Vec<u64>>, FheError> {
        assert!(input_sets.len() <= self.lanes.lanes, "one chunk only");
        let retained = Arc::new(Mutex::new(Vec::new()));
        let output = Mutex::new(Vec::new());
        let one_chunk = BatchPolicy::default().with_max_batch(input_sets.len());
        self.run_chunks(
            input_sets,
            Some(one_chunk),
            &ExecHooks::default(),
            |mut inputs, res| {
                if let Some(run) = run {
                    inputs.first_encryption = run * self.bind_plan.encryptions() as u64;
                }
                inputs.retain = Some(Arc::clone(&retained));
                let outcome = match options {
                    Some(options) => self.execute(inputs, res, options),
                    None => chehab_runtime::execute_in_order(&self.schedule, inputs, res),
                }?;
                if let Register::Cipher(ct) = &outcome.output {
                    *lock(&output) = ct.payload().stripe().to_vec();
                }
                Ok(outcome)
            },
        )?;
        let mut inputs = std::mem::take(&mut *lock(&retained));
        inputs.sort_by_key(|&(entry, _)| entry);
        let mut stripes: Vec<Vec<u64>> = inputs
            .into_iter()
            .map(|(_, register)| match register {
                Register::Cipher(ct) => ct.payload().stripe().to_vec(),
                Register::Plain(_) => unreachable!("inputs encrypt to ciphertexts"),
            })
            .collect();
        let output = std::mem::take(&mut *lock(&output));
        if !output.is_empty() {
            stripes.push(output);
        }
        Ok(stripes)
    }

    /// The body of [`FheSession::run_batched`], with the server side of each
    /// chunk left to `execute`.
    fn run_chunks(
        &self,
        input_sets: &[HashMap<String, i64>],
        batching: Option<BatchPolicy>,
        hooks: &ExecHooks,
        execute: impl Fn(RunInputs, &ExecResources<'_>) -> Result<ExecOutcome, FheError>,
    ) -> Result<Vec<ExecutionReport>, FheError> {
        let capacity = batching.map_or(1, |policy| self.lanes.lanes.min(policy.max_batch).max(1));
        let t = self.ctx.plain_modulus() as i64;
        let output_slots = self.program.output_slots;
        let session_track = hooks
            .trace
            .as_deref()
            .map(|sink| (sink, sink.allocate_track("session")));
        let span = |name: &'static str, started: Instant, dur: Duration| {
            if let Some((sink, track)) = session_track {
                sink.push(SpanEvent {
                    name,
                    cat: "session",
                    track,
                    start_ns: sink.offset_ns(started),
                    dur_ns: nanos(dur),
                    instr: None,
                    queue_wait_ns: None,
                    stolen_from: None,
                });
            }
        };

        let mut reports: Vec<ExecutionReport> = Vec::with_capacity(input_sets.len());
        for chunk in input_sets.chunks(capacity) {
            // Fail fast on a token that is already dead — before paying for
            // input encryption.
            if let Some(token) = &hooks.cancel {
                token.check()?;
            }
            let users = chunk.len();
            // The run's geometry: the session's, with its live lanes. Bind,
            // run-time packing and the scatter place users by its `base`.
            let lanes = LaneGeometry {
                lanes: users,
                ..self.lanes
            };
            let bind_started = Instant::now();
            let inputs = self.prepare(chunk, lanes);
            let resources = ExecResources {
                ctx: &self.ctx,
                public_key: &self.public_key,
                relin_keys: &self.relin_keys,
                galois_keys: &self.galois_keys,
                arenas: &self.arena_pool,
                lanes,
                cancel: hooks.cancel.as_ref(),
                faults: hooks.faults.as_ref(),
            };
            // The run encrypts its inputs on its workers, then — from the
            // barrier where the last one is published — executes the
            // scheduled operations: bind spans the caller's preparation and
            // the encryptions, the server time (`timing.wall`) the rest.
            let outcome = execute(inputs, &resources);
            self.metrics
                .encryptions
                .add(self.bind_plan.encryptions() as u64);
            let outcome = outcome?;
            let server_time = outcome.timing.wall;
            let barrier = outcome.timing.barrier;
            span("bind", bind_started, barrier - bind_started);
            span("execute", barrier, server_time);
            if let Some(sink) = hooks.trace.as_deref() {
                trace_instructions(sink, &self.schedule, &outcome.timing);
            }

            // Scatter: each user reads its own lane window of the shared
            // output.
            let decrypt_started = Instant::now();
            let per_user: Vec<(Vec<u64>, f64, bool)> = match outcome.output {
                Register::Cipher(ct) => {
                    let consumed = ct.noise_consumed_bits();
                    // One lean decryption — one key check, one noise check
                    // and, at k > 1, one CRT pass — serves every lane; no
                    // Plaintext is allocated.
                    let scattered = match self.decryptor.decrypt_slots(&ct) {
                        Ok(stored) => Ok((0..users)
                            .map(|lane| {
                                let base = lanes.base(lane);
                                let end = (base + output_slots).min(self.ctx.slot_count());
                                (lane_window(stored, base..end), consumed, true)
                            })
                            .collect()),
                        Err(FheError::NoiseBudgetExhausted { .. }) => {
                            Ok(vec![(Vec::new(), consumed, false); users])
                        }
                        Err(other) => Err(other),
                    };
                    // Recycle the output's buffers into the session pool.
                    if let Ok(ciphertext) = Arc::try_unwrap(ct) {
                        self.arena_pool.recycle(ciphertext);
                    }
                    scattered?
                }
                Register::Plain(values) => (0..users)
                    .map(|lane| {
                        let window: Vec<u64> = values
                            .values()
                            .iter()
                            .skip(lanes.base(lane))
                            .take(output_slots)
                            .map(|&v| v.rem_euclid(t) as u64)
                            .collect();
                        (window, 0.0, true)
                    })
                    .collect(),
            };
            span("decrypt", decrypt_started, decrypt_started.elapsed());

            self.metrics.requests.add(users as u64);
            self.metrics.steals.add(outcome.timing.steals);
            if batching.is_some() {
                self.metrics.batches.inc();
                self.metrics
                    .lane_occupancy
                    .set(100.0 * users as f64 / capacity as f64);
            }

            // Every user's report carries the chunk's timing; `repeat_n` moves
            // the original into the last one, so a batch of one copies nothing.
            let timings = std::iter::repeat_n(outcome.timing, users);
            for ((outputs, noise_consumed, decryption_ok), timing) in
                per_user.into_iter().zip(timings)
            {
                reports.push(ExecutionReport {
                    outputs,
                    server_time,
                    noise_budget_consumed: noise_consumed,
                    noise_budget_remaining: (self.ctx.params().fresh_noise_budget_bits()
                        - noise_consumed)
                        .max(0.0),
                    operation_stats: outcome.stats,
                    decryption_ok,
                    timing,
                });
            }
        }
        Ok(reports)
    }
}

/// Draws a run's instruction spans from its report: one track per worker
/// that ran an instruction, one span per instruction on its worker's track.
fn trace_instructions(sink: &TraceSink, schedule: &Schedule, timing: &TimingBreakdown) {
    let workers = timing.workers.iter().max().map_or(0, |&w| w + 1);
    let tracks: Vec<Option<usize>> = (0..workers)
        .map(|w| {
            timing
                .workers
                .contains(&w)
                .then(|| sink.allocate_track(format!("executor worker {w}")))
        })
        .collect();
    for (index, si) in schedule.instrs().iter().enumerate() {
        sink.push(SpanEvent {
            name: si.instr.label(),
            cat: "instr",
            track: tracks[timing.workers[index]].expect("the worker ran this instruction"),
            start_ns: sink.offset_ns(timing.barrier + timing.starts[index]),
            dur_ns: nanos(timing.instr_times[index]),
            instr: Some(index),
            queue_wait_ns: Some(nanos(timing.queue_waits[index])),
            stolen_from: timing.stolen_from[index],
        });
    }
}

/// A span length in nanoseconds, saturating.
fn nanos(span: Duration) -> u64 {
    u64::try_from(span.as_nanos()).unwrap_or(u64::MAX)
}

/// One user's lane `window` of a decrypted output's stored prefix: the part
/// inside the prefix, zero beyond it (every slot past the prefix is zero).
fn lane_window(stored: &[u64], window: Range<usize>) -> Vec<u64> {
    let len = stored.len();
    let mut values = stored[window.start.min(len)..window.end.min(len)].to_vec();
    values.resize(window.len(), 0);
    values
}

/// Conservative per-register slot width of a pre-bound DAG node: scalars
/// occupy one slot, packed vectors their element count, everything else the
/// maximum of its operands. Feeds [`chehab_runtime::lane_geometry`].
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

/// The result of executing a compiled program.
#[derive(Debug, Clone)]
pub struct ExecutionReport {
    /// Decrypted output slots (empty if decryption failed).
    pub outputs: Vec<u64>,
    /// Wall-clock time of the server-side homomorphic evaluation: the run's
    /// `timing.wall`, which starts at the barrier where the last input
    /// encryption is published and the first instruction is released. The
    /// input encryptions run on the same workers just before it, but they
    /// are the client's half of the request and are not counted here (they
    /// are in the trace's `bind` span).
    pub server_time: Duration,
    /// Invariant-noise budget consumed by the output ciphertext, in bits.
    pub noise_budget_consumed: f64,
    /// Remaining noise budget, in bits.
    pub noise_budget_remaining: f64,
    /// Homomorphic operations executed, by category.
    pub operation_stats: EvaluatorStats,
    /// `false` when the noise budget was exhausted and decryption failed.
    pub decryption_ok: bool,
    /// The executor's one record of the run: per instruction its worker,
    /// start (an offset from `timing.barrier`), span, queue wait and steal
    /// victim, and the run's steals. A trace's instruction spans are drawn
    /// from it.
    pub timing: TimingBreakdown,
}

/// Builds an empty [`CompileStats`] for circuits produced outside the CHEHAB
/// pipeline (e.g. the Coyote baseline), with both summaries taken from the
/// same circuit.
pub fn external_compile_stats(circuit: &Expr, compile_time: Duration) -> CompileStats {
    let summary = chehab_ir::summarize(circuit);
    let cost = chehab_ir::CostModel::default().cost(circuit);
    CompileStats {
        compile_time,
        cost_before: cost,
        cost_after: cost,
        optimizer_steps: 0,
        search: SearchCounters::default(),
        summary_before: summary,
        summary_after: summary,
    }
}

/// Convenience: the number of live output slots of a program.
pub fn output_slots_of(program: &Expr) -> usize {
    program.ty().map(Ty::slots).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotation_keys::select_rotation_keys;
    use chehab_ir::parse;

    fn compile_raw(circuit: &str, layout_before: bool) -> CompiledProgram {
        let circuit = parse(circuit).unwrap();
        let steps: Vec<i64> = chehab_ir::rotation_steps(&circuit)
            .keys()
            .copied()
            .collect();
        let plan = select_rotation_keys(&steps, 28);
        let slots = output_slots_of(&circuit);
        CompiledProgram::from_circuit(
            "test",
            circuit.clone(),
            slots,
            plan,
            layout_before,
            external_compile_stats(&circuit, Duration::from_millis(1)),
        )
    }

    fn run(program: &CompiledProgram, bindings: &[(&str, i64)]) -> ExecutionReport {
        let inputs: HashMap<String, i64> =
            bindings.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        program
            .session(&BfvParameters::insecure_test())
            .unwrap()
            .run(&inputs)
            .unwrap()
    }

    #[test]
    fn executes_a_vectorized_circuit_correctly() {
        let program = compile_raw("(VecMul (Vec a c) (Vec b d))", true);
        let report = run(&program, &[("a", 2), ("b", 3), ("c", 4), ("d", 5)]);
        assert!(report.decryption_ok);
        assert_eq!(report.outputs, vec![6, 20]);
        assert_eq!(report.operation_stats.ct_ct_multiplications, 1);
        assert!(report.noise_budget_remaining > 0.0);
    }

    #[test]
    fn executes_rotations_and_reductions() {
        // Dot product of length 4 via rotate-and-add.
        let circuit = "(VecAdd (VecAdd (VecMul (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3)) (<< (VecMul (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3)) 2)) (<< (VecAdd (VecMul (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3)) (<< (VecMul (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3)) 2)) 1))";
        let program = compile_raw(circuit, true);
        let report = run(
            &program,
            &[
                ("a0", 1),
                ("a1", 2),
                ("a2", 3),
                ("a3", 4),
                ("b0", 5),
                ("b1", 6),
                ("b2", 7),
                ("b3", 8),
            ],
        );
        // 1*5 + 2*6 + 3*7 + 4*8 = 70 in slot 0.
        assert_eq!(report.outputs[0], 70);
        assert!(report.operation_stats.rotations >= 2);
    }

    #[test]
    fn ct_pt_operations_use_plain_variants() {
        let program = compile_raw("(VecMul (Vec a b) (Vec 3 4))", true);
        let report = run(&program, &[("a", 5), ("b", 6)]);
        assert_eq!(report.outputs, vec![15, 24]);
        assert_eq!(report.operation_stats.ct_ct_multiplications, 0);
        assert_eq!(report.operation_stats.ct_pt_multiplications, 1);
    }

    #[test]
    fn scalar_programs_report_slot_zero() {
        let program = compile_raw("(* (+ a b) c)", true);
        let report = run(&program, &[("a", 2), ("b", 3), ("c", 4)]);
        assert_eq!(report.outputs, vec![20]);
    }

    #[test]
    fn layout_after_encryption_costs_extra_rotations() {
        let circuit = "(VecAdd (Vec a b c d) (Vec e f g h))";
        let before = compile_raw(circuit, true);
        let after = compile_raw(circuit, false);
        let bindings: Vec<(&str, i64)> = vec![
            ("a", 1),
            ("b", 2),
            ("c", 3),
            ("d", 4),
            ("e", 5),
            ("f", 6),
            ("g", 7),
            ("h", 8),
        ];
        let report_before = run(&before, &bindings);
        let report_after = run(&after, &bindings);
        assert_eq!(report_before.outputs, vec![6, 8, 10, 12]);
        assert_eq!(report_after.outputs, vec![6, 8, 10, 12]);
        assert!(report_after.operation_stats.rotations > report_before.operation_stats.rotations);
        assert!(report_after.operation_stats.total() > report_before.operation_stats.total());
    }

    #[test]
    fn subtracting_ciphertext_from_plaintext_negates_correctly() {
        let program = compile_raw("(VecSub (Vec 10 10) (Vec a b))", true);
        let report = run(&program, &[("a", 3), ("b", 4)]);
        assert_eq!(report.outputs, vec![7, 6]);
    }

    #[test]
    fn plaintext_only_programs_execute_without_ciphertext_work() {
        let program = compile_raw("(+ (pt w) 3)", true);
        let report = run(&program, &[("w", 10)]);
        assert_eq!(report.outputs, vec![13]);
        assert_eq!(report.operation_stats.total(), 0);
    }

    #[test]
    fn missing_inputs_default_to_zero() {
        let program = compile_raw("(+ a b)", true);
        let report = run(&program, &[("a", 7)]);
        assert_eq!(report.outputs, vec![7]);
    }

    #[test]
    fn parallel_execution_matches_sequential_output_and_stats() {
        let circuit = "(VecAdd (VecMul (Vec a b) (Vec c d)) (VecAdd (VecMul (Vec e f) (Vec g h)) (VecMul (Vec a b) (Vec g h))))";
        let program = compile_raw(circuit, true);
        let inputs: HashMap<String, i64> = [
            ("a", 1),
            ("b", 2),
            ("c", 3),
            ("d", 4),
            ("e", 5),
            ("f", 6),
            ("g", 7),
            ("h", 8),
        ]
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
        let session = program.session(&BfvParameters::insecure_test()).unwrap();
        let sequential = session.run(&inputs).unwrap();
        for threads in [2, 4] {
            let options = ExecOptions::sequential().with_threads_per_request(threads);
            let parallel = session.run_parallel(&inputs, &options).unwrap();
            assert_eq!(parallel.outputs, sequential.outputs);
            assert_eq!(parallel.operation_stats, sequential.operation_stats);
            assert_eq!(
                parallel.noise_budget_consumed,
                sequential.noise_budget_consumed
            );
            // The default parallel scheduler is dataflow, with one measured
            // span and queue wait per instruction.
            assert_eq!(parallel.timing.scheduler, SchedulerKind::Dataflow);
            assert_eq!(
                parallel.timing.instr_times.len(),
                sequential.timing.instr_times.len()
            );
            assert_eq!(
                parallel.timing.queue_waits.len(),
                parallel.timing.instr_times.len()
            );
        }
    }

    /// The scatter's windows: two users at a lane stride of 4 read exactly
    /// their own slots, and a window reaching into (or lying wholly in) the
    /// elided zeros reads zero there.
    #[test]
    fn lane_windows_read_the_stored_prefix_and_zero_beyond_it() {
        let stored = [10, 11, 0, 0, 20, 21, 0, 0];
        assert_eq!(lane_window(&stored, 0..4), [10, 11, 0, 0]);
        assert_eq!(lane_window(&stored, 4..8), [20, 21, 0, 0]);
        assert_eq!(lane_window(&stored, 6..10), [0; 4]);
        assert_eq!(lane_window(&stored, 16..20), [0; 4]);
        assert_eq!(lane_window(&stored, 5..6), [21]);
    }

    #[test]
    fn schedule_is_exposed_for_introspection() {
        let program = compile_raw(
            "(VecAdd (VecMul (Vec a b) (Vec c d)) (VecMul (Vec e f) (Vec g h)))",
            true,
        );
        let schedule = program.schedule();
        assert_eq!(schedule.level_count(), 2);
        assert_eq!(schedule.max_width(), 2);
    }
}
