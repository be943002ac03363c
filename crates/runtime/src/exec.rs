//! The wavefront executor: a `std::thread` worker pool that runs every
//! instruction of a schedule level concurrently.
//!
//! Execution proceeds level by level. Within a level all instructions are
//! independent, so workers drain a shared atomic work queue; instructions are
//! pre-sorted by descending estimated cost (longest-processing-time-first),
//! which keeps the queue balanced even though a ct-ct multiplication costs
//! two orders of magnitude more than an addition. A barrier separates
//! levels: operands of the next level are guaranteed written before any
//! worker proceeds.
//!
//! Every worker owns a private [`Evaluator`] (the shared [`FheContext`] is
//! immutable) and a private [`CalibratedCostModel`]; both are merged when the
//! wavefront completes, so the report carries exact operation counts and
//! measured per-op-kind latencies with no synchronization on the hot path.
//!
//! ## Arena-backed registers and last-use recycling
//!
//! Registers live in a [`RegisterFile`]: values are published once and read
//! as cheap `Arc` clones ([`Register`] wraps its payload in `Arc`, so a read
//! copies a pointer, not a ciphertext). The schedule's last-use analysis
//! ([`Schedule::consumer_counts`]) seeds a per-slot countdown; the worker
//! that completes a slot's final consumer takes the dead register out of the
//! file and recycles its buffers into its evaluator's [`PolyArena`]. Worker
//! arenas are checked out of the shared [`ExecResources::arenas`] pool at
//! request start and restored at the end, so a warm session executes whole
//! request streams with zero fresh buffer allocations.

use crate::calibrate::{CalibratedCostModel, OpKind};
use crate::schedule::{Instr, Schedule, ScheduledInstr, Slot};
use crate::telemetry::{TraceBuffer, TraceSink};
use chehab_fhe::{
    ArenaPool, Ciphertext, Evaluator, EvaluatorStats, FheContext, FheError, GaloisKeys, Plaintext,
    PolyArena, RelinKeys,
};
use chehab_ir::BinOp;

/// Timing category of a binary op on two ciphertext operands.
fn ct_ct_kind(op: BinOp) -> OpKind {
    match op {
        BinOp::Add | BinOp::Sub => OpKind::Addition,
        BinOp::Mul => OpKind::MulCtCt,
    }
}

/// Timing category of a binary op with one plaintext operand.
fn ct_pt_kind(op: BinOp) -> OpKind {
    match op {
        BinOp::Add | BinOp::Sub => OpKind::Addition,
        BinOp::Mul => OpKind::MulCtPt,
    }
}
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A clear (client-side) value bound into the register file, with a
/// per-request cache of its encoded [`Plaintext`].
///
/// Every instruction that consumes the register shares one encoding (and,
/// through the plaintext's own splat cache, one payload NTT) instead of
/// re-encoding per use — safe across wavefront workers because the cache is
/// a [`OnceLock`] and encoding is deterministic.
#[derive(Debug, Clone, Default)]
pub struct PlainValue {
    values: Vec<i64>,
    encoded: OnceLock<Plaintext>,
}

impl PlainValue {
    /// Wraps clear slot values.
    pub fn new(values: Vec<i64>) -> Self {
        PlainValue {
            values,
            encoded: OnceLock::new(),
        }
    }

    /// The clear slot values.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// The encoded plaintext, computed on first use and shared afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`FheError`] from encoding (more values than slots).
    pub fn encoded(&self, ctx: &FheContext) -> Result<&Plaintext, FheError> {
        if let Some(plain) = self.encoded.get() {
            return Ok(plain);
        }
        let plain = ctx.encode(&self.values)?;
        Ok(self.encoded.get_or_init(|| plain))
    }

    /// [`PlainValue::encoded`] with the slot vector drawn from `arena` — the
    /// form the executors use so a warm request's plaintext encodes are
    /// served by the pool and recycled when the register dies.
    ///
    /// # Errors
    ///
    /// Propagates [`FheError`] from encoding (more values than slots).
    pub fn encoded_in(
        &self,
        ctx: &FheContext,
        arena: &mut PolyArena,
    ) -> Result<&Plaintext, FheError> {
        if let Some(plain) = self.encoded.get() {
            return Ok(plain);
        }
        let plain = ctx.encode_in(&self.values, arena)?;
        // A concurrent worker may have encoded first; the loser's buffers
        // go straight back to the pool instead of the allocator.
        if let Err(lost) = self.encoded.set(plain) {
            lost.recycle_into(arena);
        }
        Ok(self.encoded.get().expect("cache was just filled"))
    }

    /// Returns the cached encoding's buffers to `arena`, if the value was
    /// ever encoded. Called when the register file retires a dead plaintext
    /// register.
    pub(crate) fn recycle_into(self, arena: &mut PolyArena) {
        if let Some(plain) = self.encoded.into_inner() {
            plain.recycle_into(arena);
        }
    }
}

impl From<Vec<i64>> for PlainValue {
    fn from(values: Vec<i64>) -> Self {
        PlainValue::new(values)
    }
}

/// A register of the flat execution machine: either a ciphertext computed on
/// the server or a clear value the client evaluated (plaintext subcircuits
/// never touch ciphertexts).
///
/// Both variants wrap their value in `Arc`, so cloning a register — which is
/// how the [`RegisterFile`] hands operands to workers — copies a pointer,
/// never a ciphertext or an encoded plaintext.
#[derive(Debug, Clone)]
pub enum Register {
    /// An encrypted value.
    Cipher(Arc<Ciphertext>),
    /// A clear (client-side) value, one entry per vector slot.
    Plain(Arc<PlainValue>),
}

impl Register {
    /// Wraps a ciphertext.
    pub fn cipher(ciphertext: Ciphertext) -> Register {
        Register::Cipher(Arc::new(ciphertext))
    }

    /// Wraps a clear value.
    pub fn plain(value: impl Into<PlainValue>) -> Register {
        Register::Plain(Arc::new(value.into()))
    }
}

/// The register file of one scheduled execution: write-once publish cells
/// plus the per-slot consumer countdown driving last-use buffer recycling.
///
/// Reads clone the register's `Arc` (cheap); the worker that retires a
/// slot's final consumer gets the dead register back for recycling. The
/// per-cell mutexes are uncontended except when two consumers of one slot
/// finish simultaneously, and each is held for a pointer copy — noise at
/// FHE-op granularity.
#[derive(Debug)]
pub struct RegisterFile {
    cells: Vec<Mutex<Option<Register>>>,
    /// Consumer instructions not yet completed, per slot (seeded from
    /// [`Schedule::consumer_counts`]).
    remaining_uses: Vec<AtomicUsize>,
    output: Slot,
}

impl RegisterFile {
    /// Builds the register file for one run: `initial[slot] = Some(..)` for
    /// every pre-bound (client-side) value.
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not cover the schedule's slot count.
    pub fn new(initial: Vec<Option<Register>>, schedule: &Schedule) -> Self {
        assert_eq!(
            initial.len(),
            schedule.slot_count(),
            "register file size mismatch"
        );
        RegisterFile {
            cells: initial.into_iter().map(Mutex::new).collect(),
            remaining_uses: schedule
                .consumer_counts()
                .iter()
                .map(|&count| AtomicUsize::new(count))
                .collect(),
            output: schedule.output(),
        }
    }

    /// Reads a slot (a cheap `Arc` clone).
    ///
    /// # Panics
    ///
    /// Panics if the slot has no value — the schedulers guarantee operands
    /// are published before any consumer runs.
    pub fn read(&self, slot: Slot) -> Register {
        self.cells[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
            .expect("operands are published before their consumers run")
    }

    /// Whether the slot currently holds a value (used by up-front operand
    /// validation).
    pub(crate) fn is_bound(&self, slot: Slot) -> bool {
        self.cells[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_some()
    }

    /// Publishes an instruction's result into its destination slot.
    pub(crate) fn publish(&self, slot: Slot, register: Register) {
        *self.cells[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(register);
    }

    /// Notes that one consumer of `slot` completed. The call that retires
    /// the final consumer gets the dead register back for buffer recycling
    /// (never for the output slot, which outlives the run).
    pub(crate) fn consume(&self, slot: Slot) -> Option<Register> {
        if self.remaining_uses[slot].fetch_sub(1, Ordering::AcqRel) == 1 && slot != self.output {
            self.cells[slot]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
        } else {
            None
        }
    }

    /// Takes the output register after the run completed.
    pub(crate) fn take_output(&mut self) -> Option<Register> {
        self.cells[self.output]
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }

    /// Recycles every register still in the file into `arena` (pre-bound
    /// inputs the circuit never consumed, or everything left behind by an
    /// aborted run). Call after [`RegisterFile::take_output`].
    pub(crate) fn recycle_remaining(&mut self, arena: &mut PolyArena) {
        for cell in &mut self.cells {
            let register = cell
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take();
            match register {
                Some(Register::Cipher(cipher)) => {
                    if let Ok(ciphertext) = Arc::try_unwrap(cipher) {
                        ciphertext.recycle_into(arena);
                    }
                }
                Some(Register::Plain(plain)) => {
                    if let Ok(value) = Arc::try_unwrap(plain) {
                        value.recycle_into(arena);
                    }
                }
                None => {}
            }
        }
    }
}

/// Publishes an instruction's result, then retires its operands: the worker
/// that completes a slot's final consumer recycles the dead register's
/// buffers into its own evaluator's arena (shared by both executors).
pub(crate) fn publish_and_reap(
    rf: &RegisterFile,
    si: &ScheduledInstr,
    register: Register,
    evaluator: &mut Evaluator,
) {
    rf.publish(si.dst, register);
    let mut operands = si.instr.operands();
    operands.sort_unstable();
    operands.dedup();
    for slot in operands {
        match rf.consume(slot) {
            // The register file's reference was the last one (this
            // instruction's own read clone died when `run_instr` returned),
            // unless a still-live ciphertext shares the value (e.g. an
            // `add_plain` output sharing its operand's payload) — then the
            // unwrap fails and the buffers stay alive with their referent.
            Some(Register::Cipher(cipher)) => {
                if let Ok(ciphertext) = Arc::try_unwrap(cipher) {
                    evaluator.recycle(ciphertext);
                }
            }
            // Dead plaintext registers return their encoded slot vector
            // (and cached payload splat) the same way.
            Some(Register::Plain(plain)) => {
                if let Ok(value) = Arc::try_unwrap(plain) {
                    value.recycle_into(evaluator.arena_mut());
                }
            }
            None => {}
        }
    }
}

/// Shared immutable resources a wavefront execution borrows.
#[derive(Debug, Clone, Copy)]
pub struct ExecResources<'a> {
    /// The FHE context (parameters, NTT tables, encoding).
    pub ctx: &'a FheContext,
    /// Relinearization keys for ct-ct multiplications.
    pub relin_keys: &'a RelinKeys,
    /// Galois keys covering every realized rotation step.
    pub galois_keys: &'a GaloisKeys,
    /// A fresh encryption of zero, the packing fallback for degenerate
    /// vector nodes with no ciphertext element. Only needed — and only
    /// worth paying an encryption for — when the schedule contains
    /// [`Instr::Pack`] instructions.
    pub zero: Option<&'a Ciphertext>,
    /// The arena pool worker evaluators draw their buffers from: checked
    /// out per worker per run and restored afterwards, so warm buffers
    /// survive across requests (the zero-allocation steady state).
    pub arenas: &'a ArenaPool,
    /// Optional span sink: when set, every worker records instruction-level
    /// spans (operation label, instruction index, queue wait, intra-op
    /// grant, steal provenance) into per-worker [`TraceBuffer`]s that flush
    /// here. `None` (the default) disables tracing at the cost of one null
    /// check per instruction — capture never perturbs results, only
    /// observes timings.
    pub trace: Option<&'a TraceSink>,
    /// Slot-lane layout of the execution (see [`crate::RequestCoalescer`]):
    /// `lanes` users' inputs share the ciphertexts at the given stride; a
    /// solo request is the `lanes = 1` case. Only [`Instr::Pack`]'s
    /// plaintext-element path consults it (plaintext values must be
    /// replicated into every live lane); every other instruction is
    /// slot-wise or cyclic and lane-oblivious.
    pub lanes: crate::LaneGeometry,
    /// Optional cancellation token checked at every instruction dispatch by
    /// both executors: once the token is cancelled (or its deadline passes)
    /// the request stops scheduling its remaining instructions mid-flight,
    /// recycles whatever registers it still holds, and returns
    /// [`FheError::Cancelled`] / [`FheError::DeadlineExceeded`]. `None` (the
    /// default) runs to completion.
    pub cancel: Option<&'a crate::CancellationToken>,
    /// Optional deterministic fault-injection plan (see
    /// [`FaultPlan`](crate::FaultPlan)): its dispatch hook runs before every
    /// instruction, counting dispatches and injecting planned panics,
    /// latency spikes and token cancellations. Injected (and genuine)
    /// instruction-level panics are isolated with `catch_unwind` and
    /// surface as [`FheError::WorkerPanic`]. `None` (the default) disables
    /// injection and the counter.
    pub faults: Option<&'a crate::FaultPlan>,
}

/// Which scheduling discipline produced an execution's timing breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Barrier-free dependency-counting dataflow execution
    /// ([`crate::DataflowExecutor`]): an instruction becomes runnable the
    /// instant its last operand is written. The default.
    #[default]
    Dataflow,
    /// Level-synchronized wavefront execution ([`WavefrontExecutor`]): a
    /// barrier separates topological levels, so every level waits for its
    /// slowest instruction.
    Leveled,
}

/// Wall-clock of one wavefront level.
#[derive(Debug, Clone)]
pub struct LevelTiming {
    /// Level index.
    pub level: usize,
    /// Instructions executed in the level.
    pub instructions: usize,
    /// Wall-clock time of the level (including the closing barrier).
    pub wall: Duration,
    /// Intra-op worker budget each evaluator had in this level: when the
    /// level is narrower than the worker pool, the spare threads split heavy
    /// payload loops inside single operations instead of idling at the
    /// barrier.
    pub intra_op_threads: usize,
}

/// Per-level and per-operation-kind breakdown of one execution.
#[derive(Debug, Clone)]
pub struct TimingBreakdown {
    /// The scheduling discipline that produced this breakdown.
    pub scheduler: SchedulerKind,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock per wavefront level, in level order. Empty for dataflow
    /// executions — there are no levels to time; see
    /// [`TimingBreakdown::wall`], [`TimingBreakdown::queue_waits`] and
    /// [`TimingBreakdown::reclaimed_slack`] instead.
    pub levels: Vec<LevelTiming>,
    /// Wall-clock of the whole scheduled execution (for leveled runs this
    /// equals the sum of the level walls).
    pub wall: Duration,
    /// Measured per-operation-kind latencies.
    pub per_op: CalibratedCostModel,
    /// Measured duration of every instruction, indexed like
    /// [`Schedule::instrs`] — the input of
    /// [`Schedule::makespan`](crate::Schedule::makespan) projections.
    pub instr_times: Vec<Duration>,
    /// Dataflow only: per-instruction queue wait (from the instant the
    /// instruction's last dependency was satisfied to the instant a worker
    /// started running it), indexed like [`Schedule::instrs`]. Empty for
    /// leveled runs.
    pub queue_waits: Vec<Duration>,
    /// Dataflow only: ready instructions taken from another worker's local
    /// deque.
    pub steals: u64,
    /// Dataflow only: the barrier slack reclaimed versus leveled execution —
    /// the leveled makespan projection minus the dataflow makespan
    /// projection at the same worker count, both computed from this run's
    /// measured [`TimingBreakdown::instr_times`]. Zero for leveled runs.
    pub reclaimed_slack: Duration,
    /// Operations whose payload work actually split across more than one
    /// intra-op worker. The per-op latencies in
    /// [`TimingBreakdown::per_op`] are measured around the split, so the
    /// calibrated cost model sees the effect of intra-op parallelism
    /// directly.
    pub intra_op_splits: u64,
}

impl TimingBreakdown {
    /// A breakdown with no instructions (plaintext-only programs).
    pub fn empty(threads: usize) -> Self {
        TimingBreakdown {
            scheduler: SchedulerKind::default(),
            threads,
            levels: Vec::new(),
            wall: Duration::ZERO,
            per_op: CalibratedCostModel::new(),
            instr_times: Vec::new(),
            queue_waits: Vec::new(),
            steals: 0,
            reclaimed_slack: Duration::ZERO,
            intra_op_splits: 0,
        }
    }

    /// Total wall-clock of the scheduled execution: the sum of the level
    /// walls for leveled runs, the measured execution span for (level-less)
    /// dataflow runs.
    pub fn total_wall(&self) -> Duration {
        if self.levels.is_empty() {
            self.wall
        } else {
            self.levels.iter().map(|l| l.wall).sum()
        }
    }

    /// A queue-wait percentile (`0.0..=1.0`) across this run's instructions,
    /// `None` for leveled runs (no queue waits are recorded).
    pub fn queue_wait_percentile(&self, pct: f64) -> Option<Duration> {
        percentile(&mut self.queue_waits.clone(), pct)
    }
}

/// The `pct`-percentile (`0.0..=1.0`) of an unsorted sample set, `None`
/// when empty. Sorts in place.
pub(crate) fn percentile(samples: &mut [Duration], pct: f64) -> Option<Duration> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64 - 1.0) * pct.clamp(0.0, 1.0)).round() as usize;
    Some(samples[rank.min(samples.len() - 1)])
}

/// The result of one wavefront execution.
#[derive(Debug, Clone)]
pub struct WavefrontOutcome {
    /// The output register of the circuit.
    pub output: Register,
    /// Merged homomorphic-operation counters of all workers.
    pub stats: EvaluatorStats,
    /// Per-level / per-op timing breakdown.
    pub timing: TimingBreakdown,
}

/// Executes instruction schedules on a pool of worker threads.
#[derive(Debug, Clone, Copy)]
pub struct WavefrontExecutor {
    threads: usize,
}

impl WavefrontExecutor {
    /// Creates an executor with the given worker-thread count (clamped to at
    /// least one).
    pub fn new(threads: usize) -> Self {
        WavefrontExecutor {
            threads: threads.max(1),
        }
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a schedule against a register file whose pre-bound slots are
    /// filled (`initial[slot] = Some(..)` for every client-side value).
    ///
    /// # Errors
    ///
    /// Returns the first [`FheError`] any worker hit (typically a missing
    /// Galois key); remaining work is abandoned.
    ///
    /// # Panics
    ///
    /// Panics if the schedule references a slot that is neither pre-bound nor
    /// produced by an earlier level — [`Schedule::lower`] guarantees this
    /// never holds for well-formed inputs. The check runs up front on the
    /// calling thread: a panic inside a scoped worker would strand the other
    /// workers at the level barrier, so misuse must never reach the pool.
    pub fn execute(
        &self,
        schedule: &Schedule,
        initial: Vec<Option<Register>>,
        res: &ExecResources<'_>,
    ) -> Result<WavefrontOutcome, FheError> {
        let mut rf = RegisterFile::new(initial, schedule);
        validate_operands(schedule, &rf);

        // More workers than the widest level can never help.
        let workers = self.threads.min(schedule.max_width()).max(1);
        let result = if workers == 1 {
            self.execute_single(schedule, &rf, res)
        } else {
            self.execute_parallel(schedule, &rf, res, workers)
        };
        // On success, take the output before sweeping the file; on failure
        // (error, cancellation, injected fault) leave it in place so the
        // sweep reclaims it too. Either way every register still held by the
        // file goes back to the pool — an aborted request must not leak its
        // buffers.
        let output = result.as_ref().ok().map(|_| {
            rf.take_output()
                .expect("output register is pre-bound or produced by the schedule")
        });
        let mut arena = res.arenas.checkout();
        rf.recycle_remaining(&mut arena);
        res.arenas.restore(arena);
        let (stats, timing) = result?;
        Ok(WavefrontOutcome {
            output: output.expect("output taken on the success path"),
            stats,
            timing,
        })
    }

    fn execute_single(
        &self,
        schedule: &Schedule,
        rf: &RegisterFile,
        res: &ExecResources<'_>,
    ) -> Result<(EvaluatorStats, TimingBreakdown), FheError> {
        let mut evaluator = Evaluator::with_arena(res.ctx, res.arenas.checkout());
        let mut calibration = CalibratedCostModel::new();
        let mut tracer = res
            .trace
            .map(|sink| TraceBuffer::new(sink, "wavefront worker 0"));
        let mut instr_times = vec![Duration::ZERO; schedule.instrs().len()];
        let mut levels = Vec::with_capacity(schedule.level_count());
        let mut failure: Option<FheError> = None;
        'levels: for (level, range) in schedule.levels().iter().enumerate() {
            let width = range.end - range.start;
            // A single instruction stream still uses the full requested
            // thread budget *inside* heavy ops: narrow levels are exactly
            // where intra-op chunking replaces idle wavefront workers.
            let intra_op_threads = intra_op_budget(self.threads, width);
            evaluator.set_intra_op_threads(intra_op_threads);
            let started = Instant::now();
            for (offset, si) in schedule.instrs()[range.clone()].iter().enumerate() {
                let instr_started = Instant::now();
                match dispatch_instr(si, rf, &mut evaluator, res, &mut calibration) {
                    Ok(register) => {
                        let elapsed = instr_started.elapsed();
                        instr_times[range.start + offset] = elapsed;
                        if let Some(tracer) = tracer.as_mut() {
                            tracer.record(
                                si.instr.label(),
                                "instr",
                                instr_started,
                                elapsed,
                                Some(range.start + offset),
                                None,
                                Some(intra_op_threads),
                                None,
                            );
                        }
                        publish_and_reap(rf, si, register, &mut evaluator);
                    }
                    Err(e) => {
                        failure = Some(e);
                        break 'levels;
                    }
                }
            }
            levels.push(LevelTiming {
                level,
                instructions: width,
                wall: started.elapsed(),
                intra_op_threads,
            });
        }
        res.arenas.restore(evaluator.take_arena());
        if let Some(error) = failure {
            return Err(error);
        }
        let timing = TimingBreakdown {
            scheduler: SchedulerKind::Leveled,
            threads: 1,
            wall: levels.iter().map(|l| l.wall).sum(),
            levels,
            per_op: calibration,
            instr_times,
            queue_waits: Vec::new(),
            steals: 0,
            reclaimed_slack: Duration::ZERO,
            intra_op_splits: evaluator.intra_op_splits(),
        };
        Ok((evaluator.stats(), timing))
    }

    fn execute_parallel(
        &self,
        schedule: &Schedule,
        rf: &RegisterFile,
        res: &ExecResources<'_>,
        workers: usize,
    ) -> Result<(EvaluatorStats, TimingBreakdown), FheError> {
        let cursors: Vec<AtomicUsize> = schedule
            .levels()
            .iter()
            .map(|_| AtomicUsize::new(0))
            .collect();
        let abort = AtomicBool::new(false);
        let failure: Mutex<Option<FheError>> = Mutex::new(None);
        // Workers plus the coordinating thread, which only timestamps levels.
        let barrier = Barrier::new(workers + 1);
        let merged: Mutex<(EvaluatorStats, CalibratedCostModel, Vec<Duration>, u64)> =
            Mutex::new((
                EvaluatorStats::default(),
                CalibratedCostModel::new(),
                vec![Duration::ZERO; schedule.instrs().len()],
                0,
            ));
        let requested_threads = self.threads;

        let mut levels = Vec::with_capacity(schedule.level_count());
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let cursors = &cursors;
                let abort = &abort;
                let failure = &failure;
                let barrier = &barrier;
                let merged = &merged;
                scope.spawn(move || {
                    let mut evaluator = Evaluator::with_arena(res.ctx, res.arenas.checkout());
                    let mut calibration = CalibratedCostModel::new();
                    let mut tracer = res
                        .trace
                        .map(|sink| TraceBuffer::new(sink, format!("wavefront worker {worker}")));
                    let mut timed: Vec<(usize, Duration)> = Vec::new();
                    for (level, range) in schedule.levels().iter().enumerate() {
                        let len = range.end - range.start;
                        // Levels narrower than the pool leave workers idle at
                        // the barrier; the busy workers spend the spare
                        // budget chunking inside their heavy ops instead.
                        let grant = intra_op_budget(requested_threads, len);
                        evaluator.set_intra_op_threads(grant);
                        while !abort.load(Ordering::Relaxed) {
                            let index = cursors[level].fetch_add(1, Ordering::Relaxed);
                            if index >= len {
                                break;
                            }
                            let si = &schedule.instrs()[range.start + index];
                            let instr_started = Instant::now();
                            match dispatch_instr(si, rf, &mut evaluator, res, &mut calibration) {
                                Ok(register) => {
                                    let elapsed = instr_started.elapsed();
                                    timed.push((range.start + index, elapsed));
                                    if let Some(tracer) = tracer.as_mut() {
                                        tracer.record(
                                            si.instr.label(),
                                            "instr",
                                            instr_started,
                                            elapsed,
                                            Some(range.start + index),
                                            None,
                                            Some(grant),
                                            None,
                                        );
                                    }
                                    publish_and_reap(rf, si, register, &mut evaluator);
                                }
                                Err(e) => {
                                    let mut slot = failure.lock().unwrap();
                                    slot.get_or_insert(e);
                                    abort.store(true, Ordering::Relaxed);
                                }
                            }
                        }
                        barrier.wait();
                    }
                    res.arenas.restore(evaluator.take_arena());
                    let mut m = merged.lock().unwrap();
                    m.0.merge(&evaluator.stats());
                    m.1.merge(&calibration);
                    for (index, duration) in timed {
                        m.2[index] = duration;
                    }
                    m.3 += evaluator.intra_op_splits();
                });
            }

            let mut previous = Instant::now();
            for (level, range) in schedule.levels().iter().enumerate() {
                barrier.wait();
                let now = Instant::now();
                let width = range.end - range.start;
                levels.push(LevelTiming {
                    level,
                    instructions: width,
                    wall: now - previous,
                    intra_op_threads: intra_op_budget(requested_threads, width),
                });
                previous = now;
            }
        });

        if let Some(error) = failure.into_inner().unwrap() {
            return Err(error);
        }
        let (stats, calibration, instr_times, intra_op_splits) = merged.into_inner().unwrap();
        Ok((
            stats,
            TimingBreakdown {
                scheduler: SchedulerKind::Leveled,
                threads: workers,
                wall: levels.iter().map(|l| l.wall).sum(),
                levels,
                per_op: calibration,
                instr_times,
                queue_waits: Vec::new(),
                steals: 0,
                reclaimed_slack: Duration::ZERO,
                intra_op_splits,
            },
        ))
    }
}

/// The intra-op worker budget of a level: spare threads per busy worker
/// when the level is narrower than the requested pool (`1` when the level
/// is at least as wide as the pool — instruction-level parallelism already
/// covers the cores).
fn intra_op_budget(requested_threads: usize, level_width: usize) -> usize {
    (requested_threads / level_width.max(1)).max(1)
}

/// Panics (on the calling thread, before any worker spawns) if an
/// instruction's operand is neither pre-bound nor the destination of an
/// earlier-level instruction.
pub(crate) fn validate_operands(schedule: &Schedule, rf: &RegisterFile) {
    let mut produced_level = vec![None; schedule.slot_count()];
    for si in schedule.instrs() {
        produced_level[si.dst] = Some(si.level);
    }
    for si in schedule.instrs() {
        for operand in si.instr.operands() {
            let available = match produced_level[operand] {
                Some(level) => level < si.level,
                None => rf.is_bound(operand),
            };
            assert!(
                available,
                "slot {operand} (operand of the level-{} instruction writing slot {}) is \
                 neither pre-bound nor produced at an earlier level",
                si.level, si.dst
            );
        }
    }
}

/// Renders a panic payload as text, best effort.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The instruction-dispatch wrapper both executors call instead of
/// [`run_instr`] directly: checks the cancellation token (so a cancelled or
/// deadline-expired request stops scheduling mid-flight), runs the fault
/// plan's dispatch hook, and isolates panics — injected or genuine — behind
/// `catch_unwind`, converting them into [`FheError::WorkerPanic`] so they
/// flow through the executors' ordinary error/abort machinery (which wakes
/// peer workers and restores arenas) instead of stranding scoped threads.
pub(crate) fn dispatch_instr(
    si: &ScheduledInstr,
    rf: &RegisterFile,
    evaluator: &mut Evaluator,
    res: &ExecResources<'_>,
    calibration: &mut CalibratedCostModel,
) -> Result<Register, FheError> {
    if let Some(token) = res.cancel {
        token.check()?;
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(plan) = res.faults {
            plan.before_instr();
        }
        run_instr(si, rf, evaluator, res, calibration)
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => Err(FheError::WorkerPanic {
            message: panic_message(payload),
        }),
    }
}

/// Executes one instruction against the register file (shared by the
/// wavefront and dataflow executors — both guarantee operands are written
/// before an instruction runs).
pub(crate) fn run_instr(
    si: &ScheduledInstr,
    rf: &RegisterFile,
    evaluator: &mut Evaluator,
    res: &ExecResources<'_>,
    calibration: &mut CalibratedCostModel,
) -> Result<Register, FheError> {
    let result = match &si.instr {
        Instr::Bin { op, a, b } => match (rf.read(*a), rf.read(*b)) {
            (Register::Cipher(x), Register::Cipher(y)) => {
                let started = Instant::now();
                let out = match op {
                    BinOp::Add => evaluator.add(&x, &y),
                    BinOp::Sub => evaluator.sub(&x, &y),
                    BinOp::Mul => evaluator.multiply(&x, &y, res.relin_keys),
                };
                calibration.record(ct_ct_kind(*op), started.elapsed());
                Register::cipher(out)
            }
            (Register::Cipher(x), Register::Plain(p)) => {
                let plain = p.encoded_in(res.ctx, evaluator.arena_mut())?;
                let started = Instant::now();
                let out = match op {
                    BinOp::Add => evaluator.add_plain(&x, plain),
                    BinOp::Sub => evaluator.sub_plain(&x, plain),
                    BinOp::Mul => evaluator.multiply_plain(&x, plain),
                };
                calibration.record(ct_pt_kind(*op), started.elapsed());
                Register::cipher(out)
            }
            (Register::Plain(p), Register::Cipher(y)) => {
                let plain = p.encoded_in(res.ctx, evaluator.arena_mut())?;
                let started = Instant::now();
                let out = match op {
                    BinOp::Add => evaluator.add_plain(&y, plain),
                    BinOp::Sub => {
                        // p - y = -(y - p), negated in place.
                        let mut diff = evaluator.sub_plain(&y, plain);
                        evaluator.neg_assign(&mut diff);
                        diff
                    }
                    BinOp::Mul => evaluator.multiply_plain(&y, plain),
                };
                calibration.record(ct_pt_kind(*op), started.elapsed());
                Register::cipher(out)
            }
            (Register::Plain(_), Register::Plain(_)) => {
                unreachable!("plaintext-only nodes are evaluated on the client")
            }
        },
        Instr::Neg { a } => match rf.read(*a) {
            Register::Cipher(x) => {
                let started = Instant::now();
                let out = evaluator.negate(&x);
                calibration.record(OpKind::Negation, started.elapsed());
                Register::cipher(out)
            }
            Register::Plain(_) => unreachable!("plaintext-only nodes are evaluated on the client"),
        },
        Instr::Rot { a, parts } => match rf.read(*a) {
            Register::Cipher(x) => {
                // Steady-state rotation chain: each step's output feeds the
                // next and the superseded intermediate's buffers return to
                // the arena immediately.
                let mut current: Option<Ciphertext> = None;
                for &part in parts {
                    let source = current.as_ref().unwrap_or(&x);
                    let started = Instant::now();
                    let next = evaluator.rotate(source, part, res.galois_keys)?;
                    calibration.record(OpKind::Rotation, started.elapsed());
                    if let Some(old) = current.replace(next) {
                        evaluator.recycle(old);
                    }
                }
                let out = match current {
                    Some(rotated) => rotated,
                    // An empty realization is the identity rotation.
                    None => evaluator.clone_ciphertext(&x),
                };
                Register::cipher(out)
            }
            Register::Plain(_) => unreachable!("plaintext-only nodes are evaluated on the client"),
        },
        Instr::Pack { elems, folds_plain } => {
            let started = Instant::now();
            // Run-time packing: element i is moved to slot i with a
            // right-rotation and accumulated with in-place additions.
            let mut acc: Option<Ciphertext> = None;
            // The plaintext accumulator spans every live lane: each user's
            // plaintext element is read at its lane base and placed at its
            // lane's copy of the slot. (Ciphertext elements need no such
            // care — the rotation below shifts every lane's value
            // uniformly.)
            let geometry = res.lanes;
            let plain_width = geometry.base(geometry.lanes.saturating_sub(1)) + elems.len();
            let mut plain_slots = vec![0i64; plain_width];
            for (slot, &elem) in elems.iter().enumerate() {
                match rf.read(elem) {
                    Register::Plain(values) => {
                        for lane in 0..geometry.lanes {
                            let base = geometry.base(lane);
                            plain_slots[base + slot] =
                                values.values().get(base).copied().unwrap_or(0);
                        }
                    }
                    Register::Cipher(ct) => {
                        let placed = if slot == 0 {
                            evaluator.clone_ciphertext(&ct)
                        } else {
                            evaluator.rotate(&ct, -(slot as i64), res.galois_keys)?
                        };
                        match &mut acc {
                            None => acc = Some(placed),
                            Some(prev) => {
                                evaluator.add_assign(prev, &placed);
                                evaluator.recycle(placed);
                            }
                        }
                    }
                }
            }
            // A ciphertext-kind vector always has at least one ciphertext
            // element, but keep a safe fallback.
            let mut packed = match acc {
                Some(ct) => ct,
                None => res
                    .zero
                    .expect("schedules with Pack instructions provide a zero ciphertext")
                    .clone(),
            };
            // Whether the plaintext addition is issued is the schedule's
            // decision, never the request's: elements that all happen to
            // read zero cost the same operations as any other values.
            if *folds_plain {
                // The packing plaintext is transient — encoded from the
                // arena, added, and recycled within this one instruction.
                let plain = res.ctx.encode_in(&plain_slots, evaluator.arena_mut())?;
                let sum = evaluator.add_plain(&packed, &plain);
                evaluator.recycle(packed);
                evaluator.recycle_plain(plain);
                packed = sum;
            }
            calibration.record(OpKind::Pack, started.elapsed());
            Register::cipher(packed)
        }
    };
    Ok(result)
}
