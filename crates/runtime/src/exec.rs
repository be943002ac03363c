//! The executor: one worker loop that encrypts a run's inputs, then runs a
//! schedule's instructions as the scheduler state releases them.
//!
//! [`Executor::execute`] owns the only worker loop of the crate. A run has
//! two phases in that one loop. First the workers encrypt the run's input
//! registers ([`RunInputs::encryptions`]): each claims entries off one
//! atomic counter and encrypts entry `j` with an encryptor positioned at
//! encryption `first_encryption + j` of the stream ([`Encryptor::seek`]), so
//! the payload bits are the sequential ones whatever worker drew them. No
//! instruction is released before the last input is published. Then the
//! workers run instructions. Which instruction runs next is not the loop's
//! business: it pops from the scheduler state (`dataflow.rs`), whose
//! [`SchedulerKind`] release rule decides when a finished instruction makes
//! others runnable — dependency counts reaching zero, or a whole level
//! retiring. The calling thread is worker 0 and the others are parked
//! helpers of `chehab_fhe::pool`, never a thread spawned for the request,
//! so a pool of one is the same loop with nobody to wake.
//!
//! Every worker owns a private [`Evaluator`] (the shared [`FheContext`] is
//! immutable), whose operation counts are merged when the worker exits, so
//! the report carries exact counts with no synchronization on the hot path.
//! An instruction is timed once, by the worker loop around its dispatch;
//! the span lands in the report's [`TimingBreakdown`], and nothing below
//! the dispatch reads a clock.
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

use crate::dataflow::{SchedState, SchedulerKind, TimingBreakdown};
use crate::schedule::{Instr, Schedule, ScheduledInstr, Slot};
use chehab_fhe::{
    ArenaPool, Ciphertext, Encryptor, Evaluator, EvaluatorStats, FheContext, FheError, GaloisKeys,
    Plaintext, PolyArena, PublicKey, RelinKeys,
};
use chehab_ir::BinOp;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A clear (client-side) value bound into the register file, with a
/// per-request cache of its encoded [`Plaintext`].
///
/// Every instruction that consumes the register shares one encoding (and,
/// through the plaintext's own splat cache, one payload NTT) instead of
/// re-encoding per use — safe across executor workers because the cache is
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

    /// The encoded plaintext, computed on first use and shared afterwards,
    /// with the slot vector drawn from `arena`, so a warm request's
    /// plaintext encodes are served by the pool and recycled when the
    /// register dies.
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
        lock(&self.cells[slot])
            .clone()
            .expect("operands are published before their consumers run")
    }

    /// Publishes an input encryption or an instruction's result into its
    /// destination slot.
    pub(crate) fn publish(&self, slot: Slot, register: Register) {
        *lock(&self.cells[slot]) = Some(register);
    }

    /// Notes that one consumer of `slot` completed. The call that retires
    /// the final consumer gets the dead register back for buffer recycling
    /// (never for the output slot, which outlives the run).
    pub(crate) fn consume(&self, slot: Slot) -> Option<Register> {
        if self.remaining_uses[slot].fetch_sub(1, Ordering::AcqRel) == 1 && slot != self.output {
            lock(&self.cells[slot]).take()
        } else {
            None
        }
    }

    /// Takes the output register after the run completed.
    pub(crate) fn take_output(&mut self) -> Option<Register> {
        self.cells[self.output]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }

    /// Recycles every register still in the file into `arena` (pre-bound
    /// inputs the circuit never consumed, or everything left behind by an
    /// aborted run). Call after [`RegisterFile::take_output`].
    pub(crate) fn recycle_remaining(&mut self, arena: &mut PolyArena) {
        for cell in &mut self.cells {
            let register = cell
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner)
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
/// buffers into its own evaluator's arena.
fn publish_and_reap(
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

/// What one run starts from, as the client prepared it: the registers bound
/// before the run, and the ciphertext registers whose encryption is the
/// run's first phase.
#[derive(Debug, Default)]
pub struct RunInputs {
    /// One entry per schedule slot: `Some` for every value bound before the
    /// run (the clear values of the plaintext subcircuit, and any
    /// ciphertext the caller encrypted itself).
    pub registers: Vec<Option<Register>>,
    /// The ciphertext registers the run's workers encrypt before any
    /// instruction is released: destination slot and slot values.
    pub encryptions: Vec<(Slot, Vec<i64>)>,
    /// Entry `j` of `encryptions` is encryption number `first_encryption +
    /// j` of the public key's stream ([`Encryptor::seek`]): a caller that
    /// gives every run a disjoint range never reuses randomness.
    pub first_encryption: u64,
    /// Test hook: when set, every input ciphertext is also pushed here with
    /// its entry index (which keeps its buffers from being recycled).
    #[doc(hidden)]
    pub retain: Option<Arc<Retained>>,
}

/// Input registers by entry index, kept by [`RunInputs::retain`].
type Retained = Mutex<Vec<(usize, Register)>>;

/// The input-encryption phase of one run, shared by its workers.
struct InputPhase<'a> {
    entries: &'a [(Slot, Vec<i64>)],
    first: u64,
    retain: Option<&'a Retained>,
    /// The next entry a worker claims. `Relaxed`: a claim publishes
    /// nothing (the entries are read-only; a ciphertext reaches its readers
    /// through the register file's mutex).
    next: AtomicUsize,
}

impl<'a> InputPhase<'a> {
    fn new(inputs: &'a RunInputs) -> Self {
        InputPhase {
            entries: &inputs.encryptions,
            first: inputs.first_encryption,
            retain: inputs.retain.as_deref(),
            next: AtomicUsize::new(0),
        }
    }

    /// Claims entries until none is left, encrypts each into `arena` with an
    /// encryptor positioned at its stream index, and hands each to
    /// `publish`, which says whether to go on. A panic is caught and handed
    /// on as [`FheError::WorkerPanic`], as an instruction's is. Returns the
    /// arena, to evaluate with.
    fn encrypt(
        &self,
        res: &ExecResources<'_>,
        arena: PolyArena,
        mut publish: impl FnMut(Result<(Slot, Register), FheError>) -> bool,
    ) -> PolyArena {
        let claim = || self.next.fetch_add(1, Ordering::Relaxed);
        let mut entry = claim();
        if entry >= self.entries.len() {
            return arena;
        }
        let mut encryptor = Encryptor::new(res.ctx, res.public_key);
        encryptor.set_arena(arena);
        while let Some((slot, values)) = self.entries.get(entry) {
            encryptor.seek(self.first + entry as u64);
            let encrypted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                encryptor.encrypt_values(values)
            }))
            .unwrap_or_else(|payload| {
                Err(FheError::WorkerPanic {
                    message: panic_message(payload),
                })
            })
            .map(Register::cipher);
            if let (Some(retain), Ok(register)) = (self.retain, &encrypted) {
                lock(retain).push((entry, register.clone()));
            }
            if !publish(encrypted.map(|register| (*slot, register))) {
                break;
            }
            entry = claim();
        }
        encryptor.take_arena()
    }
}

/// Shared immutable resources a scheduled execution borrows.
#[derive(Debug, Clone, Copy)]
pub struct ExecResources<'a> {
    /// The FHE context (parameters, NTT tables, encoding).
    pub ctx: &'a FheContext,
    /// The public key the run's input encryptions are drawn under.
    pub public_key: &'a PublicKey,
    /// Relinearization keys for ct-ct multiplications.
    pub relin_keys: &'a RelinKeys,
    /// Galois keys covering every realized rotation step.
    pub galois_keys: &'a GaloisKeys,
    /// The arena pool worker evaluators draw their buffers from: checked
    /// out per worker per run and restored afterwards, so warm buffers
    /// survive across requests (the zero-allocation steady state).
    pub arenas: &'a ArenaPool,
    /// Slot-lane layout of the execution ([`crate::LaneGeometry`], as
    /// `chehab_core::FheSession::run_batched` places users): `lanes` users'
    /// inputs share the ciphertexts, user `k` based at
    /// [`LaneGeometry::base`](crate::LaneGeometry::base)`(k)`; a solo
    /// request is the `lanes = 1` case. Only [`Instr::Pack`]'s
    /// plaintext-element path consults it (plaintext values must be
    /// replicated into every live lane); every other instruction is
    /// slot-wise or cyclic and lane-oblivious.
    pub lanes: crate::LaneGeometry,
    /// Optional cancellation token checked at every instruction dispatch:
    /// once the token is cancelled (or its deadline passes) the request
    /// stops scheduling its remaining instructions mid-flight, recycles
    /// whatever registers it still holds, and returns
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

/// The result of one scheduled execution.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The output register of the circuit.
    pub output: Register,
    /// Merged homomorphic-operation counters of all workers.
    pub stats: EvaluatorStats,
    /// Per-instruction timing breakdown: where, when and for how long every
    /// instruction ran.
    pub timing: TimingBreakdown,
}

/// Executes instruction schedules on a pool of worker threads — the one
/// worker loop of the crate, under either [`SchedulerKind`] release rule.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// Creates an executor with the given worker-thread count (clamped to at
    /// least one).
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// Runs one request's server side in two phases on one pool. First the
    /// workers encrypt `inputs.encryptions` into their registers; then,
    /// from the barrier where the last of them is published, they run the
    /// schedule, releasing instructions under `scheduler`. Under
    /// [`SchedulerKind::Dataflow`] a pool larger than one pops ready
    /// instructions in descending [`Schedule::priorities`] order.
    /// [`SchedulerKind::Leveled`] never reads them, and a pool of one pops
    /// in schedule order: no order changes its wall.
    ///
    /// The pool is `threads` clamped to what the rule can use (the widest
    /// level under leveled, the instruction count under dataflow). The
    /// calling thread is worker 0, so a pool of one hands nothing to a
    /// helper, pays no wake-up and encrypts the inputs in stream order.
    /// Whatever the pool, every input's payload is the one its stream index
    /// draws, and the report's `timing.wall` and `timing.starts` are
    /// measured from the barrier, `timing.barrier`.
    ///
    /// # Errors
    ///
    /// Returns the first [`FheError`] any worker hit (an input wider than
    /// the slot count, a missing Galois key, a cancelled token, an isolated
    /// panic); instructions already in flight complete, the rest never
    /// start, and every register the run still holds goes back to the arena
    /// pool.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.registers` does not cover the schedule's slots, if
    /// the schedule references a slot that is neither pre-bound, encrypted
    /// nor produced at an earlier level. Both checks run up front on the
    /// calling thread: misuse must never reach the pool.
    pub fn execute(
        &self,
        schedule: &Schedule,
        mut inputs: RunInputs,
        res: &ExecResources<'_>,
        scheduler: SchedulerKind,
    ) -> Result<ExecOutcome, FheError> {
        let rf = register_file(schedule, &mut inputs);
        let useful = match scheduler {
            SchedulerKind::Leveled => schedule.max_width(),
            SchedulerKind::Dataflow => schedule.instrs().len(),
        };
        let workers = self.threads.min(useful).max(1);
        let encryptions = inputs.encryptions.len();
        let run = Run {
            schedule,
            rf: &rf,
            res,
            inputs: InputPhase::new(&inputs),
            state: Mutex::new(SchedState::new(schedule, scheduler, workers, encryptions)),
            work_available: Condvar::new(),
        };
        chehab_fhe::pool::broadcast(workers - 1, &|worker| run.work(worker));
        let mut state = run
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        state.timing.wall = state.timing.barrier.elapsed();
        let result = match state.failure {
            Some(error) => Err(error),
            None => Ok((state.stats, state.timing)),
        };
        finish(rf, res, result)
    }
}

/// What the workers of one [`Executor::execute`] call share.
struct Run<'a> {
    schedule: &'a Schedule,
    rf: &'a RegisterFile,
    res: &'a ExecResources<'a>,
    inputs: InputPhase<'a>,
    state: Mutex<SchedState<'a>>,
    work_available: Condvar,
}

impl Run<'_> {
    /// The worker loop: encrypt inputs until none is left to claim, then
    /// pop → dispatch → span → publish and reap → retire (which records the
    /// instruction and releases what the rule allows) → pop again, until
    /// the schedule has drained or a worker failed. A worker out of inputs
    /// before the barrier sleeps in its first pop. The scheduler lock is held from one instruction's
    /// retirement to the next one's pop and never while an encryption or an
    /// instruction runs.
    fn work(&self, worker: usize) {
        let res = self.res;
        let arena = self
            .inputs
            .encrypt(res, res.arenas.checkout(), |encrypted| {
                self.publish_input(encrypted)
            });
        let mut evaluator = Evaluator::with_arena(res.ctx, arena);
        // A lock a peer died holding is recovered, not re-panicked on: that
        // peer's panic already ends the run when the pool joins it, and a
        // second panic here would only bury it.
        let mut st = lock(&self.state);
        loop {
            let popped = loop {
                if st.failure.is_some() || st.remaining == 0 {
                    break None;
                }
                if let Some(popped) = st.pop(worker) {
                    break Some(popped);
                }
                st.sleepers += 1;
                st = self
                    .work_available
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                st.sleepers -= 1;
            };
            let Some(popped) = popped else {
                break;
            };
            drop(st);

            let si = &self.schedule.instrs()[popped.0.index];
            let started = Instant::now();
            let result = dispatch_instr(si, self.rf, &mut evaluator, res);
            let span = started.elapsed();
            let result =
                result.map(|register| publish_and_reap(self.rf, si, register, &mut evaluator));

            st = lock(&self.state);
            match result {
                Ok(()) => st.retire(worker, popped, started, span),
                Err(error) => st.fail(error),
            }
            // Every retirement can end the run or expose poppable work, and
            // so does an abort; waking every sleeper can never lose a
            // wakeup, and a futex call nobody waits for is skipped.
            if st.sleepers > 0 {
                self.work_available.notify_all();
            }
        }
        st.stats.merge(&evaluator.stats());
        drop(st);
        res.arenas.restore(evaluator.take_arena());
    }

    /// Publishes one input encryption — the last one opens the barrier — or
    /// aborts the run with its error; says whether to encrypt on.
    fn publish_input(&self, encrypted: Result<(Slot, Register), FheError>) -> bool {
        let st = match encrypted {
            Ok((slot, register)) => {
                self.rf.publish(slot, register);
                let mut st = lock(&self.state);
                st.input_published();
                st
            }
            Err(error) => {
                let mut st = lock(&self.state);
                st.fail(error);
                st
            }
        };
        // As after a retirement: a sleeper may be waiting for the barrier
        // or for the abort.
        if st.sleepers > 0 {
            self.work_available.notify_all();
        }
        st.failure.is_none()
    }
}

/// The in-order reference walk: every input encryption, then every
/// instruction, on the calling thread in stream and schedule order, with the
/// same encryption phase, dispatch, reaping and sweep as
/// [`Executor::execute`] and no scheduler at all — the oracle the
/// equivalence suites compare every (rule × thread count) cell against.
#[doc(hidden)]
pub fn execute_in_order(
    schedule: &Schedule,
    mut inputs: RunInputs,
    res: &ExecResources<'_>,
) -> Result<ExecOutcome, FheError> {
    let rf = register_file(schedule, &mut inputs);
    let mut failure = None;
    let arena = InputPhase::new(&inputs).encrypt(res, res.arenas.checkout(), |encrypted| {
        match encrypted {
            Ok((slot, register)) => rf.publish(slot, register),
            Err(error) => failure = Some(error),
        }
        failure.is_none()
    });
    let mut evaluator = Evaluator::with_arena(res.ctx, arena);
    let instrs = schedule.instrs();
    let mut timing = TimingBreakdown::new(SchedulerKind::default(), instrs.len(), Instant::now());
    for (index, si) in instrs.iter().enumerate() {
        if failure.is_some() {
            break;
        }
        let started = Instant::now();
        match dispatch_instr(si, &rf, &mut evaluator, res) {
            Ok(register) => {
                let span = started.elapsed();
                timing.record(index, 0, started, span, Duration::ZERO, None);
                publish_and_reap(&rf, si, register, &mut evaluator);
            }
            Err(error) => failure = Some(error),
        }
    }
    timing.wall = timing.barrier.elapsed();
    let stats = evaluator.stats();
    res.arenas.restore(evaluator.take_arena());
    finish(rf, res, failure.map_or(Ok((stats, timing)), Err))
}

/// The end of every run: on success the output leaves the file first; on
/// failure (error, cancellation, injected fault) it stays, so the sweep
/// reclaims it too. Either way every register the file still holds goes
/// back to the pool — an aborted request must not leak its buffers.
fn finish(
    mut rf: RegisterFile,
    res: &ExecResources<'_>,
    result: Result<(EvaluatorStats, TimingBreakdown), FheError>,
) -> Result<ExecOutcome, FheError> {
    let outcome = result.map(|(stats, timing)| ExecOutcome {
        output: rf
            .take_output()
            .expect("output register is pre-bound or produced by the schedule"),
        stats,
        timing,
    });
    let mut arena = res.arenas.checkout();
    rf.recycle_remaining(&mut arena);
    res.arenas.restore(arena);
    outcome
}

/// Locks `mutex`, recovering the guard if a thread panicked holding it: a
/// panic is isolated where it happened (and reported there), never
/// re-raised by every later locker. For state whose every update leaves it
/// usable — a register cell, the scheduler state, a statistics sum, a
/// metrics table, a trace's spans, a fault plan's pending cancellations.
/// The crate locks every mutex through it.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Moves a run's pre-bound registers into its register file, after
/// checking (on the calling thread, before any worker starts) that every
/// instruction's operand is pre-bound, encrypted in the input phase or the
/// destination of an earlier-level instruction. Panics otherwise.
fn register_file(schedule: &Schedule, inputs: &mut RunInputs) -> RegisterFile {
    let registers = std::mem::take(&mut inputs.registers);
    let mut bound: Vec<bool> = registers.iter().map(Option::is_some).collect();
    let rf = RegisterFile::new(registers, schedule);
    for &(slot, _) in &inputs.encryptions {
        bound[slot] = true;
    }
    let mut produced_level = vec![None; schedule.slot_count()];
    for si in schedule.instrs() {
        produced_level[si.dst] = Some(si.level);
    }
    for si in schedule.instrs() {
        for operand in si.instr.operands() {
            let available = match produced_level[operand] {
                Some(level) => level < si.level,
                None => bound[operand],
            };
            assert!(
                available,
                "slot {operand} (operand of the level-{} instruction writing slot {}) is \
                 neither pre-bound nor produced at an earlier level",
                si.level, si.dst
            );
        }
    }
    rf
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

/// The instruction-dispatch wrapper the worker loop and the reference walk
/// call instead of [`run_instr`] directly: checks the cancellation token (so a cancelled or
/// deadline-expired request stops scheduling mid-flight), runs the fault
/// plan's dispatch hook, and isolates panics — injected or genuine — behind
/// `catch_unwind`, converting them into [`FheError::WorkerPanic`] so they
/// flow through the ordinary error/abort machinery (which wakes peer
/// workers and restores arenas) instead of stranding helper threads.
fn dispatch_instr(
    si: &ScheduledInstr,
    rf: &RegisterFile,
    evaluator: &mut Evaluator,
    res: &ExecResources<'_>,
) -> Result<Register, FheError> {
    if let Some(token) = res.cancel {
        token.check()?;
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(plan) = res.faults {
            plan.before_instr();
        }
        run_instr(si, rf, evaluator, res)
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => Err(FheError::WorkerPanic {
            message: panic_message(payload),
        }),
    }
}

/// Executes one instruction against the register file (every release rule
/// guarantees operands are written before an instruction runs).
fn run_instr(
    si: &ScheduledInstr,
    rf: &RegisterFile,
    evaluator: &mut Evaluator,
    res: &ExecResources<'_>,
) -> Result<Register, FheError> {
    let result = match &si.instr {
        Instr::Bin { op, a, b } => match (rf.read(*a), rf.read(*b)) {
            (Register::Cipher(x), Register::Cipher(y)) => Register::cipher(match op {
                BinOp::Add => evaluator.add(&x, &y),
                BinOp::Sub => evaluator.sub(&x, &y),
                BinOp::Mul => evaluator.multiply(&x, &y, res.relin_keys),
            }),
            (Register::Cipher(x), Register::Plain(p)) => {
                let plain = p.encoded_in(res.ctx, evaluator.arena_mut())?;
                Register::cipher(match op {
                    BinOp::Add => evaluator.add_plain(&x, plain),
                    BinOp::Sub => evaluator.sub_plain(&x, plain),
                    BinOp::Mul => evaluator.multiply_plain(&x, plain),
                })
            }
            (Register::Plain(p), Register::Cipher(y)) => {
                let plain = p.encoded_in(res.ctx, evaluator.arena_mut())?;
                Register::cipher(match op {
                    BinOp::Add => evaluator.add_plain(&y, plain),
                    BinOp::Sub => {
                        // p - y = -(y - p).
                        let diff = evaluator.sub_plain(&y, plain);
                        let negated = evaluator.negate(&diff);
                        evaluator.recycle(diff);
                        negated
                    }
                    BinOp::Mul => evaluator.multiply_plain(&y, plain),
                })
            }
            (Register::Plain(_), Register::Plain(_)) => {
                unreachable!("plaintext-only nodes are evaluated on the client")
            }
        },
        Instr::Neg { a } => match rf.read(*a) {
            Register::Cipher(x) => Register::cipher(evaluator.negate(&x)),
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
                    let next = evaluator.rotate(source, part, res.galois_keys)?;
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
            // Run-time packing: element i > 0 is moved to slot i with a
            // right-rotation and added to the accumulator — the first time,
            // to element 0's register, read in place — whose superseded
            // value returns to the arena with the placed element.
            let mut first: Option<Arc<Ciphertext>> = None;
            let mut acc: Option<Ciphertext> = None;
            // The plaintext accumulator spans every live lane: each user's
            // plaintext element is read at its lane base and placed at its
            // lane's copy of the slot. (Ciphertext elements need no such
            // care — the rotation below shifts every lane's value
            // uniformly.) It is as long as the run's window, like every
            // other register of the run; a hand-made geometry narrower than
            // the pack still gets every element a slot.
            let geometry = res.lanes;
            let plain_width = geometry
                .window(res.ctx.slot_count())
                .max(geometry.base(geometry.lanes.saturating_sub(1)) + elems.len());
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
                    Register::Cipher(ct) if slot == 0 => first = Some(ct),
                    Register::Cipher(ct) => {
                        let placed = evaluator.rotate(&ct, -(slot as i64), res.galois_keys)?;
                        let Some(prev) = acc.as_ref().or(first.as_deref()) else {
                            acc = Some(placed);
                            continue;
                        };
                        let sum = evaluator.add(prev, &placed);
                        if let Some(superseded) = acc.replace(sum) {
                            evaluator.recycle(superseded);
                        }
                        evaluator.recycle(placed);
                    }
                }
            }
            // Lowering emits `Pack` only for a ciphertext-kind vector, which
            // has a ciphertext element by `data_kinds`' definition.
            let Some(sum) = acc.as_ref().or(first.as_deref()) else {
                unreachable!("plaintext-only nodes are evaluated on the client")
            };
            // Whether the plaintext addition is issued is the schedule's
            // decision, never the request's: elements that all happen to
            // read zero cost the same operations as any other values.
            let packed = if *folds_plain {
                // The packing plaintext is transient — encoded from the
                // arena, added, and recycled within this one instruction.
                let plain = res.ctx.encode_in(&plain_slots, evaluator.arena_mut())?;
                let packed = evaluator.add_plain(sum, &plain);
                if let Some(superseded) = acc {
                    evaluator.recycle(superseded);
                }
                evaluator.recycle_plain(plain);
                packed
            } else if let Some(packed) = acc {
                packed
            } else {
                // Element 0 alone: the output register needs its own copy.
                evaluator.clone_ciphertext(sum)
            };
            Register::cipher(packed)
        }
    };
    Ok(result)
}
