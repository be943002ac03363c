//! # chehab-runtime
//!
//! A two-level parallel execution runtime for compiled CHEHAB FHE circuits.
//!
//! The compile pipeline of the reproduction (DSL → IR → TRS/RL rewriting →
//! BFV codegen) produces a hash-consed circuit DAG that the seed executor
//! walked one operation at a time. This crate replaces that walk with a
//! runtime organized around two observations from the DSMC parallelization
//! literature that transfer directly to FHE serving:
//!
//! 1. **Two-level parallelism** (after Bogdanov et al., *Algorithms of
//!    Two-Level Parallelization for DSMC*): the coarse level runs many
//!    independent encrypted requests against one compiled program across
//!    the persistent workers of a [`ServingEngine`]; the fine level runs the
//!    independent homomorphic operations inside one request concurrently:
//!    one [`Executor`] worker loop over the lowered [`Schedule`], releasing
//!    instructions by barrier-free dependency counting with work stealing
//!    (the default) or level by level ([`SchedulerKind`]), bit-identical to
//!    the in-order walk either way.
//! 2. **Timer-augmented costs** (after McDoniel & Bientinesi, *A
//!    Timer-Augmented Cost Function for Load Balanced DSMC*): the dataflow
//!    rule's critical-path ready-queue priorities
//!    ([`Schedule::critical_path_priorities`]) are computed under measured
//!    per-primitive latencies ([`CalibratedCostModel`]) instead of the
//!    static per-operator cost table. A session folds them from the
//!    instruction spans every run's [`TimingBreakdown`] already carries, so
//!    an operation is timed once; the optimizer keeps the static table.
//! 3. **One request path** (the persistent-worker scheme of the same
//!    two-level literature): a [`ServingEngine`] keeps one bounded request
//!    queue drained by long-lived worker threads, so expensive per-program
//!    state lives across requests instead of being rebuilt per call. Every
//!    worker runs submit → gather → handler(batch) → scatter under a
//!    [`BatchPolicy`]; an unbatched request is a batch of one.
//!    Each [`RequestHandle`] is the receiver of its request's one-shot
//!    result channel (a dropped sender is an abandoned request), and
//!    [`ServingStats`] track queue depth and throughput.
//! 4. **Cross-request SIMD batching**: with a larger [`BatchPolicy`] the
//!    same engine gathers compatible requests and the handler packs many
//!    users into the slot lanes of shared ciphertexts (see the [`batching`
//!    module](crate::RequestCoalescer) docs for why lane batching is
//!    bit-exact per user), amortizing every homomorphic operation across
//!    the whole batch. The engine re-runs the members of a poisoned batch
//!    (a handler panic, or a result that reports one) alone, so only the
//!    offender fails, and counts batch sizes, linger and
//!    lane occupancy in its [`ServingStats`]; a [`RequestCoalescer`] is
//!    that engine built over a plain batch handler.
//!
//! The crate deliberately depends only on `chehab-ir` (for the circuit DAG
//! and cost tables) and `chehab-fhe` (for the evaluator): `chehab-core`
//! integrates it behind `FheSession::run_batched` / `FheSession::serve_with`,
//! and re-exports it through the `chehab` facade as `chehab::runtime`.
//!
//! ## Example
//!
//! Lowering and executing a circuit by hand (the compiler normally does
//! this):
//!
//! ```
//! use chehab_fhe::{BfvParameters, Decryptor, FheContext, KeyGenerator};
//! use chehab_ir::{parse, CircuitDag};
//! use chehab_runtime::{
//!     lower_with_default_costs, ExecResources, Executor, LaneGeometry, Register, RunInputs,
//!     SchedulerKind,
//! };
//!
//! // (a*b) + (c*d): the two multiplications share a level.
//! let expr = parse("(VecAdd (VecMul (Vec a b) (Vec c d)) (VecMul (Vec e f) (Vec g h)))").unwrap();
//! let dag = CircuitDag::from_expr(&expr).eliminate_dead_code();
//!
//! let ctx = FheContext::new(BfvParameters::insecure_test())?;
//! let mut keygen = KeyGenerator::new(ctx.params(), 1);
//! let public_key = keygen.public_key();
//! let decryptor = Decryptor::new(&ctx, &keygen.secret_key());
//! let relin_keys = keygen.relin_keys();
//! let galois_keys = keygen.default_galois_keys();
//!
//! // Pre-bind the leaf vectors (client-side packing): the executor's
//! // workers encrypt them before the first instruction. Lower the rest.
//! let mut inputs = RunInputs { registers: vec![None; dag.len()], ..RunInputs::default() };
//! let values = [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5), ("f", 6), ("g", 7), ("h", 8)];
//! let lookup = |name: &str| values.iter().find(|(n, _)| *n == name).unwrap().1;
//! let mut prebound = vec![false; dag.len()];
//! for (id, node) in dag.nodes().iter().enumerate() {
//!     if let chehab_ir::DagNode::Vec(elems) = node {
//!         let packed: Vec<i64> = elems
//!             .iter()
//!             .map(|&e| match &dag.nodes()[e] {
//!                 chehab_ir::DagNode::CtVar(s) => lookup(s.as_str()),
//!                 _ => unreachable!(),
//!             })
//!             .collect();
//!         inputs.encryptions.push((id, packed));
//!         prebound[id] = true;
//!     } else if node.is_leaf() {
//!         prebound[id] = true; // packed into the vectors above
//!     }
//! }
//!
//! let schedule = lower_with_default_costs(&dag, &prebound, |step| vec![step]);
//! assert_eq!(schedule.level_count(), 2);
//!
//! let arenas = chehab_fhe::ArenaPool::new();
//! let resources = ExecResources {
//!     ctx: &ctx,
//!     public_key: &public_key,
//!     relin_keys: &relin_keys,
//!     galois_keys: &galois_keys,
//!     // Worker evaluators check their buffers out of this pool.
//!     arenas: &arenas,
//!     // One user owns the whole slot vector: a batch of one.
//!     lanes: LaneGeometry { origin: 0, stride: ctx.slot_count(), lanes: 1 },
//!     // No cancellation token or deadline: the request runs to completion.
//!     cancel: None,
//!     // No fault injection.
//!     faults: None,
//! };
//! // Level by level on two workers, which encrypt the two inputs first; the
//! // leveled rule reads no priorities.
//! let outcome =
//!     Executor::new(2).execute(&schedule, inputs, &resources, SchedulerKind::Leveled, &[])?;
//! let Register::Cipher(output) = outcome.output else { panic!("ciphertext output") };
//! assert_eq!(ctx.decode(&decryptor.decrypt(&output)?, 2), vec![1 * 3 + 5 * 7, 2 * 4 + 6 * 8]);
//! // The report places every instruction: its worker, and its start as an
//! // offset from the barrier where the last input was published.
//! assert_eq!(outcome.timing.workers.len(), schedule.instrs().len());
//! # Ok::<(), chehab_fhe::FheError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batching;
mod calibrate;
mod dataflow;
mod exec;
mod faults;
mod schedule;
mod serving;
pub mod telemetry;

pub use batching::{
    lane_geometry, BatchPolicy, CoalescerConfig, CoalescerStats, LaneGeometry, RequestCoalescer,
};
pub use calibrate::CalibratedCostModel;
pub use dataflow::{SchedulerKind, TimingBreakdown};
pub use exec::{
    execute_in_order, lock, ExecOutcome, ExecResources, Executor, PlainValue, Register,
    RegisterFile, RunInputs,
};
pub use faults::{CancellationToken, FaultPlan};
pub use schedule::{
    data_kinds, lower_with_default_costs, CostTerms, Instr, Schedule, ScheduledInstr, Slot,
};
pub use serving::{
    default_workers, Classify, LatencySnapshot, Outcome, RequestError, RequestHandle,
    ResilienceStats, ServingConfig, ServingEngine, ServingError, ServingStats, TrySubmitError,
    DEFAULT_QUEUE_CAPACITY,
};
pub use telemetry::{Counter, Gauge, Histogram, MetricsRegistry, SpanEvent, Trace, TraceSink};
