//! # chehab-core
//!
//! The CHEHAB FHE compiler (Section 4 of *CHEHAB RL: Learning to Optimize
//! Fully Homomorphic Encryption Computations*): an embedded DSL for writing
//! FHE programs, lowering to the CHEHAB IR, an optimization pipeline whose
//! term-rewriting stage is driven either by the original greedy strategy or
//! by a trained CHEHAB RL agent, NAF-based rotation-key selection
//! (Appendix B), and code generation onto the BFV execution backend of
//! [`chehab_fhe`].
//!
//! ## Example
//!
//! ```
//! use chehab_core::{Compiler, DslProgram};
//! use chehab_fhe::BfvParameters;
//! use std::collections::HashMap;
//!
//! // Write the kernel in the DSL...
//! let mut p = DslProgram::new("squared_difference");
//! let a = p.ciphertext_input("a");
//! let b = p.ciphertext_input("b");
//! let diff = &a - &b;
//! let out = &diff * &diff;
//! p.set_output(&out);
//!
//! // ...compile it with the greedy optimizer and run it homomorphically.
//! let compiled = Compiler::greedy().compile(p.name(), &p.lower());
//! let inputs: HashMap<String, i64> = [("a".to_string(), 9), ("b".to_string(), 4)].into();
//! let report = compiled.session(&BfvParameters::insecure_test())?.run(&inputs)?;
//! assert_eq!(report.outputs[0], 25);
//! # Ok::<(), chehab_fhe::FheError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bind;
mod compiler;
mod dsl;
mod executor;
mod rotation_keys;
pub mod training;

pub use compiler::{Compiler, CompilerOptions, OptimizerKind};
pub use dsl::{DslProgram, DslValue};
pub use executor::{
    external_compile_stats, output_slots_of, CompileStats, CompiledProgram, ExecHooks, ExecOptions,
    ExecutionReport, FheServingEngine, FheSession, SearchCounters, SessionStats,
};
pub use rotation_keys::{naf_decomposition, select_rotation_keys, RotationKeyPlan};
// The scheduling knob of `ExecOptions`, re-exported so session users don't
// need a direct `chehab_runtime` dependency to pick a discipline.
pub use chehab_runtime::SchedulerKind;
// The cross-request SIMD batching surface of the session API
// ([`FheSession::run_batched`], [`FheSession::serve_with`]), re-exported for
// the same reason.
pub use chehab_runtime::{BatchPolicy, CoalescerStats, LaneGeometry, RequestCoalescer};
// The telemetry surface of the session API ([`ExecHooks::trace`],
// [`FheSession::metrics`]), re-exported for the same reason.
pub use chehab_runtime::{Histogram, MetricsRegistry, Trace, TraceSink};
// The resilience surface of the session API ([`ExecHooks::cancel`],
// [`ExecHooks::faults`], [`ExecOptions::with_deadline`]), re-exported for
// the same reason: deadline/cancellation tokens, deterministic fault plans,
// and the handle-side error type for abandoned or panicked requests. The
// outcome counters are the session's registry cells, read with
// `MetricsRegistry::value` (every engine a session starts bumps them).
pub use chehab_runtime::{
    CancellationToken, FaultPlan, RequestError, ServingError, TrySubmitError,
};
