//! The end-to-end CHEHAB compilation pipeline (Section 4, Figure 3):
//! cleanup passes, the optimizing term-rewriting stage (RL-guided, greedy, or
//! disabled), common-subexpression and dead-code elimination through the DAG
//! view, rotation-key selection, and code generation into an executable
//! [`CompiledProgram`].

use crate::executor::{output_slots_of, CompileStats, CompiledProgram, SearchCounters};
use crate::rotation_keys::select_rotation_keys;
use chehab_ir::{cleanup, rotation_steps, summarize, CostModel, Expr};
use chehab_rl::Agent;
use chehab_trs::RewriteEngine;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which optimizer the pipeline runs.
#[derive(Clone)]
pub enum OptimizerKind {
    /// No term rewriting (the "Initial" configuration of Table 6).
    None,
    /// The original CHEHAB greedy best-improvement rewriting.
    Greedy {
        /// Maximum number of greedy rewrite steps.
        max_steps: usize,
    },
    /// CHEHAB RL: a trained policy drives the rewriting.
    RlPolicy(Arc<Agent>),
}

impl std::fmt::Debug for OptimizerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizerKind::None => write!(f, "None"),
            OptimizerKind::Greedy { max_steps } => write!(f, "Greedy {{ max_steps: {max_steps} }}"),
            OptimizerKind::RlPolicy(_) => write!(f, "RlPolicy"),
        }
    }
}

/// Compiler options.
#[derive(Debug, Clone)]
pub struct CompilerOptions {
    /// The optimizer stage.
    pub optimizer: OptimizerKind,
    /// Cost model used by the greedy optimizer and for reporting.
    pub cost_model: CostModel,
    /// Whether packed inputs are laid out by the client before encryption
    /// (Section 7.3; enabled by default).
    pub layout_before_encryption: bool,
    /// Maximum number of Galois keys to generate (`β` in Appendix B);
    /// defaults to `2·log2(16384) = 28`.
    pub rotation_key_budget: usize,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            optimizer: OptimizerKind::Greedy { max_steps: 200 },
            cost_model: CostModel::default(),
            layout_before_encryption: true,
            rotation_key_budget: 28,
        }
    }
}

/// The CHEHAB compiler.
#[derive(Debug, Clone)]
pub struct Compiler {
    options: CompilerOptions,
    engine: Arc<RewriteEngine>,
}

impl Default for Compiler {
    fn default() -> Self {
        Self::new(CompilerOptions::default())
    }
}

impl Compiler {
    /// Creates a compiler with explicit options.
    pub fn new(options: CompilerOptions) -> Self {
        Compiler {
            options,
            engine: Arc::new(RewriteEngine::new()),
        }
    }

    /// A compiler that performs no term rewriting (the naive baseline).
    pub fn without_optimizer() -> Self {
        Self::new(CompilerOptions {
            optimizer: OptimizerKind::None,
            ..CompilerOptions::default()
        })
    }

    /// A compiler using the original CHEHAB greedy rewriting.
    pub fn greedy() -> Self {
        Self::new(CompilerOptions::default())
    }

    /// A compiler driven by a trained CHEHAB RL agent.
    pub fn with_rl_agent(agent: Arc<Agent>) -> Self {
        Self::new(CompilerOptions {
            optimizer: OptimizerKind::RlPolicy(agent),
            ..CompilerOptions::default()
        })
    }

    /// The compiler's options.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// Mutable access to the options (e.g. to toggle the input-layout pass).
    pub fn options_mut(&mut self) -> &mut CompilerOptions {
        &mut self.options
    }

    /// Compiles a program (scalar CHEHAB IR, as produced by the DSL) into an
    /// executable circuit.
    pub fn compile(&self, name: impl Into<String>, program: &Expr) -> CompiledProgram {
        let started = Instant::now();
        let original = cleanup(program);
        let summary_before = summarize(&original);
        let cost_before = self.options.cost_model.cost(&original);

        let (optimized, optimizer_steps, search) = match &self.options.optimizer {
            OptimizerKind::None => (original.clone(), 0, SearchCounters::default()),
            OptimizerKind::Greedy { max_steps } => {
                let (optimized, steps) =
                    self.engine
                        .greedy_optimize(&original, &self.options.cost_model, *max_steps);
                let search = SearchCounters {
                    actions: steps,
                    distinct_states: steps + 1,
                    ..SearchCounters::default()
                };
                (optimized, steps, search)
            }
            OptimizerKind::RlPolicy(agent) => {
                let outcome = agent.optimize(&original);
                let search = SearchCounters {
                    actions: outcome.actions,
                    distinct_states: outcome.distinct_states,
                    policy_evaluations: outcome.policy_evaluations,
                    encoded_rows: outcome.encoded_rows,
                };
                (outcome.optimized, outcome.steps, search)
            }
        };
        let optimized = cleanup(&optimized);
        let summary_after = summarize(&optimized);
        let cost_after = self.options.cost_model.cost(&optimized);

        let steps: Vec<i64> = rotation_steps(&optimized).keys().copied().collect();
        let rotation_plan = select_rotation_keys(&steps, self.options.rotation_key_budget);

        let stats = CompileStats {
            // Stamped below: building the CSE/DCE DAG is a compile stage too.
            compile_time: Duration::ZERO,
            cost_before,
            cost_after,
            optimizer_steps,
            search,
            summary_before,
            summary_after,
        };
        let mut compiled = CompiledProgram::from_circuit(
            name,
            optimized,
            output_slots_of(&original),
            rotation_plan,
            self.options.layout_before_encryption,
            stats,
        );
        compiled.stats.compile_time = started.elapsed();
        compiled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chehab_fhe::BfvParameters;
    use chehab_ir::{evaluate, parse, CircuitDag, Env};
    use std::collections::HashMap;

    fn bindings_for(program: &Expr) -> HashMap<String, i64> {
        program
            .variables()
            .iter()
            .enumerate()
            .map(|(i, v)| (v.to_string(), (i as i64 % 7) + 1))
            .collect()
    }

    fn reference_output(program: &Expr, bindings: &HashMap<String, i64>) -> Vec<u64> {
        let mut env = Env::new();
        for (k, v) in bindings {
            env.bind(k.clone(), *v);
        }
        evaluate(program, &env).unwrap().slots()
    }

    #[test]
    fn greedy_compilation_improves_cost_and_preserves_semantics() {
        let program = parse("(+ (+ (* a0 b0) (* a1 b1)) (+ (* a2 b2) (* a3 b3)))").unwrap();
        let compiled = Compiler::greedy().compile("dot4", &program);
        assert!(compiled.stats().cost_after < compiled.stats().cost_before);
        assert!(compiled.stats().optimizer_steps > 0);

        let bindings = bindings_for(&program);
        let report = compiled
            .session(&BfvParameters::insecure_test())
            .unwrap()
            .run(&bindings)
            .unwrap();
        assert!(report.decryption_ok);
        assert_eq!(report.outputs[0], reference_output(&program, &bindings)[0]);
    }

    #[test]
    fn unoptimized_compilation_executes_scalar_circuits() {
        let program = parse("(Vec (+ a b) (* c d))").unwrap();
        let compiled = Compiler::without_optimizer().compile("naive", &program);
        assert_eq!(compiled.stats().optimizer_steps, 0);
        assert_eq!(compiled.stats().cost_before, compiled.stats().cost_after);

        let bindings = bindings_for(&program);
        let report = compiled
            .session(&BfvParameters::insecure_test())
            .unwrap()
            .run(&bindings)
            .unwrap();
        assert_eq!(
            report.outputs,
            reference_output(&program, &bindings)[..2].to_vec()
        );
    }

    #[test]
    fn vectorized_compilation_is_faster_to_execute_than_naive() {
        let program = chehab_benchsuite_like_dot(16);
        let naive = Compiler::without_optimizer().compile("naive", &program);
        let optimized = Compiler::greedy().compile("greedy", &program);
        let bindings = bindings_for(&program);
        let params = BfvParameters::insecure_test();
        let naive_report = naive.session(&params).unwrap().run(&bindings).unwrap();
        let optimized_report = optimized.session(&params).unwrap().run(&bindings).unwrap();
        assert_eq!(naive_report.outputs[0], optimized_report.outputs[0]);
        assert!(
            optimized_report.operation_stats.total() < naive_report.operation_stats.total(),
            "optimized circuit must execute fewer homomorphic operations"
        );
        // Rotations add a little key-switching noise, so the vectorized form
        // may consume a few more bits than the flat chain of additions; it
        // must stay in the same ballpark (both are depth-1 circuits).
        assert!(
            optimized_report.noise_budget_consumed <= naive_report.noise_budget_consumed + 10.0
        );
    }

    fn chehab_benchsuite_like_dot(n: usize) -> Expr {
        let terms: Vec<Expr> = (0..n)
            .map(|i| Expr::mul(Expr::ct(format!("a{i}")), Expr::ct(format!("b{i}"))))
            .collect();
        let mut iter = terms.into_iter();
        let first = iter.next().unwrap();
        iter.fold(first, Expr::add)
    }

    #[test]
    fn compile_time_covers_building_the_circuit_dag() {
        let program = chehab_benchsuite_like_dot(512);
        let compiled = Compiler::without_optimizer().compile("dot512", &program);
        let dag_build = (0..3)
            .map(|_| {
                let started = Instant::now();
                let dag = CircuitDag::from_expr(compiled.circuit()).eliminate_dead_code();
                let elapsed = started.elapsed();
                assert!(dag.len() > 512);
                elapsed
            })
            .min()
            .expect("three timings");
        assert!(
            compiled.stats().compile_time >= dag_build,
            "compile_time {:?} omits the DAG build ({dag_build:?})",
            compiled.stats().compile_time
        );
    }

    #[test]
    fn rotation_key_budget_is_respected() {
        let options = CompilerOptions {
            rotation_key_budget: 4,
            ..Default::default()
        };
        let compiler = Compiler::new(options);
        let program = chehab_benchsuite_like_dot(32);
        let compiled = compiler.compile("dot32", &program);
        assert!(compiled.rotation_plan().key_count() <= 32);
    }

    #[test]
    fn layout_toggle_is_recorded() {
        let mut compiler = Compiler::greedy();
        compiler.options_mut().layout_before_encryption = false;
        let compiled = compiler.compile("x", &parse("(Vec (+ a b) (+ c d))").unwrap());
        assert!(!compiled.layout_before_encryption());
    }
}
