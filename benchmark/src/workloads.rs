//! The four workloads: which programs, which compiler, which parameters, how
//! a lone request is served and what traffic the engine phase sends.
//!
//! A workload's *program set* is part of its definition and never depends on
//! `--seed`: every end-to-end metric must be comparable across seeds, and a
//! different program is a different benchmark. The seed drives what varies
//! between users of one deployment — input values and arrival times.

use chehab_benchsuite::{coyote_kernels, porcupine, trees, Benchmark};
use chehab_core::{BatchPolicy, ExecOptions, SchedulerKind};
use chehab_datagen::LlmLikeSynthesizer;
use chehab_ir::Expr;
use std::time::Duration;

/// Which compiler configuration a program is compiled with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompilerKind {
    /// `Compiler::greedy()`.
    Greedy,
    /// `Compiler::without_optimizer()`: the unvectorized form.
    Unoptimized,
    /// `Compiler::with_rl_agent` over an agent trained in set-up.
    Rl,
}

/// How a lone request is served in the solo phase.
#[derive(Debug, Clone, Copy)]
pub enum Solo {
    /// `FheSession::run` (leveled, one worker).
    Run,
    /// `FheSession::run_parallel` under these options.
    Parallel(ExecOptions),
}

/// The traffic of the engine phase.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Closed loop: `clients` callers, each submitting its next request to
    /// `FheSession::serve(options)` only after the previous one completed.
    Closed {
        clients: usize,
        options: ExecOptions,
    },
    /// Open loop: seeded Poisson arrivals into one
    /// `FheSession::serve_batched` coalescer per program.
    Open(OpenLoad),
}

#[derive(Debug, Clone, Copy)]
pub struct OpenLoad {
    /// Arrivals per second, over all programs.
    pub rate: f64,
    pub policy: BatchPolicy,
    pub queue_capacity: usize,
}

#[derive(Debug, Clone)]
pub struct Program {
    pub id: String,
    pub expr: Expr,
    pub compiler: CompilerKind,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// RNS limb count `k` of `BfvParameters::default_128()`.
    pub limbs: usize,
    pub solo: Solo,
    pub traffic: Traffic,
    pub programs: Vec<Program>,
}

pub const NAMES: [&str; 4] = [
    "structured_greedy",
    "unstructured_wide",
    "rl_datagen_k3",
    "batched_open_k2",
];

/// `rl_datagen_k3` keeps synthesized programs up to this size: the sizing
/// probe saw generators emit five-digit node counts that no optimizer
/// finishes on.
pub const MAX_PROGRAM_NODES: usize = 160;

/// Seed of the `LlmLikeSynthesizer` draw that fixes `rl_datagen_k3`'s program
/// set (a seeded draw from the paper's training distribution).
const DATAGEN_PROGRAM_SEED: u64 = 1;
const DATAGEN_PROGRAMS: usize = 24;

/// Worker threads a request or an engine may use: `min(nproc, 4)`.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(4)
}

fn program(benchmark: Benchmark, compiler: CompilerKind) -> Program {
    Program {
        id: benchmark.id(),
        expr: benchmark.program().clone(),
        compiler,
    }
}

fn tree(fullness: u32, homogeneity: u32) -> Program {
    program(
        trees::tree(trees::TreeParams {
            fullness,
            homogeneity,
            depth: 7,
        }),
        CompilerKind::Greedy,
    )
}

pub fn by_name(name: &str) -> Option<Workload> {
    let t = threads();
    let sequential = ExecOptions::sequential();
    Some(match name {
        "structured_greedy" => Workload {
            name: "structured_greedy",
            limbs: 1,
            solo: Solo::Run,
            traffic: Traffic::Closed {
                clients: t,
                options: sequential.with_request_threads(t),
            },
            programs: [
                porcupine::box_blur(4),
                porcupine::dot_product(32),
                porcupine::hamming_distance(16),
                porcupine::l2_distance(16),
                porcupine::linear_regression(32),
                porcupine::polynomial_regression(32),
                porcupine::gx(4),
                porcupine::roberts_cross(4),
                coyote_kernels::mat_mul(4),
                coyote_kernels::sort(4),
                coyote_kernels::max(5),
            ]
            .into_iter()
            .map(|b| program(b, CompilerKind::Greedy))
            .collect(),
        },
        "unstructured_wide" => {
            let wide = sequential
                .with_threads_per_request(t)
                .with_scheduler(SchedulerKind::Dataflow);
            Workload {
                name: "unstructured_wide",
                limbs: 1,
                solo: Solo::Parallel(wide),
                traffic: Traffic::Closed {
                    clients: 2,
                    options: wide,
                },
                // Four depth-7 trees spanning the fullness/homogeneity ranges
                // (85-100, 40-100), plus four kernels left unvectorized.
                programs: [tree(100, 100), tree(85, 40), tree(90, 60), tree(100, 50)]
                    .into_iter()
                    .chain(
                        [
                            coyote_kernels::mat_mul(4),
                            porcupine::polynomial_regression(16),
                            porcupine::l2_distance(16),
                            porcupine::gx(4),
                        ]
                        .into_iter()
                        .map(|b| program(b, CompilerKind::Unoptimized)),
                    )
                    .collect(),
            }
        }
        "rl_datagen_k3" => {
            let leveled = sequential.with_scheduler(SchedulerKind::Leveled);
            let mut synthesizer = LlmLikeSynthesizer::with_seed(DATAGEN_PROGRAM_SEED);
            let mut programs: Vec<Program> = Vec::with_capacity(DATAGEN_PROGRAMS);
            while programs.len() < DATAGEN_PROGRAMS {
                let expr = synthesizer.generate();
                if expr.node_count() <= MAX_PROGRAM_NODES {
                    programs.push(Program {
                        id: format!("datagen {:02}", programs.len()),
                        expr,
                        compiler: CompilerKind::Rl,
                    });
                }
            }
            Workload {
                name: "rl_datagen_k3",
                limbs: 3,
                solo: Solo::Parallel(leveled.with_threads_per_request(t)),
                traffic: Traffic::Closed {
                    clients: t,
                    options: leveled.with_request_threads(t),
                },
                programs,
            }
        }
        "batched_open_k2" => Workload {
            name: "batched_open_k2",
            limbs: 2,
            solo: Solo::Run,
            traffic: Traffic::Open(OpenLoad {
                // Half the rate the sizing probe saw one program sustain: the
                // four coalescers stay short of saturation on 2 vCPU.
                rate: 1500.0,
                policy: BatchPolicy::default()
                    .with_max_batch(64)
                    .with_max_linger(Duration::from_millis(2)),
                queue_capacity: 4096,
            }),
            programs: [
                porcupine::dot_product(16),
                porcupine::linear_regression(16),
                porcupine::polynomial_regression(16),
                porcupine::box_blur(3),
            ]
            .into_iter()
            .map(|b| program(b, CompilerKind::Greedy))
            .collect(),
        },
        _ => return None,
    })
}
