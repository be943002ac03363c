//! Figure 12: execution time of circuits produced by CHEHAB RL versus the
//! original CHEHAB (greedy term rewriting).
//!
//! Usage: `cargo run --release -p chehab-bench --bin fig12_chehab_vs_rl -- [--full] [--timesteps N]`

use chehab_bench::CompilerUnderTest::{ChehabGreedy, ChehabRl};
use chehab_bench::{exit_if_incorrect, Figure, HarnessConfig, Metric, Side};
use chehab_core::training::train_agent;

fn main() {
    let config = HarnessConfig::from_args();
    let trained = train_agent(&config.training());
    let pairs = Figure {
        title: "Figure 12: CHEHAB RL vs CHEHAB (greedy)".into(),
        csv: "fig12_chehab_vs_rl",
        subject: Side(ChehabRl(trained.agent), "CHEHAB RL", "chehab_rl"),
        baseline: Side(ChehabGreedy, "CHEHAB", "chehab"),
        metric: Metric::Execution,
        ratio: "speedup",
    }
    .run(&config);
    exit_if_incorrect(pairs.iter().flatten());
}
