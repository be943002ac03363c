//! Figure 5: execution time of the benchmark circuits generated by
//! CHEHAB RL and by the Coyote baseline (semi-log series in the paper).
//!
//! Usage: `cargo run --release -p chehab-bench --bin fig5_exec_time -- [--full] [--runs N] [--timesteps N]`

use chehab_bench::CompilerUnderTest::{ChehabRl, Coyote};
use chehab_bench::{exit_if_incorrect, Figure, HarnessConfig, Metric, Side};
use chehab_core::training::train_agent;

fn main() {
    let config = HarnessConfig::from_args();
    let trained = train_agent(&config.training());
    let pairs = Figure {
        title: "Figure 5: execution time, CHEHAB RL vs Coyote".into(),
        csv: "fig5_exec_time",
        subject: Side(ChehabRl(trained.agent), "CHEHAB RL", "chehab_rl"),
        baseline: Side(Coyote(config.coyote_config()), "Coyote", "coyote"),
        metric: Metric::Execution,
        ratio: "speedup",
    }
    .run(&config);
    exit_if_incorrect(pairs.iter().flatten());
}
