//! Figure 6: compilation time of CHEHAB RL and the Coyote baseline across
//! the benchmark suite.
//!
//! Usage: `cargo run --release -p chehab-bench --bin fig6_compile_time -- [--full]`

use chehab_bench::CompilerUnderTest::{ChehabRl, Coyote};
use chehab_bench::{exit_if_incorrect, Figure, HarnessConfig, Metric, Side};
use chehab_core::training::train_agent;

fn main() {
    let config = HarnessConfig::from_args();
    let trained = train_agent(&config.training());
    let pairs = Figure {
        title: "Figure 6: compilation time, CHEHAB RL vs Coyote".into(),
        csv: "fig6_compile_time",
        subject: Side(ChehabRl(trained.agent), "CHEHAB RL", "chehab_rl"),
        baseline: Side(Coyote(config.coyote_config()), "Coyote", "coyote"),
        metric: Metric::Compilation,
        ratio: "ratio",
    }
    .run(&config);
    exit_if_incorrect(pairs.iter().flatten());
}
