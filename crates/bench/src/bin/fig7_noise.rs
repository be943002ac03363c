//! Figure 7: consumed invariant-noise budget of the circuits generated by
//! CHEHAB RL and by the Coyote baseline.
//!
//! Usage: `cargo run --release -p chehab-bench --bin fig7_noise -- [--full]`

use chehab_bench::CompilerUnderTest::{ChehabRl, Coyote};
use chehab_bench::{exit_if_incorrect, Figure, HarnessConfig, Metric, Side};
use chehab_core::training::train_agent;

fn main() {
    let config = HarnessConfig::from_args();
    let trained = train_agent(&config.training());
    let pairs = Figure {
        title: format!(
            "Figure 7: consumed noise budget (of {:.0} bits), CHEHAB RL vs Coyote",
            config.params().fresh_noise_budget_bits()
        ),
        csv: "fig7_noise",
        subject: Side(ChehabRl(trained.agent), "CHEHAB RL", "chehab_rl"),
        baseline: Side(Coyote(config.coyote_config()), "Coyote", "coyote"),
        metric: Metric::Noise,
        ratio: "ratio",
    }
    .run(&config);
    exit_if_incorrect(pairs.iter().flatten());
}
