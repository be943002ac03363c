//! Figure 10: training-reward curves against wall-clock time for ICI versus
//! BPE tokenization (ICI trains faster because its tokenizer is a single
//! linear pass with a small fixed vocabulary).
//!
//! Usage: `cargo run --release -p chehab-bench --bin fig10_tokenization -- [--timesteps N]`

use chehab_bench::{write_csv, HarnessConfig};
use chehab_core::training::{train_agent, AgentTrainingOptions, TokenizationKind};

fn main() {
    let config = HarnessConfig::from_args();
    println!("== Figure 10: ICI vs BPE tokenization (training curves)");
    let mut rows = Vec::new();
    let mut wall_clocks = Vec::new();
    for (label, tokenization) in [
        ("ICI", TokenizationKind::Ici),
        ("BPE", TokenizationKind::Bpe),
    ] {
        let trained = train_agent(&AgentTrainingOptions {
            tokenization,
            ..config.training()
        });
        println!(
            "\n{label}: {} timesteps in {:.1}s (final mean reward {:.2})",
            trained.report.timesteps,
            trained.report.wall_clock_seconds,
            trained.report.final_mean_reward()
        );
        println!(
            "  {:>10} {:>12} {:>14}",
            "timestep", "seconds", "mean reward"
        );
        for point in &trained.report.curve {
            println!(
                "  {:>10} {:>12.2} {:>14.3}",
                point.timestep, point.wall_clock_seconds, point.mean_episode_reward
            );
            rows.push(format!(
                "{label},{},{:.3},{:.4}",
                point.timestep, point.wall_clock_seconds, point.mean_episode_reward
            ));
        }
        wall_clocks.push((label, trained.report.wall_clock_seconds));
    }
    if let [(_, ici), (_, bpe)] = wall_clocks[..] {
        println!(
            "\ntraining wall-clock: ICI {ici:.1}s vs BPE {bpe:.1}s ({:.2}x faster with ICI)",
            bpe / ici.max(1e-9)
        );
    }
    let _ = write_csv(
        "fig10_tokenization",
        "tokenizer,timestep,seconds,mean_reward",
        &rows,
    );
}
