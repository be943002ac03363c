//! Train a CHEHAB RL agent end to end: synthesize an LLM-style dataset, run
//! PPO over the rewrite environment, save the learned policy to disk, and use
//! the agent to compile a benchmark kernel.
//!
//! The default budget is intentionally small so the example finishes in a few
//! minutes; pass a number of timesteps as the first argument to train longer
//! (the paper trains for 2 million timesteps / 43 hours).
//!
//! Run with `cargo run --release --example train_agent -- 4000`.

use chehab::benchsuite::porcupine;
use chehab::compiler::{
    training::{train_agent, AgentTrainingOptions},
    Compiler,
};
use chehab::fhe::BfvParameters;
use std::collections::HashMap;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let timesteps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3000);

    println!("training a CHEHAB RL agent for {timesteps} timesteps...");
    let trained = train_agent(&AgentTrainingOptions {
        timesteps,
        dataset_size: 600,
        ..AgentTrainingOptions::default()
    });
    let report = &trained.report;
    println!(
        "dataset: {} unique LLM-style expressions; episodes: {}; wall clock: {:.1}s \
         (collecting experience {:.2}s, PPO updates {:.2}s)",
        trained.dataset_size,
        report.episodes,
        report.wall_clock_seconds,
        report.collect_seconds,
        report.update_seconds
    );
    println!("learning curve (timestep, mean episode reward):");
    for point in trained
        .report
        .curve
        .iter()
        .step_by((trained.report.curve.len() / 8).max(1))
    {
        println!(
            "  {:>8}  {:>8.3}",
            point.timestep, point.mean_episode_reward
        );
    }

    // Persist the learned policy so the compiler can reload it later.
    let policy_path = std::env::temp_dir().join("chehab_rl_policy.json");
    trained.agent.policy().save(&policy_path)?;
    println!("policy saved to {}", policy_path.display());

    // Use the agent inside the compiler on an unseen benchmark kernel.
    let benchmark = porcupine::dot_product(8);
    let compiler = Compiler::with_rl_agent(Arc::clone(&trained.agent));
    let compiled = compiler.compile(benchmark.id(), benchmark.program());
    println!(
        "\ncompiling {}: cost {:.1} -> {:.1} in {:?} ({} rewrites)",
        benchmark.id(),
        compiled.stats().cost_before,
        compiled.stats().cost_after,
        compiled.stats().compile_time,
        compiled.stats().optimizer_steps
    );
    let search = compiled.stats().search;
    println!(
        "search: {} actions over {} distinct states, {} policy evaluations, {} encoder rows",
        search.actions, search.distinct_states, search.policy_evaluations, search.encoded_rows
    );

    let mut inputs = HashMap::new();
    let mut expected = 0i64;
    for i in 0..8i64 {
        inputs.insert(format!("a_{i}"), i + 1);
        inputs.insert(format!("b_{i}"), i + 5);
        expected += (i + 1) * (i + 5);
    }
    let params = BfvParameters {
        payload_degree: 1024,
        ..BfvParameters::default_128()
    };
    let report = compiled.session(&params)?.run(&inputs)?;
    println!(
        "homomorphic result {} (expected {expected}); ops executed: {}",
        report.outputs[0],
        report.operation_stats.total()
    );
    assert_eq!(report.outputs[0] as i64, expected);
    Ok(())
}
