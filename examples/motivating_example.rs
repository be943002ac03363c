//! The motivating example of Section 2: an unstructured scalar expression
//! over ten encrypted inputs, optimized three ways — not at all, with the
//! original CHEHAB greedy rewriting, and with a (quickly trained) CHEHAB RL
//! agent — and executed on the BFV backend to compare operation mixes,
//! multiplicative depth and noise consumption.
//!
//! Run with `cargo run --release --example motivating_example`.

use chehab::compiler::{
    training::{train_agent, AgentTrainingOptions},
    Compiler, DslProgram,
};
use chehab::fhe::BfvParameters;
use std::collections::HashMap;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // x = (((v1·v2)·(v3·v4)) + ((v3·v4)·(v5·v6))) · ((v7·v8)·(v9·v10))
    let mut p = DslProgram::new("motivating_example");
    let v: Vec<_> = (1..=10)
        .map(|i| p.ciphertext_input(format!("v{i}")))
        .collect();
    let x = &(&(&(&v[0] * &v[1]) * &(&v[2] * &v[3])) + &(&(&v[2] * &v[3]) * &(&v[4] * &v[5])))
        * &(&(&v[6] * &v[7]) * &(&v[8] * &v[9]));
    p.set_output(&x);
    let program = p.lower();
    println!("scalar program: {program}\n");

    let inputs: HashMap<String, i64> = (1..=10)
        .map(|i| (format!("v{i}"), i as i64 % 5 + 1))
        .collect();
    let params = BfvParameters::default_128();

    let mut configurations: Vec<(&str, Compiler)> = vec![
        ("initial (no rewriting)", Compiler::without_optimizer()),
        ("CHEHAB (greedy TRS)", Compiler::greedy()),
    ];
    println!("training a small CHEHAB RL agent (scaled-down budget)...");
    let trained = train_agent(&AgentTrainingOptions {
        timesteps: 1500,
        dataset_size: 300,
        ..AgentTrainingOptions::default()
    });
    println!(
        "trained on {} synthesized programs, {} episodes, final mean reward {:.2}\n",
        trained.dataset_size,
        trained.report.episodes,
        trained.report.final_mean_reward()
    );
    configurations.push((
        "CHEHAB RL",
        Compiler::with_rl_agent(Arc::clone(&trained.agent)),
    ));

    println!(
        "{:<24} {:>8} {:>8} {:>8} {:>8} {:>10} {:>12}",
        "configuration", "ct-ct", "ct-pt", "rot", "depth*", "noise(b)", "exec time"
    );
    let mut reference: Option<u64> = None;
    for (label, compiler) in configurations {
        let compiled = compiler.compile(label, &program);
        let report = compiled.session(&params)?.run(&inputs)?;
        let summary = compiled.stats().summary_after;
        println!(
            "{:<24} {:>8} {:>8} {:>8} {:>8} {:>10.1} {:>12?}",
            label,
            report.operation_stats.ct_ct_multiplications,
            report.operation_stats.ct_pt_multiplications,
            report.operation_stats.rotations,
            summary.multiplicative_depth,
            report.noise_budget_consumed,
            report.server_time
        );
        match reference {
            None => reference = Some(report.outputs[0]),
            Some(expected) => assert_eq!(
                report.outputs[0], expected,
                "{label} produced a different result than the naive circuit"
            ),
        }
    }
    println!("\n(depth* = multiplicative depth of the compiled circuit)");
    println!(
        "all three configurations decrypt to the same value: {}",
        reference.unwrap_or(0)
    );
    Ok(())
}
