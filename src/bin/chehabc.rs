//! `chehabc` — a small command-line front end for the CHEHAB compiler.
//!
//! Reads a program in the CHEHAB IR s-expression syntax (from a file or from
//! the command line), optimizes it with the selected optimizer, prints the
//! compiled circuit and its metrics, and optionally executes it
//! homomorphically with deterministic inputs.
//!
//! ```text
//! USAGE:
//!   chehabc [OPTIONS] <PROGRAM | --file PATH | --benchmark "Dot Product 8">
//!
//! OPTIONS:
//!   --optimizer greedy|none       rewriting strategy (default: greedy)
//!   --file PATH                   read the program from a file
//!   --benchmark ID                compile a built-in benchmark kernel
//!   --run                         execute the compiled circuit on the BFV backend
//!   --payload N                   payload degree of the cost simulation (default 1024)
//! ```
//!
//! Example: `cargo run --release --bin chehabc -- "(Vec (+ a b) (+ c d))" --run`

use chehab::benchsuite;
use chehab::compiler::{CompiledProgram, Compiler};
use chehab::fhe::BfvParameters;
use chehab::ir::{parse, Expr};
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage();
        return ExitCode::SUCCESS;
    }

    let value_after = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let optimizer = value_after("--optimizer").unwrap_or_else(|| "greedy".to_string());
    let run = args.iter().any(|a| a == "--run");
    let payload: usize = value_after("--payload")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1024);

    let program: Expr = match load_program(&args, &value_after) {
        Ok(p) => p,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    let compiler = match optimizer.as_str() {
        "greedy" => Compiler::greedy(),
        "none" => Compiler::without_optimizer(),
        other => {
            eprintln!("error: unknown optimizer `{other}` (expected `greedy` or `none`)");
            return ExitCode::FAILURE;
        }
    };

    let compiled = compiler.compile("cli", &program);
    print_report(&program, &compiled);

    if run {
        let inputs: HashMap<String, i64> = program
            .variables()
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v.to_string(), (i as i64 % 7) + 1))
            .collect();
        let params = BfvParameters {
            payload_degree: payload.next_power_of_two().max(8),
            ..BfvParameters::default_128()
        };
        match compiled
            .session(&params)
            .and_then(|session| session.run(&inputs))
        {
            Ok(report) => {
                println!("\n-- execution (inputs bound to 1..7 cyclically)");
                println!("outputs:            {:?}", report.outputs);
                println!("server time:        {:?}", report.server_time);
                println!(
                    "noise budget:       {:.1} bits consumed, {:.1} bits remaining",
                    report.noise_budget_consumed, report.noise_budget_remaining
                );
                println!(
                    "operations:         {} ct-ct mul, {} ct-pt mul, {} rotations, {} additions",
                    report.operation_stats.ct_ct_multiplications,
                    report.operation_stats.ct_pt_multiplications,
                    report.operation_stats.rotations,
                    report.operation_stats.additions
                );
            }
            Err(e) => {
                eprintln!("execution failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn print_usage() {
    println!("chehabc — compile CHEHAB IR programs and run them on the BFV backend\n");
    println!("usage: chehabc [OPTIONS] <PROGRAM | --file PATH | --benchmark ID>\n");
    println!("options:");
    println!("  --optimizer greedy|none   rewriting strategy (default: greedy)");
    println!("  --file PATH               read the program from a file");
    println!("  --benchmark ID            compile a built-in benchmark (e.g. \"Dot Product 8\")");
    println!("  --run                     execute the compiled circuit");
    println!("  --payload N               payload degree of the cost simulation (default 1024)");
    println!("\nexample: chehabc \"(Vec (+ a b) (+ c d))\" --run");
}

fn load_program(
    args: &[String],
    value_after: &impl Fn(&str) -> Option<String>,
) -> Result<Expr, String> {
    if let Some(path) = value_after("--file") {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
        return parse(text.trim()).map_err(|e| format!("cannot parse {path}: {e}"));
    }
    if let Some(id) = value_after("--benchmark") {
        return benchsuite::by_id(&id)
            .map(|b| b.program().clone())
            .ok_or_else(|| format!("unknown benchmark `{id}` (e.g. \"Dot Product 8\")"));
    }
    let inline = args.iter().find(|a| a.starts_with('(')).ok_or_else(|| {
        "no program given (pass an s-expression, --file or --benchmark)".to_string()
    })?;
    parse(inline).map_err(|e| format!("cannot parse program: {e}"))
}

fn print_report(program: &Expr, compiled: &CompiledProgram) {
    let stats = compiled.stats();
    println!("-- input program ({} nodes)", program.node_count());
    println!("{program}");
    println!("\n-- compiled circuit");
    println!("{}", compiled.circuit());
    println!("\n-- metrics");
    println!(
        "cost model:         {:.1} -> {:.1}",
        stats.cost_before, stats.cost_after
    );
    println!("rewrite steps:      {}", stats.optimizer_steps);
    println!(
        "search:             {} actions over {} distinct states, {} policy evaluations, {} encoder rows",
        stats.search.actions,
        stats.search.distinct_states,
        stats.search.policy_evaluations,
        stats.search.encoded_rows
    );
    println!("compile time:       {:?}", stats.compile_time);
    println!(
        "depth:              {} -> {}",
        stats.summary_before.depth, stats.summary_after.depth
    );
    println!(
        "multiplicative depth: {} -> {}",
        stats.summary_before.multiplicative_depth, stats.summary_after.multiplicative_depth
    );
    println!(
        "ct-ct muls:         {} -> {}",
        stats.summary_before.ops.ct_ct_muls(),
        stats.summary_after.ops.ct_ct_muls()
    );
    println!(
        "rotations:          {} -> {}",
        stats.summary_before.ops.rotations, stats.summary_after.ops.rotations
    );
    println!(
        "rotation keys:      {} (budget {})",
        compiled.rotation_plan().key_count(),
        compiled.rotation_plan().budget
    );
}
