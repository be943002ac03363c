//! A privacy-preserving image-processing pipeline: Sobel gradients and a box
//! blur over an encrypted 5×5 image, compiled with the greedy optimizer and
//! compared against the Coyote-style baseline on the same BFV backend.
//!
//! This is the workload family the paper's image-processing benchmarks (Box
//! Blur, Gx, Gy, Roberts Cross) come from.
//!
//! Run with `cargo run --release --example image_pipeline`.

use chehab::benchsuite::porcupine;
use chehab::compiler::{external_compile_stats, output_slots_of, CompiledProgram, Compiler};
use chehab::coyote::{CoyoteCompiler, CoyoteConfig};
use chehab::fhe::BfvParameters;
use chehab::ir::rotation_steps;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = BfvParameters {
        payload_degree: 1024,
        ..BfvParameters::default_128()
    };
    let image_size = 5usize;

    // Encrypted 5x5 image with a bright diagonal.
    let mut inputs: HashMap<String, i64> = HashMap::new();
    for i in 0..image_size {
        for j in 0..image_size {
            let value = if i == j {
                200
            } else {
                10 + (i * image_size + j) as i64
            };
            inputs.insert(format!("img_{i}_{j}"), value);
        }
    }

    for benchmark in [
        porcupine::box_blur(image_size),
        porcupine::gx(image_size),
        porcupine::gy(image_size),
    ] {
        println!("== {}", benchmark.id());
        let program = benchmark.program();

        // CHEHAB with the greedy term-rewriting optimizer.
        let chehab = Compiler::greedy().compile(benchmark.id(), program);
        let chehab_report = chehab.session(&params)?.run(&inputs)?;

        // Coyote-style baseline: vectorize with layout search, then run the
        // resulting circuit through the same executor and backend.
        let coyote = CoyoteCompiler::with_config(CoyoteConfig {
            base_candidates: 8,
            candidates_per_op: 1,
            max_candidates: 32,
            ..CoyoteConfig::default()
        })
        .compile(program);
        let coyote_program = CompiledProgram::from_circuit(
            format!("{} (coyote)", benchmark.id()),
            coyote.circuit.clone(),
            output_slots_of(program),
            chehab::compiler::select_rotation_keys(
                &rotation_steps(&coyote.circuit)
                    .keys()
                    .copied()
                    .collect::<Vec<_>>(),
                28,
            ),
            true,
            external_compile_stats(&coyote.circuit, coyote.compile_time),
        );
        let coyote_report = coyote_program.session(&params)?.run(&inputs)?;

        assert_eq!(
            chehab_report.outputs, coyote_report.outputs,
            "both compilers must produce the same image"
        );

        println!(
            "  CHEHAB (greedy): {:>6} ops ({} rot, {} ct-pt), {:>8.1?} exec, {:>6.1} bits noise, compile {:?}",
            chehab_report.operation_stats.total(),
            chehab_report.operation_stats.rotations,
            chehab_report.operation_stats.ct_pt_multiplications,
            chehab_report.server_time,
            chehab_report.noise_budget_consumed,
            chehab.stats().compile_time,
        );
        println!(
            "  Coyote baseline: {:>6} ops ({} rot, {} ct-pt), {:>8.1?} exec, {:>6.1} bits noise, compile {:?}",
            coyote_report.operation_stats.total(),
            coyote_report.operation_stats.rotations,
            coyote_report.operation_stats.ct_pt_multiplications,
            coyote_report.server_time,
            coyote_report.noise_budget_consumed,
            coyote.compile_time,
        );
        println!(
            "  first row of the output image: {:?}\n",
            &chehab_report.outputs[..image_size.min(chehab_report.outputs.len())]
        );
    }
    Ok(())
}
