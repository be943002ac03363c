//! Figure 5: execution time of the benchmark circuits generated by
//! CHEHAB RL and by the Coyote baseline (semi-log series in the paper),
//! plus the sequential-vs-parallel runtime comparison seeding the serving
//! perf trajectory (`BENCH_parallel_exec.json`).
//!
//! Usage: `cargo run --release -p chehab-bench --bin fig5_exec_time --
//! [--full] [--runs N] [--threads N] [--requests N] [--parallel-only]
//! [--serving] [--hotpath] [--dataflow] [--memlayout] [--trace] [--batching]
//! [--rns] [--chaos]`
//!
//! `--threads N` sets the wavefront worker count of the parallel runtime
//! comparison (default 4); `--parallel-only` skips the RL-vs-Coyote portion
//! (no agent training) and only produces the parallel comparison;
//! `--serving` instead measures amortized per-request latency under session
//! reuse vs per-call rebuild (`--requests N` requests per kernel) and writes
//! `BENCH_serving.json`; `--hotpath` re-runs the kernels (all 46 with
//! `--full`) on the current polynomial engine and reports the geomean
//! per-request wall-time improvement against the `BENCH_serving.json`
//! baseline recorded before the hot-path rewrite, writing
//! `BENCH_hotpath.json`; `--dataflow` compares the barrier-free dataflow
//! scheduler at `--threads` workers against the leveled engine's
//! `BENCH_hotpath.json` per-request baseline (projections from measured
//! per-instruction latencies, per-kernel reclaimed barrier slack), writing
//! `BENCH_dataflow.json`; `--memlayout` measures the striped
//! zero-allocation memory engine against the `BENCH_dataflow.json`
//! sequential baseline with per-kernel cold/warm allocation counts,
//! writing `BENCH_memlayout.json`; `--trace` captures one fully traced
//! request per kernel (asserting traced and untraced outputs are
//! bit-identical), writes `BENCH_trace.json` plus a sample Chrome-trace
//! capture (`results/TRACE_sample.json`, loadable in `chrome://tracing`),
//! and runs one kernel through the traced serving engine to print latency
//! percentiles and the session's Prometheus metrics text; `--batching`
//! sweeps cross-request SIMD batching (many users packed into the slot
//! lanes of shared ciphertexts, one homomorphic execution per batch) at
//! batch sizes 1, 2, 4, ... up to each kernel's lane capacity against the
//! unbatched `BENCH_serving.json` request baseline, writing
//! `BENCH_batching.json`; `--rns` runs every kernel at modulus-chain limb
//! counts 1, 2 and 3 (outputs asserted bit-identical across limb counts),
//! recording the per-limb cost scaling and the per-`k` calibrated op-cost
//! tables in `BENCH_rns.json`; `--chaos` serves every kernel's request
//! stream clean and then under a seeded fault storm (planned worker panics,
//! latency spikes, forced queue-full rejections, one explicit
//! cancellation), asserting zero hangs and bit-identical non-faulted
//! outputs, and writes the error counts and clean-vs-faulted p95 latencies
//! to `BENCH_chaos.json`.

use chehab_bench::{
    calibrate_rns_costs, load_kernel_field_baseline, load_serving_request_baseline, measure,
    measure_batching, measure_chaos, measure_dataflow, measure_hotpath, measure_memlayout,
    measure_parallel, measure_rns, measure_serving, measure_trace, ms, write_batching_json,
    write_chaos_json, write_csv, write_dataflow_json, write_hotpath_json, write_memlayout_json,
    write_parallel_json, write_rns_json, write_serving_json, write_trace_json, CompilerUnderTest,
    HarnessConfig,
};
use chehab_core::training::{train_agent, AgentTrainingOptions};
use std::sync::Arc;

fn main() {
    let config = HarnessConfig::from_args();
    let params = config.params();
    let parallel_only = std::env::args().any(|a| a == "--parallel-only");
    let serving = std::env::args().any(|a| a == "--serving");
    let hotpath = std::env::args().any(|a| a == "--hotpath");
    let dataflow = std::env::args().any(|a| a == "--dataflow");
    let memlayout = std::env::args().any(|a| a == "--memlayout");
    let trace = std::env::args().any(|a| a == "--trace");
    let batching = std::env::args().any(|a| a == "--batching");
    let rns = std::env::args().any(|a| a == "--rns");
    let chaos = std::env::args().any(|a| a == "--chaos");
    if chaos {
        chaos_comparison(&config);
        return;
    }
    if rns {
        rns_comparison(&config);
        return;
    }
    if batching {
        batching_comparison(&config);
        return;
    }
    if trace {
        trace_comparison(&config);
        return;
    }
    if memlayout {
        memlayout_comparison(&config);
        return;
    }
    if dataflow {
        dataflow_comparison(&config);
        return;
    }
    if serving {
        serving_comparison(&config);
        if hotpath {
            // Refresh-the-baseline-then-measure workflows pass both flags:
            // run the hot-path comparison against the baseline just written.
            hotpath_comparison(&config);
        }
        return;
    }
    if hotpath {
        hotpath_comparison(&config);
        return;
    }

    if !parallel_only {
        println!("== Figure 5: execution time, CHEHAB RL vs Coyote");
        let trained = train_agent(&AgentTrainingOptions {
            timesteps: config.timesteps,
            ..AgentTrainingOptions::default()
        });
        let compilers = [
            CompilerUnderTest::ChehabRl(Arc::clone(&trained.agent)),
            CompilerUnderTest::Coyote(config.coyote_config()),
        ];

        println!(
            "{:<22} {:>16} {:>16} {:>10}",
            "benchmark", "CHEHAB RL (ms)", "Coyote (ms)", "speedup"
        );
        let mut measurements = Vec::new();
        let mut rows = Vec::new();
        for benchmark in config.benchmarks() {
            let rl = measure(&benchmark, &compilers[0], &params, config.runs);
            let coyote = measure(&benchmark, &compilers[1], &params, config.runs);
            let speedup = ms(coyote.exec_time) / ms(rl.exec_time).max(1e-9);
            println!(
                "{:<22} {:>16.3} {:>16.3} {:>9.2}x",
                benchmark.id(),
                ms(rl.exec_time),
                ms(coyote.exec_time),
                speedup
            );
            rows.push(format!(
                "{},{:.3},{:.3},{:.3}",
                benchmark.id(),
                ms(rl.exec_time),
                ms(coyote.exec_time),
                speedup
            ));
            measurements.push(rl);
            measurements.push(coyote);
        }
        let _ = write_csv(
            "fig5_exec_time",
            "benchmark,chehab_rl_ms,coyote_ms,speedup",
            &rows,
        );
        chehab_bench::summarize_vs_baseline(&measurements, "CHEHAB RL", "Coyote");
    }

    // --- Parallel runtime: sequential vs wavefront execution. The raw
    // (Initial) circuits have the widest levels, the greedy-vectorized
    // circuits are the production configuration; both are recorded.
    println!(
        "\n== Parallel runtime: sequential vs {} wavefront threads ({} host CPUs; projected \
         speedup uses measured per-op latencies)",
        config.threads,
        chehab_bench::available_cpus()
    );
    println!(
        "{:<22} {:<10} {:>10} {:>10} {:>10} {:>9} {:>7} {:>7}",
        "benchmark", "compiler", "seq(ms)", "wall(ms)", "proj(ms)", "speedup", "levels", "width"
    );
    let mut parallel_measurements = Vec::new();
    for benchmark in config.benchmarks() {
        for compiler in [CompilerUnderTest::Initial, CompilerUnderTest::ChehabGreedy] {
            let m = measure_parallel(&benchmark, &compiler, &params, config.runs, config.threads);
            println!(
                "{:<22} {:<10} {:>10.3} {:>10.3} {:>10.3} {:>8.2}x {:>7} {:>7}",
                m.benchmark,
                m.compiler,
                m.sequential_ms,
                m.parallel_wall_ms,
                m.projected_parallel_ms,
                m.speedup,
                m.schedule_levels,
                m.schedule_width
            );
            parallel_measurements.push(m);
        }
    }
    match write_parallel_json(
        "BENCH_parallel_exec.json",
        config.threads,
        &parallel_measurements,
    ) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_parallel_exec.json: {e}"),
    }
}

/// The `--chaos` mode: every kernel's request stream served clean and then
/// under a seeded fault storm, asserting the engine survives with zero
/// hangs and bit-identical non-faulted outputs, written to
/// `BENCH_chaos.json` with error counts and clean-vs-faulted p95 latencies.
fn chaos_comparison(config: &HarnessConfig) {
    let params = config.params();
    let seed = 0xC4A05u64;
    // The storm panics on purpose, dozens of times; keep those out of the
    // log while leaving genuine panics (and the asserts below) loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("injected fault"))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.starts_with("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));
    println!(
        "== Chaos: {} requests per kernel, clean pass vs seeded fault storm (seed {seed:#x}: 2 \
         planned worker panics, latency spikes, 2 forced queue-full rejections, 1 explicit \
         cancellation; {} host CPUs)",
        config.requests,
        chehab_bench::available_cpus()
    );
    println!(
        "{:<22} {:>12} {:>12} {:>4} {:>8} {:>9} {:>7} {:>6}",
        "benchmark", "clean p95", "chaos p95", "ok", "panicked", "cancelled", "hangs", "exact"
    );
    let mut measurements = Vec::new();
    for benchmark in config.benchmarks() {
        let m = measure_chaos(
            &benchmark,
            &CompilerUnderTest::ChehabGreedy,
            &params,
            config.requests,
            seed,
        );
        println!(
            "{:<22} {:>10.3}ms {:>10.3}ms {:>4} {:>8} {:>9} {:>7} {:>6}",
            m.benchmark,
            m.clean_p95_ms,
            m.chaos_p95_ms,
            m.ok,
            m.panicked,
            m.cancelled,
            if m.completed_all() { 0 } else { 1 },
            if m.non_faulted_exact { "yes" } else { "NO" }
        );
        assert!(
            m.completed_all(),
            "{}: a storm request never resolved (hang)",
            m.benchmark
        );
        assert!(
            m.non_faulted_exact,
            "{}: a non-faulted storm request diverged from the clean run",
            m.benchmark
        );
        assert!(
            m.panicked <= 2,
            "{}: {} failures from 2 planned panic points",
            m.benchmark,
            m.panicked
        );
        measurements.push(m);
    }
    let total_panicked: usize = measurements.iter().map(|m| m.panicked).sum();
    let total_cancelled: usize = measurements.iter().map(|m| m.cancelled).sum();
    println!(
        "\nall {} kernels survived the storm: zero hangs, {total_panicked} isolated worker \
         panics (bounded by 2/kernel), {total_cancelled} cancellations, non-faulted outputs \
         bit-identical to the clean pass on every kernel",
        measurements.len()
    );
    match write_chaos_json("BENCH_chaos.json", config.requests, seed, &measurements) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_chaos.json: {e}"),
    }
}

/// The `--rns` mode: runs every kernel end to end at modulus-chain limb
/// counts k = 1, 2, 3, asserting decrypted outputs are bit-identical across
/// limb counts and against the plaintext reference, recording the per-limb
/// cost scaling and the per-`k` calibrated op-cost tables in
/// `BENCH_rns.json`.
fn rns_comparison(config: &HarnessConfig) {
    let params = config.params();
    let limb_counts = [1usize, 2, 3];
    println!(
        "== RNS: warm per-request latency across modulus-chain limb counts (medians over {} \
         runs, {} host CPUs; limb 0 = Goldilocks, generic limbs Barrett-reduced)",
        config.runs,
        chehab_bench::available_cpus()
    );
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>7} {:>7} {:>6} {:>8}",
        "benchmark", "k=1(ms)", "k=2(ms)", "k=3(ms)", "x@2", "x@3", "same", "correct"
    );
    let mut measurements = Vec::new();
    for benchmark in config.benchmarks() {
        let m = measure_rns(
            &benchmark,
            &CompilerUnderTest::ChehabGreedy,
            &params,
            config.runs,
            &limb_counts,
        );
        let at = |i: usize| m.points.get(i).map_or(0.0, |p| p.request_ms);
        let sc = |i: usize| m.points.get(i).map_or(0.0, |p| p.scaling_vs_k1);
        println!(
            "{:<22} {:>10.3} {:>10.3} {:>10.3} {:>6.2}x {:>6.2}x {:>6} {:>8}",
            m.benchmark,
            at(0),
            at(1),
            at(2),
            sc(1),
            sc(2),
            if m.identical_across_limbs {
                "yes"
            } else {
                "NO"
            },
            if m.correct { "yes" } else { "NO" }
        );
        measurements.push(m);
    }
    let all_identical = measurements.iter().all(|m| m.identical_across_limbs);
    let all_correct = measurements.iter().all(|m| m.correct);
    for (i, &k) in limb_counts.iter().enumerate().skip(1) {
        let scalings: Vec<f64> = measurements
            .iter()
            .filter_map(|m| m.points.get(i).map(|p| p.scaling_vs_k1))
            .collect();
        let ones = vec![1.0; scalings.len()];
        println!(
            "geomean per-request scaling at k={k}: {:.2}x over k=1 across {} kernels",
            chehab_bench::geometric_mean_ratio(&scalings, &ones),
            scalings.len()
        );
    }
    println!(
        "outputs bit-identical across limb counts on all kernels: {}; correct against the \
         plaintext reference on all kernels: {}",
        if all_identical { "yes" } else { "NO" },
        if all_correct { "yes" } else { "NO" }
    );

    let calib_iters = config.runs.max(8);
    println!("\ncalibrating per-op costs per limb count ({calib_iters} samples/op)");
    let calibrations: Vec<_> = limb_counts
        .iter()
        .map(|&k| (k, calibrate_rns_costs(&params, k, calib_iters)))
        .collect();
    for (k, costs) in &calibrations {
        println!(
            "  k={k}: vec_add {:.2}, mul_ct_ct {:.2}, mul_ct_pt {:.2}, rotation {:.2}",
            costs.vec_add, costs.vec_mul_ct_ct, costs.vec_mul_ct_pt, costs.rotation
        );
    }
    match write_rns_json("BENCH_rns.json", config.runs, &measurements, &calibrations) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_rns.json: {e}"),
    }
}

/// The `--trace` mode: one fully traced request per kernel (session phases
/// plus instruction-level spans under the dataflow scheduler), written as a
/// `BENCH_trace.json` summary and a sample Chrome-trace capture, followed
/// by one kernel served through the traced engine so the latency
/// histograms and the session metrics registry have real figures to show.
fn trace_comparison(config: &HarnessConfig) {
    use chehab_core::{ExecHooks, ExecOptions};
    let params = config.params();
    println!(
        "== Trace: one traced request per kernel, dataflow scheduler at {} workers ({} host \
         CPUs; traced vs untraced outputs asserted bit-identical)",
        config.threads,
        chehab_bench::available_cpus()
    );
    println!(
        "{:<22} {:>12} {:>8} {:>8} {:>8} {:>8}",
        "benchmark", "request(ms)", "spans", "tracks", "stolen", "correct"
    );
    let mut measurements = Vec::new();
    let mut sample: Option<(String, String)> = None;
    for benchmark in config.benchmarks() {
        let m = measure_trace(
            &benchmark,
            &CompilerUnderTest::ChehabGreedy,
            &params,
            config.threads,
        );
        println!(
            "{:<22} {:>12.3} {:>8} {:>8} {:>8} {:>8}",
            m.benchmark,
            m.request_ms,
            m.span_count,
            m.track_count,
            m.stolen_spans,
            if m.correct { "yes" } else { "NO" }
        );
        if sample.is_none() {
            sample = Some((m.benchmark.clone(), m.chrome_json.clone()));
        }
        measurements.push(m);
    }
    let all_correct = measurements.iter().all(|m| m.correct);
    let total_spans: usize = measurements.iter().map(|m| m.span_count).sum();
    println!(
        "\n{total_spans} spans across {} kernels (traced outputs bit-identical to untraced on \
         all kernels: {})",
        measurements.len(),
        if all_correct { "yes" } else { "NO" }
    );
    if let Some((name, json)) = &sample {
        if std::fs::create_dir_all("results").is_ok() {
            match std::fs::write("results/TRACE_sample.json", json) {
                Ok(()) => println!("wrote results/TRACE_sample.json ({name})"),
                Err(e) => eprintln!("failed to write results/TRACE_sample.json: {e}"),
            }
        }
    }
    match write_trace_json("BENCH_trace.json", config.threads, &measurements) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_trace.json: {e}"),
    }

    // One kernel through the traced serving engine: request-level spans plus
    // the latency histograms and metrics registry populated with real work.
    let Some(benchmark) = config.benchmarks().into_iter().next() else {
        return;
    };
    let compiled = CompilerUnderTest::ChehabGreedy.compile(&benchmark);
    let session = Arc::new(
        compiled
            .session(&params)
            .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id())),
    );
    let sink = Arc::new(chehab_core::TraceSink::new());
    let hooks = ExecHooks {
        trace: Some(Arc::clone(&sink)),
        ..ExecHooks::default()
    };
    let engine = session
        .serve_with(&ExecOptions::sequential(), &hooks)
        .into_engine();
    drop(hooks);
    let input_sets: Vec<std::collections::HashMap<String, i64>> = (0..config.requests.max(1))
        .map(|seed| {
            benchmark
                .program()
                .variables()
                .into_iter()
                .enumerate()
                .map(|(i, v)| (v.to_string(), ((seed + i) as i64 % 11) + 1))
                .collect()
        })
        .collect();
    let handles: Vec<_> = input_sets
        .iter()
        .map(|inputs| {
            engine
                .submit(inputs.clone())
                .expect("engine accepts while live")
        })
        .collect();
    for handle in handles {
        handle
            .wait()
            .unwrap_or_else(|e| panic!("{}: served request failed: {e}", benchmark.id()));
    }
    let stats = engine.shutdown();
    let pct =
        |d: Option<std::time::Duration>| d.map_or("-".to_string(), |d| format!("{:.3}", ms(d)));
    println!(
        "\nserving latency of {} over {} requests: wall p50 {} / p95 {} / p99 {} / max {} ms, \
         queue wait p50 {} ms",
        benchmark.id(),
        stats.latency.request_wall.count(),
        pct(stats.latency.request_wall.p50()),
        pct(stats.latency.request_wall.p95()),
        pct(stats.latency.request_wall.p99()),
        pct(stats.latency.request_wall.max()),
        pct(stats.latency.queue_wait.p50()),
    );
    for (label, histogram) in &stats.latency.per_op {
        println!(
            "  op {label:<6} n={:<6} p50 {} / p95 {} / max {} ms",
            histogram.count(),
            pct(histogram.p50()),
            pct(histogram.p95()),
            pct(histogram.max()),
        );
    }
    let request_spans = Arc::try_unwrap(sink)
        .map(|sink| sink.into_trace().events().len())
        .unwrap_or(0);
    println!("serving trace recorded {request_spans} request spans");
    println!("\nsession metrics:\n{}", session.render_metrics());
}

/// The `--memlayout` mode: measures each kernel's warm per-request latency
/// under the striped zero-allocation memory engine against the
/// `sequential_request_ms` baseline recorded in `BENCH_dataflow.json` (the
/// split-layout engine with per-op heap allocation), together with the
/// cold/warm arena-miss counts, writing `BENCH_memlayout.json`.
fn memlayout_comparison(config: &HarnessConfig) {
    let params = config.params();
    let baseline = load_kernel_field_baseline("BENCH_dataflow.json", "sequential_request_ms");
    if baseline.is_none() {
        println!("note: BENCH_dataflow.json not found or unparseable; measuring without baseline");
    }
    println!(
        "== Memory layout: striped payloads + arena reuse vs the BENCH_dataflow.json sequential \
         baseline ({} requests per kernel, medians over {} runs, {} host CPUs; alloc counts are \
         fresh buffer allocations per request)",
        config.requests,
        config.runs,
        chehab_bench::available_cpus()
    );
    println!(
        "{:<22} {:>12} {:>13} {:>6} {:>11} {:>11} {:>11} {:>8}",
        "benchmark",
        "request(ms)",
        "baseline(ms)",
        "impr",
        "cold allocs",
        "warm allocs",
        "warm reuses",
        "correct"
    );
    let mut measurements = Vec::new();
    for benchmark in config.benchmarks() {
        let baseline_ms = baseline
            .as_ref()
            .and_then(|b| b.get(&benchmark.id()).copied());
        let m = measure_memlayout(
            &benchmark,
            &CompilerUnderTest::ChehabGreedy,
            &params,
            config.runs,
            config.requests,
            config.threads,
            baseline_ms,
        );
        println!(
            "{:<22} {:>12.3} {:>13} {:>6} {:>11} {:>11.2} {:>11.1} {:>8}",
            m.benchmark,
            m.request_ms,
            m.baseline_request_ms
                .map_or("-".to_string(), |b| format!("{b:.3}")),
            m.improvement
                .map_or("-".to_string(), |i| format!("{i:.2}x")),
            m.cold_allocs,
            m.warm_allocs_per_request,
            m.warm_reuses_per_request,
            if m.correct { "yes" } else { "NO" }
        );
        measurements.push(m);
    }
    let improvements: Vec<f64> = measurements.iter().filter_map(|m| m.improvement).collect();
    let ones = vec![1.0; improvements.len()];
    let all_correct = measurements.iter().all(|m| m.correct);
    let zero_alloc = measurements
        .iter()
        .filter(|m| m.warm_allocs_per_request == 0.0)
        .count();
    println!(
        "\ngeomean warm per-request improvement vs the split-layout baseline: {:.2}x across \
         {}/{} kernels; {zero_alloc}/{} kernels at zero fresh allocations per warm request \
         (outputs bit-identical sequential vs {}-thread dataflow on all kernels: {})",
        chehab_bench::geometric_mean_ratio(&improvements, &ones),
        improvements.len(),
        measurements.len(),
        measurements.len(),
        config.threads,
        if all_correct { "yes" } else { "NO" }
    );
    match write_memlayout_json(
        "BENCH_memlayout.json",
        config.requests,
        config.threads,
        &measurements,
    ) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_memlayout.json: {e}"),
    }
}

/// The `--dataflow` mode: compares the barrier-free dataflow scheduler at
/// `--threads` workers against the leveled engine's per-request baseline in
/// `BENCH_hotpath.json`, writing `BENCH_dataflow.json` with per-kernel
/// makespan projections, reclaimed barrier slack and scheduler counters.
fn dataflow_comparison(config: &HarnessConfig) {
    let params = config.params();
    let baseline = load_serving_request_baseline("BENCH_hotpath.json");
    if baseline.is_none() {
        println!("note: BENCH_hotpath.json not found or unparseable; measuring without baseline");
    }
    println!(
        "== Dataflow: barrier-free scheduling at {} workers vs the leveled BENCH_hotpath.json \
         baseline ({} requests per kernel, medians over {} runs, {} host CPUs; projections from \
         measured per-instruction latencies)",
        config.threads,
        config.requests,
        config.runs,
        chehab_bench::available_cpus()
    );
    println!(
        "{:<22} {:>8} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7} {:>8}",
        "benchmark",
        "seq(ms)",
        "lvl@N(ms)",
        "dfl@N(ms)",
        "crit(ms)",
        "slack(ms)",
        "proj(ms)",
        "impr",
        "correct"
    );
    let mut measurements = Vec::new();
    for benchmark in config.benchmarks() {
        let baseline_ms = baseline
            .as_ref()
            .and_then(|b| b.get(&benchmark.id()).copied());
        let m = measure_dataflow(
            &benchmark,
            &CompilerUnderTest::ChehabGreedy,
            &params,
            config.runs,
            config.requests,
            config.threads,
            baseline_ms,
        );
        println!(
            "{:<22} {:>8.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>8.3} {:>6} {:>8}",
            m.benchmark,
            m.sequential_request_ms,
            m.leveled_projected_ms,
            m.dataflow_projected_ms,
            m.critical_path_ms,
            m.reclaimed_slack_ms,
            m.projected_request_ms,
            m.improvement
                .map_or("-".to_string(), |i| format!("{i:.2}x")),
            if m.correct { "yes" } else { "NO" }
        );
        measurements.push(m);
    }
    let improvements: Vec<f64> = measurements.iter().filter_map(|m| m.improvement).collect();
    let ones = vec![1.0; improvements.len()];
    let all_correct = measurements.iter().all(|m| m.correct);
    let total_slack: f64 = measurements.iter().map(|m| m.reclaimed_slack_ms).sum();
    println!(
        "\ngeomean projected per-request improvement vs leveled baseline: {:.2}x across {}/{} \
         kernels; {:.3}ms of barrier slack reclaimed per request stream (outputs bit-identical \
         on all kernels: {})",
        chehab_bench::geometric_mean_ratio(&improvements, &ones),
        improvements.len(),
        measurements.len(),
        total_slack,
        if all_correct { "yes" } else { "NO" }
    );
    match write_dataflow_json(
        "BENCH_dataflow.json",
        config.requests,
        config.threads,
        &measurements,
    ) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_dataflow.json: {e}"),
    }
}

/// The `--hotpath` mode: re-measures each kernel's per-request serving
/// latency on the current polynomial engine and compares it against the
/// `request_ms` recorded in `BENCH_serving.json` before the hot-path
/// rewrite, writing `BENCH_hotpath.json` with the per-kernel and geomean
/// improvements.
/// The `--batching` mode: cross-request SIMD batching sweep — amortized
/// per-request latency at batch sizes 1, 2, 4, ... up to each kernel's lane
/// capacity, against the unbatched `BENCH_serving.json` request baseline,
/// written to `BENCH_batching.json`.
fn batching_comparison(config: &HarnessConfig) {
    let params = config.params();
    let baseline = load_serving_request_baseline("BENCH_serving.json");
    if baseline.is_none() {
        println!("note: BENCH_serving.json not found or unparseable; measuring without baseline");
    }
    println!(
        "== Batching: amortized per-request latency, many users per ciphertext (medians over {} \
         runs, {} host CPUs)",
        config.runs,
        chehab_bench::available_cpus()
    );
    println!(
        "{:<22} {:>7} {:>9} {:>12} {:>12} {:>9} {:>8}",
        "benchmark", "stride", "capacity", "batch1(ms)", "best(ms)", "speedup", "correct"
    );
    let mut measurements = Vec::new();
    for benchmark in config.benchmarks() {
        let baseline_ms = baseline
            .as_ref()
            .and_then(|b| b.get(&benchmark.id()).copied());
        let m = measure_batching(
            &benchmark,
            &CompilerUnderTest::ChehabGreedy,
            &params,
            config.runs,
            baseline_ms,
        );
        println!(
            "{:<22} {:>7} {:>9} {:>12.3} {:>12.3} {:>8.2}x {:>8}",
            m.benchmark,
            m.lane_stride,
            m.batch_capacity,
            m.points[0].amortized_ms,
            m.best_amortized_ms,
            m.batching_speedup,
            if m.correct { "yes" } else { "NO" }
        );
        measurements.push(m);
    }
    let speedups: Vec<f64> = measurements.iter().map(|m| m.batching_speedup).collect();
    let wins = measurements
        .iter()
        .filter(|m| m.batching_speedup > 1.0)
        .count();
    let all_correct = measurements.iter().all(|m| m.correct);
    println!(
        "\ngeomean amortized speedup of the best batch size over batch 1: {:.2}x, batching wins \
         on {}/{} kernels (per-user outputs correct on all kernels: {})",
        chehab_bench::geometric_mean_ratio(&speedups, &vec![1.0; speedups.len()]),
        wins,
        measurements.len(),
        if all_correct { "yes" } else { "NO" }
    );
    match write_batching_json("BENCH_batching.json", config.runs, &measurements) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_batching.json: {e}"),
    }
}

fn hotpath_comparison(config: &HarnessConfig) {
    let params = config.params();
    let baseline = load_serving_request_baseline("BENCH_serving.json");
    if baseline.is_none() {
        println!("note: BENCH_serving.json not found or unparseable; measuring without baseline");
    }
    println!(
        "== Hot path: per-request wall time now vs the BENCH_serving.json baseline ({} requests \
         per kernel, medians over {} runs, {} host CPUs)",
        config.requests,
        config.runs,
        chehab_bench::available_cpus()
    );
    println!(
        "{:<22} {:>12} {:>13} {:>12} {:>8}",
        "benchmark", "request(ms)", "baseline(ms)", "improvement", "correct"
    );
    let mut measurements = Vec::new();
    for benchmark in config.benchmarks() {
        let baseline_ms = baseline
            .as_ref()
            .and_then(|b| b.get(&benchmark.id()).copied());
        let m = measure_hotpath(
            &benchmark,
            &CompilerUnderTest::ChehabGreedy,
            &params,
            config.runs,
            config.requests,
            baseline_ms,
        );
        println!(
            "{:<22} {:>12.3} {:>13} {:>12} {:>8}",
            m.benchmark,
            m.request_ms,
            m.baseline_request_ms
                .map_or("-".to_string(), |b| format!("{b:.3}")),
            m.improvement
                .map_or("-".to_string(), |i| format!("{i:.2}x")),
            if m.correct { "yes" } else { "NO" }
        );
        measurements.push(m);
    }
    let improvements: Vec<f64> = measurements.iter().filter_map(|m| m.improvement).collect();
    let ones = vec![1.0; improvements.len()];
    let all_correct = measurements.iter().all(|m| m.correct);
    println!(
        "\ngeomean per-request wall improvement vs baseline: {:.2}x across {}/{} kernels \
         (outputs correct on all kernels: {})",
        chehab_bench::geometric_mean_ratio(&improvements, &ones),
        improvements.len(),
        measurements.len(),
        if all_correct { "yes" } else { "NO" }
    );
    match write_hotpath_json("BENCH_hotpath.json", config.requests, &measurements) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_hotpath.json: {e}"),
    }
}

/// The `--serving` mode: amortized per-request latency of one persistent
/// `FheSession` + `ServingEngine` versus the historical per-call rebuild
/// shim, per kernel, written to `BENCH_serving.json`.
fn serving_comparison(config: &HarnessConfig) {
    let params = config.params();
    println!(
        "== Serving: session reuse vs per-call rebuild ({} requests per kernel, medians over {} \
         runs, {} host CPUs)",
        config.requests,
        config.runs,
        chehab_bench::available_cpus()
    );
    println!(
        "{:<22} {:>9} {:>11} {:>12} {:>12} {:>9} {:>9}",
        "benchmark", "setup(ms)", "request(ms)", "rebuild(ms)", "serving(ms)", "amort", "wall"
    );
    let mut measurements = Vec::new();
    for benchmark in config.benchmarks() {
        let m = measure_serving(
            &benchmark,
            &CompilerUnderTest::ChehabGreedy,
            &params,
            config.runs,
            config.requests,
        );
        println!(
            "{:<22} {:>9.3} {:>11.3} {:>12.3} {:>12.3} {:>8.2}x {:>8.2}x",
            m.benchmark,
            m.setup_ms,
            m.request_ms,
            m.rebuild_wall_ms,
            m.serving_wall_ms,
            m.amortized_speedup,
            m.wall_amortized_speedup
        );
        measurements.push(m);
    }
    let reuse_wins = measurements
        .iter()
        .filter(|m| m.wall_amortized_speedup > 1.0)
        .count();
    let amortized: Vec<f64> = measurements.iter().map(|m| m.amortized_speedup).collect();
    let ones = vec![1.0; amortized.len()];
    println!(
        "\nsession reuse beats per-call rebuild on {reuse_wins}/{} kernels (measured wall time; \
         geomean amortized speedup {:.2}x)",
        measurements.len(),
        chehab_bench::geometric_mean_ratio(&amortized, &ones)
    );
    match write_serving_json("BENCH_serving.json", config.requests, &measurements) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write BENCH_serving.json: {e}"),
    }
}
