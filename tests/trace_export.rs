//! Trace-export tests: a traced request must observe without perturbing —
//! outputs bit-identical to an untraced run on every benchsuite kernel —
//! and the exported Chrome-trace JSON must be well-formed: a `traceEvents`
//! array whose `ph:"X"` duration events carry the required fields and whose
//! per-track spans never overlap (each track is recorded sequentially by a
//! single thread).

use chehab::benchsuite::{self, Benchmark};
use chehab::compiler::{BatchPolicy, Compiler, ExecHooks, ExecOptions, TraceSink};
use chehab::fhe::{BfvParameters, FheError};
use serde_json::Value;
use std::collections::HashMap;
use std::sync::Arc;

fn inputs_of(benchmark: &Benchmark, seed: u64) -> HashMap<String, i64> {
    let env = benchmark.input_env(seed);
    benchmark
        .program()
        .variables()
        .into_iter()
        .map(|v| {
            let value = env.get(v.as_str()).unwrap_or(0) as i64;
            (v.to_string(), value)
        })
        .collect()
}

/// Asserts one exported Chrome-trace document is schema-conformant:
/// top-level `traceEvents` array, every event an object with `name`, `ph`,
/// `pid` and `tid`, metadata events (`ph:"M"`) naming their thread, and
/// duration events (`ph:"X"`) carrying numeric `ts`/`dur` microsecond
/// stamps and no `grant` arg. Returns the number of duration events.
fn assert_wellformed_chrome_trace(json: &str, context: &str) -> usize {
    let document: Value =
        serde_json::from_str(json).unwrap_or_else(|e| panic!("{context}: export is not JSON: {e}"));
    let events = document
        .field("traceEvents")
        .unwrap_or_else(|e| panic!("{context}: missing traceEvents: {e}"))
        .as_array("traceEvents")
        .unwrap_or_else(|e| panic!("{context}: traceEvents is not an array: {e}"));
    let mut duration_events = 0;
    for event in events {
        let field = |name: &str| {
            event
                .field(name)
                .unwrap_or_else(|e| panic!("{context}: event missing {name}: {e}"))
        };
        assert!(
            matches!(field("name"), Value::Str(_)),
            "{context}: event name is a string"
        );
        assert!(
            matches!(field("pid"), Value::UInt(_) | Value::Int(_)),
            "{context}: pid is numeric"
        );
        assert!(
            matches!(field("tid"), Value::UInt(_) | Value::Int(_)),
            "{context}: tid is numeric"
        );
        let Value::Str(ph) = field("ph") else {
            panic!("{context}: ph is a string")
        };
        match ph.as_str() {
            "M" => {
                // Metadata events name their track.
                let args = field("args");
                assert!(
                    matches!(args.field("name"), Ok(Value::Str(_))),
                    "{context}: thread_name metadata carries a name"
                );
            }
            "X" => {
                duration_events += 1;
                assert!(
                    field("args").field("grant").is_err(),
                    "{context}: a span carries no thread grant — an instruction runs on one worker"
                );
                for stamp in ["ts", "dur"] {
                    match field(stamp) {
                        Value::Float(v) => assert!(
                            v.is_finite() && *v >= 0.0,
                            "{context}: {stamp} is a finite non-negative number"
                        ),
                        Value::UInt(_) | Value::Int(_) => {}
                        other => panic!("{context}: {stamp} is not numeric: {other:?}"),
                    }
                }
            }
            other => panic!("{context}: unexpected event phase {other:?}"),
        }
    }
    duration_events
}

/// Hooks that record into a fresh sink, plus the sink to read back.
fn tracing_hooks() -> (ExecHooks, Arc<TraceSink>) {
    let sink = Arc::new(TraceSink::new());
    let hooks = ExecHooks {
        trace: Some(Arc::clone(&sink)),
        ..ExecHooks::default()
    };
    (hooks, sink)
}

/// Every benchsuite kernel, solo and as a two-user batch: a traced request
/// is bit-identical to an untraced one, the capture holds exactly three
/// session-phase spans plus one span per scheduled instruction, the
/// Chrome-trace export is well-formed, and the spans of each track are
/// strictly non-overlapping.
#[test]
fn traced_requests_are_bit_identical_and_export_wellformed_chrome_json() {
    let params = BfvParameters::insecure_test();
    for benchmark in benchsuite::full_suite() {
        let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
        let session = compiled
            .session(&params)
            .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
        for users in [1, session.batch_capacity().min(2)] {
            let context = format!("{} x{users}", benchmark.id());
            let options = ExecOptions::sequential()
                .with_threads_per_request(2)
                .with_batching(BatchPolicy::default());
            let input_sets: Vec<HashMap<String, i64>> = (0..users as u64)
                .map(|k| inputs_of(&benchmark, 97 + k))
                .collect();

            let untraced = session
                .run_batched(&input_sets, &options, &ExecHooks::default())
                .unwrap_or_else(|e| panic!("{context}: untraced run failed: {e}"));
            let steals_before = steals_total(&session.render_metrics());
            let (hooks, sink) = tracing_hooks();
            let traced = session
                .run_batched(&input_sets, &options, &hooks)
                .unwrap_or_else(|e| panic!("{context}: traced run failed: {e}"));
            drop(hooks);
            let trace = Arc::try_unwrap(sink)
                .expect("the hooks held the only other sink clone")
                .into_trace();

            // Tracing observes, never perturbs.
            for (traced, untraced) in traced.iter().zip(&untraced) {
                assert_eq!(
                    traced.outputs, untraced.outputs,
                    "{context}: tracing changed the outputs"
                );
                assert_eq!(traced.operation_stats, untraced.operation_stats);
                assert_eq!(traced.noise_budget_consumed, untraced.noise_budget_consumed);
            }
            // The request path records each execution's dataflow steals
            // exactly once, at every batch size.
            assert_eq!(
                steals_total(&session.render_metrics()) - steals_before,
                traced[0].timing.steals,
                "{context}: steals counter missed the execution"
            );

            // Span census: three session phases plus one span per
            // instruction — one execution, however many users ride it.
            let session_spans = trace.events().iter().filter(|e| e.cat == "session").count();
            let instr_spans = trace.events().iter().filter(|e| e.cat == "instr").count();
            assert_eq!(session_spans, 3, "{context}: bind/execute/decrypt");
            assert_eq!(
                instr_spans,
                session.schedule().instrs().len(),
                "{context}: one span per scheduled instruction"
            );

            // Spans on one track are recorded sequentially by a single
            // thread, so they must never overlap.
            for track in 0..trace.track_labels().len() {
                let mut previous_end = 0u64;
                for event in trace.events().iter().filter(|e| e.track == track) {
                    assert!(
                        event.start_ns >= previous_end,
                        "{context}: overlapping spans on track {track}"
                    );
                    previous_end = event.start_ns + event.dur_ns;
                }
            }

            let json = trace.to_chrome_json();
            let duration_events = assert_wellformed_chrome_trace(&json, &context);
            assert_eq!(
                duration_events,
                trace.events().len(),
                "{context}: every span exports as one ph:X event"
            );
        }
    }
}

/// A pool of one is the caller: at one thread under either release rule
/// every instruction span lies on one track, `executor worker 0`, and a
/// fault injected at the first dispatch unwinds on the calling thread — the
/// executor spawned nothing.
#[test]
fn a_pool_of_one_runs_on_the_calling_thread() {
    use chehab::compiler::{FaultPlan, SchedulerKind};
    use std::sync::Mutex;
    let benchmark = benchsuite::by_id("Dot Product 8").expect("known benchmark id");
    let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
    let session = compiled.session(&BfvParameters::insecure_test()).unwrap();
    let inputs = [inputs_of(&benchmark, 5)];

    // The panic hook runs on the panicking thread, before the executor
    // isolates the unwind: it tells which thread dispatched.
    let panicked_on = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&panicked_on);
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |_| {
        seen.lock().unwrap().push(std::thread::current().id());
    }));
    for scheduler in [SchedulerKind::Leveled, SchedulerKind::Dataflow] {
        let options = ExecOptions::sequential().with_scheduler(scheduler);
        let (hooks, sink) = tracing_hooks();
        session.run_batched(&inputs, &options, &hooks).unwrap();
        drop(hooks);
        let trace = Arc::try_unwrap(sink).unwrap().into_trace();
        let mut tracks: Vec<usize> = trace
            .events()
            .iter()
            .filter(|e| e.cat == "instr")
            .map(|e| e.track)
            .collect();
        assert_eq!(tracks.len(), session.schedule().instrs().len());
        tracks.dedup();
        assert_eq!(tracks.len(), 1, "{scheduler:?}: one track");
        assert_eq!(trace.track_labels()[tracks[0]], "executor worker 0");

        let faulted = ExecHooks {
            faults: Some(FaultPlan::panic_at(&[0])),
            ..ExecHooks::default()
        };
        let error = session
            .run_batched(&inputs, &options, &faulted)
            .expect_err("the injected panic fails the request");
        assert!(matches!(error, FheError::WorkerPanic { .. }), "{error:?}");
    }
    std::panic::set_hook(previous);
    let caller = std::thread::current().id();
    assert_eq!(*panicked_on.lock().unwrap(), vec![caller, caller]);
}

/// The trace is the report: at 1, 2 and 4 threads under both release rules,
/// every instruction span of a traced run is the report's record of that
/// instruction — on its worker's track, at the barrier plus its start
/// offset, with its span, queue wait and steal victim — and the victims
/// number the run's steals. An untraced report places every instruction
/// too: one worker's instructions are disjoint intervals inside the wall.
#[test]
fn the_trace_is_the_report() {
    use chehab::compiler::SchedulerKind;
    let benchmark = benchsuite::by_id("Box Blur 3x3").expect("known benchmark id");
    let compiled = Compiler::without_optimizer().compile(benchmark.id(), benchmark.program());
    let session = compiled.session(&BfvParameters::insecure_test()).unwrap();
    let instructions = session.schedule().instrs().len();
    let inputs = [inputs_of(&benchmark, 21)];
    let nanos = |d: std::time::Duration| u64::try_from(d.as_nanos()).unwrap();
    let cells = [SchedulerKind::Dataflow, SchedulerKind::Leveled]
        .into_iter()
        .flat_map(|rule| [1usize, 2, 4].map(move |threads| (rule, threads)));
    for (scheduler, threads) in cells {
        let context = format!("{scheduler:?} at {threads} threads");
        let options = ExecOptions::sequential()
            .with_threads_per_request(threads)
            .with_scheduler(scheduler);

        let (hooks, sink) = tracing_hooks();
        let report = session.run_batched(&inputs, &options, &hooks).unwrap();
        drop(hooks);
        let sink = Arc::try_unwrap(sink).expect("the hooks held the only other sink clone");
        let timing = &report[0].timing;
        let expected: Vec<_> = (0..instructions)
            .map(|i| {
                let track = format!("executor worker {}", timing.workers[i]);
                let start_ns = sink.offset_ns(timing.barrier + timing.starts[i]);
                let wait = Some(nanos(timing.queue_waits[i]));
                let span = nanos(timing.instr_times[i]);
                (i, track, start_ns, span, wait, timing.stolen_from[i])
            })
            .collect();
        let trace = sink.into_trace();
        let labels = trace.track_labels();
        let mut traced: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.cat == "instr")
            .map(|e| {
                let i = e.instr.expect("an instruction span names its instruction");
                let track = labels[e.track].clone();
                (
                    i,
                    track,
                    e.start_ns,
                    e.dur_ns,
                    e.queue_wait_ns,
                    e.stolen_from,
                )
            })
            .collect();
        traced.sort_unstable();
        assert_eq!(traced, expected, "{context}");
        let victims = timing.stolen_from.iter().flatten().count() as u64;
        assert_eq!(victims, timing.steals, "{context}: one victim per steal");
        for (i, victim) in timing.stolen_from.iter().enumerate() {
            let worker = timing.workers[i];
            assert_ne!(
                *victim,
                Some(worker),
                "{context}: {worker} stole from itself"
            );
        }

        let timing = session.run_parallel(&inputs[0], &options).unwrap().timing;
        let mut placed: Vec<_> = (0..instructions)
            .map(|i| {
                let start = timing.starts[i];
                (timing.workers[i], start, start + timing.instr_times[i])
            })
            .collect();
        placed.sort_unstable();
        for &(worker, _, end) in &placed {
            assert!(worker < threads, "{context}: worker {worker}");
            assert!(
                end <= timing.wall,
                "{context}: worker {worker} outlives the wall"
            );
        }
        for pair in placed.windows(2) {
            let ((worker, _, end), (next, start, _)) = (pair[0], pair[1]);
            assert!(
                worker != next || end <= start,
                "{context}: worker {worker} ran two instructions at once"
            );
        }
    }
}

/// Reads `chehab_dataflow_steals_total` out of a Prometheus text export.
fn steals_total(text: &str) -> u64 {
    text.lines()
        .find(|line| line.starts_with("chehab_dataflow_steals_total"))
        .and_then(|line| line.split_whitespace().last())
        .and_then(|value| value.parse().ok())
        .expect("steals counter is exported")
}

/// The traced serving engine records one request-level span per served job,
/// with the queue wait attached, and the capture exports as well-formed
/// Chrome-trace JSON.
#[test]
fn traced_serving_records_one_request_span_per_job() {
    let params = BfvParameters::insecure_test();
    let benchmark = benchsuite::by_id("Dot Product 8").expect("known benchmark id");
    let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
    let session = Arc::new(compiled.session(&params).unwrap());

    let requests = 9usize;
    let (hooks, sink) = tracing_hooks();
    let engine = session.serve_with(&ExecOptions::new().with_request_threads(2), &hooks);
    drop(hooks);
    let handles: Vec<_> = (0..requests)
        .map(|seed| {
            engine
                .submit(inputs_of(&benchmark, 800 + seed as u64))
                .expect("engine accepts while live")
        })
        .collect();
    for handle in handles {
        handle.wait().expect("served request succeeds");
    }
    engine.shutdown();

    let trace = Arc::try_unwrap(sink)
        .expect("engine dropped its sink clone at shutdown")
        .into_trace();
    assert_eq!(trace.events().len(), requests);
    for event in trace.events() {
        assert_eq!(event.cat, "request");
        assert!(event.queue_wait_ns.is_some(), "queue wait is attached");
    }
    // Lazily allocated tracks: between 1 and `workers` of them, all named.
    let tracks = trace.track_labels();
    assert!((1..=2).contains(&tracks.len()), "tracks: {tracks:?}");
    assert!(tracks
        .iter()
        .all(|label| label.starts_with("serving worker")));
    assert_wellformed_chrome_trace(&trace.to_chrome_json(), "serving trace");
}

/// The session's Prometheus text exposition carries the cross-request
/// batching series — the batch counter (non-zero once a batch executed) and
/// the lane-occupancy gauge — alongside the request counter.
#[test]
fn batching_metrics_surface_in_the_prometheus_exposition() {
    let params = BfvParameters::insecure_test();
    let benchmark = benchsuite::by_id("Dot Product 8").expect("known benchmark id");
    let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
    let session = compiled.session(&params).unwrap();

    // Before any batch: both series exist, the counter reads zero.
    let text = session.render_metrics();
    for series in ["chehab_batches_formed_total", "chehab_batch_lane_occupancy"] {
        assert!(text.contains(series), "missing {series}:\n{text}");
    }
    assert!(text.contains("chehab_batches_formed_total 0"));

    let options = ExecOptions::sequential().with_batching(BatchPolicy::default());
    let input_sets: Vec<HashMap<String, i64>> =
        (0..3u64).map(|k| inputs_of(&benchmark, 60 + k)).collect();
    session
        .run_batched(&input_sets, &options, &ExecHooks::default())
        .unwrap();

    let text = session.render_metrics();
    assert!(
        text.contains("chehab_batches_formed_total 1"),
        "one chunk, one batch:\n{text}"
    );
    assert!(
        text.contains("chehab_requests_served_total 3"),
        "all three users counted as served requests:\n{text}"
    );
}
