//! The timed phases of a run: the solo phase (one client, closed loop) and
//! the engine phase (closed loop through `serve`, or open loop through
//! `serve_batched`). All load comes from this process.

use crate::setup::{is_correct, serve_solo, Tally, Unit};
use crate::spans::Tracer;
use crate::stats::ms;
use crate::workloads::{OpenLoad, Solo};
use chehab_core::{CoalescerStats, ExecOptions, ExecutionReport, Histogram};
use chehab_fhe::FheError;
use chehab_runtime::RequestHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

/// When a phase stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    Requests(usize),
}

impl Stop {
    fn reached(self, started: Instant, issued: usize) -> bool {
        match self {
            Stop::After(budget) => started.elapsed() >= budget,
            Stop::Requests(count) => issued >= count,
        }
    }
}

/// One timed solo request.
#[derive(Debug, Clone, Copy)]
pub struct SoloSample {
    /// Completion time, from the start of the phase.
    pub at: Duration,
    /// The round-robin round of the phase this request belonged to.
    pub round: usize,
    pub unit: usize,
    pub wall_ms: f64,
    pub server_ms: f64,
}

#[derive(Debug, Default)]
pub struct SoloOutcome {
    /// In issue order.
    pub samples: Vec<SoloSample>,
    pub tally: Tally,
}

/// One client, closed loop, round-robin over the programs and their input
/// sets, starting at input set `first_round`. Always completes whole rounds
/// (at least one), so every program has the same number of samples.
pub fn solo_phase(
    units: &[Unit],
    solo: Solo,
    stop: Stop,
    tracer: &Tracer,
    first_request_id: u64,
    first_round: usize,
) -> SoloOutcome {
    let mut outcome = SoloOutcome::default();
    let started = Instant::now();
    let mut round = 0usize;
    while round == 0 || !stop.reached(started, round * units.len()) {
        for (index, unit) in units.iter().enumerate() {
            let set = (first_round + round) % unit.case.inputs.len();
            let Some(session) = &unit.session else {
                outcome.tally.note(false);
                continue;
            };
            let issued = Instant::now();
            let result = serve_solo(session, solo, &unit.case.inputs[set]);
            let wall = issued.elapsed();
            outcome
                .tally
                .note(is_correct(&result, &unit.case.oracle[set]));
            if let Ok(report) = result {
                let request_id = first_request_id + outcome.samples.len() as u64;
                let span = tracer.record("request", issued, wall, None, Some(request_id));
                // `server_time` is returned, not observed: the client work
                // before it (bind, encrypt) and after it (decrypt) is one
                // remainder, laid before the execute span.
                let client = wall.saturating_sub(report.server_time);
                tracer.place(
                    "core.client",
                    issued,
                    Duration::ZERO,
                    client,
                    span,
                    Some(request_id),
                );
                tracer.place(
                    "runtime.execute",
                    issued,
                    client,
                    report.server_time,
                    span,
                    Some(request_id),
                );
                outcome.samples.push(SoloSample {
                    at: started.elapsed(),
                    round,
                    unit: index,
                    wall_ms: ms(wall),
                    server_ms: ms(report.server_time),
                });
            }
        }
        round += 1;
    }
    outcome
}

/// What an engine phase measured.
#[derive(Debug, Default)]
pub struct EngineOutcome {
    /// `(completion time from the start of the phase, latency in ms)` of
    /// every correct request, in completion order.
    pub done: Vec<(Duration, f64)>,
    pub wall: Duration,
    pub correct: u64,
    pub tally: Tally,
    /// Queue-wait histogram of the serving engines (closed loop).
    pub queue_wait: Histogram,
    /// How late the open-loop generator submitted each request.
    pub generator_late_ms: Vec<f64>,
    /// Per-coalescer stats (open loop).
    pub coalescers: Vec<CoalescerStats>,
}

type Reply = Result<ExecutionReport, FheError>;

/// Closed loop: `clients` callers, each with one request outstanding, over
/// one `serve` engine per program. A caller stamps completion when its own
/// `wait` returns, so out-of-order completions are not charged to each
/// other.
pub fn closed_loop(
    units: &[Unit],
    clients: usize,
    options: &ExecOptions,
    stop: Stop,
) -> EngineOutcome {
    let engines: Vec<_> = units
        .iter()
        .map(|unit| unit.session.as_ref().map(|session| session.serve(options)))
        .collect();
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let per_client: Vec<(Vec<(Duration, f64)>, Tally)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut done: Vec<(Duration, f64)> = Vec::new();
                    let mut tally = Tally::default();
                    loop {
                        let ticket = next.fetch_add(1, Ordering::Relaxed) as usize;
                        if stop.reached(started, ticket) {
                            break;
                        }
                        let index = ticket % units.len();
                        let unit = &units[index];
                        let set = (ticket / units.len()) % unit.case.inputs.len();
                        let Some(engine) = &engines[index] else {
                            tally.note(false);
                            continue;
                        };
                        let request = unit.case.inputs[set].clone();
                        let submitted = Instant::now();
                        let reply = engine.submit(request).ok().and_then(|h| h.try_wait().ok());
                        let latency = submitted.elapsed();
                        let ok = reply.is_some_and(|r| is_correct(&r, &unit.case.oracle[set]));
                        tally.note(ok);
                        if ok {
                            done.push((started.elapsed(), ms(latency)));
                        }
                    }
                    (done, tally)
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("a closed-loop client panicked"))
            .collect()
    });
    let wall = started.elapsed();

    let mut outcome = EngineOutcome {
        wall,
        ..EngineOutcome::default()
    };
    let mut done: Vec<(Duration, f64)> = Vec::new();
    for (samples, tally) in per_client {
        done.extend(samples);
        outcome.tally.add(tally);
    }
    done.sort_by_key(|(at, _)| *at);
    outcome.correct = done.len() as u64;
    outcome.done = done;
    for engine in engines.into_iter().flatten() {
        outcome
            .queue_wait
            .merge(&engine.shutdown().latency.queue_wait);
    }
    outcome
}

/// One submitted open-loop request on its way to the collector.
struct InFlight {
    handle: RequestHandle<Reply>,
    due: Instant,
    set: usize,
}

/// Sleeps most of the way to `due`, then spins: `sleep` alone overshoots by
/// the timer slack, spinning alone would take a core from the engine.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(120);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let ahead = due - now;
        if ahead > SPIN {
            std::thread::sleep(ahead - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: seeded Poisson arrivals at `load.rate` per second for `duration`,
/// round-robin into one coalescer per program. `RequestHandle` carries no
/// completion timestamp, so each coalescer has a collector thread blocked in
/// `wait()` (a coalescer completes in submission order) that stamps
/// completion the moment `wait()` returns; latency runs from the request's
/// *due* time, so a late generator or a full queue is charged to the system.
pub fn open_loop(units: &[Unit], load: OpenLoad, duration: Duration, seed: u64) -> EngineOutcome {
    let options = ExecOptions::sequential()
        .with_batching(load.policy)
        .with_queue_capacity(load.queue_capacity);
    let coalescers: Vec<_> = units
        .iter()
        .map(|unit| {
            unit.session
                .as_ref()
                .map(|session| session.serve_batched(&options))
        })
        .collect();

    // The arrival schedule is fixed before the clock starts.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA221_7A15);
    let mut offsets: Vec<Duration> = Vec::new();
    let mut at = 0.0f64;
    loop {
        let uniform: f64 = rng.gen_range(f64::EPSILON..1.0);
        at += -uniform.ln() / load.rate;
        if at >= duration.as_secs_f64() {
            break;
        }
        offsets.push(Duration::from_secs_f64(at));
    }

    let mut outcome = EngineOutcome::default();
    let started = Instant::now();
    let collected: Vec<(Vec<(Duration, f64)>, Tally)> = std::thread::scope(|scope| {
        let (senders, collectors): (Vec<_>, Vec<_>) = units
            .iter()
            .map(|unit| {
                let (sender, receiver) = channel::<InFlight>();
                let collector = scope.spawn(move || collect(unit, receiver, started));
                (sender, collector)
            })
            .unzip();

        for (ticket, offset) in offsets.iter().enumerate() {
            let index = ticket % units.len();
            let unit = &units[index];
            let set = (ticket / units.len()) % unit.case.inputs.len();
            let request = unit.case.inputs[set].clone();
            let due = started + *offset;
            wait_until(due);
            outcome.generator_late_ms.push(ms(due.elapsed()));
            // A refusal (queue full) is a failed request, never a retry.
            match coalescers[index].as_ref().map(|c| c.try_submit(request)) {
                Some(Ok(handle)) => {
                    let _ = senders[index].send(InFlight { handle, due, set });
                }
                _ => outcome.tally.note(false),
            }
        }
        drop(senders);
        collectors
            .into_iter()
            .map(|collector| collector.join().expect("an open-loop collector panicked"))
            .collect()
    });
    outcome.wall = started.elapsed();

    let mut done: Vec<(Duration, f64)> = Vec::new();
    for (samples, tally) in collected {
        done.extend(samples);
        outcome.tally.add(tally);
    }
    done.sort_by_key(|(at, _)| *at);
    outcome.correct = done.len() as u64;
    outcome.done = done;
    outcome.coalescers = coalescers
        .into_iter()
        .flatten()
        .map(|coalescer| coalescer.shutdown())
        .collect();
    outcome
}

fn collect(
    unit: &Unit,
    inbox: Receiver<InFlight>,
    started: Instant,
) -> (Vec<(Duration, f64)>, Tally) {
    let mut done = Vec::new();
    let mut tally = Tally::default();
    for InFlight { handle, due, set } in inbox {
        let reply = handle.try_wait();
        let completed = Instant::now();
        let ok = reply.is_ok_and(|r| is_correct(&r, &unit.case.oracle[set]));
        tally.note(ok);
        if ok {
            done.push((completed - started, ms(completed - due)));
        }
    }
    (done, tally)
}
