//! What runs next: the scheduler state the one [`Executor`](crate::Executor)
//! worker loop pops from, and the timing breakdown a run fills in.
//!
//! A [`Schedule`] carries two views of the same circuit — topological levels
//! and the dependency graph ([`Schedule::dep_counts`] /
//! [`Schedule::dependents`]) — and a [`SchedulerKind`] is the **release
//! rule** that picks one: when does a finished instruction make others
//! runnable?
//!
//! - [`SchedulerKind::Dataflow`]: the instant an instruction's last operand
//!   is written. Released instructions go to the releasing worker's **local
//!   deque**, kept sorted by critical-path priority (the operands are hot in
//!   its cache); a shared **injector** seeds the initially-ready set. An
//!   idle worker pops its own deque from the front (highest priority), then
//!   the injector, then **steals** from the back of the richest victim's
//!   deque (the entry the victim would run last), counting every steal.
//!   Priorities are the longest remaining dependency chain under the static
//!   cost table, computed once at lowering ([`Schedule::priorities`]). A
//!   pool of one has nothing to prioritise (no order changes its wall), so
//!   it reads none and pops in schedule order — the same order, and so the
//!   same peak of live buffers, on every request.
//! - [`SchedulerKind::Leveled`]: when the whole level below has retired. A
//!   per-level countdown replaces the barrier: the worker that retires a
//!   level's last instruction injects the next level's range in schedule
//!   order — descending estimated cost, longest-processing-time-first.
//!   Nothing is released to a local deque, so nothing is ever stolen, and
//!   no priorities are read.
//!
//! Under either rule nothing is released before the run's input encryptions
//! are all published: that barrier opens the state, and `timing.wall` and
//! every instruction's recorded start are measured from it.
//!
//! Results are bit-identical to the in-order walk at every worker count,
//! rule and steal order: every homomorphic operation is a pure function of
//! its operands, and a register is written exactly once before any
//! dependent reads it.

use crate::schedule::Schedule;
use chehab_fhe::{EvaluatorStats, FheError};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The release rule of an execution: when a finished instruction makes
/// others runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Barrier-free dependency counting: an instruction becomes runnable the
    /// instant its last operand is written, and ready instructions are
    /// popped in critical-path priority order. The default.
    #[default]
    Dataflow,
    /// Level-synchronized wavefronts: a level is released when the level
    /// below has fully retired, so every level waits for its slowest
    /// instruction.
    Leveled,
}

/// Per-instruction breakdown of one execution: the executor's one record of
/// where, when and for how long every instruction ran. Every run fills every
/// field the same way under either rule.
#[derive(Debug, Clone)]
pub struct TimingBreakdown {
    /// The release rule the run executed under.
    pub scheduler: SchedulerKind,
    /// The barrier: the last input encryption published, the first
    /// instruction released. `wall` and `starts` are measured from it.
    pub barrier: Instant,
    /// Wall-clock of the server side of the run: from the barrier until
    /// every worker has finished. The input encryptions before it are the
    /// client's half of the run and are not counted.
    pub wall: Duration,
    /// Measured duration of every instruction, indexed like
    /// [`Schedule::instrs`].
    pub instr_times: Vec<Duration>,
    /// Per-instruction queue wait (from the instant the rule released the
    /// instruction to the instant a worker started running it), indexed
    /// like [`Schedule::instrs`].
    pub queue_waits: Vec<Duration>,
    /// When every instruction started, as an offset from `barrier`, indexed
    /// like [`Schedule::instrs`]: with `instr_times`, one worker's
    /// instructions are disjoint intervals inside `[0, wall]`.
    pub starts: Vec<Duration>,
    /// The worker (0 = the calling thread) that ran every instruction,
    /// indexed like [`Schedule::instrs`].
    pub workers: Vec<usize>,
    /// The worker whose local deque every instruction was stolen from, if it
    /// was, indexed like [`Schedule::instrs`].
    pub stolen_from: Vec<Option<usize>>,
    /// Ready instructions taken from another worker's local deque (always
    /// zero under [`SchedulerKind::Leveled`], which fills no local deque).
    pub steals: u64,
}

impl TimingBreakdown {
    /// A breakdown of `instructions` not yet run, under `scheduler`, with
    /// its barrier at `barrier`.
    pub(crate) fn new(scheduler: SchedulerKind, instructions: usize, barrier: Instant) -> Self {
        TimingBreakdown {
            scheduler,
            barrier,
            wall: Duration::ZERO,
            instr_times: vec![Duration::ZERO; instructions],
            queue_waits: vec![Duration::ZERO; instructions],
            starts: vec![Duration::ZERO; instructions],
            workers: vec![0; instructions],
            stolen_from: vec![None; instructions],
            steals: 0,
        }
    }

    /// Records that `worker` ran instruction `index` from `started` for
    /// `span`, after `wait` in the queues, taken from `stolen_from`'s deque
    /// if it was stolen.
    pub(crate) fn record(
        &mut self,
        index: usize,
        worker: usize,
        started: Instant,
        span: Duration,
        wait: Duration,
        stolen_from: Option<usize>,
    ) {
        self.starts[index] = started.saturating_duration_since(self.barrier);
        self.instr_times[index] = span;
        self.queue_waits[index] = wait;
        self.workers[index] = worker;
        self.stolen_from[index] = stolen_from;
    }
}

/// A ready instruction travelling through the scheduler queues.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ready {
    /// Critical-path priority (longest remaining dependency chain); unread
    /// under [`SchedulerKind::Leveled`].
    priority: f64,
    /// Index into [`Schedule::instrs`].
    pub(crate) index: usize,
    /// When the rule released the instruction (queue-wait epoch).
    since: Instant,
}

/// A popped instruction and the worker it was stolen from, if it was.
pub(crate) type Popped = (Ready, Option<usize>);

/// Everything the workers of one run share, behind one mutex: the ready
/// queues, the release rule's counters and the outcome they accumulate. FHE
/// instructions cost tens of microseconds to milliseconds, so one
/// uncontended lock per instruction is noise; correctness (no lost wakeups)
/// is what matters here.
pub(crate) struct SchedState<'a> {
    schedule: &'a Schedule,
    /// The schedule's priorities for a dataflow pool of more than one
    /// worker, else empty: an instruction past the end ranks 0.0, so an
    /// empty table pops ready instructions in schedule order.
    priorities: &'a [f64],
    /// Per-worker local deques, each sorted by descending priority (owners
    /// pop the front, thieves steal the back).
    locals: Vec<VecDeque<Ready>>,
    /// Instructions released to everyone, best at the end: the
    /// initially-ready set under dataflow, the level in flight under
    /// leveled.
    injector: Vec<Ready>,
    /// Dataflow: remaining-dependency count per instruction.
    pending: Vec<usize>,
    /// Leveled: the next level to release.
    level: usize,
    /// Leveled: instructions of the level in flight not yet retired.
    level_left: usize,
    /// Input encryptions not yet published: nothing is released before the
    /// last one is.
    inputs_left: usize,
    /// Instructions not yet retired (termination condition).
    pub(crate) remaining: usize,
    /// Workers asleep on the condvar: nobody pays the wake-up syscall when
    /// nobody waits (a pool of one never does).
    pub(crate) sleepers: usize,
    /// The first error a worker hit; once set, everyone drains and exits.
    pub(crate) failure: Option<FheError>,
    /// Homomorphic-operation counters, merged by each worker as it exits.
    pub(crate) stats: EvaluatorStats,
    /// The breakdown under construction: the barrier when it opens, an
    /// instruction's record per retirement, steals per pop, the rest per
    /// exiting worker.
    pub(crate) timing: TimingBreakdown,
}

impl<'a> SchedState<'a> {
    /// The state before any instruction ran. Once `inputs` input
    /// encryptions are published ([`SchedState::input_published`]) — at
    /// once, when there are none — what `rule` releases up front sits in the
    /// injector.
    pub(crate) fn new(
        schedule: &'a Schedule,
        rule: SchedulerKind,
        workers: usize,
        inputs: usize,
    ) -> Self {
        let n = schedule.instrs().len();
        let now = Instant::now();
        let prioritised = rule == SchedulerKind::Dataflow && workers > 1;
        let mut state = SchedState {
            schedule,
            priorities: if prioritised {
                schedule.priorities()
            } else {
                &[]
            },
            locals: (0..workers).map(|_| VecDeque::new()).collect(),
            injector: Vec::new(),
            pending: Vec::new(),
            level: 0,
            level_left: 0,
            inputs_left: inputs,
            remaining: n,
            sleepers: 0,
            failure: None,
            stats: EvaluatorStats::default(),
            timing: TimingBreakdown::new(rule, n, now),
        };
        if inputs == 0 {
            state.open(now);
        }
        state
    }

    /// Notes that one input encryption was published; the last one opens
    /// the run.
    pub(crate) fn input_published(&mut self) {
        self.inputs_left -= 1;
        if self.inputs_left == 0 {
            self.open(Instant::now());
        }
    }

    /// The barrier: releases what the rule releases up front, at `now`.
    fn open(&mut self, now: Instant) {
        self.timing.barrier = now;
        match self.timing.scheduler {
            SchedulerKind::Dataflow => {
                let n = self.schedule.instrs().len();
                self.pending = self.schedule.dep_counts().to_vec();
                self.injector = (0..n)
                    .filter(|&index| self.pending[index] == 0)
                    .map(|index| self.ready(index, now))
                    .collect();
                // Ascending, lowest index last among equals: `pop` takes the
                // best from the end.
                self.injector.sort_by(|a, b| {
                    a.priority
                        .total_cmp(&b.priority)
                        .then(b.index.cmp(&a.index))
                });
            }
            SchedulerKind::Leveled => self.release_level(now),
        }
    }

    /// Instruction `index`, released at `now`, with its priority.
    fn ready(&self, index: usize, now: Instant) -> Ready {
        Ready {
            priority: self.priorities.get(index).copied().unwrap_or(0.0),
            index,
            since: now,
        }
    }

    /// Pops the next instruction for `worker`: own deque front, then the
    /// injector (best at the end), then a steal from the back of the
    /// richest victim's deque. The second element is the steal provenance:
    /// `Some(victim)` when the instruction was taken from another worker's
    /// deque, `None` for own/injector pops — recorded by
    /// [`SchedState::retire`].
    pub(crate) fn pop(&mut self, worker: usize) -> Option<Popped> {
        let popped = if let Some(ready) = self.locals[worker].pop_front() {
            (ready, None)
        } else if let Some(ready) = self.injector.pop() {
            (ready, None)
        } else {
            let victim = self
                .locals
                .iter()
                .enumerate()
                .filter(|(v, deque)| *v != worker && !deque.is_empty())
                .max_by(|(a_idx, a), (b_idx, b)| a.len().cmp(&b.len()).then(b_idx.cmp(a_idx)))
                .map(|(v, _)| v)?;
            self.timing.steals += 1;
            (self.locals[victim].pop_back()?, Some(victim))
        };
        Some(popped)
    }

    /// Inserts a newly-ready instruction into `worker`'s deque, keeping it
    /// sorted by descending priority (front = next to run).
    fn push_local(&mut self, worker: usize, ready: Ready) {
        let deque = &mut self.locals[worker];
        let pos = deque
            .iter()
            .position(|r| {
                (r.priority, ready.index).partial_cmp(&(ready.priority, r.index))
                    == Some(std::cmp::Ordering::Less)
            })
            .unwrap_or(deque.len());
        deque.insert(pos, ready);
    }

    /// Leveled: injects the next level, if the schedule has one. Reversed,
    /// because `pop` takes from the end: the level drains in schedule
    /// order, longest-processing-time-first.
    fn release_level(&mut self, now: Instant) {
        let Some(range) = self.schedule.levels().get(self.level) else {
            return;
        };
        self.level += 1;
        self.level_left = range.len();
        self.injector.extend(range.clone().rev().map(|index| Ready {
            priority: 0.0,
            index,
            since: now,
        }));
    }

    /// Records that `worker` ran the instruction it popped as `(ready,
    /// stolen_from)` from `started` for `span`, and releases what the rule
    /// now allows: under dataflow every dependent whose count reaches zero
    /// (to `worker`'s own deque), under leveled the next level once this
    /// one has drained.
    pub(crate) fn retire(
        &mut self,
        worker: usize,
        (ready, stolen_from): Popped,
        started: Instant,
        span: Duration,
    ) {
        let index = ready.index;
        let wait = started.saturating_duration_since(ready.since);
        self.timing
            .record(index, worker, started, span, wait, stolen_from);
        self.remaining -= 1;
        let now = Instant::now();
        match self.timing.scheduler {
            SchedulerKind::Dataflow => {
                let schedule = self.schedule;
                for &dependent in &schedule.dependents()[index] {
                    self.pending[dependent] -= 1;
                    if self.pending[dependent] == 0 {
                        self.push_local(worker, self.ready(dependent, now));
                    }
                }
            }
            SchedulerKind::Leveled => {
                self.level_left -= 1;
                if self.level_left == 0 {
                    self.release_level(now);
                }
            }
        }
    }

    /// Aborts the run with `error` (the first one wins): every worker
    /// drains and exits at its next pop.
    pub(crate) fn fail(&mut self, error: FheError) {
        self.failure.get_or_insert(error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chehab_ir::{parse, CircuitDag};

    /// Two chains of different depth under one sum: three levels, the first
    /// two of them two instructions wide.
    fn two_chains() -> Schedule {
        let expr = parse(
            "(VecAdd (VecMul (VecMul (Vec a b) (Vec c d)) (Vec e f)) (VecAdd (VecAdd (Vec g h) (Vec i j)) (Vec k l)))",
        )
        .unwrap();
        let dag = CircuitDag::from_expr(&expr).eliminate_dead_code();
        let prebound: Vec<bool> = dag
            .nodes()
            .iter()
            .map(|n| n.is_leaf() || matches!(n, chehab_ir::DagNode::Vec(_)))
            .collect();
        Schedule::lower(&dag, &prebound, |step| vec![step])
    }

    #[test]
    fn local_deques_stay_priority_sorted_and_steals_take_the_back() {
        let schedule = two_chains();
        let mut st = SchedState::new(&schedule, SchedulerKind::Dataflow, 2, 0);
        while st.pop(0).is_some() {}
        let at = Instant::now();
        for (priority, index) in [(1.0, 0), (5.0, 1), (3.0, 2)] {
            st.push_local(
                0,
                Ready {
                    priority,
                    index,
                    since: at,
                },
            );
        }
        // Owner pops the highest priority (no steal provenance)...
        let (item, stolen_from) = st.pop(0).unwrap();
        assert_eq!((item.index, stolen_from), (1, None));
        // ...a thief steals the lowest-priority entry from the back, and the
        // pop reports which victim it came from.
        let (item, stolen_from) = st.pop(1).unwrap();
        assert_eq!((item.index, stolen_from), (0, Some(0)));
        assert_eq!(st.timing.steals, 1);
        // The owner keeps the middle entry.
        let (item, stolen_from) = st.pop(0).unwrap();
        assert_eq!((item.index, stolen_from), (2, None));
        assert_eq!(st.timing.steals, 1);
        assert!(st.pop(0).is_none());
    }

    /// Both release rules drain the same schedule through `pop`/`retire`:
    /// dataflow hands out an instruction once its producers retired, leveled
    /// once the whole level below did — in schedule order, with nothing left
    /// to pop while a level's last instruction is still in flight.
    #[test]
    fn each_rule_releases_an_instruction_exactly_when_it_allows() {
        let schedule = two_chains();
        let n = schedule.instrs().len();
        assert_eq!(schedule.level_count(), 3);

        for rule in [SchedulerKind::Dataflow, SchedulerKind::Leveled] {
            // Two input encryptions stand before the barrier: nothing is
            // released until the last one is published.
            let mut st = SchedState::new(&schedule, rule, 2, 2);
            st.input_published();
            assert!(st.pop(0).is_none() && st.pop(1).is_none(), "{rule:?}");
            st.input_published();
            let mut retired = vec![false; n];
            let mut order = Vec::new();
            // Two workers alternate; each holds its instruction in flight
            // until its next turn, so releases are observed one at a time.
            let mut in_flight: [Option<(Popped, Instant)>; 2] = [None, None];
            while st.remaining > 0 {
                for (worker, slot) in in_flight.iter_mut().enumerate() {
                    if let Some((popped, started)) = slot.take() {
                        let index = popped.0.index;
                        st.retire(worker, popped, started, started.elapsed());
                        retired[index] = true;
                        assert_eq!(st.timing.workers[index], worker, "{rule:?}");
                    }
                    if let Some(popped) = st.pop(worker) {
                        let item = popped.0;
                        let si = &schedule.instrs()[item.index];
                        let released = match rule {
                            SchedulerKind::Dataflow => (0..n)
                                .filter(|&p| schedule.dependents()[p].contains(&item.index))
                                .all(|p| retired[p]),
                            SchedulerKind::Leveled => schedule
                                .instrs()
                                .iter()
                                .zip(&retired)
                                .all(|(other, &done)| other.level >= si.level || done),
                        };
                        assert!(released, "{rule:?} released {} too early", item.index);
                        *slot = Some((popped, Instant::now()));
                        order.push(item.index);
                    }
                }
            }
            assert!(st.pop(0).is_none() && st.pop(1).is_none());
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "{rule:?}: once each");
            if rule == SchedulerKind::Leveled {
                // Levels drain in schedule order, and nothing is stolen.
                assert_eq!(order, (0..n).collect::<Vec<_>>());
                assert_eq!(st.timing.steals, 0);
            }
        }
    }
}
