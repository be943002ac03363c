//! Lowering a circuit DAG into a flat, topologically-leveled instruction
//! schedule.
//!
//! The hash-consed [`CircuitDag`] orders nodes so operands precede uses,
//! which suffices for sequential execution. The runtime instead wants the
//! *wavefront* view: instructions grouped into levels such that every operand
//! of a level-`L` instruction is produced at a level strictly below `L` (or
//! arrives pre-bound from the client). All instructions inside one level are
//! mutually independent and can execute concurrently.
//!
//! Within a level, instructions are ordered by descending estimated cost
//! (longest-processing-time-first): combined with the runtime's shared work
//! queue this is the classic greedy bound for balancing heterogeneous ops
//! (a ct-ct multiplication costs ~100x an addition) across workers.
//!
//! Beyond the level grouping, lowering also emits the *dataflow* view the
//! barrier-free release rule
//! ([`SchedulerKind::Dataflow`](crate::SchedulerKind)) consumes: the
//! per-instruction remaining-dependency count ([`Schedule::dep_counts`]) and
//! the transpose of the operand graph ([`Schedule::dependents`]), plus each
//! instruction's critical-path priority ([`Schedule::priorities`]), priced
//! once here under the static cost model like the level order.

use chehab_ir::{BinOp, CircuitDag, CostModel, DagNode, DataKind, NodeId, OpCosts};
use std::ops::Range;
use std::time::Duration;

/// A register slot: instruction destinations and operands use the circuit
/// DAG's node ids directly, so the register file is indexed by [`NodeId`].
pub type Slot = NodeId;

/// One flat server-side instruction of a compiled circuit.
///
/// Leaves, plaintext-only subcircuits and client-packed vectors never become
/// instructions: they are bound into the register file before execution
/// starts.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Element-wise binary operation; whether the ct-ct or ct-pt backend call
    /// is issued depends on the operand registers at run time.
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand slot.
        a: Slot,
        /// Right operand slot.
        b: Slot,
    },
    /// Element-wise negation.
    Neg {
        /// Operand slot.
        a: Slot,
    },
    /// Slot rotation, already realized into the per-step key sequence of the
    /// rotation-key plan (NAF decomposition, Appendix B).
    Rot {
        /// Operand slot.
        a: Slot,
        /// The realized rotation steps, applied left to right.
        parts: Vec<i64>,
    },
    /// Run-time packing: element `i` is placed into vector slot `i` with a
    /// right rotation and accumulated with additions; plaintext elements are
    /// folded in with a single plaintext addition.
    Pack {
        /// Source slot of each vector element, in slot order.
        elems: Vec<Slot>,
        /// Whether the plaintext addition is issued: decided here, from the
        /// circuit — some element is plaintext-kind and not the constant
        /// zero — and never from a request's values, so the operation count
        /// of a schedule does not depend on its inputs.
        folds_plain: bool,
    },
}

impl Instr {
    /// The register slots this instruction reads, in operand order
    /// (duplicates preserved — `a * a` lists its operand twice).
    pub fn operands(&self) -> Vec<Slot> {
        match self {
            Instr::Bin { a, b, .. } => vec![*a, *b],
            Instr::Neg { a } | Instr::Rot { a, .. } => vec![*a],
            Instr::Pack { elems, .. } => elems.clone(),
        }
    }

    /// A short static label of the instruction's operator, used as the span
    /// name in telemetry traces (`"add"`, `"sub"`, `"mul"`, `"neg"`,
    /// `"rot"`, `"pack"`).
    pub fn label(&self) -> &'static str {
        match self {
            Instr::Bin { op: BinOp::Add, .. } => "add",
            Instr::Bin { op: BinOp::Sub, .. } => "sub",
            Instr::Bin { op: BinOp::Mul, .. } => "mul",
            Instr::Neg { .. } => "neg",
            Instr::Rot { .. } => "rot",
            Instr::Pack { .. } => "pack",
        }
    }
}

/// An instruction bound to its destination register and wavefront level.
#[derive(Debug, Clone)]
pub struct ScheduledInstr {
    /// Destination register (the circuit DAG node this computes).
    pub dst: Slot,
    /// The operation.
    pub instr: Instr,
    /// Wavefront level; every operand is produced strictly below it.
    pub level: usize,
    /// Estimated cost under the static cost model, used for load balancing.
    pub est_cost: f64,
}

/// A leveled instruction schedule for one compiled circuit.
#[derive(Debug, Clone)]
pub struct Schedule {
    instrs: Vec<ScheduledInstr>,
    levels: Vec<Range<usize>>,
    slot_count: usize,
    output: Slot,
    /// Per instruction index: number of *distinct* producer instructions
    /// among its operands (pre-bound operands contribute nothing).
    dep_counts: Vec<usize>,
    /// Per instruction index: the instruction indices that consume its
    /// destination slot — the transpose of the operand graph. Dependents
    /// always sit at strictly higher levels, hence at strictly larger
    /// indices (instructions are sorted by level).
    dependents: Vec<Vec<usize>>,
    /// Per register slot: the number of *distinct instructions* that read
    /// it — the last-use analysis backing arena-backed register files. A
    /// slot whose count reaches zero at run time (each consumer decrements
    /// once on completion) is dead: its buffers can return to the arena.
    consumer_counts: Vec<usize>,
    /// Per instruction index: its critical-path priority, `est_cost` plus
    /// the costliest chain of dependents below it.
    priorities: Vec<f64>,
}

impl Schedule {
    /// Lowers the server-side portion of a circuit DAG into a leveled
    /// schedule.
    ///
    /// `prebound` marks the register slots the client binds before execution
    /// (leaves, plaintext subcircuits, client-packed vectors); every other
    /// node becomes an instruction. `realize` maps a rotation step to the key
    /// sequence that implements it. Every instruction is priced under
    /// [`CostModel::default`]'s operator costs, which order each level and
    /// the dataflow rule's ready queues.
    pub fn lower(
        dag: &CircuitDag,
        prebound: &[bool],
        realize: impl Fn(i64) -> Vec<i64>,
    ) -> Schedule {
        assert_eq!(
            prebound.len(),
            dag.len(),
            "prebound mask must cover every node"
        );
        let kinds = data_kinds(dag);
        let costs = CostModel::default().op_costs;
        // `level_of[id]` = wavefront level producing slot `id`; pre-bound
        // slots are available before level 0.
        let mut level_of: Vec<Option<usize>> = vec![None; dag.len()];
        let mut instrs: Vec<ScheduledInstr> = Vec::new();
        for (id, node) in dag.nodes().iter().enumerate() {
            if prebound[id] {
                continue;
            }
            let level = node
                .operands()
                .into_iter()
                .map(|op| level_of[op].map_or(0, |l| l + 1))
                .max()
                .unwrap_or(0);
            level_of[id] = Some(level);
            let instr = match node {
                DagNode::CtVar(_) | DagNode::PtVar(_) | DagNode::Const(_) => {
                    unreachable!("leaves are always pre-bound")
                }
                DagNode::Bin(op, a, b) | DagNode::VecBin(op, a, b) => Instr::Bin {
                    op: *op,
                    a: *a,
                    b: *b,
                },
                DagNode::Neg(a) | DagNode::VecNeg(a) => Instr::Neg { a: *a },
                DagNode::Rot(a, step) => Instr::Rot {
                    a: *a,
                    parts: realize(*step),
                },
                DagNode::Vec(elems) => Instr::Pack {
                    elems: elems.clone(),
                    folds_plain: elems.iter().any(|&e| {
                        kinds[e] == DataKind::Plaintext
                            && !matches!(dag.nodes()[e], DagNode::Const(0))
                    }),
                },
            };
            let est_cost = est_cost(&instr, &kinds, &costs);
            instrs.push(ScheduledInstr {
                dst: id,
                instr,
                level,
                est_cost,
            });
        }

        // Group by level, longest-processing-time-first inside each level.
        instrs.sort_by(|x, y| {
            x.level
                .cmp(&y.level)
                .then(
                    y.est_cost
                        .partial_cmp(&x.est_cost)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(x.dst.cmp(&y.dst))
        });
        let mut levels: Vec<Range<usize>> = Vec::new();
        for (index, instr) in instrs.iter().enumerate() {
            if instr.level == levels.len() {
                levels.push(index..index + 1);
            } else {
                levels.last_mut().expect("levels are contiguous from 0").end = index + 1;
            }
        }
        // The dataflow view: per-instruction dependency counts and the
        // transpose of the operand graph, on the *sorted* instruction order.
        let mut instr_of_slot: Vec<Option<usize>> = vec![None; dag.len()];
        for (index, si) in instrs.iter().enumerate() {
            instr_of_slot[si.dst] = Some(index);
        }
        let mut dep_counts = vec![0usize; instrs.len()];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); instrs.len()];
        let mut consumer_counts = vec![0usize; dag.len()];
        for (index, si) in instrs.iter().enumerate() {
            let mut operands = si.instr.operands();
            // A repeated operand (e.g. squaring) is still one dependency
            // (and one consumption): the counts must match the single
            // completion event that satisfies them.
            operands.sort_unstable();
            operands.dedup();
            let mut producers = 0usize;
            for slot in operands {
                consumer_counts[slot] += 1;
                if let Some(producer) = instr_of_slot[slot] {
                    producers += 1;
                    dependents[producer].push(index);
                }
            }
            dep_counts[index] = producers;
        }
        // Dependents have strictly larger indices, so one reverse pass
        // settles every chain.
        let mut priorities = vec![0.0; instrs.len()];
        for index in (0..instrs.len()).rev() {
            let downstream = dependents[index]
                .iter()
                .map(|&d| priorities[d])
                .fold(0.0, f64::max);
            priorities[index] = instrs[index].est_cost + downstream;
        }

        Schedule {
            instrs,
            levels,
            slot_count: dag.len(),
            output: dag.output(),
            dep_counts,
            dependents,
            consumer_counts,
            priorities,
        }
    }

    /// The scheduled instructions, grouped by level and sorted by descending
    /// estimated cost within each level.
    pub fn instrs(&self) -> &[ScheduledInstr] {
        &self.instrs
    }

    /// Index ranges into [`Schedule::instrs`], one per wavefront level.
    pub fn levels(&self) -> &[Range<usize>] {
        &self.levels
    }

    /// Number of wavefront levels (the critical-path length of the
    /// server-side circuit).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Size of the register file (one slot per circuit DAG node).
    pub fn slot_count(&self) -> usize {
        self.slot_count
    }

    /// The slot holding the circuit output.
    pub fn output(&self) -> Slot {
        self.output
    }

    /// The widest level: an upper bound on exploitable intra-request
    /// parallelism, useful when picking a thread count.
    pub fn max_width(&self) -> usize {
        self.levels
            .iter()
            .map(|r| r.end - r.start)
            .max()
            .unwrap_or(0)
    }

    /// Per-instruction remaining-dependency counts: the number of distinct
    /// producer instructions among each instruction's operands. Instructions
    /// with count zero are runnable as soon as the pre-bound registers are
    /// filled.
    pub fn dep_counts(&self) -> &[usize] {
        &self.dep_counts
    }

    /// The transpose of the operand graph: `dependents()[i]` lists the
    /// instruction indices that consume instruction `i`'s destination slot.
    /// Every dependent index is strictly greater than `i`.
    pub fn dependents(&self) -> &[Vec<usize>] {
        &self.dependents
    }

    /// Per register slot: the number of distinct instructions that read it —
    /// the schedule's **last-use analysis**. Executors seed a per-slot
    /// countdown from this and decrement it once per completed consumer; the
    /// decrement that reaches zero marks the slot dead, and its buffers
    /// return to the arena (the output slot is exempt — it outlives the
    /// run). Slots nothing reads (count 0) are only the output and any
    /// pre-bound value the dead-code-eliminated circuit never touches.
    pub fn consumer_counts(&self) -> &[usize] {
        &self.consumer_counts
    }

    /// Critical-path priorities: `priorities()[i]` is the cost of the most
    /// expensive dependency chain *starting at* instruction `i` (inclusive).
    /// A dataflow pool of more than one worker pops ready instructions in
    /// descending priority order — the classic critical-path-first list
    /// scheduling heuristic.
    pub fn priorities(&self) -> &[f64] {
        &self.priorities
    }

    /// The true critical-path (barrier-free, infinitely wide) makespan of
    /// this schedule under measured per-instruction latencies: the length of
    /// the most expensive dependency chain. No release rule — leveled or
    /// dataflow — can beat this; the gap between it and a measured wall
    /// time is what barriers, the worker count and scheduling leave on the
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if `instr_times` is shorter than the instruction list.
    pub fn critical_path_makespan(&self, instr_times: &[Duration]) -> Duration {
        assert!(
            instr_times.len() >= self.instrs.len(),
            "need one duration per instruction"
        );
        let mut finish = vec![Duration::ZERO; self.instrs.len()];
        let mut ready = vec![Duration::ZERO; self.instrs.len()];
        for i in 0..self.instrs.len() {
            finish[i] = ready[i] + instr_times[i];
            for &d in &self.dependents[i] {
                ready[d] = ready[d].max(finish[i]);
            }
        }
        finish.into_iter().max().unwrap_or(Duration::ZERO)
    }
}

/// Per-node data kinds of a circuit DAG: a node is ciphertext-kind if any
/// operand (or the node itself) is encrypted.
///
/// This is the analysis code generation uses to split the circuit between
/// client-side plaintext evaluation and server-side homomorphic execution.
pub fn data_kinds(dag: &CircuitDag) -> Vec<DataKind> {
    let mut kinds = vec![DataKind::Plaintext; dag.len()];
    for (id, node) in dag.nodes().iter().enumerate() {
        kinds[id] = match node {
            DagNode::CtVar(_) => DataKind::Ciphertext,
            DagNode::PtVar(_) | DagNode::Const(_) => DataKind::Plaintext,
            _ => {
                if node
                    .operands()
                    .into_iter()
                    .any(|o| kinds[o] == DataKind::Ciphertext)
                {
                    DataKind::Ciphertext
                } else {
                    DataKind::Plaintext
                }
            }
        };
    }
    kinds
}

/// The estimated cost of one instruction under a per-operator cost table.
fn est_cost(instr: &Instr, kinds: &[DataKind], costs: &OpCosts) -> f64 {
    let is_ct = |slot: Slot| kinds[slot] == DataKind::Ciphertext;
    match instr {
        Instr::Bin { op, a, b } => match (op, is_ct(*a) && is_ct(*b)) {
            (BinOp::Mul, true) => costs.vec_mul_ct_ct,
            (BinOp::Mul, false) => costs.vec_mul_ct_pt,
            (BinOp::Add | BinOp::Sub, _) => costs.vec_add,
        },
        Instr::Neg { .. } => costs.vec_add,
        Instr::Rot { parts, .. } => parts.len().max(1) as f64 * costs.rotation,
        Instr::Pack { elems, .. } => {
            let ciphers = elems.iter().filter(|&&e| is_ct(e)).count() as f64;
            ciphers * costs.rotation + (ciphers + 1.0) * costs.vec_add
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chehab_ir::parse;

    /// Mirrors the compiler's default client-side layout: leaves, plaintext
    /// subcircuits, and leaf-only vectors (packed before encryption) are
    /// pre-bound.
    fn client_prebound(dag: &CircuitDag) -> Vec<bool> {
        let kinds = data_kinds(dag);
        dag.nodes()
            .iter()
            .enumerate()
            .map(|(id, n)| {
                n.is_leaf()
                    || kinds[id] == DataKind::Plaintext
                    || matches!(n, DagNode::Vec(elems)
                        if elems.iter().all(|&e| dag.nodes()[e].is_leaf()))
            })
            .collect()
    }

    fn schedule_of(source: &str) -> (CircuitDag, Schedule) {
        let expr = parse(source).unwrap();
        let dag = CircuitDag::from_expr(&expr).eliminate_dead_code();
        let prebound = client_prebound(&dag);
        let schedule = Schedule::lower(&dag, &prebound, |step| vec![step]);
        (dag, schedule)
    }

    #[test]
    fn operands_land_in_strictly_earlier_levels() {
        let (_, schedule) = schedule_of(
            "(VecAdd (VecAdd (VecMul (Vec a0 a1) (Vec b0 b1)) (<< (VecMul (Vec a0 a1) (Vec b0 b1)) 1)) (VecMul (Vec c0 c1) (Vec d0 d1)))",
        );
        let mut level_of = vec![usize::MAX; schedule.slot_count()];
        for si in schedule.instrs() {
            level_of[si.dst] = si.level;
        }
        for si in schedule.instrs() {
            let operands: Vec<Slot> = match &si.instr {
                Instr::Bin { a, b, .. } => vec![*a, *b],
                Instr::Neg { a } | Instr::Rot { a, .. } => vec![*a],
                Instr::Pack { elems, .. } => elems.clone(),
            };
            for op in operands {
                assert!(
                    level_of[op] == usize::MAX || level_of[op] < si.level,
                    "operand {op} of instruction at level {} must come strictly earlier",
                    si.level
                );
            }
        }
    }

    #[test]
    fn independent_multiplications_share_a_level() {
        let (_, schedule) =
            schedule_of("(VecAdd (VecMul (Vec a b) (Vec c d)) (VecMul (Vec e f) (Vec g h)))");
        // Two independent ct-ct multiplications at level 0 (vectors are
        // client-packed), one addition at level 1.
        assert_eq!(schedule.level_count(), 2);
        assert_eq!(schedule.max_width(), 2);
    }

    #[test]
    fn levels_are_sorted_by_descending_cost() {
        let (_, schedule) =
            schedule_of("(VecAdd (VecAdd (Vec a b) (Vec c d)) (VecMul (Vec e f) (Vec g h)))");
        for range in schedule.levels() {
            let costs: Vec<f64> = schedule.instrs()[range.clone()]
                .iter()
                .map(|i| i.est_cost)
                .collect();
            assert!(
                costs.windows(2).all(|w| w[0] >= w[1]),
                "level not sorted by descending cost: {costs:?}"
            );
        }
    }

    #[test]
    fn plaintext_subcircuits_produce_no_instructions() {
        let (_, schedule) = schedule_of("(VecMul (Vec a b) (Vec (+ (pt x) 1) (pt y)))");
        // Only the multiplication and the runtime pack of the plaintext
        // vector... the plaintext vector is plain-kind, so it is pre-bound:
        // one instruction total.
        assert_eq!(schedule.instrs().len(), 1);
        assert!(matches!(
            schedule.instrs()[0].instr,
            Instr::Bin { op: BinOp::Mul, .. }
        ));
    }

    #[test]
    fn rotation_parts_come_from_the_realize_callback() {
        let expr = parse("(<< (VecMul (Vec a b c d) (Vec e f g h)) 3)").unwrap();
        let dag = CircuitDag::from_expr(&expr).eliminate_dead_code();
        let prebound = client_prebound(&dag);
        let schedule = Schedule::lower(&dag, &prebound, |step| vec![4, -(4 - step)]);
        let rot = schedule
            .instrs()
            .iter()
            .find(|si| matches!(si.instr, Instr::Rot { .. }))
            .expect("rotation instruction");
        assert_eq!(
            rot.instr,
            Instr::Rot {
                a: rot_operand(&schedule),
                parts: vec![4, -1]
            }
        );
    }

    #[test]
    fn dependency_graph_transposes_the_operand_graph() {
        let (_, schedule) = schedule_of(
            "(VecAdd (VecAdd (VecMul (Vec a0 a1) (Vec b0 b1)) (<< (VecMul (Vec a0 a1) (Vec b0 b1)) 1)) (VecMul (Vec c0 c1) (Vec d0 d1)))",
        );
        let mut instr_of_slot = vec![None; schedule.slot_count()];
        for (index, si) in schedule.instrs().iter().enumerate() {
            instr_of_slot[si.dst] = Some(index);
        }
        for (index, si) in schedule.instrs().iter().enumerate() {
            let mut producers: Vec<usize> = si
                .instr
                .operands()
                .into_iter()
                .filter_map(|slot| instr_of_slot[slot])
                .collect();
            producers.sort_unstable();
            producers.dedup();
            assert_eq!(schedule.dep_counts()[index], producers.len());
            for p in producers {
                assert!(p < index, "producers precede consumers");
                assert!(
                    schedule.dependents()[p].contains(&index),
                    "transpose misses edge {p} -> {index}"
                );
            }
        }
        let edges: usize = schedule.dependents().iter().map(Vec::len).sum();
        assert_eq!(edges, schedule.dep_counts().iter().sum::<usize>());
    }

    #[test]
    fn consumer_counts_cover_every_distinct_read() {
        let (dag, schedule) = schedule_of(
            "(VecAdd (VecAdd (VecMul (Vec a0 a1) (Vec b0 b1)) (<< (VecMul (Vec a0 a1) (Vec b0 b1)) 1)) (VecMul (Vec c0 c1) (Vec d0 d1)))",
        );
        let counts = schedule.consumer_counts();
        assert_eq!(counts.len(), dag.len());
        // Recompute from scratch: distinct consuming instructions per slot.
        let mut expected = vec![0usize; dag.len()];
        for si in schedule.instrs() {
            let mut ops = si.instr.operands();
            ops.sort_unstable();
            ops.dedup();
            for slot in ops {
                expected[slot] += 1;
            }
        }
        assert_eq!(counts, &expected[..]);
        // The shared multiplication feeds both the rotation and the inner
        // addition: two distinct consumers.
        let shared_mul = schedule
            .instrs()
            .iter()
            .find(|si| si.level == 0 && matches!(si.instr, Instr::Bin { op: BinOp::Mul, .. }))
            .map(|si| si.dst)
            .expect("level-0 multiplication");
        assert_eq!(counts[shared_mul], 2);
        // Nothing consumes the output.
        assert_eq!(counts[schedule.output()], 0);
    }

    #[test]
    fn squaring_consumes_its_operand_once() {
        // The square reads the inner product twice but completes once: one
        // consumption, so the countdown matches the single completion event.
        let (_, schedule) =
            schedule_of("(VecMul (VecMul (Vec a b) (Vec c d)) (VecMul (Vec a b) (Vec c d)))");
        let inner = schedule
            .instrs()
            .iter()
            .find(|si| si.level == 0)
            .map(|si| si.dst)
            .expect("inner multiplication");
        assert_eq!(schedule.consumer_counts()[inner], 1);
    }

    #[test]
    fn repeated_operands_count_as_one_dependency() {
        // Squaring consumes the multiplication result twice but must wait
        // for exactly one completion event.
        let (_, schedule) =
            schedule_of("(VecMul (VecMul (Vec a b) (Vec c d)) (VecMul (Vec a b) (Vec c d)))");
        let square = schedule
            .instrs()
            .iter()
            .position(|si| si.level == 1)
            .expect("squaring instruction at level 1");
        assert_eq!(schedule.dep_counts()[square], 1);
    }

    #[test]
    fn priorities_decrease_along_chains() {
        let (_, schedule) = schedule_of(
            "(VecAdd (VecAdd (VecMul (Vec a0 a1) (Vec b0 b1)) (<< (VecMul (Vec a0 a1) (Vec b0 b1)) 1)) (VecMul (Vec c0 c1) (Vec d0 d1)))",
        );
        let priorities = schedule.priorities();
        for (index, deps) in schedule.dependents().iter().enumerate() {
            for &d in deps {
                assert!(
                    priorities[index] > priorities[d],
                    "priority must strictly decrease along dependency edges"
                );
            }
        }
        // Priorities equal cost + best downstream chain.
        for (index, si) in schedule.instrs().iter().enumerate() {
            let downstream = schedule.dependents()[index]
                .iter()
                .map(|&d| priorities[d])
                .fold(0.0, f64::max);
            assert!((priorities[index] - (si.est_cost + downstream)).abs() < 1e-9);
        }
    }

    /// Two chains of uneven per-level costs (mul 10 + 10 ms beside add
    /// 1 + 19 ms), joined by a 1 ms addition.
    fn uneven_chains() -> (Schedule, Vec<Duration>) {
        let (_, schedule) = schedule_of(
            "(VecAdd (VecMul (VecMul (Vec a b) (Vec c d)) (Vec e f)) (VecAdd (VecAdd (Vec g h) (Vec i j)) (Vec k l)))",
        );
        let times: Vec<Duration> = schedule
            .instrs()
            .iter()
            .map(|si| match (&si.instr, si.level) {
                (Instr::Bin { op: BinOp::Mul, .. }, _) => Duration::from_millis(10),
                (_, 0) => Duration::from_millis(1),
                (_, 1) => Duration::from_millis(19),
                _ => Duration::from_millis(1),
            })
            .collect();
        (schedule, times)
    }

    #[test]
    fn critical_path_makespan_is_the_longest_dependency_chain() {
        let (schedule, times) = uneven_chains();
        assert_eq!(schedule.level_count(), 3);
        // Both chains cost 20 ms; the final add starts at 20 -> 21 ms.
        assert_eq!(
            schedule.critical_path_makespan(&times),
            Duration::from_millis(21)
        );
    }

    fn rot_operand(schedule: &Schedule) -> Slot {
        schedule
            .instrs()
            .iter()
            .find_map(|si| match &si.instr {
                Instr::Rot { a, .. } => Some(*a),
                _ => None,
            })
            .unwrap()
    }
}
