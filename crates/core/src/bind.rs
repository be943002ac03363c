//! The client side of a session, lowered once.
//!
//! [`Schedule`] is the server side of a compiled circuit as a flat program;
//! [`BindPlan`] is the same thing for the client side. It is built once per
//! session from the circuit DAG and the schedule's last-use analysis, and
//! holds one flat recipe per **live** pre-bound register — a register some
//! instruction reads, or the circuit output:
//!
//! * a ciphertext register is one encryption of a small slot table
//!   (`slot ← input | constant`): a scalar input is the one-slot case, a
//!   client-packed vector lists its leaves;
//! * the plaintext subcircuit is one straight-line program over dense value
//!   indices, of which only the registers the server reads are published.
//!
//! What is *not* live is never computed: a ciphertext input that only feeds
//! client-packed vectors exists in the packed encryption alone, so a fully
//! vectorized kernel pays one encryption per packed vector instead of one
//! per scalar on top of that. Preparing a request resolves its name → value
//! map to a dense table once and walks the plan; there is no DAG walk, no
//! per-user register scratch and no operand copying on the request path.
//!
//! Preparation is the cheap half of binding: the plaintext program and the
//! slot vector of each ciphertext register. The encryptions themselves are
//! the first phase of the run, on the executor's workers
//! ([`chehab_runtime::RunInputs`]).

use chehab_ir::{shift_zero_fill, BinOp, CircuitDag, DagNode, DataKind, NodeId};
use chehab_runtime::{LaneGeometry, Register, RunInputs, Schedule};
use std::collections::HashMap;

/// Where one slot of an encrypted register comes from.
#[derive(Debug, Clone, Copy)]
enum SlotSource {
    /// The request's value of the interned input with this index.
    Input(usize),
    /// A circuit constant, already reduced into `[0, t)`.
    Const(i64),
}

/// One ciphertext register: `elems[i]` lands in slot `i` of each user's lane.
#[derive(Debug, Clone)]
struct CipherEntry {
    register: NodeId,
    elems: Vec<SlotSource>,
}

/// One operation of the plaintext program; operands are indices of earlier
/// steps.
#[derive(Debug, Clone)]
enum PlainOp {
    Leaf(SlotSource),
    Bin(BinOp, usize, usize),
    Neg(usize),
    Vec(Vec<usize>),
    Rot(usize, i64),
}

#[derive(Debug, Clone)]
struct PlainStep {
    op: PlainOp,
    /// The register the server reads this value from, if it reads it at all
    /// (intermediates of the plaintext subcircuit stay client-side).
    publish: Option<NodeId>,
}

/// Whether the server reads register `id`: some instruction consumes it, or
/// it is the circuit output. A pre-bound register that is not live is never
/// bound, so it takes no part in the session's lane geometry either.
pub(crate) fn is_live(schedule: &Schedule, id: NodeId) -> bool {
    schedule.consumer_counts()[id] > 0 || id == schedule.output()
}

/// The flat client-side program of one session (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct BindPlan {
    /// Interned input names; a request resolves to one value per entry.
    inputs: Vec<String>,
    plain: Vec<PlainStep>,
    /// In DAG order, which is the order their encryptions draw randomness.
    ciphers: Vec<CipherEntry>,
    register_count: usize,
    plain_modulus: i64,
}

impl BindPlan {
    /// Lowers the pre-bound registers of `dag` that `schedule` (lowered from
    /// the same `prebound` mask) actually reads.
    pub(crate) fn new(
        dag: &CircuitDag,
        kinds: &[DataKind],
        prebound: &[bool],
        schedule: &Schedule,
        plain_modulus: u64,
    ) -> Self {
        let t = plain_modulus as i64;
        let nodes = dag.nodes();
        let mut inputs: Vec<String> = Vec::new();
        let mut input_index: HashMap<&str, usize> = HashMap::new();
        let mut leaf = |id: NodeId| match &nodes[id] {
            DagNode::CtVar(name) | DagNode::PtVar(name) => {
                SlotSource::Input(*input_index.entry(name.as_str()).or_insert_with(|| {
                    inputs.push(name.as_str().to_string());
                    inputs.len() - 1
                }))
            }
            DagNode::Const(v) => SlotSource::Const(v.rem_euclid(t)),
            _ => unreachable!("only leaves are slot sources"),
        };

        let read_by_server = |id: NodeId| prebound[id] && is_live(schedule, id);
        // A plaintext node is evaluated if the server reads it or a
        // plaintext node that is evaluated reads it (operands precede uses,
        // so one reverse pass settles it).
        let mut evaluated: Vec<bool> = (0..dag.len())
            .map(|id| kinds[id] == DataKind::Plaintext && read_by_server(id))
            .collect();
        for id in (0..dag.len()).rev() {
            if evaluated[id] {
                for operand in nodes[id].operands() {
                    evaluated[operand] = true;
                }
            }
        }

        let mut step_of: Vec<usize> = vec![usize::MAX; dag.len()];
        let mut plain: Vec<PlainStep> = Vec::new();
        let mut ciphers: Vec<CipherEntry> = Vec::new();
        for (id, node) in nodes.iter().enumerate() {
            if evaluated[id] {
                let step = |operand: &NodeId| step_of[*operand];
                let op = match node {
                    DagNode::Bin(op, a, b) | DagNode::VecBin(op, a, b) => {
                        PlainOp::Bin(*op, step(a), step(b))
                    }
                    DagNode::Neg(a) | DagNode::VecNeg(a) => PlainOp::Neg(step(a)),
                    DagNode::Vec(elems) => PlainOp::Vec(elems.iter().map(step).collect()),
                    DagNode::Rot(a, by) => PlainOp::Rot(step(a), *by),
                    _ => PlainOp::Leaf(leaf(id)),
                };
                step_of[id] = plain.len();
                plain.push(PlainStep {
                    op,
                    publish: read_by_server(id).then_some(id),
                });
            } else if kinds[id] == DataKind::Ciphertext && read_by_server(id) {
                let elems = match node {
                    DagNode::Vec(elems) => elems.iter().map(|&e| leaf(e)).collect(),
                    _ => vec![leaf(id)],
                };
                ciphers.push(CipherEntry {
                    register: id,
                    elems,
                });
            }
        }
        BindPlan {
            inputs,
            plain,
            ciphers,
            register_count: dag.len(),
            plain_modulus: t,
        }
    }

    /// Encryptions one run of the plan performs, whatever the batch size.
    pub(crate) fn encryptions(&self) -> usize {
        self.ciphers.len()
    }

    /// Prepares `input_sets.len()` users for **shared** registers, user `k`
    /// based at slot `lanes.base(k)`; a missing input reads 0.
    ///
    /// Plaintext values are computed per user (plaintext semantics — `Vec`
    /// reads first slots, rotations zero-fill — are not
    /// translation-equivariant across a flattened array) and flattened at
    /// the lane bases into the returned registers. Each ciphertext register
    /// becomes **one** encryption entry with all users' values at their
    /// lane bases, which is where the batched amortization comes from;
    /// entries are in plan order, the order they draw randomness in. Every
    /// register is `window` slots long ([`LaneGeometry::window`] of this
    /// run), so the whole run computes on slot vectors of that one length.
    pub(crate) fn prepare(
        &self,
        input_sets: &[HashMap<String, i64>],
        lanes: LaneGeometry,
        window: usize,
    ) -> RunInputs {
        let t = self.plain_modulus;
        let width = self.inputs.len();
        let dense: Vec<i64> = input_sets
            .iter()
            .flat_map(|set| {
                self.inputs
                    .iter()
                    .map(move |name| set.get(name).copied().unwrap_or(0).rem_euclid(t))
            })
            .collect();
        let source = |lane: usize, source: SlotSource| match source {
            SlotSource::Input(index) => dense[lane * width + index],
            SlotSource::Const(value) => value,
        };

        // A value wider than the session's geometry allows still gets its
        // slots (and, past `n`, the encoder's `TooManyValues`).
        let last_base = lanes.base(input_sets.len() - 1);
        let mut registers: Vec<Option<Register>> = vec![None; self.register_count];
        let encryptions = self
            .ciphers
            .iter()
            .map(|entry| {
                let mut flat = vec![0; window.max(last_base + entry.elems.len())];
                for lane in 0..input_sets.len() {
                    let base = lanes.base(lane);
                    for (slot, &elem) in entry.elems.iter().enumerate() {
                        flat[base + slot] = source(lane, elem);
                    }
                }
                (entry.register, flat)
            })
            .collect();

        // `values[i]` is step `i`'s result for the current user, reused
        // across users; `published[i]` gathers it across users at the lane
        // bases.
        let mut values: Vec<Vec<i64>> = vec![Vec::new(); self.plain.len()];
        let mut published: Vec<Vec<i64>> = vec![Vec::new(); self.plain.len()];
        for lane in 0..input_sets.len() {
            for (index, step) in self.plain.iter().enumerate() {
                let (earlier, rest) = values.split_at_mut(index);
                let out = &mut rest[0];
                out.clear();
                match &step.op {
                    PlainOp::Leaf(leaf) => out.push(source(lane, *leaf)),
                    PlainOp::Bin(op, a, b) => {
                        let (x, y) = (&earlier[*a], &earlier[*b]);
                        out.extend((0..x.len().max(y.len())).map(|i| {
                            let xi = x.get(i).copied().unwrap_or(0);
                            let yi = y.get(i).copied().unwrap_or(0);
                            match op {
                                BinOp::Add => (xi + yi).rem_euclid(t),
                                BinOp::Sub => (xi - yi).rem_euclid(t),
                                BinOp::Mul => (xi as i128 * yi as i128 % t as i128) as i64,
                            }
                        }));
                    }
                    PlainOp::Neg(a) => out.extend(earlier[*a].iter().map(|&v| (-v).rem_euclid(t))),
                    PlainOp::Vec(elems) => out.extend(
                        elems
                            .iter()
                            .map(|&e| earlier[e].first().copied().unwrap_or(0)),
                    ),
                    PlainOp::Rot(a, by) => {
                        let slots: Vec<u64> = earlier[*a].iter().map(|&v| v as u64).collect();
                        out.extend(shift_zero_fill(&slots, *by).into_iter().map(|v| v as i64));
                    }
                }
                if step.publish.is_some() {
                    let gathered = &mut published[index];
                    let base = lanes.base(lane);
                    gathered.resize(window.max(last_base + out.len()), 0);
                    gathered[base..base + out.len()].copy_from_slice(out);
                }
            }
        }
        for (step, gathered) in self.plain.iter().zip(published) {
            if let Some(register) = step.publish {
                registers[register] = Some(Register::plain(gathered));
            }
        }
        RunInputs {
            registers,
            encryptions,
            ..RunInputs::default()
        }
    }
}
