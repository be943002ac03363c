//! Lane packing: lowering a scalar program to a vectorized circuit under a
//! fixed input layout.
//!
//! The packer computes, for a list of `(lane, scalar expression)` pairs, a
//! vector-typed IR expression whose lane `i` holds the value of expression
//! `i` and whose remaining lanes are zero. Scalar inputs are fetched from the
//! packed input vector with a rotation (when the layout slot does not match
//! the target lane) followed by a 0/1 plaintext mask; operation lanes are
//! grouped by operator and merged with vector additions.

use chehab_ir::{BinOp, Expr, Symbol};
use std::collections::HashMap;

/// The slot assignment of every distinct encrypted input inside the packed
/// input vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    slots: HashMap<Symbol, usize>,
    order: Vec<Symbol>,
}

impl Layout {
    /// Builds a layout that packs `variables` in the given order.
    pub fn new(variables: Vec<Symbol>) -> Self {
        let slots = variables
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, v)| (v, i))
            .collect();
        Layout {
            slots,
            order: variables,
        }
    }

    /// The slot of a variable.
    pub fn slot(&self, variable: &Symbol) -> Option<usize> {
        self.slots.get(variable).copied()
    }

    /// Number of packed variables.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` if the layout packs no variables.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The packed variables in slot order.
    pub fn order(&self) -> &[Symbol] {
        &self.order
    }
}

/// Statistics of one packing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PackingStats {
    /// Rotations inserted to align inputs or intermediate lanes.
    pub rotations: usize,
    /// Plaintext masks applied (each is a ciphertext–plaintext multiplication).
    pub masks: usize,
    /// Vector operations emitted.
    pub vector_ops: usize,
}

/// Lowers scalar expressions onto ciphertext lanes under a fixed [`Layout`].
#[derive(Debug)]
pub struct LanePacker {
    layout: Layout,
    width: usize,
    stats: PackingStats,
}

impl LanePacker {
    /// Creates a packer over a layout; `width` is the number of result lanes
    /// (at least the number of program outputs).
    pub fn new(layout: Layout, width: usize) -> Self {
        let width = width.max(layout.len()).max(1);
        LanePacker {
            layout,
            width,
            stats: PackingStats::default(),
        }
    }

    /// Packing statistics accumulated so far.
    pub fn stats(&self) -> PackingStats {
        self.stats
    }

    /// Builds the vector whose lane `i` holds the value of `lanes[i].1` and
    /// whose other lanes are zero.
    pub fn pack(&mut self, lanes: &[(usize, Expr)]) -> Expr {
        assert!(!lanes.is_empty(), "cannot pack zero lanes");
        // Partition lanes by the top-level construct.
        let mut leaf_lanes: Vec<(usize, Expr)> = Vec::new();
        let mut op_lanes: HashMap<BinOp, Vec<(usize, Expr)>> = HashMap::new();
        let mut neg_lanes: Vec<(usize, Expr)> = Vec::new();
        for (lane, expr) in lanes {
            match expr {
                Expr::CtVar(_) | Expr::PtVar(_) | Expr::Const(_) => {
                    leaf_lanes.push((*lane, expr.clone()))
                }
                Expr::Bin(op, _, _) => op_lanes.entry(*op).or_default().push((*lane, expr.clone())),
                Expr::Neg(_) => neg_lanes.push((*lane, expr.clone())),
                other => panic!("lane packer expects scalar expressions, found {other}"),
            }
        }

        let mut pieces: Vec<Expr> = Vec::new();
        if !leaf_lanes.is_empty() {
            pieces.push(self.pack_leaves(&leaf_lanes));
        }
        // Iterate operator groups in a fixed order so lowering is
        // deterministic (HashMap iteration order is not).
        for op in BinOp::ALL {
            if let Some(group) = op_lanes.get(&op) {
                pieces.push(self.pack_operations(op, group));
            }
        }
        if !neg_lanes.is_empty() {
            let inner: Vec<(usize, Expr)> = neg_lanes
                .iter()
                .map(|(lane, e)| match e {
                    Expr::Neg(inner) => (*lane, (**inner).clone()),
                    _ => unreachable!("partitioned as negation"),
                })
                .collect();
            let packed = self.pack(&inner);
            self.stats.vector_ops += 1;
            pieces.push(Expr::VecNeg(Box::new(packed)));
        }

        let mut iter = pieces.into_iter();
        let first = iter.next().expect("at least one piece");
        iter.fold(first, |acc, piece| {
            self.stats.vector_ops += 1;
            Expr::vec_add(acc, piece)
        })
    }

    fn pack_operations(&mut self, op: BinOp, group: &[(usize, Expr)]) -> Expr {
        let lhs: Vec<(usize, Expr)> = group
            .iter()
            .map(|(lane, e)| match e {
                Expr::Bin(_, a, _) => (*lane, (**a).clone()),
                _ => unreachable!("partitioned as binary operation"),
            })
            .collect();
        let rhs: Vec<(usize, Expr)> = group
            .iter()
            .map(|(lane, e)| match e {
                Expr::Bin(_, _, b) => (*lane, (**b).clone()),
                _ => unreachable!("partitioned as binary operation"),
            })
            .collect();
        let left = self.pack(&lhs);
        let right = self.pack(&rhs);
        self.stats.vector_ops += 1;
        let combined = Expr::VecBin(op, Box::new(left), Box::new(right));
        match op {
            // Multiplication of zero-padded lanes keeps non-group lanes at
            // zero; additions and subtractions do too (0 ± 0 = 0). When the
            // group does not cover all lanes of interest nothing further is
            // needed because sibling groups fill the other lanes.
            BinOp::Add | BinOp::Sub | BinOp::Mul => combined,
        }
    }

    /// Fetches leaf lanes: ciphertext variables come from the packed input
    /// vector via rotation + mask; constants and plaintext inputs are packed
    /// into a plaintext vector at no ciphertext cost.
    fn pack_leaves(&mut self, lanes: &[(usize, Expr)]) -> Expr {
        let mut ct_by_offset: HashMap<i64, Vec<(usize, Symbol)>> = HashMap::new();
        let mut plain_lanes: Vec<(usize, Expr)> = Vec::new();
        for (lane, expr) in lanes {
            match expr {
                Expr::CtVar(v) => {
                    let slot = self
                        .layout
                        .slot(v)
                        .unwrap_or_else(|| panic!("variable {v} missing from the layout"));
                    let offset = slot as i64 - *lane as i64;
                    ct_by_offset
                        .entry(offset)
                        .or_default()
                        .push((*lane, v.clone()));
                }
                other => plain_lanes.push((*lane, other.clone())),
            }
        }

        let mut pieces: Vec<Expr> = Vec::new();
        let input = self.padded_input();
        let mut offsets: Vec<i64> = ct_by_offset.keys().copied().collect();
        offsets.sort_unstable();
        for offset in offsets {
            let group = &ct_by_offset[&offset];
            let mut source = input.clone();
            if offset != 0 {
                self.stats.rotations += 1;
                source = Expr::rot(source, offset);
            }
            // 0/1 mask selecting exactly this group's lanes.
            let mut mask = vec![0i64; self.width];
            for (lane, _) in group {
                if *lane < self.width {
                    mask[*lane] = 1;
                }
            }
            self.stats.masks += 1;
            self.stats.vector_ops += 1;
            let mask_vec = Expr::Vec(mask.into_iter().map(Expr::constant).collect());
            pieces.push(Expr::vec_mul(source, mask_vec));
        }

        if !plain_lanes.is_empty() {
            let mut slots: Vec<Expr> = vec![Expr::constant(0); self.width];
            for (lane, expr) in &plain_lanes {
                if *lane < self.width {
                    slots[*lane] = expr.clone();
                }
            }
            pieces.push(Expr::Vec(slots));
        }

        let mut iter = pieces.into_iter();
        let first = iter.next().expect("leaf group is non-empty");
        iter.fold(first, |acc, piece| {
            self.stats.vector_ops += 1;
            Expr::vec_add(acc, piece)
        })
    }

    /// The packed input ciphertext, zero-padded so that every result lane is
    /// addressable after a rotation (padding slots are zero and never selected
    /// by the masks).
    fn padded_input(&self) -> Expr {
        let mut slots: Vec<Expr> = self
            .layout
            .order()
            .iter()
            .map(|v| Expr::CtVar(v.clone()))
            .collect();
        while slots.len() < self.width {
            slots.push(Expr::constant(0));
        }
        Expr::Vec(slots)
    }

    /// Reduces a packed vector of `terms` lanes to its lane-0 sum using
    /// rotate-and-add steps (Coyote's reduction lowering for scalar outputs).
    pub fn reduce_sum(&mut self, packed: Expr, terms: usize) -> Expr {
        let mut width = terms.next_power_of_two().max(1);
        let mut acc = packed;
        while width > 1 {
            let half = (width / 2) as i64;
            self.stats.rotations += 1;
            self.stats.vector_ops += 1;
            acc = Expr::vec_add(acc.clone(), Expr::rot(acc, half));
            width /= 2;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chehab_ir::{count_ops, equivalent_on_live_slots, parse, Env};

    fn layout_for(expr: &Expr) -> Layout {
        Layout::new(expr.variables())
    }

    #[test]
    fn layout_assigns_consecutive_slots() {
        let e = parse("(+ a (* b c))").unwrap();
        let layout = layout_for(&e);
        assert_eq!(layout.len(), 3);
        assert_eq!(layout.slot(&"a".into()), Some(0));
        assert_eq!(layout.slot(&"c".into()), Some(2));
        let order: Vec<Symbol> = ["a", "b", "c"].map(Symbol::from).into();
        assert_eq!(layout.order(), order);
    }

    #[test]
    fn packing_isomorphic_lanes_preserves_semantics() {
        let program = parse("(Vec (+ a b) (+ c d))").unwrap();
        let Expr::Vec(outputs) = program.clone() else {
            unreachable!()
        };
        let lanes: Vec<(usize, Expr)> = outputs.into_iter().enumerate().collect();
        let mut packer = LanePacker::new(layout_for(&program), 2);
        let packed = packer.pack(&lanes);
        let mut env = Env::new();
        env.bind_all(&program, |s| {
            s.as_str().bytes().map(i64::from).sum::<i64>() % 13
        });
        assert!(equivalent_on_live_slots(&program, &packed, &env, 2).unwrap());
        assert!(
            packer.stats().rotations > 0,
            "misaligned inputs require rotations"
        );
        assert!(packer.stats().masks > 0);
    }

    #[test]
    fn packing_mixed_operations_preserves_semantics() {
        let program = parse("(Vec (* a b) (+ c d) (- e f))").unwrap();
        let Expr::Vec(outputs) = program.clone() else {
            unreachable!()
        };
        let lanes: Vec<(usize, Expr)> = outputs.into_iter().enumerate().collect();
        let mut packer = LanePacker::new(layout_for(&program), 3);
        let packed = packer.pack(&lanes);
        let mut env = Env::new();
        env.bind_all(&program, |s| {
            s.as_str().bytes().map(i64::from).sum::<i64>() % 17
        });
        assert!(equivalent_on_live_slots(&program, &packed, &env, 3).unwrap());
    }

    #[test]
    fn packed_circuits_are_rotation_and_mask_heavy() {
        // The signature Coyote behaviour the evaluation relies on.
        let program = parse("(Vec (+ (* a b) c) (+ (* d e) f) (+ (* g h) i))").unwrap();
        let Expr::Vec(outputs) = program.clone() else {
            unreachable!()
        };
        let lanes: Vec<(usize, Expr)> = outputs.into_iter().enumerate().collect();
        let mut packer = LanePacker::new(layout_for(&program), 3);
        let packed = packer.pack(&lanes);
        let counts = count_ops(&packed);
        assert!(counts.rotations >= 3);
        assert!(
            counts.vec_mul_ct_pt >= 3,
            "masks show up as ct-pt multiplications"
        );
    }

    #[test]
    fn reduce_sum_collapses_lanes_into_slot_zero() {
        let program = parse("(+ (+ (* a0 b0) (* a1 b1)) (+ (* a2 b2) (* a3 b3)))").unwrap();
        let terms: Vec<(usize, Expr)> = vec![
            (0, parse("(* a0 b0)").unwrap()),
            (1, parse("(* a1 b1)").unwrap()),
            (2, parse("(* a2 b2)").unwrap()),
            (3, parse("(* a3 b3)").unwrap()),
        ];
        let mut packer = LanePacker::new(layout_for(&program), 4);
        let packed = packer.pack(&terms);
        let reduced = packer.reduce_sum(packed, 4);
        let mut env = Env::new();
        env.bind_all(&program, |s| {
            s.as_str().bytes().map(i64::from).sum::<i64>() % 19
        });
        assert!(equivalent_on_live_slots(&program, &reduced, &env, 1).unwrap());
    }

    #[test]
    fn negated_lanes_are_supported() {
        let program = parse("(Vec (- a) (- b))").unwrap();
        let Expr::Vec(outputs) = program.clone() else {
            unreachable!()
        };
        let lanes: Vec<(usize, Expr)> = outputs.into_iter().enumerate().collect();
        let mut packer = LanePacker::new(layout_for(&program), 2);
        let packed = packer.pack(&lanes);
        let mut env = Env::new();
        env.bind_all(&program, |_| 5);
        assert!(equivalent_on_live_slots(&program, &packed, &env, 2).unwrap());
    }
}
