//! The CHEHAB intermediate representation.
//!
//! A program is a single [`Expr`] tree over scalar and vector operations.
//! Scalar inputs are either encrypted ([`Expr::CtVar`]) or plaintext
//! ([`Expr::PtVar`] / [`Expr::Const`]); the rewriting system packs scalar
//! computations into vector computations ([`Expr::Vec`], [`Expr::VecAdd`],
//! [`Expr::VecMul`], ...) and introduces slot rotations ([`Expr::Rot`]).
//!
//! Rotation semantics are *zero-fill shifts over the logical slot vector*: in
//! the BFV backend every logical vector occupies the first `k` slots of an
//! `n`-slot ciphertext whose remaining slots are zero, so a cyclic ciphertext
//! rotation behaves exactly like a shift that fills with zeros (for shift
//! amounts smaller than `n - k`, which always holds here since `n` is in the
//! thousands and logical vectors have at most a few hundred slots).

use crate::symbol::Symbol;
use std::fmt;

/// The type of an IR expression: a scalar or a logical vector of a known
/// arity (number of live slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ty {
    /// A single encrypted or plaintext value.
    Scalar,
    /// A packed vector occupying the first `arity` ciphertext slots.
    Vector(usize),
}

impl Ty {
    /// Number of live slots: 1 for scalars, the arity for vectors.
    pub fn slots(self) -> usize {
        match self {
            Ty::Scalar => 1,
            Ty::Vector(k) => k,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Scalar => write!(f, "scalar"),
            Ty::Vector(k) => write!(f, "vector[{k}]"),
        }
    }
}

/// A scalar binary operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
}

impl BinOp {
    /// The s-expression spelling of the operator.
    pub fn token(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
        }
    }

    /// Vectorized counterpart of the operator (`VecAdd`, `VecSub`, `VecMul`).
    pub fn vector_token(self) -> &'static str {
        match self {
            BinOp::Add => "VecAdd",
            BinOp::Sub => "VecSub",
            BinOp::Mul => "VecMul",
        }
    }

    /// Identity element of the operation (used when padding non-isomorphic
    /// vector packs): 0 for add/sub, 1 for mul.
    pub fn identity(self) -> i64 {
        match self {
            BinOp::Add | BinOp::Sub => 0,
            BinOp::Mul => 1,
        }
    }

    /// All scalar binary operators.
    pub const ALL: [BinOp; 3] = [BinOp::Add, BinOp::Sub, BinOp::Mul];
}

/// An expression in the CHEHAB IR.
///
/// See the crate-level documentation for the slot semantics of vectors and
/// rotations (zero-fill shifts over zero-padded logical vectors).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// An encrypted scalar input.
    CtVar(Symbol),
    /// A plaintext (clear) scalar input.
    PtVar(Symbol),
    /// A plaintext integer literal.
    Const(i64),
    /// A scalar binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Scalar negation.
    Neg(Box<Expr>),
    /// Packs scalar subexpressions into the first `k` slots of a vector.
    Vec(Vec<Expr>),
    /// Element-wise binary operation on vectors.
    VecBin(BinOp, Box<Expr>, Box<Expr>),
    /// Element-wise negation of a vector.
    VecNeg(Box<Expr>),
    /// Slot rotation of a vector: positive steps shift left (`<<`), negative
    /// steps shift right (`>>`); vacated slots are filled with zero.
    Rot(Box<Expr>, i64),
}

impl Expr {
    // ----- convenience constructors ------------------------------------------------

    /// Creates an encrypted scalar variable.
    pub fn ct(name: impl Into<Symbol>) -> Expr {
        Expr::CtVar(name.into())
    }

    /// Creates a plaintext scalar variable.
    pub fn pt(name: impl Into<Symbol>) -> Expr {
        Expr::PtVar(name.into())
    }

    /// Creates an integer constant.
    pub fn constant(v: i64) -> Expr {
        Expr::Const(v)
    }

    /// `a + b` on scalars.
    #[allow(clippy::should_implement_trait)] // constructor named after the IR operator
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(a), Box::new(b))
    }

    /// `a - b` on scalars.
    #[allow(clippy::should_implement_trait)] // constructor named after the IR operator
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(a), Box::new(b))
    }

    /// `a * b` on scalars.
    #[allow(clippy::should_implement_trait)] // constructor named after the IR operator
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Mul, Box::new(a), Box::new(b))
    }

    /// `-a` on scalars.
    #[allow(clippy::should_implement_trait)] // constructor named after the IR operator
    pub fn neg(a: Expr) -> Expr {
        Expr::Neg(Box::new(a))
    }

    /// Packs scalars into a vector.
    pub fn vec(elems: Vec<Expr>) -> Expr {
        Expr::Vec(elems)
    }

    /// Element-wise `a + b` on vectors.
    pub fn vec_add(a: Expr, b: Expr) -> Expr {
        Expr::VecBin(BinOp::Add, Box::new(a), Box::new(b))
    }

    /// Element-wise `a * b` on vectors.
    pub fn vec_mul(a: Expr, b: Expr) -> Expr {
        Expr::VecBin(BinOp::Mul, Box::new(a), Box::new(b))
    }

    /// Rotates (shifts) the vector `a` left by `steps` slots (negative steps
    /// shift right), filling vacated slots with zero.
    pub fn rot(a: Expr, steps: i64) -> Expr {
        Expr::Rot(Box::new(a), steps)
    }

    // ----- structural queries -------------------------------------------------------

    /// Returns `true` for leaf nodes (variables and constants).
    pub fn is_leaf(&self) -> bool {
        matches!(self, Expr::CtVar(_) | Expr::PtVar(_) | Expr::Const(_))
    }

    /// Immutable access to the children of this node, in order.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::CtVar(_) | Expr::PtVar(_) | Expr::Const(_) => Vec::new(),
            Expr::Bin(_, a, b) | Expr::VecBin(_, a, b) => vec![a, b],
            Expr::Neg(a) | Expr::VecNeg(a) | Expr::Rot(a, _) => vec![a],
            Expr::Vec(elems) => elems.iter().collect(),
        }
    }

    /// Number of direct children.
    pub fn child_count(&self) -> usize {
        match self {
            Expr::CtVar(_) | Expr::PtVar(_) | Expr::Const(_) => 0,
            Expr::Bin(..) | Expr::VecBin(..) => 2,
            Expr::Neg(_) | Expr::VecNeg(_) | Expr::Rot(..) => 1,
            Expr::Vec(elems) => elems.len(),
        }
    }

    /// Returns the `i`-th child, if any.
    pub fn child(&self, i: usize) -> Option<&Expr> {
        match self {
            Expr::CtVar(_) | Expr::PtVar(_) | Expr::Const(_) => None,
            Expr::Bin(_, a, b) | Expr::VecBin(_, a, b) => match i {
                0 => Some(a),
                1 => Some(b),
                _ => None,
            },
            Expr::Neg(a) | Expr::VecNeg(a) | Expr::Rot(a, _) => (i == 0).then_some(a.as_ref()),
            Expr::Vec(elems) => elems.get(i),
        }
    }

    /// Rebuilds this node with new children. The number of children must
    /// match [`Expr::child_count`].
    ///
    /// # Panics
    ///
    /// Panics if `children.len() != self.child_count()`.
    pub fn with_children(&self, mut children: Vec<Expr>) -> Expr {
        assert_eq!(
            children.len(),
            self.child_count(),
            "with_children: wrong number of children for {self:?}"
        );
        match self {
            Expr::CtVar(_) | Expr::PtVar(_) | Expr::Const(_) => self.clone(),
            Expr::Bin(op, _, _) => {
                let b = children.pop().expect("two children");
                let a = children.pop().expect("two children");
                Expr::Bin(*op, Box::new(a), Box::new(b))
            }
            Expr::VecBin(op, _, _) => {
                let b = children.pop().expect("two children");
                let a = children.pop().expect("two children");
                Expr::VecBin(*op, Box::new(a), Box::new(b))
            }
            Expr::Neg(_) => Expr::Neg(Box::new(children.pop().expect("one child"))),
            Expr::VecNeg(_) => Expr::VecNeg(Box::new(children.pop().expect("one child"))),
            Expr::Rot(_, s) => Expr::Rot(Box::new(children.pop().expect("one child")), *s),
            Expr::Vec(_) => Expr::Vec(children),
        }
    }

    /// Total number of nodes in the expression tree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Visits every node in preorder (node before its children).
    pub fn for_each_preorder<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        for c in self.children() {
            c.for_each_preorder(f);
        }
    }

    /// Returns all nodes in preorder.
    pub fn preorder(&self) -> Vec<&Expr> {
        let mut out = Vec::with_capacity(16);
        self.for_each_preorder(&mut |e| out.push(e));
        out
    }

    /// Returns the subexpression at `path` (a sequence of child indices from
    /// the root), or `None` if the path is invalid.
    pub fn at_path(&self, path: &[usize]) -> Option<&Expr> {
        let mut cur = self;
        for &i in path {
            cur = cur.child(i)?;
        }
        Some(cur)
    }

    /// Returns a new expression with the subexpression at `path` replaced by
    /// `replacement`, or `None` if the path is invalid.
    pub fn replace_at(&self, path: &[usize], replacement: Expr) -> Option<Expr> {
        match path.split_first() {
            None => Some(replacement),
            Some((&i, rest)) => {
                let child = self.child(i)?;
                let new_child = child.replace_at(rest, replacement)?;
                let mut children: Vec<Expr> = self.children().into_iter().cloned().collect();
                children[i] = new_child;
                Some(self.with_children(children))
            }
        }
    }

    /// Visits every node in preorder together with its path (child indices
    /// from the root). The path slice is only valid during the call, so a
    /// visitor pays for a copy only where it keeps one.
    pub fn for_each_path<'a>(&'a self, f: &mut impl FnMut(&[usize], &'a Expr)) {
        fn go<'a>(e: &'a Expr, prefix: &mut Vec<usize>, f: &mut impl FnMut(&[usize], &'a Expr)) {
            f(prefix, e);
            for (i, c) in e.children().into_iter().enumerate() {
                prefix.push(i);
                go(c, prefix, f);
                prefix.pop();
            }
        }
        go(self, &mut Vec::new(), f);
    }

    /// Enumerates the paths of all nodes in preorder, pairing each path with
    /// the node it addresses.
    pub fn paths(&self) -> Vec<(Vec<usize>, &Expr)> {
        let mut out = Vec::with_capacity(self.node_count());
        self.for_each_path(&mut |path, e| out.push((path.to_vec(), e)));
        out
    }

    /// The set of distinct variable names (ciphertext and plaintext) used by
    /// the expression, in order of first occurrence.
    pub fn variables(&self) -> Vec<Symbol> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        self.for_each_preorder(&mut |e| {
            if let Expr::CtVar(s) | Expr::PtVar(s) = e {
                if seen.insert(s.clone()) {
                    out.push(s.clone());
                }
            }
        });
        out
    }

    /// Returns `true` if any subexpression is or contains an encrypted input.
    ///
    /// Subexpressions with no ciphertext inputs are plaintext-only and can be
    /// folded by the compiler or multiplied into ciphertexts as ct-pt
    /// operations.
    pub fn contains_ciphertext(&self) -> bool {
        let mut found = false;
        self.for_each_preorder(&mut |e| {
            if matches!(e, Expr::CtVar(_)) {
                found = true;
            }
        });
        found
    }

    // ----- typing -------------------------------------------------------------------

    /// Infers the type of the expression.
    ///
    /// Element-wise vector operations accept operands of different arities;
    /// the shorter operand is implicitly zero-padded (which is exactly what
    /// the zero-padded ciphertext representation does), so the result arity
    /// is the maximum of the operand arities.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if a scalar operator is applied to a vector,
    /// a vector operator to a scalar, a rotation to a scalar, or a `Vec`
    /// constructor contains a non-scalar element.
    pub fn ty(&self) -> Result<Ty, TypeError> {
        let former = match self {
            Expr::CtVar(_) | Expr::PtVar(_) | Expr::Const(_) => Former::Leaf,
            Expr::Bin(op, _, _) => Former::Bin(*op),
            Expr::Neg(_) => Former::Neg,
            Expr::Vec(_) => Former::Vec,
            Expr::VecBin(op, _, _) => Former::VecBin(*op),
            Expr::VecNeg(_) => Former::VecNeg,
            Expr::Rot(_, _) => Former::Rot,
        };
        type_of(former, (0..).map_while(|i| self.child(i)).map(Expr::ty))
    }

    /// Returns `true` if the expression type-checks.
    pub fn is_well_typed(&self) -> bool {
        self.ty().is_ok()
    }
}

/// What typing reads of a node: its constructor, without its operands.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Former {
    Leaf,
    Bin(BinOp),
    Neg,
    Vec,
    VecBin(BinOp),
    VecNeg,
    Rot,
}

/// The type of a node built by `former` from operands whose types
/// `operands` yields in order: the one typing rule of [`Expr::ty`] and
/// [`TermGraph::ty`](crate::TermGraph::ty). An operand's type is read only
/// when the rule reaches it, so the first error in preorder wins.
pub(crate) fn type_of(
    former: Former,
    mut operands: impl Iterator<Item = Result<Ty, TypeError>>,
) -> Result<Ty, TypeError> {
    let mut next = || operands.next().expect("an operand per the former's arity");
    match former {
        Former::Leaf => Ok(Ty::Scalar),
        Former::Bin(op) => match (next()?, next()?) {
            (Ty::Scalar, Ty::Scalar) => Ok(Ty::Scalar),
            _ => Err(TypeError::ScalarOpOnVector { op }),
        },
        Former::Neg => match next()? {
            Ty::Scalar => Ok(Ty::Scalar),
            Ty::Vector(_) => Err(TypeError::ScalarNegOnVector),
        },
        Former::Vec => {
            let mut len = 0;
            for element in operands {
                if element? != Ty::Scalar {
                    return Err(TypeError::NestedVector);
                }
                len += 1;
            }
            match len {
                0 => Err(TypeError::EmptyVec),
                len => Ok(Ty::Vector(len)),
            }
        }
        Former::VecBin(op) => match (next()?, next()?) {
            (Ty::Vector(x), Ty::Vector(y)) => Ok(Ty::Vector(x.max(y))),
            _ => Err(TypeError::VectorOpOnScalar { op }),
        },
        Former::VecNeg => match next()? {
            Ty::Vector(k) => Ok(Ty::Vector(k)),
            Ty::Scalar => Err(TypeError::VectorNegOnScalar),
        },
        Former::Rot => match next()? {
            Ty::Vector(k) => Ok(Ty::Vector(k)),
            Ty::Scalar => Err(TypeError::RotationOnScalar),
        },
    }
}

/// Errors produced by [`Expr::ty`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeError {
    /// A scalar binary operator was applied to a vector operand.
    ScalarOpOnVector {
        /// The offending operator.
        op: BinOp,
    },
    /// Scalar negation was applied to a vector operand.
    ScalarNegOnVector,
    /// A vector binary operator was applied to a scalar operand.
    VectorOpOnScalar {
        /// The offending operator.
        op: BinOp,
    },
    /// Vector negation was applied to a scalar operand.
    VectorNegOnScalar,
    /// A rotation was applied to a scalar operand.
    RotationOnScalar,
    /// A `Vec` constructor with no elements.
    EmptyVec,
    /// A `Vec` constructor containing a vector element.
    NestedVector,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::ScalarOpOnVector { op } => {
                write!(
                    f,
                    "scalar operator `{}` applied to a vector operand",
                    op.token()
                )
            }
            TypeError::ScalarNegOnVector => {
                write!(f, "scalar negation applied to a vector operand")
            }
            TypeError::VectorOpOnScalar { op } => {
                write!(
                    f,
                    "vector operator `{}` applied to a scalar operand",
                    op.vector_token()
                )
            }
            TypeError::VectorNegOnScalar => {
                write!(f, "vector negation applied to a scalar operand")
            }
            TypeError::RotationOnScalar => write!(f, "rotation applied to a scalar operand"),
            TypeError::EmptyVec => write!(f, "empty `Vec` constructor"),
            TypeError::NestedVector => write!(f, "`Vec` constructor contains a vector element"),
        }
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Expr {
        // (VecAdd (Vec (+ a b) (* c d)) (Vec 1 2))
        Expr::vec_add(
            Expr::vec(vec![
                Expr::add(Expr::ct("a"), Expr::ct("b")),
                Expr::mul(Expr::ct("c"), Expr::ct("d")),
            ]),
            Expr::vec(vec![Expr::constant(1), Expr::constant(2)]),
        )
    }

    #[test]
    fn node_count_counts_every_node() {
        assert_eq!(sample().node_count(), 11);
        assert_eq!(Expr::ct("x").node_count(), 1);
    }

    #[test]
    fn children_and_child_agree() {
        let e = sample();
        assert_eq!(e.child_count(), 2);
        assert_eq!(e.children().len(), 2);
        assert_eq!(e.child(0), Some(e.children()[0]));
        assert_eq!(e.child(2), None);
    }

    #[test]
    fn typing_of_sample() {
        assert_eq!(sample().ty().unwrap(), Ty::Vector(2));
        assert_eq!(Expr::ct("x").ty().unwrap(), Ty::Scalar);
    }

    #[test]
    fn mixed_arity_vector_ops_take_max() {
        let e = Expr::vec_mul(
            Expr::vec(vec![Expr::ct("a"), Expr::ct("b"), Expr::ct("c")]),
            Expr::vec(vec![Expr::ct("d")]),
        );
        assert_eq!(e.ty().unwrap(), Ty::Vector(3));
    }

    #[test]
    fn type_errors_are_detected() {
        let bad = Expr::add(Expr::vec(vec![Expr::ct("a")]), Expr::ct("b"));
        assert!(matches!(bad.ty(), Err(TypeError::ScalarOpOnVector { .. })));

        let bad = Expr::vec_add(Expr::ct("a"), Expr::ct("b"));
        assert!(matches!(bad.ty(), Err(TypeError::VectorOpOnScalar { .. })));

        let bad = Expr::rot(Expr::ct("a"), 1);
        assert_eq!(bad.ty(), Err(TypeError::RotationOnScalar));

        let bad = Expr::vec(vec![]);
        assert_eq!(bad.ty(), Err(TypeError::EmptyVec));

        let bad = Expr::vec(vec![Expr::vec(vec![Expr::ct("a")])]);
        assert_eq!(bad.ty(), Err(TypeError::NestedVector));
    }

    #[test]
    fn path_addressing_round_trips() {
        let e = sample();
        for (path, node) in e.paths() {
            assert_eq!(e.at_path(&path), Some(node));
        }
        // Path [0, 1] addresses (* c d).
        let sub = e.at_path(&[0, 1]).unwrap();
        assert_eq!(*sub, Expr::mul(Expr::ct("c"), Expr::ct("d")));
    }

    #[test]
    fn replace_at_rebuilds_only_the_target() {
        let e = sample();
        let replaced = e.replace_at(&[0, 1], Expr::ct("z")).unwrap();
        assert_eq!(
            replaced.at_path(&[0, 1]).unwrap(),
            &Expr::ct("z"),
            "target replaced"
        );
        assert_eq!(
            replaced.at_path(&[0, 0]).unwrap(),
            e.at_path(&[0, 0]).unwrap()
        );
        assert!(e.replace_at(&[5], Expr::ct("z")).is_none());
    }

    #[test]
    fn with_children_preserves_operator() {
        let e = Expr::add(Expr::ct("a"), Expr::ct("b"));
        let swapped = e.with_children(vec![Expr::ct("b"), Expr::ct("a")]);
        assert_eq!(swapped, Expr::add(Expr::ct("b"), Expr::ct("a")));
    }

    #[test]
    #[should_panic(expected = "wrong number of children")]
    fn with_children_panics_on_arity_mismatch() {
        let e = Expr::add(Expr::ct("a"), Expr::ct("b"));
        let _ = e.with_children(vec![Expr::ct("a")]);
    }

    #[test]
    fn variables_in_first_occurrence_order() {
        let e = sample();
        let names: Vec<_> = e.variables().iter().map(|s| s.to_string()).collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn ciphertext_detection() {
        assert!(sample().contains_ciphertext());
        let pt_only = Expr::mul(Expr::pt("w"), Expr::constant(3));
        assert!(!pt_only.contains_ciphertext());
    }

    #[test]
    fn preorder_visits_root_first() {
        let e = sample();
        let order = e.preorder();
        assert_eq!(order[0], &e);
        assert_eq!(order.len(), e.node_count());
    }
}
