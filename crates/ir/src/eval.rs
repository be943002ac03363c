//! Reference interpreter for the CHEHAB IR.
//!
//! Evaluation happens in the plaintext ring `Z_t` (the BFV plaintext space),
//! so rewrite-rule soundness established against this interpreter carries over
//! to homomorphic execution. Vectors are evaluated at their *logical* arity
//! with the zero-padded-slot semantics described in [`crate::expr`]:
//! element-wise operations zero-extend the shorter operand and rotations are
//! zero-fill shifts.

use crate::expr::{BinOp, Expr};
use crate::symbol::Symbol;
use std::collections::HashMap;
use std::fmt;

/// Default plaintext modulus used by the interpreter and the FHE backend:
/// a 20-bit prime with `t ≡ 1 (mod 2n)` for `n = 16384`, enabling batching.
pub const DEFAULT_PLAIN_MODULUS: u64 = 786_433;

/// The value of an IR expression: a scalar or a logical slot vector, with all
/// entries reduced modulo the plaintext modulus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A single plaintext residue.
    Scalar(u64),
    /// A logical vector of plaintext residues (live slots only).
    Vector(Vec<u64>),
}

impl Value {
    /// The live slots of the value (a scalar is a single slot).
    pub fn slots(&self) -> Vec<u64> {
        match self {
            Value::Scalar(v) => vec![*v],
            Value::Vector(v) => v.clone(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Scalar(v) => write!(f, "{v}"),
            Value::Vector(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Errors produced by [`evaluate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A variable had no binding in the environment.
    UnboundVariable(Symbol),
    /// A scalar operator received a vector operand (or vice versa); the
    /// expression does not type-check.
    TypeMismatch(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(s) => write!(f, "unbound variable `{s}`"),
            EvalError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// An evaluation environment binding input variables to plaintext values.
#[derive(Debug, Clone, Default)]
pub struct Env {
    modulus: u64,
    bindings: HashMap<Symbol, u64>,
}

impl Env {
    /// Creates an empty environment over [`DEFAULT_PLAIN_MODULUS`].
    pub fn new() -> Self {
        Self::with_modulus(DEFAULT_PLAIN_MODULUS)
    }

    /// Creates an empty environment over a custom plaintext modulus.
    ///
    /// # Panics
    ///
    /// Panics if `modulus < 2`.
    pub fn with_modulus(modulus: u64) -> Self {
        assert!(modulus >= 2, "plaintext modulus must be at least 2");
        Env {
            modulus,
            bindings: HashMap::new(),
        }
    }

    /// The plaintext modulus this environment reduces values by.
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// Binds a variable to a (signed) integer value, reducing it modulo `t`.
    pub fn bind(&mut self, name: impl Into<Symbol>, value: i64) -> &mut Self {
        let v = reduce(value, self.modulus);
        self.bindings.insert(name.into(), v);
        self
    }

    /// Looks up a binding.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.bindings.get(name).copied()
    }

    /// Binds every variable of `expr` that is not yet bound, drawing values
    /// from the supplied closure (handy for property tests).
    pub fn bind_all(
        &mut self,
        expr: &Expr,
        mut value_for: impl FnMut(&Symbol) -> i64,
    ) -> &mut Self {
        for v in expr.variables() {
            if !self.bindings.contains_key(v.as_str()) {
                let val = value_for(&v);
                self.bind(v, val);
            }
        }
        self
    }
}

fn reduce(v: i64, m: u64) -> u64 {
    let m_i = m as i128;
    (((v as i128) % m_i + m_i) % m_i) as u64
}

fn bin(op: BinOp, a: u64, b: u64, m: u64) -> u64 {
    let (a, b, m) = (a as u128, b as u128, m as u128);
    let r = match op {
        BinOp::Add => (a + b) % m,
        BinOp::Sub => (a + m - (b % m)) % m,
        BinOp::Mul => (a * b) % m,
    };
    r as u64
}

fn neg(a: u64, m: u64) -> u64 {
    (m - (a % m)) % m
}

/// Evaluates `expr` under `env`.
///
/// # Errors
///
/// Returns [`EvalError::UnboundVariable`] if an input has no binding, or
/// [`EvalError::TypeMismatch`] if the expression does not type-check.
pub fn evaluate(expr: &Expr, env: &Env) -> Result<Value, EvalError> {
    let m = env.modulus;
    match expr {
        Expr::CtVar(s) | Expr::PtVar(s) => env
            .bindings
            .get(s.as_str())
            .map(|v| Value::Scalar(*v))
            .ok_or_else(|| EvalError::UnboundVariable(s.clone())),
        Expr::Const(v) => Ok(Value::Scalar(reduce(*v, m))),
        Expr::Bin(op, a, b) => {
            let (va, vb) = (evaluate(a, env)?, evaluate(b, env)?);
            match (va, vb) {
                (Value::Scalar(x), Value::Scalar(y)) => Ok(Value::Scalar(bin(*op, x, y, m))),
                _ => Err(EvalError::TypeMismatch(format!(
                    "scalar `{}` applied to vector operand",
                    op.token()
                ))),
            }
        }
        Expr::Neg(a) => match evaluate(a, env)? {
            Value::Scalar(x) => Ok(Value::Scalar(neg(x, m))),
            Value::Vector(_) => Err(EvalError::TypeMismatch(
                "scalar negation of a vector".into(),
            )),
        },
        Expr::Vec(elems) => {
            let mut out = Vec::with_capacity(elems.len());
            for e in elems {
                match evaluate(e, env)? {
                    Value::Scalar(x) => out.push(x),
                    Value::Vector(_) => {
                        return Err(EvalError::TypeMismatch("`Vec` element is a vector".into()))
                    }
                }
            }
            Ok(Value::Vector(out))
        }
        Expr::VecBin(op, a, b) => {
            let (va, vb) = (evaluate(a, env)?, evaluate(b, env)?);
            match (va, vb) {
                (Value::Vector(x), Value::Vector(y)) => {
                    let len = x.len().max(y.len());
                    let mut out = Vec::with_capacity(len);
                    for i in 0..len {
                        let xi = x.get(i).copied().unwrap_or(0);
                        let yi = y.get(i).copied().unwrap_or(0);
                        out.push(bin(*op, xi, yi, m));
                    }
                    Ok(Value::Vector(out))
                }
                _ => Err(EvalError::TypeMismatch(format!(
                    "vector `{}` applied to scalar operand",
                    op.vector_token()
                ))),
            }
        }
        Expr::VecNeg(a) => match evaluate(a, env)? {
            Value::Vector(x) => Ok(Value::Vector(x.into_iter().map(|v| neg(v, m)).collect())),
            Value::Scalar(_) => Err(EvalError::TypeMismatch(
                "vector negation of a scalar".into(),
            )),
        },
        Expr::Rot(a, steps) => match evaluate(a, env)? {
            Value::Vector(x) => Ok(Value::Vector(shift_zero_fill(&x, *steps))),
            Value::Scalar(_) => Err(EvalError::TypeMismatch("rotation of a scalar".into())),
        },
    }
}

/// Zero-fill shift of a logical slot vector: positive `steps` shift left
/// (towards slot 0), negative shift right.
pub fn shift_zero_fill(slots: &[u64], steps: i64) -> Vec<u64> {
    let n = slots.len();
    let mut out = vec![0u64; n];
    if steps >= 0 {
        let s = (steps as usize).min(n);
        let live = n - s;
        out[..live].copy_from_slice(&slots[s..]);
    } else {
        let s = ((-steps) as usize).min(n);
        out[s..].copy_from_slice(&slots[..n - s]);
    }
    out
}

/// Checks that two expressions agree on the first `live_slots` output slots
/// under the given environment (scalars are treated as single-slot vectors).
///
/// This is the soundness notion used for rewrite rules: a rewrite may change
/// the arity of intermediate vectors, but the program's live output slots must
/// be preserved.
pub fn equivalent_on_live_slots(
    a: &Expr,
    b: &Expr,
    env: &Env,
    live_slots: usize,
) -> Result<bool, EvalError> {
    let va = evaluate(a, env)?.slots();
    let vb = evaluate(b, env)?.slots();
    for i in 0..live_slots {
        let xa = va.get(i).copied().unwrap_or(0);
        let xb = vb.get(i).copied().unwrap_or(0);
        if xa != xb {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn shifts_beyond_the_vector_length_zero_everything() {
        assert_eq!(shift_zero_fill(&[1, 2, 3], 5), vec![0, 0, 0]);
        assert_eq!(shift_zero_fill(&[1, 2, 3], -5), vec![0, 0, 0]);
        assert_eq!(shift_zero_fill(&[1, 2, 3], 3), vec![0, 0, 0]);
        assert_eq!(shift_zero_fill(&[1, 2, 3], 1), vec![2, 3, 0]);
        assert_eq!(shift_zero_fill(&[1, 2, 3], -1), vec![0, 1, 2]);
        assert_eq!(shift_zero_fill(&[], 2), Vec::<u64>::new());
    }

    fn env_abcd() -> Env {
        let mut env = Env::new();
        env.bind("a", 3)
            .bind("b", 5)
            .bind("c", 7)
            .bind("d", 11)
            .bind("e", 2)
            .bind("f", 4);
        env
    }

    #[test]
    fn evaluates_scalar_arithmetic() {
        let env = env_abcd();
        let e = parse("(+ (* a b) (- c d))").unwrap();
        let t = env.modulus() as i64;
        let expected = ((3 * 5 + (7 - 11)) % t + t) % t;
        assert_eq!(evaluate(&e, &env).unwrap(), Value::Scalar(expected as u64));
    }

    #[test]
    fn evaluates_vector_ops_elementwise() {
        let env = env_abcd();
        let e = parse("(VecMul (Vec a c) (Vec b d))").unwrap();
        assert_eq!(evaluate(&e, &env).unwrap(), Value::Vector(vec![15, 77]));
    }

    #[test]
    fn shorter_operand_is_zero_extended() {
        let env = env_abcd();
        let e = parse("(VecAdd (Vec a b c) (Vec d))").unwrap();
        assert_eq!(evaluate(&e, &env).unwrap(), Value::Vector(vec![14, 5, 7]));
    }

    #[test]
    fn rotation_shifts_with_zero_fill() {
        let env = env_abcd();
        let left = parse("(<< (Vec a b c d) 1)").unwrap();
        assert_eq!(
            evaluate(&left, &env).unwrap(),
            Value::Vector(vec![5, 7, 11, 0])
        );
        let right = parse("(>> (Vec a b c d) 2)").unwrap();
        assert_eq!(
            evaluate(&right, &env).unwrap(),
            Value::Vector(vec![0, 0, 3, 5])
        );
    }

    #[test]
    fn negation_wraps_modulo_t() {
        let env = env_abcd();
        let e = parse("(- a)").unwrap();
        assert_eq!(
            evaluate(&e, &env).unwrap(),
            Value::Scalar(env.modulus() - 3)
        );
    }

    #[test]
    fn negative_constants_reduce_into_range() {
        let env = Env::new();
        let e = parse("(* 1 -2)").unwrap();
        assert_eq!(
            evaluate(&e, &env).unwrap(),
            Value::Scalar(env.modulus() - 2)
        );
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let env = Env::new();
        let e = parse("(+ a b)").unwrap();
        assert!(matches!(
            evaluate(&e, &env),
            Err(EvalError::UnboundVariable(_))
        ));
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let env = env_abcd();
        let e = Expr::add(Expr::vec(vec![Expr::ct("a")]), Expr::ct("b"));
        assert!(matches!(
            evaluate(&e, &env),
            Err(EvalError::TypeMismatch(_))
        ));
    }

    #[test]
    fn factorization_rewrite_is_equivalent() {
        let env = env_abcd();
        let lhs = parse("(+ (* a b) (* a c))").unwrap();
        let rhs = parse("(* a (+ b c))").unwrap();
        assert!(equivalent_on_live_slots(&lhs, &rhs, &env, 1).unwrap());
    }

    #[test]
    fn vectorization_rewrite_is_equivalent_on_live_slots() {
        let env = env_abcd();
        let lhs = parse("(Vec (+ a b) (+ c d))").unwrap();
        let rhs = parse("(VecAdd (Vec a c) (Vec b d))").unwrap();
        assert!(equivalent_on_live_slots(&lhs, &rhs, &env, 2).unwrap());
    }

    #[test]
    fn rotation_composite_rewrite_preserves_live_slots() {
        // (Vec (+ (* a b) (* c d)) (+ (* e f) (* g h)))
        //   == first two slots of (VecAdd V (<< V 2))
        // with V = (VecMul (Vec a e c g) (Vec b f d h)).
        let mut env = env_abcd();
        env.bind("g", 6).bind("h", 9);
        let lhs = parse("(Vec (+ (* a b) (* c d)) (+ (* e f) (* g h)))").unwrap();
        let rhs = parse(
            "(VecAdd (VecMul (Vec a e c g) (Vec b f d h)) (<< (VecMul (Vec a e c g) (Vec b f d h)) 2))",
        )
        .unwrap();
        assert!(equivalent_on_live_slots(&lhs, &rhs, &env, 2).unwrap());
        // ...but not necessarily beyond the live slots.
        let va = evaluate(&lhs, &env).unwrap().slots();
        let vb = evaluate(&rhs, &env).unwrap().slots();
        assert_eq!(va.len(), 2);
        assert_eq!(vb.len(), 4);
    }

    #[test]
    fn bind_all_fills_missing_bindings() {
        let e = parse("(+ x (* y z))").unwrap();
        let mut env = Env::new();
        env.bind("x", 1);
        env.bind_all(&e, |_| 9);
        assert_eq!(env.get("x"), Some(1));
        assert_eq!(env.get("y"), Some(9));
        assert_eq!(env.get("z"), Some(9));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Scalar(4).slots(), [4]);
        assert_eq!(Value::Vector(vec![1, 2]).slots(), [1, 2]);
        assert_eq!(Value::Vector(vec![1, 2]).to_string(), "[1, 2]");
    }
}
