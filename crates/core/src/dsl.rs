//! The CHEHAB embedded DSL (Section 4.1).
//!
//! Programs are written against [`DslProgram`]: inputs are declared as
//! ciphertext or plaintext scalars, computations use ordinary Rust operators
//! on the returned [`DslValue`] handles (mirroring the C++ operator
//! overloading of the original CHEHAB), and outputs are registered with
//! [`DslProgram::set_output`]. Lowering produces the scalar CHEHAB IR that
//! the optimizer then vectorizes.

use chehab_ir::Expr;
use std::ops::{Add, Mul, Neg, Shl, Shr, Sub};

/// A value handle inside a DSL program (a ciphertext, plaintext, or derived
/// expression).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslValue {
    expr: Expr,
}

impl DslValue {
    /// The IR expression this handle denotes.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    fn wrap(expr: Expr) -> Self {
        DslValue { expr }
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $ctor:ident) => {
        impl $trait for &DslValue {
            type Output = DslValue;
            fn $method(self, rhs: &DslValue) -> DslValue {
                DslValue::wrap(Expr::$ctor(self.expr.clone(), rhs.expr.clone()))
            }
        }
        impl $trait for DslValue {
            type Output = DslValue;
            fn $method(self, rhs: DslValue) -> DslValue {
                DslValue::wrap(Expr::$ctor(self.expr, rhs.expr))
            }
        }
        impl $trait<i64> for &DslValue {
            type Output = DslValue;
            fn $method(self, rhs: i64) -> DslValue {
                DslValue::wrap(Expr::$ctor(self.expr.clone(), Expr::constant(rhs)))
            }
        }
    };
}

impl_binop!(Add, add, add);
impl_binop!(Sub, sub, sub);
impl_binop!(Mul, mul, mul);

impl Neg for &DslValue {
    type Output = DslValue;
    fn neg(self) -> DslValue {
        DslValue::wrap(Expr::neg(self.expr.clone()))
    }
}

impl Shl<i64> for &DslValue {
    type Output = DslValue;
    fn shl(self, steps: i64) -> DslValue {
        DslValue::wrap(Expr::rot(self.expr.clone(), steps))
    }
}

impl Shr<i64> for &DslValue {
    type Output = DslValue;
    fn shr(self, steps: i64) -> DslValue {
        DslValue::wrap(Expr::rot(self.expr.clone(), -steps))
    }
}

/// A CHEHAB DSL program under construction.
#[derive(Debug, Default, Clone)]
pub struct DslProgram {
    name: String,
    inputs: Vec<(String, bool)>,
    outputs: Vec<Expr>,
}

impl DslProgram {
    /// Starts a new program.
    pub fn new(name: impl Into<String>) -> Self {
        DslProgram {
            name: name.into(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The program's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares an encrypted scalar input.
    pub fn ciphertext_input(&mut self, name: impl Into<String>) -> DslValue {
        let name = name.into();
        self.inputs.push((name.clone(), true));
        DslValue::wrap(Expr::ct(name))
    }

    /// Declares a plaintext (clear) scalar input.
    pub fn plaintext_input(&mut self, name: impl Into<String>) -> DslValue {
        let name = name.into();
        self.inputs.push((name.clone(), false));
        DslValue::wrap(Expr::pt(name))
    }

    /// Declares a whole vector of encrypted scalar inputs named
    /// `prefix_0 .. prefix_{len-1}`.
    pub fn ciphertext_inputs(&mut self, prefix: &str, len: usize) -> Vec<DslValue> {
        (0..len)
            .map(|i| self.ciphertext_input(format!("{prefix}_{i}")))
            .collect()
    }

    /// A plaintext integer literal.
    pub fn constant(&self, value: i64) -> DslValue {
        DslValue::wrap(Expr::constant(value))
    }

    /// Marks a value as a program output.
    pub fn set_output(&mut self, value: &DslValue) {
        self.outputs.push(value.expr().clone());
    }

    /// Sum of several values (the DSL's `add_many` helper).
    pub fn add_many(&self, values: &[DslValue]) -> DslValue {
        let mut iter = values.iter();
        let first = iter
            .next()
            .expect("add_many needs at least one value")
            .clone();
        iter.fold(first, |acc, v| &acc + v)
    }

    /// Product of several values (the DSL's `mul_many` helper).
    pub fn mul_many(&self, values: &[DslValue]) -> DslValue {
        let mut iter = values.iter();
        let first = iter
            .next()
            .expect("mul_many needs at least one value")
            .clone();
        iter.fold(first, |acc, v| &acc * v)
    }

    /// Squares a value.
    pub fn square(&self, value: &DslValue) -> DslValue {
        value * value
    }

    /// Lowers the program to CHEHAB IR: a single scalar expression for
    /// single-output programs, a `Vec` of outputs otherwise.
    ///
    /// # Panics
    ///
    /// Panics if no output was registered.
    pub fn lower(&self) -> Expr {
        assert!(
            !self.outputs.is_empty(),
            "program `{}` has no outputs",
            self.name
        );
        if self.outputs.len() == 1 {
            self.outputs[0].clone()
        } else {
            Expr::Vec(self.outputs.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chehab_ir::parse;

    #[test]
    fn motivating_example_lowers_to_the_paper_ir() {
        // Section 4.1's DSL listing.
        let mut p = DslProgram::new("motivating_example");
        let v: Vec<DslValue> = (1..=10)
            .map(|i| p.ciphertext_input(format!("v{i}")))
            .collect();
        let x = &(&(&(&v[0] * &v[1]) * &(&v[2] * &v[3])) + &(&(&v[2] * &v[3]) * &(&v[4] * &v[5])))
            * &(&(&v[6] * &v[7]) * &(&v[8] * &v[9]));
        p.set_output(&x);
        let lowered = p.lower();
        let expected = parse(
            "(* (+ (* (* v1 v2) (* v3 v4)) (* (* v3 v4) (* v5 v6))) (* (* v7 v8) (* v9 v10)))",
        )
        .unwrap();
        assert_eq!(lowered, expected);
        assert_eq!(p.inputs.len(), 10);
        assert!(p.inputs.iter().all(|(_, encrypted)| *encrypted));
    }

    #[test]
    fn multiple_outputs_lower_to_a_vec() {
        let mut p = DslProgram::new("pair");
        let a = p.ciphertext_input("a");
        let b = p.ciphertext_input("b");
        let sum = &a + &b;
        let product = &a * &b;
        p.set_output(&sum);
        p.set_output(&product);
        assert_eq!(p.outputs.len(), 2);
        assert_eq!(p.lower(), parse("(Vec (+ a b) (* a b))").unwrap());
    }

    #[test]
    fn plaintext_inputs_and_constants_are_supported() {
        let mut p = DslProgram::new("weighted");
        let x = p.ciphertext_input("x");
        let w = p.plaintext_input("w");
        let y = &(&x * &w) + 3;
        p.set_output(&y);
        assert_eq!(p.lower(), parse("(+ (* x (pt w)) 3)").unwrap());
    }

    #[test]
    fn rotations_map_to_shift_operators() {
        let mut p = DslProgram::new("rots");
        let xs = p.ciphertext_inputs("x", 4);
        let packed = DslValue::wrap(Expr::Vec(xs.iter().map(|v| v.expr().clone()).collect()));
        let rotated = &(&packed << 2) + &(&packed >> 1);
        p.set_output(&rotated);
        assert_eq!(
            p.lower(),
            parse("(+ (<< (Vec x_0 x_1 x_2 x_3) 2) (>> (Vec x_0 x_1 x_2 x_3) 1))").unwrap()
        );
    }

    #[test]
    fn helper_reductions_build_chains() {
        let mut p = DslProgram::new("helpers");
        let xs = p.ciphertext_inputs("x", 3);
        let sum = p.add_many(&xs);
        let prod = p.mul_many(&xs);
        let sq = p.square(&xs[0]);
        p.set_output(&sum);
        p.set_output(&prod);
        p.set_output(&sq);
        assert_eq!(
            p.lower(),
            parse("(Vec (+ (+ x_0 x_1) x_2) (* (* x_0 x_1) x_2) (* x_0 x_0))").unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "no outputs")]
    fn lowering_without_outputs_panics() {
        let _ = DslProgram::new("empty").lower();
    }
}
