//! The one vocabulary every layer's forward pass is written in.
//!
//! Training needs a tape (each operation remembers how to backpropagate
//! through it); inference needs none of it. Layers are therefore generic over
//! [`Forward`], which has exactly two implementers: [`Var`](crate::Var), a
//! value recorded on a [`Tape`](crate::Tape), and plain [`Matrix`], tape-free.
//! Both read parameters where they are ([`Tensor::borrow_value`]) and run the
//! same slice kernels on the same operands in the same order, so a layer's
//! tape-free output is bit-identical to its taped one.

use crate::matrix::Matrix;
use crate::tensor::Tensor;
use std::cell::Ref;
use std::ops::Deref;

/// The forward operations of the networks, over a value type that may or may
/// not record them.
pub trait Forward: Clone {
    /// What values of this type are recorded on: the tape, or nothing.
    type Tape: Copy;
    /// How a trainable parameter is seen by this value type.
    type Param<'a>: Deref<Target = Self>
    where
        Self: 'a;

    /// What this value is recorded on.
    fn tape(&self) -> Self::Tape;
    /// A trainable parameter as an operand.
    fn param(on: Self::Tape, parameter: &Tensor) -> Self::Param<'_>;
    /// A constant operand.
    fn constant(on: Self::Tape, value: Matrix) -> Self;
    /// The value as a plain matrix.
    fn to_matrix(&self) -> Matrix;
    /// Rows of `table` selected by `ids`.
    fn gather_rows(table: &Self, ids: &[usize]) -> Self;
    /// Element-wise addition.
    fn add(&self, other: &Self) -> Self;
    /// Element-wise subtraction.
    fn sub(&self, other: &Self) -> Self;
    /// Element-wise product.
    fn mul(&self, other: &Self) -> Self;
    /// Scalar multiplication.
    fn scale(&self, k: f32) -> Self;
    /// Matrix product `self · other`.
    fn matmul(&self, other: &Self) -> Self;
    /// Matrix product `self · otherᵀ`.
    fn matmul_nt(&self, other: &Self) -> Self;
    /// Adds a `1 × cols` bias row to every row.
    fn add_bias(&self, bias: &Self) -> Self;
    /// Rectified linear unit.
    fn relu(&self) -> Self;
    /// Hyperbolic tangent.
    fn tanh(&self) -> Self;
    /// Logistic sigmoid.
    fn sigmoid(&self) -> Self;
    /// Row-wise softmax.
    fn softmax_rows(&self) -> Self;
    /// The column range `[start, end)`.
    fn slice_cols(&self, start: usize, end: usize) -> Self;
    /// Horizontal concatenation.
    fn concat_cols(parts: &[Self]) -> Self;
    /// Row `index` as a `1 × cols` value.
    fn row(&self, index: usize) -> Self;
    /// Row-wise layer normalization.
    fn layer_norm(&self, gamma: &Self, beta: &Self, eps: f32) -> Self;
}

impl Forward for Matrix {
    type Tape = ();
    type Param<'a> = Ref<'a, Matrix>;

    fn tape(&self) {}
    fn param((): (), parameter: &Tensor) -> Ref<'_, Matrix> {
        parameter.borrow_value()
    }
    fn constant((): (), value: Matrix) -> Self {
        value
    }
    fn to_matrix(&self) -> Matrix {
        self.clone()
    }
    fn gather_rows(table: &Self, ids: &[usize]) -> Self {
        Matrix::gather_rows(table, ids)
    }
    fn add(&self, other: &Self) -> Self {
        Matrix::add(self, other)
    }
    fn sub(&self, other: &Self) -> Self {
        Matrix::sub(self, other)
    }
    fn mul(&self, other: &Self) -> Self {
        self.hadamard(other)
    }
    fn scale(&self, k: f32) -> Self {
        Matrix::scale(self, k)
    }
    fn matmul(&self, other: &Self) -> Self {
        Matrix::matmul(self, other)
    }
    fn matmul_nt(&self, other: &Self) -> Self {
        Matrix::matmul_nt(self, other)
    }
    fn add_bias(&self, bias: &Self) -> Self {
        self.add_row_broadcast(bias)
    }
    fn relu(&self) -> Self {
        Matrix::relu(self)
    }
    fn tanh(&self) -> Self {
        Matrix::tanh(self)
    }
    fn sigmoid(&self) -> Self {
        Matrix::sigmoid(self)
    }
    fn softmax_rows(&self) -> Self {
        Matrix::softmax_rows(self)
    }
    fn slice_cols(&self, start: usize, end: usize) -> Self {
        Matrix::slice_cols(self, start, end)
    }
    fn concat_cols(parts: &[Self]) -> Self {
        Matrix::concat_cols(&parts.iter().collect::<Vec<_>>())
    }
    fn row(&self, index: usize) -> Self {
        Matrix::row(self, index)
    }
    fn layer_norm(&self, gamma: &Self, beta: &Self, eps: f32) -> Self {
        Matrix::layer_norm(self, gamma, beta, eps)
    }
}
