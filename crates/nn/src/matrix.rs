//! A minimal dense row-major `f32` matrix.
//!
//! This is the storage type underneath the autodiff [`Tensor`](crate::Tensor);
//! it implements exactly the operations the CHEHAB RL networks need
//! (mat-mul, broadcasting adds, element-wise maps, row-wise softmax and
//! normalization statistics).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32` values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Builds a single-row matrix.
    pub fn row_vector(data: Vec<f32>) -> Self {
        let cols = data.len();
        Matrix {
            rows: 1,
            cols,
            data,
        }
    }

    /// Xavier/Glorot-uniform initialization.
    pub fn xavier(rows: usize, cols: usize, rng: &mut impl Rng) -> Self {
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-limit..limit))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let row_out = &mut out.data[i * other.cols..(i + 1) * other.cols];
                let row_b = &other.data[k * other.cols..(k + 1) * other.cols];
                for (o, &b) in row_out.iter_mut().zip(row_b) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix product with a transposed right operand, `self · otherᵀ`.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        self.matmul(&other.transpose())
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Element-wise combination of two same-shape matrices.
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a * b)
    }

    /// Scalar multiplication.
    pub fn scale(&self, k: f32) -> Matrix {
        self.map(|a| a * k)
    }

    /// Adds a `1 × cols` row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not a row vector of matching width.
    pub fn add_row_broadcast(&self, bias: &Matrix) -> Matrix {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += bias.data[c];
            }
        }
        out
    }

    /// Rectified linear unit, element-wise.
    pub fn relu(&self) -> Matrix {
        self.map(|v| v.max(0.0))
    }

    /// Hyperbolic tangent, element-wise.
    pub fn tanh(&self) -> Matrix {
        self.map(f32::tanh)
    }

    /// Logistic sigmoid, element-wise.
    pub fn sigmoid(&self) -> Matrix {
        self.map(|v| 1.0 / (1.0 + (-v).exp()))
    }

    /// The contiguous column range `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        let width = end - start;
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            out.data[r * width..(r + 1) * width]
                .copy_from_slice(&self.data[r * self.cols + start..r * self.cols + end]);
        }
        out
    }

    /// Horizontal concatenation (all parts must share the row count).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the row counts disagree.
    pub fn concat_cols(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "concat_cols needs at least one matrix");
        let rows = parts[0].rows;
        let total: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, total);
        let mut offset = 0;
        for part in parts {
            assert_eq!(part.rows, rows, "concat_cols row count mismatch");
            for r in 0..rows {
                out.data[r * total + offset..r * total + offset + part.cols]
                    .copy_from_slice(&part.data[r * part.cols..(r + 1) * part.cols]);
            }
            offset += part.cols;
        }
        out
    }

    /// Row `index` as a `1 × cols` matrix.
    pub fn row(&self, index: usize) -> Matrix {
        self.gather_rows(&[index])
    }

    /// The rows named by `ids`, in that order (an embedding-table lookup).
    pub fn gather_rows(&self, ids: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(ids.len(), self.cols);
        for (r, &id) in ids.iter().enumerate() {
            out.data[r * self.cols..(r + 1) * self.cols]
                .copy_from_slice(&self.data[id * self.cols..(id + 1) * self.cols]);
        }
        out
    }

    /// Normalizes every row to zero mean and unit variance; returns the
    /// normalized matrix and each row's `1 / sqrt(var + eps)` (what layer
    /// normalization's backward pass needs).
    pub fn normalize_rows(&self, eps: f32) -> (Matrix, Vec<f32>) {
        let (rows, cols) = (self.rows, self.cols);
        let mut normalized = Matrix::zeros(rows, cols);
        let mut inv_std = vec![0.0f32; rows];
        for (r, inv_std_r) in inv_std.iter_mut().enumerate() {
            let mean: f32 = (0..cols).map(|c| self.get(r, c)).sum::<f32>() / cols as f32;
            let var: f32 = (0..cols)
                .map(|c| (self.get(r, c) - mean).powi(2))
                .sum::<f32>()
                / cols as f32;
            *inv_std_r = 1.0 / (var + eps).sqrt();
            for c in 0..cols {
                normalized.set(r, c, (self.get(r, c) - mean) * *inv_std_r);
            }
        }
        (normalized, inv_std)
    }

    /// Multiplies every row by the `1 × cols` row `gain` and adds the
    /// `1 × cols` row `bias`, element-wise.
    pub fn scale_shift_rows(&self, gain: &Matrix, bias: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(r, c, self.get(r, c) * gain.get(0, c) + bias.get(0, c));
            }
        }
        out
    }

    /// Row-wise layer normalization with gain `gamma` and bias `beta`
    /// (both `1 × cols`).
    pub fn layer_norm(&self, gamma: &Matrix, beta: &Matrix, eps: f32) -> Matrix {
        self.normalize_rows(eps).0.scale_shift_rows(gamma, beta)
    }

    /// Sums all rows into a `1 × cols` row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.get(r, c);
            }
        }
        out
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all entries.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = &mut out.data[r * self.cols..(r + 1) * self.cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                denom += *v;
            }
            for v in row.iter_mut() {
                *v /= denom.max(1e-12);
            }
        }
        out
    }

    /// Index of the maximum entry of each row.
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = &self.data[r * self.cols..(r + 1) * self.cols];
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_swaps_dimensions() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!((t.rows(), t.cols()), (3, 2));
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn broadcasting_adds_the_bias_to_every_row() {
        let a = Matrix::zeros(3, 2);
        let bias = Matrix::row_vector(vec![1.0, -1.0]);
        let out = a.add_row_broadcast(&bias);
        for r in 0..3 {
            assert_eq!(out.get(r, 0), 1.0);
            assert_eq!(out.get(r, 1), -1.0);
        }
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f32 = (0..3).map(|c| s.get(r, c)).sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.get(r, 2) > s.get(r, 0));
        }
    }

    #[test]
    fn argmax_rows_finds_the_largest_entry() {
        let a = Matrix::from_vec(2, 3, vec![0.1, 0.9, 0.0, 5.0, -2.0, 3.0]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn reductions_are_consistent() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert_eq!(a.sum_rows().data(), &[4.0, 6.0]);
    }

    #[test]
    fn xavier_initialization_is_bounded_and_seeded() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let m = Matrix::xavier(8, 8, &mut rng);
        let limit = (6.0 / 16.0_f32).sqrt();
        assert!(m.data().iter().all(|v| v.abs() <= limit));
        let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        assert_eq!(m, Matrix::xavier(8, 8, &mut rng2));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
