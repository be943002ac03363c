//! A minimal dense row-major `f32` matrix.
//!
//! This is the value type of parameters ([`Tensor`](crate::Tensor)) and of
//! tape-free inference; it implements exactly the operations the CHEHAB RL
//! networks need (mat-mul, broadcasting adds, element-wise maps, row-wise
//! softmax and normalization statistics). The kernels with any arithmetic in
//! them are free functions over slices at the end of this file, shared with
//! the autodiff [`Tape`](crate::Tape), whose values live in one flat buffer:
//! one definition of every rounding sequence, whoever runs it.

use rand::Rng;

/// A dense row-major matrix of `f32` values.
#[derive(Debug, Clone, PartialEq)]
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
        Self::try_from_vec(rows, cols, data).expect("matrix data length mismatch")
    }

    /// Builds a matrix from a row-major data vector, or `None` if
    /// `data.len() != rows * cols`.
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Option<Self> {
        (rows.checked_mul(cols) == Some(data.len())).then_some(Matrix { rows, cols, data })
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
        Scratch::default().matmul(
            &self.data,
            &other.data,
            &mut out.data,
            self.cols,
            other.cols,
        );
        out
    }

    /// Matrix product with a transposed right operand, `self · otherᵀ`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts disagree.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        Scratch::default().matmul_nt(
            &self.data,
            &other.data,
            &mut out.data,
            self.cols,
            other.rows,
        );
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
        add_row_broadcast(&mut out.data, &bias.data);
        out
    }

    /// Rectified linear unit, element-wise.
    pub fn relu(&self) -> Matrix {
        self.map(relu)
    }

    /// Hyperbolic tangent, element-wise.
    pub fn tanh(&self) -> Matrix {
        self.map(f32::tanh)
    }

    /// Logistic sigmoid, element-wise.
    pub fn sigmoid(&self) -> Matrix {
        self.map(sigmoid)
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

    /// Row-wise layer normalization with gain `gamma` and bias `beta`
    /// (both `1 × cols`).
    pub fn layer_norm(&self, gamma: &Matrix, beta: &Matrix, eps: f32) -> Matrix {
        let mut normalized = Matrix::zeros(self.rows, self.cols);
        normalize_rows(
            &self.data,
            self.cols,
            eps,
            &mut normalized.data,
            &mut vec![0.0; self.rows],
        );
        let mut out = Matrix::zeros(self.rows, self.cols);
        scale_shift_rows(&normalized.data, &gamma.data, &beta.data, &mut out.data);
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
        softmax_rows(&mut out.data, self.cols);
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

// ----- slice kernels, shared with the tape ---------------------------------------------

/// The matrix-product kernels and the buffers they reuse between calls.
///
/// Every product is formed apart from `out`, one output row at a time, each
/// entry summed in `k` order from `+0` with zero entries of the left operand
/// skipped and no fused multiply-add, and only then added to `out`. A zeroed
/// `out` therefore receives the forward value and a gradient buffer receives
/// one contribution, with the same bits either way, and an operand that is
/// read transposed is walked differently rather than copied by the caller.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    row: Vec<f32>,
    transposed: Vec<f32>,
}

/// `target[i] += contributions[i]`, as far as both go.
pub(crate) fn add_each(target: &mut [f32], contributions: impl Iterator<Item = f32>) {
    for (t, c) in target.iter_mut().zip(contributions) {
        *t += c;
    }
}

impl Scratch {
    /// A zeroed row of `len` entries, for a sum that is formed apart.
    pub(crate) fn zeroed_row(&mut self, len: usize) -> &mut [f32] {
        self.row.clear();
        self.row.resize(len, 0.0);
        &mut self.row
    }

    /// `out += a · b` for row-major `a` (`m × k`), `b` (`k × n`), `out` (`m × n`).
    pub(crate) fn matmul(&mut self, a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
        for (row_a, row_out) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            let row = self.zeroed_row(n);
            for (&a, row_b) in row_a.iter().zip(b.chunks_exact(n)) {
                if a == 0.0 {
                    continue;
                }
                for (t, &b) in row.iter_mut().zip(row_b) {
                    *t += a * b;
                }
            }
            add_each(row_out, row.iter().copied());
        }
    }

    /// `out += a · bᵀ` for `a` (`m × k`), `b` (`n × k`), `out` (`m × n`): each
    /// output is its own sum over `k`. Outputs are independent, so a single
    /// row of `a` runs [`NT_LANES`] sums side by side; several rows share one
    /// transposed copy of `b` and the row-streaming kernel (the same sums).
    pub(crate) fn matmul_nt(&mut self, a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
        if a.len() > k {
            let mut transposed = std::mem::take(&mut self.transposed);
            transposed.clear();
            transposed.resize(k * n, 0.0);
            for (j, row_b) in b.chunks_exact(k).enumerate() {
                for (kk, &v) in row_b.iter().enumerate() {
                    transposed[kk * n + j] = v;
                }
            }
            self.matmul(a, &transposed, out, k, n);
            self.transposed = transposed;
            return;
        }
        for (outs, rows_b) in out.chunks_mut(NT_LANES).zip(b.chunks(NT_LANES * k)) {
            let mut sums = [0.0f32; NT_LANES];
            for (kk, &a) in a.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (sum, row_b) in sums.iter_mut().zip(rows_b.chunks_exact(k)) {
                    *sum += a * row_b[kk];
                }
            }
            add_each(outs, sums.into_iter());
        }
    }

    /// `out += aᵀ · g` for `a` (`m × k`), `g` (`m × n`), `out` (`k × n`), with
    /// `k` outermost: row `k` of the product is summed over `m` in order.
    pub(crate) fn matmul_tn(&mut self, a: &[f32], g: &[f32], out: &mut [f32], k: usize, n: usize) {
        for (kk, row_out) in out.chunks_exact_mut(n).enumerate() {
            let row = self.zeroed_row(n);
            for (row_a, row_g) in a.chunks_exact(k).zip(g.chunks_exact(n)) {
                let a = row_a[kk];
                if a == 0.0 {
                    continue;
                }
                for (t, &g) in row.iter_mut().zip(row_g) {
                    *t += a * g;
                }
            }
            add_each(row_out, row.iter().copied());
        }
    }
}

const NT_LANES: usize = 8;

/// Rectified linear unit.
pub(crate) fn relu(v: f32) -> f32 {
    v.max(0.0)
}

/// Logistic sigmoid.
pub(crate) fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// Adds the row `bias` to every row of `data` (rows as wide as `bias`).
pub(crate) fn add_row_broadcast(data: &mut [f32], bias: &[f32]) {
    for row in data.chunks_exact_mut(bias.len()) {
        add_each(row, bias.iter().copied());
    }
}

/// Row-wise softmax of `data` (`cols` wide), in place.
pub(crate) fn softmax_rows(data: &mut [f32], cols: usize) {
    for row in data.chunks_exact_mut(cols) {
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
}

/// Writes every row of `x` (`cols` wide) at zero mean and unit variance into
/// `normalized`, and the row's `1 / sqrt(var + eps)` into `inv_std`.
pub(crate) fn normalize_rows(
    x: &[f32],
    cols: usize,
    eps: f32,
    normalized: &mut [f32],
    inv_std: &mut [f32],
) {
    let rows = x.chunks_exact(cols).zip(normalized.chunks_exact_mut(cols));
    for ((row, out), inv_std_r) in rows.zip(inv_std) {
        let mean: f32 = row.iter().sum::<f32>() / cols as f32;
        let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / cols as f32;
        *inv_std_r = 1.0 / (var + eps).sqrt();
        for (o, &v) in out.iter_mut().zip(row) {
            *o = (v - mean) * *inv_std_r;
        }
    }
}

/// `out = x ⊙ gain + bias`, the rows `gain` and `bias` applied to every row.
pub(crate) fn scale_shift_rows(x: &[f32], gain: &[f32], bias: &[f32], out: &mut [f32]) {
    for (row, out) in x
        .chunks_exact(gain.len())
        .zip(out.chunks_exact_mut(gain.len()))
    {
        for ((o, &v), (&g, &b)) in out.iter_mut().zip(row).zip(gain.iter().zip(bias)) {
            *o = v * g + b;
        }
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

    fn transpose(m: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(m.cols(), m.rows());
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                out.set(c, r, m.get(r, c));
            }
        }
        out
    }

    #[test]
    fn transposed_products_have_the_bits_of_the_product_with_a_transposed_copy() {
        // One row of the left operand (side-by-side sums, with a ragged last
        // group) and several (one shared transposed copy); zeros are skipped.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for rows in [1, 3] {
            let mut a = Matrix::xavier(rows, 5, &mut rng);
            a.set(0, 2, 0.0);
            let b = Matrix::xavier(11, 5, &mut rng);
            assert_eq!(bits(&a.matmul_nt(&b)), bits(&a.matmul(&transpose(&b))));
            let g = Matrix::xavier(rows, 11, &mut rng);
            let mut tn = Matrix::full(5, 11, 0.5);
            Scratch::default().matmul_tn(a.data(), g.data(), tn.data_mut(), 5, 11);
            let expected = Matrix::full(5, 11, 0.5).add(&transpose(&a).matmul(&g));
            assert_eq!(
                bits(&tn),
                bits(&expected),
                "the product is added, not summed in place"
            );
        }
    }

    #[test]
    fn broadcasting_adds_the_bias_to_every_row() {
        let a = Matrix::zeros(3, 2);
        let bias = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
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
