//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tensor`] is a node in a dynamically built computation graph. Forward
//! operations record a backward closure; calling [`Tensor::backward`] on a
//! scalar output propagates gradients to every parameter that participated in
//! the computation. The design favours clarity over performance: graphs are
//! rebuilt for every forward pass (define-by-run), which is what the training
//! loops in `chehab-rl` do. Inference does not pay for any of it: the layers
//! are generic over [`Forward`](crate::Forward) and run on plain matrices
//! through the same kernels these operations call.

use crate::matrix::Matrix;
use std::cell::{Ref, RefCell};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

static NEXT_ID: AtomicUsize = AtomicUsize::new(0);

type BackwardFn = Box<dyn Fn(&Matrix)>;

struct TensorInner {
    value: Matrix,
    grad: Matrix,
    parents: Vec<Tensor>,
    backward_fn: Option<BackwardFn>,
    requires_grad: bool,
}

/// A node in the autodiff graph: a matrix value plus (optionally) the
/// recipe to backpropagate through the operation that produced it.
#[derive(Clone)]
pub struct Tensor {
    inner: Rc<RefCell<TensorInner>>,
    id: usize,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Tensor")
            .field("id", &self.id)
            .field("shape", &(inner.value.rows(), inner.value.cols()))
            .field("requires_grad", &inner.requires_grad)
            .finish()
    }
}

impl Tensor {
    fn make(
        value: Matrix,
        parents: Vec<Tensor>,
        backward_fn: Option<BackwardFn>,
        requires_grad: bool,
    ) -> Tensor {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Tensor {
            inner: Rc::new(RefCell::new(TensorInner {
                value,
                grad,
                parents,
                backward_fn,
                requires_grad,
            })),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A trainable parameter (participates in gradient computation).
    pub fn parameter(value: Matrix) -> Tensor {
        Tensor::make(value, Vec::new(), None, true)
    }

    /// A constant input (no gradient is accumulated).
    pub fn constant(value: Matrix) -> Tensor {
        Tensor::make(value, Vec::new(), None, false)
    }

    /// The tensor's current value.
    pub fn value(&self) -> Matrix {
        self.inner.borrow().value.clone()
    }

    /// The tensor's current value, borrowed: what the forward operations and
    /// tape-free inference read, so neither copies a weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if the guard is held across a call that writes this tensor
    /// ([`Tensor::set_value`], [`Tensor::apply_update`], a backward pass).
    pub fn borrow_value(&self) -> Ref<'_, Matrix> {
        Ref::map(self.inner.borrow(), |inner| &inner.value)
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> Matrix {
        self.inner.borrow().grad.clone()
    }

    /// Shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        let inner = self.inner.borrow();
        (inner.value.rows(), inner.value.cols())
    }

    /// Whether the tensor is a trainable parameter (or depends on one).
    pub fn requires_grad(&self) -> bool {
        self.inner.borrow().requires_grad
    }

    /// Unique node id (used by optimizers to deduplicate parameter lists).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&self) {
        let mut inner = self.inner.borrow_mut();
        let (r, c) = (inner.value.rows(), inner.value.cols());
        inner.grad = Matrix::zeros(r, c);
    }

    /// Applies a gradient-descent-style in-place update `value += delta`.
    pub fn apply_update(&self, delta: &Matrix) {
        let mut inner = self.inner.borrow_mut();
        inner.value = inner.value.add(delta);
    }

    /// Overwrites the tensor's value (used when loading saved policies).
    pub fn set_value(&self, value: Matrix) {
        let mut inner = self.inner.borrow_mut();
        assert_eq!(
            (inner.value.rows(), inner.value.cols()),
            (value.rows(), value.cols()),
            "set_value shape mismatch"
        );
        inner.value = value;
    }

    fn accumulate_grad(&self, delta: &Matrix) {
        let mut inner = self.inner.borrow_mut();
        inner.grad = inner.grad.add(delta);
    }

    /// Runs backpropagation from this (scalar) tensor: sets its gradient to 1
    /// and propagates through the graph in reverse topological order.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not a `1 × 1` scalar.
    pub fn backward(&self) {
        {
            let mut inner = self.inner.borrow_mut();
            assert_eq!(
                (inner.value.rows(), inner.value.cols()),
                (1, 1),
                "backward() must be called on a scalar loss"
            );
            inner.grad = Matrix::full(1, 1, 1.0);
        }
        let order = self.topological_order();
        for node in order.into_iter().rev() {
            let (grad, backward_fn_present) = {
                let inner = node.inner.borrow();
                (inner.grad.clone(), inner.backward_fn.is_some())
            };
            if backward_fn_present {
                // Temporarily take the closure out to avoid holding a borrow
                // of this node while it mutates its parents.
                let backward_fn = node.inner.borrow_mut().backward_fn.take();
                if let Some(f) = backward_fn {
                    f(&grad);
                    node.inner.borrow_mut().backward_fn = Some(f);
                }
            }
        }
    }

    fn topological_order(&self) -> Vec<Tensor> {
        let mut visited = HashSet::new();
        let mut order = Vec::new();
        fn visit(node: &Tensor, visited: &mut HashSet<usize>, order: &mut Vec<Tensor>) {
            if !visited.insert(node.id) {
                return;
            }
            let parents = node.inner.borrow().parents.clone();
            for p in &parents {
                visit(p, visited, order);
            }
            order.push(node.clone());
        }
        visit(self, &mut visited, &mut order);
        order
    }

    // ----- forward operations -------------------------------------------------------

    /// Element-wise addition.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let value = self.borrow_value().add(&other.borrow_value());
        let (a, b) = (self.clone(), other.clone());
        let requires = a.requires_grad() || b.requires_grad();
        Tensor::make(
            value,
            vec![a.clone(), b.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    a.accumulate_grad(g);
                }
                if b.requires_grad() {
                    b.accumulate_grad(g);
                }
            })),
            requires,
        )
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let value = self.borrow_value().sub(&other.borrow_value());
        let (a, b) = (self.clone(), other.clone());
        let requires = a.requires_grad() || b.requires_grad();
        Tensor::make(
            value,
            vec![a.clone(), b.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    a.accumulate_grad(g);
                }
                if b.requires_grad() {
                    b.accumulate_grad(&g.scale(-1.0));
                }
            })),
            requires,
        )
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        let value = self.borrow_value().hadamard(&other.borrow_value());
        let (a, b) = (self.clone(), other.clone());
        let requires = a.requires_grad() || b.requires_grad();
        Tensor::make(
            value,
            vec![a.clone(), b.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    a.accumulate_grad(&g.hadamard(&b.value()));
                }
                if b.requires_grad() {
                    b.accumulate_grad(&g.hadamard(&a.value()));
                }
            })),
            requires,
        )
    }

    /// Scalar multiplication.
    pub fn scale(&self, k: f32) -> Tensor {
        let value = self.borrow_value().scale(k);
        let a = self.clone();
        let requires = a.requires_grad();
        Tensor::make(
            value,
            vec![a.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    a.accumulate_grad(&g.scale(k));
                }
            })),
            requires,
        )
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let value = self.borrow_value().matmul(&other.borrow_value());
        let (a, b) = (self.clone(), other.clone());
        let requires = a.requires_grad() || b.requires_grad();
        Tensor::make(
            value,
            vec![a.clone(), b.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    a.accumulate_grad(&g.matmul(&b.value().transpose()));
                }
                if b.requires_grad() {
                    b.accumulate_grad(&a.value().transpose().matmul(g));
                }
            })),
            requires,
        )
    }

    /// Matrix product with a transposed right operand, `self · otherᵀ`
    /// (used by attention scores).
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let value = self.borrow_value().matmul_nt(&other.borrow_value());
        let (a, b) = (self.clone(), other.clone());
        let requires = a.requires_grad() || b.requires_grad();
        Tensor::make(
            value,
            vec![a.clone(), b.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    a.accumulate_grad(&g.matmul(&b.value()));
                }
                if b.requires_grad() {
                    b.accumulate_grad(&g.transpose().matmul(&a.value()));
                }
            })),
            requires,
        )
    }

    /// Adds a `1 × cols` bias row to every row.
    pub fn add_bias(&self, bias: &Tensor) -> Tensor {
        let value = self.borrow_value().add_row_broadcast(&bias.borrow_value());
        let (a, b) = (self.clone(), bias.clone());
        let requires = a.requires_grad() || b.requires_grad();
        Tensor::make(
            value,
            vec![a.clone(), b.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    a.accumulate_grad(g);
                }
                if b.requires_grad() {
                    b.accumulate_grad(&g.sum_rows());
                }
            })),
            requires,
        )
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        let value = self.borrow_value().relu();
        let a = self.clone();
        let requires = a.requires_grad();
        Tensor::make(
            value,
            vec![a.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    let mask = a.value().map(|v| if v > 0.0 { 1.0 } else { 0.0 });
                    a.accumulate_grad(&g.hadamard(&mask));
                }
            })),
            requires,
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        let value = self.borrow_value().tanh();
        let a = self.clone();
        let out_value = value.clone();
        let requires = a.requires_grad();
        Tensor::make(
            value,
            vec![a.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    let deriv = out_value.map(|t| 1.0 - t * t);
                    a.accumulate_grad(&g.hadamard(&deriv));
                }
            })),
            requires,
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        let value = self.borrow_value().sigmoid();
        let a = self.clone();
        let out_value = value.clone();
        let requires = a.requires_grad();
        Tensor::make(
            value,
            vec![a.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    let deriv = out_value.map(|s| s * (1.0 - s));
                    a.accumulate_grad(&g.hadamard(&deriv));
                }
            })),
            requires,
        )
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&self) -> Tensor {
        let value = self.borrow_value().softmax_rows();
        let a = self.clone();
        let soft = value.clone();
        let requires = a.requires_grad();
        Tensor::make(
            value,
            vec![a.clone()],
            Some(Box::new(move |g: &Matrix| {
                if !a.requires_grad() {
                    return;
                }
                // d x_i = s_i * (g_i - Σ_j g_j s_j), row-wise.
                let mut out = Matrix::zeros(soft.rows(), soft.cols());
                for r in 0..soft.rows() {
                    let dot: f32 = (0..soft.cols()).map(|c| g.get(r, c) * soft.get(r, c)).sum();
                    for c in 0..soft.cols() {
                        out.set(r, c, soft.get(r, c) * (g.get(r, c) - dot));
                    }
                }
                a.accumulate_grad(&out);
            })),
            requires,
        )
    }

    /// Element-wise exponential.
    pub fn exp(&self) -> Tensor {
        let value = self.borrow_value().map(|v| v.clamp(-30.0, 30.0).exp());
        let a = self.clone();
        let out_value = value.clone();
        let requires = a.requires_grad();
        Tensor::make(
            value,
            vec![a.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    a.accumulate_grad(&g.hadamard(&out_value));
                }
            })),
            requires,
        )
    }

    /// Element-wise natural logarithm (inputs are clamped at `1e-12` to keep
    /// the operation defined for probabilities that underflow to zero).
    pub fn ln(&self) -> Tensor {
        let value = self.borrow_value().map(|v| v.max(1e-12).ln());
        let a = self.clone();
        let requires = a.requires_grad();
        Tensor::make(
            value,
            vec![a.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    let deriv = a.value().map(|v| 1.0 / v.max(1e-12));
                    a.accumulate_grad(&g.hadamard(&deriv));
                }
            })),
            requires,
        )
    }

    /// Mean over all entries (scalar output).
    pub fn mean(&self) -> Tensor {
        let (rows, cols) = self.shape();
        let count = (rows * cols) as f32;
        let value = Matrix::full(1, 1, self.borrow_value().mean());
        let a = self.clone();
        let requires = a.requires_grad();
        Tensor::make(
            value,
            vec![a.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    let (r, c) = a.shape();
                    a.accumulate_grad(&Matrix::full(r, c, g.get(0, 0) / count));
                }
            })),
            requires,
        )
    }

    /// Sum over all entries (scalar output).
    pub fn sum(&self) -> Tensor {
        let value = Matrix::full(1, 1, self.borrow_value().sum());
        let a = self.clone();
        let requires = a.requires_grad();
        Tensor::make(
            value,
            vec![a.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    let (r, c) = a.shape();
                    a.accumulate_grad(&Matrix::full(r, c, g.get(0, 0)));
                }
            })),
            requires,
        )
    }

    /// Selects a contiguous column range `[start, end)`.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        let value = self.borrow_value().slice_cols(start, end);
        let a = self.clone();
        let requires = a.requires_grad();
        Tensor::make(
            value,
            vec![a.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    let (ar, ac) = a.shape();
                    let mut scattered = Matrix::zeros(ar, ac);
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            scattered.set(r, start + c, g.get(r, c));
                        }
                    }
                    a.accumulate_grad(&scattered);
                }
            })),
            requires,
        )
    }

    /// Concatenates tensors horizontally (all must share the row count).
    pub fn concat_cols(parts: &[Tensor]) -> Tensor {
        let value = {
            let values: Vec<Ref<'_, Matrix>> = parts.iter().map(Tensor::borrow_value).collect();
            Matrix::concat_cols(&values.iter().map(|v| &**v).collect::<Vec<_>>())
        };
        let owned: Vec<Tensor> = parts.to_vec();
        let requires = owned.iter().any(Tensor::requires_grad);
        let parents = owned.clone();
        Tensor::make(
            value,
            parents,
            Some(Box::new(move |g: &Matrix| {
                let mut offset = 0;
                for p in &owned {
                    let (pr, pc) = p.shape();
                    if p.requires_grad() {
                        let mut slice = Matrix::zeros(pr, pc);
                        for r in 0..pr {
                            for c in 0..pc {
                                slice.set(r, c, g.get(r, offset + c));
                            }
                        }
                        p.accumulate_grad(&slice);
                    }
                    offset += pc;
                }
            })),
            requires,
        )
    }

    /// Selects a single row as a `1 × cols` tensor (e.g. the `CLS` position).
    pub fn row(&self, index: usize) -> Tensor {
        let value = self.borrow_value().row(index);
        let a = self.clone();
        let requires = a.requires_grad();
        Tensor::make(
            value,
            vec![a.clone()],
            Some(Box::new(move |g: &Matrix| {
                if a.requires_grad() {
                    let (ar, ac) = a.shape();
                    let mut scattered = Matrix::zeros(ar, ac);
                    for c in 0..ac {
                        scattered.set(index, c, g.get(0, c));
                    }
                    a.accumulate_grad(&scattered);
                }
            })),
            requires,
        )
    }

    /// Gathers rows of an embedding table by token id.
    pub fn embedding_lookup(table: &Tensor, ids: &[usize]) -> Tensor {
        let value = table.borrow_value().gather_rows(ids);
        let t = table.clone();
        let ids_owned: Vec<usize> = ids.to_vec();
        let requires = t.requires_grad();
        Tensor::make(
            value,
            vec![t.clone()],
            Some(Box::new(move |g: &Matrix| {
                if t.requires_grad() {
                    let (tr, tc) = t.shape();
                    let mut scattered = Matrix::zeros(tr, tc);
                    for (r, &id) in ids_owned.iter().enumerate() {
                        for c in 0..tc {
                            scattered.set(id, c, scattered.get(id, c) + g.get(r, c));
                        }
                    }
                    t.accumulate_grad(&scattered);
                }
            })),
            requires,
        )
    }

    /// Row-wise layer normalization with learnable gain and bias
    /// (`gamma`, `beta` are `1 × cols`).
    pub fn layer_norm(&self, gamma: &Tensor, beta: &Tensor, eps: f32) -> Tensor {
        let (normalized, inv_std) = self.borrow_value().normalize_rows(eps);
        let value = normalized.scale_shift_rows(&gamma.borrow_value(), &beta.borrow_value());
        let (a, gm, bt) = (self.clone(), gamma.clone(), beta.clone());
        let requires = a.requires_grad() || gm.requires_grad() || bt.requires_grad();
        let saved_norm = normalized;
        let saved_inv_std = inv_std;
        Tensor::make(
            value,
            vec![a.clone(), gm.clone(), bt.clone()],
            Some(Box::new(move |g: &Matrix| {
                let (rows, cols) = (g.rows(), g.cols());
                let gamma_v = gm.value();
                if gm.requires_grad() {
                    let mut dgamma = Matrix::zeros(1, cols);
                    for r in 0..rows {
                        for c in 0..cols {
                            dgamma.set(0, c, dgamma.get(0, c) + g.get(r, c) * saved_norm.get(r, c));
                        }
                    }
                    gm.accumulate_grad(&dgamma);
                }
                if bt.requires_grad() {
                    bt.accumulate_grad(&g.sum_rows());
                }
                if a.requires_grad() {
                    let mut dx = Matrix::zeros(rows, cols);
                    for (r, &inv_std_r) in saved_inv_std.iter().enumerate().take(rows) {
                        // dY/dX for layer norm (standard formula).
                        let dnorm: Vec<f32> =
                            (0..cols).map(|c| g.get(r, c) * gamma_v.get(0, c)).collect();
                        let mean_dnorm: f32 = dnorm.iter().sum::<f32>() / cols as f32;
                        let mean_dnorm_norm: f32 = dnorm
                            .iter()
                            .enumerate()
                            .map(|(c, &d)| d * saved_norm.get(r, c))
                            .sum::<f32>()
                            / cols as f32;
                        for (c, &d) in dnorm.iter().enumerate() {
                            let v = (d - mean_dnorm - saved_norm.get(r, c) * mean_dnorm_norm)
                                * inv_std_r;
                            dx.set(r, c, v);
                        }
                    }
                    a.accumulate_grad(&dx);
                }
            })),
            requires,
        )
    }

    /// Cross-entropy loss between row logits and integer targets, averaged
    /// over rows; `ignore_index` rows (e.g. padding) contribute nothing.
    pub fn cross_entropy(&self, targets: &[usize], ignore_index: Option<usize>) -> Tensor {
        let probs = self.borrow_value().softmax_rows();
        let rows = probs.rows();
        let mut total = 0.0f32;
        let mut counted = 0usize;
        for (r, &t) in targets.iter().enumerate().take(rows) {
            if Some(t) == ignore_index {
                continue;
            }
            total -= probs.get(r, t).max(1e-12).ln();
            counted += 1;
        }
        let denom = counted.max(1) as f32;
        let value = Matrix::full(1, 1, total / denom);
        let a = self.clone();
        let targets_owned: Vec<usize> = targets.to_vec();
        let requires = a.requires_grad();
        Tensor::make(
            value,
            vec![a.clone()],
            Some(Box::new(move |g: &Matrix| {
                if !a.requires_grad() {
                    return;
                }
                let logits = a.value();
                let probs = logits.softmax_rows();
                let mut grad = Matrix::zeros(logits.rows(), logits.cols());
                for (r, &t) in targets_owned.iter().enumerate().take(logits.rows()) {
                    if Some(t) == ignore_index {
                        continue;
                    }
                    for c in 0..logits.cols() {
                        let indicator = if c == t { 1.0 } else { 0.0 };
                        grad.set(r, c, (probs.get(r, c) - indicator) / denom);
                    }
                }
                a.accumulate_grad(&grad.scale(g.get(0, 0)));
            })),
            requires,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn numeric_grad(f: impl Fn(&Matrix) -> f32, at: &Matrix, eps: f32) -> Matrix {
        let mut grad = Matrix::zeros(at.rows(), at.cols());
        for r in 0..at.rows() {
            for c in 0..at.cols() {
                let mut plus = at.clone();
                plus.set(r, c, plus.get(r, c) + eps);
                let mut minus = at.clone();
                minus.set(r, c, minus.get(r, c) - eps);
                grad.set(r, c, (f(&plus) - f(&minus)) / (2.0 * eps));
            }
        }
        grad
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f32) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < tol, "gradients differ: {x} vs {y}");
        }
    }

    #[test]
    fn backward_through_matmul_matches_numeric_gradient() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let a_value = Matrix::xavier(3, 4, &mut rng);
        let b_value = Matrix::xavier(4, 2, &mut rng);

        let a = Tensor::parameter(a_value.clone());
        let b = Tensor::parameter(b_value.clone());
        let loss = a.matmul(&b).relu().mean();
        loss.backward();

        let numeric = numeric_grad(
            |m| {
                Tensor::constant(m.clone())
                    .matmul(&Tensor::constant(b_value.clone()))
                    .relu()
                    .mean()
                    .value()
                    .get(0, 0)
            },
            &a_value,
            1e-3,
        );
        assert_close(&a.grad(), &numeric, 1e-2);
    }

    #[test]
    fn backward_through_softmax_matches_numeric_gradient() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let x_value = Matrix::xavier(2, 5, &mut rng);
        let x = Tensor::parameter(x_value.clone());
        let loss = x
            .softmax_rows()
            .mul(&Tensor::constant(Matrix::full(2, 5, 0.3)))
            .sum();
        loss.backward();
        let numeric = numeric_grad(
            |m| {
                Tensor::constant(m.clone())
                    .softmax_rows()
                    .mul(&Tensor::constant(Matrix::full(2, 5, 0.3)))
                    .sum()
                    .value()
                    .get(0, 0)
            },
            &x_value,
            1e-3,
        );
        assert_close(&x.grad(), &numeric, 1e-2);
    }

    #[test]
    fn backward_through_layer_norm_matches_numeric_gradient() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let x_value = Matrix::xavier(3, 6, &mut rng);
        let gamma = Matrix::full(1, 6, 1.2);
        let beta = Matrix::full(1, 6, -0.1);
        let x = Tensor::parameter(x_value.clone());
        let loss = x
            .layer_norm(
                &Tensor::constant(gamma.clone()),
                &Tensor::constant(beta.clone()),
                1e-5,
            )
            .tanh()
            .mean();
        loss.backward();
        let numeric = numeric_grad(
            |m| {
                Tensor::constant(m.clone())
                    .layer_norm(
                        &Tensor::constant(gamma.clone()),
                        &Tensor::constant(beta.clone()),
                        1e-5,
                    )
                    .tanh()
                    .mean()
                    .value()
                    .get(0, 0)
            },
            &x_value,
            1e-3,
        );
        assert_close(&x.grad(), &numeric, 2e-2);
    }

    #[test]
    fn backward_through_cross_entropy_matches_numeric_gradient() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let x_value = Matrix::xavier(3, 4, &mut rng);
        let targets = vec![0usize, 2, 3];
        let x = Tensor::parameter(x_value.clone());
        let loss = x.cross_entropy(&targets, None);
        loss.backward();
        let numeric = numeric_grad(
            |m| {
                Tensor::constant(m.clone())
                    .cross_entropy(&targets, None)
                    .value()
                    .get(0, 0)
            },
            &x_value,
            1e-3,
        );
        assert_close(&x.grad(), &numeric, 1e-2);
    }

    #[test]
    fn embedding_lookup_accumulates_into_used_rows_only() {
        let table = Tensor::parameter(Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let out = Tensor::embedding_lookup(&table, &[0, 2, 2]);
        assert_eq!(out.value().data(), &[1.0, 2.0, 5.0, 6.0, 5.0, 6.0]);
        out.sum().backward();
        let grad = table.grad();
        assert_eq!(grad.get(0, 0), 1.0);
        assert_eq!(grad.get(1, 0), 0.0, "unused row gets no gradient");
        assert_eq!(grad.get(2, 0), 2.0, "row used twice accumulates twice");
    }

    #[test]
    fn slice_and_concat_are_inverse_shapes() {
        let x = Tensor::parameter(Matrix::from_vec(2, 4, (0..8).map(|v| v as f32).collect()));
        let left = x.slice_cols(0, 2);
        let right = x.slice_cols(2, 4);
        let back = Tensor::concat_cols(&[left, right]);
        assert_eq!(back.value(), x.value());
        back.sum().backward();
        assert_eq!(x.grad(), Matrix::full(2, 4, 1.0));
    }

    #[test]
    fn repeated_operand_accumulates_both_contributions() {
        // loss = mean(x ⊙ x): d/dx = 2x / n.
        let x = Tensor::parameter(Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]));
        x.mul(&x).mean().backward();
        let g = x.grad();
        assert!((g.get(0, 0) - 2.0 / 3.0).abs() < 1e-5);
        assert!((g.get(0, 1) + 4.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let x = Tensor::parameter(Matrix::full(1, 2, 1.0));
        let c = Tensor::constant(Matrix::full(1, 2, 5.0));
        x.mul(&c).sum().backward();
        assert_eq!(c.grad(), Matrix::zeros(1, 2));
        assert_eq!(x.grad(), Matrix::full(1, 2, 5.0));
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_a_scalar() {
        let x = Tensor::parameter(Matrix::zeros(2, 2));
        x.relu().backward();
    }

    #[test]
    fn zero_grad_resets_accumulation() {
        let x = Tensor::parameter(Matrix::full(1, 1, 2.0));
        x.mul(&x).mean().backward();
        assert!(x.grad().get(0, 0) > 0.0);
        x.zero_grad();
        assert_eq!(x.grad().get(0, 0), 0.0);
    }
}
