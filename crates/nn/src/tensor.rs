//! Parameters, and the tape that differentiates through them.
//!
//! A [`Tensor`] is a trainable parameter: a value and an accumulated gradient
//! behind a shareable handle — what layers hold, optimizers update and policy
//! snapshots save. A [`Tape`] records one computation over parameters and
//! constants as a `Vec` of nodes: an operation is an enum variant naming its
//! operands by index, and every value and gradient sits in one flat buffer the
//! tape keeps across [`Tape::clear`], so a warm training step allocates
//! nothing per operation. A [`Var`] is a value on a tape (tape + index); it
//! implements [`Forward`], so the layers that run tape-free on a [`Matrix`]
//! are the layers that train.
//!
//! [`Var::backward`] is one `match` over the operation enum. Two rules make
//! its result reproducible to the bit. **Order:** nodes are visited in the
//! reverse of the depth-first post-order from the loss over operands in
//! operand order (not in reverse creation order), which fixes the sequence in
//! which a value with several consumers receives their contributions.
//! **Contributions are formed apart:** each one is computed on its own, from
//! `+0`, and then added to the gradient; a gradient is never used as the
//! running sum of a product.

use crate::forward::Forward;
use crate::matrix::{self, add_each, Matrix, Scratch};
use std::borrow::Cow;
use std::cell::{Ref, RefCell, RefMut};
use std::ops::Deref;
use std::rc::Rc;

struct Parameter {
    value: RefCell<Matrix>,
    grad: RefCell<Matrix>,
}

/// A trainable parameter: a matrix value plus the gradient the last backward
/// passes accumulated for it. Clones share both.
#[derive(Clone)]
pub struct Tensor {
    inner: Rc<Parameter>,
}

impl std::fmt::Debug for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tensor")
            .field("shape", &self.shape())
            .finish()
    }
}

impl Tensor {
    /// A trainable parameter with a zero gradient.
    pub fn parameter(value: Matrix) -> Tensor {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Tensor {
            inner: Rc::new(Parameter {
                value: RefCell::new(value),
                grad: RefCell::new(grad),
            }),
        }
    }

    /// A copy of the current value.
    pub fn value(&self) -> Matrix {
        self.borrow_value().clone()
    }

    /// The current value, borrowed: what the tape and tape-free inference
    /// read, so neither copies a weight matrix.
    ///
    /// # Panics
    ///
    /// Panics if the guard is held across a call that writes the value
    /// ([`Tensor::set_value`], an optimizer step).
    pub fn borrow_value(&self) -> Ref<'_, Matrix> {
        self.inner.value.borrow()
    }

    /// A copy of the accumulated gradient.
    pub fn grad(&self) -> Matrix {
        self.borrow_grad().clone()
    }

    /// The accumulated gradient, borrowed.
    ///
    /// # Panics
    ///
    /// Panics if the guard is held across a backward pass or
    /// [`Tensor::zero_grad`].
    pub fn borrow_grad(&self) -> Ref<'_, Matrix> {
        self.inner.grad.borrow()
    }

    pub(crate) fn value_mut(&self) -> RefMut<'_, Matrix> {
        self.inner.value.borrow_mut()
    }

    fn grad_mut(&self) -> RefMut<'_, Matrix> {
        self.inner.grad.borrow_mut()
    }

    /// Shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        let value = self.borrow_value();
        (value.rows(), value.cols())
    }

    /// Resets the accumulated gradient to zero.
    pub fn zero_grad(&self) {
        self.grad_mut().data_mut().fill(0.0);
    }

    /// Overwrites the value (used when loading saved policies).
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree.
    pub fn set_value(&self, value: Matrix) {
        assert_eq!(
            self.shape(),
            (value.rows(), value.cols()),
            "set_value shape mismatch"
        );
        *self.value_mut() = value;
    }
}

/// One recorded operation: which earlier nodes it read (by index, in the order
/// gradients are handed back to them) and the few scalars its backward pass
/// needs. Ranges index [`Recording::lists`].
#[derive(Debug, Clone, Copy)]
enum Op {
    Constant,
    /// Index into [`Recording::params`]; value and gradient live in the
    /// parameter, not on the tape.
    Param(usize),
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Matmul(usize, usize),
    MatmulNt(usize, usize),
    AddBias(usize, usize),
    Map(usize, Unary),
    Softmax(usize),
    Mean(usize),
    Sum(usize),
    /// Operand and first column.
    SliceCols(usize, usize),
    /// Operand and row.
    Row(usize, usize),
    /// The parts, as a range of node indices.
    Concat(usize, usize),
    /// The table and the gathered row ids, as a range.
    Gather(usize, (usize, usize)),
    /// Input, gain, bias; the normalized rows and each row's `1 / std` are
    /// kept after the node's value.
    LayerNorm(usize, usize, usize),
    /// The row-wise softmax of the logits is kept after the node's value.
    CrossEntropy {
        logits: usize,
        targets: (usize, usize),
        ignore: Option<usize>,
        denom: f32,
    },
}

impl Op {
    /// The `n`-th operand.
    fn operand(self, n: usize, lists: &[usize]) -> Option<usize> {
        use Op::*;
        match self {
            Constant | Param(_) => None,
            Add(a, b) | Sub(a, b) | Mul(a, b) | Matmul(a, b) | MatmulNt(a, b) | AddBias(a, b) => {
                [a, b].get(n).copied()
            }
            LayerNorm(x, gamma, beta) => [x, gamma, beta].get(n).copied(),
            Concat(start, end) => lists[start..end].get(n).copied(),
            Map(a, _)
            | Softmax(a)
            | Mean(a)
            | Sum(a)
            | SliceCols(a, _)
            | Row(a, _)
            | Gather(a, _)
            | CrossEntropy { logits: a, .. } => (n == 0).then_some(a),
        }
    }
}

/// An element-wise function of one value.
#[derive(Debug, Clone, Copy)]
enum Unary {
    Scale(f32),
    Relu,
    Tanh,
    Sigmoid,
    /// Of the input clamped to `±30`.
    Exp,
    /// Of the input clamped at `1e-12` from below.
    Ln,
}

impl Unary {
    fn apply(self, v: f32) -> f32 {
        match self {
            Unary::Scale(k) => v * k,
            Unary::Relu => matrix::relu(v),
            Unary::Tanh => v.tanh(),
            Unary::Sigmoid => matrix::sigmoid(v),
            Unary::Exp => v.clamp(-30.0, 30.0).exp(),
            Unary::Ln => v.max(1e-12).ln(),
        }
    }

    /// The derivative at input `v`, where the function's value is `y`.
    fn slope(self, v: f32, y: f32) -> f32 {
        match self {
            Unary::Scale(k) => k,
            Unary::Relu if v > 0.0 => 1.0,
            Unary::Relu => 0.0,
            Unary::Tanh => 1.0 - y * y,
            Unary::Sigmoid => y * (1.0 - y),
            Unary::Exp => y,
            Unary::Ln => 1.0 / v.max(1e-12),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    op: Op,
    rows: usize,
    cols: usize,
    /// Where the value starts in [`Recording::values`] and the gradient in
    /// [`Recording::grads`] (unused by parameters).
    at: usize,
    /// Whether a parameter is among the node's ancestors.
    needs_grad: bool,
}

impl Node {
    fn len(&self) -> usize {
        self.rows * self.cols
    }
}

/// A value an operation reads: recorded on the tape, or borrowed from the
/// parameter it belongs to.
enum Operand<'a> {
    Recorded(&'a [f32]),
    Parameter(Ref<'a, Matrix>),
}

impl Deref for Operand<'_> {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        match self {
            Operand::Recorded(slice) => slice,
            Operand::Parameter(matrix) => matrix.data(),
        }
    }
}

/// The nodes an operation may read: everything recorded before it.
struct Earlier<'a> {
    nodes: &'a [Node],
    params: &'a [Tensor],
    values: &'a [f32],
}

impl<'a> Earlier<'a> {
    fn value(&self, id: usize) -> Operand<'a> {
        let node = &self.nodes[id];
        match node.op {
            Op::Param(p) => Operand::Parameter(self.params[p].borrow_value()),
            _ => Operand::Recorded(&self.values[node.at..node.at + node.len()]),
        }
    }
}

/// The gradients a node's backward pass adds to: those of earlier nodes.
struct Targets<'a> {
    nodes: &'a [Node],
    params: &'a [Tensor],
    grads: &'a mut [f32],
}

impl Targets<'_> {
    /// Runs `add` on the gradient of node `id`, if it has one.
    fn of(&mut self, id: usize, add: impl FnOnce(&mut [f32])) {
        let node = &self.nodes[id];
        match node.op {
            _ if !node.needs_grad => {}
            Op::Param(p) => add(self.params[p].grad_mut().data_mut()),
            _ => add(&mut self.grads[node.at..node.at + node.len()]),
        }
    }
}

/// The sum of the rows of `g` (`cols` wide), formed in `scratch`.
fn sum_rows<'s>(g: &[f32], cols: usize, scratch: &'s mut Scratch) -> &'s [f32] {
    let sums = scratch.zeroed_row(cols);
    for row in g.chunks_exact(cols) {
        add_each(sums, row.iter().copied());
    }
    sums
}

#[derive(Default)]
struct Recording {
    nodes: Vec<Node>,
    params: Vec<Tensor>,
    /// Concatenated parts, gathered ids and class targets, by range.
    lists: Vec<usize>,
    values: Vec<f32>,
    grads: Vec<f32>,
    scratch: Scratch,
    // The backward walk's work lists.
    order: Vec<usize>,
    stack: Vec<(usize, usize)>,
    seen: Vec<bool>,
}

impl Recording {
    /// Appends a `rows × cols` node, its value (and `extra` saved numbers
    /// after it) computed by `fill` into zeroed space.
    fn push(
        &mut self,
        op: Op,
        (rows, cols): (usize, usize),
        extra: usize,
        fill: impl FnOnce(&Earlier<'_>, &mut [f32], &mut Scratch),
    ) -> usize {
        let at = self.values.len();
        self.values.resize(at + rows * cols + extra, 0.0);
        let (earlier, out) = self.values.split_at_mut(at);
        let earlier = Earlier {
            nodes: &self.nodes,
            params: &self.params,
            values: earlier,
        };
        fill(&earlier, out, &mut self.scratch);
        let needs_grad = (0..)
            .map_while(|n| op.operand(n, &self.lists))
            .any(|operand| self.nodes[operand].needs_grad);
        self.nodes.push(Node {
            op,
            rows,
            cols,
            at,
            needs_grad,
        });
        self.nodes.len() - 1
    }

    /// Appends a list and returns its range.
    fn list(&mut self, items: impl Iterator<Item = usize>) -> (usize, usize) {
        let start = self.lists.len();
        self.lists.extend(items);
        (start, self.lists.len())
    }

    /// The nodes the loss depends on through a parameter, in depth-first
    /// post-order from `root` over operands in operand order.
    fn post_order(&mut self, root: usize) {
        self.order.clear();
        self.stack.clear();
        self.seen.clear();
        self.seen.resize(self.nodes.len(), false);
        if self.nodes[root].needs_grad {
            self.seen[root] = true;
            self.stack.push((root, 0));
        }
        while let Some((id, next)) = self.stack.last_mut() {
            match self.nodes[*id].op.operand(*next, &self.lists) {
                Some(operand) => {
                    *next += 1;
                    let operand_node = &self.nodes[operand];
                    let is_leaf = matches!(operand_node.op, Op::Param(_));
                    if operand_node.needs_grad && !is_leaf && !self.seen[operand] {
                        self.seen[operand] = true;
                        self.stack.push((operand, 0));
                    }
                }
                None => {
                    self.order.push(*id);
                    self.stack.pop();
                }
            }
        }
    }

    fn backward(&mut self, root: usize) {
        assert_eq!(
            (self.nodes[root].rows, self.nodes[root].cols),
            (1, 1),
            "backward() must be called on a scalar loss"
        );
        if let Op::Param(p) = self.nodes[root].op {
            self.params[p].grad_mut().data_mut()[0] = 1.0;
            return;
        }
        self.post_order(root);
        self.grads.clear();
        self.grads.resize(self.values.len(), 0.0);
        self.grads[self.nodes[root].at] = 1.0;
        let (nodes, params, lists) = (&self.nodes[..], &self.params[..], &self.lists[..]);
        let (values, grads, scratch) = (&self.values[..], &mut self.grads, &mut self.scratch);
        let earlier = Earlier {
            nodes,
            params,
            values,
        };
        for &id in self.order.iter().rev() {
            let node = nodes[id];
            let (before, own) = grads.split_at_mut(node.at);
            let g = &own[..node.len()];
            // The node's own value, then whatever its forward pass saved.
            let (out, saved) = values[node.at..].split_at(node.len());
            let mut targets = Targets {
                nodes,
                params,
                grads: before,
            };
            match node.op {
                Op::Constant | Op::Param(_) => unreachable!("leaves are not visited"),
                Op::Add(a, b) => {
                    targets.of(a, |t| add_each(t, g.iter().copied()));
                    targets.of(b, |t| add_each(t, g.iter().copied()));
                }
                Op::Sub(a, b) => {
                    targets.of(a, |t| add_each(t, g.iter().copied()));
                    targets.of(b, |t| add_each(t, g.iter().map(|g| g * -1.0)));
                }
                Op::Mul(a, b) => {
                    let (va, vb) = (earlier.value(a), earlier.value(b));
                    targets.of(a, |t| {
                        add_each(t, g.iter().zip(vb.iter()).map(|(g, b)| g * b))
                    });
                    targets.of(b, |t| {
                        add_each(t, g.iter().zip(va.iter()).map(|(g, a)| g * a))
                    });
                }
                Op::Map(a, f) => {
                    let va = earlier.value(a);
                    let slopes = va.iter().zip(out).map(|(&v, &y)| f.slope(v, y));
                    targets.of(a, |t| add_each(t, g.iter().zip(slopes).map(|(g, d)| g * d)));
                }
                Op::Matmul(a, b) => {
                    let (k, n) = (nodes[a].cols, node.cols);
                    let (va, vb) = (earlier.value(a), earlier.value(b));
                    targets.of(a, |t| scratch.matmul_nt(g, &vb, t, n, k));
                    targets.of(b, |t| scratch.matmul_tn(&va, g, t, k, n));
                }
                Op::MatmulNt(a, b) => {
                    let (k, n) = (nodes[a].cols, node.cols);
                    let (va, vb) = (earlier.value(a), earlier.value(b));
                    targets.of(a, |t| scratch.matmul(g, &vb, t, n, k));
                    targets.of(b, |t| scratch.matmul_tn(g, &va, t, n, k));
                }
                Op::AddBias(a, bias) => {
                    targets.of(a, |t| add_each(t, g.iter().copied()));
                    targets.of(bias, |t| {
                        add_each(t, sum_rows(g, node.cols, scratch).iter().copied())
                    });
                }
                Op::Softmax(a) => targets.of(a, |t| {
                    // d x_i = s_i * (g_i - Σ_j g_j s_j), row-wise.
                    let rows = g.chunks_exact(node.cols).zip(out.chunks_exact(node.cols));
                    for ((g, s), t) in rows.zip(t.chunks_exact_mut(node.cols)) {
                        let dot: f32 = g.iter().zip(s).map(|(g, s)| g * s).sum();
                        add_each(t, g.iter().zip(s).map(|(g, s)| s * (g - dot)));
                    }
                }),
                Op::Mean(a) => {
                    let each = g[0] / nodes[a].len() as f32;
                    targets.of(a, |t| add_each(t, std::iter::repeat(each)));
                }
                Op::Sum(a) => targets.of(a, |t| add_each(t, std::iter::repeat(g[0]))),
                Op::SliceCols(a, start) => {
                    let width = nodes[a].cols;
                    targets.of(a, |t| {
                        for (t, g) in t.chunks_exact_mut(width).zip(g.chunks_exact(node.cols)) {
                            add_each(&mut t[start..], g.iter().copied());
                        }
                    });
                }
                Op::Concat(start, end) => {
                    let mut offset = 0;
                    for &part in &lists[start..end] {
                        let width = nodes[part].cols;
                        targets.of(part, |t| {
                            for (t, g) in t.chunks_exact_mut(width).zip(g.chunks_exact(node.cols)) {
                                add_each(t, g[offset..].iter().copied());
                            }
                        });
                        offset += width;
                    }
                }
                Op::Row(a, index) => targets.of(a, |t| {
                    add_each(&mut t[index * node.cols..], g.iter().copied())
                }),
                Op::Gather(table, (start, end)) => targets.of(table, |t| {
                    // A row gathered twice contributes the sum of its two
                    // gradients, formed apart like any other contribution.
                    let sums = scratch.zeroed_row(t.len());
                    for (&id, g) in lists[start..end].iter().zip(g.chunks_exact(node.cols)) {
                        add_each(&mut sums[id * node.cols..], g.iter().copied());
                    }
                    add_each(t, sums.iter().copied());
                }),
                Op::LayerNorm(x, gamma, beta) => {
                    let cols = node.cols;
                    let (normalized, inv_std) = saved.split_at(node.len());
                    targets.of(gamma, |t| {
                        let sums = scratch.zeroed_row(cols);
                        for (g, norm) in g.chunks_exact(cols).zip(normalized.chunks_exact(cols)) {
                            add_each(sums, g.iter().zip(norm).map(|(g, n)| g * n));
                        }
                        add_each(t, sums.iter().copied());
                    });
                    targets.of(beta, |t| {
                        add_each(t, sum_rows(g, cols, scratch).iter().copied())
                    });
                    let gain = earlier.value(gamma);
                    targets.of(x, |t| {
                        let rows = g.chunks_exact(cols).zip(normalized.chunks_exact(cols));
                        for (((g, norm), t), inv_std) in
                            rows.zip(t.chunks_exact_mut(cols)).zip(inv_std)
                        {
                            let dnorm = scratch.zeroed_row(cols);
                            for ((d, g), gain) in dnorm.iter_mut().zip(g).zip(gain.iter()) {
                                *d = g * gain;
                            }
                            let mean_dnorm: f32 = dnorm.iter().sum::<f32>() / cols as f32;
                            let mean_dnorm_norm: f32 =
                                dnorm.iter().zip(norm).map(|(d, n)| d * n).sum::<f32>()
                                    / cols as f32;
                            let dx = dnorm.iter().zip(norm);
                            let dx =
                                dx.map(|(d, n)| (d - mean_dnorm - n * mean_dnorm_norm) * inv_std);
                            add_each(t, dx);
                        }
                    });
                }
                Op::CrossEntropy {
                    logits,
                    targets: (start, end),
                    ignore,
                    denom,
                } => targets.of(logits, |t| {
                    let cols = nodes[logits].cols;
                    let (rows, probs) = (t.chunks_exact_mut(cols), saved.chunks_exact(cols));
                    for ((t, probs), &class) in rows.zip(probs).zip(&lists[start..end]) {
                        if Some(class) == ignore {
                            continue;
                        }
                        let each = probs.iter().enumerate().map(|(c, p)| {
                            let indicator = if c == class { 1.0 } else { 0.0 };
                            (p - indicator) / denom * g[0]
                        });
                        add_each(t, each);
                    }
                }),
            }
        }
    }
}

/// One recorded computation and the buffers it is differentiated in (see
/// the crate example).
#[derive(Default)]
pub struct Tape {
    recording: RefCell<Recording>,
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tape")
            .field("nodes", &self.recording.borrow().nodes.len())
            .finish()
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Forgets every recorded node (`&mut`: no [`Var`] of the old recording
    /// can still be around) and keeps the buffers: the next recording reuses
    /// them, each value written into freshly zeroed space.
    pub fn clear(&mut self) {
        let recording = self.recording.get_mut();
        recording.nodes.clear();
        recording.params.clear();
        recording.lists.clear();
        recording.values.clear();
    }

    /// A constant (no gradient is accumulated for it).
    pub fn constant(&self, value: Matrix) -> Var<'_> {
        let shape = (value.rows(), value.cols());
        let fill =
            |_: &Earlier<'_>, out: &mut [f32], _: &mut Scratch| out.copy_from_slice(value.data());
        self.var(|r| r.push(Op::Constant, shape, 0, fill))
    }

    /// A trainable parameter as a value on this tape: read where it is,
    /// and the destination of its gradient.
    pub fn param(&self, parameter: &Tensor) -> Var<'_> {
        self.var(|r| {
            r.params.push(parameter.clone());
            let (rows, cols) = parameter.shape();
            r.nodes.push(Node {
                op: Op::Param(r.params.len() - 1),
                rows,
                cols,
                at: 0,
                needs_grad: true,
            });
            r.nodes.len() - 1
        })
    }

    fn var(&self, record: impl FnOnce(&mut Recording) -> usize) -> Var<'_> {
        let id = record(&mut self.recording.borrow_mut());
        Var { tape: self, id }
    }
}

/// A value on a [`Tape`]: the result of a recorded operation, a constant or
/// a parameter. The forward operations are those of [`Forward`].
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    id: usize,
}

impl std::fmt::Debug for Var<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.id)
            .field("shape", &self.shape())
            .finish()
    }
}

impl<'t> Var<'t> {
    /// Shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        let node = self.tape.recording.borrow().nodes[self.id];
        (node.rows, node.cols)
    }

    /// A copy of the value.
    pub fn value(&self) -> Matrix {
        let (rows, cols) = self.shape();
        self.read(|v| Matrix::from_vec(rows, cols, v.to_vec()))
    }

    /// One entry of the value.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let cols = self.shape().1;
        self.read(|v| v[r * cols + c])
    }

    fn read<R>(&self, f: impl FnOnce(&[f32]) -> R) -> R {
        let recording = self.tape.recording.borrow();
        let earlier = Earlier {
            nodes: &recording.nodes,
            params: &recording.params,
            values: &recording.values,
        };
        let value = earlier.value(self.id);
        f(&value)
    }

    /// Backpropagates from this (scalar) value: every parameter the value
    /// depends on has the gradient added to its [`Tensor::grad`].
    ///
    /// # Panics
    ///
    /// Panics if the value is not `1 × 1`.
    pub fn backward(&self) {
        self.tape.recording.borrow_mut().backward(self.id);
    }

    /// Records an operation reading `self` (and whatever `fill` reads).
    fn push(
        &self,
        op: Op,
        shape: (usize, usize),
        extra: usize,
        fill: impl FnOnce(&Earlier<'_>, &mut [f32], &mut Scratch),
    ) -> Var<'t> {
        self.tape.var(|r| r.push(op, shape, extra, fill))
    }

    fn map(&self, f: Unary) -> Var<'t> {
        self.push(Op::Map(self.id, f), self.shape(), 0, |e, out, _| {
            for (o, &v) in out.iter_mut().zip(e.value(self.id).iter()) {
                *o = f.apply(v);
            }
        })
    }

    fn zip(&self, other: &Var<'t>, op: Op, f: impl Fn(f32, f32) -> f32) -> Var<'t> {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        self.push(op, self.shape(), 0, |e, out, _| {
            let (a, b) = (e.value(self.id), e.value(other.id));
            for ((o, &a), &b) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
                *o = f(a, b);
            }
        })
    }

    /// Element-wise exponential (of the input clamped to `±30`).
    pub fn exp(&self) -> Var<'t> {
        self.map(Unary::Exp)
    }

    /// Element-wise natural logarithm (inputs are clamped at `1e-12` to keep
    /// the operation defined for probabilities that underflow to zero).
    pub fn ln(&self) -> Var<'t> {
        self.map(Unary::Ln)
    }

    /// Mean over all entries (scalar output).
    pub fn mean(&self) -> Var<'t> {
        self.push(Op::Mean(self.id), (1, 1), 0, |e, out, _| {
            let v = e.value(self.id);
            out[0] = if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f32>() / v.len() as f32
            };
        })
    }

    /// Sum over all entries (scalar output).
    pub fn sum(&self) -> Var<'t> {
        self.push(Op::Sum(self.id), (1, 1), 0, |e, out, _| {
            out[0] = e.value(self.id).iter().sum();
        })
    }

    /// Cross-entropy loss between row logits and integer targets, averaged
    /// over rows; `ignore_index` rows (e.g. padding) contribute nothing.
    pub fn cross_entropy(&self, targets: &[usize], ignore_index: Option<usize>) -> Var<'t> {
        let (rows, cols) = self.shape();
        let targets = &targets[..targets.len().min(rows)];
        let counted = targets.iter().filter(|&&t| Some(t) != ignore_index);
        let denom = counted.count().max(1) as f32;
        self.tape.var(|r| {
            let op = Op::CrossEntropy {
                logits: self.id,
                targets: r.list(targets.iter().copied()),
                ignore: ignore_index,
                denom,
            };
            r.push(op, (1, 1), rows * cols, |e, out, _| {
                let (loss, probs) = out.split_at_mut(1);
                probs.copy_from_slice(&e.value(self.id));
                matrix::softmax_rows(probs, cols);
                let mut total = 0.0f32;
                for (probs, &t) in probs.chunks_exact(cols).zip(targets) {
                    if Some(t) != ignore_index {
                        total -= probs[t].max(1e-12).ln();
                    }
                }
                loss[0] = total / denom;
            })
        })
    }
}

impl<'t> Forward for Var<'t> {
    type Tape = &'t Tape;
    // An owned `Var` wherever a borrowed parameter view is expected.
    type Param<'a>
        = Cow<'a, Var<'t>>
    where
        Self: 'a;

    fn tape(&self) -> &'t Tape {
        self.tape
    }
    fn param<'a>(on: &'t Tape, parameter: &'a Tensor) -> Cow<'a, Var<'t>> {
        Cow::Owned(on.param(parameter))
    }
    fn constant(on: &'t Tape, value: Matrix) -> Self {
        on.constant(value)
    }
    fn to_matrix(&self) -> Matrix {
        self.value()
    }
    fn gather_rows(table: &Self, ids: &[usize]) -> Self {
        let cols = table.shape().1;
        table.tape.var(|r| {
            let op = Op::Gather(table.id, r.list(ids.iter().copied()));
            r.push(op, (ids.len(), cols), 0, |e, out, _| {
                let table = e.value(table.id);
                for (row, &id) in out.chunks_exact_mut(cols).zip(ids) {
                    row.copy_from_slice(&table[id * cols..(id + 1) * cols]);
                }
            })
        })
    }
    fn add(&self, other: &Self) -> Self {
        self.zip(other, Op::Add(self.id, other.id), |a, b| a + b)
    }
    fn sub(&self, other: &Self) -> Self {
        self.zip(other, Op::Sub(self.id, other.id), |a, b| a - b)
    }
    fn mul(&self, other: &Self) -> Self {
        self.zip(other, Op::Mul(self.id, other.id), |a, b| a * b)
    }
    fn scale(&self, k: f32) -> Self {
        self.map(Unary::Scale(k))
    }
    fn matmul(&self, other: &Self) -> Self {
        let ((m, k), (rows, n)) = (self.shape(), other.shape());
        assert_eq!(k, rows, "matmul dimension mismatch");
        self.push(Op::Matmul(self.id, other.id), (m, n), 0, |e, out, s| {
            s.matmul(&e.value(self.id), &e.value(other.id), out, k, n);
        })
    }
    fn matmul_nt(&self, other: &Self) -> Self {
        let ((m, k), (n, cols)) = (self.shape(), other.shape());
        assert_eq!(k, cols, "matmul_nt dimension mismatch");
        self.push(Op::MatmulNt(self.id, other.id), (m, n), 0, |e, out, s| {
            s.matmul_nt(&e.value(self.id), &e.value(other.id), out, k, n);
        })
    }
    fn add_bias(&self, bias: &Self) -> Self {
        let (op, shape) = (Op::AddBias(self.id, bias.id), self.shape());
        assert_eq!(bias.shape(), (1, shape.1), "bias must be a matching row");
        self.push(op, shape, 0, |e, out, _| {
            out.copy_from_slice(&e.value(self.id));
            matrix::add_row_broadcast(out, &e.value(bias.id));
        })
    }
    fn relu(&self) -> Self {
        self.map(Unary::Relu)
    }
    fn tanh(&self) -> Self {
        self.map(Unary::Tanh)
    }
    fn sigmoid(&self) -> Self {
        self.map(Unary::Sigmoid)
    }
    fn softmax_rows(&self) -> Self {
        let shape = self.shape();
        self.push(Op::Softmax(self.id), shape, 0, |e, out, _| {
            out.copy_from_slice(&e.value(self.id));
            matrix::softmax_rows(out, shape.1);
        })
    }
    fn slice_cols(&self, start: usize, end: usize) -> Self {
        let (rows, cols) = self.shape();
        let op = Op::SliceCols(self.id, start);
        self.push(op, (rows, end - start), 0, |e, out, _| {
            let v = e.value(self.id);
            for (out, row) in out.chunks_exact_mut(end - start).zip(v.chunks_exact(cols)) {
                out.copy_from_slice(&row[start..end]);
            }
        })
    }
    fn concat_cols(parts: &[Self]) -> Self {
        let first = parts.first().expect("concat_cols needs at least one value");
        let rows = first.shape().0;
        let total: usize = parts.iter().map(|p| p.shape().1).sum();
        first.tape.var(|r| {
            let (start, end) = r.list(parts.iter().map(|p| p.id));
            r.push(Op::Concat(start, end), (rows, total), 0, |e, out, _| {
                let mut offset = 0;
                for part in parts {
                    let (value, width) = (e.value(part.id), e.nodes[part.id].cols);
                    assert_eq!(e.nodes[part.id].rows, rows, "row count mismatch");
                    for (out, row) in out.chunks_exact_mut(total).zip(value.chunks_exact(width)) {
                        out[offset..offset + width].copy_from_slice(row);
                    }
                    offset += width;
                }
            })
        })
    }
    fn row(&self, index: usize) -> Self {
        let cols = self.shape().1;
        self.push(Op::Row(self.id, index), (1, cols), 0, |e, out, _| {
            out.copy_from_slice(&e.value(self.id)[index * cols..(index + 1) * cols]);
        })
    }
    fn layer_norm(&self, gamma: &Self, beta: &Self, eps: f32) -> Self {
        let (rows, cols) = self.shape();
        let op = Op::LayerNorm(self.id, gamma.id, beta.id);
        self.push(op, (rows, cols), rows * cols + rows, |e, out, _| {
            let (out, saved) = out.split_at_mut(rows * cols);
            let (normalized, inv_std) = saved.split_at_mut(rows * cols);
            matrix::normalize_rows(&e.value(self.id), cols, eps, normalized, inv_std);
            matrix::scale_shift_rows(normalized, &e.value(gamma.id), &e.value(beta.id), out);
        })
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

    /// The gradient `loss` leaves on a parameter holding `at`, next to the
    /// numeric gradient of the same loss over a constant.
    fn gradients(loss: impl for<'t> Fn(Var<'t>) -> Var<'t>, at: &Matrix) -> (Matrix, Matrix) {
        let x = Tensor::parameter(at.clone());
        let tape = Tape::new();
        loss(tape.param(&x)).backward();
        let numeric = numeric_grad(
            |m| {
                let tape = Tape::new();
                loss(tape.constant(m.clone())).get(0, 0)
            },
            at,
            1e-3,
        );
        (x.grad(), numeric)
    }

    #[test]
    fn backward_through_matmul_matches_numeric_gradient() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let a_value = Matrix::xavier(3, 4, &mut rng);
        let b_value = Matrix::xavier(4, 2, &mut rng);
        fn constant<'t>(like: Var<'t>, value: &Matrix) -> Var<'t> {
            like.tape().constant(value.clone())
        }
        let (grad, numeric) =
            gradients(|a| a.matmul(&constant(a, &b_value)).relu().mean(), &a_value);
        assert_close(&grad, &numeric, 1e-2);
        // Either operand, either transposition, several rows and one.
        let (grad, numeric) = gradients(
            |a| {
                let b = constant(a, &b_value);
                a.matmul(&b).matmul_nt(&a.matmul(&b)).tanh().sum()
            },
            &a_value,
        );
        assert_close(&grad, &numeric, 1e-2);
        let (grad, numeric) = gradients(|a| a.row(1).matmul_nt(&a).tanh().sum(), &a_value);
        assert_close(&grad, &numeric, 1e-2);
    }

    #[test]
    fn backward_through_softmax_matches_numeric_gradient() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let x_value = Matrix::xavier(2, 5, &mut rng);
        let (grad, numeric) = gradients(
            |x| {
                let weights = x.tape().constant(Matrix::full(2, 5, 0.3));
                x.softmax_rows().mul(&weights).sum()
            },
            &x_value,
        );
        assert_close(&grad, &numeric, 1e-2);
    }

    #[test]
    fn backward_through_layer_norm_matches_numeric_gradient() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let x_value = Matrix::xavier(3, 6, &mut rng);
        let (grad, numeric) = gradients(
            |x| {
                let gamma = x.tape().constant(Matrix::full(1, 6, 1.2));
                let beta = x.tape().constant(Matrix::full(1, 6, -0.1));
                x.layer_norm(&gamma, &beta, 1e-5).tanh().mean()
            },
            &x_value,
        );
        assert_close(&grad, &numeric, 2e-2);
    }

    #[test]
    fn backward_through_cross_entropy_matches_numeric_gradient() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let x_value = Matrix::xavier(3, 4, &mut rng);
        let (grad, numeric) = gradients(|x| x.cross_entropy(&[0, 2, 3], None), &x_value);
        assert_close(&grad, &numeric, 1e-2);
    }

    #[test]
    fn embedding_lookup_accumulates_into_used_rows_only() {
        let table = Tensor::parameter(Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let tape = Tape::new();
        let out = Var::gather_rows(&tape.param(&table), &[0, 2, 2]);
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
        let tape = Tape::new();
        let v = tape.param(&x);
        let back = Var::concat_cols(&[v.slice_cols(0, 2), v.slice_cols(2, 4)]);
        assert_eq!(back.value(), x.value());
        back.sum().backward();
        assert_eq!(x.grad(), Matrix::full(2, 4, 1.0));
    }

    #[test]
    fn repeated_operand_accumulates_both_contributions() {
        // loss = mean(x ⊙ x): d/dx = 2x / n.
        let x = Tensor::parameter(Matrix::from_vec(1, 3, vec![1.0, -2.0, 3.0]));
        let tape = Tape::new();
        let v = tape.param(&x);
        v.mul(&v).mean().backward();
        let g = x.grad();
        assert!((g.get(0, 0) - 2.0 / 3.0).abs() < 1e-5);
        assert!((g.get(0, 1) + 4.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn constants_receive_no_gradient() {
        let x = Tensor::parameter(Matrix::full(1, 2, 1.0));
        let tape = Tape::new();
        let c = tape.constant(Matrix::full(1, 2, 5.0));
        tape.param(&x).mul(&c).sum().backward();
        let recording = tape.recording.borrow();
        let node = recording.nodes[c.id];
        assert!(!node.needs_grad);
        assert_eq!(recording.grads[node.at..node.at + 2], [0.0, 0.0]);
        assert_eq!(x.grad(), Matrix::full(1, 2, 5.0));
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_a_scalar() {
        let x = Tensor::parameter(Matrix::zeros(2, 2));
        Tape::new().param(&x).relu().backward();
    }

    #[test]
    fn zero_grad_resets_accumulation() {
        let x = Tensor::parameter(Matrix::full(1, 1, 2.0));
        let tape = Tape::new();
        let v = tape.param(&x);
        v.mul(&v).mean().backward();
        assert!(x.grad().get(0, 0) > 0.0);
        x.zero_grad();
        assert_eq!(x.grad().get(0, 0), 0.0);
    }
}
