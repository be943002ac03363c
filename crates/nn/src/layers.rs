//! Basic trainable layers: linear projections, multi-layer perceptrons, and
//! layer normalization, plus the lightweight module conventions (parameter
//! collection and state save/load) shared by all networks in this crate.

use crate::forward::Forward;
use crate::matrix::Matrix;
use crate::tensor::Tensor;
use rand::Rng;

/// Collects the trainable parameters of a network component.
pub trait Module {
    /// All trainable parameters, in a stable order.
    fn parameters(&self) -> Vec<Tensor>;

    /// Number of scalar weights.
    fn parameter_count(&self) -> usize {
        self.parameters()
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                r * c
            })
            .sum()
    }

    /// Snapshots every parameter matrix (used for policy serialization).
    fn state(&self) -> Vec<Matrix> {
        self.parameters().iter().map(Tensor::value).collect()
    }

    /// Restores a snapshot produced by [`Module::state`], copying each
    /// matrix into the parameter's value in place.
    ///
    /// # Panics
    ///
    /// Panics if the number or shapes of matrices do not match.
    fn load_state(&self, state: &[Matrix]) {
        let params = self.parameters();
        assert_eq!(params.len(), state.len(), "state length mismatch");
        for (p, m) in params.iter().zip(state) {
            assert_eq!(p.shape(), (m.rows(), m.cols()), "state shape mismatch");
            p.value_mut().data_mut().copy_from_slice(m.data());
        }
    }

    /// Zeroes the gradient of every parameter.
    fn zero_grad(&self) {
        for p in self.parameters() {
            p.zero_grad();
        }
    }
}

/// A fully connected layer `y = x·W + b`.
#[derive(Debug)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Linear {
            weight: Tensor::parameter(Matrix::xavier(in_dim, out_dim, rng)),
            bias: Tensor::parameter(Matrix::zeros(1, out_dim)),
        }
    }

    /// Applies the layer to a `batch × in_dim` input: recorded when `x` is a
    /// [`Var`](crate::Var) on a tape, tape-free (same arithmetic, weights
    /// borrowed either way) when it is a [`Matrix`].
    pub fn forward<V: Forward>(&self, x: &V) -> V {
        x.matmul(&V::param(x.tape(), &self.weight))
            .add_bias(&V::param(x.tape(), &self.bias))
    }
}

impl Module for Linear {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// Activation functions available to [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// No activation (identity).
    Identity,
}

impl Activation {
    fn apply<V: Forward>(self, x: &V) -> V {
        match self {
            Activation::Relu => x.relu(),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x.clone(),
        }
    }
}

/// A multi-layer perceptron with a configurable list of hidden sizes; hidden
/// layers use the given activation, the output layer is linear.
#[derive(Debug)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes, e.g. `&[256, 128, 64, 10]`
    /// builds three weight matrices.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given.
    pub fn new(sizes: &[usize], activation: Activation, rng: &mut impl Rng) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs an input and an output size");
        let layers = sizes
            .windows(2)
            .map(|pair| Linear::new(pair[0], pair[1], rng))
            .collect();
        Mlp { layers, activation }
    }

    /// Applies the network (taped or tape-free, see [`Linear::forward`]).
    pub fn forward<V: Forward>(&self, x: &V) -> V {
        let mut h = x.clone();
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(&h);
            if i + 1 < self.layers.len() {
                h = self.activation.apply(&h);
            }
        }
        h
    }
}

impl Module for Mlp {
    fn parameters(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(Module::parameters).collect()
    }
}

/// Learnable layer normalization (`gamma`, `beta` over the feature axis).
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Tensor,
    beta: Tensor,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer-norm over `dim` features.
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Tensor::parameter(Matrix::full(1, dim, 1.0)),
            beta: Tensor::parameter(Matrix::zeros(1, dim)),
            eps: 1e-5,
        }
    }

    /// Applies normalization row-wise (taped or tape-free, see
    /// [`Linear::forward`]).
    pub fn forward<V: Forward>(&self, x: &V) -> V {
        let (gamma, beta) = (
            V::param(x.tape(), &self.gamma),
            V::param(x.tape(), &self.beta),
        );
        x.layer_norm(&gamma, &beta, self.eps)
    }
}

impl Module for LayerNorm {
    fn parameters(&self) -> Vec<Tensor> {
        vec![self.gamma.clone(), self.beta.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::tensor::Tape;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn linear_shapes_and_parameters() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let layer = Linear::new(4, 3, &mut rng);
        let out = layer.forward(&Matrix::zeros(5, 4));
        assert_eq!((out.rows(), out.cols()), (5, 3));
        assert_eq!(layer.parameter_count(), 4 * 3 + 3);
        assert_eq!(layer.weight.shape(), (4, 3));
    }

    #[test]
    fn mlp_stacks_layers() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mlp = Mlp::new(&[8, 16, 4], Activation::Relu, &mut rng);
        let out = mlp.forward(&Matrix::zeros(2, 8));
        assert_eq!((out.rows(), out.cols()), (2, 4));
        assert_eq!(mlp.parameters().len(), 4);
    }

    #[test]
    fn state_round_trips_through_save_and_load() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = Mlp::new(&[4, 8, 2], Activation::Tanh, &mut rng);
        let b = Mlp::new(&[4, 8, 2], Activation::Tanh, &mut rng);
        let tape = Tape::new();
        let input = tape.constant(Matrix::full(1, 4, 0.5));
        assert_ne!(a.forward(&input).value(), b.forward(&input).value());
        b.load_state(&a.state());
        assert_eq!(a.forward(&input).value(), b.forward(&input).value());
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let ln = LayerNorm::new(4);
        let tape = Tape::new();
        let x = tape.constant(Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        let out = ln.forward(&x).value();
        let mean: f32 = out.data().iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn mlp_learns_a_simple_regression_task() {
        // Fit y = 2*x0 - x1 with a small MLP; the loss must drop sharply.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mlp = Mlp::new(&[2, 16, 1], Activation::Tanh, &mut rng);
        let mut optimizer = Adam::new(mlp.parameters(), 0.02);
        let inputs: Vec<(f32, f32)> = (0..32)
            .map(|i| ((i % 8) as f32 / 8.0 - 0.5, (i / 8) as f32 / 4.0 - 0.5))
            .collect();
        let x = Matrix::from_vec(32, 2, inputs.iter().flat_map(|&(a, b)| [a, b]).collect());
        let y = Matrix::from_vec(32, 1, inputs.iter().map(|&(a, b)| 2.0 * a - b).collect());
        let mut first_loss = 0.0;
        let mut last_loss = 0.0;
        let mut tape = Tape::new();
        for step in 0..300 {
            tape.clear();
            mlp.zero_grad();
            let pred = mlp.forward(&tape.constant(x.clone()));
            let diff = pred.sub(&tape.constant(y.clone()));
            let loss = diff.mul(&diff).mean();
            loss.backward();
            optimizer.step();
            if step == 0 {
                first_loss = loss.get(0, 0);
            }
            last_loss = loss.get(0, 0);
        }
        assert!(
            last_loss < first_loss * 0.05,
            "loss did not drop: {first_loss} -> {last_loss}"
        );
    }
}
