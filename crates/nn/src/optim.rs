//! Optimizers: Adam (the one PPO training uses) and plain SGD. Both update
//! the parameters in place from their borrowed gradients.

use crate::matrix::Matrix;
use crate::tensor::Tensor;

/// The Adam optimizer (Kingma & Ba) over an explicit parameter list.
#[derive(Debug)]
pub struct Adam {
    params: Vec<Tensor>,
    learning_rate: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: usize,
    first_moments: Vec<Matrix>,
    second_moments: Vec<Matrix>,
    max_grad_norm: Option<f32>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard momentum constants
    /// (`β1 = 0.9`, `β2 = 0.999`).
    pub fn new(params: Vec<Tensor>, learning_rate: f32) -> Self {
        let first = params
            .iter()
            .map(|p| Matrix::zeros(p.shape().0, p.shape().1))
            .collect();
        let second = params
            .iter()
            .map(|p| Matrix::zeros(p.shape().0, p.shape().1))
            .collect();
        Adam {
            params,
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            first_moments: first,
            second_moments: second,
            max_grad_norm: None,
        }
    }

    /// Enables global gradient-norm clipping (PPO commonly clips at 0.5).
    pub fn with_grad_clip(mut self, max_norm: f32) -> Self {
        self.max_grad_norm = Some(max_norm);
        self
    }

    /// The optimized parameters.
    pub fn params(&self) -> &[Tensor] {
        &self.params
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Applies one update using the gradients currently accumulated on the
    /// parameters, then leaves the gradients untouched (call
    /// `Module::zero_grad` before the next forward pass).
    pub fn step(&mut self) {
        self.step += 1;
        let clip_scale = match self.max_grad_norm {
            Some(max_norm) => {
                let total: f32 = self
                    .params
                    .iter()
                    .map(|p| p.borrow_grad().norm().powi(2))
                    .sum::<f32>()
                    .sqrt();
                if total > max_norm && total > 0.0 {
                    max_norm / total
                } else {
                    1.0
                }
            }
            None => 1.0,
        };
        let bias1 = 1.0 - self.beta1.powi(self.step as i32);
        let bias2 = 1.0 - self.beta2.powi(self.step as i32);
        let moments = self.first_moments.iter_mut().zip(&mut self.second_moments);
        for (p, (first, second)) in self.params.iter().zip(moments) {
            let (mut value, grad) = (p.value_mut(), p.borrow_grad());
            let moments = first.data_mut().iter_mut().zip(second.data_mut());
            for ((value, &grad), (m, v)) in
                value.data_mut().iter_mut().zip(grad.data()).zip(moments)
            {
                let grad = grad * clip_scale;
                *m = *m * self.beta1 + grad * (1.0 - self.beta1);
                *v = *v * self.beta2 + (grad * grad) * (1.0 - self.beta2);
                let (m_hat, v_hat) = (*m * (1.0 / bias1), *v * (1.0 / bias2));
                *value += -self.learning_rate * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::Forward;
    use crate::tensor::Tape;

    /// Accumulates the gradient of `mean((x - 3)^2)` on `x`.
    fn quadratic_loss_backward(x: &Tensor) {
        let tape = Tape::new();
        let diff = tape.param(x).sub(&tape.constant(Matrix::full(1, 1, 3.0)));
        diff.mul(&diff).mean().backward();
    }

    #[test]
    fn adam_minimizes_a_quadratic() {
        let x = Tensor::parameter(Matrix::full(1, 1, -5.0));
        let mut optimizer = Adam::new(vec![x.clone()], 0.2);
        for _ in 0..200 {
            x.zero_grad();
            quadratic_loss_backward(&x);
            optimizer.step();
        }
        assert!((x.value().get(0, 0) - 3.0).abs() < 0.05);
    }

    #[test]
    fn gradient_clipping_bounds_the_update() {
        let x = Tensor::parameter(Matrix::full(1, 1, 1000.0));
        let mut optimizer = Adam::new(vec![x.clone()], 0.1).with_grad_clip(0.5);
        x.zero_grad();
        quadratic_loss_backward(&x);
        let raw_norm = x.grad().norm();
        assert!(raw_norm > 0.5);
        optimizer.step();
        // Adam normalizes per coordinate, but the clipped gradient entering the
        // moment estimates must have norm at most 0.5.
        let clipped = x.grad().scale(0.5 / raw_norm);
        assert!(clipped.norm() <= 0.5 + 1e-4);
    }

    #[test]
    fn the_optimizer_keeps_its_learning_rate_and_parameters() {
        let x = Tensor::parameter(Matrix::full(1, 1, 0.0));
        let optimizer = Adam::new(vec![x.clone()], 0.1);
        assert_eq!(optimizer.learning_rate(), 0.1);
        assert_eq!(optimizer.params().len(), 1);
    }
}
