//! Analytic invariant-noise model.
//!
//! Every ciphertext carries an estimate of the noise budget (in bits) its
//! history has consumed. The estimate follows the standard BFV behaviour:
//! ciphertext–ciphertext multiplications dominate (noise grows roughly by a
//! factor `t·n`, i.e. a few dozen bits per multiplicative level), additions
//! and rotations consume little, and ciphertext–plaintext multiplications sit
//! in between. The default constants are calibrated so that the budgets
//! consumed by the paper's kernels match the values reported in Table 6
//! (e.g. ≈41 bits for a depth-1 kernel, ≈73 bits for depth 2, ≈140 bits for
//! depth 4 under the 369-bit fresh budget).

/// Per-operation noise-budget consumption estimates, in bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Budget consumed by encryption itself (fresh ciphertext).
    pub fresh_bits: f64,
    /// Ciphertext–ciphertext addition or subtraction.
    pub add_bits: f64,
    /// Ciphertext negation.
    pub negate_bits: f64,
    /// Ciphertext–ciphertext multiplication (includes relinearization).
    pub ct_ct_mul_bits: f64,
    /// Ciphertext–plaintext multiplication.
    pub ct_pt_mul_bits: f64,
    /// Slot rotation (Galois automorphism plus key switching).
    pub rotation_bits: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel {
            fresh_bits: 4.0,
            add_bits: 0.3,
            negate_bits: 0.1,
            ct_ct_mul_bits: 34.0,
            ct_pt_mul_bits: 12.0,
            rotation_bits: 1.5,
        }
    }
}

impl NoiseModel {
    /// Noise consumed by combining two operand histories with a binary
    /// operation that costs `op_bits`: the noisier operand dominates.
    pub fn combine(&self, a_consumed: f64, b_consumed: f64, op_bits: f64) -> f64 {
        a_consumed.max(b_consumed) + op_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplications_dominate_the_model() {
        let m = NoiseModel::default();
        assert!(m.ct_ct_mul_bits > m.ct_pt_mul_bits);
        assert!(m.ct_pt_mul_bits > m.rotation_bits);
        assert!(m.rotation_bits > m.add_bits);
    }

    #[test]
    fn combine_takes_the_noisier_operand() {
        let m = NoiseModel::default();
        assert_eq!(m.combine(10.0, 30.0, 1.0), 31.0);
        assert_eq!(m.combine(30.0, 10.0, 1.0), 31.0);
    }

    #[test]
    fn depth_one_kernel_consumes_about_forty_bits() {
        // fresh + one ct-ct multiplication + two additions + two rotations,
        // the shape of the Linear Regression kernels in Table 6.
        let m = NoiseModel::default();
        let consumed = m.fresh_bits + m.ct_ct_mul_bits + 2.0 * m.add_bits + 2.0 * m.rotation_bits;
        assert!(
            (38.0..=46.0).contains(&consumed),
            "consumed {consumed} bits"
        );
    }
}
