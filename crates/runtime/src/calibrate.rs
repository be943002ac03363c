//! Timer-augmented cost calibration.
//!
//! The static [`chehab_ir::CostModel`] ranks rewrites with hand-assigned
//! operator latencies (add = 1, rotation = 50, ct-ct mul = 100, ...). The
//! runtime measures the *actual* per-operation latencies on the hardware it
//! runs on, accumulates them here, and can project the measurements back into
//! an [`OpCosts`] table — so the greedy/RL optimizers rank rewrites by
//! observed hardware cost instead of static guesses. This mirrors the
//! timer-augmented cost function of McDoniel & Bientinesi's load-balanced
//! DSMC: replace a modeled per-particle cost with a measured one, keep the
//! balancing machinery unchanged.

use chehab_ir::OpCosts;
use std::time::Duration;

/// The operation categories the runtime times individually.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Ciphertext addition or subtraction (ct-ct or ct-pt).
    Addition,
    /// Ciphertext negation.
    Negation,
    /// Ciphertext–ciphertext multiplication (with relinearization).
    MulCtCt,
    /// Ciphertext–plaintext multiplication.
    MulCtPt,
    /// One realized rotation step.
    Rotation,
    /// Run-time packing of a vector node (rotate-and-accumulate).
    Pack,
}

/// Every [`OpKind`], in a fixed order.
pub const OP_KINDS: [OpKind; 6] = [
    OpKind::Addition,
    OpKind::Negation,
    OpKind::MulCtCt,
    OpKind::MulCtPt,
    OpKind::Rotation,
    OpKind::Pack,
];

impl OpKind {
    /// Stable index into the per-kind tables.
    fn index(self) -> usize {
        match self {
            OpKind::Addition => 0,
            OpKind::Negation => 1,
            OpKind::MulCtCt => 2,
            OpKind::MulCtPt => 3,
            OpKind::Rotation => 4,
            OpKind::Pack => 5,
        }
    }

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Addition => "addition",
            OpKind::Negation => "negation",
            OpKind::MulCtCt => "ct-ct multiplication",
            OpKind::MulCtPt => "ct-pt multiplication",
            OpKind::Rotation => "rotation",
            OpKind::Pack => "runtime pack",
        }
    }
}

/// Measured per-operation-kind latencies, accumulated across executions.
///
/// Cheap to merge, so every worker keeps a private instance and the runtime
/// combines them after the wavefront finishes.
#[derive(Debug, Clone, Default)]
pub struct CalibratedCostModel {
    totals: [Duration; 6],
    counts: [u64; 6],
}

impl CalibratedCostModel {
    /// An empty calibration.
    pub fn new() -> Self {
        CalibratedCostModel::default()
    }

    /// Records one measured operation.
    pub fn record(&mut self, kind: OpKind, elapsed: Duration) {
        self.totals[kind.index()] += elapsed;
        self.counts[kind.index()] += 1;
    }

    /// Accumulates another calibration into this one.
    pub fn merge(&mut self, other: &CalibratedCostModel) {
        for i in 0..6 {
            self.totals[i] += other.totals[i];
            self.counts[i] += other.counts[i];
        }
    }

    /// Number of recorded samples of a kind.
    pub fn count(&self, kind: OpKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total time spent in operations of a kind.
    pub fn total(&self, kind: OpKind) -> Duration {
        self.totals[kind.index()]
    }

    /// Mean latency of a kind, if any sample was recorded. Divided in
    /// `u128` nanoseconds, as [`Histogram::mean`](crate::Histogram::mean)
    /// does: a `Duration` divides by `u32` only, and a count truncated to
    /// one is 0 at 2³² samples.
    pub fn mean(&self, kind: OpKind) -> Option<Duration> {
        let count = self.counts[kind.index()];
        (count > 0).then(|| {
            let mean = self.totals[kind.index()].as_nanos() / u128::from(count);
            Duration::from_nanos(u64::try_from(mean).unwrap_or(u64::MAX))
        })
    }

    /// Total number of samples across all kinds.
    pub fn sample_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Projects the measured latencies into an [`OpCosts`] table, keeping the
    /// static model's convention that one vector addition costs 1.0.
    ///
    /// Kinds with no samples keep their `fallback` estimate, as does the
    /// scalar-op penalty (a compiler-side fiction the runtime cannot
    /// observe: scalar ops execute as 1-slot vector ops, and the penalty
    /// exists to push the optimizer towards vectorized code).
    pub fn to_op_costs(&self, fallback: &OpCosts) -> OpCosts {
        let unit = match self.mean(OpKind::Addition) {
            Some(mean) if mean > Duration::ZERO => mean.as_secs_f64(),
            _ => return *fallback,
        };
        let relative = |kind: OpKind, fallback_value: f64| -> f64 {
            self.mean(kind)
                .map_or(fallback_value, |m| m.as_secs_f64() / unit)
        };
        OpCosts {
            vec_add: 1.0,
            vec_mul_ct_ct: relative(OpKind::MulCtCt, fallback.vec_mul_ct_ct),
            vec_mul_ct_pt: relative(OpKind::MulCtPt, fallback.vec_mul_ct_pt),
            rotation: relative(OpKind::Rotation, fallback.rotation),
            scalar_op: fallback.scalar_op,
            plaintext_op: fallback.plaintext_op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_and_merges_accumulate() {
        let mut a = CalibratedCostModel::new();
        a.record(OpKind::Addition, Duration::from_micros(10));
        a.record(OpKind::Addition, Duration::from_micros(30));
        let mut b = CalibratedCostModel::new();
        b.record(OpKind::MulCtCt, Duration::from_micros(800));
        a.merge(&b);
        assert_eq!(a.count(OpKind::Addition), 2);
        assert_eq!(a.mean(OpKind::Addition), Some(Duration::from_micros(20)));
        assert_eq!(a.mean(OpKind::MulCtCt), Some(Duration::from_micros(800)));
        assert_eq!(a.sample_count(), 3);
        assert_eq!(a.mean(OpKind::Rotation), None);
    }

    #[test]
    fn means_survive_counts_past_u32() {
        // 32 self-merges double one sample to 2^32: a divisor cast to `u32`
        // is 0 there, and `Duration / 0` panics under the session's
        // calibration lock.
        let mut cal = CalibratedCostModel::new();
        cal.record(OpKind::Addition, Duration::from_nanos(10));
        cal.record(OpKind::MulCtCt, Duration::from_nanos(750));
        for _ in 0..32 {
            let doubled = cal.clone();
            cal.merge(&doubled);
        }
        assert_eq!(cal.count(OpKind::Addition), 1 << 32);
        assert_eq!(cal.mean(OpKind::Addition), Some(Duration::from_nanos(10)));
        let costs = cal.to_op_costs(&OpCosts::default());
        assert!((costs.vec_mul_ct_ct - 75.0).abs() < 1e-9);
    }

    #[test]
    fn calibrated_costs_are_relative_to_additions() {
        let mut cal = CalibratedCostModel::new();
        for _ in 0..4 {
            cal.record(OpKind::Addition, Duration::from_micros(10));
        }
        cal.record(OpKind::MulCtCt, Duration::from_micros(750));
        cal.record(OpKind::Rotation, Duration::from_micros(320));
        let costs = cal.to_op_costs(&OpCosts::default());
        assert_eq!(costs.vec_add, 1.0);
        assert!((costs.vec_mul_ct_ct - 75.0).abs() < 1e-9);
        assert!((costs.rotation - 32.0).abs() < 1e-9);
        // Unmeasured kinds keep the static estimate.
        assert_eq!(costs.vec_mul_ct_pt, OpCosts::default().vec_mul_ct_pt);
        assert_eq!(costs.scalar_op, OpCosts::default().scalar_op);
    }

    #[test]
    fn empty_calibration_falls_back_to_the_static_model() {
        let cal = CalibratedCostModel::new();
        let base = OpCosts::default();
        assert_eq!(cal.to_op_costs(&base), base);
    }
}
