//! Timer-augmented cost calibration.
//!
//! The static [`chehab_ir::CostModel`] prices instructions with hand-assigned
//! operator latencies (add = 1, rotation = 50, ct-ct mul = 100, ...). A
//! session folds the instruction spans every successful run's
//! [`TimingBreakdown`] already carries into per-primitive latencies here, and
//! projects them into an [`OpCosts`] table from which it recomputes the
//! dataflow rule's critical-path priorities — so the ready queue ranks
//! instructions by observed hardware cost instead of static guesses. The
//! optimizer never reads it. This mirrors the timer-augmented cost function
//! of McDoniel & Bientinesi's load-balanced DSMC: replace a modeled
//! per-particle cost with a measured one, keep the balancing machinery
//! unchanged.

use crate::dataflow::TimingBreakdown;
use crate::schedule::{CostTerms, Schedule};
use chehab_ir::OpCosts;
use std::time::Duration;

/// The primitives a [`CostTerms`] counts, in its field order: additions,
/// rotations, ct-ct multiplications, ct-pt multiplications.
const ADDS: usize = 0;
const ROTATIONS: usize = 1;
const CT_CT_MULS: usize = 2;
const CT_PT_MULS: usize = 3;

/// Measured per-primitive latencies, accumulated across executions.
#[derive(Debug, Clone, Default)]
pub struct CalibratedCostModel {
    totals: [Duration; 4],
    counts: [u64; 4],
}

impl CalibratedCostModel {
    /// An empty calibration.
    pub fn new() -> Self {
        CalibratedCostModel::default()
    }

    /// Folds one run of `schedule` into the calibration: every instruction
    /// whose terms name a single primitive counts as that many samples of
    /// it, with its measured span as their total (a 3-part rotation is 3
    /// rotation samples). An instruction mixing primitives — a runtime pack
    /// rotates and adds — is no sample.
    pub fn record_run(&mut self, schedule: &Schedule, timing: &TimingBreakdown) {
        for (si, &span) in schedule.instrs().iter().zip(&timing.instr_times) {
            if let Some((primitive, samples)) = single_primitive(&si.terms) {
                self.totals[primitive] += span;
                self.counts[primitive] += samples;
            }
        }
    }

    /// Mean latency of a primitive, if any sample was recorded. Divided in
    /// `u128` nanoseconds, as [`Histogram::mean`](crate::Histogram::mean)
    /// does: a `Duration` divides by `u32` only, and a count truncated to
    /// one is 0 at 2³² samples.
    fn mean(&self, primitive: usize) -> Option<Duration> {
        let count = self.counts[primitive];
        (count > 0).then(|| {
            let mean = self.totals[primitive].as_nanos() / u128::from(count);
            Duration::from_nanos(u64::try_from(mean).unwrap_or(u64::MAX))
        })
    }

    /// Total number of samples across all primitives.
    pub fn sample_count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Projects the measured latencies into an [`OpCosts`] table, keeping the
    /// static model's convention that one vector addition costs 1.0.
    ///
    /// Primitives with no samples keep their `fallback` estimate, as does
    /// the scalar-op penalty (a compiler-side fiction the runtime cannot
    /// observe: scalar ops execute as 1-slot vector ops, and the penalty
    /// exists to push the optimizer towards vectorized code).
    pub fn to_op_costs(&self, fallback: &OpCosts) -> OpCosts {
        let unit = match self.mean(ADDS) {
            Some(mean) if mean > Duration::ZERO => mean.as_secs_f64(),
            _ => return *fallback,
        };
        let relative = |primitive: usize, fallback_value: f64| -> f64 {
            self.mean(primitive)
                .map_or(fallback_value, |m| m.as_secs_f64() / unit)
        };
        OpCosts {
            vec_add: 1.0,
            vec_mul_ct_ct: relative(CT_CT_MULS, fallback.vec_mul_ct_ct),
            vec_mul_ct_pt: relative(CT_PT_MULS, fallback.vec_mul_ct_pt),
            rotation: relative(ROTATIONS, fallback.rotation),
            scalar_op: fallback.scalar_op,
            plaintext_op: fallback.plaintext_op,
        }
    }
}

/// The one primitive `terms` counts and how many of it, or `None` when it
/// counts none or several.
fn single_primitive(terms: &CostTerms) -> Option<(usize, u64)> {
    let counts = [
        terms.adds,
        terms.rotations,
        terms.ct_ct_muls,
        terms.ct_pt_muls,
    ];
    let mut named = counts.iter().enumerate().filter(|(_, &count)| count > 0.0);
    match (named.next(), named.next()) {
        (Some((primitive, &count)), None) => Some((primitive, count as u64)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::SchedulerKind;
    use chehab_ir::{parse, CircuitDag, DagNode};
    use std::time::Instant;

    /// Lowers `src` with every leaf and every vector of leaves pre-bound
    /// and rotations realized by `realize`, and gives instruction `i` a
    /// span of `spans[i]` microseconds.
    fn run_of(
        src: &str,
        realize: impl Fn(i64) -> Vec<i64>,
        spans: &[u64],
    ) -> (Schedule, TimingBreakdown) {
        let dag = CircuitDag::from_expr(&parse(src).unwrap()).eliminate_dead_code();
        let nodes = dag.nodes();
        let prebound: Vec<bool> = nodes
            .iter()
            .map(|node| match node {
                DagNode::Vec(elems) => elems.iter().all(|&e| nodes[e].is_leaf()),
                _ => node.is_leaf(),
            })
            .collect();
        let schedule = crate::lower_with_default_costs(&dag, &prebound, realize);
        assert_eq!(schedule.instrs().len(), spans.len(), "{src}");
        let mut timing =
            TimingBreakdown::new(SchedulerKind::default(), spans.len(), Instant::now());
        timing.instr_times = spans.iter().map(|&us| Duration::from_micros(us)).collect();
        (schedule, timing)
    }

    #[test]
    fn a_k_part_rotation_is_k_samples() {
        let (schedule, timing) = run_of("(<< (Vec a b c d) 3)", |_| vec![1, 1, 1], &[600]);
        let mut cal = CalibratedCostModel::new();
        cal.record_run(&schedule, &timing);
        assert_eq!(cal.counts[ROTATIONS], 3);
        assert_eq!(cal.sample_count(), 3);
        assert_eq!(cal.mean(ROTATIONS), Some(Duration::from_micros(200)));
    }

    #[test]
    fn a_pack_is_no_sample() {
        // `(Vec (+ a b) c)` packs at run time: rotations and additions.
        let (schedule, timing) = run_of("(Vec (+ a b) c)", |step| vec![step], &[10, 500]);
        assert!(matches!(
            schedule.instrs()[1].instr,
            crate::Instr::Pack { .. }
        ));
        let mut cal = CalibratedCostModel::new();
        cal.record_run(&schedule, &timing);
        assert_eq!(cal.sample_count(), 1);
        assert_eq!(cal.mean(ADDS), Some(Duration::from_micros(10)));
    }

    #[test]
    fn a_mixed_terms_instruction_is_no_sample() {
        let mixed = CostTerms {
            adds: 1.0,
            ct_pt_muls: 1.0,
            ..CostTerms::default()
        };
        assert_eq!(single_primitive(&mixed), None);
        assert_eq!(single_primitive(&CostTerms::default()), None);
        let muls = CostTerms {
            ct_ct_muls: 2.0,
            ..CostTerms::default()
        };
        assert_eq!(single_primitive(&muls), Some((CT_CT_MULS, 2)));
    }

    #[test]
    fn runs_accumulate() {
        let (schedule, timing) = run_of("(* (+ a b) c)", |step| vec![step], &[10, 750]);
        let mut cal = CalibratedCostModel::new();
        cal.record_run(&schedule, &timing);
        cal.record_run(&schedule, &timing);
        assert_eq!(cal.sample_count(), 4);
        assert_eq!(cal.mean(ADDS), Some(Duration::from_micros(10)));
        assert_eq!(cal.mean(ROTATIONS), None);
        let costs = cal.to_op_costs(&OpCosts::default());
        assert!((costs.vec_mul_ct_ct - 75.0).abs() < 1e-9);
    }

    #[test]
    fn means_survive_counts_past_u32() {
        // 2^32 samples: a divisor cast to `u32` is 0 there, and
        // `Duration / 0` panics under the session's calibration lock.
        let samples = 1u64 << 32;
        let cal = CalibratedCostModel {
            totals: [
                Duration::from_nanos(10 * samples),
                Duration::ZERO,
                Duration::from_nanos(750 * samples),
                Duration::ZERO,
            ],
            counts: [samples, 0, samples, 0],
        };
        assert_eq!(cal.mean(ADDS), Some(Duration::from_nanos(10)));
        let costs = cal.to_op_costs(&OpCosts::default());
        assert!((costs.vec_mul_ct_ct - 75.0).abs() < 1e-9);
    }

    #[test]
    fn calibrated_costs_are_relative_to_additions() {
        let cal = CalibratedCostModel {
            totals: [
                Duration::from_micros(40),
                Duration::from_micros(320),
                Duration::from_micros(750),
                Duration::ZERO,
            ],
            counts: [4, 1, 1, 0],
        };
        let costs = cal.to_op_costs(&OpCosts::default());
        assert_eq!(costs.vec_add, 1.0);
        assert!((costs.vec_mul_ct_ct - 75.0).abs() < 1e-9);
        assert!((costs.rotation - 32.0).abs() < 1e-9);
        // Unmeasured primitives keep the static estimate.
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
