//! Rotation-key selection (Appendix B).
//!
//! Every distinct rotation step in a compiled program needs its own Galois
//! key, and each key is several megabytes. CHEHAB bounds the number of
//! generated keys by a user-defined budget `β` (defaulting to `2·log2(n)`):
//! rotation steps are decomposed into their non-adjacent form (NAF), and a
//! subset of steps is selected for decomposition so that the union of the
//! kept steps and the NAF digits fits within the budget.

use std::collections::{BTreeMap, BTreeSet};

/// Computes the non-adjacent form of `value` as a list of signed powers of
/// two that sum to it (e.g. `NAF(3) = [-1, 4]`, `NAF(5) = [1, 4]`).
pub fn naf_decomposition(value: i64) -> Vec<i64> {
    let sign = if value < 0 { -1 } else { 1 };
    let mut v = value.unsigned_abs();
    let mut digits = Vec::new();
    let mut power: i64 = 1;
    while v > 0 {
        if v & 1 == 1 {
            // Choose +1 or -1 so the next bit becomes 0 (non-adjacency).
            let digit: i64 = if v & 2 == 2 { -1 } else { 1 };
            digits.push(sign * digit * power);
            v = (v as i64 - digit) as u64;
        }
        v >>= 1;
        power <<= 1;
    }
    digits
}

/// The outcome of rotation-key selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RotationKeyPlan {
    /// Steps for which a Galois key is generated.
    pub keys: Vec<i64>,
    /// Steps that are instead decomposed: each maps to the sequence of keyed
    /// rotations that realizes it.
    pub decompositions: BTreeMap<i64, Vec<i64>>,
    /// The budget the plan was computed for.
    pub budget: usize,
}

impl RotationKeyPlan {
    /// Number of Galois keys the plan generates.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// The sequence of keyed rotation steps that realizes `step` under this
    /// plan (a single element when the step has its own key).
    pub fn realize(&self, step: i64) -> Vec<i64> {
        if step == 0 {
            return Vec::new();
        }
        if self.keys.contains(&step) {
            vec![step]
        } else if let Some(parts) = self.decompositions.get(&step) {
            parts.clone()
        } else {
            // Steps unseen at selection time fall back to their NAF digits.
            naf_decomposition(step)
        }
    }
}

/// Selects rotation keys for the steps used by a program.
///
/// `steps` is the multiset of rotation steps in the program (`χ` in the
/// paper); `budget` is the maximum number of keys to generate (`β`,
/// defaulting to `2·log2(n)` at the call sites). Steps whose NAF digits are
/// already covered by other keys are decomposed first, so frequently reused
/// power-of-two digits are shared.
pub fn select_rotation_keys(steps: &[i64], budget: usize) -> RotationKeyPlan {
    let budget = budget.max(1);
    let distinct: BTreeSet<i64> = steps.iter().copied().filter(|&s| s != 0).collect();
    let mut kept: BTreeSet<i64> = distinct.clone();
    let mut decompositions: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
    let mut digit_pool: BTreeSet<i64> = BTreeSet::new();

    let key_count = |kept: &BTreeSet<i64>, pool: &BTreeSet<i64>| kept.union(pool).count();

    while key_count(&kept, &digit_pool) > budget {
        // Pick the kept step whose decomposition adds the fewest new keys;
        // prefer decomposing large, non-power-of-two steps.
        let candidate = kept
            .iter()
            .copied()
            .filter(|s| !digit_pool.contains(s))
            .max_by_key(|&s| {
                let digits = naf_decomposition(s);
                let new_digits = digits
                    .iter()
                    .filter(|d| !digit_pool.contains(d) && !kept.contains(d))
                    .count();
                // Maximize removed keys: decomposing removes 1 kept key and
                // adds `new_digits` pool keys; the best candidates minimize
                // `new_digits`, break ties towards bigger magnitudes.
                (std::cmp::Reverse(new_digits), s.abs())
            });
        let Some(step) = candidate else { break };
        let digits = naf_decomposition(step);
        kept.remove(&step);
        for d in &digits {
            // A digit that is itself a kept step stays a plain key; otherwise
            // it joins the shared pool.
            if !kept.contains(d) {
                digit_pool.insert(*d);
            }
        }
        decompositions.insert(step, digits);
        // Stop if decomposition no longer helps (every remaining step is a
        // single NAF digit already).
        if kept.iter().all(|s| naf_decomposition(*s).len() <= 1)
            && key_count(&kept, &digit_pool) > budget
        {
            break;
        }
    }

    let keys: Vec<i64> = kept.union(&digit_pool).copied().collect();
    RotationKeyPlan {
        keys,
        decompositions,
        budget,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naf_matches_the_papers_examples() {
        let sorted = |mut v: Vec<i64>| {
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(naf_decomposition(3)), vec![-1, 4]);
        assert_eq!(sorted(naf_decomposition(5)), vec![1, 4]);
        assert_eq!(sorted(naf_decomposition(6)), vec![-2, 8]);
        assert_eq!(sorted(naf_decomposition(7)), vec![-1, 8]);
        assert_eq!(sorted(naf_decomposition(12)), vec![-4, 16]);
        assert_eq!(sorted(naf_decomposition(11)), vec![-4, -1, 16]);
        assert_eq!(sorted(naf_decomposition(15)), vec![-1, 16]);
    }

    #[test]
    fn naf_digits_sum_to_the_value_and_are_non_adjacent() {
        for v in -100i64..=100 {
            let digits = naf_decomposition(v);
            assert_eq!(digits.iter().sum::<i64>(), v, "NAF({v}) does not sum back");
            let mut magnitudes: Vec<i64> = digits.iter().map(|d| d.abs()).collect();
            magnitudes.sort_unstable();
            for pair in magnitudes.windows(2) {
                assert!(
                    pair[1] >= 4 * pair[0] || pair[1] >= 2 * pair[0],
                    "adjacent digits in NAF({v})"
                );
            }
        }
    }

    #[test]
    fn papers_worked_example_fits_the_budget() {
        // Appendix B: χ = {1..7, 9..13, 15}, β = 9 keys.
        let steps = [1, 2, 3, 4, 5, 6, 7, 9, 10, 12, 11, 13, 15];
        let plan = select_rotation_keys(&steps, 9);
        assert!(
            plan.key_count() <= 9,
            "plan generates {} keys",
            plan.key_count()
        );
        // Every step must still be realizable and sum to itself.
        for s in steps {
            let parts = plan.realize(s);
            assert!(!parts.is_empty());
            assert_eq!(
                parts.iter().sum::<i64>(),
                s,
                "step {s} decomposition is wrong"
            );
            for p in parts {
                assert!(plan.keys.contains(&p), "step {s} uses unkeyed rotation {p}");
            }
        }
    }

    #[test]
    fn small_step_sets_keep_their_own_keys() {
        let plan = select_rotation_keys(&[1, 2, 4], 8);
        assert_eq!(plan.key_count(), 3);
        assert!(plan.decompositions.is_empty());
        assert_eq!(plan.realize(2), vec![2]);
    }

    #[test]
    fn zero_and_duplicates_are_ignored() {
        let plan = select_rotation_keys(&[0, 1, 1, 2, 2], 8);
        assert_eq!(plan.key_count(), 2);
        assert!(plan.realize(0).is_empty());
    }

    #[test]
    fn negative_steps_are_supported() {
        let plan = select_rotation_keys(&[-3, 5], 2);
        for s in [-3i64, 5] {
            assert_eq!(plan.realize(s).iter().sum::<i64>(), s);
        }
    }

    #[test]
    fn decomposed_steps_cost_more_rotations() {
        let steps: Vec<i64> = (1..=15).collect();
        let plan = select_rotation_keys(&steps, 6);
        // The budget is best-effort: the plan never generates more keys than
        // there are distinct steps, and realizing a decomposed step costs at
        // least as many rotations as a keyed one.
        assert!(plan.key_count() <= steps.len());
        assert!(!plan.decompositions.is_empty());
        let total_rotations: usize = steps.iter().map(|&s| plan.realize(s).len()).sum();
        assert!(
            total_rotations >= steps.len(),
            "decomposition can only add rotations"
        );
    }
}
