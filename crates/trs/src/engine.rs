//! The rewrite engine: locates rule matches inside a program, applies a rule
//! at a chosen occurrence, and provides the greedy optimizer used by the
//! original (non-RL) CHEHAB compiler as a baseline.

use crate::catalog::default_catalog;
use crate::index::{MatchIndex, Site};
use crate::rule::{Placement, Rule};
use chehab_ir::{CostModel, Expr};

/// Identifies one concrete application site of one rule inside a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Match {
    /// Index of the rule in the engine's catalog.
    pub rule_index: usize,
    /// Path (child indices from the root) of the node the rule rewrites.
    pub path: Vec<usize>,
}

/// A rewrite engine over a fixed, ordered rule catalog.
#[derive(Debug)]
pub struct RewriteEngine {
    rules: Vec<Rule>,
}

impl Default for RewriteEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl RewriteEngine {
    /// Creates an engine over the [`default_catalog`].
    pub fn new() -> Self {
        RewriteEngine {
            rules: default_catalog(),
        }
    }

    /// The ordered rule catalog. The index of a rule in this slice is the id
    /// used by [`Match::rule_index`] and by the RL action space.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules in the catalog.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Finds the index of a rule by name.
    pub fn rule_index(&self, name: &str) -> Option<usize> {
        self.rules.iter().position(|r| r.name() == name)
    }

    /// Lists, in preorder, every node path at which `rule_index` applies
    /// (produces a change and respects the rule's placement constraint).
    ///
    /// The position of a path in the returned list is the *location index*
    /// the RL agent's location network selects from.
    ///
    /// # Panics
    ///
    /// Panics if `rule_index` is out of range.
    pub fn matches(&self, expr: &Expr, rule_index: usize) -> Vec<Vec<usize>> {
        let rule = &self.rules[rule_index];
        match rule.placement() {
            Placement::RootOnly => {
                if rule.applies(expr) {
                    vec![Vec::new()]
                } else {
                    Vec::new()
                }
            }
            Placement::Anywhere => expr
                .paths()
                .into_iter()
                .filter(|(_, node)| rule.applies(node))
                .map(|(path, _)| path)
                .collect(),
        }
    }

    /// Returns, for every rule, whether it applies anywhere in `expr`.
    /// This is the action mask the RL policy uses to exclude invalid rules.
    pub fn applicability_mask(&self, expr: &Expr) -> Vec<bool> {
        let paths = expr.paths();
        self.rules
            .iter()
            .map(|rule| match rule.placement() {
                Placement::RootOnly => rule.applies(expr),
                Placement::Anywhere => paths.iter().any(|(_, node)| rule.applies(node)),
            })
            .collect()
    }

    /// Enumerates every `(rule, location)` pair that applies to `expr`,
    /// ordered by rule index then location index (the flat action space used
    /// in the ablation of Section 7.6).
    pub fn all_matches(&self, expr: &Expr) -> Vec<Match> {
        // One walk tests every rule at each node; bucketing by rule restores
        // the rule-major order.
        let mut by_rule = vec![Vec::new(); self.rules.len()];
        expr.for_each_path(&mut |path, node| {
            for (rule, paths) in self.rules.iter().zip(&mut by_rule) {
                let placed = rule.placement() == Placement::Anywhere || path.is_empty();
                if placed && rule.applies(node) {
                    paths.push(path.to_vec());
                }
            }
        });
        let mut out = Vec::new();
        for (rule_index, paths) in by_rule.into_iter().enumerate() {
            out.extend(paths.into_iter().map(|path| Match { rule_index, path }));
        }
        out
    }

    /// Applies `rule_index` at its `occurrence`-th match (0-based) and
    /// returns the rewritten program, or `None` if the rule has fewer
    /// matches.
    pub fn apply_at_occurrence(
        &self,
        expr: &Expr,
        rule_index: usize,
        occurrence: usize,
    ) -> Option<Expr> {
        let paths = self.matches(expr, rule_index);
        let path = paths.get(occurrence)?;
        self.apply_at_path(expr, rule_index, path)
    }

    /// Applies `rule_index` at an explicit node path.
    pub fn apply_at_path(&self, expr: &Expr, rule_index: usize, path: &[usize]) -> Option<Expr> {
        let rule = self.rules.get(rule_index)?;
        if rule.placement() == Placement::RootOnly && !path.is_empty() {
            return None;
        }
        let node = expr.at_path(path)?;
        let rewritten = rule.try_apply(node)?;
        if &rewritten == node {
            return None;
        }
        expr.replace_at(path, rewritten)
    }

    /// Greedy best-improvement optimization: the strategy of the original
    /// (non-RL) CHEHAB term rewriting pass.
    ///
    /// At each step every `(rule, location)` pair is evaluated and the one
    /// with the largest cost decrease is applied (the first such pair in
    /// [`RewriteEngine::all_matches`] order on ties); the search stops when
    /// no pair improves the cost or after `max_steps` steps. Returns the
    /// optimized expression and the number of rewrites performed.
    ///
    /// Candidates are scored on one [`MatchIndex`] shared by the whole search
    /// rather than materialised as trees (`DESIGN.md`, "The compile path"):
    /// a rule's outcome is memoised per distinct subterm, a candidate is
    /// priced by the nodes it adds to and removes from the current circuit
    /// ([`MatchIndex::price`]), and a state is its id in the index's term
    /// graph: each step's winner is named by [`MatchIndex::successor`] and
    /// its tree read out of the graph by [`MatchIndex::index`], not rebuilt
    /// by applying the rule.
    pub fn greedy_optimize(
        &self,
        expr: &Expr,
        cost_model: &CostModel,
        max_steps: usize,
    ) -> (Expr, usize) {
        let mut index = MatchIndex::new();
        let input = index.intern(expr);
        let mut matches = index.index(self, input);
        index.set_live(&matches);
        let mut current_cost = index.cost(matches.id(), cost_model);
        let mut steps = 0;
        while steps < max_steps {
            // Rule by rule, each rule's sites in preorder: the enumeration
            // order of `all_matches`.
            let mut best: Option<(Site, f64)> = None;
            for &site in matches.by_rule().iter().flatten() {
                let cost = index.price(&matches, site, cost_model);
                if cost < current_cost - 1e-9 && best.is_none_or(|(_, best_cost)| cost < best_cost)
                {
                    best = Some((site, cost));
                }
            }
            let Some((site, cost)) = best else {
                break;
            };
            let next = index.successor(&matches, site);
            matches = index.index(self, next);
            index.set_live(&matches);
            current_cost = cost;
            steps += 1;
        }
        (matches.program().clone(), steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chehab_ir::{count_ops, equivalent_on_live_slots, parse, CostModel, Env};

    #[test]
    fn matches_are_enumerated_in_preorder() {
        let engine = RewriteEngine::new();
        let expr = parse("(+ (+ a b) (+ c d))").unwrap();
        let idx = engine.rule_index("add-comm").unwrap();
        let paths = engine.matches(&expr, idx);
        assert_eq!(paths, vec![vec![], vec![0], vec![1]]);
    }

    #[test]
    fn apply_at_occurrence_rewrites_the_selected_site() {
        let engine = RewriteEngine::new();
        let expr = parse("(+ (+ a b) (+ c d))").unwrap();
        let idx = engine.rule_index("add-comm").unwrap();
        let rewritten = engine.apply_at_occurrence(&expr, idx, 2).unwrap();
        assert_eq!(rewritten, parse("(+ (+ a b) (+ d c))").unwrap());
        assert!(engine.apply_at_occurrence(&expr, idx, 3).is_none());
    }

    #[test]
    fn applicability_mask_matches_all_matches() {
        let engine = RewriteEngine::new();
        let expr = parse("(Vec (+ a b) (+ c d))").unwrap();
        let mask = engine.applicability_mask(&expr);
        let matches = engine.all_matches(&expr);
        for (i, applies) in mask.iter().enumerate() {
            let has_match = matches.iter().any(|m| m.rule_index == i);
            assert_eq!(
                *applies,
                has_match,
                "mask mismatch for rule {}",
                engine.rules()[i].name()
            );
        }
        assert!(mask[engine.rule_index("add-vectorize-2").unwrap()]);
    }

    #[test]
    fn root_only_rules_only_match_the_root() {
        let engine = RewriteEngine::new();
        // The dot-product sum appears nested under a multiplication, so the
        // root-only reduction rule must not fire anywhere.
        let nested = parse("(* k (+ (+ (* a0 b0) (* a1 b1)) (+ (* a2 b2) (* a3 b3))))").unwrap();
        let idx = engine.rule_index("reduce-sum-rotations").unwrap();
        assert!(engine.matches(&nested, idx).is_empty());
        // At the root it fires exactly once.
        let root = parse("(+ (+ (* a0 b0) (* a1 b1)) (+ (* a2 b2) (* a3 b3)))").unwrap();
        assert_eq!(engine.matches(&root, idx), vec![Vec::<usize>::new()]);
        assert!(
            engine.apply_at_path(&root, idx, &[0]).is_none(),
            "explicit non-root path is rejected"
        );
    }

    #[test]
    fn greedy_optimizer_vectorizes_a_dot_product() {
        let engine = RewriteEngine::new();
        let model = CostModel::default();
        let expr = parse("(+ (+ (* a0 b0) (* a1 b1)) (+ (* a2 b2) (* a3 b3)))").unwrap();
        let (optimized, steps) = engine.greedy_optimize(&expr, &model, 50);
        assert!(steps > 0);
        assert!(model.cost(&optimized) < model.cost(&expr));
        assert_eq!(
            count_ops(&optimized).scalar_ciphertext_ops(),
            0,
            "fully vectorized"
        );
        let mut env = Env::new();
        env.bind_all(&expr, |s| {
            s.as_str().bytes().map(i64::from).sum::<i64>() % 23
        });
        assert!(equivalent_on_live_slots(&expr, &optimized, &env, 1).unwrap());
    }

    #[test]
    fn greedy_optimizer_respects_step_budget() {
        let engine = RewriteEngine::new();
        let model = CostModel::default();
        let expr = parse("(Vec (+ a b) (+ c d) (+ e f) (+ g h))").unwrap();
        let (_, steps) = engine.greedy_optimize(&expr, &model, 1);
        assert!(steps <= 1);
    }

    #[test]
    fn greedy_optimizer_is_idempotent_at_fixpoint() {
        let engine = RewriteEngine::new();
        let model = CostModel::default();
        let expr = parse("(Vec (* a b) (* c d))").unwrap();
        let (opt, _) = engine.greedy_optimize(&expr, &model, 50);
        let (opt2, steps2) = engine.greedy_optimize(&opt, &model, 50);
        assert_eq!(opt, opt2);
        assert_eq!(steps2, 0);
    }
}
