//! The rewrite engine: locates rule matches inside a program, applies a rule
//! at a chosen occurrence, and provides the greedy optimizer used by the
//! original (non-RL) CHEHAB compiler as a baseline.

use crate::catalog::default_catalog;
use crate::index::MatchIndex;
use crate::pattern::{shape_of, SHAPES};
use crate::rule::{Placement, Rule};
use chehab_ir::{CostModel, DagNode, Expr, NodeId, TermGraph};
use std::ops::Range;

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
    /// Per node shape, the `Anywhere` rules that may rewrite a node of that
    /// shape, in rule order: every rule a match could come from.
    anywhere_by_shape: Vec<Vec<usize>>,
}

impl Default for RewriteEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl RewriteEngine {
    /// Creates an engine over the [`default_catalog`].
    pub fn new() -> Self {
        let rules = default_catalog();
        let anywhere_by_shape = (0..SHAPES)
            .map(|shape| {
                let fits = |rule: &Rule| {
                    rule.placement() == Placement::Anywhere
                        && rule.shape().is_none_or(|s| s == shape)
                };
                (0..rules.len()).filter(|&r| fits(&rules[r])).collect()
            })
            .collect();
        RewriteEngine {
            rules,
            anywhere_by_shape,
        }
    }

    /// The ordered rule catalog. The index of a rule in this slice is the id
    /// used by [`Match::rule_index`] and by the RL action space.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// The `Anywhere` rules that may rewrite `node`, in rule order: every
    /// other rule fails on its shape.
    pub(crate) fn anywhere_rules(&self, node: &DagNode) -> &[usize] {
        &self.anywhere_by_shape[shape_of(node)]
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
        let mut paths = Vec::new();
        self.for_each_match(expr, rule_index..rule_index + 1, |_, path| {
            paths.push(path.to_vec());
            true
        });
        paths
    }

    /// Returns, for every rule, whether it applies anywhere in `expr`.
    /// This is the action mask the RL policy uses to exclude invalid rules.
    pub fn applicability_mask(&self, expr: &Expr) -> Vec<bool> {
        let mut mask = vec![false; self.rules.len()];
        // A rule's first match decides it: the walk stops trying the rule.
        self.for_each_match(expr, 0..self.rules.len(), |rule, _| {
            mask[rule] = true;
            false
        });
        mask
    }

    /// Enumerates every `(rule, location)` pair that applies to `expr`,
    /// ordered by rule index then location index (the flat action space used
    /// in the ablation of Section 7.6).
    pub fn all_matches(&self, expr: &Expr) -> Vec<Match> {
        // One walk tests every rule at each node; bucketing by rule restores
        // the rule-major order.
        let mut by_rule = vec![Vec::new(); self.rules.len()];
        self.for_each_match(expr, 0..self.rules.len(), |rule, path| {
            by_rule[rule].push(path.to_vec());
            true
        });
        let mut out = Vec::new();
        for (rule_index, paths) in by_rule.into_iter().enumerate() {
            out.extend(paths.into_iter().map(|path| Match { rule_index, path }));
        }
        out
    }

    /// Calls `found(rule, path)` for every rule of `rules` at every node of
    /// `expr` where its placement allows it and it rewrites the node into a
    /// different term ([`Rule::changes`]): in preorder, and at one node in
    /// rule order. Once `found` returns `false` for a rule, the rule is not
    /// tried again. The tree is walked node by node; beside it, `expr` is
    /// interned once into a scratch graph, where a procedural rule runs on
    /// the node's id.
    ///
    /// # Panics
    ///
    /// Panics if `rules` reaches past the catalog.
    fn for_each_match(
        &self,
        expr: &Expr,
        rules: Range<usize>,
        mut found: impl FnMut(usize, &[usize]) -> bool,
    ) {
        fn visit(
            node: &Expr,
            id: NodeId,
            graph: &mut TermGraph,
            path: &mut Vec<usize>,
            rules: &mut Vec<(usize, &Rule)>,
            found: &mut impl FnMut(usize, &[usize]) -> bool,
        ) {
            rules.retain(|&(rule_index, rule)| {
                let placed = rule.placement() == Placement::Anywhere || path.is_empty();
                // Kept unless it matches here and `found` is done with it.
                !placed || !rule.changes(node, id, graph) || found(rule_index, path)
            });
            for (child, operand) in node.children().into_iter().enumerate() {
                let operand_id = graph
                    .node(id)
                    .operand(child)
                    .expect("an interned node has its tree's operands");
                path.push(child);
                visit(operand, operand_id, graph, path, rules, found);
                path.pop();
            }
        }
        let mut rules: Vec<(usize, &Rule)> = rules.clone().zip(&self.rules[rules]).collect();
        let mut graph = TermGraph::new();
        let root = graph.intern_expr(expr);
        visit(
            expr,
            root,
            &mut graph,
            &mut Vec::new(),
            &mut rules,
            &mut found,
        );
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
    /// a rule's outcome and match counts are kept per distinct subterm, a
    /// state's candidates are found by one descent of the graph and priced by
    /// the nodes each adds to and removes from the current circuit
    /// ([`MatchIndex::cheapest`]), and a state is its id in the index's term
    /// graph: each step's winner is named by [`MatchIndex::successor`], and
    /// only the final state is read out of the graph as a tree.
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
            // The cheapest candidate, the first in `all_matches` order among
            // equals, is the one the strict improvement test below keeps.
            let Some((site, cost)) = index
                .cheapest(&matches, cost_model)
                .filter(|&(_, cost)| cost < current_cost - 1e-9)
            else {
                break;
            };
            let next = index.successor(&site);
            matches = index.index(self, next);
            index.set_live(&matches);
            current_cost = cost;
            steps += 1;
        }
        (index.expr(matches.id()), steps)
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
    fn identity_rewrites_do_not_count_as_matches() {
        let engine = RewriteEngine::new();
        let idx = engine.rule_index("add-comm").unwrap();
        // x + x commutes to itself, so the rule matches syntactically but
        // produces no change and is not reported.
        assert!(engine.matches(&parse("(+ x x)").unwrap(), idx).is_empty());
        assert_eq!(
            engine.matches(&parse("(+ x y)").unwrap(), idx),
            vec![Vec::<usize>::new()]
        );
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
