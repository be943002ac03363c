//! Rewrite rules: named, categorized transformations applied at a single
//! node of the expression tree.
//!
//! A rule is either *declarative* (a left-hand-side [`Pattern`] plus a
//! right-hand-side template) or *procedural* (an arbitrary function from the
//! matched node to its replacement). Procedural rules cover transformations
//! whose shape depends on the matched node, such as whole-`Vec` vectorization
//! or reduction-to-rotations.
//!
//! A rule is applied two ways. [`Rule::rewrite_in`] rewrites a node of a
//! [`TermGraph`] and returns the replacement's id: a declarative rule matches
//! the node's id and interns its right-hand side, in O(|pattern|) whatever
//! the size of the subterm, and a procedural rule is a function of the graph
//! and the node's id, which reads the node's operands by id and interns its
//! result node by node, in the order [`TermGraph::intern_expr`] would intern
//! the rewritten tree. [`Rule::try_apply`] rewrites an [`Expr`] and returns
//! the rewritten tree: the one-shot API, which runs a procedural rule on a
//! scratch graph. The match index tries rules only through `rewrite_in`;
//! both give the same replacement, id for id. The engine's tree walks
//! ([`RewriteEngine::matches`](crate::RewriteEngine::matches) and its
//! siblings) decide a declarative rule with the tree matcher, the reference
//! the index's graph matcher is tested against.

use crate::pattern::{parse_pattern, NodeBindings, Pattern};
use chehab_ir::{Expr, NodeId, TermGraph};
use std::fmt;
use std::sync::Arc;

/// Broad category of a rewrite rule, mirroring Appendix E of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleCategory {
    /// Packs scalar operations into vector operations.
    Vectorization,
    /// Reduces the number of operations or replaces them with cheaper ones.
    Simplification,
    /// Semantics-preserving re-associations that enable later rewrites
    /// (commutativity, associativity, distribution).
    Transformation,
    /// Rebalances expression trees to reduce (multiplicative) depth.
    Balancing,
    /// Introduces or restructures rotations.
    Rotation,
}

impl fmt::Display for RuleCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleCategory::Vectorization => "vectorization",
            RuleCategory::Simplification => "simplification",
            RuleCategory::Transformation => "transformation",
            RuleCategory::Balancing => "balancing",
            RuleCategory::Rotation => "rotation",
        };
        f.write_str(s)
    }
}

/// Where in the program a rule may be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// The rule is locally sound and may be applied at any node.
    Anywhere,
    /// The rule changes the arity (and the contents of non-live slots) of the
    /// value it rewrites and is only sound at the root of the program, where
    /// only the declared output slots are observed.
    RootOnly,
}

/// A procedural rule's body: the id of what it rewrites node `id` of the
/// graph into, or `None` where it does not apply.
type ProceduralFn = dyn Fn(&mut TermGraph, NodeId) -> Option<NodeId> + Send + Sync;

#[derive(Clone)]
enum RuleBody {
    Rewrite { lhs: Pattern, rhs: Pattern },
    Procedural(Arc<ProceduralFn>),
}

/// A single named rewrite rule.
#[derive(Clone)]
pub struct Rule {
    name: String,
    category: RuleCategory,
    placement: Placement,
    body: RuleBody,
}

impl Rule {
    /// Builds a declarative rule from left- and right-hand-side pattern
    /// sources.
    ///
    /// # Panics
    ///
    /// Panics if either pattern fails to parse or if the right-hand side uses
    /// a metavariable the left-hand side does not bind; the rule catalog is
    /// static, so this is a programming error caught by the crate's tests.
    pub fn rewrite(name: &str, category: RuleCategory, lhs: &str, rhs: &str) -> Rule {
        let lhs = parse_pattern(lhs).unwrap_or_else(|e| panic!("rule `{name}`: bad lhs: {e}"));
        let rhs = parse_pattern(rhs).unwrap_or_else(|e| panic!("rule `{name}`: bad rhs: {e}"));
        let bound = lhs.metavariables();
        for mv in rhs.metavariables() {
            assert!(
                bound.contains(&mv),
                "rule `{name}`: rhs metavariable `?{mv}` is not bound by the lhs"
            );
        }
        Rule {
            name: name.to_string(),
            category,
            placement: Placement::Anywhere,
            body: RuleBody::Rewrite { lhs, rhs },
        }
    }

    /// Builds a procedural rule from a closure that either rewrites node `id`
    /// of the graph, returning the id of the interned replacement, or returns
    /// `None` when it does not apply. It interns its result in the order
    /// [`TermGraph::intern_expr`] would intern the rewritten tree, so ids do
    /// not depend on which of the two built it.
    pub fn procedural(
        name: &str,
        category: RuleCategory,
        f: impl Fn(&mut TermGraph, NodeId) -> Option<NodeId> + Send + Sync + 'static,
    ) -> Rule {
        Rule {
            name: name.to_string(),
            category,
            placement: Placement::Anywhere,
            body: RuleBody::Procedural(Arc::new(f)),
        }
    }

    /// Restricts the rule to root-only application (see [`Placement`]).
    pub fn root_only(mut self) -> Rule {
        self.placement = Placement::RootOnly;
        self
    }

    /// The rule's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The rule's category.
    pub fn category(&self) -> RuleCategory {
        self.category
    }

    /// Where the rule may be applied.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The shape ([`shape_of`](crate::pattern::shape_of)) of every node the
    /// rule rewrites, when it is known without trying the rule: a
    /// declarative rule's left-hand side fixes it, a procedural rule's body
    /// does not.
    pub(crate) fn shape(&self) -> Option<usize> {
        match &self.body {
            RuleBody::Rewrite { lhs, .. } => lhs.shape(),
            RuleBody::Procedural(_) => None,
        }
    }

    /// Attempts to apply the rule at the root of `expr`, returning the
    /// rewritten node on success. A procedural rule runs on a scratch graph
    /// holding `expr`, and its result is read back out as a tree.
    pub fn try_apply(&self, expr: &Expr) -> Option<Expr> {
        match &self.body {
            RuleBody::Rewrite { lhs, rhs } => {
                let bindings = lhs.matches(expr)?;
                self.instantiated(rhs.substitute(&bindings))
            }
            RuleBody::Procedural(f) => {
                let mut graph = TermGraph::new();
                let id = graph.intern_expr(expr);
                f(&mut graph, id).map(|rewritten| graph.expr(rewritten))
            }
        }
    }

    /// Applies the rule at node `id` of `graph` and returns the id of the
    /// rewritten node (equal to `id` if the rewrite changes nothing): the id,
    /// the new nodes and their interning order of
    /// `graph.intern_expr(&self.try_apply(&graph.expr(id))?)`.
    ///
    /// Both kinds of rule read only the graph: a declarative rule's left-hand
    /// side binds node ids and its right-hand side is interned node by node;
    /// a procedural rule reads the node's operands by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by `graph`.
    pub fn rewrite_in(&self, id: NodeId, graph: &mut TermGraph) -> Option<NodeId> {
        match &self.body {
            RuleBody::Rewrite { lhs, rhs } => {
                let mut bindings = NodeBindings::default();
                if !lhs.matches_node(graph, id, &mut bindings) {
                    return None;
                }
                self.instantiated(rhs.intern_in(&bindings, graph))
            }
            RuleBody::Procedural(f) => f(graph, id),
        }
    }

    /// Whether the rule rewrites `node`, at the root, into a different term;
    /// `id` is `node` interned in `graph`. A declarative rule is decided on
    /// the tree ([`Rule::try_apply`]), by the tree matcher, so a caller that
    /// compares against [`Rule::rewrite_in`] checks one matcher against the
    /// other; a procedural rule, whose one body both share, runs on `id`,
    /// where a different term is a different id.
    pub(crate) fn changes(&self, node: &Expr, id: NodeId, graph: &mut TermGraph) -> bool {
        match &self.body {
            RuleBody::Rewrite { .. } => self.try_apply(node).is_some_and(|e| &e != node),
            RuleBody::Procedural(f) => f(graph, id).is_some_and(|rewritten| rewritten != id),
        }
    }

    /// The right-hand side built from a match's bindings. A metavariable the
    /// left-hand side does not bind is a catalog bug: [`Rule::rewrite`]
    /// rejects it, except a rotation step, which only this catches.
    fn instantiated<T>(&self, rhs: Result<T, String>) -> Option<T> {
        rhs.map_err(|missing| {
            debug_assert!(
                false,
                "rule `{}`: unbound metavariable `{missing}`",
                self.name
            );
        })
        .ok()
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Rule");
        d.field("name", &self.name)
            .field("category", &self.category)
            .field("placement", &self.placement);
        if let RuleBody::Rewrite { lhs, rhs } = &self.body {
            d.field("lhs", &lhs.to_string())
                .field("rhs", &rhs.to_string());
        } else {
            d.field("body", &"<procedural>");
        }
        d.finish()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.body {
            RuleBody::Rewrite { lhs, rhs } => write!(f, "{}: {} => {}", self.name, lhs, rhs),
            RuleBody::Procedural(_) => write!(f, "{}: <procedural>", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chehab_ir::{parse, DagNode};

    #[test]
    fn declarative_rule_applies_and_rewrites() {
        let rule = Rule::rewrite(
            "comm-factor",
            RuleCategory::Simplification,
            "(+ (* ?a ?b) (* ?a ?c))",
            "(* ?a (+ ?b ?c))",
        );
        let e = parse("(+ (* x y) (* x z))").unwrap();
        assert_eq!(rule.try_apply(&e).unwrap(), parse("(* x (+ y z))").unwrap());
        assert!(rule
            .try_apply(&parse("(+ (* x y) (* w z))").unwrap())
            .is_none());
    }

    #[test]
    fn procedural_rule_applies_conditionally() {
        let double = |graph: &mut TermGraph, id| match *graph.node(id) {
            DagNode::Const(v) => Some(graph.intern(DagNode::Const(v * 2))),
            _ => None,
        };
        let rule = Rule::procedural("double-const", RuleCategory::Simplification, double);
        assert_eq!(rule.try_apply(&Expr::Const(3)), Some(Expr::Const(6)));
        assert_eq!(rule.try_apply(&parse("x").unwrap()), None);
        assert!(matches!(rule.body, RuleBody::Procedural(_)));
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn unbound_rhs_metavariable_is_rejected_at_construction() {
        let _ = Rule::rewrite(
            "bad",
            RuleCategory::Simplification,
            "(+ ?a ?b)",
            "(+ ?a ?c)",
        );
    }

    #[test]
    fn debug_and_display_are_informative() {
        let rule = Rule::rewrite(
            "mul-comm",
            RuleCategory::Transformation,
            "(* ?a ?b)",
            "(* ?b ?a)",
        );
        assert!(format!("{rule:?}").contains("mul-comm"));
        assert!(rule.to_string().contains("=>"));
    }

    #[test]
    fn root_only_marks_placement() {
        let rule = Rule::procedural("r", RuleCategory::Rotation, |_, _| None).root_only();
        assert_eq!(rule.placement(), Placement::RootOnly);
    }
}
