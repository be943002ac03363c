//! Rewrite rules: named, categorized transformations applied at a single
//! node of the expression tree.
//!
//! A rule is either *declarative* (a left-hand-side [`Pattern`] plus a
//! right-hand-side template) or *procedural* (an arbitrary function from the
//! matched node to its replacement). Procedural rules cover transformations
//! whose shape depends on the matched node, such as whole-`Vec` vectorization
//! or reduction-to-rotations.
//!
//! A rule is applied two ways. [`Rule::try_apply`] rewrites an [`Expr`] and
//! returns the rewritten tree: the one-shot API, used to build the program a
//! search accepts. [`Rule::rewrite_in`] rewrites a node of a [`TermGraph`]
//! and returns the replacement's id: a declarative rule matches the node's
//! id and interns its right-hand side, in O(|pattern|) whatever the size of
//! the subterm, and a procedural rule runs its closure on the tree and
//! interns the result. The match index tries rules only through
//! `rewrite_in`; both give the same replacement, id for id.

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

type ProceduralFn = dyn Fn(&Expr) -> Option<Expr> + Send + Sync;

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

    /// Builds a procedural rule from a closure that either rewrites the node
    /// or returns `None` when it does not apply.
    pub fn procedural(
        name: &str,
        category: RuleCategory,
        f: impl Fn(&Expr) -> Option<Expr> + Send + Sync + 'static,
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

    /// Attempts to apply the rule at the root of `expr`, returning the
    /// rewritten node on success.
    pub fn try_apply(&self, expr: &Expr) -> Option<Expr> {
        match &self.body {
            RuleBody::Rewrite { lhs, rhs } => {
                let bindings = lhs.matches(expr)?;
                self.instantiated(rhs.substitute(&bindings))
            }
            RuleBody::Procedural(f) => f(expr),
        }
    }

    /// Applies the rule at node `id` of `graph`, whose tree form is `node`,
    /// and returns the id of the rewritten node (equal to `id` if the rewrite
    /// changes nothing): the id, the new nodes and their interning order of
    /// `graph.intern_expr(&self.try_apply(node)?)`.
    ///
    /// A declarative rule reads only the graph: its left-hand side binds node
    /// ids and its right-hand side is interned node by node. A procedural
    /// rule runs on `node`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by `graph`.
    pub fn rewrite_in(&self, node: &Expr, id: NodeId, graph: &mut TermGraph) -> Option<NodeId> {
        match &self.body {
            RuleBody::Rewrite { lhs, rhs } => {
                let mut bindings = NodeBindings::default();
                if !lhs.matches_node(graph, id, &mut bindings) {
                    return None;
                }
                self.instantiated(rhs.intern_in(&bindings, graph))
            }
            RuleBody::Procedural(f) => f(node).map(|e| graph.intern_expr(&e)),
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

    /// Returns `true` if the rule applies at the root of `expr` and actually
    /// changes it.
    pub fn applies(&self, expr: &Expr) -> bool {
        self.try_apply(expr).is_some_and(|e| &e != expr)
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
    use chehab_ir::parse;

    #[test]
    fn declarative_rule_applies_and_rewrites() {
        let rule = Rule::rewrite(
            "comm-factor",
            RuleCategory::Simplification,
            "(+ (* ?a ?b) (* ?a ?c))",
            "(* ?a (+ ?b ?c))",
        );
        let e = parse("(+ (* x y) (* x z))").unwrap();
        assert!(rule.applies(&e));
        assert_eq!(rule.try_apply(&e).unwrap(), parse("(* x (+ y z))").unwrap());
        assert!(!rule.applies(&parse("(+ (* x y) (* w z))").unwrap()));
    }

    #[test]
    fn procedural_rule_applies_conditionally() {
        let rule = Rule::procedural("double-const", RuleCategory::Simplification, |e| match e {
            Expr::Const(v) => Some(Expr::Const(v * 2)),
            _ => None,
        });
        assert_eq!(rule.try_apply(&Expr::Const(3)), Some(Expr::Const(6)));
        assert_eq!(rule.try_apply(&parse("x").unwrap()), None);
        assert!(matches!(rule.body, RuleBody::Procedural(_)));
    }

    #[test]
    fn identity_rewrites_do_not_count_as_applying() {
        let rule = Rule::rewrite(
            "add-comm",
            RuleCategory::Transformation,
            "(+ ?a ?b)",
            "(+ ?b ?a)",
        );
        // x + x commutes to itself, so the rule "applies" syntactically but
        // produces no change and is reported as not applicable.
        assert!(!rule.applies(&parse("(+ x x)").unwrap()));
        assert!(rule.applies(&parse("(+ x y)").unwrap()));
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
        let rule = Rule::procedural("r", RuleCategory::Rotation, |_| None).root_only();
        assert_eq!(rule.placement(), Placement::RootOnly);
    }
}
