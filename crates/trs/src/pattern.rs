//! Pattern language used by declarative rewrite rules.
//!
//! Patterns mirror the IR expression grammar and add metavariables written
//! `?name`. Matching is *non-linear*: a metavariable that occurs several
//! times in a pattern must bind structurally identical subexpressions, which
//! is what rules such as factorization (`(+ (* ?a ?b) (* ?a ?c))`) rely on.
//!
//! A pattern matches in two places. [`Pattern::matches`] and
//! [`Pattern::substitute`] work on [`Expr`] trees and bind cloned subtrees;
//! they are the one-shot public API. On a [`TermGraph`] a pattern matches a
//! node id and binds node ids, and the right-hand side is interned node by
//! node: a repeated metavariable compares ids (hash-consing makes id
//! equality structural equality), so neither side clones or walks a bound
//! subterm. The match index uses the graph form (see
//! [`Rule::rewrite_in`](crate::Rule::rewrite_in)).

use chehab_ir::{BinOp, DagNode, DataKind, Expr, NodeId, TermGraph};
use std::collections::HashMap;
use std::fmt;

/// A metavariable binding environment produced by a successful match.
pub type Bindings = HashMap<String, Expr>;

/// A pattern over IR expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pattern {
    /// `?name` — matches any subexpression.
    Any(String),
    /// A literal constant, e.g. `0` or `1`.
    Const(i64),
    /// Matches any constant leaf and binds it.
    AnyConst(String),
    /// Matches any plaintext-only subexpression (no encrypted inputs) and binds it.
    AnyPlain(String),
    /// Scalar binary operation.
    Bin(BinOp, Box<Pattern>, Box<Pattern>),
    /// Scalar negation.
    Neg(Box<Pattern>),
    /// Vector constructor with a fixed arity.
    Vec(Vec<Pattern>),
    /// Element-wise vector binary operation.
    VecBin(BinOp, Box<Pattern>, Box<Pattern>),
    /// Element-wise vector negation.
    VecNeg(Box<Pattern>),
    /// Rotation by any step; the step is bound under the given name and is
    /// reproduced by [`Pattern::substitute`] from the same name.
    Rot(Box<Pattern>, String),
}

/// Number of node shapes ([`shape_of`]).
pub(crate) const SHAPES: usize = 13;

/// A node's shape: its operation (and operator), the part of it a pattern's
/// root is matched against first. Shapes index [`SHAPES`]-long tables.
pub(crate) fn shape_of(node: &DagNode) -> usize {
    match node {
        DagNode::CtVar(_) => 0,
        DagNode::PtVar(_) => 1,
        DagNode::Const(_) => 2,
        DagNode::Bin(op, _, _) => 3 + *op as usize,
        DagNode::Neg(_) => 6,
        DagNode::Vec(_) => 7,
        DagNode::VecBin(op, _, _) => 8 + *op as usize,
        DagNode::VecNeg(_) => 11,
        DagNode::Rot(_, _) => 12,
    }
}

impl Pattern {
    /// The [`shape_of`] every node this pattern matches has, or `None` if
    /// nodes of any shape may match.
    pub(crate) fn shape(&self) -> Option<usize> {
        // A node of the root's shape; its operands do not matter.
        let node = match self {
            Pattern::Any(_) | Pattern::AnyPlain(_) => return None,
            Pattern::Const(_) | Pattern::AnyConst(_) => DagNode::Const(0),
            Pattern::Bin(op, _, _) => DagNode::Bin(*op, 0, 0),
            Pattern::Neg(_) => DagNode::Neg(0),
            Pattern::Vec(_) => DagNode::Vec(Vec::new()),
            Pattern::VecBin(op, _, _) => DagNode::VecBin(*op, 0, 0),
            Pattern::VecNeg(_) => DagNode::VecNeg(0),
            Pattern::Rot(_, _) => DagNode::Rot(0, 0),
        };
        Some(shape_of(&node))
    }

    /// Shorthand for a metavariable.
    pub fn var(name: &str) -> Pattern {
        Pattern::Any(name.to_string())
    }

    /// Attempts to match `expr` against this pattern, returning the bindings
    /// on success.
    pub fn matches(&self, expr: &Expr) -> Option<Bindings> {
        let mut bindings = Bindings::new();
        let mut steps = HashMap::new();
        if self.match_into(expr, &mut bindings, &mut steps) {
            // Rotation steps are stored as synthetic constant bindings so that
            // substitution can retrieve them.
            for (name, step) in steps {
                bindings.insert(format!("@step:{name}"), Expr::Const(step));
            }
            Some(bindings)
        } else {
            None
        }
    }

    fn match_into(
        &self,
        expr: &Expr,
        bindings: &mut Bindings,
        steps: &mut HashMap<String, i64>,
    ) -> bool {
        match (self, expr) {
            (Pattern::Any(name), _) => bind(bindings, name, expr),
            (Pattern::Const(v), Expr::Const(w)) => v == w,
            (Pattern::AnyConst(name), Expr::Const(_)) => bind(bindings, name, expr),
            (Pattern::AnyPlain(name), _) => {
                if expr.contains_ciphertext() {
                    false
                } else {
                    bind(bindings, name, expr)
                }
            }
            (Pattern::Bin(op, pa, pb), Expr::Bin(eop, ea, eb)) => {
                op == eop
                    && pa.match_into(ea, bindings, steps)
                    && pb.match_into(eb, bindings, steps)
            }
            (Pattern::Neg(pa), Expr::Neg(ea)) => pa.match_into(ea, bindings, steps),
            (Pattern::Vec(ps), Expr::Vec(es)) => {
                ps.len() == es.len()
                    && ps
                        .iter()
                        .zip(es)
                        .all(|(p, e)| p.match_into(e, bindings, steps))
            }
            (Pattern::VecBin(op, pa, pb), Expr::VecBin(eop, ea, eb)) => {
                op == eop
                    && pa.match_into(ea, bindings, steps)
                    && pb.match_into(eb, bindings, steps)
            }
            (Pattern::VecNeg(pa), Expr::VecNeg(ea)) => pa.match_into(ea, bindings, steps),
            (Pattern::Rot(pa, name), Expr::Rot(ea, step)) => {
                let consistent = match steps.get(name) {
                    Some(prev) => prev == step,
                    None => {
                        steps.insert(name.clone(), *step);
                        true
                    }
                };
                consistent && pa.match_into(ea, bindings, steps)
            }
            _ => false,
        }
    }

    /// Instantiates the pattern as an expression using `bindings`.
    ///
    /// Used to build the right-hand side of a rewrite from the bindings the
    /// left-hand side produced.
    ///
    /// # Errors
    ///
    /// Returns the name of the first unbound metavariable encountered.
    pub fn substitute(&self, bindings: &Bindings) -> Result<Expr, String> {
        match self {
            Pattern::Any(name) | Pattern::AnyConst(name) | Pattern::AnyPlain(name) => {
                bindings.get(name).cloned().ok_or_else(|| name.clone())
            }
            Pattern::Const(v) => Ok(Expr::Const(*v)),
            Pattern::Bin(op, a, b) => Ok(Expr::Bin(
                *op,
                Box::new(a.substitute(bindings)?),
                Box::new(b.substitute(bindings)?),
            )),
            Pattern::Neg(a) => Ok(Expr::Neg(Box::new(a.substitute(bindings)?))),
            Pattern::Vec(elems) => Ok(Expr::Vec(
                elems
                    .iter()
                    .map(|p| p.substitute(bindings))
                    .collect::<Result<_, _>>()?,
            )),
            Pattern::VecBin(op, a, b) => Ok(Expr::VecBin(
                *op,
                Box::new(a.substitute(bindings)?),
                Box::new(b.substitute(bindings)?),
            )),
            Pattern::VecNeg(a) => Ok(Expr::VecNeg(Box::new(a.substitute(bindings)?))),
            Pattern::Rot(a, name) => {
                let step = match bindings.get(&format!("@step:{name}")) {
                    Some(Expr::Const(s)) => *s,
                    _ => return Err(format!("@step:{name}")),
                };
                Ok(Expr::Rot(Box::new(a.substitute(bindings)?), step))
            }
        }
    }

    /// Matches node `id` of `graph`, as [`Pattern::matches`] matches its
    /// tree form, binding node ids and rotation steps into `bindings`.
    pub(crate) fn matches_node<'p>(
        &'p self,
        graph: &TermGraph,
        id: NodeId,
        bindings: &mut NodeBindings<'p>,
    ) -> bool {
        match (self, graph.node(id)) {
            (Pattern::Any(name), _) => bindings.nodes.bind(name, id),
            (Pattern::Const(v), DagNode::Const(w)) => v == w,
            (Pattern::AnyConst(name), DagNode::Const(_)) => bindings.nodes.bind(name, id),
            (Pattern::AnyPlain(name), _) => {
                graph.data_kind(id) != DataKind::Ciphertext && bindings.nodes.bind(name, id)
            }
            (Pattern::Bin(op, pa, pb), DagNode::Bin(eop, a, b))
            | (Pattern::VecBin(op, pa, pb), DagNode::VecBin(eop, a, b)) => {
                op == eop
                    && pa.matches_node(graph, *a, bindings)
                    && pb.matches_node(graph, *b, bindings)
            }
            (Pattern::Neg(pa), DagNode::Neg(a)) | (Pattern::VecNeg(pa), DagNode::VecNeg(a)) => {
                pa.matches_node(graph, *a, bindings)
            }
            (Pattern::Vec(ps), DagNode::Vec(elems)) => {
                ps.len() == elems.len()
                    && ps
                        .iter()
                        .zip(elems)
                        .all(|(p, e)| p.matches_node(graph, *e, bindings))
            }
            (Pattern::Rot(pa, name), DagNode::Rot(a, step)) => {
                bindings.steps.bind(name, *step) && pa.matches_node(graph, *a, bindings)
            }
            _ => false,
        }
    }

    /// Interns the pattern instantiated with `bindings` into `graph`,
    /// children first, and returns its id: the nodes, ids and interning
    /// order of [`TermGraph::intern_expr`] of [`Pattern::substitute`]'s tree.
    ///
    /// # Errors
    ///
    /// Returns the name of the first unbound metavariable encountered.
    pub(crate) fn intern_in(
        &self,
        bindings: &NodeBindings<'_>,
        graph: &mut TermGraph,
    ) -> Result<NodeId, String> {
        let node = match self {
            Pattern::Any(name) | Pattern::AnyConst(name) | Pattern::AnyPlain(name) => {
                return bindings.nodes.get(name).ok_or_else(|| name.clone());
            }
            Pattern::Const(v) => DagNode::Const(*v),
            Pattern::Bin(op, a, b) => DagNode::Bin(
                *op,
                a.intern_in(bindings, graph)?,
                b.intern_in(bindings, graph)?,
            ),
            Pattern::Neg(a) => DagNode::Neg(a.intern_in(bindings, graph)?),
            Pattern::Vec(elems) => DagNode::Vec(
                elems
                    .iter()
                    .map(|p| p.intern_in(bindings, graph))
                    .collect::<Result<_, _>>()?,
            ),
            Pattern::VecBin(op, a, b) => DagNode::VecBin(
                *op,
                a.intern_in(bindings, graph)?,
                b.intern_in(bindings, graph)?,
            ),
            Pattern::VecNeg(a) => DagNode::VecNeg(a.intern_in(bindings, graph)?),
            Pattern::Rot(a, name) => {
                let step = bindings
                    .steps
                    .get(name)
                    .ok_or_else(|| format!("@step:{name}"))?;
                DagNode::Rot(a.intern_in(bindings, graph)?, step)
            }
        };
        Ok(graph.intern(node))
    }

    /// The metavariable names occurring in the pattern.
    pub fn metavariables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_metavars(&mut out);
        out
    }

    fn collect_metavars(&self, out: &mut Vec<String>) {
        match self {
            Pattern::Any(n) | Pattern::AnyConst(n) | Pattern::AnyPlain(n) => {
                if !out.contains(n) {
                    out.push(n.clone());
                }
            }
            Pattern::Const(_) => {}
            Pattern::Bin(_, a, b) | Pattern::VecBin(_, a, b) => {
                a.collect_metavars(out);
                b.collect_metavars(out);
            }
            Pattern::Neg(a) | Pattern::VecNeg(a) => a.collect_metavars(out),
            Pattern::Vec(elems) => {
                for p in elems {
                    p.collect_metavars(out);
                }
            }
            Pattern::Rot(a, _) => a.collect_metavars(out),
        }
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Any(n) => write!(f, "?{n}"),
            Pattern::AnyConst(n) => write!(f, "?{n}:const"),
            Pattern::AnyPlain(n) => write!(f, "?{n}:plain"),
            Pattern::Const(v) => write!(f, "{v}"),
            Pattern::Bin(op, a, b) => write!(f, "({} {a} {b})", op.token()),
            Pattern::Neg(a) => write!(f, "(- {a})"),
            Pattern::Vec(elems) => {
                write!(f, "(Vec")?;
                for p in elems {
                    write!(f, " {p}")?;
                }
                write!(f, ")")
            }
            Pattern::VecBin(op, a, b) => write!(f, "({} {a} {b})", op.vector_token()),
            Pattern::VecNeg(a) => write!(f, "(VecNeg {a})"),
            Pattern::Rot(a, n) => write!(f, "(<< {a} ?{n})"),
        }
    }
}

/// The bindings of a graph match ([`Pattern::matches_node`]): node ids and
/// rotation steps by metavariable name.
#[derive(Debug, Default)]
pub(crate) struct NodeBindings<'p> {
    nodes: Bound<'p, NodeId>,
    steps: Bound<'p, i64>,
}

/// Values by name, in the order a match bound them. A rule binds a handful
/// of names, so lookup is a linear scan.
#[derive(Debug, Default)]
struct Bound<'p, T>(Vec<(&'p str, T)>);

impl<'p, T: Copy + PartialEq> Bound<'p, T> {
    fn get(&self, name: &str) -> Option<T> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Binds `name` to `value`, or checks that it is already bound to it.
    fn bind(&mut self, name: &'p str, value: T) -> bool {
        match self.get(name) {
            Some(bound) => bound == value,
            None => {
                self.0.push((name, value));
                true
            }
        }
    }
}

/// Parses a pattern from an s-expression with `?name` metavariables.
///
/// The grammar is the IR grammar of [`chehab_ir::parse`] extended with
/// `?name` (any subexpression), `?name:const` (constant leaf), `?name:plain`
/// (plaintext-only subexpression), and `(<< p ?s)` for rotations with a
/// symbolic step. A pattern binds the step of a left rotation, so there is
/// no `(>> p ?s)`: it is rejected rather than read as `<<`.
///
/// # Errors
///
/// Returns a human-readable message describing the first syntax error.
///
/// # Examples
///
/// ```
/// use chehab_trs::parse_pattern;
/// use chehab_ir::parse;
///
/// let pat = parse_pattern("(+ (* ?a ?b) (* ?a ?c))").unwrap();
/// let expr = parse("(+ (* x y) (* x z))").unwrap();
/// assert!(pat.matches(&expr).is_some());
/// let not_shared = parse("(+ (* x y) (* w z))").unwrap();
/// assert!(pat.matches(&not_shared).is_none());
/// ```
pub fn parse_pattern(input: &str) -> Result<Pattern, String> {
    let tokens = tokenize_pattern(input)?;
    let mut pos = 0usize;
    let pat = parse_tokens(&tokens, &mut pos)?;
    if pos != tokens.len() {
        return Err(format!(
            "trailing tokens after pattern: {:?}",
            &tokens[pos..]
        ));
    }
    Ok(pat)
}

fn tokenize_pattern(input: &str) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in input.chars() {
        match c {
            '(' | ')' => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
                out.push(c.to_string());
            }
            c if c.is_whitespace() => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            _ => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    if out.is_empty() {
        return Err("empty pattern".into());
    }
    Ok(out)
}

fn parse_atom(tok: &str) -> Result<Pattern, String> {
    if let Some(name) = tok.strip_prefix('?') {
        if let Some(base) = name.strip_suffix(":const") {
            return Ok(Pattern::AnyConst(base.to_string()));
        }
        if let Some(base) = name.strip_suffix(":plain") {
            return Ok(Pattern::AnyPlain(base.to_string()));
        }
        return Ok(Pattern::Any(name.to_string()));
    }
    if let Ok(v) = tok.parse::<i64>() {
        return Ok(Pattern::Const(v));
    }
    Err(format!(
        "unexpected pattern atom `{tok}` (literal variables are not allowed in patterns)"
    ))
}

fn parse_tokens(tokens: &[String], pos: &mut usize) -> Result<Pattern, String> {
    let tok = tokens.get(*pos).ok_or("unexpected end of pattern")?;
    if tok != "(" {
        *pos += 1;
        return parse_atom(tok);
    }
    *pos += 1; // consume '('
    let head = tokens.get(*pos).ok_or("unexpected end after `(`")?.clone();
    *pos += 1;
    let mut args = Vec::new();
    while tokens.get(*pos).map(String::as_str) != Some(")") {
        if *pos >= tokens.len() {
            return Err("unclosed `(` in pattern".into());
        }
        args.push(parse_tokens(tokens, pos)?);
    }
    *pos += 1; // consume ')'
    build_form(&head, args)
}

fn build_form(head: &str, mut args: Vec<Pattern>) -> Result<Pattern, String> {
    let arity_err = |n: usize| format!("`{head}` expects {n} argument(s)");
    match head {
        "+" | "*" => {
            if args.len() != 2 {
                return Err(arity_err(2));
            }
            let b = args.pop().expect("len 2");
            let a = args.pop().expect("len 2");
            let op = if head == "+" { BinOp::Add } else { BinOp::Mul };
            Ok(Pattern::Bin(op, Box::new(a), Box::new(b)))
        }
        "-" => match args.len() {
            1 => Ok(Pattern::Neg(Box::new(args.pop().expect("len 1")))),
            2 => {
                let b = args.pop().expect("len 2");
                let a = args.pop().expect("len 2");
                Ok(Pattern::Bin(BinOp::Sub, Box::new(a), Box::new(b)))
            }
            _ => Err("`-` expects 1 or 2 arguments".into()),
        },
        "Vec" => {
            if args.is_empty() {
                return Err("`Vec` pattern needs at least one element".into());
            }
            Ok(Pattern::Vec(args))
        }
        "VecAdd" | "VecSub" | "VecMul" => {
            if args.len() != 2 {
                return Err(arity_err(2));
            }
            let b = args.pop().expect("len 2");
            let a = args.pop().expect("len 2");
            let op = match head {
                "VecAdd" => BinOp::Add,
                "VecSub" => BinOp::Sub,
                _ => BinOp::Mul,
            };
            Ok(Pattern::VecBin(op, Box::new(a), Box::new(b)))
        }
        "VecNeg" => {
            if args.len() != 1 {
                return Err(arity_err(1));
            }
            Ok(Pattern::VecNeg(Box::new(args.pop().expect("len 1"))))
        }
        ">>" => Err(
            "`>>` is not a pattern form: a rotation pattern binds a left-rotation step, write `(<< p ?s)`"
                .into(),
        ),
        "<<" => {
            if args.len() != 2 {
                return Err(arity_err(2));
            }
            let step = args.pop().expect("len 2");
            let a = args.pop().expect("len 2");
            match step {
                Pattern::Any(name) => Ok(Pattern::Rot(Box::new(a), name)),
                other => Err(format!(
                    "rotation step in a pattern must be a metavariable, found {other}"
                )),
            }
        }
        other => Err(format!("unknown pattern form `{other}`")),
    }
}

fn bind(bindings: &mut Bindings, name: &str, expr: &Expr) -> bool {
    match bindings.get(name) {
        Some(existing) => existing == expr,
        None => {
            bindings.insert(name.to_string(), expr.clone());
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chehab_ir::parse;

    #[test]
    fn matches_and_binds_metavariables() {
        let pat = parse_pattern("(+ ?a ?b)").unwrap();
        let expr = parse("(+ x (* y z))").unwrap();
        let b = pat.matches(&expr).unwrap();
        assert_eq!(b["a"], parse("x").unwrap());
        assert_eq!(b["b"], parse("(* y z)").unwrap());
    }

    #[test]
    fn nonlinear_patterns_require_equal_subterms() {
        let pat = parse_pattern("(+ (* ?a ?b) (* ?a ?c))").unwrap();
        assert!(pat
            .matches(&parse("(+ (* x y) (* x z))").unwrap())
            .is_some());
        assert!(pat
            .matches(&parse("(+ (* x y) (* w z))").unwrap())
            .is_none());
    }

    #[test]
    fn const_patterns_match_only_literals() {
        let one = parse_pattern("(* ?a 1)").unwrap();
        assert!(one.matches(&parse("(* x 1)").unwrap()).is_some());
        assert!(one.matches(&parse("(* x 2)").unwrap()).is_none());

        let any_const = parse_pattern("(* ?a ?c:const)").unwrap();
        assert!(any_const.matches(&parse("(* x 7)").unwrap()).is_some());
        assert!(any_const.matches(&parse("(* x y)").unwrap()).is_none());
    }

    #[test]
    fn plain_patterns_reject_ciphertext_subterms() {
        let pat = parse_pattern("(* ?p:plain ?x)").unwrap();
        assert!(pat.matches(&parse("(* (pt w) x)").unwrap()).is_some());
        assert!(pat.matches(&parse("(* 3 x)").unwrap()).is_some());
        assert!(pat.matches(&parse("(* y x)").unwrap()).is_none());
    }

    #[test]
    fn substitution_builds_the_rhs() {
        let lhs = parse_pattern("(+ (* ?a ?b) (* ?a ?c))").unwrap();
        let rhs = parse_pattern("(* ?a (+ ?b ?c))").unwrap();
        let expr = parse("(+ (* x y) (* x z))").unwrap();
        let bindings = lhs.matches(&expr).unwrap();
        let rewritten = rhs.substitute(&bindings).unwrap();
        assert_eq!(rewritten, parse("(* x (+ y z))").unwrap());
    }

    #[test]
    fn substitution_reports_unbound_metavariables() {
        let rhs = parse_pattern("(* ?missing ?also)").unwrap();
        assert!(rhs.substitute(&Bindings::new()).is_err());
    }

    #[test]
    fn rotation_steps_are_captured_and_reproduced() {
        let lhs = parse_pattern("(VecAdd (<< ?a ?s) (<< ?b ?s))").unwrap();
        let rhs = parse_pattern("(<< (VecAdd ?a ?b) ?s)").unwrap();
        let expr = parse("(VecAdd (<< (Vec a b c) 2) (<< (Vec d e f) 2))").unwrap();
        let b = lhs.matches(&expr).unwrap();
        let rewritten = rhs.substitute(&b).unwrap();
        assert_eq!(
            rewritten,
            parse("(<< (VecAdd (Vec a b c) (Vec d e f)) 2)").unwrap()
        );
        // Different steps must not match.
        let expr = parse("(VecAdd (<< (Vec a b c) 2) (<< (Vec d e f) 1))").unwrap();
        assert!(lhs.matches(&expr).is_none());
    }

    #[test]
    fn vector_patterns_require_matching_arity() {
        let pat = parse_pattern("(Vec (+ ?a0 ?b0) (+ ?a1 ?b1))").unwrap();
        assert!(pat
            .matches(&parse("(Vec (+ a b) (+ c d))").unwrap())
            .is_some());
        assert!(pat
            .matches(&parse("(Vec (+ a b) (+ c d) (+ e f))").unwrap())
            .is_none());
    }

    #[test]
    fn display_is_parseable_and_informative() {
        let pat = parse_pattern("(VecMul (Vec ?a0 ?a1) (Vec ?b0 ?b1))").unwrap();
        let printed = pat.to_string();
        assert!(printed.contains("?a0"));
        assert_eq!(parse_pattern(&printed).unwrap(), pat);
    }

    #[test]
    fn right_rotation_patterns_are_rejected() {
        // The IR parser reads `(>> v 2)` as a rotation by -2; a pattern that
        // accepted `>>` bound the step of `<<` instead and printed back as
        // `<<`, so it is an error.
        let err = parse_pattern("(VecAdd (>> ?a ?s) ?b)").unwrap_err();
        assert!(err.contains(">>"), "{err}");
        assert!(parse_pattern("(VecAdd (<< ?a ?s) ?b)").is_ok());
    }

    #[test]
    fn metavariables_are_listed_once() {
        let pat = parse_pattern("(+ (* ?a ?b) (* ?a ?c))").unwrap();
        assert_eq!(pat.metavariables(), vec!["a", "b", "c"]);
    }

    #[test]
    fn malformed_patterns_are_rejected() {
        for bad in [
            "",
            "(",
            "(+ ?a)",
            "(?? x)",
            "(<< ?v 3)",
            "(>> ?v ?s)",
            "(Vec)",
            "(Frob ?a)",
            "x",
        ] {
            assert!(parse_pattern(bad).is_err(), "expected error for `{bad}`");
        }
    }
}
