//! The match index: one set of facts per program state, one rule outcome per
//! distinct subterm.
//!
//! Every optimizer asks the same questions of a program state — which rules
//! apply, where, what would the rewritten program cost — and successive
//! states differ only along one root-to-node spine. A [`MatchIndex`] keeps
//! every state of a search in one [`TermGraph`], where a state *is* its node
//! id, and remembers, per subterm id, what each rule rewrites that subterm
//! into. The search's input is interned once ([`MatchIndex::intern`]); every
//! later state is named by re-interning the spine of the rewrite that leads
//! to it ([`MatchIndex::successor`]), and indexing a state
//! ([`MatchIndex::index`]) reads its tree and preorder ids out of the graph
//! in one walk, then looks each subterm up in the memo. No rewrite is
//! replayed on a tree. A successor's cost is priced against the current
//! state's use counts from the nodes the rewrite adds and removes, interning
//! nothing ([`MatchIndex::price`]; `DESIGN.md`, "The compile path").
//!
//! A rule is tried on a new subterm only through
//! [`Rule::rewrite_in`](crate::Rule::rewrite_in): a declarative rule matches
//! the subterm's graph node, binding node ids, and interns its right-hand
//! side, so trying it costs O(|pattern|) and clones nothing, matched or
//! not. Only procedural rules read the subterm's tree.
//!
//! [`RewriteEngine::greedy_optimize`] and the RL rewrite environment both sit
//! on it. The tree-walking [`RewriteEngine::matches`],
//! [`RewriteEngine::applicability_mask`], [`RewriteEngine::all_matches`] and
//! [`RewriteEngine::apply_at_path`] stay as the public one-shot API and as
//! the index's oracle in tests.

use crate::engine::RewriteEngine;
use crate::rule::Placement;
use chehab_ir::{CostModel, Expr, NodeId, TermGraph, WordMap};

/// One rule match of an indexed program: the preorder position of the node
/// the rule rewrites and the id of what it rewrites it into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site {
    position: usize,
    replacement: NodeId,
}

/// One program state as [`MatchIndex::index`] read it: its tree and the
/// matches of every rule in it.
#[derive(Debug, Clone)]
pub struct ProgramMatches {
    /// The program, read out of the term graph.
    program: Expr,
    /// Graph id of every tree node, in the preorder of [`Expr::paths`].
    ids: Vec<NodeId>,
    /// Per preorder position: the parent's position and which child of it
    /// this node is (both 0 for the root).
    parents: Vec<(usize, usize)>,
    /// Per rule, its matches in preorder: the order of
    /// [`RewriteEngine::matches`], so a site's position in the list is the
    /// RL agent's location index.
    by_rule: Vec<Vec<Site>>,
}

impl ProgramMatches {
    /// The program's id in the index's term graph. Equal programs have equal
    /// ids, so it identifies the program *state*.
    pub fn id(&self) -> NodeId {
        self.ids[0]
    }

    /// The program this state is.
    pub fn program(&self) -> &Expr {
        &self.program
    }

    /// Per rule, its matches in preorder.
    pub fn by_rule(&self) -> &[Vec<Site>] {
        &self.by_rule
    }

    /// The matches of one rule (none for an out-of-range rule).
    pub fn of_rule(&self, rule: usize) -> &[Site] {
        self.by_rule.get(rule).map_or(&[], Vec::as_slice)
    }

    /// For every rule, whether it applies anywhere
    /// ([`RewriteEngine::applicability_mask`]).
    pub fn rule_mask(&self) -> Vec<bool> {
        self.by_rule.iter().map(|sites| !sites.is_empty()).collect()
    }

    /// The child-index path from the root to a match.
    pub fn path(&self, site: Site) -> Vec<usize> {
        let mut path: Vec<usize> = self.spine(site).map(|(_, child)| child).collect();
        path.reverse();
        path
    }

    /// The ancestors of a match, bottom-up: each one's id and which of its
    /// children the path goes through.
    fn spine(&self, site: Site) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        let mut at = site.position;
        std::iter::from_fn(move || {
            (at != 0).then(|| {
                let (parent, child) = self.parents[at];
                at = parent;
                (self.ids[parent], child)
            })
        })
    }
}

/// Subterm id → `(rule, replacement id)` of every rule that rewrites it into
/// something else, in rule order. Looked up by key only: no decision depends
/// on a hash map's iteration order.
type Rewrites = WordMap<NodeId, Vec<(usize, NodeId)>>;

/// A shared term graph plus the per-subterm rule outcomes found on it.
///
/// The index only grows, and everything in it is valid for one rule catalog:
/// use one index with one [`RewriteEngine`], and drop it with the search it
/// serves.
#[derive(Debug, Clone, Default)]
pub struct MatchIndex {
    graph: TermGraph,
    /// Outcomes of the `Anywhere` rules, valid wherever the subterm occurs.
    anywhere: Rewrites,
    /// Outcomes of the `RootOnly` rules, for terms seen as a whole program.
    root_only: Rewrites,
    /// Scratch: the spine of the site being priced.
    spine: Vec<(NodeId, usize)>,
}

impl MatchIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `program`, the input of a search, and returns its id. Every
    /// later state of the search is named by [`MatchIndex::successor`].
    pub fn intern(&mut self, program: &Expr) -> NodeId {
        self.graph.intern_expr(program)
    }

    /// Finds every match of every rule of `engine` in the program with id
    /// `root`, reading its tree and the id of every tree node out of the
    /// graph in one walk. Rules are tried only on subterms this index has not
    /// seen before.
    pub fn index(&mut self, engine: &RewriteEngine, root: NodeId) -> ProgramMatches {
        let (program, ids) = self.graph.expr_preorder(root);
        let mut parents = Vec::with_capacity(ids.len());
        let mut by_rule = vec![Vec::new(); engine.rule_count()];
        // open[d] = position of the node at depth d on the path being walked.
        let mut open: Vec<usize> = Vec::new();
        program.for_each_path(&mut |path, node| {
            let position = parents.len();
            open.truncate(path.len());
            parents.push((
                open.last().copied().unwrap_or(0),
                path.last().copied().unwrap_or(0),
            ));
            open.push(position);
            let id = ids[position];
            let graph = &mut self.graph;
            let hits = self
                .anywhere
                .entry(id)
                .or_insert_with(|| rewrites_of(engine, node, id, graph, Placement::Anywhere));
            for &(rule, replacement) in hits.iter() {
                by_rule[rule].push(Site {
                    position,
                    replacement,
                });
            }
        });
        let graph = &mut self.graph;
        let hits = self
            .root_only
            .entry(root)
            .or_insert_with(|| rewrites_of(engine, &program, root, graph, Placement::RootOnly));
        for &(rule, replacement) in hits.iter() {
            by_rule[rule].push(Site {
                position: 0,
                replacement,
            });
        }
        ProgramMatches {
            program,
            ids,
            parents,
            by_rule,
        }
    }

    /// The id of the program that applying the match at `site` yields, from
    /// re-interning the ancestors of the rewritten node up to the root: the
    /// state [`MatchIndex::index`] then reads out. Equal programs have equal
    /// ids, so a state reached twice is recognised without building it.
    pub fn successor(&mut self, program: &ProgramMatches, site: Site) -> NodeId {
        program
            .spine(site)
            .fold(site.replacement, |root, (ancestor, child)| {
                self.graph.with_operand(ancestor, child, root)
            })
    }

    /// The cost of the program with id `root`, bit-identical to
    /// [`CostModel::cost`] of its tree.
    pub fn cost(&mut self, root: NodeId, cost_model: &CostModel) -> f64 {
        self.graph.cost(root, cost_model)
    }

    /// Makes `program` the state [`MatchIndex::price`] prices rewrites of
    /// ([`TermGraph::set_live`]: a move costs what changed since the last).
    pub fn set_live(&mut self, program: &ProgramMatches) {
        self.graph.set_live(program.id());
    }

    /// The cost of the program that applying the match at `site` yields —
    /// [`MatchIndex::cost`] of its [`MatchIndex::successor`], bit for bit —
    /// priced from the nodes the rewrite adds to and removes from `program`
    /// ([`TermGraph::rewrite_cost`]), which must be live. A release build
    /// interns nothing; a debug build interns the successor and checks the
    /// price against its full cost.
    pub fn price(&mut self, program: &ProgramMatches, site: Site, cost_model: &CostModel) -> f64 {
        self.spine.clear();
        self.spine.extend(program.spine(site));
        let price = self
            .graph
            .rewrite_cost(&self.spine, site.replacement, cost_model);
        debug_assert_eq!(
            price.to_bits(),
            {
                let successor = self.successor(program, site);
                self.cost(successor, cost_model).to_bits()
            },
            "the priced rewrite costs what its interned successor costs"
        );
        price
    }
}

/// Every rule of the given placement that rewrites `node` into something
/// else, with the replacement interned: `(rule index, replacement id)` in
/// rule order. `id` is `node`'s own id; equal ids are equal terms, so the
/// comparison is [`Rule::applies`](crate::Rule::applies)'s "actually changes
/// it".
fn rewrites_of(
    engine: &RewriteEngine,
    node: &Expr,
    id: NodeId,
    graph: &mut TermGraph,
    placement: Placement,
) -> Vec<(usize, NodeId)> {
    let mut out = Vec::new();
    for (rule_index, rule) in engine.rules().iter().enumerate() {
        if rule.placement() != placement {
            continue;
        }
        if let Some(replacement) = rule.rewrite_in(node, id, graph) {
            if replacement != id {
                out.push((rule_index, replacement));
            }
        }
    }
    out
}
