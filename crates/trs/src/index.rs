//! The match index: one set of facts per term-graph id, computed once.
//!
//! Every optimizer asks the same questions of a program state — which rules
//! apply, where, what would the rewritten program cost — and successive
//! states differ only along one root-to-node spine. A [`MatchIndex`] keeps
//! every state of a search in one [`TermGraph`], where a state *is* its node
//! id. The search's input is interned once ([`MatchIndex::intern`]); every
//! later state is named by re-interning the spine of the rewrite that leads
//! to it ([`MatchIndex::successor`]).
//!
//! Per node id the index keeps two facts, the first time the id is reached
//! as part of an indexed state: what each `Anywhere` rule rewrites that
//! subterm into, and how many matches each rule has in the subterm's tree (a
//! shared subterm counts once per occurrence). Both are functions of the id
//! alone, so indexing a state ([`MatchIndex::index`]) visits only the ids
//! that are new to the index — after a rewrite, the re-interned spine and
//! the replacement's fresh nodes — and no tree is read. A state's matches are
//! then found by descending the graph from its root: the `k`-th match of a
//! rule by skipping operands by their counts ([`MatchIndex::site`]), every
//! match by one descent that skips operands with none
//! ([`MatchIndex::cheapest`]). A successor's cost is priced against the
//! current state's use counts from the nodes the rewrite adds and removes,
//! interning nothing (`DESIGN.md`, "The compile path").
//!
//! A rule is tried on a new subterm only through
//! [`Rule::rewrite_in`](crate::Rule::rewrite_in), which reads the graph: a
//! declarative rule matches the subterm's node, binding node ids, and a
//! procedural rule reads its operands by id; both intern their result.
//!
//! [`RewriteEngine::greedy_optimize`] and the RL rewrite environment both sit
//! on it. The tree-walking [`RewriteEngine::matches`],
//! [`RewriteEngine::applicability_mask`], [`RewriteEngine::all_matches`] and
//! [`RewriteEngine::apply_at_path`] stay as the public one-shot API and as
//! the index's oracle in tests.

use crate::engine::RewriteEngine;
use crate::rule::Placement;
use chehab_ir::{CostModel, Expr, NodeId, TermGraph, WordMap};

/// One rule match of an indexed program: the path to the node the rule
/// rewrites and the id of what it rewrites it into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// The rewritten node's ancestors, from the root down: each one's id and
    /// which of its operands the path goes on through.
    spine: Vec<(NodeId, usize)>,
    replacement: NodeId,
}

impl Site {
    /// The child-index path from the root to the match.
    pub fn path(&self) -> Vec<usize> {
        self.spine.iter().map(|&(_, child)| child).collect()
    }
}

/// One program state as [`MatchIndex::index`] found it: its id and how many
/// matches each rule has in it. Its sites are read from the index
/// ([`MatchIndex::site`], [`MatchIndex::cheapest`]).
#[derive(Debug, Clone)]
pub struct ProgramMatches {
    id: NodeId,
    rule_count: usize,
    /// `(rule, matches)` of every rule that matches, in rule order.
    counts: Vec<(usize, usize)>,
}

impl ProgramMatches {
    /// The program's id in the index's term graph. Equal programs have equal
    /// ids, so it identifies the program *state*.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The number of matches of one rule: the length of
    /// [`RewriteEngine::matches`] (0 for an out-of-range rule).
    pub fn count(&self, rule: usize) -> usize {
        count_of(&self.counts, rule)
    }

    /// For every rule, whether it applies anywhere
    /// ([`RewriteEngine::applicability_mask`]).
    pub fn rule_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.rule_count];
        for &(rule, _) in &self.counts {
            mask[rule] = true;
        }
        mask
    }
}

/// What the index knows about one node id, whatever state it occurs in.
#[derive(Debug, Clone)]
struct Facts {
    /// `(rule, replacement id)` of every `Anywhere` rule that rewrites the
    /// node into something else, in rule order.
    rewrites: Box<[(usize, NodeId)]>,
    /// `(rule, matches)` of every `Anywhere` rule that matches somewhere in
    /// the node's tree, in rule order; a shared subterm counts once per
    /// occurrence. Empty where a descent can skip the node.
    counts: Box<[(usize, usize)]>,
}

/// The best match a descent has priced so far.
struct Cheapest {
    site: Site,
    rule: usize,
    cost: f64,
}

/// A shared term graph plus the per-id facts found on it.
///
/// The index only grows, and everything in it is valid for one rule catalog:
/// use one index with one [`RewriteEngine`], and drop it with the search it
/// serves.
#[derive(Debug, Clone, Default)]
pub struct MatchIndex {
    graph: TermGraph,
    /// Per node id, its facts once a state containing it has been indexed.
    facts: Vec<Option<Facts>>,
    /// Outcomes of the `RootOnly` rules, for terms seen as a whole program.
    root_only: WordMap<NodeId, Vec<(usize, NodeId)>>,
    /// Scratch: per rule, a node's match count while it is summed.
    tally: Vec<usize>,
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

    /// The program with id `root`, read out of the graph as a tree.
    pub fn expr(&self, root: NodeId) -> Expr {
        self.graph.expr(root)
    }

    /// The term graph every state of the search is a node of.
    pub fn graph(&self) -> &TermGraph {
        &self.graph
    }

    /// Finds how many matches every rule of `engine` has in the program with
    /// id `root`. Rules are tried only on ids this index has not reached
    /// before, in the preorder of their first occurrence.
    pub fn index(&mut self, engine: &RewriteEngine, root: NodeId) -> ProgramMatches {
        self.learn(engine, root);
        let graph = &mut self.graph;
        let root_only = self.root_only.entry(root).or_insert_with(|| {
            let root_only = (0..engine.rule_count())
                .filter(|&r| engine.rules()[r].placement() == Placement::RootOnly);
            rewrites_of(engine, root_only, root, graph)
        });
        let facts = self.facts[root].as_ref().expect("the root was learnt");
        // A rule is either root-only or not, so the two lists share no rule.
        let mut counts: Vec<(usize, usize)> = facts.counts.to_vec();
        counts.extend(root_only.iter().map(|&(rule, _)| (rule, 1)));
        counts.sort_unstable();
        ProgramMatches {
            id: root,
            rule_count: engine.rule_count(),
            counts,
        }
    }

    /// Computes the facts of `id` and of every id below it that has none
    /// yet: a node's rules are tried before its operands', and its counts
    /// summed after theirs.
    fn learn(&mut self, engine: &RewriteEngine, id: NodeId) {
        if self.facts.get(id).is_some_and(Option::is_some) {
            return;
        }
        let candidates = engine.anywhere_rules(self.graph.node(id)).iter().copied();
        let rewrites = rewrites_of(engine, candidates, id, &mut self.graph);
        let children = self.graph.node(id).operands();
        for &child in &children {
            self.learn(engine, child);
        }
        self.tally.resize(engine.rule_count(), 0);
        let mut touched: Vec<usize> = Vec::new();
        let own = rewrites.iter().map(|&(rule, _)| (rule, 1));
        let below = children.iter().flat_map(|&o| {
            let facts = self.facts[o].as_ref().expect("operands are learnt first");
            facts.counts.iter().copied()
        });
        for (rule, count) in own.chain(below) {
            if self.tally[rule] == 0 {
                touched.push(rule);
            }
            self.tally[rule] += count;
        }
        touched.sort_unstable();
        let counts: Box<[(usize, usize)]> = touched
            .iter()
            .map(|&rule| (rule, std::mem::take(&mut self.tally[rule])))
            .collect();
        if self.facts.len() <= id {
            self.facts.resize_with(self.graph.len(), || None);
        }
        self.facts[id] = Some(Facts {
            rewrites: rewrites.into(),
            counts,
        });
    }

    fn facts(&self, id: NodeId) -> &Facts {
        self.facts[id]
            .as_ref()
            .expect("a node of an indexed state has facts")
    }

    /// The `k`-th match (0-based, in preorder: the order of
    /// [`RewriteEngine::matches`], so `k` is the RL agent's location index)
    /// of `rule` in `program`, or `None` if it has fewer. Found by descending
    /// from the root and skipping each operand by its count of the rule's
    /// matches: O(depth · arity).
    pub fn site(&self, program: &ProgramMatches, rule: usize, k: usize) -> Option<Site> {
        if k >= program.count(rule) {
            return None;
        }
        if let Some(&(_, replacement)) = self.root_only[&program.id]
            .iter()
            .find(|&&(r, _)| r == rule)
        {
            return Some(Site {
                spine: Vec::new(),
                replacement,
            });
        }
        let (mut id, mut k) = (program.id, k);
        let mut spine = Vec::new();
        'descend: loop {
            let facts = self.facts(id);
            if let Some(&(_, replacement)) = facts.rewrites.iter().find(|&&(r, _)| r == rule) {
                if k == 0 {
                    return Some(Site { spine, replacement });
                }
                k -= 1;
            }
            let mut child = 0;
            while let Some(next) = self.graph.node(id).operand(child) {
                let count = count_of(&self.facts(next).counts, rule);
                if k < count {
                    spine.push((id, child));
                    id = next;
                    continue 'descend;
                }
                k -= count;
                child += 1;
            }
            unreachable!("a node's count covers the matches below it");
        }
    }

    /// The id of the program that applying the match at `site` yields, from
    /// re-interning the ancestors of the rewritten node up to the root.
    /// Equal programs have equal ids, so a state reached twice is recognised
    /// without building it.
    pub fn successor(&mut self, site: &Site) -> NodeId {
        site.spine
            .iter()
            .rev()
            .fold(site.replacement, |root, &(ancestor, child)| {
                self.graph.with_operand(ancestor, child, root)
            })
    }

    /// The cost of the program with id `root`, bit-identical to
    /// [`CostModel::cost`] of its tree.
    pub fn cost(&mut self, root: NodeId, cost_model: &CostModel) -> f64 {
        self.graph.cost(root, cost_model)
    }

    /// Makes `program` the state [`MatchIndex::cheapest`] prices rewrites of
    /// ([`TermGraph::set_live`]: a move costs what changed since the last).
    pub fn set_live(&mut self, program: &ProgramMatches) {
        self.graph.set_live(program.id());
    }

    /// The match of `program`, which must be live, whose successor costs
    /// least under `cost_model`, with that cost; among equal costs, the first
    /// in [`RewriteEngine::all_matches`] order (rule, then preorder).
    ///
    /// One descent from the root visits every match, skipping operands whose
    /// tree has none; the path to the node being visited is on the descent's
    /// stack, and each match is priced from the nodes its rewrite adds to and
    /// removes from the live circuit ([`TermGraph::rewrite_cost`]). A release
    /// build interns nothing; a debug build interns every successor and
    /// checks its price against its full cost.
    pub fn cheapest(
        &mut self,
        program: &ProgramMatches,
        cost_model: &CostModel,
    ) -> Option<(Site, f64)> {
        let mut best = None;
        for i in 0..self.root_only[&program.id].len() {
            let (rule, replacement) = self.root_only[&program.id][i];
            self.consider(&[], rule, replacement, cost_model, &mut best);
        }
        if !self.facts(program.id).counts.is_empty() {
            self.descend(program.id, &mut Vec::new(), cost_model, &mut best);
        }
        best.map(|Cheapest { site, cost, .. }| (site, cost))
    }

    /// Prices every match in the tree of `id`, reached through `spine`,
    /// descending only into operands whose tree has a match.
    fn descend(
        &mut self,
        id: NodeId,
        spine: &mut Vec<(NodeId, usize)>,
        cost_model: &CostModel,
        best: &mut Option<Cheapest>,
    ) {
        for i in 0..self.facts(id).rewrites.len() {
            let (rule, replacement) = self.facts(id).rewrites[i];
            self.consider(spine, rule, replacement, cost_model, best);
        }
        let mut child = 0;
        while let Some(next) = self.graph.node(id).operand(child) {
            if !self.facts(next).counts.is_empty() {
                spine.push((id, child));
                self.descend(next, spine, cost_model, best);
                spine.pop();
            }
            child += 1;
        }
    }

    /// Prices the rewrite of the node at the end of `spine` into
    /// `replacement`, and keeps it if it is the cheapest so far. A descent
    /// meets one rule's matches in preorder, so among equal costs an earlier
    /// one is kept unless a lower rule ties it.
    fn consider(
        &mut self,
        spine: &[(NodeId, usize)],
        rule: usize,
        replacement: NodeId,
        cost_model: &CostModel,
        best: &mut Option<Cheapest>,
    ) {
        let cost = self.graph.rewrite_cost(spine, replacement, cost_model);
        debug_assert_eq!(
            cost.to_bits(),
            {
                let site = Site {
                    spine: spine.to_vec(),
                    replacement,
                };
                let successor = self.successor(&site);
                self.cost(successor, cost_model).to_bits()
            },
            "the priced rewrite costs what its interned successor costs"
        );
        if best
            .as_ref()
            .is_none_or(|b| cost < b.cost || (cost == b.cost && rule < b.rule))
        {
            *best = Some(Cheapest {
                site: Site {
                    spine: spine.to_vec(),
                    replacement,
                },
                rule,
                cost,
            });
        }
    }
}

/// The count a sparse `(rule, count)` list in rule order holds for `rule`.
fn count_of(counts: &[(usize, usize)], rule: usize) -> usize {
    counts
        .binary_search_by_key(&rule, |&(r, _)| r)
        .map_or(0, |at| counts[at].1)
}

/// Every rule of `rules` (indices in rule order) that rewrites node `id`
/// into something else, with the replacement interned: `(rule index,
/// replacement id)` in rule order. Equal ids are equal terms, so
/// `replacement != id` is "the rewrite changes the node".
fn rewrites_of(
    engine: &RewriteEngine,
    rules: impl Iterator<Item = usize>,
    id: NodeId,
    graph: &mut TermGraph,
) -> Vec<(usize, NodeId)> {
    let mut out = Vec::new();
    for rule_index in rules {
        if let Some(replacement) = engine.rules()[rule_index].rewrite_in(id, graph) {
            if replacement != id {
                out.push((rule_index, replacement));
            }
        }
    }
    out
}
