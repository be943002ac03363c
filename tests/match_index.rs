//! The match index answers what the tree-walking engine API answers.
//!
//! `MatchIndex` keeps rule outcomes and per-rule match counts per distinct
//! subterm on one shared term graph, finds a state's matches by descending
//! the graph, names successor states by re-interning a spine, and reads a
//! state's tree out of the graph by its id; the one-shot
//! `RewriteEngine::{applicability_mask, matches, all_matches,
//! apply_at_occurrence}` walk and rebuild the tree every time. Masks, match
//! lists (in preorder, so location indices agree), successor trees and ids
//! and cost bits must be the same — on fresh programs, along a walk where
//! most of every state is already in the index, and on a tree that repeats
//! one subterm many times.
//!
//! The RL environment reads a state's ICI tokens off the same graph, with a
//! walk that stops once the observation is full: at every length they must
//! be the ids of the state's tree (`Vocabulary::encode_expr`).
//!
//! Below that, the index tries a rule only through `Rule::rewrite_in`, which
//! reads the graph; `Rule::try_apply` matches a declarative rule on the tree
//! and runs a procedural one on a scratch graph, whose result is read back
//! out as a tree. The two must return the same replacement id for every rule
//! on every subterm, and grow the graph node for node alike — which holds a
//! procedural rule to interning its result in `intern_expr` order.

use chehab::benchsuite::full_suite;
use chehab::datagen::{LlmLikeSynthesizer, RandomGenerator};
use chehab::ir::{
    cleanup, parse, BinOp, CostModel, Expr, TermGraph, Vocabulary, MAX_ICI_CONSTANTS,
    MAX_ICI_VARIABLES,
};
use chehab::trs::{Match, MatchIndex, RewriteEngine, Site};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Seeded programs of at most 200 nodes, alternating the structured
/// synthesizer (the RL training distribution) and the uniform generator.
fn generated_programs(count: usize) -> Vec<Expr> {
    let mut structured = LlmLikeSynthesizer::with_seed(0x51f1);
    let mut uniform = RandomGenerator::with_seed(0x2c07);
    let mut programs = Vec::new();
    while programs.len() < count {
        let program = if programs.len() % 2 == 0 {
            structured.generate()
        } else {
            uniform.generate()
        };
        let program = cleanup(&program);
        if program.node_count() <= 200 {
            programs.push(program);
        }
    }
    programs
}

/// Checks that the ICI ids of state `id`, read off the index's graph, are
/// those of its tree `program`: truncated, just fitting and padded.
fn assert_same_tokens(what: &str, index: &MatchIndex, id: usize, program: &Expr) {
    let vocabulary = Vocabulary::ici();
    let full = 2 * program.node_count() + 8;
    for len in [0, 1, 2, 7, 96, full] {
        assert_eq!(
            vocabulary.encode_graph(index.graph(), id, len),
            vocabulary.encode_expr(program, len),
            "{what}: {len} tokens"
        );
    }
}

/// Checks every fact of `program` the index reports against the engine's
/// tree walks, and returns the engine's matches.
fn assert_same_facts(
    what: &str,
    engine: &RewriteEngine,
    index: &mut MatchIndex,
    model: &CostModel,
    program: &Expr,
) -> Vec<Match> {
    let root = index.intern(program);
    let indexed = index.index(engine, root);
    assert_eq!(&index.expr(root), program, "{what}: the indexed tree");
    assert_same_tokens(what, index, root, program);
    let expected = engine.all_matches(program);
    // Per rule, the sites the index finds by descent, in location order.
    let sites: Vec<Vec<Site>> = (0..engine.rule_count())
        .map(|rule| {
            assert!(index.site(&indexed, rule, indexed.count(rule)).is_none());
            (0..indexed.count(rule))
                .map(|k| index.site(&indexed, rule, k).expect("k < count"))
                .collect()
        })
        .collect();
    let found: Vec<Match> = (sites.iter().enumerate())
        .flat_map(|(rule_index, sites)| {
            sites.iter().map(move |site| Match {
                rule_index,
                path: site.path(),
            })
        })
        .collect();
    assert_eq!(found, expected, "{what}: all_matches");
    assert_eq!(
        indexed.rule_mask(),
        engine.applicability_mask(program),
        "{what}: applicability_mask"
    );
    // `matches` rule by rule, for every rule that matches and a few that
    // do not (each call is a full tree walk).
    for rule in (0..engine.rule_count()).filter(|r| indexed.count(*r) > 0 || r % 16 == 0) {
        let paths: Vec<Vec<usize>> = sites[rule].iter().map(Site::path).collect();
        assert_eq!(paths, engine.matches(program, rule), "{what}: rule {rule}");
    }
    assert_eq!(indexed.count(engine.rule_count()), 0);
    assert_eq!(
        index.cost(indexed.id(), model).to_bits(),
        model.cost(program).to_bits(),
        "{what}: cost"
    );
    // Every match leads where apply_at_occurrence leads: the index predicts
    // the successor's id without building the tree, and reads out the tree
    // the rule rewrite builds.
    for (rule, sites) in sites.iter().enumerate() {
        for (occurrence, site) in sites.iter().enumerate().take(2) {
            let next = engine
                .apply_at_occurrence(program, rule, occurrence)
                .expect("an indexed match applies");
            let predicted = index.successor(site);
            let successor = format!("{what}: successor of rule {rule} at occurrence {occurrence}");
            assert_eq!(index.intern(&next), predicted, "{successor}");
            index.index(engine, predicted);
            assert_eq!(index.expr(predicted), next, "{successor}");
            assert_same_tokens(&successor, index, predicted, &next);
            assert_eq!(
                index.cost(predicted, model).to_bits(),
                model.cost(&next).to_bits(),
                "{successor}: cost"
            );
        }
    }
    expected
}

#[test]
fn the_index_agrees_with_the_tree_walks_on_generated_programs() {
    let engine = RewriteEngine::new();
    let model = CostModel::default();
    // One index for all of them: ids and memo entries of earlier programs
    // must not leak into later ones.
    let mut index = MatchIndex::new();
    for (i, program) in generated_programs(300).iter().enumerate() {
        assert_same_facts(
            &format!("generated program {i}"),
            &engine,
            &mut index,
            &model,
            program,
        );
    }
}

#[test]
fn the_index_agrees_with_the_tree_walks_along_a_random_walk() {
    let engine = RewriteEngine::new();
    let model = CostModel::default();
    let mut rng = StdRng::seed_from_u64(0xa11c);
    for (i, program) in generated_programs(12).into_iter().enumerate() {
        let mut index = MatchIndex::new();
        let mut current = program;
        for step in 0..40 {
            let what = format!("walk {i}, step {step}");
            let matches = assert_same_facts(&what, &engine, &mut index, &model, &current);
            if matches.is_empty() || current.node_count() > 400 {
                break;
            }
            let m = &matches[rng.gen_range(0..matches.len())];
            current = engine
                .apply_at_path(&current, m.rule_index, &m.path)
                .expect("every match applies");
        }
    }
}

/// Past what the ICI vocabulary reserves: more identifiers and constants
/// than it has ids for, and rotation steps that are no bucket of their own.
#[test]
fn graph_tokens_rename_and_bucket_as_the_tree_tokens_do() {
    let engine = RewriteEngine::new();
    let model = CostModel::default();
    let terms = (0..MAX_ICI_VARIABLES.max(MAX_ICI_CONSTANTS) + 5)
        .map(|i| format!("(* x{i} {})", 2 + i))
        .fold("(pt w)".to_string(), |sum, term| {
            format!("(+ {sum} {term})")
        });
    let rotated = "(- (<< (Vec a b c) 1000) (>> (<< (Vec a b c) 5000) 8192))";
    let sources = [
        terms.as_str(),
        rotated,
        "(VecAdd (<< (Vec a 0) 0) (VecNeg (>> (Vec 1 b) 3)))",
    ];
    for (i, source) in sources.into_iter().enumerate() {
        let program = parse(source).unwrap();
        let what = format!("program {i}");
        assert_same_facts(&what, &engine, &mut MatchIndex::new(), &model, &program);
    }
}

/// The shape `reduce-sum-rotations` leaves: a rotate-and-add tree over one
/// packed product, which the program's tree repeats 64 times while its graph
/// holds it once. Every occurrence is a distinct match location, so each
/// rule's count and each of its sites must be what the tree walk finds.
#[test]
fn the_index_counts_every_occurrence_of_a_shared_subterm() {
    let engine = RewriteEngine::new();
    let sum = (1..33).fold("(* a0 b0)".to_string(), |sum, i| {
        format!("(+ {sum} (* a{i} b{i}))")
    });
    let reduce = engine.rule_index("reduce-sum-rotations").unwrap();
    let program = engine
        .apply_at_occurrence(&parse(&sum).unwrap(), reduce, 0)
        .expect("a sum of 33 products reduces");
    let packed = (program.preorder().into_iter())
        .filter(|node| matches!(node, Expr::VecBin(BinOp::Mul, _, _)))
        .count();
    assert_eq!(packed, 64, "the packed product, once per slot of 64");
    let mut index = MatchIndex::new();
    let root = index.intern(&program);
    let indexed = index.index(&engine, root);
    let mut most = 0;
    for rule in 0..engine.rule_count() {
        let expected = engine.matches(&program, rule);
        assert_eq!(indexed.count(rule), expected.len(), "rule {rule}");
        for (k, path) in expected.iter().enumerate() {
            let site = index.site(&indexed, rule, k).expect("k < count");
            assert_eq!(&site.path(), path, "rule {rule}, location {k}");
        }
        assert!(index.site(&indexed, rule, expected.len()).is_none());
        most = most.max(expected.len());
    }
    assert!(most >= 64, "some rule matches every occurrence: {most}");
}

/// Tries every rule on every distinct subterm of `programs` both ways —
/// `rewrite_in` on one graph, `try_apply` then `intern_expr` on another —
/// and checks that both return the same id (`None` included) and create the
/// same nodes in the same order. Returns the number of rule tries.
fn assert_graph_matcher_agrees(engine: &RewriteEngine, what: &str, programs: &[Expr]) -> usize {
    let (mut graph, mut reference) = (TermGraph::new(), TermGraph::new());
    let mut seen = HashSet::new();
    let mut tries = 0;
    for (p, program) in programs.iter().enumerate() {
        let root = graph.intern_expr(program);
        assert_eq!(root, reference.intern_expr(program), "{what} {p}");
        for node in program.preorder() {
            let id = graph.intern_expr(node);
            if !seen.insert(id) {
                continue;
            }
            for rule in engine.rules() {
                let before = graph.len();
                let found = rule.rewrite_in(id, &mut graph);
                let expected = rule.try_apply(node).map(|e| reference.intern_expr(&e));
                assert_eq!(found, expected, "{what} {p}: rule {rule} on {node}");
                assert_eq!(graph.len(), reference.len(), "{what} {p}: rule {rule}");
                for new in before..graph.len() {
                    assert_eq!(graph.node(new), reference.node(new), "{what} {p}");
                }
                tries += 1;
            }
        }
    }
    tries
}

/// Each kernel before and after greedy rewriting, on one pair of graphs.
fn assert_graph_matcher_agrees_on_kernels(keep: impl Fn(&str) -> bool) -> usize {
    let engine = RewriteEngine::new();
    let model = CostModel::default();
    let mut kernels = 0;
    for benchmark in full_suite() {
        if keep(&benchmark.id()) {
            let program = cleanup(benchmark.program());
            let (optimized, _) = engine.greedy_optimize(&program, &model, 200);
            assert_graph_matcher_agrees(&engine, &benchmark.id(), &[program, optimized]);
            kernels += 1;
        }
    }
    kernels
}

#[test]
fn the_graph_matcher_agrees_with_the_tree_matcher_on_generated_programs() {
    let engine = RewriteEngine::new();
    let tries = assert_graph_matcher_agrees(&engine, "generated program", &generated_programs(300));
    assert!(tries > 100_000, "{tries} rule tries");
}

#[test]
fn the_graph_matcher_agrees_with_the_tree_matcher_on_a_sample_of_kernels() {
    // Small kernels; the release sweep below takes all 46.
    let sample = [
        "Box Blur 3x3",
        "Dot Product 8",
        "Hamm. Dist. 4",
        "L2 Distance 4",
        "Mat. Mul. 3x3",
        "Max 3",
        "Sort 3",
    ];
    assert_eq!(
        assert_graph_matcher_agrees_on_kernels(|id| sample.contains(&id)),
        sample.len()
    );
}

#[test]
#[ignore = "kept out of the debug tier-1 run; CI sweeps every kernel in release: cargo test --release --test match_index -- --include-ignored"]
fn the_graph_matcher_agrees_with_the_tree_matcher_on_every_kernel() {
    assert_eq!(assert_graph_matcher_agrees_on_kernels(|_| true), 46);
}
