//! Program tokenization for the learning stack.
//!
//! Two tokenizers are provided:
//!
//! * **ICI** (*Identifier and Constant Invariant*, Section 5.1): a single
//!   linear pass that renames the first distinct variable to `v0`, the second
//!   to `v1`, ..., maps constants other than the semantically special `0`/`1`
//!   to `c0`, `c1`, ..., and keeps a small fixed vocabulary for operators and
//!   parentheses. Two alpha-equivalent programs produce identical token
//!   sequences, which is also what the dataset pipeline uses for
//!   deduplication. The pass is written once, over any term it can read node
//!   by node: an [`Expr`] tree, or a term of a [`TermGraph`] by its id. It
//!   spells its tokens ([`ici_tokens`]) or names them by vocabulary id
//!   ([`Vocabulary::encode_expr`], [`Vocabulary::encode_graph`]), and an id
//!   walk stops once its observation is full.
//! * **BPE** (byte-pair encoding): the classical learned subword tokenizer the
//!   paper compares against in the tokenization ablation (Figure 10).

use crate::dag::{DagNode, NodeId, TermGraph};
use crate::expr::{BinOp, Expr};
use crate::hash::WordMap;
use std::collections::HashMap;

/// Special token: sequence padding.
pub const PAD_TOKEN: &str = "<pad>";
/// Special token: classification summary slot prepended to every sequence.
pub const CLS_TOKEN: &str = "<cls>";
/// Special token: out-of-vocabulary fallback.
pub const UNK_TOKEN: &str = "<unk>";

/// Maximum number of distinct variables the ICI vocabulary reserves ids for.
pub const MAX_ICI_VARIABLES: usize = 96;
/// Maximum number of distinct (non-0/1) constants the ICI vocabulary reserves ids for.
pub const MAX_ICI_CONSTANTS: usize = 32;

/// The largest rotation bucket: the ICI vocabulary has `rot1`, `rot2`, ...,
/// `rot4096`.
const MAX_ROTATION_BUCKET: u64 = 4096;

/// The power-of-two bucket a rotation step is named by when the vocabulary
/// has no token of its own for it.
fn rotation_bucket(step: u64) -> u64 {
    step.next_power_of_two().min(MAX_ROTATION_BUCKET)
}

/// The ICI tokens spelled the same in every program: parentheses,
/// operators, `Vec`, `VecNeg`, the rotation directions, the plaintext marker
/// and the literal constants 0 and 1.
fn ici_words() -> impl Iterator<Item = &'static str> {
    let ops = BinOp::ALL.into_iter();
    (["(", ")"].into_iter())
        .chain(ops.flat_map(|op| [op.token(), op.vector_token()]))
        .chain(["Vec", "VecNeg", "<<", ">>", "pt", "0", "1"])
}

/// One ICI token, before it is spelled or looked up.
#[derive(Debug, Clone, Copy)]
enum Token {
    /// One of the [`ici_words`].
    Word(&'static str),
    /// `v{i}`: the `i`-th distinct variable.
    Var(usize),
    /// `c{i}`: the `i`-th distinct constant other than 0 and 1.
    Const(usize),
    /// `rot{step}`: a rotation's magnitude.
    Rot(u64),
}

impl Token {
    fn spelling(self) -> String {
        match self {
            Token::Word(word) => word.into(),
            Token::Var(i) => format!("v{i}"),
            Token::Const(i) => format!("c{i}"),
            Token::Rot(step) => format!("rot{step}"),
        }
    }
}

/// What the ICI walk reads of one node of a term.
enum Node<'a> {
    Var {
        name: &'a str,
        plaintext: bool,
    },
    Const(i64),
    /// `( word operands… )`.
    Op(&'static str),
    /// `( <<|>> operand rot|steps| )`.
    Rot(i64),
}

/// A term the ICI walk can read node by node.
trait Term<'a>: Copy {
    fn node(self) -> Node<'a>;
    fn for_each_operand(self, f: impl FnMut(Self));
}

impl<'a> Term<'a> for &'a Expr {
    fn node(self) -> Node<'a> {
        match self {
            Expr::CtVar(s) => Node::Var {
                name: s.as_str(),
                plaintext: false,
            },
            Expr::PtVar(s) => Node::Var {
                name: s.as_str(),
                plaintext: true,
            },
            Expr::Const(v) => Node::Const(*v),
            Expr::Bin(op, _, _) => Node::Op(op.token()),
            Expr::Neg(_) => Node::Op(BinOp::Sub.token()),
            Expr::Vec(_) => Node::Op("Vec"),
            Expr::VecBin(op, _, _) => Node::Op(op.vector_token()),
            Expr::VecNeg(_) => Node::Op("VecNeg"),
            Expr::Rot(_, steps) => Node::Rot(*steps),
        }
    }

    fn for_each_operand(self, mut f: impl FnMut(Self)) {
        match self {
            Expr::CtVar(_) | Expr::PtVar(_) | Expr::Const(_) => {}
            Expr::Bin(_, a, b) | Expr::VecBin(_, a, b) => {
                f(a);
                f(b);
            }
            Expr::Neg(a) | Expr::VecNeg(a) | Expr::Rot(a, _) => f(a),
            Expr::Vec(elems) => elems.iter().for_each(f),
        }
    }
}

impl<'a> Term<'a> for (&'a TermGraph, NodeId) {
    fn node(self) -> Node<'a> {
        let (graph, id) = self;
        match graph.node(id) {
            DagNode::CtVar(s) => Node::Var {
                name: s.as_str(),
                plaintext: false,
            },
            DagNode::PtVar(s) => Node::Var {
                name: s.as_str(),
                plaintext: true,
            },
            DagNode::Const(v) => Node::Const(*v),
            DagNode::Bin(op, _, _) => Node::Op(op.token()),
            DagNode::Neg(_) => Node::Op(BinOp::Sub.token()),
            DagNode::Vec(_) => Node::Op("Vec"),
            DagNode::VecBin(op, _, _) => Node::Op(op.vector_token()),
            DagNode::VecNeg(_) => Node::Op("VecNeg"),
            DagNode::Rot(_, steps) => Node::Rot(*steps),
        }
    }

    fn for_each_operand(self, mut f: impl FnMut(Self)) {
        let (graph, id) = self;
        graph
            .node(id)
            .for_each_operand(|operand| f((graph, operand)));
    }
}

/// Where the ICI walk puts its tokens.
trait Sink {
    fn push(&mut self, token: Token);
    /// Whether no further token is kept: the walk stops.
    fn full(&self) -> bool;
}

impl Sink for Vec<String> {
    fn push(&mut self, token: Token) {
        Vec::push(self, token.spelling());
    }

    fn full(&self) -> bool {
        false
    }
}

/// The ICI pass: one preorder walk of a term, renaming variables and
/// constants by first appearance.
struct IciWalk<'a, 's, S> {
    vars: WordMap<&'a str, usize>,
    consts: WordMap<i64, usize>,
    out: &'s mut S,
}

impl<'a, 's, S: Sink> IciWalk<'a, 's, S> {
    fn new(out: &'s mut S) -> Self {
        IciWalk {
            vars: WordMap::default(),
            consts: WordMap::default(),
            out,
        }
    }

    fn walk<T: Term<'a>>(&mut self, term: T) {
        if self.out.full() {
            return;
        }
        match term.node() {
            Node::Var { name, plaintext } => {
                let next = self.vars.len();
                let index = *self.vars.entry(name).or_insert(next);
                if plaintext {
                    self.out.push(Token::Word("pt"));
                }
                self.out.push(Token::Var(index));
            }
            Node::Const(0) => self.out.push(Token::Word("0")),
            Node::Const(1) => self.out.push(Token::Word("1")),
            Node::Const(v) => {
                let next = self.consts.len();
                let index = *self.consts.entry(v).or_insert(next);
                self.out.push(Token::Const(index));
            }
            Node::Op(word) => {
                self.out.push(Token::Word("("));
                self.out.push(Token::Word(word));
                term.for_each_operand(|operand| self.walk(operand));
                self.out.push(Token::Word(")"));
            }
            Node::Rot(steps) => {
                self.out.push(Token::Word("("));
                self.out
                    .push(Token::Word(if steps >= 0 { "<<" } else { ">>" }));
                term.for_each_operand(|operand| self.walk(operand));
                self.out.push(Token::Rot(steps.unsigned_abs()));
                self.out.push(Token::Word(")"));
            }
        }
    }
}

/// Produces the ICI token sequence of an expression (without the `CLS`
/// prefix).
///
/// # Examples
///
/// ```
/// use chehab_ir::{parse, ici_tokens};
///
/// let a = ici_tokens(&parse("(+ x (* y z))").unwrap());
/// let b = ici_tokens(&parse("(+ a (* b c))").unwrap());
/// assert_eq!(a, b, "alpha-equivalent programs tokenize identically");
/// # Ok::<(), chehab_ir::ParseError>(())
/// ```
pub fn ici_tokens(expr: &Expr) -> Vec<String> {
    let mut tokens = Vec::with_capacity(expr.node_count() * 2);
    IciWalk::new(&mut tokens).walk(expr);
    tokens
}

/// The ICI canonical form of an expression: the token sequence joined with
/// spaces. Alpha-equivalent programs share the same canonical form, which the
/// dataset pipeline uses for deduplication and benchmark exclusion.
pub fn canonical_form(expr: &Expr) -> String {
    ici_tokens(expr).join(" ")
}

/// The ids a vocabulary gives the ICI tokens, looked up once so that an ICI
/// walk names each token without spelling it. A token outside these tables
/// is spelled and looked up, as [`Vocabulary::encode`] would.
/// An entry is `None` where the vocabulary lacks the token.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IciIds {
    /// Of every [`ici_words`] the vocabulary has.
    words: WordMap<&'static str, usize>,
    /// `v{i}` for `i < MAX_ICI_VARIABLES`.
    vars: Vec<Option<usize>>,
    /// `c{i}` for `i < MAX_ICI_CONSTANTS`.
    consts: Vec<Option<usize>>,
    /// `rot{2^k}` for every bucket.
    rotations: Vec<Option<usize>>,
    /// Whether some `rot{step}` that is not a bucket is a token of its own,
    /// so a step must be looked up by its spelling before it is bucketed.
    unbucketed_rotations: bool,
}

/// Token ids up to a length; whatever does not fit is dropped.
struct Ids<'v> {
    vocabulary: &'v Vocabulary,
    ids: Vec<usize>,
    max_len: usize,
}

impl Ids<'_> {
    fn push_id(&mut self, id: usize) {
        if self.ids.len() < self.max_len {
            self.ids.push(id);
        }
    }
}

impl Sink for Ids<'_> {
    fn push(&mut self, token: Token) {
        if !self.full() {
            self.ids.push(self.vocabulary.ici_id(token));
        }
    }

    fn full(&self) -> bool {
        self.ids.len() >= self.max_len
    }
}

/// A fixed mapping from token strings to integer ids for the embedding layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vocabulary {
    token_to_id: HashMap<String, usize>,
    id_to_token: Vec<String>,
    ici: IciIds,
}

impl Vocabulary {
    /// Builds the ICI vocabulary: special tokens, structural tokens,
    /// operators, rotation steps (bucketed), `v0..`, and `c0..`.
    pub fn ici() -> Self {
        let mut tokens: Vec<String> = [PAD_TOKEN, CLS_TOKEN, UNK_TOKEN]
            .into_iter()
            .chain(ici_words())
            .map(String::from)
            .collect();
        // Rotation step magnitudes are bucketed by powers of two up to 4096.
        let mut step = 1;
        while step <= MAX_ROTATION_BUCKET {
            tokens.push(format!("rot{step}"));
            step *= 2;
        }
        for i in 0..MAX_ICI_VARIABLES {
            tokens.push(format!("v{i}"));
        }
        for i in 0..MAX_ICI_CONSTANTS {
            tokens.push(format!("c{i}"));
        }
        Self::from_tokens(tokens)
    }

    /// Builds a vocabulary from an explicit token list (first occurrence
    /// wins; duplicates are ignored).
    pub fn from_tokens(tokens: impl IntoIterator<Item = String>) -> Self {
        let mut token_to_id = HashMap::new();
        let mut id_to_token = Vec::new();
        for t in tokens {
            if !token_to_id.contains_key(&t) {
                token_to_id.insert(t.clone(), id_to_token.len());
                id_to_token.push(t);
            }
        }
        let id = |token: &str| token_to_id.get(token).copied();
        let ici = IciIds {
            words: ici_words()
                .filter_map(|word| Some((word, id(word)?)))
                .collect(),
            vars: (0..MAX_ICI_VARIABLES)
                .map(|i| id(&format!("v{i}")))
                .collect(),
            consts: (0..MAX_ICI_CONSTANTS)
                .map(|i| id(&format!("c{i}")))
                .collect(),
            rotations: (0..=MAX_ROTATION_BUCKET.ilog2())
                .map(|k| id(&format!("rot{}", 1u64 << k)))
                .collect(),
            unbucketed_rotations: id_to_token.iter().any(|t| {
                t.strip_prefix("rot")
                    .and_then(|rest| rest.parse::<u64>().ok().filter(|s| s.to_string() == rest))
                    .is_some_and(|step| rotation_bucket(step) != step)
            }),
        };
        Vocabulary {
            token_to_id,
            id_to_token,
            ici,
        }
    }

    /// Number of tokens in the vocabulary.
    pub fn len(&self) -> usize {
        self.id_to_token.len()
    }

    /// Returns `true` if the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.id_to_token.is_empty()
    }

    /// Id of a token, falling back to `<unk>`.
    pub fn id(&self, token: &str) -> usize {
        self.token_to_id
            .get(token)
            .copied()
            .unwrap_or_else(|| self.token_to_id[UNK_TOKEN])
    }

    /// Token string for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn token(&self, id: usize) -> &str {
        &self.id_to_token[id]
    }

    /// Id of the padding token.
    pub fn pad_id(&self) -> usize {
        self.token_to_id[PAD_TOKEN]
    }

    /// Id of the `CLS` token.
    pub fn cls_id(&self) -> usize {
        self.token_to_id[CLS_TOKEN]
    }

    /// Id of a token of an encoded sequence: its own, or for a rotation step
    /// the vocabulary has no token for, its power-of-two bucket's.
    fn sequence_id(&self, token: &str) -> usize {
        if let Some(rest) = token.strip_prefix("rot") {
            if !self.token_to_id.contains_key(token) {
                if let Ok(step) = rest.parse::<u64>() {
                    return self.id(&format!("rot{}", rotation_bucket(step)));
                }
            }
        }
        self.id(token)
    }

    /// [`Vocabulary::sequence_id`] of an ICI token, from the tables where
    /// they have it.
    fn ici_id(&self, token: Token) -> usize {
        let known = match token {
            Token::Word(word) => self.ici.words.get(word).copied(),
            Token::Var(i) => self.ici.vars.get(i).copied().flatten(),
            Token::Const(i) => self.ici.consts.get(i).copied().flatten(),
            Token::Rot(step) if !self.ici.unbucketed_rotations => {
                self.ici.rotations[rotation_bucket(step).ilog2() as usize]
            }
            Token::Rot(_) => None,
        };
        known.unwrap_or_else(|| self.sequence_id(&token.spelling()))
    }

    /// Exactly `max_len` ids: `CLS`, then whatever `fill` pushes while there
    /// is room, then padding.
    fn framed(&self, max_len: usize, fill: impl FnOnce(&mut Ids<'_>)) -> Vec<usize> {
        let mut ids = Ids {
            vocabulary: self,
            ids: Vec::with_capacity(max_len),
            max_len,
        };
        ids.push_id(self.cls_id());
        fill(&mut ids);
        let mut ids = ids.ids;
        ids.resize(max_len, self.pad_id());
        ids
    }

    /// Encodes a token sequence into exactly `max_len` ids: `CLS` first, then
    /// the tokens, truncated or padded. Large rotation magnitudes map to
    /// their power-of-two bucket. A `max_len` of 0 gives no ids, not even
    /// `CLS`.
    pub fn encode(&self, tokens: &[String], max_len: usize) -> Vec<usize> {
        self.framed(max_len, |ids| {
            for t in tokens.iter().take(max_len.saturating_sub(1)) {
                ids.push_id(self.sequence_id(t));
            }
        })
    }

    /// [`Vocabulary::encode`] of an expression's [`ici_tokens`], without
    /// spelling them; the walk stops once `max_len` ids are found.
    pub fn encode_expr(&self, expr: &Expr, max_len: usize) -> Vec<usize> {
        self.encode_term(expr, max_len)
    }

    /// [`Vocabulary::encode_expr`] of the term of `graph` with id `root`
    /// ([`TermGraph::expr`]), read off the graph: the walk visits only the
    /// nodes whose tokens fit in `max_len`, a shared subterm once per
    /// occurrence.
    pub fn encode_graph(&self, graph: &TermGraph, root: NodeId, max_len: usize) -> Vec<usize> {
        self.encode_term((graph, root), max_len)
    }

    fn encode_term<'a>(&self, term: impl Term<'a>, max_len: usize) -> Vec<usize> {
        self.framed(max_len, |ids| IciWalk::new(ids).walk(term))
    }
}

// ---------------------------------------------------------------------------
// Byte-pair encoding baseline
// ---------------------------------------------------------------------------

/// A classical byte-pair-encoding tokenizer trained on raw IR text, used as
/// the baseline in the tokenization ablation.
#[derive(Debug, Clone)]
pub struct BpeTokenizer {
    merges: Vec<(String, String)>,
    vocab: Vec<String>,
}

impl BpeTokenizer {
    /// Trains a BPE tokenizer on a corpus of IR texts until the vocabulary
    /// reaches `vocab_size` (or no more pairs can be merged).
    pub fn train(corpus: &[String], vocab_size: usize) -> Self {
        // Word = whitespace-separated chunk, represented as a list of symbols.
        let mut words: Vec<(Vec<String>, usize)> = {
            let mut counts: HashMap<Vec<String>, usize> = HashMap::new();
            for text in corpus {
                for word in text.split_whitespace() {
                    let symbols: Vec<String> = word.chars().map(|c| c.to_string()).collect();
                    *counts.entry(symbols).or_insert(0) += 1;
                }
            }
            counts.into_iter().collect()
        };

        let mut vocab: Vec<String> = {
            let mut chars: Vec<String> = words
                .iter()
                .flat_map(|(w, _)| w.iter().cloned())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            let mut v = vec![
                PAD_TOKEN.to_string(),
                CLS_TOKEN.to_string(),
                UNK_TOKEN.to_string(),
            ];
            v.append(&mut chars);
            v
        };

        let mut merges = Vec::new();
        while vocab.len() < vocab_size {
            // Count adjacent pairs.
            let mut pair_counts: HashMap<(String, String), usize> = HashMap::new();
            for (word, count) in &words {
                for pair in word.windows(2) {
                    *pair_counts
                        .entry((pair[0].clone(), pair[1].clone()))
                        .or_insert(0) += count;
                }
            }
            let Some((best_pair, best_count)) = pair_counts
                .into_iter()
                .max_by_key(|((a, b), c)| (*c, std::cmp::Reverse((a.clone(), b.clone()))))
            else {
                break;
            };
            if best_count < 2 {
                break;
            }
            let merged = format!("{}{}", best_pair.0, best_pair.1);
            vocab.push(merged.clone());
            merges.push(best_pair.clone());
            // Apply the merge to every word.
            for (word, _) in &mut words {
                let mut i = 0;
                while i + 1 < word.len() {
                    if word[i] == best_pair.0 && word[i + 1] == best_pair.1 {
                        word[i] = merged.clone();
                        word.remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
            }
        }
        BpeTokenizer { merges, vocab }
    }

    /// Number of tokens in the learned vocabulary.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// Tokenizes a text by splitting on whitespace and greedily applying the
    /// learned merges within each word.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for word in text.split_whitespace() {
            let mut symbols: Vec<String> = word.chars().map(|c| c.to_string()).collect();
            for (a, b) in &self.merges {
                let mut i = 0;
                while i + 1 < symbols.len() {
                    if &symbols[i] == a && &symbols[i + 1] == b {
                        symbols[i] = format!("{a}{b}");
                        symbols.remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
            }
            out.append(&mut symbols);
        }
        out
    }

    /// Tokenizes the textual form of an IR expression.
    pub fn tokenize_expr(&self, expr: &Expr) -> Vec<String> {
        self.tokenize(&expr.to_string())
    }

    /// Builds the vocabulary mapping for the learned tokens.
    pub fn vocabulary(&self) -> Vocabulary {
        Vocabulary::from_tokens(self.vocab.iter().cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn ici_is_invariant_under_alpha_renaming() {
        let a = parse("(+ x (+ y z))").unwrap();
        let b = parse("(+ a (+ b c))").unwrap();
        assert_eq!(ici_tokens(&a), ici_tokens(&b));
        assert_eq!(canonical_form(&a), canonical_form(&b));
    }

    #[test]
    fn ici_distinguishes_structure() {
        let a = parse("(+ x (+ y z))").unwrap();
        let b = parse("(+ (+ x y) z)").unwrap();
        assert_ne!(canonical_form(&a), canonical_form(&b));
    }

    #[test]
    fn ici_tracks_repeated_variables() {
        let a = parse("(* x x)").unwrap();
        let b = parse("(* x y)").unwrap();
        assert_ne!(canonical_form(&a), canonical_form(&b));
        assert_eq!(canonical_form(&a), "( * v0 v0 )");
    }

    #[test]
    fn zero_and_one_are_kept_literal_but_other_constants_are_abstracted() {
        let a = parse("(+ (* x 7) (* y 7))").unwrap();
        let b = parse("(+ (* x 13) (* y 13))").unwrap();
        assert_eq!(canonical_form(&a), canonical_form(&b), "same reuse pattern");
        let c = parse("(+ (* x 7) (* y 13))").unwrap();
        assert_ne!(
            canonical_form(&a),
            canonical_form(&c),
            "different reuse pattern"
        );
        let with_one = parse("(* x 1)").unwrap();
        assert!(canonical_form(&with_one).contains(" 1 "));
    }

    #[test]
    fn plaintext_variables_keep_their_marker() {
        let e = parse("(* (pt w) x)").unwrap();
        assert_eq!(canonical_form(&e), "( * pt v0 v1 )");
    }

    #[test]
    fn rotations_record_direction_and_magnitude() {
        let left = parse("(<< (Vec a b) 2)").unwrap();
        let right = parse("(>> (Vec a b) 2)").unwrap();
        assert_ne!(canonical_form(&left), canonical_form(&right));
        assert!(canonical_form(&left).contains("rot2"));
    }

    #[test]
    fn vocabulary_encodes_with_cls_and_padding() {
        let vocab = Vocabulary::ici();
        let e = parse("(+ a b)").unwrap();
        let ids = vocab.encode_expr(&e, 12);
        assert_eq!(ids.len(), 12);
        assert_eq!(ids[0], vocab.cls_id());
        assert_eq!(*ids.last().unwrap(), vocab.pad_id());
        // Round-trip through token strings for the non-pad prefix.
        assert_eq!(vocab.token(ids[1]), "(");
        assert_eq!(vocab.token(ids[2]), "+");
        assert_eq!(vocab.token(ids[3]), "v0");
    }

    #[test]
    fn vocabulary_truncates_long_sequences() {
        let vocab = Vocabulary::ici();
        let e = parse("(+ (+ (+ a b) (+ c d)) (+ (+ e f) (+ g h)))").unwrap();
        let ids = vocab.encode_expr(&e, 5);
        assert_eq!(ids.len(), 5);
    }

    #[test]
    fn unknown_tokens_map_to_unk() {
        let vocab = Vocabulary::ici();
        let id = vocab.id("definitely-not-a-token");
        assert_eq!(vocab.token(id), UNK_TOKEN);
    }

    #[test]
    fn large_rotation_steps_bucket_to_powers_of_two() {
        let vocab = Vocabulary::ici();
        let ids = vocab.encode(&["rot1000".to_string()], 3);
        assert_eq!(vocab.token(ids[1]), "rot1024");
        let program = parse("(>> (<< (<< (Vec a b) 1000) 5000) 0)").unwrap();
        let spelled: Vec<&str> = (vocab.encode_expr(&program, 32).into_iter())
            .map(|id| vocab.token(id))
            .filter(|t| t.starts_with("rot"))
            .collect();
        assert_eq!(spelled, ["rot1024", "rot4096", "rot1"]);
    }

    #[test]
    fn an_encoding_has_exactly_the_asked_length() {
        let vocab = Vocabulary::ici();
        let e = parse("(+ a b)").unwrap();
        let mut graph = TermGraph::new();
        let root = graph.intern_expr(&e);
        for max_len in [0, 1, 2, 5, 6, 9] {
            let ids = vocab.encode(&ici_tokens(&e), max_len);
            assert_eq!(ids.len(), max_len);
            assert_eq!(vocab.encode_expr(&e, max_len), ids);
            assert_eq!(vocab.encode_graph(&graph, root, max_len), ids);
        }
        assert_eq!(vocab.encode(&ici_tokens(&e), 1), [vocab.cls_id()]);
    }

    #[test]
    fn the_id_walk_names_what_the_spelled_tokens_name() {
        // A vocabulary with tokens the ICI one lacks: a rotation step that is
        // not a bucket, and a variable past the reserved ones.
        let custom = Vocabulary::from_tokens(
            [
                "<pad>", "<cls>", "<unk>", "(", "<<", "rot3", "rot4", "v0", "v100",
            ]
            .map(String::from),
        );
        let vars: Vec<String> = (0..101).map(|i| format!("x{i}")).collect();
        let program = parse(&format!(
            "(+ (<< (Vec a b) 3) (+ (<< (Vec c 7) 4) (- (* 5 (pt w)) {})))",
            vars.iter()
                .fold("0".to_string(), |sum, v| format!("(+ {sum} {v})"))
        ))
        .unwrap();
        let mut graph = TermGraph::new();
        let root = graph.intern_expr(&program);
        for vocab in [Vocabulary::ici(), custom] {
            for max_len in [4, 40, 400] {
                let spelled = vocab.encode(&ici_tokens(&program), max_len);
                assert_eq!(vocab.encode_expr(&program, max_len), spelled);
                assert_eq!(vocab.encode_graph(&graph, root, max_len), spelled);
            }
        }
    }

    #[test]
    fn bpe_learns_frequent_pairs() {
        let corpus: Vec<String> = (0..20).map(|i| format!("(VecAdd x{i} y{i})")).collect();
        let bpe = BpeTokenizer::train(&corpus, 64);
        assert!(bpe.vocab_size() > 3);
        assert!(!bpe.merges.is_empty());
        let tokens = bpe.tokenize("(VecAdd x1 y1)");
        // The common substring "VecAdd" should compress into fewer tokens than characters.
        assert!(tokens.len() < "(VecAdd x1 y1)".replace(' ', "").len());
    }

    #[test]
    fn bpe_tokenization_is_slower_growing_than_ici() {
        // Sanity check used by the Figure 10 ablation: BPE produces at least
        // as many tokens per program as ICI for structurally small programs.
        let e = parse("(VecMul (Vec a b c d) (Vec e f g h))").unwrap();
        let corpus = vec![e.to_string()];
        let bpe = BpeTokenizer::train(&corpus, 16);
        assert!(bpe.tokenize_expr(&e).len() >= ici_tokens(&e).len());
    }
}
