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
//!   deduplication.
//! * **BPE** (byte-pair encoding): the classical learned subword tokenizer the
//!   paper compares against in the tokenization ablation (Figure 10).

use crate::expr::{BinOp, Expr};
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
    let mut vars: HashMap<String, usize> = HashMap::new();
    let mut consts: HashMap<i64, usize> = HashMap::new();
    let mut out = Vec::with_capacity(expr.node_count() * 2);
    ici_walk(expr, &mut vars, &mut consts, &mut out);
    out
}

fn ici_walk(
    expr: &Expr,
    vars: &mut HashMap<String, usize>,
    consts: &mut HashMap<i64, usize>,
    out: &mut Vec<String>,
) {
    match expr {
        Expr::CtVar(s) | Expr::PtVar(s) => {
            let next = vars.len();
            let idx = *vars.entry(s.as_str().to_string()).or_insert(next);
            if matches!(expr, Expr::PtVar(_)) {
                out.push("pt".into());
            }
            out.push(format!("v{idx}"));
        }
        Expr::Const(v) => {
            if *v == 0 || *v == 1 {
                out.push(v.to_string());
            } else {
                let next = consts.len();
                let idx = *consts.entry(*v).or_insert(next);
                out.push(format!("c{idx}"));
            }
        }
        Expr::Bin(op, a, b) => {
            out.push("(".into());
            out.push(op.token().into());
            ici_walk(a, vars, consts, out);
            ici_walk(b, vars, consts, out);
            out.push(")".into());
        }
        Expr::Neg(a) => {
            out.push("(".into());
            out.push("-".into());
            ici_walk(a, vars, consts, out);
            out.push(")".into());
        }
        Expr::Vec(elems) => {
            out.push("(".into());
            out.push("Vec".into());
            for e in elems {
                ici_walk(e, vars, consts, out);
            }
            out.push(")".into());
        }
        Expr::VecBin(op, a, b) => {
            out.push("(".into());
            out.push(op.vector_token().into());
            ici_walk(a, vars, consts, out);
            ici_walk(b, vars, consts, out);
            out.push(")".into());
        }
        Expr::VecNeg(a) => {
            out.push("(".into());
            out.push("VecNeg".into());
            ici_walk(a, vars, consts, out);
            out.push(")".into());
        }
        Expr::Rot(a, s) => {
            out.push("(".into());
            out.push(if *s >= 0 { "<<" } else { ">>" }.into());
            ici_walk(a, vars, consts, out);
            out.push(format!("rot{}", s.unsigned_abs()));
            out.push(")".into());
        }
    }
}

/// The ICI canonical form of an expression: the token sequence joined with
/// spaces. Alpha-equivalent programs share the same canonical form, which the
/// dataset pipeline uses for deduplication and benchmark exclusion.
pub fn canonical_form(expr: &Expr) -> String {
    ici_tokens(expr).join(" ")
}

/// A fixed mapping from token strings to integer ids for the embedding layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vocabulary {
    token_to_id: HashMap<String, usize>,
    id_to_token: Vec<String>,
}

impl Vocabulary {
    /// Builds the ICI vocabulary: special tokens, structural tokens,
    /// operators, rotation steps (bucketed), `v0..`, and `c0..`.
    pub fn ici() -> Self {
        let mut tokens: Vec<String> = vec![
            PAD_TOKEN.into(),
            CLS_TOKEN.into(),
            UNK_TOKEN.into(),
            "(".into(),
            ")".into(),
        ];
        for op in BinOp::ALL {
            tokens.push(op.token().into());
            tokens.push(op.vector_token().into());
        }
        for t in ["Vec", "VecNeg", "<<", ">>", "pt", "0", "1"] {
            tokens.push(t.into());
        }
        // Rotation step magnitudes are bucketed by powers of two up to 4096.
        let mut step = 1usize;
        while step <= 4096 {
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
        Vocabulary {
            token_to_id,
            id_to_token,
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

    /// Encodes a token sequence into ids, prepending `CLS` and truncating or
    /// padding to `max_len`.
    pub fn encode(&self, tokens: &[String], max_len: usize) -> Vec<usize> {
        let mut ids = Vec::with_capacity(max_len);
        ids.push(self.cls_id());
        for t in tokens {
            if ids.len() >= max_len {
                break;
            }
            // Large rotation magnitudes map to their power-of-two bucket.
            if let Some(rest) = t.strip_prefix("rot") {
                if !self.token_to_id.contains_key(t.as_str()) {
                    if let Ok(step) = rest.parse::<u64>() {
                        let bucket = step.next_power_of_two().min(4096);
                        ids.push(self.id(&format!("rot{bucket}")));
                        continue;
                    }
                }
            }
            ids.push(self.id(t));
        }
        while ids.len() < max_len {
            ids.push(self.pad_id());
        }
        ids
    }

    /// Encodes an expression directly (ICI tokens, `CLS` prefix, padding).
    pub fn encode_expr(&self, expr: &Expr, max_len: usize) -> Vec<usize> {
        self.encode(&ici_tokens(expr), max_len)
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
