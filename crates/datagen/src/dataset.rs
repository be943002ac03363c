//! Dataset assembly: validity filtering, ICI-canonical deduplication,
//! benchmark exclusion, persistence, and train/validation splits
//! (the post-processing pipeline of Section 6).

use crate::llm_like::LlmLikeSynthesizer;
use crate::random::RandomGenerator;
use chehab_ir::{canonical_form, parse, Expr};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Which generator produced a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataSource {
    /// The LLM-style structured synthesizer (Section 6).
    LlmLike,
    /// The uniform random generator (Appendix H.2).
    Random,
}

/// A deduplicated training dataset of IR expressions.
#[derive(Debug, Clone)]
pub struct Dataset {
    exprs: Vec<Expr>,
    canonical: HashSet<String>,
    source: DataSource,
}

impl Dataset {
    /// Creates an empty dataset labelled with its source.
    pub fn new(source: DataSource) -> Self {
        Dataset {
            exprs: Vec::new(),
            canonical: HashSet::new(),
            source,
        }
    }

    /// The generator that produced this dataset.
    pub fn source(&self) -> DataSource {
        self.source
    }

    /// The expressions in the dataset.
    pub fn exprs(&self) -> &[Expr] {
        &self.exprs
    }

    /// Number of (unique) expressions.
    pub fn len(&self) -> usize {
        self.exprs.len()
    }

    /// Returns `true` if the dataset holds no expressions.
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty()
    }

    /// Adds an expression if it is well-typed and its ICI canonical form is
    /// new; returns whether it was added.
    pub fn insert(&mut self, expr: Expr) -> bool {
        if !expr.is_well_typed() {
            return false;
        }
        let canon = canonical_form(&expr);
        if self.canonical.contains(&canon) {
            return false;
        }
        self.canonical.insert(canon);
        self.exprs.push(expr);
        true
    }

    /// Writes the dataset to a text file, one s-expression per line (the
    /// format the paper's released dataset uses).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the filesystem.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        for e in &self.exprs {
            writeln!(file, "{e}")?;
        }
        Ok(())
    }

    /// Loads a dataset from a text file written by [`Dataset::save`]
    /// (unparseable lines are skipped, mirroring the paper's validity filter).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the filesystem.
    pub fn load(path: impl AsRef<Path>, source: DataSource) -> std::io::Result<Self> {
        let file = std::fs::File::open(path)?;
        let mut dataset = Dataset::new(source);
        for line in BufReader::new(file).lines() {
            let line = line?;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            if let Ok(expr) = parse(trimmed) {
                dataset.insert(expr);
            }
        }
        Ok(dataset)
    }
}

/// Generates an LLM-style dataset of `target` unique expressions.
pub fn generate_llm_like_dataset(target: usize, seed: u64) -> Dataset {
    let mut synth = LlmLikeSynthesizer::with_seed(seed);
    let mut dataset = Dataset::new(DataSource::LlmLike);
    let mut attempts = 0usize;
    while dataset.len() < target && attempts < target * 40 {
        dataset.insert(synth.generate());
        attempts += 1;
    }
    dataset
}

/// Generates a uniform-random dataset of `target` unique expressions.
pub fn generate_random_dataset(target: usize, seed: u64) -> Dataset {
    let mut generator = RandomGenerator::with_seed(seed);
    let mut dataset = Dataset::new(DataSource::Random);
    let mut attempts = 0usize;
    while dataset.len() < target && attempts < target * 40 {
        dataset.insert(generator.generate());
        attempts += 1;
    }
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_rejected_by_canonical_form() {
        let mut dataset = Dataset::new(DataSource::LlmLike);
        assert!(dataset.insert(parse("(+ a (* b c))").unwrap()));
        // Alpha-renamed variant of the same program.
        assert!(!dataset.insert(parse("(+ x (* y z))").unwrap()));
        assert_eq!(dataset.len(), 1);
    }

    #[test]
    fn ill_typed_programs_are_rejected() {
        let mut dataset = Dataset::new(DataSource::Random);
        let bad = Expr::vec_add(Expr::ct("a"), Expr::ct("b"));
        assert!(!dataset.insert(bad));
        assert!(dataset.is_empty());
    }

    #[test]
    fn alpha_equivalent_programs_are_inserted_once() {
        let mut dataset = Dataset::new(DataSource::LlmLike);
        assert!(dataset.insert(parse("(+ (* a b) (* c d))").unwrap()));
        assert!(dataset.insert(parse("(Vec (+ a b) (+ c d))").unwrap()));
        let renamed = parse("(+ (* x y) (* z w))").unwrap(); // alpha-equivalent to the first
        assert!(!dataset.insert(renamed));
        assert_eq!(dataset.len(), 2);
    }

    #[test]
    fn generators_reach_their_target_counts() {
        let llm = generate_llm_like_dataset(200, 1);
        assert!(
            llm.len() >= 190,
            "llm-like generator produced only {}",
            llm.len()
        );
        assert_eq!(llm.source(), DataSource::LlmLike);
        let random = generate_random_dataset(200, 1);
        assert!(random.len() >= 190);
        assert_eq!(random.source(), DataSource::Random);
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("chehab_datagen_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dataset.txt");
        let dataset = generate_llm_like_dataset(50, 3);
        dataset.save(&path).unwrap();
        let loaded = Dataset::load(&path, DataSource::LlmLike).unwrap();
        assert_eq!(loaded.len(), dataset.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_skips_invalid_lines() {
        let dir = std::env::temp_dir().join("chehab_datagen_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("invalid_lines.txt");
        std::fs::write(&path, "(+ a b)\nthis is not an expression\n(* c d)\n").unwrap();
        let loaded = Dataset::load(&path, DataSource::Random).unwrap();
        assert_eq!(loaded.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
