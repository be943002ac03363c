//! The [`Benchmark`] type: a named, sized kernel expressed as unvectorized
//! (scalar) CHEHAB IR, plus a canonical input assignment used by correctness
//! checks.

use chehab_ir::{Env, Expr, Ty};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which benchmark suite a kernel belongs to (Section 7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Kernels used to evaluate Porcupine: image filters and ML building blocks.
    Porcupine,
    /// Kernels used to evaluate Coyote: matrix multiplication, sorting, max.
    Coyote,
    /// Randomly generated irregular polynomials (`tree-X-Y-Z`).
    RandomTree,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::Porcupine => write!(f, "Porcupine"),
            Suite::Coyote => write!(f, "Coyote"),
            Suite::RandomTree => write!(f, "RandomTree"),
        }
    }
}

/// A single benchmark instance: an unvectorized program plus metadata.
#[derive(Debug, Clone)]
pub struct Benchmark {
    name: String,
    size_label: String,
    suite: Suite,
    program: Expr,
}

impl Benchmark {
    /// Creates a benchmark from its parts.
    ///
    /// # Panics
    ///
    /// Panics if the program does not type-check (benchmarks are embedded in
    /// the crate, so this indicates a programming error).
    pub fn new(name: &str, size_label: &str, suite: Suite, program: Expr) -> Self {
        assert!(
            program.is_well_typed(),
            "benchmark {name} {size_label} is ill-typed"
        );
        Benchmark {
            name: name.to_string(),
            size_label: size_label.to_string(),
            suite,
            program,
        }
    }

    /// The kernel's name (e.g. `"Dot Product"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full identifier as it appears in the paper's figures
    /// (e.g. `"Dot Product 32"`).
    pub fn id(&self) -> String {
        format!("{} {}", self.name, self.size_label)
    }

    /// The suite the kernel belongs to.
    pub fn suite(&self) -> Suite {
        self.suite
    }

    /// The unvectorized program.
    pub fn program(&self) -> &Expr {
        &self.program
    }

    /// Number of live output slots of the program (1 for scalar kernels).
    pub fn output_slots(&self) -> usize {
        self.program.ty().map(Ty::slots).unwrap_or(1)
    }

    /// Builds a deterministic input assignment for correctness checks:
    /// every input variable is bound to a small pseudo-random value derived
    /// from `seed`.
    pub fn input_env(&self, seed: u64) -> Env {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut env = Env::new();
        env.bind_all(&self.program, |_| rng.gen_range(0..=16));
        env
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chehab_ir::evaluate;

    #[test]
    fn id_combines_name_and_size() {
        let b = Benchmark::new(
            "Dot Product",
            "4",
            Suite::Porcupine,
            chehab_ir::parse("(+ a b)").unwrap(),
        );
        assert_eq!(b.id(), "Dot Product 4");
        assert_eq!(b.suite(), Suite::Porcupine);
        assert_eq!(b.output_slots(), 1);
    }

    #[test]
    fn input_env_binds_every_variable() {
        let program = chehab_ir::parse("(Vec (+ x0 y0) (+ x1 y1))").unwrap();
        let b = Benchmark::new("Test", "2", Suite::Coyote, program);
        let env = b.input_env(1);
        assert!(evaluate(b.program(), &env).is_ok());
        assert_eq!(b.output_slots(), 2);
    }

    #[test]
    fn input_env_is_deterministic_per_seed() {
        let program = chehab_ir::parse("(+ a (* b c))").unwrap();
        let b = Benchmark::new("Test", "1", Suite::Coyote, program);
        assert_eq!(b.input_env(3).get("a"), b.input_env(3).get("a"));
    }

    #[test]
    #[should_panic(expected = "ill-typed")]
    fn ill_typed_benchmarks_are_rejected() {
        let bad = Expr::vec_add(Expr::ct("a"), Expr::ct("b"));
        let _ = Benchmark::new("Bad", "1", Suite::Porcupine, bad);
    }
}
