//! Polynomial arithmetic in the negacyclic ring `Z_p[x] / (x^n + 1)`.
//!
//! This is the computational workhorse of the execution engine: ciphertext
//! payload polynomials live in this ring, and multiplications use a
//! negacyclic number-theoretic transform (NTT) so that the measured cost of
//! homomorphic operations scales the way BFV's does (`O(n log n)` for
//! transforms, `O(n)` for evaluation-domain products and additions).
//!
//! The working prime is the Goldilocks prime `p = 2^64 - 2^32 + 1`, whose
//! multiplicative group has 2-adicity 32, so power-of-two NTTs up to huge
//! sizes are available. Because `2^64 ≡ 2^32 - 1 (mod p)` and
//! `2^96 ≡ -1 (mod p)`, a 128-bit product reduces with a handful of 64-bit
//! adds/subs instead of a 128-bit division — see [`reduce128`].
//!
//! Polynomials carry an explicit [`Domain`] tag: `Coeff` (coefficient form)
//! or `Eval` (NTT / evaluation form). The evaluator keeps ciphertext payloads
//! in `Eval` form across whole operation chains, so products are pointwise
//! (`O(n)`) and forward/inverse transforms only happen at representation
//! boundaries.

use crate::rns;
use crate::simd::{self, GaloisPermutation, Goldilocks, SimdPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The Goldilocks prime `2^64 - 2^32 + 1`.
pub const MODULUS: u64 = 0xFFFF_FFFF_0000_0001;

/// `2^64 mod p = 2^32 - 1`, the constant the fast reduction multiplies by.
const EPSILON: u64 = 0xFFFF_FFFF;

/// Modular addition in `Z_p`.
#[inline]
pub fn p_add(a: u64, b: u64) -> u64 {
    let (sum, overflow) = a.overflowing_add(b);
    let mut r = sum;
    if overflow || sum >= MODULUS {
        r = sum.wrapping_sub(MODULUS);
    }
    r
}

/// Modular subtraction in `Z_p`.
#[inline]
pub fn p_sub(a: u64, b: u64) -> u64 {
    if a >= b {
        a - b
    } else {
        a.wrapping_add(MODULUS).wrapping_sub(b)
    }
}

/// Modular negation in `Z_p`.
#[inline]
pub fn p_neg(a: u64) -> u64 {
    if a == 0 {
        0
    } else {
        MODULUS - a
    }
}

/// Reduces a 128-bit value modulo the Goldilocks prime without dividing.
///
/// Write `x = x_lo + 2^64·(x_hi_lo + 2^32·x_hi_hi)` with 64/32/32-bit limbs.
/// Using `2^64 ≡ 2^32 - 1` and `2^96 ≡ -1 (mod p)`:
///
/// ```text
/// x ≡ x_lo + (2^32 - 1)·x_hi_lo - x_hi_hi   (mod p)
/// ```
///
/// Each wrap of the 64-bit intermediate is compensated by adding or
/// subtracting `2^64 mod p = 2^32 - 1`, and one final conditional subtract
/// canonicalizes (the intermediate is `< 2^64 < 2p`). Branch-light: two
/// conditional fix-ups plus the canonicalizing compare, no division.
#[inline]
pub fn reduce128(x: u128) -> u64 {
    let x_lo = x as u64;
    let x_hi = (x >> 64) as u64;
    let x_hi_hi = x_hi >> 32;
    let x_hi_lo = x_hi & EPSILON;

    let (mut t0, borrow) = x_lo.overflowing_sub(x_hi_hi);
    if borrow {
        // The wrap added 2^64 ≡ EPSILON; take it back out. `t0` is at least
        // `2^64 - x_hi_hi > EPSILON` here, so this cannot wrap again.
        t0 = t0.wrapping_sub(EPSILON);
    }
    let t1 = x_hi_lo * EPSILON;
    let (sum, carry) = t0.overflowing_add(t1);
    let mut r = sum;
    if carry {
        // The wrap removed 2^64 ≡ EPSILON; put it back. `sum` is at most
        // `2^64 - 2^33` here, so this cannot overflow.
        r = sum.wrapping_add(EPSILON);
    }
    if r >= MODULUS {
        r -= MODULUS;
    }
    r
}

/// Modular multiplication in `Z_p` via the branch-light Goldilocks reduction
/// (no 128-bit division).
#[inline]
pub fn p_mul(a: u64, b: u64) -> u64 {
    reduce128(u128::from(a) * u128::from(b))
}

/// Fused modular multiply-add `a·b + c mod p` with a single reduction.
///
/// The 128-bit accumulator cannot overflow: `(2^64-1)^2 + (2^64-1) < 2^128`.
#[inline]
pub fn p_mul_add(a: u64, b: u64, c: u64) -> u64 {
    reduce128(u128::from(a) * u128::from(b) + u128::from(c))
}

/// The representation a [`Poly`]'s stored values are in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Coefficient form: entry `i` is the coefficient of `x^i`.
    Coeff,
    /// Evaluation (NTT) form: entry `i` is the value at the `i`-th root in
    /// the transform's bit-reversed evaluation order. Ring products are
    /// pointwise in this domain.
    Eval,
}

/// Cumulative forward/inverse transform counters of one [`NttTables`]
/// instance (shared across clones).
///
/// The counters exist so tests can assert *representation laziness* — e.g.
/// that a multiply→rotate→multiply chain performs no transforms at all once
/// operands are in [`Domain::Eval`] — and cost one relaxed atomic increment
/// per whole transform, which is noise next to the transform itself.
#[derive(Debug, Default)]
struct TransformCounters {
    forward: AtomicU64,
    inverse: AtomicU64,
}

/// A snapshot of one [`NttTables`] instance's cumulative transform counts
/// ([`NttTables::transform_stats`]): telemetry for the NTT hot path,
/// exposed through the session metrics registry and usable in tests to
/// assert representation laziness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransformStats {
    /// Forward (coefficient → evaluation) transforms performed.
    pub forward: u64,
    /// Inverse (evaluation → coefficient) transforms performed.
    pub inverse: u64,
}

/// Precomputed twiddle factors for negacyclic NTTs of a fixed degree over
/// one prime: the Goldilocks prime ([`NttTables::new`]) or a generic RNS
/// limb prime (each [`crate::rns::Limb`] owns the tables of its own).
#[derive(Debug, Clone)]
pub struct NttTables {
    degree: usize,
    /// The prime the transforms reduce by.
    q: u64,
    /// Its Barrett constant [`rns::barrett_mu`] (zero for Goldilocks, which
    /// never takes the Barrett path).
    mu: u64,
    /// Powers of the 2n-th root of unity `psi`, in bit-reversed order, for
    /// the forward transform.
    psi_rev: Vec<u64>,
    /// Powers of `psi^{-1}`, bit-reversed, for the inverse transform.
    inv_psi_rev: Vec<u64>,
    /// `n^{-1} mod q`.
    inv_degree: u64,
    /// Transform counters, shared by clones of the same table set.
    counters: Arc<TransformCounters>,
    /// The SIMD lane every kernel of these tables runs on — the butterfly
    /// stages and, through [`crate::rns::Limb`], every payload kernel of
    /// the limb — fixed at construction (see [`SimdPolicy::global`]).
    policy: SimdPolicy,
}

impl NttTables {
    /// Builds Goldilocks tables for degree `n` (must be a power of two, at
    /// least 2).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two, is smaller than 2 or exceeds the
    /// 2-adicity of the field (`2^31`).
    pub fn new(degree: usize) -> Self {
        Self::with_policy(degree, SimdPolicy::global())
    }

    /// [`NttTables::new`] with an explicit SIMD policy instead of the
    /// process-wide one (tests and benches use this to run every back end in
    /// one process).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`NttTables::new`].
    pub fn with_policy(degree: usize, policy: SimdPolicy) -> Self {
        Self::for_prime(MODULUS, degree, policy)
    }

    /// Tables for the prime `q`: Goldilocks or a generic limb prime
    /// `2^60 < q < 2^61`. The root is the first primitive `2n`-th root of
    /// unity a small base yields, which on Goldilocks is `7^((p − 1) / 2n)`
    /// at every degree (2 to 6 are squares mod `p`; 7 is not).
    ///
    /// # Panics
    ///
    /// Panics if `degree` is not a power of two, is smaller than 2, or `2n`
    /// does not divide `q − 1`.
    pub(crate) fn for_prime(q: u64, degree: usize, policy: SimdPolicy) -> Self {
        assert!(
            degree.is_power_of_two() && degree >= 2,
            "degree must be a power of two >= 2"
        );
        let order = 2 * degree as u64;
        assert!(
            (q - 1).is_multiple_of(order),
            "degree exceeds the 2-adicity of q - 1"
        );
        let goldilocks = q == MODULUS;
        let mu = if goldilocks { 0 } else { rns::barrett_mu(q) };
        let mul = |a, b| {
            if goldilocks {
                p_mul(a, b)
            } else {
                rns::barrett_mul(a, b, q, mu)
            }
        };
        let psi = rns::primitive_root_2n(q, degree);
        let log_n = degree.trailing_zeros();
        let scatter = |base: u64| {
            let mut table = vec![0u64; degree];
            let mut power = 1u64;
            for i in 0..degree {
                table[i.reverse_bits() >> (usize::BITS - log_n)] = power;
                power = mul(power, base);
            }
            table
        };
        NttTables {
            degree,
            q,
            mu,
            psi_rev: scatter(psi),
            inv_psi_rev: scatter(rns::inv_mod(psi, q)),
            inv_degree: rns::inv_mod(degree as u64, q),
            counters: Arc::new(TransformCounters::default()),
            policy,
        }
    }

    /// The polynomial degree these tables serve.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The prime these tables transform under.
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// The prime's Barrett constant (zero for Goldilocks).
    pub(crate) fn mu(&self) -> u64 {
        self.mu
    }

    /// The SIMD lane this table set's kernels run on.
    pub fn policy(&self) -> SimdPolicy {
        self.policy
    }

    /// Runs `kernel` under this table set's prime on its lane — the one
    /// place a kernel learns which prime it reduces by (the ε-identity
    /// arithmetic for Goldilocks, Barrett for every other) and which lane
    /// it runs on.
    pub(crate) fn run(&self, kernel: impl simd::Kernel) {
        if self.q == MODULUS {
            simd::dispatch(kernel, Goldilocks, self.policy);
        } else {
            let (q, mu) = (self.q, self.mu);
            simd::dispatch(kernel, simd::Barrett { q, mu }, self.policy);
        }
    }

    /// Cumulative transform counts since construction (or the last
    /// [`NttTables::reset_transform_counts`]), shared across clones: the
    /// telemetry view of the NTT hot path, fed into the session metrics
    /// registry and usable for representation-laziness assertions (one
    /// relaxed atomic load per field, negligible next to a transform).
    pub fn transform_stats(&self) -> TransformStats {
        TransformStats {
            forward: self.counters.forward.load(Ordering::Relaxed),
            inverse: self.counters.inverse.load(Ordering::Relaxed),
        }
    }

    /// Resets the transform counters to zero (affects all clones).
    pub fn reset_transform_counts(&self) {
        self.counters.forward.store(0, Ordering::Relaxed);
        self.counters.inverse.store(0, Ordering::Relaxed);
    }

    /// In-place forward negacyclic NTT (Cooley–Tukey, decimation in time,
    /// producing bit-reversed output that the inverse transform consumes).
    ///
    /// On Goldilocks, butterflies use lazy (deferred) reduction:
    /// intermediate values roam the full `[0, 2^64) ⊂ [0, 2p)` lazy-residue
    /// range across stages, and the canonicalizing reduction is fused into
    /// the last butterfly stage (`t == 1`), so the "single normalization
    /// pass" is free — see the [`crate::simd`] module docs for the
    /// invariant. Under Barrett every value stays canonical. Output is
    /// always canonical. Stage `m`'s twiddles occupy the contiguous range
    /// `psi_rev[m..2m]`, so each stage dispatches as one kernel.
    pub fn forward(&self, a: &mut [u64]) {
        debug_assert_eq!(a.len(), self.degree);
        self.counters.forward.fetch_add(1, Ordering::Relaxed);
        let n = a.len();
        let mut t = n;
        let mut m = 1usize;
        while m < n {
            t /= 2;
            let stage = simd::Stage {
                a: &mut *a,
                twiddles: &self.psi_rev[m..2 * m],
                t,
                butterfly: simd::Forward {
                    canonical: 2 * m == n,
                },
            };
            self.run(stage);
            m *= 2;
        }
        debug_assert!(
            a.iter().all(|&x| x < self.q),
            "forward NTT output must be canonical after the fused normalization"
        );
    }

    /// In-place inverse negacyclic NTT (Gentleman–Sande, the mirror of
    /// [`NttTables::forward`]).
    ///
    /// Butterfly stages run lazy; the final `n^{-1}` scaling performs the
    /// single canonicalizing reduction pass, so the output is canonical.
    pub fn inverse(&self, a: &mut [u64]) {
        debug_assert_eq!(a.len(), self.degree);
        self.counters.inverse.fetch_add(1, Ordering::Relaxed);
        let mut t = 1usize;
        let mut m = a.len();
        while m > 1 {
            let h = m / 2;
            let stage = simd::Stage {
                a: &mut *a,
                twiddles: &self.inv_psi_rev[h..m],
                t,
                butterfly: simd::Inverse,
            };
            self.run(stage);
            t *= 2;
            m = h;
        }
        let k = self.inv_degree;
        self.run(simd::Scale { a, k });
        debug_assert!(
            a.iter().all(|&x| x < self.q),
            "inverse NTT output must be canonical after the scaling pass"
        );
    }
}

/// A dense polynomial of fixed degree in `Z_p[x] / (x^n + 1)`, tagged with
/// the [`Domain`] its stored values are in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    coeffs: Vec<u64>,
    domain: Domain,
}

impl Poly {
    /// Builds a coefficient-form polynomial from coefficients (reduced modulo
    /// `p`). Public entry point for arbitrary input; internal callers with
    /// already-reduced values use [`Poly::from_reduced`] and skip the pass.
    pub fn from_coeffs(coeffs: Vec<u64>) -> Self {
        Poly {
            coeffs: coeffs.into_iter().map(|c| c % MODULUS).collect(),
            domain: Domain::Coeff,
        }
    }

    /// Builds a polynomial from values already reduced modulo `p`, without
    /// the re-reduction pass of [`Poly::from_coeffs`].
    ///
    /// Debug builds assert the precondition; release builds trust it.
    pub fn from_reduced(values: Vec<u64>, domain: Domain) -> Self {
        debug_assert!(
            values.iter().all(|&c| c < MODULUS),
            "from_reduced requires canonical values"
        );
        Poly {
            coeffs: values,
            domain,
        }
    }

    /// The polynomial's stored values: coefficients in [`Domain::Coeff`],
    /// evaluation values in [`Domain::Eval`].
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// The domain the stored values are in.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The polynomial's degree bound (`n`).
    pub fn degree(&self) -> usize {
        self.coeffs.len()
    }

    /// Converts to evaluation form in place (no-op if already there).
    ///
    /// # Panics
    ///
    /// Panics unless `tables` are Goldilocks tables, as are
    /// [`Poly::convert_to_coeff`], [`Poly::to_eval`], [`Poly::to_coeff`]
    /// and [`Poly::mul_ntt`]: a `Poly` is an element of `Z_p[x] / (x^n + 1)`.
    pub fn convert_to_eval(&mut self, tables: &NttTables) {
        assert_goldilocks(tables);
        if self.domain == Domain::Coeff {
            tables.forward(&mut self.coeffs);
            self.domain = Domain::Eval;
        }
    }

    /// Converts to coefficient form in place (no-op if already there).
    pub fn convert_to_coeff(&mut self, tables: &NttTables) {
        assert_goldilocks(tables);
        if self.domain == Domain::Eval {
            tables.inverse(&mut self.coeffs);
            self.domain = Domain::Coeff;
        }
    }

    /// A copy of this polynomial in evaluation form.
    pub fn to_eval(&self, tables: &NttTables) -> Poly {
        let mut out = self.clone();
        out.convert_to_eval(tables);
        out
    }

    /// A copy of this polynomial in coefficient form.
    pub fn to_coeff(&self, tables: &NttTables) -> Poly {
        let mut out = self.clone();
        out.convert_to_coeff(tables);
        out
    }

    /// Pointwise ring product of two evaluation-form polynomials — the
    /// `O(n)` hot-path multiply the lazy representation buys.
    ///
    /// # Panics
    ///
    /// Debug builds panic unless both operands are in [`Domain::Eval`] and
    /// degrees match.
    pub fn mul_eval(&self, other: &Poly) -> Poly {
        debug_assert_eq!(self.degree(), other.degree());
        debug_assert_eq!(self.domain, Domain::Eval, "mul_eval needs Eval operands");
        debug_assert_eq!(other.domain, Domain::Eval, "mul_eval needs Eval operands");
        Poly {
            coeffs: self
                .coeffs
                .iter()
                .zip(&other.coeffs)
                .map(|(&a, &b)| p_mul(a, b))
                .collect(),
            domain: Domain::Eval,
        }
    }

    /// Negacyclic product of two coefficient-form polynomials using the
    /// supplied NTT tables (three transforms). Evaluation-form operands
    /// should use [`Poly::mul_eval`] instead, which needs none.
    ///
    /// # Panics
    ///
    /// Panics unless `tables` are Goldilocks tables; in debug builds also if
    /// the degrees of the operands and tables differ or either operand is
    /// not in coefficient form.
    pub fn mul_ntt(&self, other: &Poly, tables: &NttTables) -> Poly {
        assert_goldilocks(tables);
        debug_assert_eq!(self.degree(), tables.degree());
        debug_assert_eq!(other.degree(), tables.degree());
        debug_assert_eq!(self.domain, Domain::Coeff, "mul_ntt needs Coeff operands");
        debug_assert_eq!(other.domain, Domain::Coeff, "mul_ntt needs Coeff operands");
        let mut a = self.coeffs.clone();
        let mut b = other.coeffs.clone();
        tables.forward(&mut a);
        tables.forward(&mut b);
        for (x, y) in a.iter_mut().zip(&b) {
            *x = p_mul(*x, *y);
        }
        tables.inverse(&mut a);
        Poly {
            coeffs: a,
            domain: Domain::Coeff,
        }
    }

    /// Schoolbook negacyclic product (`O(n^2)`), used to validate the NTT.
    /// Coefficient-form operands only.
    pub fn mul_naive(&self, other: &Poly) -> Poly {
        let n = self.degree();
        debug_assert_eq!(n, other.degree());
        debug_assert_eq!(self.domain, Domain::Coeff);
        debug_assert_eq!(other.domain, Domain::Coeff);
        let mut out = vec![0u64; n];
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            for (j, &b) in other.coeffs.iter().enumerate() {
                let k = i + j;
                if k < n {
                    out[k] = p_mul_add(a, b, out[k]);
                } else {
                    out[k - n] = p_sub(out[k - n], p_mul(a, b));
                }
            }
        }
        Poly {
            coeffs: out,
            domain: Domain::Coeff,
        }
    }

    /// Applies the Galois automorphism `x -> x^galois_elt` (used by slot
    /// rotations); `galois_elt` must be odd. Coefficient-form operands only —
    /// evaluation-form polynomials use [`Poly::apply_galois_eval`], which is
    /// a pure permutation.
    pub fn apply_galois(&self, galois_elt: usize) -> Poly {
        debug_assert_eq!(self.domain, Domain::Coeff);
        let n = self.degree();
        debug_assert!(galois_elt % 2 == 1, "Galois element must be odd");
        let mut out = vec![0u64; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let raw = i * galois_elt;
            let idx = raw % n;
            // x^n = -1, so every wrap around n flips the sign.
            let wraps = (raw / n) % 2;
            if wraps == 0 {
                out[idx] = p_add(out[idx], c);
            } else {
                out[idx] = p_sub(out[idx], c);
            }
        }
        Poly {
            coeffs: out,
            domain: Domain::Coeff,
        }
    }

    /// Applies the Galois automorphism `x -> x^galois_elt` to an
    /// evaluation-form polynomial.
    ///
    /// In this domain the automorphism is a pure index permutation (see
    /// [`galois_eval_permutation`]): no ring multiplications and, crucially,
    /// no transforms. Hot-path callers that rotate repeatedly should cache
    /// the permutation and gather directly.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the operand is not in [`Domain::Eval`] or
    /// `galois_elt` is even.
    pub fn apply_galois_eval(&self, galois_elt: usize) -> Poly {
        debug_assert_eq!(self.domain, Domain::Eval);
        let perm = galois_eval_permutation(self.degree(), galois_elt);
        let mut out = vec![0u64; self.degree()];
        let gather = simd::Gather {
            src: &self.coeffs,
            perm: &perm,
            out: &mut out,
        };
        simd::dispatch(gather, Goldilocks, SimdPolicy::global());
        Poly {
            coeffs: out,
            domain: Domain::Eval,
        }
    }
}

/// Panics unless `tables` transform under the Goldilocks prime, the one
/// [`Poly`]'s arithmetic (`p_mul`) is written for.
fn assert_goldilocks(tables: &NttTables) {
    assert_eq!(
        tables.modulus(),
        MODULUS,
        "Poly arithmetic needs Goldilocks NTT tables"
    );
}

/// The index permutation realizing the Galois automorphism
/// `x -> x^galois_elt` on evaluation-form polynomials of degree `n`:
/// `out[i] = in[perm[i]]`.
///
/// The forward transform stores `A(psi^(2·br(i)+1))` at index `i` (`br` =
/// bit reversal over `log2 n` bits), and the automorphism maps the
/// evaluation at `psi^j` to the evaluation at `psi^(j·g mod 2n)` — so the
/// automorphism permutes indices, and the permutation depends only on
/// `(n, galois_elt)`, which makes it worth caching per rotation step.
///
/// The result is a [`GaloisPermutation`]: the type a gather takes, whose
/// constructor checked every index against `n`.
///
/// # Panics
///
/// Debug builds panic if `galois_elt` is even or `n` is not a power of two.
pub fn galois_eval_permutation(n: usize, galois_elt: usize) -> Box<GaloisPermutation> {
    debug_assert!(n.is_power_of_two());
    debug_assert!(galois_elt % 2 == 1, "Galois element must be odd");
    let log_n = n.trailing_zeros();
    let br = |i: usize| -> usize { ((i as u32).reverse_bits() >> (32 - log_n)) as usize };
    let indices = (0..n).map(|i| {
        // The value output slot `i` must hold is A(psi^(j·g)) where
        // j = 2·br(i)+1; the input stores it at the index whose odd
        // exponent is j·g mod 2n.
        let j = 2 * br(i) + 1;
        let jg = (j * galois_elt) % (2 * n);
        br((jg - 1) / 2) as u32
    });
    GaloisPermutation::new(indices.collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random canonical field elements.
    fn random_values(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                // xorshift*; bias from the modulus reduction is irrelevant here.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D) % MODULUS
            })
            .collect()
    }

    #[test]
    fn modular_arithmetic_basics() {
        assert_eq!(p_add(MODULUS - 1, 1), 0);
        assert_eq!(p_sub(0, 1), MODULUS - 1);
        assert_eq!(p_neg(0), 0);
        assert_eq!(p_mul(MODULUS - 1, MODULUS - 1), 1);
        assert_eq!(p_mul(rns::inv_mod(12345, MODULUS), 12345), 1);
    }

    #[test]
    fn fast_reduction_matches_division() {
        // Boundary products plus pseudo-random pairs: the fast path must
        // agree with the 128-bit `%` it replaced on every limb pattern.
        let specials = [
            0u64,
            1,
            2,
            EPSILON - 1,
            EPSILON,
            EPSILON + 1,
            1 << 32,
            (1 << 32) + 1,
            MODULUS - 2,
            MODULUS - 1,
            u64::MAX, // non-canonical input still reduces correctly
        ];
        for &a in &specials {
            for &b in &specials {
                let expected = ((u128::from(a) * u128::from(b)) % u128::from(MODULUS)) as u64;
                assert_eq!(p_mul(a, b), expected, "a={a:#x} b={b:#x}");
            }
        }
        let values = random_values(512, 0xDEC0DE);
        for pair in values.chunks(2) {
            let (a, b) = (pair[0], pair[1]);
            let expected = ((u128::from(a) * u128::from(b)) % u128::from(MODULUS)) as u64;
            assert_eq!(p_mul(a, b), expected, "a={a:#x} b={b:#x}");
            let c = a ^ b;
            let expected_fused = ((u128::from(a) * u128::from(b) + u128::from(c % MODULUS))
                % u128::from(MODULUS)) as u64;
            assert_eq!(p_mul_add(a, b, c % MODULUS), expected_fused);
        }
    }

    /// The Goldilocks root is `7^((p − 1) / 2n)` at every degree the
    /// field's 2-adicity allows: the Eval values depend on it.
    #[test]
    fn the_goldilocks_root_is_a_power_of_seven() {
        for log_n in 1..=31 {
            let degree = 1usize << log_n;
            let root = rns::pow_mod(7, (MODULUS - 1) >> (log_n + 1), MODULUS);
            assert_eq!(
                rns::primitive_root_2n(MODULUS, degree),
                root,
                "n = 2^{log_n}"
            );
        }
    }

    #[test]
    fn ntt_round_trips() {
        let tables = NttTables::new(64);
        let original: Vec<u64> = (0..64u64).map(|i| i * i + 7).collect();
        let mut a = original.clone();
        tables.forward(&mut a);
        tables.inverse(&mut a);
        assert_eq!(a, original);
    }

    #[test]
    fn transform_counters_count_whole_transforms() {
        let tables = NttTables::new(16);
        let counts = |forward, inverse| TransformStats { forward, inverse };
        assert_eq!(tables.transform_stats(), counts(0, 0));
        let mut a = vec![1u64; 16];
        tables.forward(&mut a);
        tables.inverse(&mut a);
        assert_eq!(tables.transform_stats(), counts(1, 1));
        // Clones share the counters.
        let clone = tables.clone();
        clone.inverse(&mut a);
        assert_eq!(tables.transform_stats(), counts(1, 2));
        tables.reset_transform_counts();
        assert_eq!(clone.transform_stats(), counts(0, 0));
    }

    #[test]
    fn ntt_multiplication_matches_schoolbook() {
        let tables = NttTables::new(32);
        let a = Poly::from_coeffs(
            (0..32u64)
                .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15))
                .collect(),
        );
        let b = Poly::from_coeffs(
            (0..32u64)
                .map(|i| (i + 3).wrapping_mul(0xD1B54A32D192ED03))
                .collect(),
        );
        assert_eq!(a.mul_ntt(&b, &tables), a.mul_naive(&b));
    }

    #[test]
    fn eval_domain_product_matches_coefficient_product() {
        let tables = NttTables::new(64);
        let a = Poly::from_coeffs(random_values(64, 3));
        let b = Poly::from_coeffs(random_values(64, 5));
        let expected = a.mul_ntt(&b, &tables);
        let lazy = a.to_eval(&tables).mul_eval(&b.to_eval(&tables));
        assert_eq!(lazy.domain(), Domain::Eval);
        assert_eq!(lazy.to_coeff(&tables), expected);
    }

    #[test]
    fn eval_domain_galois_matches_coefficient_galois() {
        let tables = NttTables::new(32);
        let a = Poly::from_coeffs(random_values(32, 0xA5));
        for galois_elt in [1usize, 3, 5, 7, 9, 31, 63] {
            let expected = a.apply_galois(galois_elt);
            let lazy = a.to_eval(&tables).apply_galois_eval(galois_elt);
            assert_eq!(
                lazy.to_coeff(&tables),
                expected,
                "galois element {galois_elt}"
            );
        }
    }

    #[test]
    fn from_reduced_skips_re_reduction_and_agrees_with_from_coeffs() {
        let values = random_values(16, 9);
        assert_eq!(
            Poly::from_reduced(values.clone(), Domain::Coeff),
            Poly::from_coeffs(values)
        );
    }

    #[test]
    fn negacyclic_wraparound_is_negative() {
        // (x^(n-1)) * x = x^n = -1 in the negacyclic ring.
        let n = 16;
        let tables = NttTables::new(n);
        let mut xs = vec![0u64; n];
        xs[n - 1] = 1;
        let x_pow_n_minus_1 = Poly::from_coeffs(xs);
        let mut xs = vec![0u64; n];
        xs[1] = 1;
        let x = Poly::from_coeffs(xs);
        let prod = x_pow_n_minus_1.mul_ntt(&x, &tables);
        let mut expected = vec![0u64; n];
        expected[0] = MODULUS - 1;
        assert_eq!(prod.coeffs(), &expected[..]);
    }

    #[test]
    fn galois_automorphism_is_a_signed_permutation() {
        let n = 8;
        let a = Poly::from_coeffs((1..=n as u64).collect());
        let g = a.apply_galois(3);
        // Every original coefficient magnitude appears exactly once (up to sign).
        let mut seen = vec![false; n + 1];
        for &c in g.coeffs() {
            let magnitude = if c > MODULUS / 2 {
                (MODULUS - c) as usize
            } else {
                c as usize
            };
            assert!(magnitude >= 1 && magnitude <= n);
            assert!(!seen[magnitude], "coefficient duplicated by automorphism");
            seen[magnitude] = true;
        }
    }

    /// Every transforming method refuses a generic limb's tables: their
    /// prime is not the one `Poly`'s arithmetic reduces by.
    #[test]
    #[should_panic(expected = "Goldilocks NTT tables")]
    fn poly_transforms_reject_a_generic_limbs_tables() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let chain = crate::rns::ModulusChain::new(2, 16);
        let generic = chain.limb(1).tables();
        let coeff = Poly::from_coeffs(random_values(16, 0x7A));
        let eval = coeff.to_eval(&NttTables::new(16));
        let rejected = |call: &dyn Fn()| catch_unwind(AssertUnwindSafe(call)).is_err();
        assert!(rejected(&|| drop(eval.to_coeff(generic))));
        assert!(rejected(&|| eval.clone().convert_to_coeff(generic)));
        assert!(rejected(&|| drop(coeff.mul_ntt(&coeff, generic))));
        assert!(rejected(&|| coeff.clone().convert_to_eval(generic)));
        let _ = coeff.to_eval(generic);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn tables_reject_non_power_of_two_degree() {
        let _ = NttTables::new(48);
    }
}
