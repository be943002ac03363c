//! Residue-number-system (RNS) multi-limb coefficient arithmetic.
//!
//! The single Goldilocks modulus caps coefficient precision at 64 bits. An
//! RNS representation over `k` word-sized primes `q_0 · q_1 ⋯ q_{k-1}`
//! multiplies the representable coefficient range — and the arithmetic
//! intensity per byte of payload moved — by `k`, at the price of carrying
//! `k` *limb stripes* per ring element and running every pointwise kernel
//! once per limb.
//!
//! # The chain
//!
//! [`ModulusChain`] pins **limb 0 to the Goldilocks prime** `p = 2^64 -
//! 2^32 + 1`: that limb keeps running the existing ε-identity
//! lazy-reduction kernels and vector NTT verbatim, which is what makes the
//! `k = 1` configuration *bit-identical* to the single-modulus engine (the
//! limb walk degenerates to exactly the old code path). Limbs `1..k` use
//! NTT-friendly primes `q ≡ 1 (mod 2n)` found by deterministic
//! Miller–Rabin, descending from just below `2^61`; every generic prime
//! satisfies `2^60 < q < 2^61`, the window in which the Barrett reduction
//! below is valid.
//!
//! # Per-prime reduction strategies
//!
//! Goldilocks sits above `2^63`, so the Shoup/Barrett tricks of classical
//! RNS libraries do not apply to it — it gets the ε-identity arithmetic of
//! [`crate::simd`]. The generic limbs get **Barrett products**
//! ([`barrett_mul`]): one precomputed `mu = ⌊2^124 / q⌋` per limb turns
//! every modular multiply into two wide multiplies plus two conditional
//! subtracts (estimate error is provably `< 3q`); [`crate::simd`] holds its
//! four- and eight-wide forms.
//!
//! Every limb owns one [`NttTables`] over its prime, and every limb's
//! transform is the same `simd::Stage` / `Scale` kernels under that
//! prime's modulus: lazy on Goldilocks, canonical throughout under
//! Barrett. `NttTables::run` is the one place that choice is made, for
//! the transforms and for every payload kernel a limb runs alike — and the
//! one place the lane is read: the chain's tables hold it, so every kernel
//! on a chain's stripes runs on the lane the chain was built with.
//!
//! # CRT lift and reconstruction
//!
//! Encryption *lifts* a base coefficient `x` into the chain (`x mod q_i`
//! per limb); decryption *reconstructs* the multiword integer with
//! Garner's mixed-radix algorithm ([`ModulusChain::crt_reconstruct`]),
//! using only per-limb precomputed inverses with their Shoup companions —
//! no division at all, big-integer or word.
//! [`ModulusChain::crt_checksum`] folds a full reconstruction pass over a
//! component's limbs into one word, which the decryptor feeds through
//! `black_box` so the simulation pays the real CRT cost.

use crate::poly::{NttTables, MODULUS};
use crate::simd::{self, p_canonical, SimdPolicy};
use rand::Rng;
use std::hint::select_unpredictable;

/// Number of bits below which the Barrett scheme of this module is
/// invalid: generic limb primes must exceed `2^60` so that
/// `mu = ⌊2^124 / q⌋` fits a word (and the error bound holds).
const GENERIC_LIMB_MIN_BITS: u32 = 60;

/// Upper bound (exclusive) for generic limb primes: below `2^61` the
/// quotient estimate of [`barrett_mul`] is off by at most two.
const GENERIC_LIMB_MAX: u64 = 1 << 61;

// ---------------------------------------------------------------------------
// Scalar modular arithmetic for generic (< 2^61) limb primes
// ---------------------------------------------------------------------------

/// `(a + b) mod q` for canonical `a, b < q < 2^63`.
///
/// On canonical residues the compare is a coin flip, so the fix-up is a
/// conditional move, not a branch (as are [`sub_mod`]'s and the lazy
/// primitives of [`crate::simd`]).
#[inline]
pub fn add_mod(a: u64, b: u64, q: u64) -> u64 {
    let s = a + b;
    select_unpredictable(s >= q, s.wrapping_sub(q), s)
}

/// `(a - b) mod q` for canonical `a, b < q` — any word-sized `q`, the
/// Goldilocks prime included (where `a < b` the difference wraps, and adding
/// `q` wraps it back to the exact result).
#[inline]
pub fn sub_mod(a: u64, b: u64, q: u64) -> u64 {
    let difference = a.wrapping_sub(b);
    select_unpredictable(a < b, difference.wrapping_add(q), difference)
}

/// `-a mod q` for canonical `a < q` (any word-sized `q`).
#[inline]
pub fn neg_mod(a: u64, q: u64) -> u64 {
    if a == 0 {
        0
    } else {
        q - a
    }
}

/// The plaintext-modulus reducer every slot pass of the functional facet
/// runs on: canonical [`add_mod`] / [`sub_mod`] / [`neg_mod`] plus a
/// single-word Barrett product, so no per-slot loop divides by a runtime
/// modulus. Built once per [`FheContext`](crate::FheContext)
/// ([`FheContext::plain`](crate::FheContext::plain)) — the Barrett
/// constant must be a field, because LLVM does not hoist `u64::MAX / t`
/// out of a slot loop.
///
/// Covers `2 <= t < 2^32` (a product of two residues then fits a word);
/// [`BfvParameters::validate`](crate::BfvParameters::validate) rejects
/// larger plaintext moduli. Operands must be canonical (`< t`), which
/// every slot vector in this crate is from encoding onwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlainModulus {
    t: u64,
    /// `⌊(2^64 - 1) / t⌋`.
    ratio: u64,
}

impl PlainModulus {
    /// Exclusive upper bound of the plaintext moduli the reducer covers.
    pub const MAX: u64 = 1 << 32;

    /// Builds the reducer for plaintext modulus `t`.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= t < 2^32` (contexts never get that far:
    /// parameter validation rejects such a `t` with a typed error).
    pub fn new(t: u64) -> Self {
        assert!(
            (2..Self::MAX).contains(&t),
            "plaintext modulus {t} is outside the reducer's [2, 2^32) range"
        );
        PlainModulus {
            t,
            ratio: u64::MAX / t,
        }
    }

    /// The modulus `t`.
    #[inline]
    pub fn value(&self) -> u64 {
        self.t
    }

    /// `(a + b) mod t` for canonical operands.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.t && b < self.t, "slots are canonical on entry");
        add_mod(a, b, self.t)
    }

    /// `(a - b) mod t` for canonical operands.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.t && b < self.t, "slots are canonical on entry");
        sub_mod(a, b, self.t)
    }

    /// `-a mod t` for a canonical operand.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.t, "slots are canonical on entry");
        neg_mod(a, self.t)
    }

    /// `a·b mod t` for canonical operands.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.t && b < self.t, "slots are canonical on entry");
        self.reduce(a * b)
    }

    /// `x mod t` for any word `x`: the quotient estimate
    /// `⌊x · ratio / 2^64⌋` undershoots `⌊x / t⌋` by at most one, so one
    /// conditional subtract canonicalizes.
    #[inline]
    pub fn reduce(&self, x: u64) -> u64 {
        let q_hat = ((u128::from(x) * u128::from(self.ratio)) >> 64) as u64;
        let r = x - q_hat * self.t;
        if r >= self.t {
            r - self.t
        } else {
            r
        }
    }
}

/// Barrett constant `mu = ⌊2^124 / q⌋` for a generic limb prime
/// (`2^60 < q < 2^61`, which makes `mu` fit a word).
#[inline]
pub fn barrett_mu(q: u64) -> u64 {
    debug_assert!(q.leading_zeros() < 64 - GENERIC_LIMB_MIN_BITS && q < GENERIC_LIMB_MAX);
    ((1u128 << 124) / u128::from(q)) as u64
}

/// Canonical `a·b mod q` by Barrett reduction with the precomputed
/// `mu = ⌊2^124 / q⌋` of [`barrett_mu`].
///
/// Valid for `2^60 < q < 2^61` and canonical inputs, or any word times 1:
/// the quotient estimate `⌊(⌊x/2^60⌋·mu)/2^64⌋` is `⌊x/q⌋` less at most 2,
/// never more, so two conditional subtracts canonicalize. **Never valid for
/// the Goldilocks limb** (`q > 2^63`); that limb uses the ε-identity kernels.
#[inline]
pub fn barrett_mul(a: u64, b: u64, q: u64, mu: u64) -> u64 {
    let x = u128::from(a) * u128::from(b);
    let shifted = (x >> 60) as u64;
    let q_hat = ((u128::from(shifted) * u128::from(mu)) >> 64) as u64;
    // True value of x - q_hat·q is in [0, 3q) ⊂ [0, 2^64), so the wrapped
    // 64-bit computation is exact.
    let mut r = (x as u64).wrapping_sub(q_hat.wrapping_mul(q));
    if r >= q {
        r -= q;
    }
    if r >= q {
        r -= q;
    }
    r
}

/// `a·b mod q` by u128 widening division — the oracle [`barrett_mul`] is
/// tested against, and the workhorse of table construction (off the hot
/// path, so the division cost is irrelevant).
#[inline]
fn mul_mod_u128(a: u64, b: u64, q: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) % u128::from(q)) as u64
}

/// `base^exp mod q` by square-and-multiply (table construction only).
pub(crate) fn pow_mod(base: u64, mut exp: u64, q: u64) -> u64 {
    let mut acc = 1u64;
    let mut base = base % q;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod_u128(acc, base, q);
        }
        base = mul_mod_u128(base, base, q);
        exp >>= 1;
    }
    acc
}

/// `a^{-1} mod q` for prime `q` (Fermat).
pub(crate) fn inv_mod(a: u64, q: u64) -> u64 {
    debug_assert!(!a.is_multiple_of(q), "zero has no inverse");
    pow_mod(a, q - 2, q)
}

// ---------------------------------------------------------------------------
// Deterministic primality (Miller–Rabin) and prime search
// ---------------------------------------------------------------------------

/// Deterministic Miller–Rabin for `u64`: the first twelve prime bases are
/// a proven witness set for every `n < 3.3·10^24`, which covers the whole
/// `u64` range.
fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let s = (n - 1).trailing_zeros();
    let d = (n - 1) >> s;
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mul_mod_u128(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Finds the `count` largest NTT-friendly primes `q ≡ 1 (mod 2n)` below
/// `2^61` (descending, so the result is deterministic for a given
/// `(count, degree)`), panicking if the search would leave the `(2^60,
/// 2^61)` validity window — which cannot happen for any practical degree.
fn find_generic_primes(count: usize, degree: usize) -> Vec<u64> {
    let step = 2 * degree as u64;
    let mut candidate = ((GENERIC_LIMB_MAX - 2) / step) * step + 1;
    let mut primes = Vec::with_capacity(count);
    while primes.len() < count {
        assert!(
            candidate > 1 << GENERIC_LIMB_MIN_BITS,
            "prime search left the Barrett validity window"
        );
        if is_prime(candidate) {
            primes.push(candidate);
        }
        candidate -= step;
    }
    primes
}

/// Finds a primitive 2n-th root of unity mod the prime `q` (requires
/// `2n | q - 1`): raise successive small bases to the cofactor power and
/// accept the first candidate whose n-th power is `-1`.
pub(crate) fn primitive_root_2n(q: u64, degree: usize) -> u64 {
    let order = 2 * degree as u64;
    let cofactor = (q - 1) / order;
    for base in 2u64.. {
        let candidate = pow_mod(base, cofactor, q);
        if pow_mod(candidate, degree as u64, q) == q - 1 {
            return candidate;
        }
    }
    unreachable!("a primitive root exists for every prime")
}

// ---------------------------------------------------------------------------
// Shoup products (Garner reconstruction)
// ---------------------------------------------------------------------------

/// Shoup companion `⌊w·2^64 / q⌋` of a canonical constant `w < q`.
#[inline]
fn shoup(w: u64, q: u64) -> u64 {
    ((u128::from(w) << 64) / u128::from(q)) as u64
}

/// Lazy Shoup product `y·w mod q` for `y < 4q`: returns a representative
/// in `[0, 2q)`. `wp` is the Shoup companion of `w`.
#[inline]
fn mul_shoup(y: u64, w: u64, wp: u64, q: u64) -> u64 {
    let q_hat = ((u128::from(y) * u128::from(wp)) >> 64) as u64;
    y.wrapping_mul(w).wrapping_sub(q_hat.wrapping_mul(q))
}

// ---------------------------------------------------------------------------
// Limbs and the modulus chain
// ---------------------------------------------------------------------------

/// One residue channel of the chain: the NTT tables of its prime, which
/// carry the prime, its Barrett constant and the lane every kernel of the
/// limb runs on. Limb 0 is always the Goldilocks prime, run by the ε-identity
/// kernels; every other limb is a generic prime, run by Barrett's.
#[derive(Debug, Clone)]
pub struct Limb {
    ntt: NttTables,
}

impl Limb {
    /// The limb's prime modulus.
    pub fn modulus(&self) -> u64 {
        self.ntt.modulus()
    }

    /// Barrett constant `⌊2^124 / q⌋` (zero — and meaningless — for the
    /// Goldilocks limb, which never takes the Barrett path).
    pub fn mu(&self) -> u64 {
        self.ntt.mu()
    }

    /// `true` for limb 0, the Goldilocks limb served by the ε-identity
    /// kernels.
    pub fn is_goldilocks(&self) -> bool {
        self.modulus() == MODULUS
    }

    /// The limb's NTT tables. Every limb has them, limb 0 included (its
    /// tables are the Goldilocks ones the context's transform counters
    /// read); the `Option` remains from when limb 0 had none, so callers
    /// that match on it keep compiling.
    pub fn ntt(&self) -> Option<&NttTables> {
        Some(&self.ntt)
    }

    /// The limb's NTT tables.
    pub(crate) fn tables(&self) -> &NttTables {
        &self.ntt
    }

    /// Runs `kernel` under this limb's modulus on the chain's lane
    /// (`NttTables::run`, the one place a kernel learns both).
    pub(crate) fn run(&self, kernel: impl simd::Kernel) {
        self.ntt.run(kernel);
    }
}

/// The RNS modulus chain: limb 0 is Goldilocks, limbs `1..k` are distinct
/// NTT-friendly primes in `(2^60, 2^61)`, plus the Garner precomputation
/// for CRT reconstruction across all `k` limbs.
#[derive(Debug)]
pub struct ModulusChain {
    limbs: Vec<Limb>,
    degree: usize,
    /// `garner_inv[i][j] = (q_j mod q_i)^{-1} mod q_i` for `j < i`, with
    /// its Shoup companion (every `i ≥ 1` is a generic limb, `q_i < 2^61`).
    garner_inv: Vec<Vec<(u64, u64)>>,
}

impl ModulusChain {
    /// Builds a chain of `limb_count ≥ 1` limbs for ring degree `degree`
    /// (a power of two, at least 2), every limb with the NTT tables of its
    /// prime; the `k = 1` chain is the Goldilocks limb alone. The
    /// process-wide SIMD policy ([`SimdPolicy::global`]) is read here, once:
    /// every transform and payload kernel on the chain's stripes runs on
    /// that lane for the chain's lifetime.
    pub fn new(limb_count: usize, degree: usize) -> ModulusChain {
        Self::with_policy(limb_count, degree, SimdPolicy::global())
    }

    /// [`ModulusChain::new`] on an explicit SIMD policy (tests use this to
    /// run every lane in one process).
    pub fn with_policy(limb_count: usize, degree: usize, policy: SimdPolicy) -> ModulusChain {
        assert!(limb_count >= 1, "a chain needs at least one limb");
        let primes = std::iter::once(MODULUS).chain(find_generic_primes(limb_count - 1, degree));
        let limbs: Vec<Limb> = primes
            .map(|q| Limb {
                ntt: NttTables::for_prime(q, degree, policy),
            })
            .collect();
        let garner_inv = (0..limb_count)
            .map(|i| {
                let qi = limbs[i].modulus();
                (0..i)
                    .map(|j| {
                        let inv = inv_mod(limbs[j].modulus() % qi, qi);
                        (inv, shoup(inv, qi))
                    })
                    .collect()
            })
            .collect();
        ModulusChain {
            limbs,
            degree,
            garner_inv,
        }
    }

    /// Number of limbs `k`.
    pub fn limb_count(&self) -> usize {
        self.limbs.len()
    }

    /// Ring degree the chain was built for.
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// Limb `i` of the chain.
    pub fn limb(&self, i: usize) -> &Limb {
        &self.limbs[i]
    }

    /// All limbs, Goldilocks first.
    pub fn limbs(&self) -> &[Limb] {
        &self.limbs
    }

    /// CRT-lifts a base value into limb `i`'s residue field: `x mod q_i` for
    /// any word `x`, divide-free — one conditional subtract on Goldilocks
    /// (`2^64 < 2p`), [`barrett_mul`]'s reduction of `x·1` on a generic limb.
    #[inline]
    pub fn lift_base(&self, i: usize, x: u64) -> u64 {
        match &self.limbs[i] {
            limb if limb.is_goldilocks() => p_canonical(x),
            limb => barrett_mul(x, 1, limb.modulus(), limb.mu()),
        }
    }

    /// Samples one uniform polynomial across every limb into `buf` — the one
    /// place the backend draws payload coefficients. Limb 0 is `degree` words
    /// of `rng` in one bulk draw, each reduced mod Goldilocks (`gen::<u64>() %
    /// MODULUS` per coefficient, value for value); generic limbs lift it
    /// (`ModulusChain::lift_limbs`).
    pub fn sample_uniform_limbs(&self, rng: &mut impl Rng, buf: &mut [u64]) {
        debug_assert_eq!(buf.len(), self.limbs.len() * self.degree);
        rng.fill(&mut buf[..self.degree]);
        self.lift_limbs(buf);
    }

    /// Lifts the `degree` words of `buf`'s first stripe into every limb, in
    /// place: limb 0's stripe becomes their Goldilocks residues, and each
    /// generic limb's stripe the residues of those under its own prime. Both
    /// passes are `simd::Reduce` kernels on the chain's lane, so the values
    /// do not depend on it.
    pub(crate) fn lift_limbs(&self, buf: &mut [u64]) {
        let (base, generic) = buf.split_at_mut(self.degree);
        self.limbs[0].run(simd::ReduceAssign { x: base });
        for (limb, out) in self.limbs[1..]
            .iter()
            .zip(generic.chunks_exact_mut(self.degree))
        {
            limb.run(simd::Reduce { x: base, out });
        }
    }

    /// Moves every limb stripe of `buf` (`limb_count · degree` coefficient
    /// values) into the NTT domain, each under its own limb's tables.
    pub(crate) fn forward_limbs(&self, buf: &mut [u64]) {
        debug_assert_eq!(buf.len(), self.limbs.len() * self.degree);
        for (limb, stripe) in self.limbs.iter().zip(buf.chunks_exact_mut(self.degree)) {
            limb.ntt.forward(stripe);
        }
    }

    /// Garner mixed-radix digits of the integer with the given per-limb
    /// residues (`residues[i] ≡ x mod q_i`, any word), written into
    /// `digits`. Divide-free: residues and cross-limb digits are reduced by
    /// [`ModulusChain::lift_base`], and each step multiplies by the stored
    /// inverse's Shoup companion.
    fn garner_digits(&self, residues: &[u64], digits: &mut [u64]) {
        debug_assert_eq!(residues.len(), self.limbs.len());
        debug_assert_eq!(digits.len(), self.limbs.len());
        for (i, (limb, inverses)) in self.limbs.iter().zip(&self.garner_inv).enumerate() {
            let q = limb.modulus();
            let mut t = self.lift_base(i, residues[i]);
            for (&dj, &(inv, inv_shoup)) in digits.iter().zip(inverses) {
                let r = mul_shoup(sub_mod(t, self.lift_base(i, dj), q), inv, inv_shoup, q);
                t = if r >= q { r - q } else { r };
            }
            digits[i] = t;
        }
    }

    /// Expands mixed-radix digits into the little-endian multiword integer
    /// `x = Σ v_i · Π_{j<i} q_j`, written into `words` (`k` words always
    /// suffice since every modulus fits one word).
    fn digits_to_words(&self, digits: &[u64], words: &mut [u64]) {
        let k = self.limbs.len();
        debug_assert_eq!(words.len(), k);
        words.fill(0);
        words[0] = digits[k - 1];
        for i in (0..k - 1).rev() {
            let mut carry = u128::from(digits[i]);
            for w in words.iter_mut() {
                let t = u128::from(*w) * u128::from(self.limbs[i].modulus()) + carry;
                *w = t as u64;
                carry = t >> 64;
            }
            debug_assert_eq!(carry, 0, "product of moduli fits k words");
        }
    }

    /// Reconstructs the little-endian multiword integer `x < Π q_i` from
    /// its per-limb residues (Garner: no big-integer division).
    pub fn crt_reconstruct(&self, residues: &[u64]) -> Vec<u64> {
        let k = self.limbs.len();
        let mut digits = vec![0u64; k];
        let mut words = vec![0u64; k];
        self.garner_digits(residues, &mut digits);
        self.digits_to_words(&digits, &mut words);
        words
    }

    /// Lifts a little-endian multiword integer back to per-limb residues —
    /// the inverse of [`ModulusChain::crt_reconstruct`].
    pub fn crt_lift(&self, words: &[u64]) -> Vec<u64> {
        self.limbs
            .iter()
            .map(|limb| {
                let q = u128::from(limb.modulus());
                let mut r = 0u128;
                for &w in words.iter().rev() {
                    r = ((r << 64) | u128::from(w)) % q;
                }
                r as u64
            })
            .collect()
    }

    /// Runs a full Garner reconstruction over one payload component laid
    /// out as `k` consecutive limb stripes of `degree` values
    /// (`data[i·degree + j] = coefficient j mod q_i`), folding every
    /// reconstructed word into a checksum. The decryptor routes this
    /// through `black_box` so the simulation pays the genuine per-
    /// coefficient CRT cost without asserting anything about the noise-
    /// free slots.
    pub fn crt_checksum(&self, component: &[u64]) -> u64 {
        let k = self.limbs.len();
        let n = self.degree;
        debug_assert_eq!(component.len(), k * n);
        let mut residues = vec![0u64; k];
        let mut digits = vec![0u64; k];
        let mut words = vec![0u64; k];
        let mut acc = 0u64;
        for j in 0..n {
            for (i, r) in residues.iter_mut().enumerate() {
                *r = component[i * n + j];
            }
            self.garner_digits(&residues, &mut digits);
            self.digits_to_words(&digits, &mut words);
            for &w in words.iter() {
                acc = acc.rotate_left(7) ^ w;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_values(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D)
            })
            .collect()
    }

    #[test]
    fn miller_rabin_agrees_with_trial_division() {
        let naive = |n: u64| {
            if n < 2 {
                return false;
            }
            let mut d = 2;
            while d * d <= n {
                if n.is_multiple_of(d) {
                    return false;
                }
                d += 1;
            }
            true
        };
        for n in 0..2000u64 {
            assert_eq!(is_prime(n), naive(n), "n={n}");
        }
        assert!(is_prime(MODULUS), "Goldilocks is prime");
        assert!(!is_prime(u64::MAX));
    }

    #[test]
    fn generic_prime_search_yields_distinct_ntt_friendly_primes() {
        for degree in [64usize, 1024, 4096] {
            let primes = find_generic_primes(3, degree);
            assert_eq!(primes.len(), 3);
            for window in primes.windows(2) {
                assert!(window[0] > window[1], "descending and distinct");
            }
            for &q in &primes {
                assert!(is_prime(q));
                assert!(q > 1 << GENERIC_LIMB_MIN_BITS && q < GENERIC_LIMB_MAX);
                assert_eq!((q - 1) % (2 * degree as u64), 0, "q ≡ 1 (mod 2n)");
            }
        }
    }

    #[test]
    fn barrett_mul_matches_widening_division() {
        let chain = ModulusChain::new(3, 64);
        for limb in &chain.limbs()[1..] {
            let (q, mu) = (limb.modulus(), limb.mu());
            let values: Vec<u64> = random_values(64, q)
                .into_iter()
                .map(|v| v % q)
                .chain([0, 1, 2, q - 2, q - 1])
                .collect();
            for &a in &values {
                for &b in &values {
                    assert_eq!(
                        barrett_mul(a, b, q, mu),
                        mul_mod_u128(a, b, q),
                        "a={a} b={b} q={q}"
                    );
                }
            }
        }
    }

    /// Every limb of the `k = 3` chain — Goldilocks and both generic
    /// primes — transforms through its one table type: canonical forward
    /// output, and the inverse undoes it.
    #[test]
    fn limb_ntt_round_trips() {
        for degree in [8usize, 64, 256] {
            let chain = ModulusChain::new(3, degree);
            for (i, limb) in chain.limbs().iter().enumerate() {
                let q = limb.modulus();
                let original: Vec<u64> =
                    random_values(degree, 0xAB).iter().map(|v| v % q).collect();
                let mut work = original.clone();
                limb.tables().forward(&mut work);
                assert!(
                    work.iter().all(|&v| v < q),
                    "limb {i}: forward output canonical"
                );
                limb.tables().inverse(&mut work);
                assert_eq!(work, original, "degree={degree} limb {i}");
            }
        }
    }

    /// On every limb and every lane the CPU has, forward, pointwise
    /// product and inverse is the negacyclic product, held to the `u128`
    /// schoolbook one.
    #[test]
    fn limb_ntt_pointwise_is_negacyclic_convolution() {
        let degree = 16usize;
        let policies =
            crate::simd::available_policies("limb_ntt_pointwise_is_negacyclic_convolution");
        for policy in policies {
            let chain = ModulusChain::with_policy(3, degree, policy);
            for (index, limb) in chain.limbs().iter().enumerate() {
                let (q, wide) = (limb.modulus(), u128::from(limb.modulus()));
                let a: Vec<u64> = random_values(degree, 3).iter().map(|v| v % q).collect();
                let b: Vec<u64> = random_values(degree, 5).iter().map(|v| v % q).collect();

                // Schoolbook negacyclic product: x^n = -1.
                let mut naive = vec![0u128; degree];
                for (i, &ai) in a.iter().enumerate() {
                    for (j, &bj) in b.iter().enumerate() {
                        let prod = u128::from(mul_mod_u128(ai, bj, q));
                        let idx = (i + j) % degree;
                        let sign = if i + j < degree { prod } else { wide - prod };
                        naive[idx] = (naive[idx] + sign) % wide;
                    }
                }
                let naive: Vec<u64> = naive.into_iter().map(|v| v as u64).collect();

                let (mut fa, mut fb) = (a.clone(), b.clone());
                limb.tables().forward(&mut fa);
                limb.tables().forward(&mut fb);
                let mut fc: Vec<u64> = (0..degree).map(|i| mul_mod_u128(fa[i], fb[i], q)).collect();
                limb.tables().inverse(&mut fc);
                assert_eq!(fc, naive, "{policy:?} limb {index}");
            }
        }
    }

    #[test]
    fn garner_reconstruction_round_trips_residues() {
        for k in [2usize, 3, 4] {
            let chain = ModulusChain::new(k, 64);
            for seed in 1..50u64 {
                let residues: Vec<u64> = chain
                    .limbs()
                    .iter()
                    .zip(random_values(k, seed))
                    .map(|(limb, v)| v % limb.modulus())
                    .collect();
                let words = chain.crt_reconstruct(&residues);
                assert_eq!(words.len(), k);
                assert_eq!(chain.crt_lift(&words), residues, "k={k} seed={seed}");
            }
        }
    }

    #[test]
    fn lift_base_matches_the_hardware_remainder() {
        for k in [2usize, 3, 4] {
            let chain = ModulusChain::new(k, 64);
            for (i, limb) in chain.limbs().iter().enumerate() {
                let q = limb.modulus();
                let m = u64::MAX / q;
                let mut words = vec![0, q - 1, q, m * q - 1, m * q, MODULUS - 1, u64::MAX];
                if !limb.is_goldilocks() {
                    words.push(2 * q);
                }
                words.extend(random_values(100_000, 0x11F7 + (8 * k + i) as u64));
                for x in words {
                    assert_eq!(chain.lift_base(i, x), x % q, "k={k} limb {i}: {x}");
                }
            }
        }
    }

    #[test]
    fn sampling_is_one_reduced_draw_per_coefficient_lifted_to_every_limb() {
        use rand::{RngCore, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        let policies = crate::simd::available_policies(
            "sampling_is_one_reduced_draw_per_coefficient_lifted_to_every_limb",
        );
        let cases = [1usize, 3].map(|k| policies.iter().map(move |&policy| (k, policy)));
        for (k, policy) in cases.into_iter().flatten() {
            let chain = ModulusChain::with_policy(k, 64, policy);
            let mut rng = ChaCha8Rng::seed_from_u64(0x5A3 + k as u64);
            let _ = rng.next_u32(); // off the u64 grid
            let mut single = rng.clone();
            let mut buf = vec![0u64; k * 64];
            for round in 0..3 {
                chain.sample_uniform_limbs(&mut rng, &mut buf);
                for j in 0..64 {
                    let x = single.next_u64() % MODULUS;
                    for (i, limb) in chain.limbs().iter().enumerate() {
                        let context =
                            format!("k={k} {policy:?} round {round} coefficient {j} limb {i}");
                        assert_eq!(buf[i * 64 + j], x % limb.modulus(), "{context}");
                    }
                }
            }
            assert_eq!(rng.next_u64(), single.next_u64(), "k={k}: stream position");
        }
    }

    #[test]
    fn single_word_values_reconstruct_to_themselves() {
        let chain = ModulusChain::new(3, 64);
        for &x in &[0u64, 1, 12345, MODULUS - 1, u64::MAX] {
            let residues: Vec<u64> = (0..3).map(|i| chain.lift_base(i, x)).collect();
            let words = chain.crt_reconstruct(&residues);
            // x < q_0 < Π q_i, so the reconstruction is x itself... except
            // x ≥ q_0 (e.g. u64::MAX): then the reconstruction is the
            // unique value < Π q_i congruent to x mod each q_i, which for
            // x < 2^64 with x ≥ q_0 need not equal x. Restrict the exact
            // check to canonical base values.
            if x < MODULUS {
                assert_eq!(words[0], x);
                assert!(words[1..].iter().all(|&w| w == 0));
            }
            assert_eq!(chain.crt_lift(&words), residues);
        }
    }

    #[test]
    fn k1_chain_is_the_goldilocks_limb_alone() {
        let chain = ModulusChain::new(1, 4096);
        assert_eq!(chain.limb_count(), 1);
        assert!(chain.limb(0).is_goldilocks());
        let tables = chain.limb(0).ntt().expect("every limb has tables");
        assert_eq!(tables.modulus(), MODULUS);
    }

    #[test]
    fn crt_checksum_is_deterministic_and_limb_sensitive() {
        let degree = 32usize;
        let chain = ModulusChain::new(2, degree);
        let mut component: Vec<u64> = Vec::new();
        for limb in chain.limbs() {
            component.extend(
                random_values(degree, limb.modulus())
                    .iter()
                    .map(|v| v % limb.modulus()),
            );
        }
        let a = chain.crt_checksum(&component);
        assert_eq!(a, chain.crt_checksum(&component), "deterministic");
        let mut perturbed = component.clone();
        perturbed[degree + 3] ^= 1;
        assert_ne!(a, chain.crt_checksum(&perturbed), "sensitive to limb 1");
    }

    /// The checksum by division — Garner digits from `%` and `u128 %`
    /// products: the oracle the divide-free [`ModulusChain::crt_checksum`]
    /// is held to.
    fn crt_checksum_by_division(chain: &ModulusChain, component: &[u64]) -> u64 {
        let (k, n) = (chain.limb_count(), chain.degree());
        let (mut digits, mut words) = (vec![0u64; k], vec![0u64; k]);
        let mut acc = 0u64;
        for j in 0..n {
            for i in 0..k {
                let qi = chain.limb(i).modulus();
                let mut t = component[i * n + j] % qi;
                for (jj, &dj) in digits.iter().enumerate().take(i) {
                    let inv = inv_mod(chain.limb(jj).modulus() % qi, qi);
                    t = mul_mod_u128(sub_mod(t, dj % qi, qi), inv, qi);
                }
                digits[i] = t;
            }
            chain.digits_to_words(&digits, &mut words);
            for &w in &words {
                acc = acc.rotate_left(7) ^ w;
            }
        }
        acc
    }

    /// Random words, canonical residues and the edges of every limb's range
    /// up to `u64::MAX`, at two, three and four limbs: the divide-free
    /// checksum is the division oracle's.
    #[test]
    fn crt_checksum_matches_the_division_oracle() {
        for k in [2usize, 3, 4] {
            let degree = 64;
            let chain = ModulusChain::new(k, degree);
            let mut edges = vec![
                0,
                1,
                2,
                MODULUS - 1,
                MODULUS,
                MODULUS + 1,
                u64::MAX - 1,
                u64::MAX,
            ];
            for limb in chain.limbs() {
                let q = limb.modulus();
                edges.extend([q - 1, q, q + 1, q.wrapping_mul(2), (u64::MAX / q) * q]);
            }
            for round in 0..40u64 {
                let seed = 0xC47 + round * 8 + k as u64;
                let component: Vec<u64> = match round {
                    // Every edge value in every limb, in shifting combinations.
                    0..=9 => (0..k * degree)
                        .map(|x| edges[(x * (round as usize + 1) + x / degree) % edges.len()])
                        .collect(),
                    // Canonical residues, what a payload carries.
                    10..=19 => chain
                        .limbs()
                        .iter()
                        .flat_map(|limb| {
                            random_values(degree, seed)
                                .into_iter()
                                .map(|v| v % limb.modulus())
                        })
                        .collect(),
                    _ => random_values(k * degree, seed),
                };
                assert_eq!(
                    chain.crt_checksum(&component),
                    crt_checksum_by_division(&chain, &component),
                    "k={k} round {round}"
                );
            }
        }
    }

    #[test]
    fn generic_chunk_kernels_match_reference_arithmetic() {
        use crate::simd::{Add, Galois2, GaloisPermutation, MulAdd2, Neg, Sub};
        let n = 33;
        let q = ModulusChain::new(2, 64).limb(1).modulus();
        let reduce = |v: Vec<u64>| -> Vec<u64> { v.into_iter().map(|x| x % q).collect() };
        let a0 = reduce(random_values(n, 11));
        let a1 = reduce(random_values(n, 12));
        let b0 = reduce(random_values(n, 13));
        let b1 = reduce(random_values(n, 14));
        let s0 = reduce(random_values(n, 15));
        let s1 = reduce(random_values(n, 16));

        for policy in
            crate::simd::available_policies("generic_chunk_kernels_match_reference_arithmetic")
        {
            let chain = ModulusChain::with_policy(2, 64, policy);
            let limb = chain.limb(1);
            let (mut o0, mut o1) = (vec![0u64; n], vec![0u64; n]);
            let (a0, a1, b0, b1, s0, s1) = (&a0[..], &a1[..], &b0[..], &b1[..], &s0[..], &s1[..]);
            let (o0, o1) = (&mut o0[..], &mut o1[..]);
            #[rustfmt::skip]
            limb.run(MulAdd2 { a0, a1, b0, b1, s0, s1, o0: &mut *o0, o1: &mut *o1 });
            for i in 0..n {
                let c2 = mul_mod_u128(a1[i], b1[i], q);
                assert_eq!(
                    o0[i],
                    add_mod(mul_mod_u128(a0[i], b0[i], q), mul_mod_u128(c2, s0[i], q), q)
                );
            }

            let perm =
                GaloisPermutation::new((0..n as u32).map(|i| (i * 5 + 2) % n as u32).collect());
            #[rustfmt::skip]
            limb.run(Galois2 { src0: a0, src1: a1, perm: &perm, key: b0, o0: &mut *o0, o1: &mut *o1 });
            for i in 0..n {
                assert_eq!(o0[i], mul_mod_u128(a0[perm[i] as usize], b0[i], q));
            }

            let (x, y) = (a0, a1);
            let mut o2 = vec![0u64; n];
            limb.run(Add {
                x,
                y,
                out: &mut *o0,
            });
            limb.run(Sub {
                x,
                y,
                out: &mut *o1,
            });
            limb.run(Neg { x, out: &mut o2 });
            for i in 0..n {
                assert_eq!(o0[i], (a0[i] + a1[i]) % q);
                assert_eq!(o1[i], (a0[i] + q - a1[i]) % q);
                assert_eq!(o2[i], (q - a0[i]) % q);
            }
        }
    }
}
