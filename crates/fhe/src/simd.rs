//! Runtime-detected SIMD kernels for the striped payload and NTT hot loops,
//! plus the scalar lazy-reduction primitives they share.
//!
//! # Lazy (deferred) reduction over Goldilocks
//!
//! Classic Harvey lazy butterflies keep values in `[0, 2p)` and use Shoup
//! multiplier pairs `(w, w') = (w, ⌊w·2^64/p⌋)`; both tricks require
//! `p < 2^62`-ish so that `2p` and the Shoup remainder fit a word. The
//! Goldilocks prime `p = 2^64 - 2^32 + 1` sits *above* `2^63`, so neither
//! fits — but Goldilocks offers a strictly better deal: **every `u64` is a
//! valid lazy residue**, because `2^64 < 2p`. The role the Shoup pair plays
//! for small primes is played here by the ε-identity `2^64 ≡ ε (mod p)`
//! with `ε = 2^32 - 1`:
//!
//! ```text
//!   eager op:  reduce to canonical [0, p)   after every butterfly
//!   lazy  op:  stay anywhere in  [0, 2^64)  (⊂ [0, 2p)); every wrap of the
//!              64-bit word is compensated by ±ε, corrections never cascade
//!              more than twice, and NO canonicalizing compare runs
//!   finish:    one conditional subtract per value (x < 2^64 < 2p always)
//! ```
//!
//! Each lazy intermediate is an *exact* member of its residue class — only
//! the choice of representative is deferred — so canonicalizing at the end
//! yields outputs bit-identical to the eager path. The forward NTT fuses the
//! canonicalization into its last butterfly stage; the inverse NTT gets it
//! for free from the final `n^{-1}` scaling, which uses the full reduction.
//!
//! # SIMD dispatch
//!
//! [`SimdPolicy`] is resolved once per process (AVX2 via
//! `is_x86_feature_detected!`, forcible with `CHEHAB_SIMD={0,1}`), then
//! snapshotted by `NttTables` and `Evaluator` at construction so a given
//! session's arithmetic is uniform. The AVX2 kernels process four 64-bit
//! lanes per step using only stable `std::arch` intrinsics (no external
//! crates); 64×64→128 products are synthesized from `_mm256_mul_epu32`
//! partial products, and unsigned lane compares from the sign-flip trick.
//! The scalar path is the bit-identity oracle and the fallback for tails,
//! small blocks, and non-x86 targets: both paths run the same correction
//! algorithm element-wise, so even their *lazy representatives* agree.

// The one module in the crate allowed to use `unsafe`: stable `std::arch`
// intrinsics behind runtime feature detection. Every unsafe block is a call
// into the AVX2 back end, guarded by the policy that is only ever granted
// on CPUs reporting the feature.
#![allow(unsafe_code)]

use crate::poly::{p_add, p_mul, p_mul_add, p_neg, p_sub, MODULUS};
use std::hint::select_unpredictable;
use std::sync::atomic::{AtomicU8, Ordering};

/// `2^64 mod p = 2^32 - 1`: the wrap-compensation constant of the lazy
/// arithmetic (see the module docs).
pub const EPSILON: u64 = 0xFFFF_FFFF;

/// `x + ε` when `wrapped`, else `x` — the `+2^64 ≡ +ε` wrap compensation.
///
/// Wrap flags are data-dependent coin flips on lazy residues, so an `if`
/// here becomes a hard-to-predict branch; `select_unpredictable` pins the
/// fix-up to a conditional move (measured ~2x on the whole scalar NTT).
#[inline]
fn fold_add(x: u64, wrapped: bool) -> u64 {
    select_unpredictable(wrapped, x.wrapping_add(EPSILON), x)
}

/// `x - ε` when `wrapped`, else `x` — the borrow-side mirror of
/// [`fold_add`].
#[inline]
fn fold_sub(x: u64, wrapped: bool) -> u64 {
    select_unpredictable(wrapped, x.wrapping_sub(EPSILON), x)
}

// ---------------------------------------------------------------------------
// Scalar lazy-reduction primitives (the bit-identity oracle)
// ---------------------------------------------------------------------------

/// Reduces a 128-bit value to a **lazy** residue in `[0, 2^64)` — the same
/// limb arithmetic as [`crate::poly::reduce128`] minus the canonicalizing
/// compare. The result is an exact member of `x`'s residue class.
#[inline]
pub fn reduce128_lazy(x: u128) -> u64 {
    let x_lo = x as u64;
    let x_hi = (x >> 64) as u64;
    let x_hi_hi = x_hi >> 32;
    let x_hi_lo = x_hi & EPSILON;

    // A borrow added 2^64 ≡ ε; take it back out (cannot wrap again:
    // t0 ≥ 2^64 - x_hi_hi > ε there).
    let (t0, borrow) = x_lo.overflowing_sub(x_hi_hi);
    let t0 = fold_sub(t0, borrow);
    let t1 = x_hi_lo * EPSILON;
    // A carry removed 2^64 ≡ ε; put it back (sum ≤ 2^64 - 2^33 there,
    // cannot overflow).
    let (sum, carry) = t0.overflowing_add(t1);
    let r = fold_add(sum, carry);
    debug_assert!(u128::from(r) < 2 * u128::from(MODULUS));
    r
}

/// Lazy modular multiply: both inputs may be any `u64` lazy residues; the
/// result is a lazy residue in `[0, 2^64)` of the exact product class.
#[inline]
pub fn p_mul_lazy(a: u64, b: u64) -> u64 {
    reduce128_lazy(u128::from(a) * u128::from(b))
}

/// Lazy modular add: inputs and output are arbitrary-`u64` lazy residues.
/// Each 64-bit wrap is compensated by `+ε`; a second wrap can occur at most
/// once (the compensated value is then `< 2ε`), so two corrections always
/// suffice and the loop is branch-bounded.
#[inline]
pub fn p_add_lazy(a: u64, b: u64) -> u64 {
    // Flat (not nested) fix-ups, each a conditional move: a second wrap is
    // only possible after a first (adding 0 cannot overflow), and the
    // twice-compensated value is then `< 2ε`, so two corrections always
    // suffice.
    let (sum, overflow) = a.overflowing_add(b);
    let (sum2, overflow2) = sum.overflowing_add(select_unpredictable(overflow, EPSILON, 0));
    fold_add(sum2, overflow2)
}

/// Lazy modular subtract: mirror of [`p_add_lazy`] with `-ε` borrow
/// compensation (again at most two corrections).
#[inline]
pub fn p_sub_lazy(a: u64, b: u64) -> u64 {
    // Flat fix-ups for conditional moves, mirroring [`p_add_lazy`].
    let (diff, borrow) = a.overflowing_sub(b);
    let (diff2, borrow2) = diff.overflowing_sub(select_unpredictable(borrow, EPSILON, 0));
    fold_sub(diff2, borrow2)
}

/// Canonicalizes a lazy residue: one conditional subtract suffices because
/// every lazy value is `< 2^64 < 2p`.
#[inline]
pub fn p_canonical(x: u64) -> u64 {
    debug_assert!(u128::from(x) < 2 * u128::from(MODULUS));
    select_unpredictable(x >= MODULUS, x.wrapping_sub(MODULUS), x)
}

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// Which arithmetic back end the hot loops run on.
///
/// Resolved once per process by [`SimdPolicy::global`] (runtime CPU feature
/// detection, overridable with `CHEHAB_SIMD=0|1` or [`SimdPolicy::set_global`]
/// for testing), then snapshotted by `NttTables` and `Evaluator` at
/// construction. The scalar path is the bit-identity oracle: outputs are
/// identical under either policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdPolicy {
    /// Portable scalar kernels (the oracle and universal fallback).
    Scalar,
    /// AVX2 4-lane kernels (x86-64 only; selected only when the CPU
    /// supports it).
    Avx2,
}

/// Global policy cell: 0 = unresolved, 1 = scalar, 2 = AVX2.
static GLOBAL_POLICY: AtomicU8 = AtomicU8::new(0);

impl SimdPolicy {
    /// What the CPU supports, ignoring any override.
    pub fn detected() -> SimdPolicy {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdPolicy::Avx2;
            }
        }
        SimdPolicy::Scalar
    }

    /// The process-wide policy: the first call resolves `CHEHAB_SIMD`
    /// (`0` forces scalar, `1` requests SIMD — granted only if the CPU has
    /// it) falling back to pure detection, and later calls return the cached
    /// decision. [`SimdPolicy::set_global`] overrides it at any time.
    pub fn global() -> SimdPolicy {
        match GLOBAL_POLICY.load(Ordering::Relaxed) {
            1 => return SimdPolicy::Scalar,
            2 => return SimdPolicy::Avx2,
            _ => {}
        }
        let resolved = match std::env::var("CHEHAB_SIMD").ok().as_deref() {
            Some("0") => SimdPolicy::Scalar,
            Some("1") => SimdPolicy::detected(),
            _ => SimdPolicy::detected(),
        };
        GLOBAL_POLICY.store(resolved.encode(), Ordering::Relaxed);
        resolved
    }

    /// Overrides the process-wide policy (tests and benches use this to run
    /// both back ends in one process). Forcing [`SimdPolicy::Avx2`] is
    /// ignored on hardware without AVX2 — the scalar fallback keeps outputs
    /// correct instead of faulting.
    pub fn set_global(policy: SimdPolicy) {
        let granted = match policy {
            SimdPolicy::Scalar => SimdPolicy::Scalar,
            SimdPolicy::Avx2 => SimdPolicy::detected(),
        };
        GLOBAL_POLICY.store(granted.encode(), Ordering::Relaxed);
    }

    /// `true` when this policy runs vectorized kernels.
    pub fn is_vectorized(self) -> bool {
        self == SimdPolicy::Avx2
    }

    /// Human-readable name (`"scalar"` / `"avx2"`), used in bench JSON and
    /// metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            SimdPolicy::Scalar => "scalar",
            SimdPolicy::Avx2 => "avx2",
        }
    }

    fn encode(self) -> u8 {
        match self {
            SimdPolicy::Scalar => 1,
            SimdPolicy::Avx2 => 2,
        }
    }
}

// ---------------------------------------------------------------------------
// Dispatching kernel entry points (safe API)
// ---------------------------------------------------------------------------

/// Minimum slice length worth entering a vector kernel: below one full
/// vector there is nothing to vectorize.
const LANES: usize = 4;

/// Fused dual-component pointwise product chunk:
/// `o0[i] = x0[i]·m[i]`, `o1[i] = x1[i]·m[i]` (canonical outputs).
#[inline]
pub fn mul2_chunk(
    x0: &[u64],
    x1: &[u64],
    m: &[u64],
    o0: &mut [u64],
    o1: &mut [u64],
    policy: SimdPolicy,
) {
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() && o0.len() >= LANES {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::mul2(x0, x1, m, o0, o1) };
        return;
    }
    let _ = policy;
    for i in 0..o0.len() {
        o0[i] = p_mul(x0[i], m[i]);
        o1[i] = p_mul(x1[i], m[i]);
    }
}

/// Fused BFV tensor-product + relinearization chunk (six ring products per
/// coefficient, canonical outputs):
///
/// ```text
/// c2    = a1·b1
/// o0[i] = a0·b0 + c2·s0
/// o1[i] = a0·b1 + a1·b0 + c2·s1
/// ```
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn mul_add2_chunk(
    a0: &[u64],
    a1: &[u64],
    b0: &[u64],
    b1: &[u64],
    s0: &[u64],
    s1: &[u64],
    o0: &mut [u64],
    o1: &mut [u64],
    policy: SimdPolicy,
) {
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() && o0.len() >= LANES {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::mul_add2(a0, a1, b0, b1, s0, s1, o0, o1) };
        return;
    }
    let _ = policy;
    for i in 0..o0.len() {
        let c2 = p_mul(a1[i], b1[i]);
        o0[i] = p_mul_add(c2, s0[i], p_mul(a0[i], b0[i]));
        o1[i] = p_mul_add(c2, s1[i], p_mul_add(a1[i], b0[i], p_mul(a0[i], b1[i])));
    }
}

/// Fused Galois gather + key-switch chunk: `o0[i] = src0[perm[i]]·key[i]`
/// and likewise for the second component (canonical outputs). `src0`/`src1`
/// are the *full* component slices (the permutation indexes the whole
/// polynomial); `perm`/`key` are the chunk's windows.
#[inline]
pub fn galois2_chunk(
    src0: &[u64],
    src1: &[u64],
    perm: &[u32],
    key: &[u64],
    o0: &mut [u64],
    o1: &mut [u64],
    policy: SimdPolicy,
) {
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() && o0.len() >= LANES {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::galois2(src0, src1, perm, key, o0, o1) };
        return;
    }
    let _ = policy;
    for i in 0..o0.len() {
        let src = perm[i] as usize;
        o0[i] = p_mul(src0[src], key[i]);
        o1[i] = p_mul(src1[src], key[i]);
    }
}

/// Generic-limb twin of [`mul2_chunk`]: the fused dual-component
/// pointwise product over an RNS limb prime `2^60 < q < 2^61`, reduced by
/// Barrett with the precomputed `mu = ⌊2^124 / q⌋` (see
/// [`crate::rns::barrett_mul`]). Unlike the memory-bound Goldilocks path,
/// the Barrett product is compute-dense enough that the AVX2 back end
/// shows a real arithmetic-intensity win — the effect the multi-limb
/// ct-pt kernel is built to exploit.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn mul2_chunk_q(
    x0: &[u64],
    x1: &[u64],
    m: &[u64],
    o0: &mut [u64],
    o1: &mut [u64],
    q: u64,
    mu: u64,
    policy: SimdPolicy,
) {
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() && o0.len() >= LANES {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::mul2_q(x0, x1, m, o0, o1, q, mu) };
        return;
    }
    let _ = policy;
    for i in 0..o0.len() {
        o0[i] = crate::rns::barrett_mul(x0[i], m[i], q, mu);
        o1[i] = crate::rns::barrett_mul(x1[i], m[i], q, mu);
    }
}

/// Pure permutation gather: `out[i] = src[perm[i]]` — the vectorized form
/// of the Galois index permutation applied to a standalone polynomial
/// (no key-switch product fused in). `src` is the full source slice; the
/// permutation indexes all of it.
#[inline]
pub fn gather_chunk(src: &[u64], perm: &[u32], out: &mut [u64], policy: SimdPolicy) {
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() && out.len() >= LANES {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::gather(src, perm, out) };
        return;
    }
    let _ = policy;
    for i in 0..out.len() {
        out[i] = src[perm[i] as usize];
    }
}

/// Stripe-wide modular addition of canonical inputs (canonical output).
#[inline]
pub fn add_stripe(x: &[u64], y: &[u64], out: &mut [u64], policy: SimdPolicy) {
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() && out.len() >= LANES {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::add(x, y, out) };
        return;
    }
    let _ = policy;
    for i in 0..out.len() {
        out[i] = p_add(x[i], y[i]);
    }
}

/// Stripe-wide modular subtraction of canonical inputs (canonical output).
#[inline]
pub fn sub_stripe(x: &[u64], y: &[u64], out: &mut [u64], policy: SimdPolicy) {
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() && out.len() >= LANES {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::sub(x, y, out) };
        return;
    }
    let _ = policy;
    for i in 0..out.len() {
        out[i] = p_sub(x[i], y[i]);
    }
}

/// Stripe-wide modular negation of canonical input (canonical output).
#[inline]
pub fn neg_stripe(x: &[u64], out: &mut [u64], policy: SimdPolicy) {
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() && out.len() >= LANES {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::neg(x, out) };
        return;
    }
    let _ = policy;
    for i in 0..out.len() {
        out[i] = p_neg(x[i]);
    }
}

/// In-place [`add_stripe`]: `x[i] += y[i]`.
#[inline]
pub fn add_stripe_assign(x: &mut [u64], y: &[u64], policy: SimdPolicy) {
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() && x.len() >= LANES {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::add_assign(x, y) };
        return;
    }
    let _ = policy;
    for i in 0..x.len() {
        x[i] = p_add(x[i], y[i]);
    }
}

/// In-place [`sub_stripe`]: `x[i] -= y[i]`.
#[inline]
pub fn sub_stripe_assign(x: &mut [u64], y: &[u64], policy: SimdPolicy) {
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() && x.len() >= LANES {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::sub_assign(x, y) };
        return;
    }
    let _ = policy;
    for i in 0..x.len() {
        x[i] = p_sub(x[i], y[i]);
    }
}

/// In-place [`neg_stripe`]: `x[i] = -x[i]`.
#[inline]
pub fn neg_stripe_assign(x: &mut [u64], policy: SimdPolicy) {
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() && x.len() >= LANES {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::neg_assign(x) };
        return;
    }
    let _ = policy;
    for x in x.iter_mut() {
        *x = p_neg(*x);
    }
}

/// One whole forward butterfly stage: `a` is partitioned into
/// `twiddles.len()` consecutive groups of `2·t` elements, and group `i`
/// applies the Cooley–Tukey butterfly with twiddle `twiddles[i]` between
/// its two halves (lazy arithmetic; `canonical` fuses the normalization
/// into the transform's last stage).
///
/// Hoisting the group loop under a single dispatch keeps per-group call
/// and policy-check overhead off the hot path, and lets the AVX2 back end
/// vectorize the `t < LANES` final stages *across* groups with in-register
/// shuffles instead of falling back to scalar tails.
#[inline]
pub fn forward_stage(
    a: &mut [u64],
    twiddles: &[u64],
    t: usize,
    canonical: bool,
    policy: SimdPolicy,
) {
    debug_assert_eq!(a.len(), 2 * t * twiddles.len());
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::forward_stage(a, twiddles, t, canonical) };
        return;
    }
    let _ = policy;
    for (i, &s) in twiddles.iter().enumerate() {
        let j1 = 2 * i * t;
        for j in j1..j1 + t {
            let u = a[j];
            let v = p_mul_lazy(a[j + t], s);
            let (x, y) = (p_add_lazy(u, v), p_sub_lazy(u, v));
            if canonical {
                a[j] = p_canonical(x);
                a[j + t] = p_canonical(y);
            } else {
                a[j] = x;
                a[j + t] = y;
            }
        }
    }
}

/// One whole inverse (Gentleman–Sande) butterfly stage over the same group
/// layout as [`forward_stage`]: group `i` computes `lo, hi = lo + hi,
/// (lo - hi)·twiddles[i]` between its halves. All outputs stay lazy — the
/// inverse transform's final scaling pass ([`scale_canonical`])
/// canonicalizes.
#[inline]
pub fn inverse_stage(a: &mut [u64], twiddles: &[u64], t: usize, policy: SimdPolicy) {
    debug_assert_eq!(a.len(), 2 * t * twiddles.len());
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::inverse_stage(a, twiddles, t) };
        return;
    }
    let _ = policy;
    for (i, &s) in twiddles.iter().enumerate() {
        let j1 = 2 * i * t;
        for j in j1..j1 + t {
            let (x, y) = (a[j], a[j + t]);
            a[j] = p_add_lazy(x, y);
            a[j + t] = p_mul_lazy(p_sub_lazy(x, y), s);
        }
    }
}

/// Multiplies every (possibly lazy) value by the canonical scalar `k` with a
/// full canonicalizing reduction — the inverse NTT's final `n^{-1}` pass.
#[inline]
pub fn scale_canonical(a: &mut [u64], k: u64, policy: SimdPolicy) {
    #[cfg(target_arch = "x86_64")]
    if policy.is_vectorized() && a.len() >= LANES {
        // SAFETY: `Avx2` is only ever granted when the CPU reports AVX2.
        unsafe { avx2::scale(a, k) };
        return;
    }
    let _ = policy;
    for x in a.iter_mut() {
        *x = p_mul(*x, k);
    }
}

// ---------------------------------------------------------------------------
// AVX2 back end (x86-64 only, stable std::arch)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    //! Four-lane (4 × u64) implementations of the dispatch kernels above.
    //!
    //! Every function carries `#[target_feature(enable = "avx2")]` and is
    //! reached only through the policy dispatch, which grants
    //! [`SimdPolicy::Avx2`](super::SimdPolicy::Avx2) exclusively on CPUs
    //! that report the feature. Tails shorter than one vector run the same
    //! scalar lazy algorithm, so representatives match lane-for-lane.

    use super::{p_add_lazy, p_canonical, p_mul_lazy, p_sub_lazy, EPSILON, LANES};
    use crate::poly::{p_add, p_mul, p_neg, p_sub, MODULUS};
    use core::arch::x86_64::*;

    /// Splat of the sign bit, for unsigned lane compares via sign-flip.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sign_bit() -> __m256i {
        _mm256_set1_epi64x(i64::MIN)
    }

    /// Per-lane unsigned `a < b` mask (`cmpgt_epi64` is signed; xor-ing the
    /// sign bit into both operands makes it behave unsigned).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lt_u64(a: __m256i, b: __m256i) -> __m256i {
        let s = sign_bit();
        _mm256_cmpgt_epi64(_mm256_xor_si256(b, s), _mm256_xor_si256(a, s))
    }

    /// Lazy add: `a + b` with up to two `+ε` wrap compensations (the exact
    /// algorithm of [`p_add_lazy`], four lanes at a time).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_lazy(a: __m256i, b: __m256i) -> __m256i {
        let eps = _mm256_set1_epi64x(EPSILON as i64);
        let sum = _mm256_add_epi64(a, b);
        let wrapped = lt_u64(sum, a);
        let sum2 = _mm256_add_epi64(sum, _mm256_and_si256(wrapped, eps));
        // A second wrap is only possible where the first correction applied
        // (adding 0 cannot wrap), so `sum2 < sum` already implies it.
        let wrapped2 = lt_u64(sum2, sum);
        _mm256_add_epi64(sum2, _mm256_and_si256(wrapped2, eps))
    }

    /// Lazy subtract: `a - b` with up to two `-ε` borrow compensations
    /// (mirror of [`add_lazy`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sub_lazy(a: __m256i, b: __m256i) -> __m256i {
        let eps = _mm256_set1_epi64x(EPSILON as i64);
        let diff = _mm256_sub_epi64(a, b);
        let borrowed = lt_u64(a, b);
        let correction = _mm256_and_si256(borrowed, eps);
        let diff2 = _mm256_sub_epi64(diff, correction);
        let borrowed2 = lt_u64(diff, correction);
        _mm256_sub_epi64(diff2, _mm256_and_si256(borrowed2, eps))
    }

    /// Canonicalizes lazy lanes: one conditional subtract (every lazy value
    /// is `< 2^64 < 2p`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn canonical(x: __m256i) -> __m256i {
        let p = _mm256_set1_epi64x(MODULUS as i64);
        let below = lt_u64(x, p);
        _mm256_sub_epi64(x, _mm256_andnot_si256(below, p))
    }

    /// Full 64×64→128 lane product synthesized from four 32×32→64 partial
    /// products (`_mm256_mul_epu32` multiplies the low halves of each lane).
    /// Returns `(hi, lo)` 64-bit halves.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_64_64(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
        let mask32 = _mm256_set1_epi64x(EPSILON as i64);
        let a_hi = _mm256_srli_epi64(a, 32);
        let b_hi = _mm256_srli_epi64(b, 32);
        let ll = _mm256_mul_epu32(a, b);
        let lh = _mm256_mul_epu32(a, b_hi);
        let hl = _mm256_mul_epu32(a_hi, b);
        let hh = _mm256_mul_epu32(a_hi, b_hi);
        // t = hl + (ll >> 32): at most (2^32-1)^2 + (2^32-1) < 2^64, no wrap.
        let t = _mm256_add_epi64(hl, _mm256_srli_epi64(ll, 32));
        // u = lh + (t & mask32): same bound, no wrap.
        let u = _mm256_add_epi64(lh, _mm256_and_si256(t, mask32));
        let hi = _mm256_add_epi64(
            hh,
            _mm256_add_epi64(_mm256_srli_epi64(t, 32), _mm256_srli_epi64(u, 32)),
        );
        // lo = (u << 32) | (ll & mask32): interleave the 32-bit halves.
        let lo = _mm256_blend_epi32::<0b1010_1010>(ll, _mm256_slli_epi64(u, 32));
        (hi, lo)
    }

    /// Lazy Goldilocks reduction of `(hi, lo)` lane pairs — the vector twin
    /// of [`super::reduce128_lazy`], identical correction algorithm.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn reduce128_lazy_v(hi: __m256i, lo: __m256i) -> __m256i {
        let eps = _mm256_set1_epi64x(EPSILON as i64);
        let mask32 = eps;
        let hi_hi = _mm256_srli_epi64(hi, 32);
        let hi_lo = _mm256_and_si256(hi, mask32);
        // t0 = lo - hi_hi, compensating a borrow with -ε (cannot re-borrow).
        let borrowed = lt_u64(lo, hi_hi);
        let t0 = _mm256_sub_epi64(_mm256_sub_epi64(lo, hi_hi), _mm256_and_si256(borrowed, eps));
        // t1 = hi_lo·ε = (hi_lo << 32) - hi_lo (fits: hi_lo < 2^32).
        let t1 = _mm256_sub_epi64(_mm256_slli_epi64(hi_lo, 32), hi_lo);
        // r = t0 + t1, compensating a wrap with +ε (cannot re-wrap: the
        // wrapped sum is at most 2^64 - 2^33).
        let sum = _mm256_add_epi64(t0, t1);
        let wrapped = lt_u64(sum, t0);
        _mm256_add_epi64(sum, _mm256_and_si256(wrapped, eps))
    }

    /// Lazy lane product: `a·b` reduced to `[0, 2^64)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_lazy(a: __m256i, b: __m256i) -> __m256i {
        let (hi, lo) = mul_64_64(a, b);
        reduce128_lazy_v(hi, lo)
    }

    /// Lazy fused multiply-add `a·b + c` (128-bit accumulate, one lazy
    /// reduction): the vector twin of `p_mul_add` minus canonicalization.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul_add_lazy(a: __m256i, b: __m256i, c: __m256i) -> __m256i {
        let (hi, lo) = mul_64_64(a, b);
        let lo2 = _mm256_add_epi64(lo, c);
        // Carry into the high half: the mask is all-ones (-1) on wrapped
        // lanes, so subtracting it adds one. `hi ≤ 2^64 - 2` so no wrap.
        let carried = lt_u64(lo2, lo);
        let hi2 = _mm256_sub_epi64(hi, carried);
        reduce128_lazy_v(hi2, lo2)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load(p: &[u64], i: usize) -> __m256i {
        unsafe { _mm256_loadu_si256(p.as_ptr().add(i) as *const __m256i) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store(p: &mut [u64], i: usize, v: __m256i) {
        unsafe { _mm256_storeu_si256(p.as_mut_ptr().add(i) as *mut __m256i, v) }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mul2(x0: &[u64], x1: &[u64], m: &[u64], o0: &mut [u64], o1: &mut [u64]) {
        let n = o0.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds every 4-lane access below.
            unsafe {
                let mv = load(m, i);
                store(o0, i, canonical(mul_lazy(load(x0, i), mv)));
                store(o1, i, canonical(mul_lazy(load(x1, i), mv)));
            }
            i += 4;
        }
        while i < n {
            o0[i] = p_mul(x0[i], m[i]);
            o1[i] = p_mul(x1[i], m[i]);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn mul_add2(
        a0: &[u64],
        a1: &[u64],
        b0: &[u64],
        b1: &[u64],
        s0: &[u64],
        s1: &[u64],
        o0: &mut [u64],
        o1: &mut [u64],
    ) {
        let n = o0.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds every 4-lane access below.
            unsafe {
                let (a0v, a1v) = (load(a0, i), load(a1, i));
                let (b0v, b1v) = (load(b0, i), load(b1, i));
                let c2 = mul_lazy(a1v, b1v);
                let t0 = mul_add_lazy(c2, load(s0, i), mul_lazy(a0v, b0v));
                let inner = mul_add_lazy(a1v, b0v, mul_lazy(a0v, b1v));
                let t1 = mul_add_lazy(c2, load(s1, i), inner);
                store(o0, i, canonical(t0));
                store(o1, i, canonical(t1));
            }
            i += 4;
        }
        while i < n {
            let c2 = p_mul_lazy(a1[i], b1[i]);
            let t0 = mul_add_lazy_scalar(c2, s0[i], p_mul_lazy(a0[i], b0[i]));
            let inner = mul_add_lazy_scalar(a1[i], b0[i], p_mul_lazy(a0[i], b1[i]));
            o0[i] = p_canonical(t0);
            o1[i] = p_canonical(mul_add_lazy_scalar(c2, s1[i], inner));
            i += 1;
        }
    }

    /// Scalar twin of [`mul_add_lazy`] for kernel tails.
    #[inline]
    fn mul_add_lazy_scalar(a: u64, b: u64, c: u64) -> u64 {
        super::reduce128_lazy(u128::from(a) * u128::from(b) + u128::from(c))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn galois2(
        src0: &[u64],
        src1: &[u64],
        perm: &[u32],
        key: &[u64],
        o0: &mut [u64],
        o1: &mut [u64],
    ) {
        let n = o0.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds the window accesses; every
            // permutation index is < degree = src0.len() = src1.len() by
            // construction of `galois_eval_permutation`.
            unsafe {
                let idx = _mm_loadu_si128(perm.as_ptr().add(i) as *const __m128i);
                let g0 = _mm256_i32gather_epi64::<8>(src0.as_ptr() as *const i64, idx);
                let g1 = _mm256_i32gather_epi64::<8>(src1.as_ptr() as *const i64, idx);
                let kv = load(key, i);
                store(o0, i, canonical(mul_lazy(g0, kv)));
                store(o1, i, canonical(mul_lazy(g1, kv)));
            }
            i += 4;
        }
        while i < n {
            let src = perm[i] as usize;
            o0[i] = p_mul(src0[src], key[i]);
            o1[i] = p_mul(src1[src], key[i]);
            i += 1;
        }
    }

    /// Four-lane Barrett product for a generic RNS limb prime
    /// `2^60 < q < 2^61`: the exact integer algorithm of
    /// [`crate::rns::barrett_mul`] (quotient estimate from
    /// `⌊(⌊x/2^60⌋·mu)/2^64⌋`, remainder in `[0, 3q)`, two conditional
    /// subtracts), so lanes are bit-identical to the scalar oracle.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn barrett_mul_v(a: __m256i, b: __m256i, qv: __m256i, muv: __m256i) -> __m256i {
        let (hi, lo) = mul_64_64(a, b);
        // x >> 60 = (hi << 4) | (lo >> 60); hi < 2^58 so no bits are lost.
        let shifted = _mm256_or_si256(_mm256_slli_epi64(hi, 4), _mm256_srli_epi64(lo, 60));
        let (q_hat, _) = mul_64_64(shifted, muv);
        let (_, prod_lo) = mul_64_64(q_hat, qv);
        // True value of x - q_hat·q is in [0, 3q) ⊂ [0, 2^64): the wrapped
        // low-word subtraction is exact.
        let mut r = _mm256_sub_epi64(lo, prod_lo);
        r = _mm256_sub_epi64(r, _mm256_andnot_si256(lt_u64(r, qv), qv));
        _mm256_sub_epi64(r, _mm256_andnot_si256(lt_u64(r, qv), qv))
    }

    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn mul2_q(
        x0: &[u64],
        x1: &[u64],
        m: &[u64],
        o0: &mut [u64],
        o1: &mut [u64],
        q: u64,
        mu: u64,
    ) {
        let n = o0.len();
        let qv = _mm256_set1_epi64x(q as i64);
        let muv = _mm256_set1_epi64x(mu as i64);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds every 4-lane access below.
            unsafe {
                let mv = load(m, i);
                store(o0, i, barrett_mul_v(load(x0, i), mv, qv, muv));
                store(o1, i, barrett_mul_v(load(x1, i), mv, qv, muv));
            }
            i += 4;
        }
        while i < n {
            o0[i] = crate::rns::barrett_mul(x0[i], m[i], q, mu);
            o1[i] = crate::rns::barrett_mul(x1[i], m[i], q, mu);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather(src: &[u64], perm: &[u32], out: &mut [u64]) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds the window accesses; every
            // permutation index is < src.len() by construction of
            // `galois_eval_permutation`.
            unsafe {
                let idx = _mm_loadu_si128(perm.as_ptr().add(i) as *const __m128i);
                let g = _mm256_i32gather_epi64::<8>(src.as_ptr() as *const i64, idx);
                store(out, i, g);
            }
            i += 4;
        }
        while i < n {
            out[i] = src[perm[i] as usize];
            i += 1;
        }
    }

    /// Canonical add of canonical lanes: a 64-bit wrap means the true sum is
    /// in `[2^64, 2p)`, whose canonical form is `wrapped + ε`; otherwise one
    /// conditional subtract finishes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn add_canonical(a: __m256i, b: __m256i) -> __m256i {
        let eps = _mm256_set1_epi64x(EPSILON as i64);
        let sum = _mm256_add_epi64(a, b);
        let wrapped = lt_u64(sum, a);
        canonical(_mm256_add_epi64(sum, _mm256_and_si256(wrapped, eps)))
    }

    /// Canonical subtract of canonical lanes: on borrow the true value is
    /// `a - b + p = wrapped - ε + 1`... computed as `wrapped + p` with
    /// wrapping, i.e. `wrapped - (2^64 - p) = wrapped - ε + ... `; simplest
    /// exact form: `a - b + p` when `a < b`, done branchlessly.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sub_canonical(a: __m256i, b: __m256i) -> __m256i {
        let p = _mm256_set1_epi64x(MODULUS as i64);
        let diff = _mm256_sub_epi64(a, b);
        let borrowed = lt_u64(a, b);
        // a, b canonical: a - b + p < p ≤ 2^64, and the wrapping add of p
        // to the wrapped difference yields exactly it.
        _mm256_add_epi64(diff, _mm256_and_si256(borrowed, p))
    }

    /// Canonical negate of canonical lanes: `0 - x` is `p - x` for `x ≠ 0`
    /// and `0` for `x = 0`, branchless via a zero mask.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn neg_canonical(x: __m256i) -> __m256i {
        let p = _mm256_set1_epi64x(MODULUS as i64);
        let zero = _mm256_setzero_si256();
        let is_zero = _mm256_cmpeq_epi64(x, zero);
        _mm256_andnot_si256(is_zero, _mm256_sub_epi64(p, x))
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add(x: &[u64], y: &[u64], out: &mut [u64]) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds every 4-lane access below.
            unsafe { store(out, i, add_canonical(load(x, i), load(y, i))) };
            i += 4;
        }
        while i < n {
            out[i] = p_add(x[i], y[i]);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub(x: &[u64], y: &[u64], out: &mut [u64]) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds every 4-lane access below.
            unsafe { store(out, i, sub_canonical(load(x, i), load(y, i))) };
            i += 4;
        }
        while i < n {
            out[i] = p_sub(x[i], y[i]);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn neg(x: &[u64], out: &mut [u64]) {
        let n = out.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds every 4-lane access below.
            unsafe { store(out, i, neg_canonical(load(x, i))) };
            i += 4;
        }
        while i < n {
            out[i] = p_neg(x[i]);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn add_assign(x: &mut [u64], y: &[u64]) {
        let n = x.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds every 4-lane access below.
            unsafe { store(x, i, add_canonical(load(x, i), load(y, i))) };
            i += 4;
        }
        while i < n {
            x[i] = p_add(x[i], y[i]);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sub_assign(x: &mut [u64], y: &[u64]) {
        let n = x.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds every 4-lane access below.
            unsafe { store(x, i, sub_canonical(load(x, i), load(y, i))) };
            i += 4;
        }
        while i < n {
            x[i] = p_sub(x[i], y[i]);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn neg_assign(x: &mut [u64]) {
        let n = x.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds every 4-lane access below.
            unsafe { store(x, i, neg_canonical(load(x, i))) };
            i += 4;
        }
        while i < n {
            x[i] = p_neg(x[i]);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn forward_butterfly(
        lo: &mut [u64],
        hi: &mut [u64],
        s: u64,
        canonicalize: bool,
    ) {
        let n = lo.len();
        let sv = _mm256_set1_epi64x(s as i64);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds every 4-lane access below.
            unsafe {
                let u = load(lo, i);
                let v = mul_lazy(load(hi, i), sv);
                let (mut a, mut b) = (add_lazy(u, v), sub_lazy(u, v));
                if canonicalize {
                    a = canonical(a);
                    b = canonical(b);
                }
                store(lo, i, a);
                store(hi, i, b);
            }
            i += 4;
        }
        while i < n {
            let x = lo[i];
            let y = p_mul_lazy(hi[i], s);
            let (a, b) = (p_add_lazy(x, y), p_sub_lazy(x, y));
            if canonicalize {
                lo[i] = p_canonical(a);
                hi[i] = p_canonical(b);
            } else {
                lo[i] = a;
                hi[i] = b;
            }
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn inverse_butterfly(lo: &mut [u64], hi: &mut [u64], s: u64) {
        let n = lo.len();
        let sv = _mm256_set1_epi64x(s as i64);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds every 4-lane access below.
            unsafe {
                let u = load(lo, i);
                let v = load(hi, i);
                store(lo, i, add_lazy(u, v));
                store(hi, i, mul_lazy(sub_lazy(u, v), sv));
            }
            i += 4;
        }
        while i < n {
            let (x, y) = (lo[i], hi[i]);
            lo[i] = p_add_lazy(x, y);
            hi[i] = p_mul_lazy(p_sub_lazy(x, y), s);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn forward_stage(
        a: &mut [u64],
        twiddles: &[u64],
        t: usize,
        canonicalize: bool,
    ) {
        if t >= LANES {
            for (i, &s) in twiddles.iter().enumerate() {
                let (lo, hi) = a[2 * i * t..2 * (i + 1) * t].split_at_mut(t);
                // SAFETY: AVX2 is available in this target_feature context.
                unsafe { forward_butterfly(lo, hi, s, canonicalize) };
            }
        } else if t == 2 {
            // SAFETY: as above.
            unsafe { forward_stage_t2(a, twiddles, canonicalize) };
        } else {
            debug_assert_eq!(t, 1);
            // SAFETY: as above.
            unsafe { forward_stage_t1(a, twiddles, canonicalize) };
        }
    }

    /// Penultimate-stage butterflies (`t == 2`): groups of four elements
    /// `[lo0 lo1 hi0 hi1]`, one twiddle per group. Two groups per
    /// iteration: `permute2x128` splits the 128-bit group halves into
    /// cross-group `lo`/`hi` vectors and re-interleaves the results.
    #[target_feature(enable = "avx2")]
    unsafe fn forward_stage_t2(a: &mut [u64], twiddles: &[u64], canonicalize: bool) {
        let m = twiddles.len();
        let mut i = 0;
        while i + 2 <= m {
            // SAFETY: groups i and i+1 span elements 4i..4i+8 of `a`, in
            // bounds because i + 2 <= m and a.len() == 4m.
            unsafe {
                let v0 = load(a, 4 * i);
                let v1 = load(a, 4 * i + 4);
                let lo = _mm256_permute2x128_si256::<0x20>(v0, v1);
                let hi = _mm256_permute2x128_si256::<0x31>(v0, v1);
                let (s0, s1) = (twiddles[i] as i64, twiddles[i + 1] as i64);
                let tw = _mm256_set_epi64x(s1, s1, s0, s0);
                let y = mul_lazy(hi, tw);
                let (mut p, mut q) = (add_lazy(lo, y), sub_lazy(lo, y));
                if canonicalize {
                    p = canonical(p);
                    q = canonical(q);
                }
                store(a, 4 * i, _mm256_permute2x128_si256::<0x20>(p, q));
                store(a, 4 * i + 4, _mm256_permute2x128_si256::<0x31>(p, q));
            }
            i += 2;
        }
        while i < m {
            let s = twiddles[i];
            for j in 4 * i..4 * i + 2 {
                let u = a[j];
                let v = p_mul_lazy(a[j + 2], s);
                let (x, y) = (p_add_lazy(u, v), p_sub_lazy(u, v));
                if canonicalize {
                    a[j] = p_canonical(x);
                    a[j + 2] = p_canonical(y);
                } else {
                    a[j] = x;
                    a[j + 2] = y;
                }
            }
            i += 1;
        }
    }

    /// Final-stage butterflies (`t == 1`): adjacent pairs
    /// `(a[2i], a[2i+1])`, each with its own twiddle. Four pairs per
    /// iteration: `unpacklo/hi_epi64` de-interleave the pairs into
    /// `lo`/`hi` vectors in lane order `(0, 2, 1, 3)`, the twiddle vector
    /// is permuted to match, and the same unpacks re-interleave the
    /// results.
    #[target_feature(enable = "avx2")]
    unsafe fn forward_stage_t1(a: &mut [u64], twiddles: &[u64], canonicalize: bool) {
        let m = twiddles.len();
        let mut i = 0;
        while i + 4 <= m {
            // SAFETY: pairs i..i+4 span elements 2i..2i+8 of `a`, in bounds
            // because i + 4 <= m and a.len() == 2m; twiddles i..i+4 likewise.
            unsafe {
                let v0 = load(a, 2 * i);
                let v1 = load(a, 2 * i + 4);
                let lo = _mm256_unpacklo_epi64(v0, v1);
                let hi = _mm256_unpackhi_epi64(v0, v1);
                let tw = _mm256_permute4x64_epi64::<0xD8>(load(twiddles, i));
                let y = mul_lazy(hi, tw);
                let (mut p, mut q) = (add_lazy(lo, y), sub_lazy(lo, y));
                if canonicalize {
                    p = canonical(p);
                    q = canonical(q);
                }
                store(a, 2 * i, _mm256_unpacklo_epi64(p, q));
                store(a, 2 * i + 4, _mm256_unpackhi_epi64(p, q));
            }
            i += 4;
        }
        while i < m {
            let u = a[2 * i];
            let v = p_mul_lazy(a[2 * i + 1], twiddles[i]);
            let (x, y) = (p_add_lazy(u, v), p_sub_lazy(u, v));
            if canonicalize {
                a[2 * i] = p_canonical(x);
                a[2 * i + 1] = p_canonical(y);
            } else {
                a[2 * i] = x;
                a[2 * i + 1] = y;
            }
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn inverse_stage(a: &mut [u64], twiddles: &[u64], t: usize) {
        if t >= LANES {
            for (i, &s) in twiddles.iter().enumerate() {
                let (lo, hi) = a[2 * i * t..2 * (i + 1) * t].split_at_mut(t);
                // SAFETY: AVX2 is available in this target_feature context.
                unsafe { inverse_butterfly(lo, hi, s) };
            }
        } else if t == 2 {
            // SAFETY: as above.
            unsafe { inverse_stage_t2(a, twiddles) };
        } else {
            debug_assert_eq!(t, 1);
            // SAFETY: as above.
            unsafe { inverse_stage_t1(a, twiddles) };
        }
    }

    /// Gentleman–Sande mirror of [`forward_stage_t2`] (same lane
    /// choreography, inverse butterfly compute).
    #[target_feature(enable = "avx2")]
    unsafe fn inverse_stage_t2(a: &mut [u64], twiddles: &[u64]) {
        let m = twiddles.len();
        let mut i = 0;
        while i + 2 <= m {
            // SAFETY: groups i and i+1 span elements 4i..4i+8 of `a`, in
            // bounds because i + 2 <= m and a.len() == 4m.
            unsafe {
                let v0 = load(a, 4 * i);
                let v1 = load(a, 4 * i + 4);
                let lo = _mm256_permute2x128_si256::<0x20>(v0, v1);
                let hi = _mm256_permute2x128_si256::<0x31>(v0, v1);
                let (s0, s1) = (twiddles[i] as i64, twiddles[i + 1] as i64);
                let tw = _mm256_set_epi64x(s1, s1, s0, s0);
                let p = add_lazy(lo, hi);
                let q = mul_lazy(sub_lazy(lo, hi), tw);
                store(a, 4 * i, _mm256_permute2x128_si256::<0x20>(p, q));
                store(a, 4 * i + 4, _mm256_permute2x128_si256::<0x31>(p, q));
            }
            i += 2;
        }
        while i < m {
            let s = twiddles[i];
            for j in 4 * i..4 * i + 2 {
                let (x, y) = (a[j], a[j + 2]);
                a[j] = p_add_lazy(x, y);
                a[j + 2] = p_mul_lazy(p_sub_lazy(x, y), s);
            }
            i += 1;
        }
    }

    /// Gentleman–Sande mirror of [`forward_stage_t1`] (same lane
    /// choreography, inverse butterfly compute).
    #[target_feature(enable = "avx2")]
    unsafe fn inverse_stage_t1(a: &mut [u64], twiddles: &[u64]) {
        let m = twiddles.len();
        let mut i = 0;
        while i + 4 <= m {
            // SAFETY: pairs i..i+4 span elements 2i..2i+8 of `a`, in bounds
            // because i + 4 <= m and a.len() == 2m; twiddles i..i+4 likewise.
            unsafe {
                let v0 = load(a, 2 * i);
                let v1 = load(a, 2 * i + 4);
                let lo = _mm256_unpacklo_epi64(v0, v1);
                let hi = _mm256_unpackhi_epi64(v0, v1);
                let tw = _mm256_permute4x64_epi64::<0xD8>(load(twiddles, i));
                let p = add_lazy(lo, hi);
                let q = mul_lazy(sub_lazy(lo, hi), tw);
                store(a, 2 * i, _mm256_unpacklo_epi64(p, q));
                store(a, 2 * i + 4, _mm256_unpackhi_epi64(p, q));
            }
            i += 4;
        }
        while i < m {
            let (x, y) = (a[2 * i], a[2 * i + 1]);
            a[2 * i] = p_add_lazy(x, y);
            a[2 * i + 1] = p_mul_lazy(p_sub_lazy(x, y), twiddles[i]);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scale(a: &mut [u64], k: u64) {
        let n = a.len();
        let kv = _mm256_set1_epi64x(k as i64);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: `i + 4 <= n` bounds every 4-lane access below.
            unsafe { store(a, i, canonical(mul_lazy(load(a, i), kv))) };
            i += 4;
        }
        while i < n {
            a[i] = p_mul(a[i], k);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::{p_add, p_mul, p_mul_add, p_neg, p_sub};

    /// Deterministic pseudo-random u64s (full range — lazy inputs need not
    /// be canonical).
    fn random_raw(n: usize, seed: u64) -> Vec<u64> {
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

    fn random_canonical(n: usize, seed: u64) -> Vec<u64> {
        random_raw(n, seed)
            .into_iter()
            .map(|v| v % MODULUS)
            .collect()
    }

    /// Boundary-heavy operand set for the lazy primitives.
    fn boundary_values() -> Vec<u64> {
        vec![
            0,
            1,
            2,
            EPSILON - 1,
            EPSILON,
            EPSILON + 1,
            1 << 32,
            MODULUS - 2,
            MODULUS - 1,
            MODULUS,
            MODULUS + 1,
            u64::MAX - 1,
            u64::MAX,
        ]
    }

    #[test]
    fn lazy_primitives_preserve_residue_classes() {
        let class = |x: u64| x % MODULUS;
        let mut values = boundary_values();
        values.extend(random_raw(256, 0x1A2B));
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    class(p_add_lazy(a, b)),
                    class(((u128::from(a) + u128::from(b)) % u128::from(MODULUS)) as u64),
                    "add a={a:#x} b={b:#x}"
                );
                let expected_sub = (u128::from(a) + 2 * u128::from(MODULUS) - u128::from(class(b)))
                    % u128::from(MODULUS);
                assert_eq!(
                    u128::from(class(p_sub_lazy(a, b))),
                    expected_sub % u128::from(MODULUS),
                    "sub a={a:#x} b={b:#x}"
                );
                assert_eq!(
                    class(p_mul_lazy(a, b)),
                    ((u128::from(a) * u128::from(b)) % u128::from(MODULUS)) as u64,
                    "mul a={a:#x} b={b:#x}"
                );
            }
        }
    }

    #[test]
    fn canonicalization_of_lazy_values_matches_full_reduction() {
        let mut values = boundary_values();
        values.extend(random_raw(512, 0x77));
        for &v in &values {
            assert_eq!(p_canonical(reduce128_lazy(u128::from(v))), v % MODULUS);
        }
        // p_canonical itself on arbitrary u64 (every u64 is < 2p).
        for &v in &values {
            assert_eq!(
                p_canonical(v),
                v.wrapping_sub(if v >= MODULUS { MODULUS } else { 0 })
            );
        }
    }

    #[test]
    fn policy_resolution_and_names() {
        let detected = SimdPolicy::detected();
        assert!(matches!(detected, SimdPolicy::Scalar | SimdPolicy::Avx2));
        assert_eq!(SimdPolicy::Scalar.name(), "scalar");
        assert_eq!(SimdPolicy::Avx2.name(), "avx2");
        assert!(!SimdPolicy::Scalar.is_vectorized());
        // set_global(Avx2) grants at most what the CPU has.
        SimdPolicy::set_global(SimdPolicy::Avx2);
        assert_eq!(SimdPolicy::global(), detected);
        SimdPolicy::set_global(SimdPolicy::Scalar);
        assert_eq!(SimdPolicy::global(), SimdPolicy::Scalar);
        SimdPolicy::set_global(detected);
    }

    /// Every dispatch kernel, SIMD vs scalar, on ragged lengths (forcing
    /// both the vector body and the scalar tail) and boundary-heavy data.
    #[test]
    fn simd_kernels_are_bit_identical_to_scalar() {
        let policies = [SimdPolicy::Scalar, SimdPolicy::detected()];
        for &n in &[1usize, 3, 4, 5, 8, 31, 64, 257] {
            let mut x0 = random_canonical(n, 0xA0);
            let x1 = random_canonical(n, 0xA1);
            let m = random_canonical(n, 0xA2);
            // Seed boundary values into the first lanes.
            for (slot, v) in x0.iter_mut().zip([0, MODULUS - 1, 1, MODULUS - 2]) {
                *slot = v;
            }

            let run = |policy: SimdPolicy| {
                let mut o: Vec<Vec<u64>> = Vec::new();
                let pair = |f: &dyn Fn(&mut [u64], &mut [u64])| {
                    let (mut a, mut b) = (vec![0u64; n], vec![0u64; n]);
                    f(&mut a, &mut b);
                    (a, b)
                };
                let (a, b) = pair(&|o0, o1| mul2_chunk(&x0, &x1, &m, o0, o1, policy));
                o.extend([a, b]);
                let (a, b) =
                    pair(&|o0, o1| mul_add2_chunk(&x0, &x1, &m, &x1, &m, &x0, o0, o1, policy));
                o.extend([a, b]);
                let perm: Vec<u32> = (0..n as u32).map(|i| (i * 7 + 3) % n as u32).collect();
                let (a, b) = pair(&|o0, o1| galois2_chunk(&x0, &x1, &perm, &m, o0, o1, policy));
                o.extend([a, b]);
                let (a, b) = pair(&|o0, o1| {
                    add_stripe(&x0, &x1, o0, policy);
                    sub_stripe(&x0, &x1, o1, policy);
                });
                o.extend([a, b]);
                let mut neg = vec![0u64; n];
                neg_stripe(&x0, &mut neg, policy);
                o.push(neg);
                let mut acc = x0.clone();
                add_stripe_assign(&mut acc, &x1, policy);
                let mut acc2 = x0.clone();
                sub_stripe_assign(&mut acc2, &x1, policy);
                let mut acc3 = x0.clone();
                neg_stripe_assign(&mut acc3, policy);
                o.extend([acc, acc2, acc3]);
                o
            };
            assert_eq!(run(policies[0]), run(policies[1]), "n={n}");
        }
    }

    #[test]
    fn lazy_butterflies_canonicalize_to_eager_results() {
        for &n in &[1usize, 4, 7, 64] {
            let lo0 = random_canonical(n, 0xB0);
            let hi0 = random_canonical(n, 0xB1);
            let s = 0x1234_5678_9ABC_DEF1 % MODULUS;
            for policy in [SimdPolicy::Scalar, SimdPolicy::detected()] {
                // One-twiddle stages: a single group `[lo | hi]` with `t = n`.
                // Forward, canonical output fused into the stage.
                let mut a = [lo0.clone(), hi0.clone()].concat();
                forward_stage(&mut a, &[s], n, true, policy);
                let (lo, hi) = a.split_at(n);
                for i in 0..n {
                    let v = p_mul(hi0[i], s);
                    assert_eq!(lo[i], p_add(lo0[i], v), "{policy:?} fwd lo {i}");
                    assert_eq!(hi[i], p_sub(lo0[i], v), "{policy:?} fwd hi {i}");
                }
                // Inverse stays lazy; canonicalizing must match eager.
                let mut a = [lo0.clone(), hi0.clone()].concat();
                inverse_stage(&mut a, &[s], n, policy);
                let (lo, hi) = a.split_at(n);
                for i in 0..n {
                    assert_eq!(
                        p_canonical(lo[i]),
                        p_add(lo0[i], hi0[i]),
                        "{policy:?} inv lo {i}"
                    );
                    assert_eq!(
                        p_canonical(hi[i]),
                        p_mul(p_sub(lo0[i], hi0[i]), s),
                        "{policy:?} inv hi {i}"
                    );
                }
                // Scaling canonicalizes lazy inputs exactly.
                let mut vals = random_raw(n, 0xB2);
                let reference: Vec<u64> = vals.iter().map(|&v| p_mul(v % MODULUS, s)).collect();
                // Make inputs lazy residues of the same classes.
                for v in vals.iter_mut() {
                    *v %= MODULUS;
                }
                scale_canonical(&mut vals, s, policy);
                assert_eq!(vals, reference, "{policy:?} scale");
            }
        }
    }

    #[test]
    fn fused_mul_add_matches_eager_composition() {
        let n = 37;
        let a0 = random_canonical(n, 1);
        let a1 = random_canonical(n, 2);
        let b0 = random_canonical(n, 3);
        let b1 = random_canonical(n, 4);
        let s0 = random_canonical(n, 5);
        let s1 = random_canonical(n, 6);
        for policy in [SimdPolicy::Scalar, SimdPolicy::detected()] {
            let (mut o0, mut o1) = (vec![0u64; n], vec![0u64; n]);
            mul_add2_chunk(&a0, &a1, &b0, &b1, &s0, &s1, &mut o0, &mut o1, policy);
            for i in 0..n {
                let c2 = p_mul(a1[i], b1[i]);
                assert_eq!(o0[i], p_mul_add(c2, s0[i], p_mul(a0[i], b0[i])));
                assert_eq!(
                    o1[i],
                    p_mul_add(c2, s1[i], p_mul_add(a1[i], b0[i], p_mul(a0[i], b1[i])))
                );
            }
        }
    }

    #[test]
    fn barrett_mul2_chunk_is_bit_identical_across_policies() {
        let chain = crate::rns::ModulusChain::new(2, 64, false);
        let (q, mu) = (chain.limb(1).modulus(), chain.limb(1).mu());
        for &n in &[1usize, 3, 4, 5, 8, 31, 64, 257] {
            let reduce = |v: Vec<u64>| -> Vec<u64> { v.into_iter().map(|x| x % q).collect() };
            let mut x0 = reduce(random_raw(n, 0xC0));
            let x1 = reduce(random_raw(n, 0xC1));
            let m = reduce(random_raw(n, 0xC2));
            for (slot, v) in x0.iter_mut().zip([0, q - 1, 1, q - 2]) {
                *slot = v;
            }
            let run = |policy: SimdPolicy| {
                let (mut o0, mut o1) = (vec![0u64; n], vec![0u64; n]);
                mul2_chunk_q(&x0, &x1, &m, &mut o0, &mut o1, q, mu, policy);
                (o0, o1)
            };
            let (s0, s1) = run(SimdPolicy::Scalar);
            assert_eq!(
                (s0.clone(), s1.clone()),
                run(SimdPolicy::detected()),
                "n={n}"
            );
            for i in 0..n {
                let expect = ((u128::from(x0[i]) * u128::from(m[i])) % u128::from(q)) as u64;
                assert_eq!(s0[i], expect, "n={n} i={i}");
            }
        }
    }

    #[test]
    fn gather_chunk_is_bit_identical_across_policies() {
        for &n in &[1usize, 4, 7, 64, 255] {
            let src = random_raw(n, 0xD0);
            let perm: Vec<u32> = (0..n as u32).map(|i| (i * 11 + 5) % n as u32).collect();
            let run = |policy: SimdPolicy| {
                let mut out = vec![0u64; n];
                gather_chunk(&src, &perm, &mut out, policy);
                out
            };
            let scalar = run(SimdPolicy::Scalar);
            assert_eq!(scalar, run(SimdPolicy::detected()), "n={n}");
            for i in 0..n {
                assert_eq!(scalar[i], src[perm[i] as usize]);
            }
        }
    }

    #[test]
    fn neg_of_zero_stays_zero_under_simd() {
        let x = vec![0u64, MODULUS - 1, 0, 5, 0, 0, 1, 0];
        for policy in [SimdPolicy::Scalar, SimdPolicy::detected()] {
            let mut out = vec![9u64; x.len()];
            neg_stripe(&x, &mut out, policy);
            let expected: Vec<u64> = x.iter().map(|&v| p_neg(v)).collect();
            assert_eq!(out, expected, "{policy:?}");
        }
    }
}
