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
//! # One definition per kernel
//!
//! Every payload and NTT kernel is written once, over two axes:
//!
//! * a `Lane` — how many residues move together: `u64` (one; its methods
//!   are the scalar primitives below and [`crate::rns`]'s Barrett family),
//!   or one of the two private vectors of `mod x86`, which run the same
//!   correction algorithms element-wise on stable `std::arch` intrinsics:
//!   four wide on AVX2 (64×64→128 products synthesized from
//!   `_mm256_mul_epu32` partial products, unsigned compares from the
//!   sign-flip trick, corrections as `and`-masked adds) and eight wide on
//!   AVX-512 F (the same products from `_mm512_mul_epu32`, native unsigned
//!   mask compares, corrections as masked adds and subtracts);
//! * a `Modulus` — which prime the lane is reduced under: `Goldilocks`
//!   (the lazy ε-identity sequence above, one canonicalization per stored
//!   value) or `Barrett` (a generic RNS limb prime, canonical throughout).
//!
//! A `Pointwise` kernel states its arithmetic for one lane at index `i`;
//! the one lane walk (`Kernel::run`) asserts the kernel's slice lengths,
//! covers whole lanes, and finishes the ragged end with the `u64` lane.
//! `dispatch` picks the lane: [`SimdPolicy`] is resolved once per process
//! (the widest lane `is_x86_feature_detected!` reports, forcible to scalar
//! with `CHEHAB_SIMD=0`). The lane lives in one place, the modulus chain:
//! `ModulusChain::new` reads the policy once and every limb's `NttTables`
//! holds it, and every transform and payload kernel on the chain's
//! stripes runs through `NttTables::run` on that lane. No kernel takes a
//! policy, and no evaluator keeps one, so a session's arithmetic is
//! uniform for the life of its chain.
//!
//! Outputs are bit-identical on every instantiation by construction: a
//! canonical representative is unique, every stored value is canonical, and
//! the Goldilocks lazy sequence is the same function at every lane width —
//! so even the *lazy representatives* inside a transform agree.

// The one module in the crate allowed to use `unsafe`, for stable `std::arch`
// intrinsics. The invariant is stated once: the vector lanes are private to
// `mod x86` and instantiated only under that module's two `#[target_feature]`
// entries, which `dispatch` enters only after `is_x86_feature_detected!`.
#![allow(unsafe_code)]

use crate::poly::{p_add, MODULUS};
use crate::rns;
use std::hint::select_unpredictable;
use std::ops::Deref;
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
/// for testing), then read once by each modulus chain (and each standalone
/// `NttTables`) at construction. The scalar path is the bit-identity
/// oracle: outputs are identical under every policy. Policies are ordered
/// by lane width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdPolicy {
    /// Portable scalar kernels (the oracle and universal fallback).
    Scalar,
    /// AVX2 4-lane kernels (x86-64 only; selected only when the CPU
    /// supports it).
    Avx2,
    /// AVX-512 F 8-lane kernels (x86-64 only; selected only when the CPU
    /// supports it).
    Avx512,
}

/// Global policy cell: 0 = unresolved, else [`SimdPolicy::encode`].
static GLOBAL_POLICY: AtomicU8 = AtomicU8::new(0);

impl SimdPolicy {
    /// Every policy, narrowest lane first.
    pub const ALL: [SimdPolicy; 3] = [SimdPolicy::Scalar, SimdPolicy::Avx2, SimdPolicy::Avx512];

    /// `true` when this CPU can run the policy's lane.
    pub fn is_available(self) -> bool {
        match self {
            SimdPolicy::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdPolicy::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdPolicy::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest lane the CPU has, ignoring any override.
    pub fn detected() -> SimdPolicy {
        SimdPolicy::widest_up_to(SimdPolicy::Avx512)
    }

    /// `policy` if the CPU has its lane, else the widest narrower lane the
    /// CPU has.
    fn widest_up_to(policy: SimdPolicy) -> SimdPolicy {
        let granted = SimdPolicy::ALL
            .into_iter()
            .filter(|&p| p <= policy && p.is_available());
        granted.max().unwrap_or(SimdPolicy::Scalar)
    }

    /// The process-wide policy: the first call resolves `CHEHAB_SIMD`
    /// (`0` forces scalar, `1` requests the widest lane the CPU has)
    /// falling back to pure detection, and later calls return the cached
    /// decision. [`SimdPolicy::set_global`] overrides it at any time.
    pub fn global() -> SimdPolicy {
        let cached = SimdPolicy::ALL
            .into_iter()
            .find(|p| p.encode() == GLOBAL_POLICY.load(Ordering::Relaxed));
        if let Some(policy) = cached {
            return policy;
        }
        let resolved = match std::env::var("CHEHAB_SIMD").ok().as_deref() {
            Some("0") => SimdPolicy::Scalar,
            _ => SimdPolicy::detected(),
        };
        GLOBAL_POLICY.store(resolved.encode(), Ordering::Relaxed);
        resolved
    }

    /// Overrides the process-wide policy (tests and benches use this to run
    /// every back end in one process). The policy is granted if the CPU has
    /// its lane, else the widest lane below it that the CPU has — a
    /// narrower lane keeps outputs correct instead of faulting.
    pub fn set_global(policy: SimdPolicy) {
        let granted = SimdPolicy::widest_up_to(policy);
        GLOBAL_POLICY.store(granted.encode(), Ordering::Relaxed);
    }

    /// Human-readable name (`"scalar"` / `"avx2"` / `"avx512"`), used in
    /// bench JSON and metrics labels.
    pub fn name(self) -> &'static str {
        match self {
            SimdPolicy::Scalar => "scalar",
            SimdPolicy::Avx2 => "avx2",
            SimdPolicy::Avx512 => "avx512",
        }
    }

    fn encode(self) -> u8 {
        self as u8 + 1
    }
}

// ---------------------------------------------------------------------------
// The lane axis
// ---------------------------------------------------------------------------

/// An Eval-domain index permutation (`out[i] = in[perm[i]]`) whose
/// constructor proved every index in range, so a gather indexes a source of
/// the permutation's length without checking each entry. A slice type, like
/// the `[u32]` it dereferences to: owned as a `Box` or an `Arc`, handed to
/// kernels as `&GaloisPermutation`. Built by
/// [`crate::poly::galois_eval_permutation`].
#[derive(Debug, PartialEq, Eq)]
#[repr(transparent)]
pub struct GaloisPermutation([u32]);

impl GaloisPermutation {
    /// Wraps `indices` after checking each one.
    ///
    /// # Panics
    ///
    /// Panics if an index is not below `indices.len()`, or if there are more
    /// than `2^31` of them (the vector gather reads indices as `i32`).
    pub fn new(indices: Vec<u32>) -> Box<Self> {
        let n = indices.len();
        assert!(n <= 1 << 31, "a permutation holds at most 2^31 indices");
        assert!(
            indices.iter().all(|&i| (i as usize) < n),
            "permutation index out of range"
        );
        let indices = Box::into_raw(indices.into_boxed_slice());
        // SAFETY: `GaloisPermutation` is `repr(transparent)` over `[u32]`, so
        // the pointer `Box::into_raw` gave up is a valid box of either type.
        unsafe { Box::from_raw(indices as *mut GaloisPermutation) }
    }
}

impl Deref for GaloisPermutation {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.0
    }
}

/// The residues that move through a kernel together: one (`u64`), four (the
/// AVX2 vector of `mod x86`) or eight (its AVX-512 vector). The Goldilocks
/// methods take and return
/// lazy residues unless named `canonical`; the `mod q` methods take and
/// return canonical residues of `q`, with `q` and `mu` splatted.
pub(crate) trait Lane: Copy {
    /// Residues per lane.
    const WIDTH: usize;

    /// `x` in every position.
    fn splat(x: u64) -> Self;
    /// `src[i..i + WIDTH]`.
    fn load(src: &[u64], i: usize) -> Self;
    /// Writes the lane to `dst[i..i + WIDTH]`.
    fn store(self, dst: &mut [u64], i: usize);
    /// `src[perm[i + j]]` in position `j`; `src` is at least as long as
    /// `perm`.
    fn gather(src: &[u64], perm: &GaloisPermutation, i: usize) -> Self;

    /// Lazy Goldilocks `a + b` ([`p_add_lazy`]).
    fn add_lazy(self, b: Self) -> Self;
    /// Lazy Goldilocks `a - b` ([`p_sub_lazy`]).
    fn sub_lazy(self, b: Self) -> Self;
    /// Lazy Goldilocks `a·b` ([`p_mul_lazy`]).
    fn mul_lazy(self, b: Self) -> Self;
    /// Lazy Goldilocks `a·b + c`: 128-bit accumulate, one lazy reduction.
    fn mul_add_lazy(self, b: Self, c: Self) -> Self;
    /// The canonical representative of a lazy residue ([`p_canonical`]).
    fn canonical(self) -> Self;
    /// Canonical Goldilocks `a + b` of canonical operands.
    fn add_canonical(self, b: Self) -> Self;

    /// `a·b mod q` ([`rns::barrett_mul`]).
    fn barrett_mul(self, b: Self, q: Self, mu: Self) -> Self;
    /// `x mod q` for any word `x` ([`rns::barrett_mul`]`(x, 1, q, mu)`).
    fn barrett_reduce(self, q: Self, mu: Self) -> Self;
    /// `a + b mod q`, `q < 2^63`.
    fn add_mod(self, b: Self, q: Self) -> Self;
    /// `a - b mod q`, any `q` — Goldilocks included.
    fn sub_mod(self, b: Self, q: Self) -> Self;
    /// `-a mod q`, any `q`.
    fn neg_mod(self, q: Self) -> Self;

    /// Runs the leading groups of a butterfly stage whose half-width `t` is
    /// narrower than the lane, by moving values across groups into whole
    /// `(lo, hi, twiddle)` lanes for `butterfly`, and returns how many
    /// groups it covered (the rest, and every group of a stage at least as
    /// wide as the lane, are the caller's). The one-wide lane is never
    /// narrower than a stage: nothing to do.
    #[inline(always)]
    fn narrow_stage<B: Butterfly, M: Modulus>(
        _a: &mut [u64],
        _twiddles: &[u64],
        _t: usize,
        _butterfly: B,
        _m: M,
    ) -> usize {
        0
    }
}

impl Lane for u64 {
    const WIDTH: usize = 1;

    #[inline(always)]
    fn splat(x: u64) -> u64 {
        x
    }
    #[inline(always)]
    fn load(src: &[u64], i: usize) -> u64 {
        src[i]
    }
    #[inline(always)]
    fn store(self, dst: &mut [u64], i: usize) {
        dst[i] = self;
    }
    #[inline(always)]
    fn gather(src: &[u64], perm: &GaloisPermutation, i: usize) -> u64 {
        src[perm[i] as usize]
    }

    #[inline(always)]
    fn add_lazy(self, b: u64) -> u64 {
        p_add_lazy(self, b)
    }
    #[inline(always)]
    fn sub_lazy(self, b: u64) -> u64 {
        p_sub_lazy(self, b)
    }
    #[inline(always)]
    fn mul_lazy(self, b: u64) -> u64 {
        p_mul_lazy(self, b)
    }
    #[inline(always)]
    fn mul_add_lazy(self, b: u64, c: u64) -> u64 {
        // Cannot overflow: `(2^64-1)^2 + (2^64-1) < 2^128`.
        reduce128_lazy(u128::from(self) * u128::from(b) + u128::from(c))
    }
    #[inline(always)]
    fn canonical(self) -> u64 {
        p_canonical(self)
    }
    #[inline(always)]
    fn add_canonical(self, b: u64) -> u64 {
        p_add(self, b)
    }

    #[inline(always)]
    fn barrett_mul(self, b: u64, q: u64, mu: u64) -> u64 {
        rns::barrett_mul(self, b, q, mu)
    }
    #[inline(always)]
    fn barrett_reduce(self, q: u64, mu: u64) -> u64 {
        rns::barrett_mul(self, 1, q, mu)
    }
    #[inline(always)]
    fn add_mod(self, b: u64, q: u64) -> u64 {
        rns::add_mod(self, b, q)
    }
    #[inline(always)]
    fn sub_mod(self, b: u64, q: u64) -> u64 {
        rns::sub_mod(self, b, q)
    }
    #[inline(always)]
    fn neg_mod(self, q: u64) -> u64 {
        rns::neg_mod(self, q)
    }
}

// ---------------------------------------------------------------------------
// The modulus axis
// ---------------------------------------------------------------------------

/// The prime a kernel reduces under, as the operations kernels are written
/// in. A *working* residue is whatever the modulus carries between
/// operations — lazy on Goldilocks, canonical under Barrett; [`mul`],
/// [`mul_add`], [`add_lazy`] and [`sub_lazy`] take and return working
/// residues, [`canonical`] makes one storable, [`add`] / [`sub`] /
/// [`neg`] map canonical residues to canonical residues, and [`reduce`]
/// takes any word to its canonical residue.
///
/// [`reduce`]: Modulus::reduce
/// [`mul`]: Modulus::mul
/// [`mul_add`]: Modulus::mul_add
/// [`add_lazy`]: Modulus::add_lazy
/// [`sub_lazy`]: Modulus::sub_lazy
/// [`canonical`]: Modulus::canonical
/// [`add`]: Modulus::add
/// [`sub`]: Modulus::sub
/// [`neg`]: Modulus::neg
pub(crate) trait Modulus: Copy {
    /// `a·b`.
    fn mul<L: Lane>(self, a: L, b: L) -> L;
    /// `a·b + c`.
    fn mul_add<L: Lane>(self, a: L, b: L, c: L) -> L;
    /// `a + b`.
    fn add_lazy<L: Lane>(self, a: L, b: L) -> L;
    /// `a - b`.
    fn sub_lazy<L: Lane>(self, a: L, b: L) -> L;
    /// The canonical representative of a working residue.
    fn canonical<L: Lane>(self, a: L) -> L;
    /// Canonical `a + b`.
    fn add<L: Lane>(self, a: L, b: L) -> L;
    /// Canonical `a - b`.
    fn sub<L: Lane>(self, a: L, b: L) -> L;
    /// Canonical `-a`.
    fn neg<L: Lane>(self, a: L) -> L;
    /// The canonical residue of any word `a`.
    fn reduce<L: Lane>(self, a: L) -> L;
}

/// The Goldilocks prime `p = 2^64 - 2^32 + 1` (limb 0 of every chain):
/// lazy ε-identity arithmetic, canonicalized once per stored value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Goldilocks;

impl Modulus for Goldilocks {
    #[inline(always)]
    fn mul<L: Lane>(self, a: L, b: L) -> L {
        a.mul_lazy(b)
    }
    #[inline(always)]
    fn mul_add<L: Lane>(self, a: L, b: L, c: L) -> L {
        a.mul_add_lazy(b, c)
    }
    #[inline(always)]
    fn add_lazy<L: Lane>(self, a: L, b: L) -> L {
        a.add_lazy(b)
    }
    #[inline(always)]
    fn sub_lazy<L: Lane>(self, a: L, b: L) -> L {
        a.sub_lazy(b)
    }
    #[inline(always)]
    fn canonical<L: Lane>(self, a: L) -> L {
        a.canonical()
    }
    #[inline(always)]
    fn add<L: Lane>(self, a: L, b: L) -> L {
        a.add_canonical(b)
    }
    #[inline(always)]
    fn sub<L: Lane>(self, a: L, b: L) -> L {
        a.sub_mod(b, L::splat(MODULUS))
    }
    #[inline(always)]
    fn neg<L: Lane>(self, a: L) -> L {
        a.neg_mod(L::splat(MODULUS))
    }
    #[inline(always)]
    fn reduce<L: Lane>(self, a: L) -> L {
        // Every word is a lazy residue (`2^64 < 2p`).
        a.canonical()
    }
}

/// A generic RNS limb prime `2^60 < q < 2^61` with its Barrett constant
/// `mu = ⌊2^124 / q⌋`: every residue stays canonical.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Barrett {
    /// The limb prime.
    pub q: u64,
    /// [`rns::barrett_mu`] of `q`.
    pub mu: u64,
}

impl Modulus for Barrett {
    #[inline(always)]
    fn mul<L: Lane>(self, a: L, b: L) -> L {
        a.barrett_mul(b, L::splat(self.q), L::splat(self.mu))
    }
    #[inline(always)]
    fn mul_add<L: Lane>(self, a: L, b: L, c: L) -> L {
        self.mul(a, b).add_mod(c, L::splat(self.q))
    }
    #[inline(always)]
    fn add_lazy<L: Lane>(self, a: L, b: L) -> L {
        self.add(a, b)
    }
    #[inline(always)]
    fn sub_lazy<L: Lane>(self, a: L, b: L) -> L {
        self.sub(a, b)
    }
    #[inline(always)]
    fn canonical<L: Lane>(self, a: L) -> L {
        a
    }
    #[inline(always)]
    fn add<L: Lane>(self, a: L, b: L) -> L {
        a.add_mod(b, L::splat(self.q))
    }
    #[inline(always)]
    fn sub<L: Lane>(self, a: L, b: L) -> L {
        a.sub_mod(b, L::splat(self.q))
    }
    #[inline(always)]
    fn neg<L: Lane>(self, a: L) -> L {
        a.neg_mod(L::splat(self.q))
    }
    #[inline(always)]
    fn reduce<L: Lane>(self, a: L) -> L {
        a.barrett_reduce(L::splat(self.q), L::splat(self.mu))
    }
}

// ---------------------------------------------------------------------------
// Kernels: one lane walk, one dispatch
// ---------------------------------------------------------------------------

/// What [`dispatch`] runs: a kernel's whole pass under one lane width and
/// one modulus.
pub(crate) trait Kernel: Sized {
    /// Runs the kernel with `L`-wide lanes reduced under `m`.
    fn run<L: Lane, M: Modulus>(self, m: M);
}

/// A kernel whose output at index `i` depends only on its inputs at `i`
/// (and, for a gather, on a permuted source): [`Kernel::run`] is the lane
/// walk below.
pub(crate) trait Pointwise: Sized {
    /// The number of positions one pass covers.
    ///
    /// # Panics
    ///
    /// Panics unless every slice the kernel indexes by position is that
    /// long — checked here, once, so no lane reads or writes out of bounds.
    fn len(&self) -> usize;
    /// The kernel's arithmetic for the lane at `i..i + L::WIDTH`.
    fn at<L: Lane, M: Modulus>(&mut self, m: M, i: usize);
}

impl<P: Pointwise> Kernel for P {
    /// Whole `L` lanes, then the ragged end one residue at a time.
    #[inline(always)]
    fn run<L: Lane, M: Modulus>(mut self, m: M) {
        let n = self.len();
        let whole = n / L::WIDTH;
        for lane in 0..whole {
            let i = lane * L::WIDTH;
            // SAFETY: `lane < n / WIDTH`, so `i + WIDTH <= n` without wrapping.
            unsafe { std::hint::assert_unchecked(i < n && n - i >= L::WIDTH) };
            self.at::<L, M>(m, i);
        }
        for i in whole * L::WIDTH..n {
            self.at::<u64, M>(m, i);
        }
    }
}

/// Runs `kernel` under `modulus` on the lane `policy` selects: eight-wide
/// when the policy is AVX-512 and the CPU reports AVX-512 F, four-wide when
/// it is AVX2 and the CPU reports AVX2, else one-wide.
#[inline]
pub(crate) fn dispatch<K: Kernel, M: Modulus>(kernel: K, modulus: M, policy: SimdPolicy) {
    #[cfg(target_arch = "x86_64")]
    match policy {
        SimdPolicy::Avx512 if std::arch::is_x86_feature_detected!("avx512f") => {
            // SAFETY: the CPU reported AVX-512 F on the line above.
            return unsafe { x86::run_avx512(kernel, modulus) };
        }
        SimdPolicy::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: the CPU reported AVX2 on the line above.
            return unsafe { x86::run_avx2(kernel, modulus) };
        }
        _ => {}
    }
    let _ = policy;
    kernel.run::<u64, M>(modulus)
}

/// The common length of a kernel's slices.
///
/// # Panics
///
/// Panics if they differ.
#[inline(always)]
fn same_len<const N: usize>(lens: [usize; N]) -> usize {
    assert!(
        lens.iter().all(|&len| len == lens[0]),
        "kernel slice lengths differ: {lens:?}"
    );
    lens[0]
}

/// Fused dual-component pointwise product: `o0[i] = x0[i]·m[i]`,
/// `o1[i] = x1[i]·m[i]` (canonical outputs).
pub(crate) struct Mul2<'a> {
    pub x0: &'a [u64],
    pub x1: &'a [u64],
    pub m: &'a [u64],
    pub o0: &'a mut [u64],
    pub o1: &'a mut [u64],
}

impl Pointwise for Mul2<'_> {
    fn len(&self) -> usize {
        let Mul2 { x0, x1, m, o0, o1 } = self;
        same_len([x0.len(), x1.len(), m.len(), o0.len(), o1.len()])
    }
    #[inline(always)]
    fn at<L: Lane, M: Modulus>(&mut self, m: M, i: usize) {
        let mult = L::load(self.m, i);
        m.canonical(m.mul(L::load(self.x0, i), mult))
            .store(self.o0, i);
        m.canonical(m.mul(L::load(self.x1, i), mult))
            .store(self.o1, i);
    }
}

/// Fused BFV tensor product + relinearization (six ring products per
/// coefficient, canonical outputs):
///
/// ```text
/// c2    = a1·b1
/// o0[i] = a0·b0 + c2·s0
/// o1[i] = a0·b1 + a1·b0 + c2·s1
/// ```
pub(crate) struct MulAdd2<'a> {
    pub a0: &'a [u64],
    pub a1: &'a [u64],
    pub b0: &'a [u64],
    pub b1: &'a [u64],
    pub s0: &'a [u64],
    pub s1: &'a [u64],
    pub o0: &'a mut [u64],
    pub o1: &'a mut [u64],
}

impl Pointwise for MulAdd2<'_> {
    fn len(&self) -> usize {
        let [a0, a1, b0] = [self.a0.len(), self.a1.len(), self.b0.len()];
        let [b1, s0, s1] = [self.b1.len(), self.s0.len(), self.s1.len()];
        same_len([a0, a1, b0, b1, s0, s1, self.o0.len(), self.o1.len()])
    }
    #[inline(always)]
    fn at<L: Lane, M: Modulus>(&mut self, m: M, i: usize) {
        let (a0, a1) = (L::load(self.a0, i), L::load(self.a1, i));
        let (b0, b1) = (L::load(self.b0, i), L::load(self.b1, i));
        let c2 = m.mul(a1, b1);
        let t0 = m.mul_add(c2, L::load(self.s0, i), m.mul(a0, b0));
        let cross = m.mul_add(a1, b0, m.mul(a0, b1));
        let t1 = m.mul_add(c2, L::load(self.s1, i), cross);
        m.canonical(t0).store(self.o0, i);
        m.canonical(t1).store(self.o1, i);
    }
}

/// Fused Galois gather + key-switch product: `o0[i] = src0[perm[i]]·key[i]`
/// and likewise for the second component (canonical outputs).
pub(crate) struct Galois2<'a> {
    pub src0: &'a [u64],
    pub src1: &'a [u64],
    pub perm: &'a GaloisPermutation,
    pub key: &'a [u64],
    pub o0: &'a mut [u64],
    pub o1: &'a mut [u64],
}

impl Pointwise for Galois2<'_> {
    fn len(&self) -> usize {
        let [src0, src1, perm] = [self.src0.len(), self.src1.len(), self.perm.len()];
        same_len([
            src0,
            src1,
            perm,
            self.key.len(),
            self.o0.len(),
            self.o1.len(),
        ])
    }
    #[inline(always)]
    fn at<L: Lane, M: Modulus>(&mut self, m: M, i: usize) {
        // Both gathers before either store: one read of the index window.
        let g0 = L::gather(self.src0, self.perm, i);
        let g1 = L::gather(self.src1, self.perm, i);
        let key = L::load(self.key, i);
        m.canonical(m.mul(g0, key)).store(self.o0, i);
        m.canonical(m.mul(g1, key)).store(self.o1, i);
    }
}

/// Pure permutation gather: `out[i] = src[perm[i]]`.
pub(crate) struct Gather<'a> {
    pub src: &'a [u64],
    pub perm: &'a GaloisPermutation,
    pub out: &'a mut [u64],
}

impl Pointwise for Gather<'_> {
    fn len(&self) -> usize {
        same_len([self.src.len(), self.perm.len(), self.out.len()])
    }
    #[inline(always)]
    fn at<L: Lane, M: Modulus>(&mut self, _: M, i: usize) {
        L::gather(self.src, self.perm, i).store(self.out, i);
    }
}

/// `out[i] = x[i] + y[i]` on canonical residues.
pub(crate) struct Add<'a> {
    pub x: &'a [u64],
    pub y: &'a [u64],
    pub out: &'a mut [u64],
}

impl Pointwise for Add<'_> {
    fn len(&self) -> usize {
        same_len([self.x.len(), self.y.len(), self.out.len()])
    }
    #[inline(always)]
    fn at<L: Lane, M: Modulus>(&mut self, m: M, i: usize) {
        let sum = m.add(L::load(self.x, i), L::load(self.y, i));
        sum.store(self.out, i);
    }
}

/// `out[i] = x[i] - y[i]` on canonical residues.
pub(crate) struct Sub<'a> {
    pub x: &'a [u64],
    pub y: &'a [u64],
    pub out: &'a mut [u64],
}

impl Pointwise for Sub<'_> {
    fn len(&self) -> usize {
        same_len([self.x.len(), self.y.len(), self.out.len()])
    }
    #[inline(always)]
    fn at<L: Lane, M: Modulus>(&mut self, m: M, i: usize) {
        let difference = m.sub(L::load(self.x, i), L::load(self.y, i));
        difference.store(self.out, i);
    }
}

/// `out[i] = -x[i]` on canonical residues.
pub(crate) struct Neg<'a> {
    pub x: &'a [u64],
    pub out: &'a mut [u64],
}

impl Pointwise for Neg<'_> {
    fn len(&self) -> usize {
        same_len([self.x.len(), self.out.len()])
    }
    #[inline(always)]
    fn at<L: Lane, M: Modulus>(&mut self, m: M, i: usize) {
        m.neg(L::load(self.x, i)).store(self.out, i);
    }
}

/// `out[i] = x[i] mod q` for any words `x[i]` — how a sampled coefficient
/// is lifted into a limb.
pub(crate) struct Reduce<'a> {
    pub x: &'a [u64],
    pub out: &'a mut [u64],
}

impl Pointwise for Reduce<'_> {
    fn len(&self) -> usize {
        same_len([self.x.len(), self.out.len()])
    }
    #[inline(always)]
    fn at<L: Lane, M: Modulus>(&mut self, m: M, i: usize) {
        m.reduce(L::load(self.x, i)).store(self.out, i);
    }
}

/// In-place [`Reduce`]: `x[i] = x[i] mod q`.
pub(crate) struct ReduceAssign<'a> {
    pub x: &'a mut [u64],
}

impl Pointwise for ReduceAssign<'_> {
    fn len(&self) -> usize {
        self.x.len()
    }
    #[inline(always)]
    fn at<L: Lane, M: Modulus>(&mut self, m: M, i: usize) {
        m.reduce(L::load(self.x, i)).store(self.x, i);
    }
}

/// Multiplies every working residue by the canonical scalar `k` and
/// canonicalizes — the inverse NTT's final `n^{-1}` pass.
pub(crate) struct Scale<'a> {
    pub a: &'a mut [u64],
    pub k: u64,
}

impl Pointwise for Scale<'_> {
    fn len(&self) -> usize {
        self.a.len()
    }
    #[inline(always)]
    fn at<L: Lane, M: Modulus>(&mut self, m: M, i: usize) {
        m.canonical(m.mul(L::load(self.a, i), L::splat(self.k)))
            .store(self.a, i);
    }
}

/// The arithmetic of one NTT butterfly on working residues: `(lo, hi)` of
/// a group's halves and the group's twiddle in, the new `(lo, hi)` out.
pub(crate) trait Butterfly: Copy {
    /// Applies the butterfly to one lane.
    fn apply<L: Lane, M: Modulus>(self, m: M, lo: L, hi: L, twiddle: L) -> (L, L);
}

/// Cooley–Tukey: `lo, hi = lo + hi·w, lo - hi·w`; `canonical` fuses the
/// normalization into the transform's last stage.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Forward {
    pub canonical: bool,
}

impl Butterfly for Forward {
    #[inline(always)]
    fn apply<L: Lane, M: Modulus>(self, m: M, lo: L, hi: L, twiddle: L) -> (L, L) {
        let v = m.mul(hi, twiddle);
        let (x, y) = (m.add_lazy(lo, v), m.sub_lazy(lo, v));
        if self.canonical {
            (m.canonical(x), m.canonical(y))
        } else {
            (x, y)
        }
    }
}

/// Gentleman–Sande: `lo, hi = lo + hi, (lo - hi)·w`. Outputs stay working
/// residues — the inverse transform's [`Scale`] pass canonicalizes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Inverse;

impl Butterfly for Inverse {
    #[inline(always)]
    fn apply<L: Lane, M: Modulus>(self, m: M, lo: L, hi: L, twiddle: L) -> (L, L) {
        (m.add_lazy(lo, hi), m.mul(m.sub_lazy(lo, hi), twiddle))
    }
}

/// One whole butterfly stage: `a` is `twiddles.len()` consecutive groups of
/// `2·t` elements, and group `g` applies `butterfly` with `twiddles[g]`
/// between its two halves. A stage is one dispatch, so the group loop runs
/// inside the lane's entry and the stages narrower than a lane can be
/// vectorized *across* groups ([`Lane::narrow_stage`]).
pub(crate) struct Stage<'a, B> {
    pub a: &'a mut [u64],
    pub twiddles: &'a [u64],
    pub t: usize,
    pub butterfly: B,
}

impl<B: Butterfly> Kernel for Stage<'_, B> {
    #[inline(always)]
    fn run<L: Lane, M: Modulus>(self, m: M) {
        let Stage {
            a,
            twiddles,
            t,
            butterfly,
        } = self;
        assert_eq!(a.len(), 2 * t * twiddles.len(), "stage shape");
        let done = L::narrow_stage(a, twiddles, t, butterfly, m);
        for (g, &twiddle) in twiddles.iter().enumerate().skip(done) {
            let (lo, hi) = a[2 * g * t..2 * (g + 1) * t].split_at_mut(t);
            let halves = Halves {
                lo,
                hi,
                twiddle,
                butterfly,
            };
            halves.run::<L, M>(m);
        }
    }
}

/// The two halves of one butterfly group.
struct Halves<'a, B> {
    lo: &'a mut [u64],
    hi: &'a mut [u64],
    twiddle: u64,
    butterfly: B,
}

impl<B: Butterfly> Pointwise for Halves<'_, B> {
    #[inline(always)]
    fn len(&self) -> usize {
        same_len([self.lo.len(), self.hi.len()])
    }
    #[inline(always)]
    fn at<L: Lane, M: Modulus>(&mut self, m: M, i: usize) {
        let (lo, hi) = (L::load(self.lo, i), L::load(self.hi, i));
        let (x, y) = self.butterfly.apply(m, lo, hi, L::splat(self.twiddle));
        x.store(self.lo, i);
        y.store(self.hi, i);
    }
}

// ---------------------------------------------------------------------------
// The vector lanes (x86-64 only, stable std::arch)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! [`Lane`] over a 256-bit vector of four `u64`s ([`U64x4`], AVX2) and
    //! a 512-bit vector of eight ([`U64x8`], AVX-512 F), plus the stage
    //! choreographies that move values between lanes rather than compute on
    //! them.
    //!
    //! The invariant every `unsafe` block here cites: both lane types are
    //! private to this module, and the only thing the module does with them
    //! is instantiate [`Kernel::run`] inside its two `#[target_feature]`
    //! entries — [`U64x4`] inside [`run_avx2`], [`U64x8`] inside
    //! [`run_avx512`] — which [`dispatch`](super::dispatch) enters only on a
    //! CPU that reports the entry's feature. Every method runs the scalar
    //! lane's correction algorithm element-wise, so even lazy
    //! representatives match lane for lane.

    use super::{Butterfly, GaloisPermutation, Kernel, Lane, Modulus, EPSILON};
    use crate::poly::MODULUS;
    use core::arch::x86_64::*;

    /// Four `u64` residues; AVX2 is present wherever one is used (module
    /// docs).
    #[derive(Clone, Copy)]
    struct U64x4(__m256i);

    /// Eight `u64` residues; AVX-512 F is present wherever one is used
    /// (module docs).
    #[derive(Clone, Copy)]
    struct U64x8(__m512i);

    /// `kernel` on four-wide lanes.
    #[target_feature(enable = "avx2")]
    pub(super) fn run_avx2<K: Kernel, M: Modulus>(kernel: K, modulus: M) {
        kernel.run::<U64x4, M>(modulus)
    }

    /// `kernel` on eight-wide lanes.
    #[target_feature(enable = "avx512f")]
    pub(super) fn run_avx512<K: Kernel, M: Modulus>(kernel: K, modulus: M) {
        kernel.run::<U64x8, M>(modulus)
    }

    impl U64x4 {
        /// Per-position unsigned `self < b` mask (`cmpgt_epi64` is signed;
        /// xor-ing the sign bit into both operands makes it unsigned).
        #[inline(always)]
        fn lt(self, b: Self) -> __m256i {
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            unsafe {
                let sign = _mm256_set1_epi64x(i64::MIN);
                _mm256_cmpgt_epi64(_mm256_xor_si256(b.0, sign), _mm256_xor_si256(self.0, sign))
            }
        }

        /// Full 64×64→128 product as `(hi, lo)` halves, from four 32×32→64
        /// partial products (`_mm256_mul_epu32` multiplies the low halves
        /// of each position).
        #[inline(always)]
        fn mul_wide(self, b: Self) -> (Self, Self) {
            let (a, b) = (self.0, b.0);
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            unsafe {
                let mask32 = _mm256_set1_epi64x(EPSILON as i64);
                let a_hi = _mm256_srli_epi64(a, 32);
                let b_hi = _mm256_srli_epi64(b, 32);
                let ll = _mm256_mul_epu32(a, b);
                let lh = _mm256_mul_epu32(a, b_hi);
                let hl = _mm256_mul_epu32(a_hi, b);
                let hh = _mm256_mul_epu32(a_hi, b_hi);
                // t = hl + (ll >> 32): at most (2^32-1)^2 + (2^32-1) < 2^64.
                let t = _mm256_add_epi64(hl, _mm256_srli_epi64(ll, 32));
                // u = lh + (t & mask32): same bound, no wrap.
                let u = _mm256_add_epi64(lh, _mm256_and_si256(t, mask32));
                let hi = _mm256_add_epi64(
                    hh,
                    _mm256_add_epi64(_mm256_srli_epi64(t, 32), _mm256_srli_epi64(u, 32)),
                );
                // lo = (u << 32) | (ll & mask32): interleave the 32-bit halves.
                let lo = _mm256_blend_epi32::<0b1010_1010>(ll, _mm256_slli_epi64(u, 32));
                (U64x4(hi), U64x4(lo))
            }
        }

        /// Lazy Goldilocks reduction of a `(hi, lo)` product — the
        /// correction algorithm of [`super::reduce128_lazy`].
        #[inline(always)]
        fn reduce128_lazy(hi: Self, lo: Self) -> Self {
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            unsafe {
                let eps = _mm256_set1_epi64x(EPSILON as i64);
                let hi_hi = U64x4(_mm256_srli_epi64(hi.0, 32));
                let hi_lo = _mm256_and_si256(hi.0, eps);
                // t0 = lo - hi_hi, compensating a borrow with -ε (cannot
                // re-borrow).
                let borrowed = lo.lt(hi_hi);
                let t0 = _mm256_sub_epi64(
                    _mm256_sub_epi64(lo.0, hi_hi.0),
                    _mm256_and_si256(borrowed, eps),
                );
                // t1 = hi_lo·ε = (hi_lo << 32) - hi_lo (fits: hi_lo < 2^32).
                let t1 = _mm256_sub_epi64(_mm256_slli_epi64(hi_lo, 32), hi_lo);
                // r = t0 + t1, compensating a wrap with +ε (cannot re-wrap:
                // the wrapped sum is at most 2^64 - 2^33).
                let sum = U64x4(_mm256_add_epi64(t0, t1));
                let wrapped = sum.lt(U64x4(t0));
                U64x4(_mm256_add_epi64(sum.0, _mm256_and_si256(wrapped, eps)))
            }
        }

        /// `self - q` where `self >= q`, else `self`.
        #[inline(always)]
        fn reduce_once(self, q: Self) -> Self {
            let below = self.lt(q);
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            U64x4(unsafe { _mm256_sub_epi64(self.0, _mm256_andnot_si256(below, q.0)) })
        }
    }

    impl Lane for U64x4 {
        const WIDTH: usize = 4;

        #[inline(always)]
        fn splat(x: u64) -> Self {
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            U64x4(unsafe { _mm256_set1_epi64x(x as i64) })
        }

        #[inline(always)]
        fn load(src: &[u64], i: usize) -> Self {
            let lanes = &src[i..i + 4];
            // SAFETY: `lanes` is four `u64`s, the 32 bytes the unaligned
            // load reads; AVX2 as above.
            U64x4(unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) })
        }

        #[inline(always)]
        fn store(self, dst: &mut [u64], i: usize) {
            let lanes = &mut dst[i..i + 4];
            // SAFETY: `lanes` is four `u64`s, the 32 bytes the unaligned
            // store writes; AVX2 as above.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), self.0) }
        }

        #[inline(always)]
        fn gather(src: &[u64], perm: &GaloisPermutation, i: usize) -> Self {
            let indices = &perm[i..i + 4];
            assert!(perm.len() <= src.len(), "permutation wider than its source");
            // SAFETY: `indices` is four `u32`s, the 16 bytes the unaligned
            // load reads. Each is below `perm.len()` and fits an `i32`
            // (`GaloisPermutation::new`), and `perm.len() <= src.len()` was
            // asserted above, so every gathered `u64` lies inside `src`.
            // AVX2 as above.
            U64x4(unsafe {
                let indices = _mm_loadu_si128(indices.as_ptr().cast());
                _mm256_i32gather_epi64::<8>(src.as_ptr().cast(), indices)
            })
        }

        #[inline(always)]
        fn add_lazy(self, b: Self) -> Self {
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            unsafe {
                let eps = _mm256_set1_epi64x(EPSILON as i64);
                let sum = U64x4(_mm256_add_epi64(self.0, b.0));
                let wrapped = sum.lt(self);
                let sum2 = U64x4(_mm256_add_epi64(sum.0, _mm256_and_si256(wrapped, eps)));
                // A second wrap is only possible where the first correction
                // applied (adding 0 cannot wrap), so `sum2 < sum` implies it.
                let wrapped2 = sum2.lt(sum);
                U64x4(_mm256_add_epi64(sum2.0, _mm256_and_si256(wrapped2, eps)))
            }
        }

        #[inline(always)]
        fn sub_lazy(self, b: Self) -> Self {
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            unsafe {
                let eps = _mm256_set1_epi64x(EPSILON as i64);
                let diff = U64x4(_mm256_sub_epi64(self.0, b.0));
                let correction = U64x4(_mm256_and_si256(self.lt(b), eps));
                let diff2 = _mm256_sub_epi64(diff.0, correction.0);
                let borrowed2 = diff.lt(correction);
                U64x4(_mm256_sub_epi64(diff2, _mm256_and_si256(borrowed2, eps)))
            }
        }

        #[inline(always)]
        fn mul_lazy(self, b: Self) -> Self {
            let (hi, lo) = self.mul_wide(b);
            U64x4::reduce128_lazy(hi, lo)
        }

        #[inline(always)]
        fn mul_add_lazy(self, b: Self, c: Self) -> Self {
            let (hi, lo) = self.mul_wide(b);
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            let (hi, lo) = unsafe {
                let lo2 = U64x4(_mm256_add_epi64(lo.0, c.0));
                // Carry into the high half: the mask is all-ones (-1) where
                // the add wrapped, so subtracting it adds one. `hi` is at
                // most `2^64 - 2`, so no wrap.
                let carried = lo2.lt(lo);
                (U64x4(_mm256_sub_epi64(hi.0, carried)), lo2)
            };
            U64x4::reduce128_lazy(hi, lo)
        }

        #[inline(always)]
        fn canonical(self) -> Self {
            // One conditional subtract: every lazy value is `< 2^64 < 2p`.
            self.reduce_once(U64x4::splat(MODULUS))
        }

        #[inline(always)]
        fn add_canonical(self, b: Self) -> Self {
            // A 64-bit wrap means the true sum is in `[2^64, 2p)`, whose
            // canonical form is `wrapped + ε`; otherwise one conditional
            // subtract finishes.
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            let sum = unsafe {
                let eps = _mm256_set1_epi64x(EPSILON as i64);
                let sum = U64x4(_mm256_add_epi64(self.0, b.0));
                let wrapped = sum.lt(self);
                U64x4(_mm256_add_epi64(sum.0, _mm256_and_si256(wrapped, eps)))
            };
            sum.canonical()
        }

        #[inline(always)]
        fn barrett_mul(self, b: Self, q: Self, mu: Self) -> Self {
            let (hi, lo) = self.mul_wide(b);
            // x >> 60 = (hi << 4) | (lo >> 60); hi < 2^58 so no bits are lost.
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            let shifted = U64x4(unsafe {
                _mm256_or_si256(_mm256_slli_epi64(hi.0, 4), _mm256_srli_epi64(lo.0, 60))
            });
            let (q_hat, _) = shifted.mul_wide(mu);
            let (_, product) = q_hat.mul_wide(q);
            // The true value of `x - q_hat·q` is in `[0, 3q) ⊂ [0, 2^64)`:
            // the wrapped low-word subtraction is exact.
            // SAFETY: as above.
            let r = U64x4(unsafe { _mm256_sub_epi64(lo.0, product.0) });
            r.reduce_once(q).reduce_once(q)
        }

        #[inline(always)]
        fn barrett_reduce(self, q: Self, mu: Self) -> Self {
            // `barrett_mul`'s sequence for `x·1`, whose `x >> 60` is below
            // 16: the quotient estimate takes two 32×32 products (against
            // `mu`'s halves) and `q_hat·q` two more, where `mul_wide` pays
            // four for each product.
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            let r = U64x4(unsafe {
                let shifted = _mm256_srli_epi64(self.0, 60);
                // `shifted·mu = high·2^32 + low`, both below 2^36; the sum
                // below cannot wrap, and dropping `low`'s low half cannot
                // change the quotient.
                let low = _mm256_mul_epu32(shifted, mu.0);
                let high = _mm256_mul_epu32(shifted, _mm256_srli_epi64(mu.0, 32));
                let q_hat =
                    _mm256_srli_epi64(_mm256_add_epi64(high, _mm256_srli_epi64(low, 32)), 32);
                // `q_hat·q mod 2^64`, from `q`'s halves (`q_hat < 16`).
                let q_hi =
                    _mm256_slli_epi64(_mm256_mul_epu32(q_hat, _mm256_srli_epi64(q.0, 32)), 32);
                let product = _mm256_add_epi64(_mm256_mul_epu32(q_hat, q.0), q_hi);
                // In `[0, 3q)`, as in `barrett_mul`.
                _mm256_sub_epi64(self.0, product)
            });
            r.reduce_once(q).reduce_once(q)
        }

        #[inline(always)]
        fn add_mod(self, b: Self, q: Self) -> Self {
            // `a + b < 2q < 2^62`: no wrap.
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            U64x4(unsafe { _mm256_add_epi64(self.0, b.0) }).reduce_once(q)
        }

        #[inline(always)]
        fn sub_mod(self, b: Self, q: Self) -> Self {
            let borrowed = self.lt(b);
            // `a - b + q` where `a < b`: with canonical operands it is below
            // `q <= 2^64`, and the wrapping add of `q` to the wrapped
            // difference yields exactly it.
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            U64x4(unsafe {
                let diff = _mm256_sub_epi64(self.0, b.0);
                _mm256_add_epi64(diff, _mm256_and_si256(borrowed, q.0))
            })
        }

        #[inline(always)]
        fn neg_mod(self, q: Self) -> Self {
            // `q - a` for `a != 0` and `0` for `a = 0`, via a zero mask.
            // SAFETY: AVX2 is present wherever a `U64x4` is (module docs).
            U64x4(unsafe {
                let is_zero = _mm256_cmpeq_epi64(self.0, _mm256_setzero_si256());
                _mm256_andnot_si256(is_zero, _mm256_sub_epi64(q.0, self.0))
            })
        }

        #[inline(always)]
        fn narrow_stage<B: Butterfly, M: Modulus>(
            a: &mut [u64],
            twiddles: &[u64],
            t: usize,
            butterfly: B,
            m: M,
        ) -> usize {
            // SAFETY: AVX2 is present wherever `U64x4` is named (module docs).
            match t {
                2 => unsafe { stage_t2(a, twiddles, butterfly, m) },
                1 => unsafe { stage_t1(a, twiddles, butterfly, m) },
                _ => 0,
            }
        }
    }

    /// `t == 2`: groups of four elements `[lo0 lo1 hi0 hi1]`, one twiddle
    /// per group. Two groups per step: `permute2x128` splits the 128-bit
    /// group halves into cross-group `lo` / `hi` vectors and re-interleaves
    /// the results.
    #[target_feature(enable = "avx2")]
    fn stage_t2(
        a: &mut [u64],
        twiddles: &[u64],
        butterfly: impl Butterfly,
        m: impl Modulus,
    ) -> usize {
        for (groups, w) in a.chunks_exact_mut(8).zip(twiddles.chunks_exact(2)) {
            let (v0, v1) = (U64x4::load(groups, 0).0, U64x4::load(groups, 4).0);
            let lo = _mm256_permute2x128_si256::<0x20>(v0, v1);
            let hi = _mm256_permute2x128_si256::<0x31>(v0, v1);
            let (w0, w1) = (w[0] as i64, w[1] as i64);
            let w = _mm256_set_epi64x(w1, w1, w0, w0);
            let (x, y) = butterfly.apply(m, U64x4(lo), U64x4(hi), U64x4(w));
            U64x4(_mm256_permute2x128_si256::<0x20>(x.0, y.0)).store(groups, 0);
            U64x4(_mm256_permute2x128_si256::<0x31>(x.0, y.0)).store(groups, 4);
        }
        twiddles.len() / 2 * 2
    }

    /// `t == 1`: adjacent pairs `(a[2g], a[2g+1])`, each with its own
    /// twiddle. Four pairs per step: `unpacklo/hi_epi64` de-interleave the
    /// pairs into `lo` / `hi` vectors in position order `(0, 2, 1, 3)`, the
    /// twiddle vector is permuted to match, and the same unpacks
    /// re-interleave the results.
    #[target_feature(enable = "avx2")]
    fn stage_t1(
        a: &mut [u64],
        twiddles: &[u64],
        butterfly: impl Butterfly,
        m: impl Modulus,
    ) -> usize {
        for (pairs, w) in a.chunks_exact_mut(8).zip(twiddles.chunks_exact(4)) {
            let (v0, v1) = (U64x4::load(pairs, 0).0, U64x4::load(pairs, 4).0);
            let lo = _mm256_unpacklo_epi64(v0, v1);
            let hi = _mm256_unpackhi_epi64(v0, v1);
            let w = _mm256_permute4x64_epi64::<0xD8>(U64x4::load(w, 0).0);
            let (x, y) = butterfly.apply(m, U64x4(lo), U64x4(hi), U64x4(w));
            U64x4(_mm256_unpacklo_epi64(x.0, y.0)).store(pairs, 0);
            U64x4(_mm256_unpackhi_epi64(x.0, y.0)).store(pairs, 4);
        }
        twiddles.len() / 4 * 4
    }

    impl U64x8 {
        /// Per-position unsigned `self < b` mask.
        #[inline(always)]
        fn lt(self, b: Self) -> __mmask8 {
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            unsafe { _mm512_cmplt_epu64_mask(self.0, b.0) }
        }

        /// `self + b` where `mask` is set, else `self`.
        #[inline(always)]
        fn add_where(self, mask: __mmask8, b: Self) -> Self {
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            U64x8(unsafe { _mm512_mask_add_epi64(self.0, mask, self.0, b.0) })
        }

        /// `self - b` where `mask` is set, else `self`.
        #[inline(always)]
        fn sub_where(self, mask: __mmask8, b: Self) -> Self {
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            U64x8(unsafe { _mm512_mask_sub_epi64(self.0, mask, self.0, b.0) })
        }

        /// Full 64×64→128 product as `(hi, lo)` halves, from four 32×32→64
        /// partial products — [`U64x4::mul_wide`] eight wide.
        #[inline(always)]
        fn mul_wide(self, b: Self) -> (Self, Self) {
            let (a, b) = (self.0, b.0);
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            unsafe {
                let mask32 = _mm512_set1_epi64(EPSILON as i64);
                let a_hi = _mm512_srli_epi64(a, 32);
                let b_hi = _mm512_srli_epi64(b, 32);
                let ll = _mm512_mul_epu32(a, b);
                let lh = _mm512_mul_epu32(a, b_hi);
                let hl = _mm512_mul_epu32(a_hi, b);
                let hh = _mm512_mul_epu32(a_hi, b_hi);
                // t = hl + (ll >> 32): at most (2^32-1)^2 + (2^32-1) < 2^64.
                let t = _mm512_add_epi64(hl, _mm512_srli_epi64(ll, 32));
                // u = lh + (t & mask32): same bound, no wrap.
                let u = _mm512_add_epi64(lh, _mm512_and_si512(t, mask32));
                let hi = _mm512_add_epi64(
                    hh,
                    _mm512_add_epi64(_mm512_srli_epi64(t, 32), _mm512_srli_epi64(u, 32)),
                );
                // lo = (u << 32) | (ll & mask32): interleave the 32-bit halves.
                let lo = _mm512_mask_blend_epi32(0xAAAA, ll, _mm512_slli_epi64(u, 32));
                (U64x8(hi), U64x8(lo))
            }
        }

        /// Lazy Goldilocks reduction of a `(hi, lo)` product — the
        /// correction algorithm of [`super::reduce128_lazy`].
        #[inline(always)]
        fn reduce128_lazy(hi: Self, lo: Self) -> Self {
            let eps = U64x8::splat(EPSILON);
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            let (hi_hi, hi_lo) = unsafe {
                let hi_hi = _mm512_srli_epi64(hi.0, 32);
                (U64x8(hi_hi), _mm512_and_si512(hi.0, eps.0))
            };
            // t0 = lo - hi_hi, compensating a borrow with -ε (cannot
            // re-borrow).
            // SAFETY: as above.
            let t0 = U64x8(unsafe { _mm512_sub_epi64(lo.0, hi_hi.0) }).sub_where(lo.lt(hi_hi), eps);
            // t1 = hi_lo·ε = (hi_lo << 32) - hi_lo (fits: hi_lo < 2^32), and
            // r = t0 + t1, compensating a wrap with +ε (cannot re-wrap: the
            // wrapped sum is at most 2^64 - 2^33).
            // SAFETY: as above.
            let sum = U64x8(unsafe {
                let t1 = _mm512_sub_epi64(_mm512_slli_epi64(hi_lo, 32), hi_lo);
                _mm512_add_epi64(t0.0, t1)
            });
            sum.add_where(sum.lt(t0), eps)
        }

        /// `self - q` where `self >= q`, else `self`.
        #[inline(always)]
        fn reduce_once(self, q: Self) -> Self {
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            let at_least = unsafe { _mm512_cmpge_epu64_mask(self.0, q.0) };
            self.sub_where(at_least, q)
        }
    }

    impl Lane for U64x8 {
        const WIDTH: usize = 8;

        #[inline(always)]
        fn splat(x: u64) -> Self {
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            U64x8(unsafe { _mm512_set1_epi64(x as i64) })
        }

        #[inline(always)]
        fn load(src: &[u64], i: usize) -> Self {
            let lanes = &src[i..i + 8];
            // SAFETY: `lanes` is eight `u64`s, the 64 bytes the unaligned
            // load reads; AVX-512 F as above.
            U64x8(unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) })
        }

        #[inline(always)]
        fn store(self, dst: &mut [u64], i: usize) {
            let lanes = &mut dst[i..i + 8];
            // SAFETY: `lanes` is eight `u64`s, the 64 bytes the unaligned
            // store writes; AVX-512 F as above.
            unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), self.0) }
        }

        #[inline(always)]
        fn gather(src: &[u64], perm: &GaloisPermutation, i: usize) -> Self {
            let indices = &perm[i..i + 8];
            assert!(perm.len() <= src.len(), "permutation wider than its source");
            // SAFETY: `indices` is eight `u32`s, the 32 bytes the unaligned
            // load reads. Each is below `perm.len()` and fits an `i32`
            // (`GaloisPermutation::new`), and `perm.len() <= src.len()` was
            // asserted above, so every gathered `u64` lies inside `src`.
            // AVX-512 F as above.
            U64x8(unsafe {
                let indices = _mm256_loadu_si256(indices.as_ptr().cast());
                _mm512_i32gather_epi64::<8>(indices, src.as_ptr().cast())
            })
        }

        #[inline(always)]
        fn add_lazy(self, b: Self) -> Self {
            let eps = U64x8::splat(EPSILON);
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            let sum = U64x8(unsafe { _mm512_add_epi64(self.0, b.0) });
            let sum2 = sum.add_where(sum.lt(self), eps);
            // A second wrap is only possible where the first correction
            // applied (adding 0 cannot wrap), so `sum2 < sum` implies it.
            sum2.add_where(sum2.lt(sum), eps)
        }

        #[inline(always)]
        fn sub_lazy(self, b: Self) -> Self {
            let eps = U64x8::splat(EPSILON);
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            let diff = U64x8(unsafe { _mm512_sub_epi64(self.0, b.0) });
            let borrowed = self.lt(b);
            // A second borrow only where the first correction applied and
            // took the difference below zero.
            // SAFETY: as above.
            let borrowed2 = unsafe { _mm512_mask_cmplt_epu64_mask(borrowed, diff.0, eps.0) };
            diff.sub_where(borrowed, eps).sub_where(borrowed2, eps)
        }

        #[inline(always)]
        fn mul_lazy(self, b: Self) -> Self {
            let (hi, lo) = self.mul_wide(b);
            U64x8::reduce128_lazy(hi, lo)
        }

        #[inline(always)]
        fn mul_add_lazy(self, b: Self, c: Self) -> Self {
            let (hi, lo) = self.mul_wide(b);
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            let lo2 = U64x8(unsafe { _mm512_add_epi64(lo.0, c.0) });
            // Carry into the high half where the add wrapped. `hi` is at
            // most `2^64 - 2`, so no wrap.
            let hi = hi.add_where(lo2.lt(lo), U64x8::splat(1));
            U64x8::reduce128_lazy(hi, lo2)
        }

        #[inline(always)]
        fn canonical(self) -> Self {
            // One conditional subtract: every lazy value is `< 2^64 < 2p`.
            self.reduce_once(U64x8::splat(MODULUS))
        }

        #[inline(always)]
        fn add_canonical(self, b: Self) -> Self {
            // A 64-bit wrap means the true sum is in `[2^64, 2p)`, whose
            // canonical form is `wrapped + ε`; otherwise one conditional
            // subtract finishes.
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            let sum = U64x8(unsafe { _mm512_add_epi64(self.0, b.0) });
            sum.add_where(sum.lt(self), U64x8::splat(EPSILON))
                .canonical()
        }

        #[inline(always)]
        fn barrett_mul(self, b: Self, q: Self, mu: Self) -> Self {
            let (hi, lo) = self.mul_wide(b);
            // x >> 60 = (hi << 4) | (lo >> 60); hi < 2^58 so no bits are lost.
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            let shifted = U64x8(unsafe {
                _mm512_or_si512(_mm512_slli_epi64(hi.0, 4), _mm512_srli_epi64(lo.0, 60))
            });
            let (q_hat, _) = shifted.mul_wide(mu);
            let (_, product) = q_hat.mul_wide(q);
            // The true value of `x - q_hat·q` is in `[0, 3q) ⊂ [0, 2^64)`:
            // the wrapped low-word subtraction is exact.
            // SAFETY: as above.
            let r = U64x8(unsafe { _mm512_sub_epi64(lo.0, product.0) });
            r.reduce_once(q).reduce_once(q)
        }

        #[inline(always)]
        fn barrett_reduce(self, q: Self, mu: Self) -> Self {
            // [`U64x4::barrett_reduce`]'s four partial products, eight wide.
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            let r = U64x8(unsafe {
                let shifted = _mm512_srli_epi64(self.0, 60);
                let low = _mm512_mul_epu32(shifted, mu.0);
                let high = _mm512_mul_epu32(shifted, _mm512_srli_epi64(mu.0, 32));
                let q_hat =
                    _mm512_srli_epi64(_mm512_add_epi64(high, _mm512_srli_epi64(low, 32)), 32);
                let q_hi =
                    _mm512_slli_epi64(_mm512_mul_epu32(q_hat, _mm512_srli_epi64(q.0, 32)), 32);
                let product = _mm512_add_epi64(_mm512_mul_epu32(q_hat, q.0), q_hi);
                _mm512_sub_epi64(self.0, product)
            });
            r.reduce_once(q).reduce_once(q)
        }

        #[inline(always)]
        fn add_mod(self, b: Self, q: Self) -> Self {
            // `a + b < 2q < 2^62`: no wrap.
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            U64x8(unsafe { _mm512_add_epi64(self.0, b.0) }).reduce_once(q)
        }

        #[inline(always)]
        fn sub_mod(self, b: Self, q: Self) -> Self {
            // `a - b + q` where `a < b`, exact by the wrapping argument of
            // [`U64x4::sub_mod`].
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            let diff = U64x8(unsafe { _mm512_sub_epi64(self.0, b.0) });
            diff.add_where(self.lt(b), q)
        }

        #[inline(always)]
        fn neg_mod(self, q: Self) -> Self {
            // `q - a` where `a != 0`, and zero where `a = 0`.
            // SAFETY: AVX-512 F is present wherever a `U64x8` is (module docs).
            U64x8(unsafe {
                let nonzero = _mm512_test_epi64_mask(self.0, self.0);
                _mm512_maskz_sub_epi64(nonzero, q.0, self.0)
            })
        }

        #[inline(always)]
        fn narrow_stage<B: Butterfly, M: Modulus>(
            a: &mut [u64],
            twiddles: &[u64],
            t: usize,
            butterfly: B,
            m: M,
        ) -> usize {
            match t {
                4 => stage_narrow::<4>(a, twiddles, butterfly, m),
                2 => stage_narrow::<2>(a, twiddles, butterfly, m),
                1 => stage_narrow::<1>(a, twiddles, butterfly, m),
                _ => 0,
            }
        }
    }

    /// The `permutex` index vector `[f(0), …, f(7)]`.
    #[inline(always)]
    fn indices(f: impl Fn(usize) -> usize) -> __m512i {
        let indices: [i64; 8] = std::array::from_fn(|j| f(j) as i64);
        // SAFETY: `indices` is the 64 bytes the unaligned load reads;
        // AVX-512 F is present wherever this runs, inside `stage_narrow`.
        unsafe { _mm512_loadu_si512(indices.as_ptr().cast()) }
    }

    /// A stage of half-width `T ∈ {4, 2, 1}` on the eight-wide lane: sixteen
    /// elements — `8 / T` whole groups — per step. Two `permutex2var`s pick
    /// every group's `lo` and `hi` halves out of the two loaded vectors (lo
    /// position `j` holds element `(j / T)·2T + j % T` of the sixteen, hi the
    /// one `T` later), a `permutexvar` spreads each group's twiddle over its
    /// `T` positions, and two more put the results back in place.
    #[inline(always)]
    fn stage_narrow<const T: usize>(
        a: &mut [u64],
        twiddles: &[u64],
        butterfly: impl Butterfly,
        m: impl Modulus,
    ) -> usize {
        let groups = 8 / T;
        let lo_of = |j: usize| (j / T) * 2 * T + j % T;
        // Element `e` of the sixteen came from `x` (`permutex2var` index
        // `< 8`) or `y` (`8 +`), at its position within its group's half.
        let result_of = |e: usize| {
            let (g, r) = (e / (2 * T), e % (2 * T));
            if r < T {
                g * T + r
            } else {
                8 + g * T + r - T
            }
        };
        let [lo, hi, spread, first, second] = [
            indices(lo_of),
            indices(|j| lo_of(j) + T),
            indices(|j| j / T),
            indices(result_of),
            indices(|e| result_of(e + 8)),
        ];
        // SAFETY: the masked twiddle load reads only the `groups` `u64`s of
        // `w`; AVX-512 F is present wherever `U64x8` is named (module docs).
        unsafe {
            let mask = ((1u32 << groups) - 1) as __mmask8;
            for (chunk, w) in a.chunks_exact_mut(16).zip(twiddles.chunks_exact(groups)) {
                let (v0, v1) = (U64x8::load(chunk, 0).0, U64x8::load(chunk, 8).0);
                let w = _mm512_maskz_loadu_epi64(mask, w.as_ptr().cast());
                let (x, y) = butterfly.apply(
                    m,
                    U64x8(_mm512_permutex2var_epi64(v0, lo, v1)),
                    U64x8(_mm512_permutex2var_epi64(v0, hi, v1)),
                    U64x8(_mm512_permutexvar_epi64(spread, w)),
                );
                U64x8(_mm512_permutex2var_epi64(x.0, first, y.0)).store(chunk, 0);
                U64x8(_mm512_permutex2var_epi64(x.0, second, y.0)).store(chunk, 8);
            }
        }
        twiddles.len() / groups * groups
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rns::{Limb, ModulusChain};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Every policy whose lane this CPU has, scalar first; `test` names who
    /// asks when the skipped ones are printed.
    pub(crate) fn available_policies(test: &str) -> Vec<SimdPolicy> {
        let (have, lack): (Vec<_>, Vec<_>) =
            SimdPolicy::ALL.into_iter().partition(|p| p.is_available());
        if !lack.is_empty() {
            println!("{test}: skipped {lack:?}, which this CPU does not have");
        }
        have
    }

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

    /// The lazy Goldilocks operations of one lane, stored as they come out
    /// (no canonicalization).
    struct LazyOps<'a> {
        a: &'a [u64],
        b: &'a [u64],
        c: &'a [u64],
        out: [&'a mut [u64]; 4],
    }

    impl Pointwise for LazyOps<'_> {
        fn len(&self) -> usize {
            let [o0, o1, o2, o3] = self.out.each_ref().map(|o| o.len());
            same_len([self.a.len(), self.b.len(), self.c.len(), o0, o1, o2, o3])
        }
        fn at<L: Lane, M: Modulus>(&mut self, m: M, i: usize) {
            let (a, b, c) = (L::load(self.a, i), L::load(self.b, i), L::load(self.c, i));
            m.add_lazy(a, b).store(self.out[0], i);
            m.sub_lazy(a, b).store(self.out[1], i);
            m.mul(a, b).store(self.out[2], i);
            m.mul_add(a, b, c).store(self.out[3], i);
        }
    }

    /// On every lane the CPU has, each lazy Goldilocks operation returns the
    /// scalar primitive's representative bit for bit — not only the same
    /// residue — on every pair of boundary and random words, the double
    /// wrap and double borrow included: inside a transform, where values stay
    /// lazy, the lanes agree.
    #[test]
    fn lazy_operations_return_the_scalar_representative_on_every_lane() {
        let mut values = boundary_values();
        values.extend(random_raw(64, 0x1A2C));
        let a: Vec<u64> = values
            .iter()
            .flat_map(|&x| values.iter().map(move |_| x))
            .collect();
        let b: Vec<u64> = values.iter().flat_map(|_| values.iter().copied()).collect();
        let c = random_raw(a.len(), 0x1A2D);
        let scalar: [Vec<u64>; 4] = [
            (0..a.len()).map(|i| p_add_lazy(a[i], b[i])).collect(),
            (0..a.len()).map(|i| p_sub_lazy(a[i], b[i])).collect(),
            (0..a.len()).map(|i| p_mul_lazy(a[i], b[i])).collect(),
            (0..a.len())
                .map(|i| reduce128_lazy(u128::from(a[i]) * u128::from(b[i]) + u128::from(c[i])))
                .collect(),
        ];
        for policy in
            available_policies("lazy_operations_return_the_scalar_representative_on_every_lane")
        {
            let mut out: [Vec<u64>; 4] = std::array::from_fn(|_| vec![0; a.len()]);
            let [o0, o1, o2, o3] = out.each_mut().map(|o| &mut o[..]);
            let (a, b, c) = (&a[..], &b[..], &c[..]);
            dispatch(
                LazyOps {
                    a,
                    b,
                    c,
                    out: [o0, o1, o2, o3],
                },
                Goldilocks,
                policy,
            );
            for (op, (got, want)) in ["add", "sub", "mul", "mul_add"]
                .iter()
                .zip(out.iter().zip(&scalar))
            {
                assert_eq!(got, want, "{op} {policy:?}");
            }
        }
    }

    #[test]
    fn policy_resolution_and_names() {
        let names = SimdPolicy::ALL.map(SimdPolicy::name);
        assert_eq!(names, ["scalar", "avx2", "avx512"]);
        let have = available_policies("policy_resolution_and_names");
        let detected = SimdPolicy::detected();
        assert_eq!(have.last(), Some(&detected), "detected is the widest lane");
        // Each lane is granted by name if the CPU has it, else the widest
        // lane below it that the CPU has.
        for asked in SimdPolicy::ALL {
            SimdPolicy::set_global(asked);
            let granted = SimdPolicy::global();
            let widest_below = have.iter().copied().filter(|&p| p <= asked).max();
            assert_eq!(Some(granted), widest_below, "asked for {asked:?}");
            assert_eq!(
                granted == asked,
                asked.is_available(),
                "asked for {asked:?}"
            );
        }
        SimdPolicy::set_global(detected);
        assert_eq!(SimdPolicy::global(), detected);
    }

    /// One limb of the `k = 3` chain — Goldilocks, then each generic prime —
    /// as the matrix below sees it: the modulus its kernels run under, on
    /// any lane, and the `u128` `%` arithmetic they are held to.
    #[derive(Debug, Clone, Copy)]
    struct Prime<'a>(&'a Limb);

    fn chain() -> ModulusChain {
        ModulusChain::new(3, 64)
    }

    impl Prime<'_> {
        fn q(self) -> u64 {
            self.0.modulus()
        }

        /// Runs `kernel` under this limb's modulus on `policy`'s lane —
        /// `NttTables::run`'s choice of modulus, with the lane as an
        /// argument so one limb covers every lane.
        fn run(self, kernel: impl Kernel, policy: SimdPolicy) {
            let (q, mu) = (self.q(), self.0.mu());
            if self.0.is_goldilocks() {
                dispatch(kernel, Goldilocks, policy);
            } else {
                dispatch(kernel, Barrett { q, mu }, policy);
            }
        }

        /// The values a conditional subtract or a wrap fix-up is most
        /// likely to get wrong under this prime.
        fn boundary(self) -> Vec<u64> {
            let q = self.q();
            let mut values = vec![0, 1, q - 1];
            if self.0.is_goldilocks() {
                values.extend([EPSILON - 1, EPSILON, EPSILON + 1, 1 << 32, q - 2]);
            }
            values
        }

        /// `n` canonical operands: the leading positions walk the boundary
        /// set (advancing once every `stride` positions, so two operands of
        /// different strides meet in every boundary pair), the rest are
        /// random.
        fn operand(self, n: usize, stride: usize, seed: u64) -> Vec<u64> {
            let boundary = self.boundary();
            let crossed = boundary.len() * boundary.len();
            let mut values: Vec<u64> = random_raw(n, seed).iter().map(|v| v % self.q()).collect();
            for (i, v) in values.iter_mut().enumerate().take(crossed) {
                *v = boundary[(i / stride) % boundary.len()];
            }
            values
        }

        fn mul(self, a: u64, b: u64) -> u64 {
            ((u128::from(a) * u128::from(b)) % u128::from(self.q())) as u64
        }

        fn add(self, a: u64, b: u64) -> u64 {
            ((u128::from(a) + u128::from(b)) % u128::from(self.q())) as u64
        }

        fn sub(self, a: u64, b: u64) -> u64 {
            self.add(a, self.q() - b % self.q())
        }
    }

    /// `n` whole words, residues of no prime in particular: first the ones a
    /// reduction gets wrong first — `0`, around `p` and `2^64 − 1`, and
    /// around the largest multiples of every prime of the chain — then
    /// random words.
    fn raw_words(n: usize, seed: u64) -> Vec<u64> {
        let mut edges = vec![0, MODULUS - 1, MODULUS, MODULUS + 1, u64::MAX];
        for limb in chain().limbs() {
            let q = limb.modulus();
            let top = u64::MAX / q * q;
            edges.extend([top - q, top - 1, top, top.saturating_add(1)]);
        }
        let mut words = random_raw(n, seed);
        for (word, edge) in words.iter_mut().zip(edges) {
            *word = edge;
        }
        words
    }

    /// Ragged lengths for every lane: none, less than one lane, whole lanes
    /// with and without a ragged end (15, 16 and 17 are one eight-wide lane
    /// and 7, two, and two and 1), and a long odd run.
    const LENGTHS: [usize; 15] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 64, 4099];

    /// Every pointwise kernel × every modulus × every lane the CPU has ×
    /// ragged lengths (so each vector body and the one-wide end all run), on
    /// boundary and random canonical operands, against `u128` `%`
    /// arithmetic.
    #[test]
    fn every_pointwise_kernel_matches_wide_arithmetic_on_every_instantiation() {
        let policies = available_policies(
            "every_pointwise_kernel_matches_wide_arithmetic_on_every_instantiation",
        );
        for prime in chain().limbs().iter().map(Prime) {
            let width = prime.boundary().len();
            for &policy in &policies {
                for n in LENGTHS {
                    let context = format!("{prime:?} {policy:?} n={n}");
                    let a0 = &prime.operand(n, 1, 0xA0)[..];
                    let a1 = &prime.operand(n, 1, 0xA1)[..];
                    let b0 = &prime.operand(n, width, 0xB0)[..];
                    let b1 = &prime.operand(n, width, 0xB1)[..];
                    let s0 = &prime.operand(n, 3, 0xC0)[..];
                    let s1 = &prime.operand(n, 5, 0xC1)[..];
                    let perm = (0..n as u32).map(|i| (i * 7 + 3) % n as u32);
                    let perm = &GaloisPermutation::new(perm.collect());
                    let (mut o0, mut o1) = (vec![0u64; n], vec![0u64; n]);
                    let zip = |f: &dyn Fn(usize) -> u64| (0..n).map(f).collect::<Vec<u64>>();

                    #[rustfmt::skip]
                    prime.run(Mul2 { x0: a0, x1: a1, m: b0, o0: &mut o0, o1: &mut o1 }, policy);
                    assert_eq!(o0, zip(&|i| prime.mul(a0[i], b0[i])), "mul2 {context}");
                    assert_eq!(o1, zip(&|i| prime.mul(a1[i], b0[i])), "mul2 {context}");

                    #[rustfmt::skip]
                    prime.run(MulAdd2 { a0, a1, b0, b1, s0, s1, o0: &mut o0, o1: &mut o1 }, policy);
                    let c2 = zip(&|i| prime.mul(a1[i], b1[i]));
                    let want0 = |i| prime.add(prime.mul(a0[i], b0[i]), prime.mul(c2[i], s0[i]));
                    let want1 = |i| {
                        let cross = prime.add(prime.mul(a0[i], b1[i]), prime.mul(a1[i], b0[i]));
                        prime.add(cross, prime.mul(c2[i], s1[i]))
                    };
                    assert_eq!(o0, zip(&want0), "mul_add2 {context}");
                    assert_eq!(o1, zip(&want1), "mul_add2 {context}");

                    #[rustfmt::skip]
                    prime.run(Galois2 { src0: a0, src1: a1, perm, key: b0, o0: &mut o0, o1: &mut o1 }, policy);
                    let gathered = |src: &[u64], i: usize| prime.mul(src[perm[i] as usize], b0[i]);
                    assert_eq!(o0, zip(&|i| gathered(a0, i)), "galois2 {context}");
                    assert_eq!(o1, zip(&|i| gathered(a1, i)), "galois2 {context}");

                    #[rustfmt::skip]
                    prime.run(Gather { src: a0, perm, out: &mut o0 }, policy);
                    assert_eq!(o0, zip(&|i| a0[perm[i] as usize]), "gather {context}");

                    let (x, y) = (a0, b0);
                    let sum = zip(&|i| prime.add(x[i], y[i]));
                    let difference = zip(&|i| prime.sub(x[i], y[i]));
                    let negation = zip(&|i| prime.sub(0, x[i]));
                    prime.run(Add { x, y, out: &mut o0 }, policy);
                    assert_eq!(o0, sum, "add {context}");
                    prime.run(Sub { x, y, out: &mut o0 }, policy);
                    assert_eq!(o0, difference, "sub {context}");
                    prime.run(Neg { x, out: &mut o0 }, policy);
                    assert_eq!(o0, negation, "neg {context}");

                    // Reduction takes raw words, not residues.
                    let raw = &raw_words(n, 0xD1)[..];
                    let reduced = zip(&|i| raw[i] % prime.q());
                    #[rustfmt::skip]
                    prime.run(Reduce { x: raw, out: &mut o0 }, policy);
                    assert_eq!(o0, reduced, "reduce {context}");
                    o0.copy_from_slice(raw);
                    prime.run(ReduceAssign { x: &mut o0 }, policy);
                    assert_eq!(o0, reduced, "reduce_assign {context}");

                    // Scaling takes working residues: every `u64` is one on
                    // Goldilocks.
                    let k = b1.first().copied().unwrap_or(1);
                    let raw = random_raw(n, 0xD0);
                    let lazy = if prime.0.is_goldilocks() {
                        &raw[..]
                    } else {
                        a1
                    };
                    o0.copy_from_slice(lazy);
                    prime.run(Scale { a: &mut o0, k }, policy);
                    let scaled = zip(&|i| prime.mul(lazy[i] % prime.q(), k));
                    assert_eq!(o0, scaled, "scale {context}");
                }
            }
        }
    }

    /// `input` after one whole stage of `butterfly`.
    fn staged(
        prime: Prime,
        policy: SimdPolicy,
        input: &[u64],
        twiddles: &[u64],
        t: usize,
        butterfly: impl Butterfly,
    ) -> Vec<u64> {
        let mut a = input.to_vec();
        #[rustfmt::skip]
        prime.run(Stage { a: &mut a, twiddles, t, butterfly }, policy);
        a
    }

    /// Both butterflies, as whole stages of every half-width — the ones a
    /// lane covers by moving values across groups (`t = 2, 1` four wide,
    /// `t = 4, 2, 1` eight wide, with odd group counts leaving whole groups
    /// to the lane walk), and wider ones with a ragged end — against `u128`
    /// `%` arithmetic, group by group.
    #[test]
    fn butterfly_stages_match_wide_arithmetic_on_every_instantiation() {
        let policies =
            available_policies("butterfly_stages_match_wide_arithmetic_on_every_instantiation");
        for prime in chain().limbs().iter().map(Prime) {
            let q = prime.q();
            for &policy in &policies {
                for t in [1usize, 2, 3, 4, 7, 8, 9, 64] {
                    for groups in 1..=9usize {
                        let context = format!("{prime:?} {policy:?} t={t} groups={groups}");
                        let input = prime.operand(2 * t * groups, 1, 0xE0);
                        let twiddles = &prime.operand(groups, 2, 0xE1)[..];
                        // (lo, hi, twiddle) of butterfly `j` of group `g`.
                        let operands = |g: usize, j: usize| {
                            let lo = 2 * g * t + j;
                            (input[lo], input[lo + t], twiddles[g])
                        };
                        let expect = |f: &dyn Fn(u64, u64, u64) -> (u64, u64)| {
                            let mut want = input.clone();
                            for g in 0..groups {
                                for j in 0..t {
                                    let (lo, hi, w) = operands(g, j);
                                    (want[2 * g * t + j], want[2 * g * t + j + t]) = f(lo, hi, w);
                                }
                            }
                            want
                        };
                        let forward = expect(&|lo, hi, w| {
                            let v = prime.mul(hi, w);
                            (prime.add(lo, v), prime.sub(lo, v))
                        });
                        let inverse = expect(&|lo, hi, w| {
                            (prime.add(lo, hi), prime.mul(prime.sub(lo, hi), w))
                        });

                        let mut a = staged(
                            prime,
                            policy,
                            &input,
                            twiddles,
                            t,
                            Forward { canonical: true },
                        );
                        assert_eq!(a, forward, "canonical forward {context}");
                        // Left lazy, a stage's outputs are still members of
                        // the right residue classes.
                        a = staged(
                            prime,
                            policy,
                            &input,
                            twiddles,
                            t,
                            Forward { canonical: false },
                        );
                        a.iter_mut().for_each(|v| *v %= q);
                        assert_eq!(a, forward, "lazy forward {context}");
                        a = staged(prime, policy, &input, twiddles, t, Inverse);
                        a.iter_mut().for_each(|v| *v %= q);
                        assert_eq!(a, inverse, "inverse {context}");
                    }
                }
            }
        }
    }

    /// A kernel handed slices of different lengths panics before its first
    /// lane, on every lane the CPU has: no instantiation reads or writes out
    /// of bounds. The long slices are two eight-wide lanes, the short ones
    /// one, so every vector lane would have whole lanes to run.
    #[test]
    #[rustfmt::skip]
    fn mismatched_slice_lengths_panic_under_every_policy() {
        let policies = available_policies("mismatched_slice_lengths_panic_under_every_policy");
        let (long, short) = (vec![1u64; 16], vec![1u64; 8]);
        let (l, s) = (&long[..], &short[..]);
        let perm16 = &*GaloisPermutation::new((0..16).collect());
        let perm8 = &*GaloisPermutation::new((0..8).collect());
        // `$kernel`, built over two fresh 16-long outputs, must panic.
        macro_rules! rejected {
            (|$o0:ident, $o1:ident| $kernel:expr) => {
                for &policy in &policies {
                    let (mut o0, mut o1) = (vec![0u64; 16], vec![0u64; 16]);
                    let ($o0, $o1) = (&mut o0[..], &mut o1[..]);
                    let run = AssertUnwindSafe(|| dispatch($kernel, Goldilocks, policy));
                    let what = stringify!($kernel);
                    assert!(catch_unwind(run).is_err(), "{policy:?} accepted {what}");
                }
            };
        }
        rejected!(|o0, o1| Mul2 { x0: l, x1: l, m: s, o0, o1 });
        rejected!(|o0, o1| Mul2 { x0: l, x1: l, m: l, o0, o1: &mut o1[..8] });
        rejected!(|o0, o1| MulAdd2 { a0: l, a1: l, b0: l, b1: l, s0: l, s1: s, o0, o1 });
        rejected!(|o0, o1| MulAdd2 { a0: l, a1: s, b0: l, b1: l, s0: l, s1: l, o0, o1 });
        rejected!(|o0, o1| Galois2 { src0: l, src1: l, perm: perm16, key: s, o0, o1 });
        rejected!(|o0, o1| Galois2 { src0: s, src1: s, perm: perm16, key: l, o0, o1 });
        rejected!(|o0, o1| Galois2 { src0: l, src1: l, perm: perm8, key: l, o0, o1 });
        rejected!(|out, _o| Gather { src: s, perm: perm16, out });
        rejected!(|out, _o| Gather { src: l, perm: perm16, out: &mut out[..8] });
        rejected!(|out, _o| Add { x: l, y: s, out });
        rejected!(|out, _o| Sub { x: s, y: l, out });
        rejected!(|out, _o| Neg { x: s, out });
        rejected!(|out, _o| Reduce { x: s, out });
        rejected!(|a, _o| Stage { a, twiddles: s, t: 4, butterfly: Inverse });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_permutation_with_an_out_of_range_index_is_rejected() {
        let _ = GaloisPermutation::new(vec![0, 1, 2, 9, 4, 5, 6, 7]);
    }

    /// `cargo test --release -p chehab-fhe simd -- --ignored --nocapture`:
    /// µs per 4 096-coefficient limb of the three fused kernels, `add` and
    /// the sampling reduction, and per degree-4 096 transform, one row per
    /// lane the CPU has under each modulus (best of 7 × 2 000).
    #[test]
    #[ignore = "a timer, not a check"]
    fn kernel_timer() {
        use std::hint::black_box;
        use std::time::Instant;
        let best_us = |f: &mut dyn FnMut()| {
            let rounds = (0..7).map(|_| {
                let started = Instant::now();
                (0..2000).for_each(|_| f());
                started.elapsed().as_secs_f64() * 1e6 / 2000.0
            });
            rounds.fold(f64::MAX, f64::min)
        };
        let n = 4096;
        let chain = chain();
        let policies = available_policies("kernel_timer");
        for prime in chain.limbs().iter().map(Prime).take(2) {
            let operand = |seed| prime.operand(n, 1, seed);
            let (a0, a1, b0, b1, s0, s1) = (
                operand(1),
                operand(2),
                operand(3),
                operand(4),
                operand(5),
                operand(6),
            );
            let (a0, a1, b0, b1, s0, s1) = (&a0[..], &a1[..], &b0[..], &b1[..], &s0[..], &s1[..]);
            let raw = &raw_words(n, 7)[..];
            let perm =
                &GaloisPermutation::new((0..n as u32).map(|i| (i * 7 + 3) % n as u32).collect());
            let (mut o0, mut o1) = (vec![0u64; n], vec![0u64; n]);
            for &policy in &policies {
                #[rustfmt::skip]
                let mul2 = best_us(&mut || prime.run(Mul2 { x0: a0, x1: a1, m: b0, o0: black_box(&mut o0), o1: &mut o1 }, policy));
                #[rustfmt::skip]
                let mul_add2 = best_us(&mut || prime.run(MulAdd2 { a0, a1, b0, b1, s0, s1, o0: black_box(&mut o0), o1: &mut o1 }, policy));
                #[rustfmt::skip]
                let galois2 = best_us(&mut || prime.run(Galois2 { src0: a0, src1: a1, perm, key: b0, o0: black_box(&mut o0), o1: &mut o1 }, policy));
                #[rustfmt::skip]
                let add = best_us(&mut || prime.run(Add { x: a0, y: a1, out: black_box(&mut o0) }, policy));
                #[rustfmt::skip]
                let reduce = best_us(&mut || prime.run(Reduce { x: raw, out: black_box(&mut o0) }, policy));
                println!(
                    "{:>10} x {:<6} mul2 {mul2:7.2}  mul_add2 {mul_add2:7.2}  galois2 {galois2:7.2}  add {add:6.2}  reduce {reduce:6.2}  (us / {n} coefficients)",
                    if prime.0.is_goldilocks() { "goldilocks" } else { "barrett" },
                    policy.name()
                );
            }
        }
        let chains: Vec<ModulusChain> = (policies.iter())
            .map(|&policy| ModulusChain::with_policy(2, n, policy))
            .collect();
        for limb in 0..2 {
            for (&policy, chain) in policies.iter().zip(&chains) {
                let limb = chain.limb(limb);
                let mut a = Prime(limb).operand(n, 1, 9);
                let tables = limb.tables();
                let forward = best_us(&mut || tables.forward(black_box(&mut a)));
                let inverse = best_us(&mut || tables.inverse(black_box(&mut a)));
                println!(
                    "{:>10} x {:<6} ntt forward {forward:7.2}  inverse {inverse:7.2}  (us / {n})",
                    if limb.is_goldilocks() {
                        "goldilocks"
                    } else {
                        "barrett"
                    },
                    policy.name()
                );
            }
        }
    }
}
