//! The eight-block AVX2 kernel: [`Word`] over a 256-bit vector whose lane
//! `b` belongs to block `counter + b`, then a transpose into stream order.
//!
//! The one module in the crate allowed to use `unsafe`, for stable
//! `std::arch` intrinsics. Its invariant: a [`U32x8`] is private to this
//! module and only built under [`refill_avx2`], which [`refill`] enters only
//! after `is_x86_feature_detected!("avx2")`.
#![allow(unsafe_code)]

use super::{block, initial_state, Word, BLOCK, BUFFER};
use std::arch::x86_64::*;

/// Eight `u32` lanes; AVX2 is present wherever one exists (module docs).
#[derive(Clone, Copy)]
struct U32x8(__m256i);

impl Word for U32x8 {
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        // SAFETY: AVX2 is present wherever a `U32x8` is (module docs).
        U32x8(unsafe { _mm256_add_epi32(self.0, rhs.0) })
    }

    #[inline(always)]
    fn xor_rotl(self, rhs: Self, n: u32) -> Self {
        // SAFETY: AVX2 is present wherever a `U32x8` is (module docs).
        unsafe {
            let x = _mm256_xor_si256(self.0, rhs.0);
            // Shift, shift, or: with `n` a constant once inlined, the
            // whole-byte rotations compile to one `vpshufb`.
            let left = _mm256_sll_epi32(x, _mm_cvtsi32_si128(n as i32));
            let right = _mm256_srl_epi32(x, _mm_cvtsi32_si128(32 - n as i32));
            U32x8(_mm256_or_si256(left, right))
        }
    }
}

/// Writes blocks `counter .. counter + 8` (wrapping) to `out` in stream
/// order — or returns `false`, `out` untouched, on a CPU without AVX2.
pub(crate) fn refill(key: &[u32; 8], counter: u64, out: &mut [u32; BUFFER]) -> bool {
    if !is_x86_feature_detected!("avx2") {
        return false;
    }
    // SAFETY: the CPU reported AVX2 on the line above.
    unsafe { refill_avx2(key, counter, out) };
    true
}

#[target_feature(enable = "avx2")]
fn refill_avx2(key: &[u32; 8], counter: u64, out: &mut [u32; BUFFER]) {
    // Lane `b` counts `counter + b`; the sum is taken in 64 bits, so a carry
    // out of word 12 lands in that lane's word 13.
    let lanes = |shift: u32| {
        let b = |b: u64| (counter.wrapping_add(b) >> shift) as i32;
        _mm256_setr_epi32(b(0), b(1), b(2), b(3), b(4), b(5), b(6), b(7))
    };
    let mut state = [U32x8(_mm256_setzero_si256()); BLOCK];
    for (word, x) in state.iter_mut().zip(initial_state(key, 0)) {
        *word = U32x8(_mm256_set1_epi32(x as i32));
    }
    (state[12], state[13]) = (U32x8(lanes(0)), U32x8(lanes(32)));
    let words = block(state);
    let mut store = |b: usize, half: usize, column: __m256i| {
        let dest = &mut out[BLOCK * b + 8 * half..][..8];
        // SAFETY: `dest` is eight `u32`s, the 32 bytes the unaligned store
        // writes.
        unsafe { _mm256_storeu_si256(dest.as_mut_ptr().cast(), column) };
    };
    // `words[w]` holds word `w` of all eight blocks; the stream wants block
    // `b`'s sixteen words together: an 8×8 transpose per half block, by
    // 32-bit, 64-bit and 128-bit interleaves.
    let pair32 = |a, b| [_mm256_unpacklo_epi32(a, b), _mm256_unpackhi_epi32(a, b)];
    let pair64 = |a, b| [_mm256_unpacklo_epi64(a, b), _mm256_unpackhi_epi64(a, b)];
    for half in 0..2 {
        let r = |w: usize| words[8 * half + w].0;
        let ([t0, t1], [t2, t3]) = (pair32(r(0), r(1)), pair32(r(2), r(3)));
        let ([t4, t5], [t6, t7]) = (pair32(r(4), r(5)), pair32(r(6), r(7)));
        // `u[c]` holds columns `c` and `c + 4` of rows 0–3, then of rows 4–7.
        let ([u0, u1], [u2, u3]) = (pair64(t0, t2), pair64(t1, t3));
        let ([u4, u5], [u6, u7]) = (pair64(t4, t6), pair64(t5, t7));
        let halves = [(u0, u4), (u1, u5), (u2, u6), (u3, u7)];
        for (c, (top, bottom)) in halves.into_iter().enumerate() {
            store(c, half, _mm256_permute2x128_si256::<0x20>(top, bottom));
            store(c + 4, half, _mm256_permute2x128_si256::<0x31>(top, bottom));
        }
    }
}
