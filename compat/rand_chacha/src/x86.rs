//! The two vector lanes of [`Word`]: eight blocks side by side in a 256-bit
//! AVX2 vector ([`U32x8`]) and sixteen in a 512-bit AVX-512 one
//! ([`U32x16`]); lane `b` belongs to block `counter + b`, and
//! [`Word::store_blocks`] transposes the finished words into stream order.
//!
//! The one module in the crate allowed to use `unsafe`, for stable
//! `std::arch` intrinsics. Its invariant: both lane types are private to this
//! module and only built under its two `#[target_feature]` entries —
//! [`U32x8`] under [`refill_avx2`], [`U32x16`] under [`refill_avx512`] — which
//! the safe [`refill`] enters only after `is_x86_feature_detected!` reports
//! the feature.
#![allow(unsafe_code)]

use super::{refill_with, Kernel, Word, BLOCK, BUFFER};
use std::arch::x86_64::*;

/// Writes the sixteen blocks `counter ..` (wrapping) to `out` in stream order
/// on `kernel` — or returns `false`, `out` untouched, if `kernel` is not a
/// vector kernel this CPU has.
pub(crate) fn refill(
    kernel: Kernel,
    key: &[u32; 8],
    counter: u64,
    out: &mut [u32; BUFFER],
) -> bool {
    match kernel {
        Kernel::Avx512 if is_x86_feature_detected!("avx512f") => {
            // SAFETY: the CPU reported AVX-512 F on the line above.
            unsafe { refill_avx512(key, counter, out) };
            true
        }
        Kernel::Avx2 if is_x86_feature_detected!("avx2") => {
            // SAFETY: the CPU reported AVX2 on the line above.
            unsafe { refill_avx2(key, counter, out) };
            true
        }
        _ => false,
    }
}

/// Two eight-block calls.
#[target_feature(enable = "avx2")]
fn refill_avx2(key: &[u32; 8], counter: u64, out: &mut [u32; BUFFER]) {
    refill_with::<U32x8>(key, counter, out)
}

/// One sixteen-block call.
#[target_feature(enable = "avx512f")]
fn refill_avx512(key: &[u32; 8], counter: u64, out: &mut [u32; BUFFER]) {
    refill_with::<U32x16>(key, counter, out)
}

/// `(counter + b) >> shift` in lane `b`: the sum is taken in 64 bits, so a
/// carry out of word 12 lands in that lane's word 13.
#[inline(always)]
fn lane_counters<const LANES: usize>(counter: u64, shift: u32) -> [u32; LANES] {
    std::array::from_fn(|b| (counter.wrapping_add(b as u64) >> shift) as u32)
}

/// Eight `u32` lanes; AVX2 is present wherever one exists (module docs).
#[derive(Clone, Copy)]
struct U32x8(__m256i);

impl Word for U32x8 {
    const BLOCKS: usize = 8;

    #[inline(always)]
    fn splat(x: u32) -> Self {
        // SAFETY: AVX2 is present wherever a `U32x8` is (module docs).
        U32x8(unsafe { _mm256_set1_epi32(x as i32) })
    }

    #[inline(always)]
    fn counters(counter: u64, shift: u32) -> Self {
        let lanes: [u32; 8] = lane_counters(counter, shift);
        // SAFETY: `lanes` is the 32 bytes the unaligned load reads; AVX2 as
        // above.
        U32x8(unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) })
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        // SAFETY: AVX2 is present wherever a `U32x8` is (module docs).
        U32x8(unsafe { _mm256_add_epi32(self.0, rhs.0) })
    }

    #[inline(always)]
    fn xor_rotl<const N: i32>(self, rhs: Self) -> Self {
        // SAFETY: AVX2 is present wherever a `U32x8` is (module docs).
        unsafe {
            let x = _mm256_xor_si256(self.0, rhs.0);
            // Shift, shift, or: with `N` a constant, the whole-byte
            // rotations compile to one `vpshufb`.
            let left = _mm256_sll_epi32(x, _mm_cvtsi32_si128(N));
            let right = _mm256_srl_epi32(x, _mm_cvtsi32_si128(32 - N));
            U32x8(_mm256_or_si256(left, right))
        }
    }

    #[inline(always)]
    fn store_blocks(words: [Self; BLOCK], out: &mut [u32]) {
        // No closures here, as in `U32x16::store_blocks`.
        // SAFETY: AVX2 is present wherever a `U32x8` is (module docs).
        unsafe {
            // `words[w]` holds word `w` of all eight blocks; the stream
            // wants block `b`'s sixteen words together: an 8×8 transpose
            // per half block, by 32-bit, 64-bit and 128-bit interleaves.
            for half in 0..2 {
                let r = &words[8 * half..][..8];
                let mut t = [_mm256_setzero_si256(); 8];
                for p in 0..4 {
                    t[2 * p] = _mm256_unpacklo_epi32(r[2 * p].0, r[2 * p + 1].0);
                    t[2 * p + 1] = _mm256_unpackhi_epi32(r[2 * p].0, r[2 * p + 1].0);
                }
                // `u[c]` holds columns `c` and `c + 4` of rows 0–3, `u[c + 4]`
                // those of rows 4–7.
                let mut u = [_mm256_setzero_si256(); 8];
                for rows in [0, 4] {
                    u[rows] = _mm256_unpacklo_epi64(t[rows], t[rows + 2]);
                    u[rows + 1] = _mm256_unpackhi_epi64(t[rows], t[rows + 2]);
                    u[rows + 2] = _mm256_unpacklo_epi64(t[rows + 1], t[rows + 3]);
                    u[rows + 3] = _mm256_unpackhi_epi64(t[rows + 1], t[rows + 3]);
                }
                for c in 0..4 {
                    let low = _mm256_permute2x128_si256::<0x20>(u[c], u[c + 4]);
                    let high = _mm256_permute2x128_si256::<0x31>(u[c], u[c + 4]);
                    for (b, column) in [(c, low), (c + 4, high)] {
                        let dest = &mut out[BLOCK * b + 8 * half..][..8];
                        // `dest` is eight `u32`s, the 32 bytes the
                        // unaligned store writes.
                        _mm256_storeu_si256(dest.as_mut_ptr().cast(), column);
                    }
                }
            }
        }
    }
}

/// Sixteen `u32` lanes; AVX-512 F is present wherever one exists (module
/// docs).
#[derive(Clone, Copy)]
struct U32x16(__m512i);

impl Word for U32x16 {
    const BLOCKS: usize = 16;

    #[inline(always)]
    fn splat(x: u32) -> Self {
        // SAFETY: AVX-512 F is present wherever a `U32x16` is (module docs).
        U32x16(unsafe { _mm512_set1_epi32(x as i32) })
    }

    #[inline(always)]
    fn counters(counter: u64, shift: u32) -> Self {
        let lanes: [u32; 16] = lane_counters(counter, shift);
        // SAFETY: `lanes` is the 64 bytes the unaligned load reads; AVX-512 F
        // as above.
        U32x16(unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) })
    }

    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        // SAFETY: AVX-512 F is present wherever a `U32x16` is (module docs).
        U32x16(unsafe { _mm512_add_epi32(self.0, rhs.0) })
    }

    #[inline(always)]
    fn xor_rotl<const N: i32>(self, rhs: Self) -> Self {
        // SAFETY: AVX-512 F is present wherever a `U32x16` is (module docs).
        // One `vprold`: AVX-512 rotates natively.
        U32x16(unsafe { _mm512_rol_epi32::<N>(_mm512_xor_si512(self.0, rhs.0)) })
    }

    #[inline(always)]
    fn store_blocks(words: [Self; BLOCK], out: &mut [u32]) {
        // No closures here: one the compiler declines to inline would run
        // its intrinsics outside the `#[target_feature]` entry, one call
        // each.
        // SAFETY: AVX-512 F is present wherever a `U32x16` is (module docs).
        unsafe {
            // A 16×16 transpose. The 32-bit and 64-bit interleaves
            // transpose 4×4 tiles inside each 128-bit quarter: afterwards
            // `u[g][c]` holds, in quarter `L`, words `4g .. 4g + 4` of
            // block `4L + c`.
            let mut u = [[_mm512_setzero_si512(); 4]; 4];
            for (g, tile) in u.iter_mut().enumerate() {
                let r = &words[4 * g..][..4];
                let (r0, r1, r2, r3) = (r[0].0, r[1].0, r[2].0, r[3].0);
                let (t0, t1) = (_mm512_unpacklo_epi32(r0, r1), _mm512_unpackhi_epi32(r0, r1));
                let (t2, t3) = (_mm512_unpacklo_epi32(r2, r3), _mm512_unpackhi_epi32(r2, r3));
                *tile = [
                    _mm512_unpacklo_epi64(t0, t2),
                    _mm512_unpackhi_epi64(t0, t2),
                    _mm512_unpacklo_epi64(t1, t3),
                    _mm512_unpackhi_epi64(t1, t3),
                ];
            }
            // Then a 4×4 transpose of quarters, per column `c`: block
            // `4L + c` is quarter `L` of `u[0][c]`, `u[1][c]`, `u[2][c]`,
            // `u[3][c]`, in that order. `0x44` / `0xEE` take quarters
            // `(a0, a1, b0, b1)` / `(a2, a3, b2, b3)`, then `0x88` / `0xDD`
            // take `(a0, a2, b0, b2)` / `(a1, a3, b1, b3)`.
            for c in 0..4 {
                let v0 = _mm512_shuffle_i32x4::<0x44>(u[0][c], u[1][c]);
                let v1 = _mm512_shuffle_i32x4::<0xEE>(u[0][c], u[1][c]);
                let v2 = _mm512_shuffle_i32x4::<0x44>(u[2][c], u[3][c]);
                let v3 = _mm512_shuffle_i32x4::<0xEE>(u[2][c], u[3][c]);
                let quarters = [
                    _mm512_shuffle_i32x4::<0x88>(v0, v2),
                    _mm512_shuffle_i32x4::<0xDD>(v0, v2),
                    _mm512_shuffle_i32x4::<0x88>(v1, v3),
                    _mm512_shuffle_i32x4::<0xDD>(v1, v3),
                ];
                for (quarter, column) in quarters.into_iter().enumerate() {
                    let dest = &mut out[BLOCK * (4 * quarter + c)..][..BLOCK];
                    // `dest` is sixteen `u32`s, the 64 bytes the unaligned
                    // store writes.
                    _mm512_storeu_si512(dest.as_mut_ptr().cast(), column);
                }
            }
        }
    }
}
