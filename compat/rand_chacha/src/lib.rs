//! A minimal stand-in for the `rand_chacha` crate (see `compat/rand`).
//!
//! Implements the real ChaCha8 block function (32-byte key, 64-bit block
//! counter in words 12–13, zero nonce), exposed through the vendored
//! [`rand::RngCore`] / [`rand::SeedableRng`] traits. Only seeded determinism
//! is relied upon by the workspace; the stream is not byte-compatible with
//! upstream `rand_chacha`.
//!
//! The block function is written once, over a lane type: a `u32` is one block,
//! the `x86` module's vectors (the one module here that opts back into
//! `unsafe`) eight consecutive blocks on AVX2 and sixteen on AVX-512. The
//! generator buffers sixteen blocks per refill on every kernel — AVX-512 in
//! one call, AVX2 in two, the scalar kernel in sixteen — so the stream is the
//! same bit for bit. The widest kernel the CPU has is chosen by
//! `is_x86_feature_detected!` alone; the scalar kernel is the fallback and
//! the oracle. [`ChaCha8Rng::set_word_pos`] (upstream's name) moves the
//! stream to any word and [`ChaCha8Rng::get_word_pos`] reads where it stands,
//! which is how several workers draw disjoint stretches of one stream.

#![deny(unsafe_code)]

#[cfg(target_arch = "x86_64")]
mod x86;

use rand::{RngCore, SeedableRng};

/// Words in one ChaCha block.
const BLOCK: usize = 16;
/// Blocks the generator buffers: the AVX-512 kernel's lane count.
const BUFFER_BLOCKS: usize = 16;
/// Words the generator buffers.
const BUFFER: usize = BUFFER_BLOCKS * BLOCK;

/// One state word of [`Word::BLOCKS`] independent blocks, side by side.
trait Word: Copy {
    /// Blocks side by side.
    const BLOCKS: usize;
    /// `x` in every lane.
    fn splat(x: u32) -> Self;
    /// `(counter + b) >> shift`, truncated to 32 bits, in lane `b`.
    fn counters(counter: u64, shift: u32) -> Self;
    fn add(self, rhs: Self) -> Self;
    /// `(self ^ rhs).rotate_left(N)` in every lane, `N ∈ {16, 12, 8, 7}`.
    fn xor_rotl<const N: i32>(self, rhs: Self) -> Self;
    /// Writes the blocks to `out` (`Self::BLOCKS · 16` words) in stream order;
    /// `words[w]` holds word `w` of every block.
    fn store_blocks(words: [Self; BLOCK], out: &mut [u32]);
}

impl Word for u32 {
    const BLOCKS: usize = 1;

    fn splat(x: u32) -> u32 {
        x
    }
    fn counters(counter: u64, shift: u32) -> u32 {
        (counter >> shift) as u32
    }
    fn add(self, rhs: u32) -> u32 {
        self.wrapping_add(rhs)
    }
    fn xor_rotl<const N: i32>(self, rhs: u32) -> u32 {
        (self ^ rhs).rotate_left(N as u32)
    }
    fn store_blocks(words: [u32; BLOCK], out: &mut [u32]) {
        out.copy_from_slice(&words);
    }
}

#[inline(always)]
fn quarter_round<W: Word>(s: &mut [W; BLOCK], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].add(s[b]);
    s[d] = s[d].xor_rotl::<16>(s[a]);
    s[c] = s[c].add(s[d]);
    s[b] = s[b].xor_rotl::<12>(s[c]);
    s[a] = s[a].add(s[b]);
    s[d] = s[d].xor_rotl::<8>(s[a]);
    s[c] = s[c].add(s[d]);
    s[b] = s[b].xor_rotl::<7>(s[c]);
}

/// The ChaCha8 block function, in every lane of `input` at once.
#[inline(always)]
fn block<W: Word>(input: [W; BLOCK]) -> [W; BLOCK] {
    let mut s = input;
    for _ in 0..4 {
        // One double round: four column rounds plus four diagonal rounds.
        quarter_round(&mut s, 0, 4, 8, 12);
        quarter_round(&mut s, 1, 5, 9, 13);
        quarter_round(&mut s, 2, 6, 10, 14);
        quarter_round(&mut s, 3, 7, 11, 15);
        quarter_round(&mut s, 0, 5, 10, 15);
        quarter_round(&mut s, 1, 6, 11, 12);
        quarter_round(&mut s, 2, 7, 8, 13);
        quarter_round(&mut s, 3, 4, 9, 14);
    }
    for (out, init) in s.iter_mut().zip(input) {
        *out = out.add(init);
    }
    s
}

/// Writes blocks `counter .. counter + 16` (wrapping) to `out` in stream
/// order, `W::BLOCKS` at a time. Each block's input state is "expand 32-byte
/// k", the key, its counter and a zero nonce.
#[inline(always)]
fn refill_with<W: Word>(key: &[u32; 8], counter: u64, out: &mut [u32; BUFFER]) {
    const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];
    for (call, blocks) in out.chunks_exact_mut(W::BLOCKS * BLOCK).enumerate() {
        let first = counter.wrapping_add((call * W::BLOCKS) as u64);
        let mut state = [W::splat(0); BLOCK];
        for (word, &x) in state.iter_mut().zip(SIGMA.iter().chain(key)) {
            *word = W::splat(x);
        }
        (state[12], state[13]) = (W::counters(first, 0), W::counters(first, 32));
        W::store_blocks(block(state), blocks);
    }
}

/// Which block function refills the buffer. Every kernel writes the same
/// words; the generator runs the widest one the CPU has.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kernel {
    /// One block at a time, in portable code.
    Scalar,
    /// Eight blocks side by side (x86-64 with AVX2).
    Avx2,
    /// Sixteen blocks side by side (x86-64 with AVX-512 F).
    Avx512,
}

impl Kernel {
    /// The widest kernel this CPU has.
    fn detected() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                return Kernel::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return Kernel::Avx2;
            }
        }
        Kernel::Scalar
    }

    /// Writes blocks `counter .. counter + 16` (wrapping) to `out` in stream
    /// order — on the scalar kernel if this one is not available.
    fn refill(self, key: &[u32; 8], counter: u64, out: &mut [u32; BUFFER]) {
        #[cfg(target_arch = "x86_64")]
        if x86::refill(self, key, counter, out) {
            return;
        }
        refill_with::<u32>(key, counter, out);
    }
}

/// A ChaCha stream cipher based generator with 8 rounds.
#[derive(Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    /// The first block the next refill generates: always a multiple of
    /// sixteen, so a buffer holds the same words however the stream reached
    /// it.
    counter: u64,
    buffer: [u32; BUFFER],
    index: usize,
    /// The refill kernel: [`Kernel::detected`], or whichever one a test
    /// checks the stream on.
    kernel: Kernel,
}

/// The key and the buffered keystream stay out of `{:?}` — a generator is a
/// field of every encryptor and key generator.
impl std::fmt::Debug for ChaCha8Rng {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaCha8Rng")
            .field("counter", &self.counter)
            .finish_non_exhaustive()
    }
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let first = self.counter;
        self.counter = first.wrapping_add(BUFFER_BLOCKS as u64);
        self.index = 0;
        self.kernel.refill(&self.key, first, &mut self.buffer);
    }

    /// Positions the stream at `word_offset` 32-bit words from its start:
    /// the next draws are the ones a fresh generator returns after drawing
    /// that many words (the block counter wraps at 2^64 blocks, as the
    /// stream does). A position on a buffer boundary costs nothing until
    /// the next draw; any other one refills at once.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        let buffers = (word_offset / BUFFER as u128) as u64;
        self.counter = buffers.wrapping_mul(BUFFER_BLOCKS as u64);
        self.index = BUFFER;
        let within = (word_offset % BUFFER as u128) as usize;
        if within > 0 {
            self.refill();
            self.index = within;
        }
    }

    /// The stream's position: the number of 32-bit words drawn from its
    /// start (modulo the stream's `2^68` words), so
    /// `set_word_pos(get_word_pos())` continues it exactly.
    pub fn get_word_pos(&self) -> u128 {
        const STREAM_WORDS: u128 = (BLOCK as u128) << 64;
        let next_refill = u128::from(self.counter) * BLOCK as u128;
        (next_refill + STREAM_WORDS - (BUFFER - self.index) as u128) % STREAM_WORDS
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUFFER {
            self.refill();
        }
        let word = self.buffer[self.index];
        self.index += 1;
        word
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }

    fn fill_u64(&mut self, dest: &mut [u64]) {
        let mut dest = dest.iter_mut();
        // The value that needs a refill, or straddles one after an odd number
        // of `next_u32` draws, is drawn the ordinary way ...
        while let Some(out) = dest.next() {
            *out = self.next_u64();
            // ... and whole word pairs come straight out of the buffer.
            let (pairs, wanted) = (self.buffer[self.index..].chunks_exact(2), dest.len());
            for (w, out) in pairs.zip(dest.by_ref()) {
                *out = u64::from(w[0]) | u64::from(w[1]) << 32;
            }
            self.index += 2 * (wanted - dest.len());
        }
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let word = |i: usize| u32::from_le_bytes([seed[i], seed[i + 1], seed[i + 2], seed[i + 3]]);
        ChaCha8Rng {
            key: std::array::from_fn(|i| word(4 * i)),
            counter: 0,
            buffer: [0; BUFFER],
            index: BUFFER,
            kernel: Kernel::detected(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Every kernel this CPU has, scalar first (a CPU with AVX-512 has AVX2);
    /// `test` names who asks when the skipped ones are printed.
    fn kernels(test: &str) -> Vec<Kernel> {
        let all = [Kernel::Scalar, Kernel::Avx2, Kernel::Avx512];
        let (have, lack): (Vec<Kernel>, Vec<Kernel>) =
            all.into_iter().partition(|&k| k <= Kernel::detected());
        if !lack.is_empty() {
            println!("{test}: skipped {lack:?}, which this CPU does not have");
        }
        have
    }

    /// A seeded generator that refills on `kernel`.
    fn seeded_on(kernel: Kernel, seed: u64) -> ChaCha8Rng {
        ChaCha8Rng {
            kernel,
            ..ChaCha8Rng::seed_from_u64(seed)
        }
    }

    #[test]
    fn seeded_streams_are_deterministic_and_seed_sensitive() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn works_through_the_rng_trait() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..100 {
            let v: usize = rng.gen_range(0..10);
            assert!(v < 10);
            let f: f32 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn clones_continue_the_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    /// The published ChaCha8 keystream for the all-zero key and nonce
    /// (block 0): what makes this "the real ChaCha8 block function".
    #[test]
    fn zero_key_matches_the_published_vector() {
        const HEX: &str = "3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e\
                           984ce172b9216f419f445367456d5619314a42a3da86b001387bfdb80e0cfe42";
        let expected: Vec<u8> = (0..64)
            .map(|i| u8::from_str_radix(&HEX[2 * i..2 * i + 2], 16).unwrap())
            .collect();
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        let got: Vec<u8> = (0..16).flat_map(|_| rng.next_u32().to_le_bytes()).collect();
        assert_eq!(got, expected);
    }

    /// The stream every seeded weight, key id and payload stripe in the
    /// workspace was drawn from, pinned: FNV-1a over words (xor, then
    /// multiply) of the first 300 `next_u64()` values of seed 42.
    #[test]
    fn seed_42_draws_the_recorded_stream() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let first = rng.clone().next_u64();
        let fold = (0..300).fold(0xcbf2_9ce4_8422_2325u64, |h, _| {
            (h ^ rng.next_u64()).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(first, 0x3115_9ef9_87c9_1afc);
        assert_eq!(fold, 0xbcf2_db84_072d_b44a);
    }

    /// Every vector kernel, called directly, against the scalar one — on
    /// seeded keys and on first-block counters that carry into word 13 at
    /// every lane position (`2^32 − 16 … 2^32 + 16`) and that wrap the
    /// 64-bit counter.
    #[test]
    fn wide_kernel_matches_scalar() {
        let mut seeds = ChaCha8Rng::seed_from_u64(0xC4AC4A);
        let mut counters: Vec<u64> = ((1u64 << 32) - 16..=(1u64 << 32) + 16).collect();
        counters.extend([0, 1, u64::MAX - 3, u64::MAX - 7, u64::MAX - 15, u64::MAX]);
        counters.extend((0..16).map(|_| seeds.next_u64()));
        let wide = kernels("wide_kernel_matches_scalar");
        for counter in counters {
            let key = std::array::from_fn(|_| seeds.next_u32());
            let mut scalar = [0u32; BUFFER];
            Kernel::Scalar.refill(&key, counter, &mut scalar);
            for &kernel in &wide[1..] {
                let mut got = [0u32; BUFFER];
                kernel.refill(&key, counter, &mut got);
                assert_eq!(
                    got, scalar,
                    "{kernel:?} key {key:08x?} counter {counter:#x}"
                );
            }
        }
    }

    /// `fill` returns exactly what repeated `next_u64` calls do, from any
    /// word alignment, across refills and clones — on every kernel.
    #[test]
    fn fill_equals_repeated_next_u64_at_any_alignment() {
        for kernel in kernels("fill_equals_repeated_next_u64_at_any_alignment") {
            let mut plan = ChaCha8Rng::seed_from_u64(0xF111);
            for case in 0..200 {
                let mut bulk = seeded_on(kernel, case);
                // An odd number of `next_u32` draws leaves every later `u64`
                // straddling a word pair — and one of them a refill.
                for _ in 0..plan.gen_range(0..2 * BUFFER) {
                    bulk.next_u32();
                }
                let mut single = bulk.clone();
                let len = plan.gen_range(0..=1400usize);
                let split = plan.gen_range(0..=len);
                let mut got = vec![0u64; len];
                bulk.fill(&mut got[..split]);
                // A clone taken mid-buffer carries the buffered words with it.
                let mut bulk = bulk.clone();
                bulk.fill(&mut got[split..]);
                let expected: Vec<u64> = (0..len).map(|_| single.next_u64()).collect();
                let context = format!("{kernel:?} case {case}: len {len} split {split}");
                assert_eq!(got, expected, "{context}");
                assert_eq!(bulk.next_u32(), single.next_u32(), "{context}: position");
                assert_eq!(bulk.next_u64(), single.next_u64(), "{context}: position");
            }
        }
    }

    /// `set_word_pos(w)` continues exactly where `w` draws of a fresh
    /// stream leave off — at the start, mid-buffer, on and around a buffer
    /// boundary and many buffers in; on every kernel; from a fresh generator
    /// and from one already drawn past the position.
    #[test]
    fn set_word_pos_continues_a_fresh_stream_after_that_many_words() {
        let kernels = kernels("set_word_pos_continues_a_fresh_stream_after_that_many_words");
        for w in [0u128, 1, 127, 128, 129, 255, 256, 257, 5 * 16_384 + 3] {
            // The oracle: `w` words of a fresh stream on the scalar kernel.
            let mut fresh = seeded_on(Kernel::Scalar, 0x5eed);
            for _ in 0..w {
                fresh.next_u32();
            }
            let expected: Vec<u32> = (0..600).map(|_| fresh.next_u32()).collect();
            for &kernel in &kernels {
                let mut ahead = seeded_on(kernel, 0x5eed);
                for _ in 0..w + 1000 {
                    ahead.next_u32();
                }
                for mut rng in [seeded_on(kernel, 0x5eed), ahead] {
                    rng.set_word_pos(w);
                    let got: Vec<u32> = (0..600).map(|_| rng.next_u32()).collect();
                    assert_eq!(got, expected, "w {w}, {kernel:?}");
                }
            }
        }
    }

    /// `get_word_pos` counts every word drawn, by `next_u32`, `next_u64` or
    /// `fill` in any mix, and a fresh stream moved there by `set_word_pos`
    /// continues exactly where the drawn one does — on every kernel, and
    /// across the end of the stream, where both wrap.
    #[test]
    fn set_word_pos_of_get_word_pos_continues_the_stream() {
        let mut plan = ChaCha8Rng::seed_from_u64(0x905);
        for kernel in kernels("set_word_pos_of_get_word_pos_continues_the_stream") {
            let seeded = || seeded_on(kernel, 0x5eed);
            let mut rng = seeded();
            let mut drawn = 0u128;
            for step in 0..300 {
                match plan.gen_range(0..3) {
                    0 => {
                        rng.next_u32();
                        drawn += 1;
                    }
                    1 => {
                        rng.next_u64();
                        drawn += 2;
                    }
                    _ => {
                        let mut values = vec![0u64; plan.gen_range(0..300)];
                        rng.fill(&mut values[..]);
                        drawn += 2 * values.len() as u128;
                    }
                }
                let context = format!("step {step}, {kernel:?}");
                assert_eq!(rng.get_word_pos(), drawn, "{context}");
                let mut resumed = seeded();
                resumed.set_word_pos(rng.get_word_pos());
                let mut ahead = rng.clone();
                let expected: Vec<u32> = (0..40).map(|_| ahead.next_u32()).collect();
                let got: Vec<u32> = (0..40).map(|_| resumed.next_u32()).collect();
                assert_eq!(got, expected, "{context}");
            }
            let end = 1u128 << 68;
            rng.set_word_pos(end - 3);
            assert_eq!(rng.get_word_pos(), end - 3);
            let mut wrapped = rng.clone();
            wrapped.set_word_pos(rng.get_word_pos());
            for _ in 0..5 {
                assert_eq!(wrapped.next_u32(), rng.next_u32());
            }
            assert_eq!(rng.get_word_pos(), 2, "{kernel:?}");
            let mut start = seeded();
            start.set_word_pos(2);
            assert_eq!(start.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn debug_shows_no_key_or_keystream_word() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let first = rng.next_u32();
        let shown = format!("{rng:?}");
        assert_eq!(shown, "ChaCha8Rng { counter: 16, .. }");
        for word in rng.key.iter().chain(&rng.buffer).chain([&first]) {
            assert!(!shown.contains(&word.to_string()), "{shown} shows {word}");
            assert!(
                !shown.contains(&format!("{word:x}")),
                "{shown} shows {word:x}"
            );
        }
    }

    /// Keystream timer (`cargo test --release -p rand_chacha -- --ignored
    /// --nocapture`): µs per 64 KB on each kernel this CPU has.
    #[test]
    #[ignore = "a timer, not a check"]
    fn keystream_timer() {
        let refills = 64 * 1024 / (4 * BUFFER) as u64;
        for kernel in kernels("keystream_timer") {
            let key = std::hint::black_box([7u32; 8]);
            let mut out = [0u32; BUFFER];
            let mut best = f64::INFINITY;
            for _ in 0..200 {
                let start = std::time::Instant::now();
                for refill in 0..refills {
                    kernel.refill(&key, BUFFER_BLOCKS as u64 * refill, &mut out);
                    std::hint::black_box(&mut out);
                }
                best = best.min(start.elapsed().as_secs_f64() * 1e6);
            }
            println!("{kernel:?}: {best:.1} us per 64 KB keystream (best of 200)");
        }
    }
}
