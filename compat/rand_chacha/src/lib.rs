//! A minimal stand-in for the `rand_chacha` crate (see `compat/rand`).
//!
//! Implements the real ChaCha8 block function (32-byte key, 64-bit block
//! counter in words 12–13, zero nonce), exposed through the vendored
//! [`rand::RngCore`] / [`rand::SeedableRng`] traits. Only seeded determinism
//! is relied upon by the workspace; the stream is not byte-compatible with
//! upstream `rand_chacha`.
//!
//! The block function is written once, over a lane type: a `u32` is one block,
//! the `avx2` module's vector (the one module here that opts back into
//! `unsafe`) eight consecutive blocks. Either kernel refills eight blocks, so
//! the stream is the same bit for bit; AVX2 is chosen by
//! `is_x86_feature_detected!` alone, the scalar kernel its fallback and oracle.
//! [`ChaCha8Rng::set_word_pos`] (upstream's name) moves the stream to any
//! word and [`ChaCha8Rng::get_word_pos`] reads where it stands, which is how
//! several workers draw disjoint stretches of one stream.

#![deny(unsafe_code)]

#[cfg(target_arch = "x86_64")]
mod avx2;

use rand::{RngCore, SeedableRng};

/// Words in one ChaCha block.
const BLOCK: usize = 16;
/// Words the generator buffers: eight blocks, the AVX2 kernel's lane count.
const BUFFER: usize = 8 * BLOCK;

/// One state word of some number of independent blocks, side by side.
trait Word: Copy {
    fn add(self, rhs: Self) -> Self;
    /// `(self ^ rhs).rotate_left(n)` in every lane, `n ∈ {16, 12, 8, 7}`.
    fn xor_rotl(self, rhs: Self, n: u32) -> Self;
}

impl Word for u32 {
    fn add(self, rhs: u32) -> u32 {
        self.wrapping_add(rhs)
    }
    fn xor_rotl(self, rhs: u32, n: u32) -> u32 {
        (self ^ rhs).rotate_left(n)
    }
}

/// The input state of block `counter`: "expand 32-byte k", the key, the
/// counter, a zero nonce.
fn initial_state(key: &[u32; 8], counter: u64) -> [u32; BLOCK] {
    let mut state = [0; BLOCK];
    state[..4].copy_from_slice(&[0x61707865, 0x3320646e, 0x79622d32, 0x6b206574]);
    state[4..12].copy_from_slice(key);
    state[12] = counter as u32;
    state[13] = (counter >> 32) as u32;
    state
}

#[inline(always)]
fn quarter_round<W: Word>(s: &mut [W; BLOCK], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].add(s[b]);
    s[d] = s[d].xor_rotl(s[a], 16);
    s[c] = s[c].add(s[d]);
    s[b] = s[b].xor_rotl(s[c], 12);
    s[a] = s[a].add(s[b]);
    s[d] = s[d].xor_rotl(s[a], 8);
    s[c] = s[c].add(s[d]);
    s[b] = s[b].xor_rotl(s[c], 7);
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

/// Writes blocks `counter .. counter + 8` (wrapping) to `out` in stream
/// order, one block at a time.
fn refill_scalar(key: &[u32; 8], counter: u64, out: &mut [u32; BUFFER]) {
    for (b, words) in out.chunks_exact_mut(BLOCK).enumerate() {
        words.copy_from_slice(&block(initial_state(key, counter.wrapping_add(b as u64))));
    }
}

/// A ChaCha stream cipher based generator with 8 rounds.
#[derive(Clone)]
pub struct ChaCha8Rng {
    key: [u32; 8],
    /// The first block the next refill generates: always a multiple of
    /// eight, so a buffer holds the same words however the stream reached it.
    counter: u64,
    buffer: [u32; BUFFER],
    index: usize,
    /// Refill on the scalar kernel even where AVX2 is present (the tests'
    /// switch for checking a stream on both kernels).
    scalar_only: bool,
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
        self.counter = first.wrapping_add((BUFFER / BLOCK) as u64);
        self.index = 0;
        #[cfg(target_arch = "x86_64")]
        if !self.scalar_only && avx2::refill(&self.key, first, &mut self.buffer) {
            return;
        }
        refill_scalar(&self.key, first, &mut self.buffer);
    }

    /// Positions the stream at `word_offset` 32-bit words from its start:
    /// the next draws are the ones a fresh generator returns after drawing
    /// that many words (the block counter wraps at 2^64 blocks, as the
    /// stream does). A position on a buffer boundary costs nothing until
    /// the next draw; any other one refills at once.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        let buffers = (word_offset / BUFFER as u128) as u64;
        self.counter = buffers.wrapping_mul((BUFFER / BLOCK) as u64);
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
            scalar_only: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

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

    /// The two kernels, called directly, on seeded keys and on first-block
    /// counters that carry into word 13 at every lane position
    /// (`2^32 − 8 … 2^32 + 8`) and that wrap the 64-bit counter.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn wide_kernel_matches_scalar() {
        let mut seeds = ChaCha8Rng::seed_from_u64(0xC4AC4A);
        let mut counters: Vec<u64> = ((1u64 << 32) - 8..=(1u64 << 32) + 8).collect();
        counters.extend([0, 1, u64::MAX - 3, u64::MAX - 7, u64::MAX]);
        counters.extend((0..16).map(|_| seeds.next_u64()));
        for counter in counters {
            let key = std::array::from_fn(|_| seeds.next_u32());
            let mut wide = [0u32; BUFFER];
            if !avx2::refill(&key, counter, &mut wide) {
                println!("wide_kernel_matches_scalar: skipped, this CPU reports no AVX2");
                return;
            }
            let mut scalar = [0u32; BUFFER];
            refill_scalar(&key, counter, &mut scalar);
            assert_eq!(wide, scalar, "key {key:08x?} counter {counter:#x}");
        }
    }

    #[test]
    fn fill_equals_repeated_next_u64_at_any_alignment() {
        let mut plan = ChaCha8Rng::seed_from_u64(0xF111);
        for case in 0..200 {
            let mut bulk = ChaCha8Rng::seed_from_u64(case);
            // An odd number of `next_u32` draws leaves every later `u64`
            // straddling a word pair — and one of them a refill.
            for _ in 0..plan.gen_range(0..2 * BUFFER) {
                bulk.next_u32();
            }
            let mut single = bulk.clone();
            let len = plan.gen_range(0..=700usize);
            let split = plan.gen_range(0..=len);
            let mut got = vec![0u64; len];
            bulk.fill(&mut got[..split]);
            // A clone taken mid-buffer carries the buffered words with it.
            let mut bulk = bulk.clone();
            bulk.fill(&mut got[split..]);
            let expected: Vec<u64> = (0..len).map(|_| single.next_u64()).collect();
            assert_eq!(got, expected, "case {case}: len {len} split {split}");
            assert_eq!(bulk.next_u32(), single.next_u32(), "case {case}: position");
            assert_eq!(bulk.next_u64(), single.next_u64(), "case {case}: position");
        }
    }

    /// `set_word_pos(w)` continues exactly where `w` draws of a fresh
    /// stream leave off — at the start, mid-buffer, on and around a buffer
    /// boundary and many buffers in; on the AVX2 and on the scalar refill;
    /// from a fresh generator and from one already drawn past the position.
    #[test]
    fn set_word_pos_continues_a_fresh_stream_after_that_many_words() {
        let seeded = |scalar_only: bool| ChaCha8Rng {
            scalar_only,
            ..ChaCha8Rng::seed_from_u64(0x5eed)
        };
        for w in [0u128, 1, 127, 128, 129, 5 * 16_384 + 3] {
            // The oracle: `w` words of a fresh stream on the scalar kernel.
            let mut fresh = seeded(true);
            for _ in 0..w {
                fresh.next_u32();
            }
            let expected: Vec<u32> = (0..300).map(|_| fresh.next_u32()).collect();
            for scalar_only in [false, true] {
                let mut ahead = seeded(scalar_only);
                for _ in 0..w + 1000 {
                    ahead.next_u32();
                }
                for mut rng in [seeded(scalar_only), ahead] {
                    rng.set_word_pos(w);
                    let got: Vec<u32> = (0..300).map(|_| rng.next_u32()).collect();
                    assert_eq!(got, expected, "w {w}, scalar only: {scalar_only}");
                }
            }
        }
    }

    /// `get_word_pos` counts every word drawn, by `next_u32`, `next_u64` or
    /// `fill` in any mix, and a fresh stream moved there by `set_word_pos`
    /// continues exactly where the drawn one does — on the AVX2 and on the
    /// scalar refill, and across the end of the stream, where both wrap.
    #[test]
    fn set_word_pos_of_get_word_pos_continues_the_stream() {
        let mut plan = ChaCha8Rng::seed_from_u64(0x905);
        for scalar_only in [false, true] {
            let seeded = || ChaCha8Rng {
                scalar_only,
                ..ChaCha8Rng::seed_from_u64(0x5eed)
            };
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
                let context = format!("step {step}, scalar only: {scalar_only}");
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
            assert_eq!(rng.get_word_pos(), 2, "scalar only: {scalar_only}");
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
        assert_eq!(shown, "ChaCha8Rng { counter: 8, .. }");
        for word in rng.key.iter().chain(&rng.buffer).chain([&first]) {
            assert!(!shown.contains(&word.to_string()), "{shown} shows {word}");
            assert!(
                !shown.contains(&format!("{word:x}")),
                "{shown} shows {word:x}"
            );
        }
    }

    /// Keystream timer (`cargo test --release -p rand_chacha -- --ignored
    /// --nocapture`): µs per 64 KB on each kernel.
    #[test]
    #[ignore = "a timer, not a check"]
    fn keystream_timer() {
        type Kernel = fn(&[u32; 8], u64, &mut [u32; BUFFER]) -> bool;
        let scalar: Kernel = |key, counter, out| {
            refill_scalar(key, counter, out);
            true
        };
        let kernels = [
            ("scalar", scalar),
            #[cfg(target_arch = "x86_64")]
            ("avx2", avx2::refill as Kernel),
        ];
        let refills = 64 * 1024 / (4 * BUFFER) as u64;
        for (name, kernel) in kernels {
            let key = std::hint::black_box([7u32; 8]);
            let mut out = [0u32; BUFFER];
            let mut best = f64::INFINITY;
            for _ in 0..200 {
                let start = std::time::Instant::now();
                for refill in 0..refills {
                    if !kernel(&key, 8 * refill, &mut out) {
                        println!("{name}: not available on this CPU");
                        return;
                    }
                    std::hint::black_box(&mut out);
                }
                best = best.min(start.elapsed().as_secs_f64() * 1e6);
            }
            println!("{name}: {best:.1} us per 64 KB keystream (best of 200)");
        }
    }
}
