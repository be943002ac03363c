//! A fixed-seed word hasher for maps probed only by key.
//!
//! `std`'s default hasher is SipHash with a random per-process seed: robust
//! against adversarial keys, but several times slower than needed for the
//! small integer-and-id keys of the compile path (a [`DagNode`](crate::DagNode)
//! is a tag and a few ids). [`WordHasher`] folds each machine word in with one
//! rotate, xor and multiply. It is deterministic, and nothing walks a map in
//! hash order, so ids, match lists and circuits are the same under either.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher over machine words (the `FxHash` construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    // 2^64 / φ, odd: spreads consecutive ids over the high bits.
    const K: u64 = 0x9e37_79b9_7f4a_7c15;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.add(u64::from_le_bytes(tail) ^ bytes.len() as u64);
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` under [`WordHasher`].
pub type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;
