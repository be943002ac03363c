//! Key material: secret/public keys, relinearization keys and Galois
//! (rotation) keys.
//!
//! Keys carry no real cryptographic secrets in this simulation backend, but
//! they reproduce the *operational* constraints that matter to the compiler:
//! a rotation by step `s` is only possible if a Galois key for `s` was
//! generated, and every generated key has a realistic size, which is what the
//! rotation-key-selection pass (Appendix B) trades off against execution
//! cost.
//!
//! Key generation is also *cost*-faithful: every key-switch key (the
//! relinearization key and each Galois key) samples and NTT-transforms
//! `2 * ceil(coeff_bits / 60)` payload polynomials — the same work shape as
//! real BFV keygen, and the reason production deployments generate keys once
//! per session instead of per request (the serving layer's whole premise).
//! The transformed key-switch payloads are *retained* in NTT (Eval) form on
//! the key objects, so evaluation-time key switching is a pointwise product
//! against material that was transformed exactly once, at keygen.
//!
//! Those polynomials are independent, so each [`KeyGenerator`] call —
//! construction (the public key's three), [`KeyGenerator::relin_keys`],
//! [`KeyGenerator::galois_keys`] (every requested key at once) — samples and
//! transforms its polynomials as one batch on up to the host's available
//! parallelism: the calling thread and parked helpers of
//! [`crate::pool`]. Polynomial `i` of a batch is drawn at a fixed offset of
//! the generator's ChaCha8 stream, so every key, and every later draw, is
//! bit for bit the one a single thread draws. No evaluation operation uses
//! a thread besides the one that calls it: key generation runs once per
//! session, off the request path, and the pool's other user is the
//! runtime's executor, one level up, whose request workers are its helpers.

use crate::arena::PolyArena;
use crate::params::BfvParameters;
use crate::payload::CtPayload;
use crate::rns::ModulusChain;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::sync::{Mutex, PoisonError};

/// The secret key (simulation placeholder identified by its seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecretKey {
    id: u64,
}

/// The public encryption key derived from a secret key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicKey {
    id: u64,
}

/// Relinearization keys, required after ciphertext–ciphertext multiplications.
///
/// The keys carry a pair of key-switch payload polynomials kept
/// permanently in NTT (evaluation) form — generated
/// (and transformed) exactly once at key generation, and stored in the same
/// striped `[s0 | s1]` layout ciphertext payloads use, so the fused ct-ct
/// multiplication kernel reads key material with the access pattern it
/// reads operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelinKeys {
    id: u64,
    switch: CtPayload,
}

impl RelinKeys {
    /// The Eval-form key-switch payload pair as one `[s0 | s1]` stripe.
    pub(crate) fn switch_stripe(&self) -> &CtPayload {
        &self.switch
    }
}

/// Galois keys enabling slot rotations for an explicit set of steps.
///
/// Like [`RelinKeys`], each generated step carries an Eval-form key-switch
/// payload polynomial as a plain limb stripe (`limbs · degree` values),
/// pre-transformed once at key generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaloisKeys {
    id: u64,
    /// The Eval-form key-switch stripe of every generated nonzero step.
    switch: BTreeMap<i64, Vec<u64>>,
}

impl GaloisKeys {
    /// The Eval-form key-switch stripe for `step`, `None` when no key was
    /// generated for it. Public, but hidden, for the stream-fingerprint test.
    #[doc(hidden)]
    pub fn switch_stripe(&self, step: i64) -> Option<&[u64]> {
        self.switch.get(&step).map(Vec::as_slice)
    }

    /// Number of individual rotation keys generated.
    pub fn key_count(&self) -> usize {
        self.switch.len()
    }
}

/// Generates all key material for a parameter set.
#[derive(Debug)]
pub struct KeyGenerator {
    params: BfvParameters,
    rng: ChaCha8Rng,
    id: u64,
    /// The RNS modulus chain: key material carries one stripe per limb,
    /// sampled and transformed per limb, under each limb's own NTT tables,
    /// the same way ciphertext payloads are.
    chain: ModulusChain,
    /// Pool for the sampling buffers: one key generator issues many
    /// key-switch keys (relinearization plus one Galois key per rotation
    /// step), and every batch takes its kept polynomials and its workers'
    /// scratch buffers from here instead of the allocator.
    arena: PolyArena,
    /// Threads one sampling batch runs on at most, the caller included.
    workers: usize,
}

impl KeyGenerator {
    /// Creates a key generator with an explicit seed (keys are deterministic
    /// per seed, which the tests rely on). Its batches run on up to the
    /// host's available parallelism; the keys do not depend on it.
    pub fn new(params: &BfvParameters, seed: u64) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Self::with_workers(params, seed, workers)
    }

    /// [`KeyGenerator::new`] with batches on at most `workers` threads.
    fn with_workers(params: &BfvParameters, seed: u64, workers: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let id = rng.gen();
        let mut keygen = KeyGenerator {
            params: params.clone(),
            rng,
            id,
            chain: ModulusChain::new(params.limb_count, params.payload_degree),
            arena: PolyArena::new(),
            workers: workers.max(1),
        };
        // Secret-key sampling plus the public key's (a, b) pair: three
        // payload polynomials moved into the NTT domain, the construction
        // cost real BFV pays before any key-switch key exists. None is
        // kept — only their arithmetic volume matters.
        keygen.sample_batch(1, 3, 0);
        keygen
    }

    /// Payload polynomials one key-switch key (the relinearization key or
    /// one Galois key) samples and transforms: two per digit of the RNS
    /// gadget, which has one digit per limb of the payload chain.
    fn polys_per_key(&self) -> usize {
        2 * self.chain.limb_count()
    }

    /// Samples `keys · per_key` uniform payload polynomials across every
    /// limb of the chain and moves each into the NTT domain, as one batch,
    /// and returns the first `kept` of every key, key by key — the
    /// Eval-form key material, transformed here once so evaluation never
    /// transforms it again. The rest only pay their arithmetic volume.
    ///
    /// Polynomial `i` draws words `start + i·2·payload_degree` onwards of
    /// the generator's stream (`start` its position on entry; each draws
    /// `payload_degree` 64-bit values), and the stream resumes after the
    /// last one, so the batch splits into contiguous runs, one per worker
    /// of up to `workers` (the caller and pool helpers). A worker claims
    /// runs off one counter until none is left, and each run starts at its
    /// own offset, so no bit depends on who claims it. Every buffer is
    /// taken from the arena on the calling thread, before any worker
    /// starts: workers allocate nothing.
    fn sample_batch(&mut self, keys: usize, per_key: usize, kept: usize) -> Vec<Vec<u64>> {
        let count = keys * per_key;
        if count == 0 {
            return Vec::new();
        }
        let total = self.chain.limb_count() * self.chain.degree();
        let run_len = count.div_ceil(self.workers.min(count));
        let mut polys: Vec<Option<Vec<u64>>> = (0..count)
            .map(|i| (i % per_key < kept).then(|| self.arena.take(total)))
            .collect();
        let mut scratch: Vec<Vec<u64>> = (0..count.div_ceil(run_len))
            .map(|_| self.arena.take(total))
            .collect();
        let words_per_poly = 2 * self.chain.degree() as u128;
        let start = self.rng.get_word_pos();
        let (chain, rng) = (&self.chain, &self.rng);
        let sample_run = |first: usize, run: &mut [Option<Vec<u64>>], scratch: &mut [u64]| {
            let mut rng = rng.clone();
            rng.set_word_pos(start + first as u128 * words_per_poly);
            for poly in run {
                let buf = match poly {
                    Some(kept) => &mut kept[..],
                    None => &mut *scratch,
                };
                chain.sample_uniform_limbs(&mut rng, buf);
                chain.forward_limbs(buf);
            }
        };
        let helpers = scratch.len() - 1;
        let runs = Mutex::new(polys.chunks_mut(run_len).zip(&mut scratch).enumerate());
        crate::pool::broadcast(helpers, &|_| loop {
            let claimed = runs.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((r, (run, scratch))) = claimed else {
                break;
            };
            sample_run(r * run_len, run, scratch);
        });
        self.rng
            .set_word_pos(start + count as u128 * words_per_poly);
        for buf in scratch {
            self.arena.put(buf);
        }
        polys.into_iter().flatten().collect()
    }

    /// The secret key.
    pub fn secret_key(&self) -> SecretKey {
        SecretKey { id: self.id }
    }

    /// The public key matching the secret key.
    pub fn public_key(&self) -> PublicKey {
        PublicKey { id: self.id }
    }

    /// Creates relinearization keys (one key-switch key's worth of sampling
    /// and NTT work), packed into the striped `[s0 | s1]` layout the fused
    /// multiplication kernel consumes.
    pub fn relin_keys(&mut self) -> RelinKeys {
        let _ = self.rng.gen::<u64>();
        let [first, second]: [Vec<u64>; 2] = self
            .sample_batch(1, self.polys_per_key(), 2)
            .try_into()
            .expect("the relinearization key keeps two polys");
        let switch = CtPayload::from_limb_components(&first, &second, self.params.limb_count);
        // The component polys were copied into the stripe; their buffers go
        // back to the pool for the next key's sampling pass.
        self.arena.put(first);
        self.arena.put(second);
        RelinKeys {
            id: self.id,
            switch,
        }
    }

    /// Creates Galois keys for an explicit set of rotation steps (one
    /// key-switch key's worth of sampling and NTT work *per distinct
    /// nonzero step* — generating many rotation keys is expensive in time as
    /// well as bytes). Every key's polynomials are one sampling batch.
    pub fn galois_keys(&mut self, steps: &[i64]) -> GaloisKeys {
        let _ = self.rng.gen::<u64>();
        // Keys are drawn in ascending step order, whatever order the caller
        // listed the steps in.
        let steps: BTreeSet<i64> = steps.iter().copied().filter(|&s| s != 0).collect();
        let keys = self.sample_batch(steps.len(), self.polys_per_key(), 1);
        let switch = steps.into_iter().zip(keys).collect();
        GaloisKeys {
            id: self.id,
            switch,
        }
    }

    /// Creates the library-default Galois keys: power-of-two steps in both
    /// directions, `2·log2(n)` keys in total, which is what SEAL generates
    /// when the application does not select keys itself.
    pub fn default_galois_keys(&mut self) -> GaloisKeys {
        let n = self.params.poly_modulus_degree as i64;
        let mut steps = Vec::new();
        let mut s = 1i64;
        while s < n {
            steps.push(s);
            steps.push(-s);
            s *= 2;
        }
        self.galois_keys(&steps)
    }

    /// Internal key-pair identity (used by encryptor/decryptor pairing checks).
    pub(crate) fn key_id(key: &SecretKey) -> u64 {
        key.id
    }

    /// Internal key-pair identity for public keys.
    pub(crate) fn public_key_id(key: &PublicKey) -> u64 {
        key.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_from_the_same_generator_share_an_identity() {
        let params = BfvParameters::insecure_test();
        let keygen = KeyGenerator::new(&params, 7);
        assert_eq!(
            KeyGenerator::key_id(&keygen.secret_key()),
            KeyGenerator::public_key_id(&keygen.public_key())
        );
    }

    #[test]
    fn different_seeds_give_different_key_pairs() {
        let params = BfvParameters::insecure_test();
        let a = KeyGenerator::new(&params, 1).secret_key();
        let b = KeyGenerator::new(&params, 2).secret_key();
        assert_ne!(a, b);
    }

    #[test]
    fn galois_keys_cover_exactly_the_requested_steps() {
        let params = BfvParameters::insecure_test();
        let mut keygen = KeyGenerator::new(&params, 3);
        let keys = keygen.galois_keys(&[4, 1, -1, 0, 1]);
        assert_eq!(keys.switch.keys().copied().collect::<Vec<_>>(), [-1, 1, 4]);
        assert!(keys.switch_stripe(2).is_none());
        assert_eq!(keys.key_count(), 3, "step 0 does not generate a key");
    }

    #[test]
    fn default_galois_keys_have_two_log_n_entries() {
        let params = BfvParameters::insecure_test();
        let mut keygen = KeyGenerator::new(&params, 3);
        let keys = keygen.default_galois_keys();
        let log_n = params.poly_modulus_degree.trailing_zeros() as usize;
        assert_eq!(keys.key_count(), 2 * log_n);
    }

    /// The relinearization stripe, every Galois key and the generator's next
    /// draw are the same whether a batch runs on one thread or splits across
    /// two, three or five — more threads than some batches have polynomials
    /// — at one, two and three limbs.
    #[test]
    fn keys_do_not_depend_on_the_worker_count() {
        use rand::RngCore;
        for k in [1usize, 2, 3] {
            let params = BfvParameters::insecure_test().with_limb_count(k);
            let generate = |workers: usize| {
                let mut keygen = KeyGenerator::with_workers(&params, 7, workers);
                let relin = keygen.relin_keys();
                let galois = keygen.galois_keys(&[1, -1, 2, 5, -8]);
                let next = keygen.rng.next_u64();
                (relin, galois, next)
            };
            let single = generate(1);
            for workers in [2, 3, 5] {
                assert!(generate(workers) == single, "k={k}: {workers} workers");
            }
        }
    }

    #[test]
    fn key_sizes_scale_with_parameters() {
        let small = BfvParameters::insecure_test();
        let big = BfvParameters::default_128();
        let small_keys = KeyGenerator::new(&small, 1).galois_keys(&[1]);
        let big_keys = KeyGenerator::new(&big, 1).galois_keys(&[1]);
        assert_eq!(big_keys.key_count(), small_keys.key_count());
        assert!(big.galois_key_size_bytes() > small.galois_key_size_bytes());
    }
}
