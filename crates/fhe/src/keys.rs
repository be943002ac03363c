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
//! Key generation is also *cost*-faithful: when
//! [`BfvParameters::simulate_compute`] is on, every key-switch key (the
//! relinearization key and each Galois key) samples and NTT-transforms
//! `2 * ceil(coeff_bits / 60)` payload polynomials — the same work shape as
//! real BFV keygen, and the reason production deployments generate keys once
//! per session instead of per request (the serving layer's whole premise).
//! The transformed key-switch payloads are *retained* in NTT (Eval) form on
//! the key objects, so evaluation-time key switching is a pointwise product
//! against material that was transformed exactly once, at keygen.

use crate::arena::PolyArena;
use crate::params::BfvParameters;
use crate::payload::CtPayload;
use crate::poly::{Domain, NttTables, Poly};
use crate::rns::ModulusChain;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

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
/// Under compute simulation the keys carry a pair of key-switch payload
/// polynomials kept permanently in NTT ([`Domain::Eval`]) form — generated
/// (and transformed) exactly once at key generation, and stored in the same
/// striped `[s0 | s1]` layout ciphertext payloads use, so the fused ct-ct
/// multiplication kernel reads key material with the access pattern it
/// reads operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelinKeys {
    id: u64,
    size_bytes: usize,
    switch: Option<CtPayload>,
}

impl RelinKeys {
    /// Approximate serialized size of the keys in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// The Eval-form key-switch payload pair as one `[s0 | s1]` stripe
    /// (present under compute simulation).
    pub(crate) fn switch_stripe(&self) -> Option<&CtPayload> {
        self.switch.as_ref()
    }
}

/// Galois keys enabling slot rotations for an explicit set of steps.
///
/// Like [`RelinKeys`], each generated step carries an Eval-form key-switch
/// payload polynomial under compute simulation, pre-transformed once at key
/// generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaloisKeys {
    id: u64,
    steps: BTreeSet<i64>,
    key_size_bytes: usize,
    switch: BTreeMap<i64, Poly>,
}

impl GaloisKeys {
    /// The Eval-form key-switch payload for `step`, if compute simulation
    /// generated one. Public, but hidden, for the stream-fingerprint test.
    #[doc(hidden)]
    pub fn switch_poly(&self, step: i64) -> Option<&Poly> {
        self.switch.get(&step)
    }
    /// Returns `true` if a key for rotating by `step` is available.
    pub fn supports_step(&self, step: i64) -> bool {
        step == 0 || self.steps.contains(&step)
    }

    /// The rotation steps covered by this key set.
    pub fn steps(&self) -> impl Iterator<Item = i64> + '_ {
        self.steps.iter().copied()
    }

    /// Number of individual rotation keys generated.
    pub fn key_count(&self) -> usize {
        self.steps.len()
    }

    /// Total approximate size of the key set in bytes. This is the quantity
    /// the rotation-key-selection pass bounds: each key is several megabytes
    /// under the paper's parameters.
    pub fn total_size_bytes(&self) -> usize {
        self.key_count() * self.key_size_bytes
    }
}

/// Generates all key material for a parameter set.
#[derive(Debug)]
pub struct KeyGenerator {
    params: BfvParameters,
    rng: ChaCha8Rng,
    id: u64,
    /// NTT tables for the cost-faithful key-switch-key sampling; present
    /// only when the parameters simulate compute.
    tables: Option<NttTables>,
    /// The RNS modulus chain under multi-limb parameters: key material
    /// carries one stripe per limb, sampled and transformed per limb the
    /// same way ciphertext payloads are. Present only when the parameters
    /// simulate compute.
    chain: Option<ModulusChain>,
    /// Pool for the sampling scratch buffers: one key generator issues many
    /// key-switch keys (relinearization plus one Galois key per rotation
    /// step), and every one of them draws its scratch and kept-payload
    /// buffers from here instead of the allocator.
    arena: PolyArena,
}

impl KeyGenerator {
    /// Creates a key generator with an explicit seed (keys are deterministic
    /// per seed, which the tests rely on).
    pub fn new(params: &BfvParameters, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let id = rng.gen();
        let tables = params
            .simulate_compute
            .then(|| NttTables::new(params.payload_degree));
        let chain = params
            .simulate_compute
            .then(|| ModulusChain::new(params.limb_count, params.payload_degree, true));
        let mut keygen = KeyGenerator {
            params: params.clone(),
            rng,
            id,
            tables,
            chain,
            arena: PolyArena::new(),
        };
        // Secret-key sampling plus the public key's (a, b) pair: three
        // payload polynomials moved into the NTT domain, the construction
        // cost real BFV pays before any key-switch key exists. One scratch
        // buffer serves all three — the polynomials are discarded, only
        // their arithmetic volume matters.
        if let Some(tables) = &keygen.tables {
            let chain = keygen.chain.as_ref().expect("chain built with tables");
            let mut scratch = keygen.arena.take(chain.limb_count() * chain.degree());
            for _ in 0..3 {
                sample_limb_poly(&mut keygen.rng, tables, chain, &mut scratch);
            }
            keygen.arena.put(scratch);
        }
        keygen
    }

    /// Performs the arithmetic volume of generating one key-switch key
    /// (relinearization key or one Galois key): sampling
    /// `2 * ceil(coeff_bits / 60)` uniform payload polynomials and moving
    /// each into the NTT domain, mirroring real BFV keygen. The first two
    /// transformed polynomials are kept as the key's Eval-form key-switch
    /// payload pair — pre-transformed here, once, so evaluation never
    /// transforms key material again. Returns `None` when compute
    /// simulation is off.
    fn simulate_keyswitch_keygen(&mut self) -> Option<(Poly, Poly)> {
        let tables = self.tables.as_ref()?;
        let chain = self.chain.as_ref().expect("chain built with tables");
        let digits = (self.params.coeff_modulus_bits as usize).div_ceil(60);
        let total = chain.limb_count() * chain.degree();
        let mut kept: Vec<Poly> = Vec::with_capacity(2);
        // Discarded samples (everything past the first two) share one
        // scratch buffer: only the kept pair needs owned storage, and both
        // the scratch and the kept copies come from the generator's arena —
        // a session generating dozens of Galois keys round-trips the same
        // few buffers throughout.
        let mut scratch = self.arena.take(total);
        for _ in 0..(2 * digits).max(2) {
            sample_limb_poly(&mut self.rng, tables, chain, &mut scratch);
            if kept.len() < 2 {
                let mut owned = self.arena.take(total);
                owned.copy_from_slice(&scratch);
                kept.push(Poly::from_reduced(owned, Domain::Eval));
            }
        }
        self.arena.put(scratch);
        let second = kept.pop().expect("two polys kept");
        let first = kept.pop().expect("two polys kept");
        Some((first, second))
    }

    /// [`KeyGenerator::simulate_keyswitch_keygen`], packed into the striped
    /// `[s0 | s1]` layout the fused multiplication kernel consumes.
    fn simulate_keyswitch_keygen_striped(&mut self) -> Option<CtPayload> {
        let limbs = self.params.limb_count;
        let (first, second) = self.simulate_keyswitch_keygen()?;
        let payload =
            CtPayload::from_limb_components(first.coeffs(), second.coeffs(), limbs, Domain::Eval);
        // The component polys were copied into the stripe; their buffers go
        // back to the pool for the next key's sampling pass.
        self.arena.put(first.into_coeffs());
        self.arena.put(second.into_coeffs());
        Some(payload)
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
    /// and NTT work under compute simulation).
    pub fn relin_keys(&mut self) -> RelinKeys {
        let _ = self.rng.gen::<u64>();
        let switch = self.simulate_keyswitch_keygen_striped();
        RelinKeys {
            id: self.id,
            size_bytes: self.params.galois_key_size_bytes(),
            switch,
        }
    }

    /// Creates Galois keys for an explicit set of rotation steps (one
    /// key-switch key's worth of sampling and NTT work *per distinct
    /// nonzero step* under compute simulation — generating many rotation
    /// keys is expensive in time as well as bytes).
    pub fn galois_keys(&mut self, steps: &[i64]) -> GaloisKeys {
        let _ = self.rng.gen::<u64>();
        let steps: BTreeSet<i64> = steps.iter().copied().filter(|&s| s != 0).collect();
        let mut switch = BTreeMap::new();
        for &step in &steps {
            if let Some((key_poly, _)) = self.simulate_keyswitch_keygen() {
                switch.insert(step, key_poly);
            }
        }
        GaloisKeys {
            id: self.id,
            steps,
            key_size_bytes: self.params.galois_key_size_bytes(),
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

/// Samples one uniform payload polynomial across every limb of `chain` into
/// `buf` and moves it into the NTT domain.
fn sample_limb_poly(
    rng: &mut ChaCha8Rng,
    tables: &NttTables,
    chain: &ModulusChain,
    buf: &mut [u64],
) {
    chain.sample_uniform_limbs(rng, buf);
    chain.forward_limbs(tables, buf);
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
        let keys = keygen.galois_keys(&[1, -1, 4, 0]);
        assert!(keys.supports_step(1));
        assert!(keys.supports_step(-1));
        assert!(keys.supports_step(4));
        assert!(keys.supports_step(0), "step 0 never needs a key");
        assert!(!keys.supports_step(2));
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

    #[test]
    fn key_sizes_scale_with_parameters() {
        let small = BfvParameters::insecure_test();
        let big = BfvParameters::default_128();
        let small_keys = KeyGenerator::new(&small, 1).galois_keys(&[1]);
        let big_keys = KeyGenerator::new(&big, 1).galois_keys(&[1]);
        assert!(big_keys.total_size_bytes() > small_keys.total_size_bytes());
    }
}
