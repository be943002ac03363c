//! Context, plaintext/ciphertext values, encryption and decryption.
//!
//! The backend is *functionally exact* and *cost faithful*:
//!
//! * every ciphertext tracks the exact batched slot values modulo the
//!   plaintext modulus, so `decrypt(eval(encrypt(x))) == eval_plain(x)` holds
//!   bit-for-bit and compiler correctness can be tested end to end. A slot
//!   vector is stored as a **prefix** of the logical `n`-slot vector (its
//!   length a power of two, every logical slot beyond it zero), so an
//!   operation walks the slots its operands hold, not `n`; no result
//!   depends on the stored length (see [`Evaluator`](crate::Evaluator));
//! * every ciphertext also carries payload polynomials on which the
//!   [`Evaluator`](crate::Evaluator) performs real NTT-based ring arithmetic,
//!   so the *measured wall-clock* of homomorphic operations keeps BFV's
//!   relative ordering (ct-ct multiplication ≫ rotation ≫ addition);
//! * an analytic noise model tracks the invariant-noise budget each
//!   ciphertext has consumed, and decryption fails once the budget is
//!   exhausted, exactly like SEAL's `Decryptor`.

use crate::arena::PolyArena;
use crate::keys::{KeyGenerator, PublicKey, SecretKey};
use crate::noise::NoiseModel;
use crate::params::{BfvParameters, ParameterError};
use crate::payload::CtPayload;
use crate::poly::galois_eval_permutation;
use crate::rns::{ModulusChain, PlainModulus};
use crate::simd::GaloisPermutation;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Errors returned by the FHE backend.
#[derive(Debug, Clone, PartialEq)]
pub enum FheError {
    /// Invalid encryption parameters.
    Parameters(ParameterError),
    /// Tried to batch more values than there are slots.
    TooManyValues {
        /// Number of values supplied.
        provided: usize,
        /// Number of available slots.
        slots: usize,
    },
    /// A rotation was requested for a step with no generated Galois key.
    MissingGaloisKey {
        /// The rotation step lacking a key.
        step: i64,
    },
    /// The ciphertext's invariant-noise budget is exhausted; decryption would
    /// be incorrect.
    NoiseBudgetExhausted {
        /// Bits of budget consumed.
        consumed_bits: f64,
        /// Bits of budget available at encryption.
        available_bits: f64,
    },
    /// Ciphertext was produced under a different key pair than the decryptor's.
    KeyMismatch,
    /// The request was cancelled before it finished executing.
    Cancelled,
    /// The request's deadline expired before it finished executing.
    DeadlineExceeded,
    /// A worker panicked while executing the request; the panic was isolated
    /// via `catch_unwind` and converted into this error.
    WorkerPanic {
        /// The panic payload rendered as text (best effort).
        message: String,
    },
}

impl fmt::Display for FheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FheError::Parameters(e) => write!(f, "invalid parameters: {e}"),
            FheError::TooManyValues { provided, slots } => {
                write!(f, "cannot batch {provided} values into {slots} slots")
            }
            FheError::MissingGaloisKey { step } => {
                write!(f, "no Galois key was generated for rotation step {step}")
            }
            FheError::NoiseBudgetExhausted {
                consumed_bits,
                available_bits,
            } => write!(
                f,
                "noise budget exhausted: consumed {consumed_bits:.1} of {available_bits:.1} bits"
            ),
            FheError::KeyMismatch => write!(f, "ciphertext key does not match the decryptor's key"),
            FheError::Cancelled => write!(f, "request was cancelled"),
            FheError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            FheError::WorkerPanic { message } => {
                write!(f, "worker panicked while executing the request: {message}")
            }
        }
    }
}

impl std::error::Error for FheError {}

impl From<ParameterError> for FheError {
    fn from(e: ParameterError) -> Self {
        FheError::Parameters(e)
    }
}

/// Shared context: validated parameters plus the modulus chain and its
/// precomputed NTT tables.
#[derive(Debug, Clone)]
pub struct FheContext {
    inner: Arc<ContextInner>,
}

#[derive(Debug)]
struct ContextInner {
    params: BfvParameters,
    /// The slot reducer of the functional facet, built once here so every
    /// evaluator's slot passes share one precomputed Barrett constant.
    plain: PlainModulus,
    noise: NoiseModel,
    /// The RNS modulus chain: limb 0 is the Goldilocks prime, limbs `1..k`
    /// are generic NTT-friendly primes with their own Barrett constants.
    /// Every limb owns the NTT tables of its prime; limb 0's keep the
    /// context's transform counters. The Goldilocks limb alone when
    /// `limb_count == 1`.
    chain: ModulusChain,
    /// Eval-domain Galois permutations by Galois element, computed once per
    /// `(payload_degree, element)` for the context's lifetime and shared by
    /// every evaluator (evaluators keep a lock-free local `Arc` cache on
    /// top, so this mutex is touched once per element per evaluator).
    galois_perms: Mutex<HashMap<usize, Arc<GaloisPermutation>>>,
}

impl FheContext {
    /// Validates `params` and builds the context.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::Parameters`] if the parameters are invalid.
    pub fn new(params: BfvParameters) -> Result<Self, FheError> {
        params.validate()?;
        Ok(FheContext {
            inner: Arc::new(ContextInner {
                plain: PlainModulus::new(params.plain_modulus),
                noise: NoiseModel::default(),
                chain: ModulusChain::new(params.limb_count, params.payload_degree),
                galois_perms: Mutex::new(HashMap::new()),
                params,
            }),
        })
    }

    /// The encryption parameters.
    pub fn params(&self) -> &BfvParameters {
        &self.inner.params
    }

    /// The noise model in use.
    pub fn noise_model(&self) -> &NoiseModel {
        &self.inner.noise
    }

    /// The context's RNS modulus chain (the Goldilocks limb alone under
    /// single-modulus parameters).
    pub fn chain(&self) -> &ModulusChain {
        &self.inner.chain
    }

    /// The Eval-domain Galois permutation of `galois_elt` at the context's
    /// payload degree, computed on first use and shared (via `Arc`) for the
    /// context's lifetime — long-lived sessions allocate each rotation
    /// step's table exactly once, no matter how many per-request evaluators
    /// come and go.
    pub(crate) fn galois_perm(&self, galois_elt: usize) -> Arc<GaloisPermutation> {
        let mut cache = self
            .inner
            .galois_perms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(cache.entry(galois_elt).or_insert_with(|| {
            Arc::from(galois_eval_permutation(
                self.inner.params.payload_degree,
                galois_elt,
            ))
        }))
    }

    /// Cumulative NTT transform counts performed through the tables of
    /// every limb of the chain (one transform per limb stripe) since
    /// construction (or the last [`FheContext::reset_transform_counts`]).
    /// Telemetry for the NTT hot path — sessions expose it through their
    /// metrics registry — and the handle tests use to hold the lazy
    /// NTT-domain representation to its promise that chains of homomorphic
    /// operations transform each operand at most once.
    pub fn transform_stats(&self) -> crate::poly::TransformStats {
        let mut total = crate::poly::TransformStats::default();
        for limb in self.inner.chain.limbs() {
            let stats = limb.tables().transform_stats();
            total.forward += stats.forward;
            total.inverse += stats.inverse;
        }
        total
    }

    /// Resets every limb's transform counters to zero.
    pub fn reset_transform_counts(&self) {
        for limb in self.inner.chain.limbs() {
            limb.tables().reset_transform_counts();
        }
    }

    /// Number of batching slots.
    pub fn slot_count(&self) -> usize {
        self.inner.params.slot_count()
    }

    /// The plaintext modulus.
    pub fn plain_modulus(&self) -> u64 {
        self.inner.params.plain_modulus
    }

    /// The plaintext-modulus reducer slot arithmetic runs on.
    pub fn plain(&self) -> &PlainModulus {
        &self.inner.plain
    }

    /// Encodes a vector of signed integers into a batched plaintext
    /// (values are reduced modulo the plaintext modulus; remaining slots are
    /// zero). The stored prefix is `values.len()` rounded up to a power of
    /// two.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::TooManyValues`] if more values than slots are given.
    pub fn encode(&self, values: &[i64]) -> Result<Plaintext, FheError> {
        self.encode_in(values, &mut PolyArena::new())
    }

    /// [`FheContext::encode`] with the slot vector drawn from `arena`
    /// instead of the allocator.
    ///
    /// Serving paths pair this with [`Plaintext::recycle_into`] so a warm
    /// request stream encodes without fresh allocations — the same
    /// round-trip discipline ciphertext buffers already follow.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::TooManyValues`] if more values than slots are given.
    pub fn encode_in(&self, values: &[i64], arena: &mut PolyArena) -> Result<Plaintext, FheError> {
        let slots = self.slot_count();
        if values.len() > slots {
            return Err(FheError::TooManyValues {
                provided: values.len(),
                slots,
            });
        }
        let mut data = arena.take(stored_len(values.len()));
        encode_into(&mut data, values, self.plain_modulus());
        Ok(Plaintext::new(data))
    }

    /// Decodes the first `count` slots of a plaintext's logical vector:
    /// exactly `count` values, zero beyond the stored prefix.
    pub fn decode(&self, plaintext: &Plaintext, count: usize) -> Vec<u64> {
        let mut values: Vec<u64> = plaintext.slots.iter().copied().take(count).collect();
        values.resize(count, 0);
        values
    }
}

/// Stored length of a slot vector holding `values` explicit values: rounded
/// up to a power of two, so a session sees at most `log2 n` arena length
/// classes (never more than `n`, itself a power of two, when `values <= n`).
fn stored_len(values: usize) -> usize {
    values.max(1).next_power_of_two()
}

/// Writes `values` reduced into `[0, t)` and zero-fills the rest of `slots`
/// — the one definition of slot encoding, shared by [`FheContext::encode`]
/// and [`Encryptor::encrypt_values`] so the two can never desynchronize.
fn encode_into(slots: &mut [u64], values: &[i64], t: u64) {
    let (head, tail) = slots.split_at_mut(values.len());
    let t = t as i128;
    for (slot, &v) in head.iter_mut().zip(values) {
        *slot = (((v as i128) % t + t) % t) as u64;
    }
    tail.fill(0);
}

/// A batched plaintext: a vector of residues modulo the plaintext modulus,
/// stored as a prefix of the logical `n`-slot vector (every slot beyond
/// [`Plaintext::slots`] is zero).
///
/// Carries a lazily computed cache of its payload "splat" polynomial in NTT
/// (Eval) form, a plain limb stripe: ciphertext–plaintext multiplications
/// share one forward transform per plaintext instead of paying one per
/// payload component per operation. Two plaintexts are equal when their
/// slot vectors are; the cache never participates in equality.
#[derive(Debug, Clone)]
pub struct Plaintext {
    pub(crate) slots: Vec<u64>,
    /// Eval-form payload splat stripe, filled on first ct-pt multiplication.
    splat: OnceLock<Vec<u64>>,
}

impl PartialEq for Plaintext {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
    }
}

impl Eq for Plaintext {}

impl Plaintext {
    /// Builds a plaintext from slot values (crate-internal; public
    /// construction goes through [`FheContext::encode`]).
    pub(crate) fn new(slots: Vec<u64>) -> Self {
        Plaintext {
            slots,
            splat: OnceLock::new(),
        }
    }

    /// The payload splat of this plaintext in Eval form — all
    /// `limb_count · degree` limb stripes — transformed on first use and
    /// cached for every later use.
    ///
    /// The cache is keyed to the first context the plaintext multiplies
    /// under; if the same plaintext is then used under a context with a
    /// different payload shape, a fresh (owned, uncached) splat is built
    /// at that shape instead — never a wrong-shape cache hit.
    pub(crate) fn splat_eval(&self, ctx: &FheContext, arena: &mut PolyArena) -> Cow<'_, [u64]> {
        let total = ctx.chain().limb_count() * ctx.chain().degree();
        if let Some(splat) = self.splat.get() {
            if splat.len() == total {
                return Cow::Borrowed(splat);
            }
            return Cow::Owned(self.build_splat(ctx, arena));
        }
        let built = self.build_splat(ctx, arena);
        match self.splat.set(built) {
            Ok(()) => Cow::Borrowed(self.splat.get().expect("just set")),
            // A concurrent first use won the race; its value is identical
            // unless it ran under a different context, so re-check.
            Err(built) => {
                let cached = self.splat.get().expect("set raced with an init");
                if cached.len() == total {
                    Cow::Borrowed(cached)
                } else {
                    Cow::Owned(built)
                }
            }
        }
    }

    /// Builds the Eval-form payload splat of this plaintext across every
    /// limb of the context's chain, with the coefficient buffer drawn from
    /// `arena`.
    fn build_splat(&self, ctx: &FheContext, arena: &mut PolyArena) -> Vec<u64> {
        let chain = ctx.chain();
        let degree = chain.degree();
        let mut values = arena.take(chain.limb_count() * degree);
        // Coefficient `j` reads logical slot `j mod n`: the stored prefix,
        // then the elided zeros (whose splat is zero under every modulus).
        // Every word is below `2^32 · 2^32 < p`, so limb 0 holds it as is
        // and each generic limb lifts it, as sampling lifts a draw.
        for block in values[..degree].chunks_mut(ctx.slot_count()) {
            let stored = self.slots.len().min(block.len());
            for (out, &s) in block.iter_mut().zip(&self.slots) {
                *out = s.wrapping_mul(0x9E37_79B9);
            }
            block[stored..].fill(0);
        }
        chain.lift_limbs(&mut values);
        chain.forward_limbs(&mut values);
        values
    }

    /// Returns a dead plaintext's buffers to `arena`: its slot vector and,
    /// when the first ct–pt multiplication filled it, the cached payload
    /// splat stripe. The pair of [`FheContext::encode_in`] — together
    /// they let a warm request stream encode, multiply, and retire
    /// plaintexts without touching the allocator.
    pub fn recycle_into(self, arena: &mut PolyArena) {
        arena.put(self.slots);
        if let Some(splat) = self.splat.into_inner() {
            arena.put(splat);
        }
    }
    /// All slot values.
    pub fn slots(&self) -> &[u64] {
        &self.slots
    }

    /// Value of slot 0 (the scalar convention).
    pub fn scalar(&self) -> u64 {
        self.slots.first().copied().unwrap_or(0)
    }
}

/// An encrypted, batched vector of values.
///
/// The slot vector is a prefix of the logical `n`-slot vector: its stored
/// length is a power of two, every logical slot beyond it is zero, and no
/// operation's result depends on it.
///
/// The payload lives in the striped `[c0 | c1]` layout ([`CtPayload`]) behind
/// an `Arc`: operations that do not touch the payload (ct–pt addition and
/// subtraction) share it instead of copying `2 * degree` values, and the
/// arena recycler reclaims a stripe the moment its last referent dies.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    pub(crate) slots: Vec<u64>,
    pub(crate) payload: Arc<CtPayload>,
    pub(crate) noise_consumed_bits: f64,
    pub(crate) key_id: u64,
    /// Number of ciphertext–ciphertext multiplications on the worst path that
    /// produced this ciphertext (its multiplicative level).
    pub(crate) level: usize,
}

impl Ciphertext {
    /// Bits of invariant-noise budget consumed so far.
    pub fn noise_consumed_bits(&self) -> f64 {
        self.noise_consumed_bits
    }

    /// The ciphertext's multiplicative level (number of ct-ct multiplications
    /// on its worst-case history path).
    pub fn level(&self) -> usize {
        self.level
    }

    /// The striped payload. Exposed for instrumentation: equivalence tests
    /// compare payloads bit for bit across execution strategies.
    pub fn payload(&self) -> &CtPayload {
        &self.payload
    }

    /// Returns this ciphertext's buffers to `arena` for reuse: the slot
    /// vector always, the payload stripe when this was its last referent
    /// (payloads shared with a still-live ciphertext are left alone).
    pub fn recycle_into(self, arena: &mut PolyArena) {
        arena.put(self.slots);
        if let Ok(payload) = Arc::try_unwrap(self.payload) {
            arena.put(payload.into_stripe());
        }
    }
}

/// Encrypts plaintexts under a public key.
///
/// The encryptor owns a [`PolyArena`]: slot vectors and payload stripes of
/// fresh ciphertexts come out of it, so a serving path that swaps the
/// session's warm arena in ([`Encryptor::set_arena`]) encrypts a whole
/// request stream without fresh buffer allocations.
#[derive(Debug)]
pub struct Encryptor {
    ctx: FheContext,
    key_id: u64,
    rng: ChaCha8Rng,
    arena: PolyArena,
}

impl Encryptor {
    /// Creates an encryptor bound to a context and public key (with an
    /// empty, private buffer arena).
    pub fn new(ctx: &FheContext, public_key: &PublicKey) -> Self {
        let key_id = KeyGenerator::public_key_id(public_key);
        Encryptor {
            ctx: ctx.clone(),
            key_id,
            rng: ChaCha8Rng::seed_from_u64(key_id ^ 0x5eed),
            arena: PolyArena::new(),
        }
    }

    /// Positions the encryptor's stream at the start of encryption number
    /// `encryption`, counted from the stream [`Encryptor::new`] starts: word
    /// `encryption · 4 · payload_degree`. Every encryption draws exactly
    /// that many words (two payload components of `payload_degree` 64-bit
    /// draws, whatever the limb count), so the ciphertext that follows is
    /// bit for bit the one a fresh encryptor's `encryption`-th call returns
    /// — which lets several workers encrypt one request's inputs in any
    /// order.
    pub fn seek(&mut self, encryption: u64) {
        let words_per_encryption = 4 * self.ctx.params().payload_degree as u128;
        self.rng
            .set_word_pos(u128::from(encryption) * words_per_encryption);
    }

    /// Replaces the encryptor's buffer arena (typically with a warm one
    /// checked out of a session's [`crate::ArenaPool`]).
    pub fn set_arena(&mut self, arena: PolyArena) {
        self.arena = arena;
    }

    /// Takes the encryptor's buffer arena (to restore it to a shared pool),
    /// leaving an empty one behind.
    pub fn take_arena(&mut self) -> PolyArena {
        std::mem::take(&mut self.arena)
    }

    /// Samples one fresh Eval-form payload stripe from the arena: each
    /// component is one [`ModulusChain::sample_uniform_limbs`] polynomial.
    fn sample_payload(&mut self) -> Arc<CtPayload> {
        let chain = self.ctx.chain();
        let k = chain.limb_count();
        let half = k * chain.degree();
        let mut stripe = self.arena.take(2 * half);
        for component in stripe.chunks_exact_mut(half) {
            chain.sample_uniform_limbs(&mut self.rng, component);
        }
        Arc::new(CtPayload::from_limb_stripe(stripe, k))
    }

    /// Encrypts a plaintext into a fresh ciphertext.
    ///
    /// Payload polynomials are born in NTT (evaluation) form: the
    /// sampled values are uniform either way, and starting in Eval form is
    /// what lets whole chains of homomorphic operations run pointwise
    /// without a single transform.
    pub fn encrypt(&mut self, plaintext: &Plaintext) -> Ciphertext {
        let payload = self.sample_payload();
        let mut slots = self.arena.take(plaintext.slots.len());
        slots.copy_from_slice(&plaintext.slots);
        Ciphertext {
            slots,
            payload,
            noise_consumed_bits: self.ctx.noise_model().fresh_bits,
            key_id: self.key_id,
            level: 0,
        }
    }

    /// Encodes and encrypts a vector of integers in one step, without
    /// materializing an intermediate [`Plaintext`] (the slot buffer comes
    /// straight from the arena; its stored prefix is `values.len()` rounded
    /// up to a power of two).
    ///
    /// # Errors
    ///
    /// Returns [`FheError::TooManyValues`] if more values than slots are given.
    pub fn encrypt_values(&mut self, values: &[i64]) -> Result<Ciphertext, FheError> {
        let slot_count = self.ctx.slot_count();
        if values.len() > slot_count {
            return Err(FheError::TooManyValues {
                provided: values.len(),
                slots: slot_count,
            });
        }
        let payload = self.sample_payload();
        let mut slots = self.arena.take(stored_len(values.len()));
        encode_into(&mut slots, values, self.ctx.plain_modulus());
        Ok(Ciphertext {
            slots,
            payload,
            noise_consumed_bits: self.ctx.noise_model().fresh_bits,
            key_id: self.key_id,
            level: 0,
        })
    }
}

/// Decrypts ciphertexts under the secret key and reports noise budgets.
#[derive(Debug)]
pub struct Decryptor {
    ctx: FheContext,
    key_id: u64,
}

impl Decryptor {
    /// Creates a decryptor bound to a context and secret key.
    pub fn new(ctx: &FheContext, secret_key: &SecretKey) -> Self {
        Decryptor {
            ctx: ctx.clone(),
            key_id: KeyGenerator::key_id(secret_key),
        }
    }

    /// Remaining invariant-noise budget of a ciphertext, in bits (clamped at
    /// zero), mirroring SEAL's `Decryptor::invariant_noise_budget`.
    pub fn invariant_noise_budget(&self, ct: &Ciphertext) -> f64 {
        (self.ctx.params().fresh_noise_budget_bits() - ct.noise_consumed_bits).max(0.0)
    }

    /// Decrypts a ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`FheError::KeyMismatch`] if the ciphertext was produced under
    /// a different key pair, or [`FheError::NoiseBudgetExhausted`] if the
    /// noise budget has run out (the result would be garbage).
    pub fn decrypt(&self, ct: &Ciphertext) -> Result<Plaintext, FheError> {
        let slots = self.decrypt_slots(ct)?;
        Ok(Plaintext::new(slots.to_vec()))
    }

    /// Borrowed variant of [`Decryptor::decrypt`]: performs the same key and
    /// noise-budget checks but returns a view of the decrypted slot values
    /// — the stored prefix; every logical slot beyond it is zero — instead
    /// of allocating a [`Plaintext`]. The serving hot path reads its few
    /// live output slots from this and recycles the ciphertext.
    ///
    /// # Errors
    ///
    /// Same contract as [`Decryptor::decrypt`].
    pub fn decrypt_slots<'a>(&self, ct: &'a Ciphertext) -> Result<&'a [u64], FheError> {
        if ct.key_id != self.key_id {
            return Err(FheError::KeyMismatch);
        }
        let available = self.ctx.params().fresh_noise_budget_bits();
        if ct.noise_consumed_bits >= available {
            return Err(FheError::NoiseBudgetExhausted {
                consumed_bits: ct.noise_consumed_bits,
                available_bits: available,
            });
        }
        // Multi-limb decryption pays the CRT reconstruction a production RNS
        // engine performs: a Garner mixed-radix pass over every coefficient
        // of the recovered component, kept live through the checksum.
        if ct.payload.limbs() > 1 {
            std::hint::black_box(self.ctx.chain().crt_checksum(ct.payload.c0()));
        }
        Ok(&ct.slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;

    fn setup() -> (FheContext, Encryptor, Decryptor) {
        let params = BfvParameters::insecure_test();
        let ctx = FheContext::new(params).unwrap();
        let keygen = KeyGenerator::new(ctx.params(), 42);
        let enc = Encryptor::new(&ctx, &keygen.public_key());
        let dec = Decryptor::new(&ctx, &keygen.secret_key());
        (ctx, enc, dec)
    }

    /// A ciphertext always carries its payload and a requested rotation step
    /// always its key, under the test parameters at one limb and at three;
    /// a payload without a stripe cannot be built.
    #[test]
    fn ciphertexts_and_keys_always_carry_payload_material() {
        for k in [1usize, 3] {
            let ctx = FheContext::new(BfvParameters::insecure_test().with_limb_count(k)).unwrap();
            let half = k * ctx.params().payload_degree;
            let mut keygen = KeyGenerator::new(ctx.params(), 42);
            let mut enc = Encryptor::new(&ctx, &keygen.public_key());
            let ct = enc.encrypt_values(&[1, 2, 3]).unwrap();
            assert_eq!(ct.payload().stripe().len(), 2 * half, "k={k}");
            let steps = [1, -2, 5];
            let galois = keygen.galois_keys(&steps);
            for step in steps {
                let key = galois.switch_stripe(step).map(<[u64]>::len);
                assert_eq!(key, Some(half), "k={k}: key of step {step}");
            }
        }
        let empty = std::panic::catch_unwind(|| CtPayload::from_limb_stripe(Vec::new(), 1));
        assert!(empty.is_err(), "an empty stripe was accepted as a payload");
    }

    /// The `j`-th encryption of a fresh encryptor is the one an encryptor
    /// positioned at `j` returns, at one, two and three limbs, whatever the
    /// positioned encryptor drew before.
    #[test]
    fn a_positioned_encryptor_draws_the_jth_encryption() {
        for k in [1usize, 2, 3] {
            let ctx = FheContext::new(BfvParameters::insecure_test().with_limb_count(k)).unwrap();
            let public_key = KeyGenerator::new(ctx.params(), 42).public_key();
            let mut sequential = Encryptor::new(&ctx, &public_key);
            let stripes: Vec<Vec<u64>> = (0..6)
                .map(|j| {
                    sequential
                        .encrypt_values(&[j])
                        .unwrap()
                        .payload
                        .stripe()
                        .to_vec()
                })
                .collect();
            let mut positioned = Encryptor::new(&ctx, &public_key);
            for j in [3usize, 0, 5, 1, 4, 2, 2] {
                positioned.seek(j as u64);
                let ct = positioned.encrypt_values(&[j as i64]).unwrap();
                assert_eq!(
                    ct.payload.stripe(),
                    &stripes[j][..],
                    "k={k}: encryption {j}"
                );
            }
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let (ctx, _, _) = setup();
        let pt = ctx.encode(&[1, 2, 3, -1]).unwrap();
        let t = ctx.plain_modulus();
        assert_eq!(ctx.decode(&pt, 4), vec![1, 2, 3, t - 1]);
        assert_eq!(pt.scalar(), 1);
        // The stored prefix is four slots; decoding reads the logical
        // vector, zero beyond it.
        assert_eq!(pt.slots().len(), 4);
        assert_eq!(ctx.decode(&pt, 6), vec![1, 2, 3, t - 1, 0, 0]);
    }

    /// Encoding and decrypting agree on what a plaintext is: the one that
    /// went in comes back out, equal, whatever its stored prefix holds.
    #[test]
    fn a_decrypted_plaintext_equals_the_encoded_one() {
        let (ctx, mut enc, dec) = setup();
        for values in [&[1, 2, 3][..], &[7], &[1, 2, 3, 4], &[0; 5]] {
            let pt = ctx.encode(values).unwrap();
            let round_trip = dec.decrypt(&enc.encrypt(&pt)).unwrap();
            assert_eq!(round_trip, pt, "{values:?}");
        }
    }

    #[test]
    fn encode_rejects_too_many_values() {
        let (ctx, _, _) = setup();
        let too_many = vec![1i64; ctx.slot_count() + 1];
        assert!(matches!(
            ctx.encode(&too_many),
            Err(FheError::TooManyValues { .. })
        ));
    }

    #[test]
    fn encrypt_decrypt_round_trips() {
        let (ctx, mut enc, dec) = setup();
        let ct = enc.encrypt_values(&[5, 10, 15]).unwrap();
        let pt = dec.decrypt(&ct).unwrap();
        assert_eq!(ctx.decode(&pt, 3), vec![5, 10, 15]);
        assert!(dec.invariant_noise_budget(&ct) > 0.0);
    }

    #[test]
    fn fresh_ciphertext_budget_is_close_to_the_parameter_budget() {
        let (ctx, mut enc, dec) = setup();
        let ct = enc.encrypt_values(&[1]).unwrap();
        let budget = dec.invariant_noise_budget(&ct);
        let max = ctx.params().fresh_noise_budget_bits();
        assert!(budget > max - 10.0 && budget <= max);
    }

    #[test]
    fn decrypting_with_the_wrong_key_fails() {
        let params = BfvParameters::insecure_test();
        let ctx = FheContext::new(params).unwrap();
        let keygen_a = KeyGenerator::new(ctx.params(), 1);
        let keygen_b = KeyGenerator::new(ctx.params(), 2);
        let mut enc = Encryptor::new(&ctx, &keygen_a.public_key());
        let dec = Decryptor::new(&ctx, &keygen_b.secret_key());
        let ct = enc.encrypt_values(&[1]).unwrap();
        assert_eq!(dec.decrypt(&ct), Err(FheError::KeyMismatch));
    }

    #[test]
    fn exhausted_budget_fails_decryption() {
        let (_, mut enc, dec) = setup();
        let mut ct = enc.encrypt_values(&[1]).unwrap();
        ct.noise_consumed_bits = 1e9;
        assert!(matches!(
            dec.decrypt(&ct),
            Err(FheError::NoiseBudgetExhausted { .. })
        ));
        assert_eq!(dec.invariant_noise_budget(&ct), 0.0);
    }

    #[test]
    fn errors_display_useful_messages() {
        let e = FheError::MissingGaloisKey { step: 3 };
        assert!(e.to_string().contains("step 3"));
        let e = FheError::TooManyValues {
            provided: 10,
            slots: 4,
        };
        assert!(e.to_string().contains("10"));
    }
}
