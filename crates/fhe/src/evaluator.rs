//! Homomorphic evaluation: the SEAL-style `Evaluator` API.
//!
//! Every operation updates three facets of a ciphertext:
//!
//! 1. the exact batched slot values (functional correctness),
//! 2. the payload polynomials, using the amount of ring arithmetic the real
//!    BFV operation performs (cost-faithful wall-clock), and
//! 3. the analytic invariant-noise estimate.
//!
//! ## Representation invariants (the lazy-NTT hot path)
//!
//! Ciphertext payloads are **always in NTT (evaluation) form** and live in
//! the striped `[c0 | c1]` layout ([`CtPayload`]): they are born there at
//! encryption, key-switch key payloads are pre-transformed (and
//! pre-striped) at key generation, and plaintext splats are transformed
//! once per plaintext and cached. Every operation below is therefore a
//! **single fused pass** over the stripe — both ciphertext components
//! update together, `O(n)` work, zero forward/inverse transforms. Nothing
//! downstream observes payload coefficient form: decryption and noise
//! estimation read slots and the analytic noise estimate only.
//!
//! ## Slot vectors are prefixes
//!
//! A slot vector holds a **prefix** of the logical `n`-slot vector: its
//! stored length is a power of two and every logical slot beyond it is zero.
//! No result depends on the stored length — for every operation and any mix
//! of operand lengths, `zero_extend(op(a, b)) == op(zero_extend(a),
//! zero_extend(b))`: a slot-wise result is as long as its longer operand
//! (the shorter one reads zero beyond its end), and rotation is exactly
//! cyclic over the logical `n`. A rotation keeps its operand's length when
//! the block that would wrap past slot 0 (or grow past the prefix) is all
//! zero — an `O(|step|)` read — and otherwise materializes the output
//! longer, up to `n`: correctness never rests on the caller having sized
//! its vectors well, only speed does. Payload stripes and noise figures
//! never see the stored length (the Galois element and every bound read
//! `n` from the context).
//!
//! ## Zero-allocation steady state
//!
//! The evaluator owns a [`PolyArena`]: every output buffer (payload stripes
//! *and* slot vectors) is taken from it, and dead ciphertexts are returned
//! with [`Evaluator::recycle`]. Each operation has one, out-of-place form: an
//! accumulating caller takes the fresh result and recycles the operand it
//! replaces, so the result is drawn from the buffers the last step
//! returned. A request stream running against a warm arena
//! performs **zero fresh buffer allocations**: an arena checked out of a
//! session's [`ArenaPool`](crate::ArenaPool) counts its misses and hits on
//! that pool ([`ArenaPool::alloc_stats`](crate::ArenaPool::alloc_stats)),
//! which is what lets tests and the benchmark assert exactly that. Cheap
//! ct–pt additions do not copy payloads at all — the payload rides behind an
//! `Arc` and is shared.
//!
//! ## No threads
//!
//! An evaluator runs every kernel on the thread that called it.
//! Parallelism belongs to the layers above: requests across an engine's
//! workers, instructions within a request across the executor's workers,
//! one evaluator per worker.

use crate::arena::PolyArena;
use crate::crypto::{Ciphertext, FheContext, FheError, Plaintext};
use crate::keys::{GaloisKeys, RelinKeys};
use crate::payload::CtPayload;
use crate::rns::PlainModulus;
use crate::simd::GaloisPermutation;
use std::collections::HashMap;
use std::sync::Arc;

/// Statistics of the homomorphic operations an [`Evaluator`] has executed.
///
/// The counters let harnesses report operation mixes without instrumenting
/// call sites.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvaluatorStats {
    /// Ciphertext–ciphertext additions and subtractions.
    pub additions: usize,
    /// Ciphertext negations.
    pub negations: usize,
    /// Ciphertext–ciphertext multiplications.
    pub ct_ct_multiplications: usize,
    /// Ciphertext–plaintext multiplications.
    pub ct_pt_multiplications: usize,
    /// Slot rotations.
    pub rotations: usize,
}

impl EvaluatorStats {
    /// Total number of homomorphic operations.
    pub fn total(&self) -> usize {
        self.additions
            + self.negations
            + self.ct_ct_multiplications
            + self.ct_pt_multiplications
            + self.rotations
    }

    /// Accumulates another evaluator's counters into this one (used by the
    /// parallel runtime to combine per-worker statistics).
    pub fn merge(&mut self, other: &EvaluatorStats) {
        self.additions += other.additions;
        self.negations += other.negations;
        self.ct_ct_multiplications += other.ct_ct_multiplications;
        self.ct_pt_multiplications += other.ct_pt_multiplications;
        self.rotations += other.rotations;
    }
}

/// Executes homomorphic operations over ciphertexts.
#[derive(Debug)]
pub struct Evaluator {
    ctx: FheContext,
    stats: EvaluatorStats,
    /// Buffer pool every output slot vector and payload stripe is drawn
    /// from (and dead ciphertexts recycled into).
    arena: PolyArena,
    /// Lock-free local view of the context's shared Eval-domain Galois
    /// permutation cache, keyed by Galois element.
    galois_perms: HashMap<usize, Arc<GaloisPermutation>>,
}

impl Evaluator {
    /// Creates an evaluator for a context, with an empty private buffer
    /// arena. Long-lived callers that want a warm arena use
    /// [`Evaluator::with_arena`].
    pub fn new(ctx: &FheContext) -> Self {
        Self::with_arena(ctx, PolyArena::new())
    }

    /// Creates an evaluator that draws its buffers from `arena` (typically
    /// one checked out of a session's [`crate::ArenaPool`], carrying the
    /// warm buffers of earlier requests).
    pub fn with_arena(ctx: &FheContext, arena: PolyArena) -> Self {
        Evaluator {
            ctx: ctx.clone(),
            stats: EvaluatorStats::default(),
            arena,
            galois_perms: HashMap::new(),
        }
    }

    /// Takes the evaluator's buffer arena (to restore it to a shared pool),
    /// leaving an empty one behind.
    pub fn take_arena(&mut self) -> PolyArena {
        std::mem::take(&mut self.arena)
    }

    /// Returns a dead ciphertext's buffers to the evaluator's arena: its
    /// slot vector always, its payload stripe when this ciphertext was the
    /// stripe's last referent. The next operation of matching size reuses
    /// them instead of allocating.
    pub fn recycle(&mut self, ciphertext: Ciphertext) {
        ciphertext.recycle_into(&mut self.arena);
    }

    /// Returns a dead plaintext's buffers (slot vector plus any cached
    /// payload splat) to the evaluator's arena — the plaintext counterpart
    /// of [`Evaluator::recycle`], pairing with [`FheContext::encode_in`].
    pub fn recycle_plain(&mut self, plaintext: Plaintext) {
        plaintext.recycle_into(&mut self.arena);
    }

    /// Mutable access to the evaluator's buffer arena, so callers can draw
    /// sibling allocations (e.g. [`FheContext::encode_in`] slot vectors)
    /// from the same pool the evaluator recycles into.
    pub fn arena_mut(&mut self) -> &mut PolyArena {
        &mut self.arena
    }

    /// Counters of the operations executed so far.
    pub fn stats(&self) -> EvaluatorStats {
        self.stats
    }

    /// Element-wise slot combination into an arena buffer as long as the
    /// longer operand; the shorter one reads zero beyond its stored prefix.
    /// `op` is one of the [`PlainModulus`] operators, chosen per pass (never
    /// per slot), so each slot costs one reducer call and no division.
    fn slot_binary(
        &mut self,
        a: &[u64],
        b: &[u64],
        op: impl Fn(&PlainModulus, u64, u64) -> u64,
    ) -> Vec<u64> {
        let t = *self.ctx.plain();
        let common = a.len().min(b.len());
        let mut out = self.arena.take(a.len().max(b.len()));
        let (head, tail) = out.split_at_mut(common);
        for ((slot, &x), &y) in head.iter_mut().zip(a).zip(b) {
            *slot = op(&t, x, y);
        }
        // At most one operand reaches past `common`.
        for (slot, &x) in tail.iter_mut().zip(&a[common..]) {
            *slot = op(&t, x, 0);
        }
        for (slot, &y) in tail.iter_mut().zip(&b[common..]) {
            *slot = op(&t, 0, y);
        }
        out
    }

    /// The logical rotation `out[i] = a[(i + shift) mod n]` of a stored
    /// prefix, `shift < n`, as two block copies with the wrap computed.
    ///
    /// `a[0]` lands in logical slot `n - shift`. Rotating towards slot 0
    /// (`shift <= n / 2`) wraps the block `a[..shift]` to the top of the
    /// vector; rotating away grows the block `a[len - (n - shift)..]` past
    /// the prefix. When that block is all zero the output keeps `a`'s
    /// length; otherwise it is materialized as long as the data reaches
    /// (rounded up to a power of two, `n` once anything wraps).
    fn rotate_slots(&mut self, a: &[u64], shift: usize, n: usize) -> Vec<u64> {
        let len = a.len();
        let away = n - shift;
        // The block that leaves the prefix, the block that stays in it, and
        // where in the output the latter starts.
        let (leaving, staying, start) = if shift <= n / 2 {
            let (wrapped, rest) = a.split_at(shift.min(len));
            (wrapped, rest, 0)
        } else {
            let (rest, grown) = a.split_at(len - away.min(len));
            (grown, rest, len - rest.len())
        };
        if leaving.iter().all(|&s| s == 0) {
            let mut out = self.arena.take(len);
            let end = start + staying.len();
            out[..start].fill(0);
            out[start..end].copy_from_slice(staying);
            out[end..].fill(0);
            return out;
        }
        let (out_len, first) = if away + len <= n {
            ((away + len).next_power_of_two(), len)
        } else {
            (n, n - away)
        };
        let mut out = self.arena.take(out_len);
        out.fill(0);
        out[away..away + first].copy_from_slice(&a[..first]);
        out[..len - first].copy_from_slice(&a[first..]);
        out
    }

    /// An arena-backed copy of a ciphertext: the slot vector is copied into
    /// a pooled buffer, the payload stripe is shared (`Arc`), so the copy
    /// costs one slot-vector fill and no payload traffic.
    pub fn clone_ciphertext(&mut self, a: &Ciphertext) -> Ciphertext {
        let mut slots = self.arena.take(a.slots.len());
        slots.copy_from_slice(&a.slots);
        Ciphertext {
            slots,
            payload: Arc::clone(&a.payload),
            noise_consumed_bits: a.noise_consumed_bits,
            key_id: a.key_id,
            level: a.level,
        }
    }

    /// Ciphertext–ciphertext addition.
    pub fn add(&mut self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.stats.additions += 1;
        Ciphertext {
            slots: self.slot_binary(&a.slots, &b.slots, PlainModulus::add),
            payload: self.payload_pointwise(a, b, false),
            noise_consumed_bits: self.ctx.noise_model().combine(
                a.noise_consumed_bits,
                b.noise_consumed_bits,
                self.ctx.noise_model().add_bits,
            ),
            key_id: a.key_id,
            level: a.level.max(b.level),
        }
    }

    /// Ciphertext–ciphertext subtraction.
    pub fn sub(&mut self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.stats.additions += 1;
        Ciphertext {
            slots: self.slot_binary(&a.slots, &b.slots, PlainModulus::sub),
            payload: self.payload_pointwise(a, b, true),
            noise_consumed_bits: self.ctx.noise_model().combine(
                a.noise_consumed_bits,
                b.noise_consumed_bits,
                self.ctx.noise_model().add_bits,
            ),
            key_id: a.key_id,
            level: a.level.max(b.level),
        }
    }

    /// Ciphertext negation.
    pub fn negate(&mut self, a: &Ciphertext) -> Ciphertext {
        self.stats.negations += 1;
        let t = *self.ctx.plain();
        let mut slots = self.arena.take(a.slots.len());
        for (slot, &x) in slots.iter_mut().zip(&a.slots) {
            *slot = t.neg(x);
        }
        let mut out = self.arena.take(a.payload.stripe().len());
        a.payload.neg2(&mut out, self.ctx.chain());
        Ciphertext {
            slots,
            payload: shared_like(out, &a.payload),
            noise_consumed_bits: a.noise_consumed_bits + self.ctx.noise_model().negate_bits,
            key_id: a.key_id,
            level: a.level,
        }
    }

    /// Ciphertext–plaintext addition.
    ///
    /// The payload is untouched by plain addition, so the output **shares**
    /// the input's stripe (`Arc` clone) — no `2 * degree` copy.
    pub fn add_plain(&mut self, a: &Ciphertext, b: &Plaintext) -> Ciphertext {
        self.stats.additions += 1;
        Ciphertext {
            slots: self.slot_binary(&a.slots, &b.slots, PlainModulus::add),
            payload: Arc::clone(&a.payload),
            noise_consumed_bits: a.noise_consumed_bits + self.ctx.noise_model().add_bits,
            key_id: a.key_id,
            level: a.level,
        }
    }

    /// Ciphertext–plaintext subtraction (`a - b`); shares the payload like
    /// [`Evaluator::add_plain`].
    pub fn sub_plain(&mut self, a: &Ciphertext, b: &Plaintext) -> Ciphertext {
        self.stats.additions += 1;
        Ciphertext {
            slots: self.slot_binary(&a.slots, &b.slots, PlainModulus::sub),
            payload: Arc::clone(&a.payload),
            noise_consumed_bits: a.noise_consumed_bits + self.ctx.noise_model().add_bits,
            key_id: a.key_id,
            level: a.level,
        }
    }

    /// Ciphertext–ciphertext multiplication followed by relinearization.
    ///
    /// The payload work mimics BFV: a tensor product of the two 2-component
    /// ciphertexts (four ring multiplications) followed by a key-switching
    /// step against the relinearization key's Eval-form stripe (two more
    /// ring multiplications). All six products run **fused in one pass over
    /// the stripe** ([`CtPayload::mul_add_eval2`]): per coefficient the
    /// degree-2 component `c2 = a1·b1` is a local scalar, so the operation
    /// needs no temporary and touches each operand cache line exactly once.
    pub fn multiply(&mut self, a: &Ciphertext, b: &Ciphertext, relin: &RelinKeys) -> Ciphertext {
        self.stats.ct_ct_multiplications += 1;
        let payload = self.payload_tensor_product(a, b, relin);
        Ciphertext {
            slots: self.slot_binary(&a.slots, &b.slots, PlainModulus::mul),
            payload,
            noise_consumed_bits: self.ctx.noise_model().combine(
                a.noise_consumed_bits,
                b.noise_consumed_bits,
                self.ctx.noise_model().ct_ct_mul_bits,
            ),
            key_id: a.key_id,
            level: a.level.max(b.level) + 1,
        }
    }

    /// Ciphertext–plaintext multiplication.
    ///
    /// The plaintext's payload splat is transformed into Eval form once per
    /// plaintext (cached on the [`Plaintext`]); both ciphertext components
    /// then multiply it in a single fused pass over the stripe
    /// ([`CtPayload::mul_eval2`]).
    pub fn multiply_plain(&mut self, a: &Ciphertext, b: &Plaintext) -> Ciphertext {
        self.stats.ct_pt_multiplications += 1;
        let splat = b.splat_eval(&self.ctx, &mut self.arena);
        let mut out = self.arena.take(a.payload.stripe().len());
        a.payload.mul_eval2(&splat, &mut out, self.ctx.chain());
        Ciphertext {
            slots: self.slot_binary(&a.slots, &b.slots, PlainModulus::mul),
            payload: shared_like(out, &a.payload),
            noise_consumed_bits: a.noise_consumed_bits + self.ctx.noise_model().ct_pt_mul_bits,
            key_id: a.key_id,
            level: a.level,
        }
    }

    /// Rotates the batched slots cyclically by `step` positions (positive
    /// steps rotate towards slot 0, i.e. the paper's `<<`).
    ///
    /// # Errors
    ///
    /// Returns [`FheError::MissingGaloisKey`] if `galois_keys` has no key for
    /// `step`.
    pub fn rotate(
        &mut self,
        a: &Ciphertext,
        step: i64,
        galois_keys: &GaloisKeys,
    ) -> Result<Ciphertext, FheError> {
        if step == 0 {
            return Ok(self.clone_ciphertext(a));
        }
        let key = galois_keys
            .switch_stripe(step)
            .ok_or(FheError::MissingGaloisKey { step })?;
        self.stats.rotations += 1;
        let n = self.ctx.slot_count();
        let shift = step.rem_euclid(n as i64) as usize;
        let slots = self.rotate_slots(&a.slots, shift, n);
        // Payload: Galois automorphism on both components plus key switching
        // (two ring multiplications), roughly half the work of a ct-ct
        // multiplication, matching the relative cost the paper assumes. In
        // Eval form the automorphism is a pure index permutation and the
        // key-switch product is pointwise against the Galois key's
        // pre-transformed payload, so the whole rotation is one fused
        // gather-and-multiply pass over the stripe
        // ([`CtPayload::galois_eval2`]).
        let degree = self.ctx.params().payload_degree;
        // The slot rotation corresponds to the Galois automorphism
        // x -> x^(2*shift + 1) (always odd, as the ring requires). Its
        // Eval-domain permutation depends only on the element, so the
        // context computes each step's table once and every evaluator
        // shares it.
        let galois_elt = (2 * (shift % degree) + 1) % (2 * degree);
        let perm = match self.galois_perms.get(&galois_elt) {
            Some(perm) => Arc::clone(perm),
            None => {
                let perm = self.ctx.galois_perm(galois_elt);
                self.galois_perms.insert(galois_elt, Arc::clone(&perm));
                perm
            }
        };
        let mut out = self.arena.take(a.payload.stripe().len());
        a.payload
            .galois_eval2(&perm, key, &mut out, self.ctx.chain());
        Ok(Ciphertext {
            slots,
            payload: shared_like(out, &a.payload),
            noise_consumed_bits: a.noise_consumed_bits + self.ctx.noise_model().rotation_bits,
            key_id: a.key_id,
            level: a.level,
        })
    }

    /// Point-wise payload combination used by additions/subtractions: one
    /// fused pass over both components' stripe.
    fn payload_pointwise(
        &mut self,
        a: &Ciphertext,
        b: &Ciphertext,
        negate_b: bool,
    ) -> Arc<CtPayload> {
        let mut out = self.arena.take(a.payload.stripe().len());
        if negate_b {
            a.payload.sub2(&b.payload, &mut out, self.ctx.chain());
        } else {
            a.payload.add2(&b.payload, &mut out, self.ctx.chain());
        }
        shared_like(out, &a.payload)
    }

    /// Tensor-product payload work used by ct-ct multiplication (see
    /// [`Evaluator::multiply`]).
    fn payload_tensor_product(
        &mut self,
        a: &Ciphertext,
        b: &Ciphertext,
        relin: &RelinKeys,
    ) -> Arc<CtPayload> {
        let mut out = self.arena.take(a.payload.stripe().len());
        // Key-switch multipliers: the relin key's pre-transformed stripe.
        let switch = relin.switch_stripe();
        a.payload.mul_add_eval2(
            &b.payload,
            switch.c0(),
            switch.c1(),
            &mut out,
            self.ctx.chain(),
        );
        shared_like(out, &a.payload)
    }
}

/// A kernel's output stripe as a shared payload with `like`'s limb count.
fn shared_like(out: Vec<u64>, like: &CtPayload) -> Arc<CtPayload> {
    Arc::new(CtPayload::from_limb_stripe(out, like.limbs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use crate::params::BfvParameters;

    struct Fixture {
        ctx: FheContext,
        enc: crate::crypto::Encryptor,
        dec: crate::crypto::Decryptor,
        eval: Evaluator,
        relin: RelinKeys,
        galois: GaloisKeys,
    }

    fn setup() -> Fixture {
        let params = BfvParameters::insecure_test();
        let ctx = FheContext::new(params).unwrap();
        let mut keygen = KeyGenerator::new(ctx.params(), 11);
        let enc = crate::crypto::Encryptor::new(&ctx, &keygen.public_key());
        let dec = crate::crypto::Decryptor::new(&ctx, &keygen.secret_key());
        let eval = Evaluator::new(&ctx);
        let relin = keygen.relin_keys();
        let galois = keygen.default_galois_keys();
        Fixture {
            ctx,
            enc,
            dec,
            eval,
            relin,
            galois,
        }
    }

    #[test]
    fn homomorphic_addition_matches_plain_addition() {
        let mut f = setup();
        let a = f.enc.encrypt_values(&[1, 2, 3]).unwrap();
        let b = f.enc.encrypt_values(&[10, 20, 30]).unwrap();
        let sum = f.eval.add(&a, &b);
        let pt = f.dec.decrypt(&sum).unwrap();
        assert_eq!(f.ctx.decode(&pt, 3), vec![11, 22, 33]);
    }

    #[test]
    fn homomorphic_multiplication_matches_plain_multiplication() {
        let mut f = setup();
        let a = f.enc.encrypt_values(&[2, 3, 4]).unwrap();
        let b = f.enc.encrypt_values(&[5, 6, 7]).unwrap();
        let prod = f.eval.multiply(&a, &b, &f.relin);
        let pt = f.dec.decrypt(&prod).unwrap();
        assert_eq!(f.ctx.decode(&pt, 3), vec![10, 18, 28]);
        assert_eq!(prod.level(), 1);
    }

    #[test]
    fn subtraction_and_negation_wrap_modulo_t() {
        let mut f = setup();
        let a = f.enc.encrypt_values(&[1]).unwrap();
        let b = f.enc.encrypt_values(&[3]).unwrap();
        let diff = f.eval.sub(&a, &b);
        let t = f.ctx.plain_modulus();
        assert_eq!(f.dec.decrypt(&diff).unwrap().scalar(), t - 2);
        let neg = f.eval.negate(&a);
        assert_eq!(f.dec.decrypt(&neg).unwrap().scalar(), t - 1);
    }

    #[test]
    fn plaintext_operations_match() {
        let mut f = setup();
        let a = f.enc.encrypt_values(&[4, 5]).unwrap();
        let p = f.ctx.encode(&[3, 3]).unwrap();
        assert_eq!(
            f.ctx
                .decode(&f.dec.decrypt(&f.eval.multiply_plain(&a, &p)).unwrap(), 2),
            vec![12, 15]
        );
        assert_eq!(
            f.ctx
                .decode(&f.dec.decrypt(&f.eval.add_plain(&a, &p)).unwrap(), 2),
            vec![7, 8]
        );
        assert_eq!(
            f.ctx
                .decode(&f.dec.decrypt(&f.eval.sub_plain(&a, &p)).unwrap(), 2),
            vec![1, 2]
        );
    }

    #[test]
    fn plain_addition_shares_the_payload_stripe() {
        let mut f = setup();
        let a = f.enc.encrypt_values(&[4, 5]).unwrap();
        let p = f.ctx.encode(&[3, 3]).unwrap();
        let sum = f.eval.add_plain(&a, &p);
        assert!(
            std::sync::Arc::ptr_eq(&a.payload, &sum.payload),
            "ct-pt addition must share the payload, not copy it"
        );
    }

    #[test]
    fn a_shorter_operand_reads_zero_beyond_its_prefix() {
        let mut f = setup();
        let long = f.enc.encrypt_values(&[1, 2, 3, 4, 5]).unwrap();
        let short = f.enc.encrypt_values(&[10, 20]).unwrap();
        let p = f.ctx.encode(&[3]).unwrap();
        let t = f.ctx.plain_modulus();
        let read = |ct: &Ciphertext| f.ctx.decode(&f.dec.decrypt(ct).unwrap(), 6);
        assert_eq!(read(&f.eval.add(&short, &long)), [11, 22, 3, 4, 5, 0]);
        assert_eq!(
            read(&f.eval.sub(&short, &long)),
            [9, 18, t - 3, t - 4, t - 5, 0]
        );
        assert_eq!(
            read(&f.eval.multiply(&long, &short, &f.relin)),
            [10, 40, 0, 0, 0, 0]
        );
        assert_eq!(read(&f.eval.add_plain(&long, &p)), [4, 2, 3, 4, 5, 0]);
        assert_eq!(read(&f.eval.multiply_plain(&long, &p)), [3, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn rotation_is_cyclic_over_the_logical_vector_at_any_stored_length() {
        let mut f = setup();
        let n = f.ctx.slot_count();
        let a = f.enc.encrypt_values(&[0, 0, 7, 8]).unwrap();
        // The block that would wrap is zero: the prefix keeps its length.
        let toward = f.eval.rotate(&a, 2, &f.galois).unwrap();
        assert_eq!(toward.slots, [7, 8, 0, 0]);
        // Slot 2 wraps past slot 0 to the top of the vector: materialized.
        let wrapped = f.eval.rotate(&a, 4, &f.galois).unwrap();
        let logical = f.ctx.decode(&f.dec.decrypt(&wrapped).unwrap(), n);
        assert_eq!(logical[n - 2..], [7, 8]);
        assert!(logical[..n - 2].iter().all(|&s| s == 0));
        // Pushed past the prefix, the output grows no further than it must.
        let away = f.eval.rotate(&a, -1, &f.galois).unwrap();
        assert_eq!(away.slots, [0, 0, 0, 7, 8, 0, 0, 0]);
        // And back: nothing was lost at either end.
        let back = f.eval.rotate(&wrapped, -4, &f.galois).unwrap();
        assert_eq!(
            f.ctx.decode(&f.dec.decrypt(&back).unwrap(), 4),
            [0, 0, 7, 8]
        );
    }

    #[test]
    fn recycled_buffers_are_reused_by_later_operations() {
        let mut f = setup();
        let a = f.enc.encrypt_values(&[2, 3]).unwrap();
        let b = f.enc.encrypt_values(&[4, 5]).unwrap();
        // Warm the arena with one multiply's buffers (slot vector + stripe)...
        let first = f.eval.multiply(&a, &b, &f.relin);
        let expected_slots = first.slots.clone();
        f.eval.recycle(first);
        let warm = f.eval.take_arena();
        let retained = warm.retained();
        assert_eq!(retained, 2, "recycle returns the slot vector and stripe");
        f.eval = Evaluator::with_arena(&f.ctx, warm);
        // ...and the next multiply of identical shape is served entirely
        // from the pool (both buffers leave the arena, none is allocated).
        let second = f.eval.multiply(&a, &b, &f.relin);
        assert_eq!(f.eval.take_arena().retained(), retained - 2);
        assert_eq!(second.slots, expected_slots);
    }

    #[test]
    fn rotation_moves_slots_towards_slot_zero() {
        let mut f = setup();
        let a = f.enc.encrypt_values(&[1, 2, 3, 4]).unwrap();
        let rotated = f.eval.rotate(&a, 1, &f.galois).unwrap();
        let pt = f.dec.decrypt(&rotated).unwrap();
        assert_eq!(f.ctx.decode(&pt, 3), vec![2, 3, 4]);
        // Rotating by zero is the identity and needs no key.
        let same = f.eval.rotate(&a, 0, &f.galois).unwrap();
        assert_eq!(
            f.ctx.decode(&f.dec.decrypt(&same).unwrap(), 4),
            vec![1, 2, 3, 4]
        );
    }

    #[test]
    fn rotation_by_unsupported_step_fails() {
        let mut f = setup();
        let keygen = &mut KeyGenerator::new(f.ctx.params(), 99);
        let only_one = keygen.galois_keys(&[1]);
        let a = f.enc.encrypt_values(&[1, 2, 3, 4]).unwrap();
        // The ciphertext key differs from `only_one`'s generator, but rotation
        // only consults the step set, which is the compiler-facing constraint.
        assert!(matches!(
            f.eval.rotate(&a, 3, &only_one),
            Err(FheError::MissingGaloisKey { step: 3 })
        ));
    }

    #[test]
    fn rotation_behaves_like_zero_fill_shift_on_live_slots() {
        // With zero padding beyond the live slots, a cyclic rotation equals a
        // zero-fill shift on the live region: the invariant the IR semantics
        // relies on.
        let mut f = setup();
        let a = f.enc.encrypt_values(&[7, 8, 9]).unwrap();
        let rotated = f.eval.rotate(&a, 2, &f.galois).unwrap();
        let pt = f.dec.decrypt(&rotated).unwrap();
        assert_eq!(f.ctx.decode(&pt, 3), vec![9, 0, 0]);
    }

    #[test]
    fn noise_budget_decreases_fastest_for_ct_ct_multiplication() {
        let mut f = setup();
        let a = f.enc.encrypt_values(&[2]).unwrap();
        let b = f.enc.encrypt_values(&[3]).unwrap();
        let before = f.dec.invariant_noise_budget(&a);
        let after_add = f.dec.invariant_noise_budget(&f.eval.add(&a, &b));
        let after_rot = f
            .dec
            .invariant_noise_budget(&f.eval.rotate(&a, 1, &f.galois).unwrap());
        let after_mul = f
            .dec
            .invariant_noise_budget(&f.eval.multiply(&a, &b, &f.relin));
        assert!(after_add < before);
        assert!(after_mul < after_rot);
        assert!(after_rot < after_add || (after_rot - after_add).abs() < 5.0);
        assert!(
            before - after_mul > 20.0,
            "ct-ct multiplication consumes tens of bits"
        );
    }

    #[test]
    fn deep_multiplication_chains_exhaust_the_budget() {
        let params = BfvParameters::insecure_test();
        let ctx = FheContext::new(params).unwrap();
        let mut keygen = KeyGenerator::new(ctx.params(), 5);
        let mut enc = crate::crypto::Encryptor::new(&ctx, &keygen.public_key());
        let dec = crate::crypto::Decryptor::new(&ctx, &keygen.secret_key());
        let mut eval = Evaluator::new(&ctx);
        let relin = keygen.relin_keys();
        let mut acc = enc.encrypt_values(&[1]).unwrap();
        let x = enc.encrypt_values(&[1]).unwrap();
        // The 120-bit test modulus gives a ~100-bit budget: three levels fit,
        // but a dozen multiplications must exhaust it.
        for _ in 0..12 {
            acc = eval.multiply(&acc, &x, &relin);
        }
        assert!(matches!(
            dec.decrypt(&acc),
            Err(FheError::NoiseBudgetExhausted { .. })
        ));
    }

    #[test]
    fn evaluator_counts_operations() {
        let mut f = setup();
        let a = f.enc.encrypt_values(&[1, 2]).unwrap();
        let b = f.enc.encrypt_values(&[3, 4]).unwrap();
        let _ = f.eval.add(&a, &b);
        let _ = f.eval.multiply(&a, &b, &f.relin);
        let _ = f.eval.rotate(&a, 1, &f.galois).unwrap();
        let p = f.ctx.encode(&[5, 5]).unwrap();
        let _ = f.eval.multiply_plain(&a, &p);
        let stats = f.eval.stats();
        assert_eq!(stats.additions, 1);
        assert_eq!(stats.ct_ct_multiplications, 1);
        assert_eq!(stats.rotations, 1);
        assert_eq!(stats.ct_pt_multiplications, 1);
        assert_eq!(stats.total(), 4);
    }
}
