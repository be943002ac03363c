//! The striped ciphertext payload layout and its fused dual-component
//! kernels.
//!
//! A BFV ciphertext carries two payload polynomials `(c0, c1)`. Storing them
//! as two separate heap vectors (the pre-stripe layout) makes every
//! pointwise operation walk the same auxiliary data (plaintext splats,
//! key-switch polynomials, Galois permutations) twice — once per component —
//! and costs two output allocations per operation. A [`CtPayload`] instead
//! stores both components in **one contiguous stripe**, always in NTT
//! (evaluation) form, and the fused kernels below update both components in
//! a single pass:
//!
//! - [`CtPayload::mul_eval2`] — both components times one shared pointwise
//!   multiplier (ciphertext–plaintext products),
//! - [`CtPayload::mul_add_eval2`] — the full BFV ct-ct tensor product plus
//!   relinearization (six ring products per coefficient, fused),
//! - [`CtPayload::galois_eval2`] — Galois gather plus key-switch product,
//! - [`CtPayload::add2`] / [`CtPayload::sub2`] / [`CtPayload::neg2`] —
//!   component-wise ring addition as one stripe pass.
//!
//! # RNS limb stripes
//!
//! Under a `k`-limb [`ModulusChain`] the stripe
//! generalizes to `[c0_q0 | c0_q1 | … | c0_q(k-1) | c1_q0 | … | c1_q(k-1)]`
//! — each component half carries `k` consecutive *limb stripes* of `degree`
//! values, one per chain prime, `2·k·degree` values in all. Every kernel
//! is one loop over the limb stripes handing one [`crate::simd`] kernel to
//! each stripe's limb: limb 0 reduces by the Goldilocks ε-identity
//! arithmetic (the `k = 1` engine is this loop over one limb), limbs `1..k`
//! by Barrett. A kernel takes its operand stripes and the chain, nothing
//! else: it runs on the lane the chain was built with, the lane its
//! transforms run on.
//!
//! All kernels write into caller-provided stripe buffers (typically from a
//! [`PolyArena`](crate::PolyArena)) and walk the two component halves in
//! lockstep, so the shared per-coefficient operands (multiplier, key,
//! permutation entry, the `c2` tensor scalar) are loaded once instead of
//! once per component.

use crate::rns::{Limb, ModulusChain};
use crate::simd::{self, GaloisPermutation};
use std::ops::Range;

/// The consecutive `degree`-long limb stripes of a `len`-value buffer of
/// `limbs`-limb components, each with the limb that reduces it — a kernel
/// is one [`Limb::run`] per stripe.
fn limb_stripes(
    len: usize,
    degree: usize,
    limbs: usize,
    chain: &ModulusChain,
) -> impl Iterator<Item = (&Limb, Range<usize>)> {
    (0..len)
        .step_by(degree)
        .enumerate()
        .map(move |(i, start)| (chain.limb(i % limbs), start..start + degree))
}

/// Both payload components of one ciphertext in a single contiguous stripe
/// `[c0 | c1]` — under `k` RNS limbs, `[c0_q0 | … | c0_q(k-1) | c1_q0 | …
/// | c1_q(k-1)]` — always in NTT (evaluation) form.
///
/// The stripe is exactly `2 · limbs · degree` values long, `degree` a power
/// of two; [`CtPayload::from_limb_stripe`] rejects any other length. The
/// fused kernels are documented on the type's methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtPayload {
    data: Vec<u64>,
    limbs: usize,
}

impl CtPayload {
    /// Wraps a `k`-limb stripe buffer of `2 · limbs · degree` values laid
    /// out `[c0_q0 | … | c0_q(k-1) | c1_q0 | … | c1_q(k-1)]`. Each limb
    /// stripe's values must be canonical residues of that limb's prime.
    ///
    /// # Panics
    ///
    /// Panics if `limbs` is zero or the length is not `2 · limbs` times a
    /// power of two (an empty buffer included).
    pub fn from_limb_stripe(data: Vec<u64>, limbs: usize) -> Self {
        assert!(limbs >= 1, "a payload carries at least one limb");
        assert!(
            data.len().is_multiple_of(2 * limbs) && (data.len() / (2 * limbs)).is_power_of_two(),
            "stripe length must be 2*limbs times a power-of-two degree"
        );
        CtPayload { data, limbs }
    }

    /// Builds a `k`-limb stripe from two equal-length component halves of
    /// `limbs · degree` values each.
    pub fn from_limb_components(c0: &[u64], c1: &[u64], limbs: usize) -> Self {
        assert_eq!(c0.len(), c1.len(), "components must have equal degree");
        let mut data = Vec::with_capacity(2 * c0.len());
        data.extend_from_slice(c0);
        data.extend_from_slice(c1);
        CtPayload::from_limb_stripe(data, limbs)
    }

    /// The payload polynomial degree per limb.
    pub fn degree(&self) -> usize {
        self.data.len() / (2 * self.limbs)
    }

    /// Number of RNS limb stripes each component carries.
    pub fn limbs(&self) -> usize {
        self.limbs
    }

    /// The whole stripe (both components, all limbs).
    pub fn stripe(&self) -> &[u64] {
        &self.data
    }

    /// The first payload component (`limbs · degree` values).
    pub fn c0(&self) -> &[u64] {
        &self.data[..self.data.len() / 2]
    }

    /// The second payload component (`limbs · degree` values).
    pub fn c1(&self) -> &[u64] {
        &self.data[self.data.len() / 2..]
    }

    /// Unwraps the stripe buffer (for recycling into a
    /// [`PolyArena`](crate::PolyArena)).
    pub fn into_stripe(self) -> Vec<u64> {
        self.data
    }

    /// Fused ciphertext–plaintext product: both components multiply the
    /// shared `mult` vector (a full `limbs · degree` multiplier) in one
    /// lockstep pass (`out.c0[j] = c0[j] * mult[j]`, `out.c1[j] = c1[j] *
    /// mult[j]`, each limb stripe reduced by its own prime), so `mult` is
    /// read once per coefficient instead of once per component. `out` must
    /// be a stripe buffer of `self`'s length.
    ///
    /// # Panics
    ///
    /// Panics (like every kernel below) if an operand's length does not
    /// match the payload's.
    pub fn mul_eval2(&self, mult: &[u64], out: &mut [u64], chain: &ModulusChain) {
        let half = self.data.len() / 2;
        assert_eq!(mult.len(), half, "multiplier length");
        assert_eq!(out.len(), self.data.len(), "output stripe length");
        let (a0, a1) = (self.c0(), self.c1());
        let (out0, out1) = out.split_at_mut(half);
        for (limb, r) in limb_stripes(half, self.degree(), self.limbs, chain) {
            let kernel = simd::Mul2 {
                x0: &a0[r.clone()],
                x1: &a1[r.clone()],
                m: &mult[r.clone()],
                o0: &mut out0[r.clone()],
                o1: &mut out1[r],
            };
            limb.run(kernel);
        }
    }

    /// The fused BFV ct-ct multiplication payload: tensor product of `(a0,
    /// a1)` and `(b0, b1)` plus key switching against the Eval-form pair
    /// `(s0, s1)`, all six ring products per coefficient in one pass:
    ///
    /// ```text
    /// c2      = a1·b1                      (per-coefficient scalar)
    /// out.c0  = a0·b0 + c2·s0
    /// out.c1  = a0·b1 + a1·b0 + c2·s1
    /// ```
    ///
    /// Both output components are written in lockstep (the two halves of the
    /// `out` stripe), each limb stripe under its own prime.
    pub fn mul_add_eval2(
        &self,
        other: &CtPayload,
        s0: &[u64],
        s1: &[u64],
        out: &mut [u64],
        chain: &ModulusChain,
    ) {
        let half = self.data.len() / 2;
        assert_eq!(other.data.len(), self.data.len(), "operand stripe length");
        assert_eq!((s0.len(), s1.len()), (half, half), "key-switch pair length");
        assert_eq!(out.len(), self.data.len(), "output stripe length");
        let (a0, a1) = (self.c0(), self.c1());
        let (b0, b1) = (other.c0(), other.c1());
        let (out0, out1) = out.split_at_mut(half);
        for (limb, r) in limb_stripes(half, self.degree(), self.limbs, chain) {
            let kernel = simd::MulAdd2 {
                a0: &a0[r.clone()],
                a1: &a1[r.clone()],
                b0: &b0[r.clone()],
                b1: &b1[r.clone()],
                s0: &s0[r.clone()],
                s1: &s1[r.clone()],
                o0: &mut out0[r.clone()],
                o1: &mut out1[r],
            };
            limb.run(kernel);
        }
    }

    /// Fused rotation payload: Galois gather (`perm`, an Eval-domain index
    /// permutation over one limb's `degree` positions, applied within each
    /// limb stripe) and key-switch product (`key`, a full `limbs · degree`
    /// multiplier) applied to both components in one pass.
    pub fn galois_eval2(
        &self,
        perm: &GaloisPermutation,
        key: &[u64],
        out: &mut [u64],
        chain: &ModulusChain,
    ) {
        let half = self.data.len() / 2;
        assert_eq!(perm.len(), self.degree(), "permutation length");
        assert_eq!(key.len(), half, "key length");
        assert_eq!(out.len(), self.data.len(), "output stripe length");
        let (a0, a1) = (self.c0(), self.c1());
        let (out0, out1) = out.split_at_mut(half);
        for (limb, r) in limb_stripes(half, self.degree(), self.limbs, chain) {
            let kernel = simd::Galois2 {
                src0: &a0[r.clone()],
                src1: &a1[r.clone()],
                perm,
                key: &key[r.clone()],
                o0: &mut out0[r.clone()],
                o1: &mut out1[r],
            };
            limb.run(kernel);
        }
    }

    /// Component-wise payload addition as one stripe pass:
    /// `out[j] = self[j] + other[j]`, each limb under its own prime.
    pub fn add2(&self, other: &CtPayload, out: &mut [u64], chain: &ModulusChain) {
        let (x, y) = (&self.data, &other.data);
        assert_eq!((y.len(), out.len()), (x.len(), x.len()), "stripe length");
        for (limb, r) in limb_stripes(x.len(), self.degree(), self.limbs, chain) {
            let (x, y, out) = (&x[r.clone()], &y[r.clone()], &mut out[r]);
            limb.run(simd::Add { x, y, out });
        }
    }

    /// Component-wise payload subtraction as one stripe pass:
    /// `out[j] = self[j] - other[j]`, each limb under its own prime.
    pub fn sub2(&self, other: &CtPayload, out: &mut [u64], chain: &ModulusChain) {
        let (x, y) = (&self.data, &other.data);
        assert_eq!((y.len(), out.len()), (x.len(), x.len()), "stripe length");
        for (limb, r) in limb_stripes(x.len(), self.degree(), self.limbs, chain) {
            let (x, y, out) = (&x[r.clone()], &y[r.clone()], &mut out[r]);
            limb.run(simd::Sub { x, y, out });
        }
    }

    /// Component-wise payload negation as one stripe pass:
    /// `out[j] = -self[j]`, each limb under its own prime.
    pub fn neg2(&self, out: &mut [u64], chain: &ModulusChain) {
        let x = &self.data;
        assert_eq!(out.len(), x.len(), "output stripe length");
        for (limb, r) in limb_stripes(x.len(), self.degree(), self.limbs, chain) {
            let (x, out) = (&x[r.clone()], &mut out[r]);
            limb.run(simd::Neg { x, out });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::{p_add, p_mul, p_mul_add, p_neg, p_sub, Poly, MODULUS};
    use crate::simd::SimdPolicy;

    /// One `k`-limb chain at `degree` per lane the CPU has, scalar first:
    /// a kernel runs on its chain's lane.
    fn lanes(k: usize, degree: usize) -> Vec<ModulusChain> {
        let policies = crate::simd::tests::available_policies(module_path!());
        (policies.into_iter())
            .map(|policy| ModulusChain::with_policy(k, degree, policy))
            .collect()
    }

    /// The lane `chain`'s kernels run on.
    fn lane(chain: &ModulusChain) -> SimdPolicy {
        chain.limb(0).tables().policy()
    }

    /// Deterministic pseudo-random canonical field elements.
    fn random_values(n: usize, seed: u64) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.wrapping_mul(0x2545_F491_4F6C_DD1D) % MODULUS
            })
            .collect()
    }

    fn random_payload(n: usize, seed: u64) -> CtPayload {
        CtPayload::from_limb_stripe(random_values(2 * n, seed), 1)
    }

    /// A k-limb payload whose limb stripes are canonical under their own
    /// primes.
    fn random_limb_payload(chain: &ModulusChain, degree: usize, seed: u64) -> CtPayload {
        let k = chain.limb_count();
        let mut data = Vec::with_capacity(2 * k * degree);
        for component in 0..2u64 {
            for (li, limb) in chain.limbs().iter().enumerate() {
                data.extend(
                    random_values(degree, seed ^ (component << 8) ^ li as u64)
                        .iter()
                        .map(|&v| v % limb.modulus()),
                );
            }
        }
        CtPayload::from_limb_stripe(data, k)
    }

    /// Split-layout reference of [`CtPayload::mul_eval2`]: one pass per
    /// component, as the pre-stripe engine performed it.
    fn split_mul_reference(payload: &CtPayload, mult: &[u64]) -> Vec<u64> {
        let mut out = Vec::new();
        for component in [payload.c0(), payload.c1()] {
            out.extend(component.iter().zip(mult).map(|(&a, &m)| p_mul(a, m)));
        }
        out
    }

    #[test]
    fn striped_shared_multiplier_matches_split_reference() {
        for (degree, seed) in [(16usize, 0xA), (64, 0xB), (256, 0xC)] {
            let payload = random_payload(degree, seed);
            let mult = random_values(degree, seed ^ 0xFF);
            let mut out = vec![0u64; 2 * degree];
            for chain in lanes(1, degree) {
                payload.mul_eval2(&mult, &mut out, &chain);
                assert_eq!(
                    out,
                    split_mul_reference(&payload, &mult),
                    "degree {degree} {:?}",
                    lane(&chain)
                );
            }
        }
    }

    #[test]
    fn striped_tensor_product_matches_per_component_reference() {
        for (degree, seed) in [(16usize, 0x1), (64, 0x2)] {
            let a = random_payload(degree, seed);
            let b = random_payload(degree, seed ^ 0x77);
            let s0 = random_values(degree, seed ^ 0x101);
            let s1 = random_values(degree, seed ^ 0x202);
            // Per-component reference with the same reduction order.
            let mut expected = vec![0u64; 2 * degree];
            for i in 0..degree {
                let c2 = p_mul(a.c1()[i], b.c1()[i]);
                expected[i] = p_mul_add(c2, s0[i], p_mul(a.c0()[i], b.c0()[i]));
                expected[degree + i] = p_mul_add(
                    c2,
                    s1[i],
                    p_mul_add(a.c1()[i], b.c0()[i], p_mul(a.c0()[i], b.c1()[i])),
                );
            }
            for chain in lanes(1, degree) {
                let mut out = vec![0u64; 2 * degree];
                a.mul_add_eval2(&b, &s0, &s1, &mut out, &chain);
                assert_eq!(out, expected, "degree {degree} {:?}", lane(&chain));
            }
        }
    }

    #[test]
    fn striped_galois_matches_per_component_poly_reference() {
        use crate::poly::{galois_eval_permutation, NttTables};
        let degree = 32usize;
        let tables = NttTables::new(degree);
        let c0 = Poly::from_coeffs(random_values(degree, 3)).to_eval(&tables);
        let c1 = Poly::from_coeffs(random_values(degree, 5)).to_eval(&tables);
        let payload = CtPayload::from_limb_components(c0.coeffs(), c1.coeffs(), 1);
        let key = random_values(degree, 9);
        for galois_elt in [3usize, 5, 9, 63] {
            let perm = galois_eval_permutation(degree, galois_elt);
            // Per-component reference: gather then key-switch multiply.
            let reference = |p: &Poly| -> Vec<u64> {
                p.apply_galois_eval(galois_elt)
                    .coeffs()
                    .iter()
                    .zip(&key)
                    .map(|(&g, &k)| p_mul(g, k))
                    .collect()
            };
            for chain in lanes(1, degree) {
                let policy = lane(&chain);
                let mut out = vec![0u64; 2 * degree];
                payload.galois_eval2(&perm, &key, &mut out, &chain);
                assert_eq!(
                    &out[..degree],
                    reference(&c0),
                    "element {galois_elt} {policy:?}"
                );
                assert_eq!(
                    &out[degree..],
                    reference(&c1),
                    "element {galois_elt} {policy:?}"
                );
            }
        }
    }

    #[test]
    fn stripe_add_sub_neg_match_per_coefficient_field_ops() {
        let degree = 64usize;
        let a = random_payload(degree, 0xAD);
        let b = random_payload(degree, 0xBE);
        let (x, y) = (a.stripe(), b.stripe());
        let zip = |op: fn(u64, u64) -> u64| -> Vec<u64> {
            x.iter().zip(y).map(|(&u, &v)| op(u, v)).collect()
        };
        let negated: Vec<u64> = x.iter().map(|&u| p_neg(u)).collect();

        for chain in lanes(1, degree) {
            let mut sum = vec![0u64; 2 * degree];
            a.add2(&b, &mut sum, &chain);
            assert_eq!(sum, zip(p_add));

            let mut diff = vec![0u64; 2 * degree];
            a.sub2(&b, &mut diff, &chain);
            assert_eq!(diff, zip(p_sub));

            let mut neg = vec![0u64; 2 * degree];
            a.neg2(&mut neg, &chain);
            assert_eq!(neg, negated);
        }
    }

    #[test]
    fn multi_limb_kernels_reduce_each_limb_by_its_own_prime() {
        let degree = 32usize;
        let lanes = lanes(3, degree);
        let k = 3;
        let a = random_limb_payload(&lanes[0], degree, 0x31);
        let b = random_limb_payload(&lanes[0], degree, 0x32);
        let mult: Vec<u64> = b.c0().to_vec();
        let naive_mul = |x: u64, y: u64, q: u64| -> u64 {
            ((u128::from(x) * u128::from(y)) % u128::from(q)) as u64
        };

        for chain in &lanes {
            let policy = lane(chain);
            let mut out = vec![0u64; 2 * k * degree];
            a.mul_eval2(&mult, &mut out, chain);
            for li in 0..k {
                let q = chain.limb(li).modulus();
                for j in 0..degree {
                    let pos = li * degree + j;
                    assert_eq!(
                        out[pos],
                        naive_mul(a.c0()[pos], mult[pos], q),
                        "limb {li} c0 pos {j} {policy:?}"
                    );
                    assert_eq!(
                        out[k * degree + pos],
                        naive_mul(a.c1()[pos], mult[pos], q),
                        "limb {li} c1 pos {j}"
                    );
                }
            }
        }

        // Add/sub/neg walk every limb segment under its own modulus.
        for chain in &lanes {
            let mut sum = vec![0u64; 2 * k * degree];
            a.add2(&b, &mut sum, chain);
            for li in 0..k {
                let q = chain.limb(li).modulus();
                for j in 0..degree {
                    let pos = li * degree + j;
                    let expect = ((u128::from(a.c0()[pos]) + u128::from(b.c0()[pos]))
                        % u128::from(q)) as u64;
                    assert_eq!(sum[pos], expect, "limb {li}");
                }
            }
        }
    }

    #[test]
    fn multi_limb_galois_permutes_within_each_limb_stripe() {
        use crate::poly::galois_eval_permutation;
        let degree = 16usize;
        let lanes = lanes(2, degree);
        let k = 2;
        let payload = random_limb_payload(&lanes[0], degree, 0x41);
        let key: Vec<u64> = payload.c1().to_vec();
        let perm = galois_eval_permutation(degree, 3);
        for chain in &lanes {
            let policy = lane(chain);
            let mut out = vec![0u64; 2 * k * degree];
            payload.galois_eval2(&perm, &key, &mut out, chain);
            for li in 0..k {
                let q = chain.limb(li).modulus();
                for (j, &p) in perm.iter().enumerate() {
                    let pos = li * degree + j;
                    let src = li * degree + p as usize;
                    let expect = ((u128::from(payload.c0()[src]) * u128::from(key[pos]))
                        % u128::from(q)) as u64;
                    assert_eq!(out[pos], expect, "limb {li} pos {j} {policy:?}");
                }
            }
        }
    }

    /// A multiplier, key, permutation, operand or output of the wrong length
    /// panics under every policy, in release builds too: no lane may read
    /// or write past a short slice.
    #[test]
    fn mismatched_operand_lengths_panic_under_every_policy() {
        use crate::poly::galois_eval_permutation;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let degree = 16usize;
        for k in [1usize, 2] {
            let half = k * degree;
            let lanes = lanes(k, degree);
            let a = random_limb_payload(&lanes[0], degree, 0x51);
            let small_chain = ModulusChain::new(k, degree / 2);
            let small = random_limb_payload(&small_chain, degree / 2, 0x52);
            let full = vec![1u64; half];
            let short = vec![1u64; half / 2];
            let perm = galois_eval_permutation(degree, 3);
            let short_perm = galois_eval_permutation(degree / 2, 3);
            for chain in &lanes {
                let policy = lane(chain);
                let panics = |name: &str, kernel: &dyn Fn(&mut [u64])| {
                    let mut out = vec![0u64; 2 * half];
                    let outcome = catch_unwind(AssertUnwindSafe(|| kernel(&mut out)));
                    assert!(
                        outcome.is_err(),
                        "{name} accepted a mismatch (k={k}, {policy:?})"
                    );
                };
                panics("mul_eval2", &|out| a.mul_eval2(&short, out, chain));
                panics("mul_eval2 output", &|out| {
                    a.mul_eval2(&full, &mut out[..half], chain)
                });
                panics("mul_add_eval2 operand", &|out| {
                    a.mul_add_eval2(&small, &full, &full, out, chain)
                });
                panics("mul_add_eval2 key", &|out| {
                    a.mul_add_eval2(&a, &full, &short, out, chain)
                });
                panics("galois_eval2 key", &|out| {
                    a.galois_eval2(&perm, &short, out, chain)
                });
                panics("galois_eval2 permutation", &|out| {
                    a.galois_eval2(&short_perm, &full, out, chain)
                });
                panics("add2", &|out| a.add2(&small, out, chain));
                panics("sub2 output", &|out| a.sub2(&a, &mut out[..half], chain));
                panics("neg2", &|out| a.neg2(&mut out[..half], chain));
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two degree")]
    fn odd_stripe_lengths_are_rejected() {
        let _ = CtPayload::from_limb_stripe(vec![0; 6], 1);
    }

    #[test]
    #[should_panic(expected = "power-of-two degree")]
    fn limb_stripe_lengths_must_split_into_limbs() {
        let _ = CtPayload::from_limb_stripe(vec![0; 12], 2);
    }

    #[test]
    fn component_views_split_the_stripe() {
        let payload = CtPayload::from_limb_components(&[1, 2], &[3, 4], 1);
        assert_eq!(payload.degree(), 2);
        assert_eq!(payload.limbs(), 1);
        assert_eq!(payload.c0(), &[1, 2]);
        assert_eq!(payload.c1(), &[3, 4]);
        assert_eq!(payload.stripe(), &[1, 2, 3, 4]);
        assert_eq!(payload.clone().into_stripe(), vec![1, 2, 3, 4]);

        let multi = CtPayload::from_limb_components(&[1, 2, 3, 4], &[5, 6, 7, 8], 2);
        assert_eq!(multi.degree(), 2);
        assert_eq!(multi.limbs(), 2);
        assert_eq!(multi.c0(), &[1, 2, 3, 4]);
        assert_eq!(multi.c1(), &[5, 6, 7, 8]);
    }
}
