//! BFV encryption parameters.
//!
//! Parameters mirror Microsoft SEAL's: a power-of-two polynomial modulus
//! degree `n`, a plaintext modulus `t` compatible with batching
//! (`t ≡ 1 mod 2n`), and a coefficient modulus `q` described by its total
//! bit size. The evaluation setup of the paper (Section 7.4) uses
//! `n = 16384`, a 20-bit `t`, and SEAL's default 389-bit coefficient modulus
//! for 128-bit security, giving a fresh invariant-noise budget of 369 bits.

use std::fmt;

/// Errors raised when validating encryption parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParameterError {
    /// The polynomial modulus degree is not a power of two or is too small.
    InvalidPolyModulusDegree(usize),
    /// The plaintext modulus does not satisfy `t ≡ 1 (mod 2n)`, which batching requires.
    PlainModulusIncompatibleWithBatching {
        /// The offending plaintext modulus.
        plain_modulus: u64,
        /// The polynomial modulus degree it was checked against.
        poly_modulus_degree: usize,
    },
    /// The coefficient modulus is not strictly larger than the plaintext modulus.
    CoeffModulusTooSmall,
    /// The payload degree used for cost simulation is not a power of two.
    InvalidPayloadDegree(usize),
    /// The RNS limb count is outside the supported `1..=8` range.
    InvalidLimbCount(usize),
    /// The plaintext modulus is outside the `[2, 2^32)` range the slot
    /// reducer ([`PlainModulus`](crate::PlainModulus)) covers.
    PlainModulusOutOfRange(u64),
    /// The coefficient modulus is larger than the Homomorphic Encryption
    /// Standard allows at the declared security level.
    CoeffModulusAboveSecurityBound {
        /// The declared coefficient-modulus size in bits.
        coeff_modulus_bits: u32,
        /// The largest size the declared level allows at this degree.
        max_bits: u32,
        /// The declared level.
        level: SecurityLevel,
    },
}

impl fmt::Display for ParameterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParameterError::InvalidPolyModulusDegree(n) => {
                write!(f, "polynomial modulus degree {n} must be a power of two of at least 8")
            }
            ParameterError::PlainModulusIncompatibleWithBatching { plain_modulus, poly_modulus_degree } => write!(
                f,
                "plaintext modulus {plain_modulus} is not congruent to 1 modulo 2*{poly_modulus_degree}; batching is unavailable"
            ),
            ParameterError::CoeffModulusTooSmall => {
                write!(f, "coefficient modulus must be larger than the plaintext modulus")
            }
            ParameterError::InvalidPayloadDegree(n) => {
                write!(f, "payload degree {n} must be a power of two of at least 8")
            }
            ParameterError::InvalidLimbCount(k) => {
                write!(f, "RNS limb count {k} must be between 1 and 8")
            }
            ParameterError::PlainModulusOutOfRange(t) => {
                write!(f, "plaintext modulus {t} must be at least 2 and below 2^32")
            }
            ParameterError::CoeffModulusAboveSecurityBound { coeff_modulus_bits, max_bits, level } => write!(
                f,
                "a {coeff_modulus_bits}-bit coefficient modulus exceeds the {max_bits} bits {level:?} allows at this degree"
            ),
        }
    }
}

impl std::error::Error for ParameterError {}

/// Security levels from the Homomorphic Encryption Standard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityLevel {
    /// 128-bit classical security.
    Tc128,
    /// 192-bit classical security.
    Tc192,
    /// 256-bit classical security.
    Tc256,
}

impl SecurityLevel {
    /// The maximum total coefficient-modulus size (in bits) the Homomorphic
    /// Encryption Standard allows for a given polynomial modulus degree.
    pub fn max_coeff_modulus_bits(self, poly_modulus_degree: usize) -> u32 {
        // Table 1 of the HE standard (classical security).
        let table: &[(usize, u32, u32, u32)] = &[
            (1024, 27, 19, 14),
            (2048, 54, 37, 29),
            (4096, 109, 75, 58),
            (8192, 218, 152, 118),
            (16384, 438, 300, 237),
            (32768, 881, 611, 476),
        ];
        let row = table
            .iter()
            .find(|(n, _, _, _)| *n >= poly_modulus_degree)
            .unwrap_or(table.last().expect("table is non-empty"));
        match self {
            SecurityLevel::Tc128 => row.1,
            SecurityLevel::Tc192 => row.2,
            SecurityLevel::Tc256 => row.3,
        }
    }
}

/// BFV encryption parameters and the payload shape ciphertexts compute at.
#[derive(Debug, Clone, PartialEq)]
pub struct BfvParameters {
    /// Polynomial modulus degree `n` (number of ciphertext slots).
    pub poly_modulus_degree: usize,
    /// Plaintext modulus `t`.
    pub plain_modulus: u64,
    /// Total size of the coefficient modulus `q` in bits.
    pub coeff_modulus_bits: u32,
    /// The security level the parameters claim, which
    /// [`BfvParameters::validate`] holds them to; `None` claims none (test
    /// parameters).
    pub security_level: Option<SecurityLevel>,
    /// Degree of the payload polynomials the execution engine actually
    /// multiplies to obtain BFV-shaped operation latencies. Smaller values
    /// speed the harness up without changing relative costs; `n` reproduces
    /// full-size arithmetic volume.
    pub payload_degree: usize,
    /// Number of RNS limbs `k` the payload polynomials carry. Limb 0 is
    /// always the Goldilocks prime (the exact, bit-identical single-modulus
    /// engine); limbs `1..k` are NTT-friendly primes below `2^61` that
    /// multiply the simulated coefficient precision — and the arithmetic
    /// volume per operation — by `k`.
    pub limb_count: usize,
}

impl BfvParameters {
    /// The evaluation setup of the paper: `n = 16384`, 20-bit plaintext
    /// modulus, SEAL's default 389-bit coefficient modulus, 128-bit
    /// security. The payload degree defaults to 4096 to keep the harness
    /// fast; set it to `n` for full-volume arithmetic.
    pub fn default_128() -> Self {
        BfvParameters {
            poly_modulus_degree: 16384,
            plain_modulus: 786_433, // 20-bit prime, 786433 = 1 + 2^18 * 3, and 786433 ≡ 1 (mod 32768)
            coeff_modulus_bits: 389,
            security_level: Some(SecurityLevel::Tc128),
            payload_degree: 4096,
            limb_count: 1,
        }
    }

    /// Small parameters for tests: `n = 1024`, tiny (64-coefficient) payload
    /// polynomials that still carry every operation's ring arithmetic. They
    /// claim no security level: a 120-bit modulus at `n = 1024` is far above
    /// the 27 bits 128-bit security allows.
    pub fn insecure_test() -> Self {
        BfvParameters {
            poly_modulus_degree: 1024,
            plain_modulus: 786_433,
            coeff_modulus_bits: 120,
            security_level: None,
            payload_degree: 64,
            limb_count: 1,
        }
    }

    /// Returns a copy of the parameters with the RNS limb count set to `k`.
    pub fn with_limb_count(mut self, k: usize) -> Self {
        self.limb_count = k;
        self
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParameterError`] describing the first violated constraint.
    pub fn validate(&self) -> Result<(), ParameterError> {
        if !self.poly_modulus_degree.is_power_of_two() || self.poly_modulus_degree < 8 {
            return Err(ParameterError::InvalidPolyModulusDegree(
                self.poly_modulus_degree,
            ));
        }
        if !self.payload_degree.is_power_of_two() || self.payload_degree < 8 {
            return Err(ParameterError::InvalidPayloadDegree(self.payload_degree));
        }
        if !(2..crate::PlainModulus::MAX).contains(&self.plain_modulus) {
            return Err(ParameterError::PlainModulusOutOfRange(self.plain_modulus));
        }
        if self.plain_modulus % (2 * self.poly_modulus_degree as u64) != 1 {
            return Err(ParameterError::PlainModulusIncompatibleWithBatching {
                plain_modulus: self.plain_modulus,
                poly_modulus_degree: self.poly_modulus_degree,
            });
        }
        if u64::from(self.coeff_modulus_bits) <= 64 - self.plain_modulus.leading_zeros() as u64 {
            return Err(ParameterError::CoeffModulusTooSmall);
        }
        if self.limb_count == 0 || self.limb_count > 8 {
            return Err(ParameterError::InvalidLimbCount(self.limb_count));
        }
        if let Some(level) = self.security_level {
            let max_bits = level.max_coeff_modulus_bits(self.poly_modulus_degree);
            if self.coeff_modulus_bits > max_bits {
                return Err(ParameterError::CoeffModulusAboveSecurityBound {
                    coeff_modulus_bits: self.coeff_modulus_bits,
                    max_bits,
                    level,
                });
            }
        }
        Ok(())
    }

    /// Number of batching slots (equal to the polynomial modulus degree).
    pub fn slot_count(&self) -> usize {
        self.poly_modulus_degree
    }

    /// Bit size of the plaintext modulus.
    pub fn plain_modulus_bits(&self) -> u32 {
        64 - self.plain_modulus.leading_zeros()
    }

    /// The fresh invariant-noise budget in bits
    /// (`coeff_modulus_bits - plain_modulus_bits`), matching the 369 bits the
    /// paper observes for its setup.
    pub fn fresh_noise_budget_bits(&self) -> f64 {
        f64::from(self.coeff_modulus_bits) - f64::from(self.plain_modulus_bits())
    }

    /// Approximate size of one Galois (rotation) key in bytes. Each key holds
    /// roughly `2 * ceil(coeff_bits / 60)` polynomials per decomposition
    /// digit, which is what makes shipping many rotation keys expensive
    /// (Appendix B). This is the paper setup's nominal size, read off
    /// `coeff_modulus_bits`: the keys keygen samples follow the payload
    /// chain instead (two polynomials per limb), and the two meet once the
    /// limb count is chosen from the circuit's modulus.
    pub fn galois_key_size_bytes(&self) -> usize {
        let digits = (self.coeff_modulus_bits as usize).div_ceil(60);
        2 * digits * self.poly_modulus_degree * (self.coeff_modulus_bits as usize).div_ceil(8)
    }
}

impl Default for BfvParameters {
    fn default() -> Self {
        Self::default_128()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_validate_and_match_the_reported_budget() {
        let p = BfvParameters::default_128();
        p.validate().unwrap();
        assert_eq!(p.slot_count(), 16384);
        assert_eq!(p.plain_modulus_bits(), 20);
        assert_eq!(p.fresh_noise_budget_bits(), 369.0);
        assert_eq!(p.security_level, Some(SecurityLevel::Tc128));
        for k in 1..=8 {
            p.clone().with_limb_count(k).validate().unwrap();
        }
    }

    #[test]
    fn a_modulus_above_the_declared_level_is_rejected() {
        // 389 bits is within Tc128's 438 at n = 16384, not within Tc192's 300.
        let p = BfvParameters {
            security_level: Some(SecurityLevel::Tc192),
            ..BfvParameters::default_128()
        };
        assert_eq!(
            p.validate(),
            Err(ParameterError::CoeffModulusAboveSecurityBound {
                coeff_modulus_bits: 389,
                max_bits: 300,
                level: SecurityLevel::Tc192,
            })
        );
        // The test parameters claim no level; claiming one fails.
        let claimed = BfvParameters {
            security_level: Some(SecurityLevel::Tc128),
            ..BfvParameters::insecure_test()
        };
        assert!(matches!(
            claimed.validate(),
            Err(ParameterError::CoeffModulusAboveSecurityBound { max_bits: 27, .. })
        ));
    }

    #[test]
    fn test_parameters_validate() {
        BfvParameters::insecure_test().validate().unwrap();
    }

    #[test]
    fn non_power_of_two_degree_is_rejected() {
        let p = BfvParameters {
            poly_modulus_degree: 10_000,
            ..BfvParameters::default_128()
        };
        assert!(matches!(
            p.validate(),
            Err(ParameterError::InvalidPolyModulusDegree(_))
        ));
    }

    #[test]
    fn batching_incompatible_plain_modulus_is_rejected() {
        let p = BfvParameters {
            plain_modulus: 65_537,
            ..BfvParameters::default_128()
        };
        // 65537 ≡ 1 mod 32768? 65537 - 1 = 65536 = 2 * 32768, so it is compatible; use 12289 instead.
        let incompatible = BfvParameters {
            plain_modulus: 12_289,
            ..p
        };
        assert!(matches!(
            incompatible.validate(),
            Err(ParameterError::PlainModulusIncompatibleWithBatching { .. })
        ));
    }

    #[test]
    fn security_table_is_monotone_in_level() {
        for n in [4096usize, 8192, 16384] {
            let l128 = SecurityLevel::Tc128.max_coeff_modulus_bits(n);
            let l192 = SecurityLevel::Tc192.max_coeff_modulus_bits(n);
            let l256 = SecurityLevel::Tc256.max_coeff_modulus_bits(n);
            assert!(l128 > l192 && l192 > l256);
        }
    }

    #[test]
    fn key_and_ciphertext_sizes_are_multi_megabyte_for_paper_parameters() {
        let p = BfvParameters::default_128();
        // A ciphertext is two polynomials of `n` coefficients of
        // `coeff_modulus_bits` bits each.
        let ciphertext_bytes =
            2 * p.poly_modulus_degree * (p.coeff_modulus_bits as usize).div_ceil(8);
        assert!(ciphertext_bytes > 1_000_000);
        assert!(p.galois_key_size_bytes() > ciphertext_bytes);
    }

    #[test]
    fn limb_count_is_bounded() {
        let p = BfvParameters::insecure_test().with_limb_count(0);
        assert_eq!(p.validate(), Err(ParameterError::InvalidLimbCount(0)));
        let p = BfvParameters::insecure_test().with_limb_count(9);
        assert_eq!(p.validate(), Err(ParameterError::InvalidLimbCount(9)));
        for k in 1..=8 {
            BfvParameters::insecure_test()
                .with_limb_count(k)
                .validate()
                .unwrap();
        }
    }

    #[test]
    fn plain_moduli_beyond_the_slot_reducer_are_rejected() {
        // 2^32 + 2^15 + 1 ≡ 1 (mod 2^15): batching-compatible, but a product
        // of two residues no longer fits a word.
        let t = (1u64 << 32) + (1 << 15) + 1;
        let p = BfvParameters {
            plain_modulus: t,
            ..BfvParameters::default_128()
        };
        assert_eq!(p.validate(), Err(ParameterError::PlainModulusOutOfRange(t)));
    }

    #[test]
    fn coeff_modulus_must_exceed_plain_modulus() {
        let p = BfvParameters {
            coeff_modulus_bits: 16,
            ..BfvParameters::default_128()
        };
        assert_eq!(p.validate(), Err(ParameterError::CoeffModulusTooSmall));
    }
}
