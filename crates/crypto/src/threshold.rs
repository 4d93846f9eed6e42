//! Robust threshold signatures (the σ/τ/π schemes of §V).
//!
//! For threshold `k` out of `n` signers, any `k` valid signature shares on a
//! digest combine into one constant-size signature verifiable against a
//! single public key. The scheme is *robust* (§III): collectors can filter
//! out invalid shares from malicious participants, because every share is
//! individually verifiable against the signer's public key share.
//!
//! Two combination modes are provided, mirroring §VIII ("Cryptography
//! implementation"):
//!
//! - [`ThresholdPublicKey::combine`] — `k`-of-`n` via Lagrange interpolation
//!   in the exponent;
//! - [`ThresholdPublicKey::combine_multisig`] — `n`-of-`n` aggregation
//!   ("BLS group signature"), cheaper because no interpolation is needed;
//!   SBFT's fast path uses it while no failure is observed and falls back
//!   automatically.

use std::error::Error;
use std::fmt;

use sbft_types::Digest;

use crate::field::{batch_invert, Scalar};
use crate::group::{hash_to_group, pairing_check_with_generator, GroupElement, PairingAccumulator};
use crate::poly::Polynomial;
use crate::rng::SplitMix64;

/// A share of the threshold secret key, held by one signer.
#[derive(Clone)]
pub struct SecretKeyShare {
    index: u16,
    secret: Scalar,
}

impl fmt::Debug for SecretKeyShare {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret.
        write!(f, "SecretKeyShare(index={})", self.index)
    }
}

impl SecretKeyShare {
    /// The signer's 1-based index.
    pub fn index(&self) -> u16 {
        self.index
    }

    /// Produces a signature share on `digest` under domain separation tag
    /// `domain` (e.g. `b"sigma"`, `b"tau"`, `b"pi"`).
    pub fn sign(&self, domain: &[u8], digest: &Digest) -> SignatureShare {
        let hm = hash_to_group(domain, digest);
        SignatureShare {
            index: self.index,
            value: hm.mul(&self.secret),
        }
    }
}

/// A verifiable signature share produced by one signer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureShare {
    index: u16,
    value: GroupElement,
}

impl SignatureShare {
    /// The 1-based index of the signer that produced this share.
    pub fn index(&self) -> u16 {
        self.index
    }

    /// The share's group element.
    pub fn value(&self) -> &GroupElement {
        &self.value
    }

    /// Builds a share from raw parts (used by the wire codec and by fault
    /// injection in tests).
    pub fn from_parts(index: u16, value: GroupElement) -> Self {
        SignatureShare { index, value }
    }
}

/// A combined, constant-size threshold signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    value: GroupElement,
}

impl Signature {
    /// The signature's group element.
    pub fn value(&self) -> &GroupElement {
        &self.value
    }

    /// Builds a signature from a raw group element (wire codec / tests).
    pub fn from_element(value: GroupElement) -> Self {
        Signature { value }
    }
}

/// Error from [`ThresholdPublicKey::combine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombineError {
    /// Fewer than `threshold` *valid* shares were available. Invalid shares
    /// are filtered (robustness), so this also fires when too many shares
    /// were bogus.
    NotEnoughValidShares {
        /// Number of distinct valid shares seen.
        valid: usize,
        /// The scheme's threshold `k`.
        needed: usize,
    },
    /// Multisig combination requires exactly the full signer set.
    IncompleteMultisig {
        /// Number of distinct valid shares seen.
        valid: usize,
        /// Total number of signers `n`.
        needed: usize,
    },
}

impl fmt::Display for CombineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CombineError::NotEnoughValidShares { valid, needed } => {
                write!(f, "only {valid} valid shares, threshold is {needed}")
            }
            CombineError::IncompleteMultisig { valid, needed } => {
                write!(f, "multisig needs all {needed} shares, got {valid}")
            }
        }
    }
}

impl Error for CombineError {}

/// Public material of a threshold scheme: the group public key, per-signer
/// public key shares, and the aggregate key for `n`-of-`n` multisig mode.
#[derive(Debug, Clone)]
pub struct ThresholdPublicKey {
    threshold: usize,
    n: usize,
    public_key: GroupElement,
    share_keys: Vec<GroupElement>,
    aggregate_key: GroupElement,
    /// `inverses[d - 1] = 1/d` for `d` in `1..n`: every gap between two
    /// signer indices, so Lagrange coefficients need no inversion.
    inverses: Vec<Scalar>,
}

impl ThresholdPublicKey {
    /// The threshold `k`: number of shares needed to combine.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Total number of signers `n`.
    pub fn total(&self) -> usize {
        self.n
    }

    /// The group public key the combined signature verifies against.
    pub fn public_key(&self) -> &GroupElement {
        &self.public_key
    }

    /// The public key share of the 1-based signer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is 0 or greater than `n`.
    pub fn share_key(&self, index: u16) -> &GroupElement {
        &self.share_keys[index as usize - 1]
    }

    /// Verifies one signature share against its signer's public key share.
    pub fn verify_share(&self, domain: &[u8], digest: &Digest, share: &SignatureShare) -> bool {
        self.verify_share_with_hm(&hash_to_group(domain, digest), share)
    }

    /// Share verification with the message's group hash already computed —
    /// collectors verifying `k` shares on one digest hash the message
    /// once, not `k` times.
    fn verify_share_with_hm(&self, hm: &GroupElement, share: &SignatureShare) -> bool {
        if share.index == 0 || share.index as usize > self.n {
            return false;
        }
        // e(σ_i, G) == e(H(m), pk_i)
        pairing_check_with_generator(&share.value, hm, self.share_key(share.index))
    }

    /// Verifies a batch of shares with one random linear combination, as
    /// batch BLS verification does (§III: shares "support batch
    /// verification ... at nearly the same cost of validating only one").
    ///
    /// Returns `true` iff every share in the batch is valid. `seed` supplies
    /// the verifier's randomness.
    pub fn batch_verify_shares(
        &self,
        domain: &[u8],
        digest: &Digest,
        shares: &[SignatureShare],
        seed: u64,
    ) -> bool {
        if shares.is_empty() {
            return true;
        }
        if shares
            .iter()
            .any(|s| s.index == 0 || s.index as usize > self.n)
        {
            return false;
        }
        let hm = hash_to_group(domain, digest);
        let mut rng = SplitMix64::new(seed);
        let mut lhs = GroupElement::IDENTITY;
        let mut rhs_key = GroupElement::IDENTITY;
        for share in shares {
            let gamma = Scalar::from_u64(rng.next_u64() | 1);
            lhs = lhs.add(&share.value.mul(&gamma));
            rhs_key = rhs_key.add(&self.share_key(share.index).mul(&gamma));
        }
        pairing_check_with_generator(&lhs, &hm, &rhs_key)
    }

    /// Combines `k`-of-`n` shares into a signature via Lagrange
    /// interpolation, filtering invalid or duplicate shares (robustness).
    ///
    /// # Errors
    ///
    /// Returns [`CombineError::NotEnoughValidShares`] when fewer than `k`
    /// distinct valid shares remain after filtering.
    pub fn combine(
        &self,
        domain: &[u8],
        digest: &Digest,
        shares: &[SignatureShare],
    ) -> Result<Signature, CombineError> {
        let hm = hash_to_group(domain, digest);
        let mut seen = vec![false; self.n + 1];
        let mut valid: Vec<&SignatureShare> = Vec::with_capacity(self.threshold);
        for share in shares {
            if valid.len() == self.threshold {
                break;
            }
            let idx = share.index as usize;
            if idx == 0 || idx > self.n || seen[idx] {
                continue;
            }
            if self.verify_share_with_hm(&hm, share) {
                seen[idx] = true;
                valid.push(share);
            }
        }
        self.interpolate(valid)
    }

    /// Combines `k`-of-`n` shares that were **already verified** upstream
    /// (e.g. by the transport's parallel verification pipeline, which
    /// checks every share against the digest the message carries before
    /// the node sees it). Skips the per-share pairing checks of
    /// [`Self::combine`]; duplicates and out-of-range indices are still
    /// filtered. An unverifiable share slipping through produces a
    /// combined signature that fails downstream verification — safety is
    /// unaffected, only the redundant re-check is elided.
    ///
    /// # Errors
    ///
    /// Returns [`CombineError::NotEnoughValidShares`] when fewer than `k`
    /// distinct in-range shares are present.
    pub fn combine_preverified(
        &self,
        shares: &[SignatureShare],
    ) -> Result<Signature, CombineError> {
        let mut seen = vec![false; self.n + 1];
        let mut valid: Vec<&SignatureShare> = Vec::with_capacity(self.threshold);
        for share in shares {
            if valid.len() == self.threshold {
                break;
            }
            let idx = share.index as usize;
            if idx == 0 || idx > self.n || seen[idx] {
                continue;
            }
            seen[idx] = true;
            valid.push(share);
        }
        self.interpolate(valid)
    }

    /// The Lagrange coefficients at zero for distinct signer indices in
    /// `1..=n`: the values of [`crate::lagrange_coefficients_at_zero`], from
    /// multiplications by the stored inverses alone.
    fn lagrange_at_zero(&self, indices: &[u64]) -> Vec<Scalar> {
        indices
            .iter()
            .map(|&j| {
                // λ_j = Π_{m≠j} m / (m − j); a negative gap flips the sign.
                let mut lambda = Scalar::ONE;
                let mut negative = false;
                for &m in indices.iter().filter(|&&m| m != j) {
                    let gap = m.abs_diff(j) as usize;
                    lambda = lambda
                        .mul(&Scalar::from_u64(m))
                        .mul(&self.inverses[gap - 1]);
                    negative ^= m < j;
                }
                if negative {
                    lambda.neg()
                } else {
                    lambda
                }
            })
            .collect()
    }

    /// Lagrange interpolation in the exponent over `threshold` distinct,
    /// validated shares.
    fn interpolate(&self, valid: Vec<&SignatureShare>) -> Result<Signature, CombineError> {
        if valid.len() < self.threshold {
            return Err(CombineError::NotEnoughValidShares {
                valid: valid.len(),
                needed: self.threshold,
            });
        }
        let indices: Vec<u64> = valid.iter().map(|s| s.index as u64).collect();
        let lambdas = self.lagrange_at_zero(&indices);
        let mut acc = GroupElement::IDENTITY;
        for (share, lambda) in valid.iter().zip(&lambdas) {
            acc = acc.add(&share.value.mul(lambda));
        }
        Ok(Signature { value: acc })
    }

    /// Combines all `n` shares by plain aggregation (no interpolation) —
    /// the "BLS group signature (n-out-of-n threshold)" fast mode of §VIII.
    /// The result verifies with [`ThresholdPublicKey::verify_multisig`].
    ///
    /// # Errors
    ///
    /// Returns [`CombineError::IncompleteMultisig`] unless exactly one valid
    /// share from every signer is present.
    pub fn combine_multisig(
        &self,
        domain: &[u8],
        digest: &Digest,
        shares: &[SignatureShare],
    ) -> Result<Signature, CombineError> {
        let hm = hash_to_group(domain, digest);
        let mut seen = vec![false; self.n + 1];
        let mut acc = GroupElement::IDENTITY;
        let mut count = 0usize;
        for share in shares {
            let idx = share.index as usize;
            if idx == 0 || idx > self.n || seen[idx] {
                continue;
            }
            if self.verify_share_with_hm(&hm, share) {
                seen[idx] = true;
                acc = acc.add(&share.value);
                count += 1;
            }
        }
        if count != self.n {
            return Err(CombineError::IncompleteMultisig {
                valid: count,
                needed: self.n,
            });
        }
        Ok(Signature { value: acc })
    }

    /// Verifies a `k`-of-`n` combined signature against the group key.
    pub fn verify(&self, domain: &[u8], digest: &Digest, signature: &Signature) -> bool {
        let hm = hash_to_group(domain, digest);
        pairing_check_with_generator(&signature.value, &hm, &self.public_key)
    }

    /// Verifies an `n`-of-`n` multisig aggregate against the aggregate key.
    pub fn verify_multisig(&self, domain: &[u8], digest: &Digest, signature: &Signature) -> bool {
        let hm = hash_to_group(domain, digest);
        pairing_check_with_generator(&signature.value, &hm, &self.aggregate_key)
    }

    /// Verifies a signature accepting either combination mode, as receivers
    /// do in SBFT (the collector may have used the group-signature fast
    /// mode or threshold interpolation). The message is hashed to the
    /// group once for both checks.
    pub fn verify_either(&self, domain: &[u8], digest: &Digest, signature: &Signature) -> bool {
        let hm = hash_to_group(domain, digest);
        pairing_check_with_generator(&signature.value, &hm, &self.public_key)
            || pairing_check_with_generator(&signature.value, &hm, &self.aggregate_key)
    }
}

/// One entry of a *mixed* share-verification batch: shares under
/// different digests, domains, and even different threshold schemes,
/// checked together (see [`batch_verify_share_items`]).
#[derive(Debug, Clone, Copy)]
pub struct ShareVerifyItem<'a> {
    /// The scheme the share belongs to (σ/τ/π have distinct keys).
    pub key: &'a ThresholdPublicKey,
    /// Domain-separation tag the share was signed under.
    pub domain: &'a [u8],
    /// The signed digest.
    pub digest: Digest,
    /// The share to verify.
    pub share: SignatureShare,
}

/// Verifies a heterogeneous batch of signature shares with **one**
/// random-linear-combination multi-pairing check:
/// `e(Σ γᵢσᵢ, G) == Π e(H(mᵢ)·γᵢ, pkᵢ)`. This widens
/// [`ThresholdPublicKey::batch_verify_shares`] (one digest, one scheme)
/// to what the transport's verification pipeline drains in practice — a
/// batch of messages carrying shares over many digests and schemes. The
/// message hash `H(mᵢ)` is computed once per distinct `(domain, digest)`
/// in the batch, not once per share.
///
/// Returns `true` iff every share in the batch is valid (all-or-nothing;
/// on `false` the caller falls back to per-item verification to identify
/// the bad ones). `seed` supplies the verifier's randomness.
pub fn batch_verify_share_items(items: &[ShareVerifyItem<'_>], seed: u64) -> bool {
    if items.is_empty() {
        return true;
    }
    let mut rng = SplitMix64::new(seed);
    let mut lhs = GroupElement::IDENTITY;
    let mut rhs = PairingAccumulator::new();
    // Tiny linear memo: batches are dominated by a handful of distinct
    // digests (many replicas' shares on the same block), so a scan beats
    // a hash map at these sizes.
    let mut hm_cache: Vec<(&[u8], Digest, GroupElement)> = Vec::new();
    for item in items {
        let idx = item.share.index();
        if idx == 0 || idx as usize > item.key.total() {
            return false;
        }
        let hm = match hm_cache
            .iter()
            .find(|(domain, digest, _)| *domain == item.domain && *digest == item.digest)
        {
            Some((_, _, hm)) => *hm,
            None => {
                let hm = hash_to_group(item.domain, &item.digest);
                hm_cache.push((item.domain, item.digest, hm));
                hm
            }
        };
        let gamma = Scalar::from_u64(rng.next_u64() | 1);
        lhs = lhs.add(&item.share.value().mul(&gamma));
        rhs.accumulate(&hm.mul(&gamma), item.key.share_key(idx));
    }
    let mut lhs_acc = PairingAccumulator::new();
    lhs_acc.accumulate(&lhs, &GroupElement::generator());
    lhs_acc.equals(&rhs)
}

/// Dealer key generation: produces the public material and the `n` secret
/// key shares for a `k`-of-`n` scheme. All randomness derives from `seed`,
/// keeping whole-system runs reproducible.
///
/// # Panics
///
/// Panics if `k == 0` or `k > n` or `n > u16::MAX as usize`.
pub fn generate_threshold_keys(
    n: usize,
    k: usize,
    seed: u64,
) -> (ThresholdPublicKey, Vec<SecretKeyShare>) {
    assert!(k >= 1 && k <= n, "threshold {k} out of range for n={n}");
    assert!(n <= u16::MAX as usize, "too many signers");
    let mut rng = SplitMix64::new(seed);
    let mut next_scalar = move || loop {
        let mut bytes = [0u8; 32];
        for chunk in bytes.chunks_exact_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_be_bytes());
        }
        let s = Scalar::from_bytes(&bytes);
        if !s.is_zero() {
            return s;
        }
    };
    let secret = next_scalar();
    let poly = Polynomial::random_with_secret(secret, k - 1, &mut next_scalar);
    let generator = GroupElement::generator();
    let mut shares = Vec::with_capacity(n);
    let mut share_keys = Vec::with_capacity(n);
    let mut aggregate_key = GroupElement::IDENTITY;
    for i in 1..=n {
        let s_i = poly.evaluate(&Scalar::from_u64(i as u64));
        let pk_i = generator.mul(&s_i);
        aggregate_key = aggregate_key.add(&pk_i);
        share_keys.push(pk_i);
        shares.push(SecretKeyShare {
            index: i as u16,
            secret: s_i,
        });
    }
    let mut inverses: Vec<Scalar> = (1..n as u64).map(Scalar::from_u64).collect();
    batch_invert(&mut inverses);
    let public = ThresholdPublicKey {
        threshold: k,
        n,
        public_key: generator.mul(&secret),
        share_keys,
        aggregate_key,
        inverses,
    };
    (public, shares)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::lagrange_coefficients_at_zero;
    use crate::sha256::sha256;
    use crate::SplitMix64;

    const DOMAIN: &[u8] = b"sigma";

    fn setup(n: usize, k: usize) -> (ThresholdPublicKey, Vec<SecretKeyShare>, Digest) {
        let (pk, sks) = generate_threshold_keys(n, k, 42);
        (pk, sks, sha256(b"decision block"))
    }

    #[test]
    fn shares_verify_individually() {
        let (pk, sks, d) = setup(7, 5);
        for sk in &sks {
            let share = sk.sign(DOMAIN, &d);
            assert!(pk.verify_share(DOMAIN, &d, &share));
            // Wrong domain fails.
            assert!(!pk.verify_share(b"tau", &d, &share));
            // Wrong digest fails.
            assert!(!pk.verify_share(DOMAIN, &sha256(b"other"), &share));
        }
    }

    #[test]
    fn combine_any_k_subset() {
        let (pk, sks, d) = setup(7, 5);
        let shares: Vec<SignatureShare> = sks.iter().map(|s| s.sign(DOMAIN, &d)).collect();
        for subset in [
            vec![0usize, 1, 2, 3, 4],
            vec![2, 3, 4, 5, 6],
            vec![0, 2, 4, 5, 6],
        ] {
            let picked: Vec<SignatureShare> = subset.iter().map(|&i| shares[i]).collect();
            let sig = pk.combine(DOMAIN, &d, &picked).unwrap();
            assert!(pk.verify(DOMAIN, &d, &sig));
            assert!(pk.verify_either(DOMAIN, &d, &sig));
        }
    }

    #[test]
    fn stored_inverses_give_the_reference_lagrange_coefficients() {
        let (pk, _, _) = setup(7, 5);
        for subset in 1u32..1 << 7 {
            let indices: Vec<u64> = (1..=7).filter(|i| subset >> (i - 1) & 1 == 1).collect();
            assert_eq!(
                pk.lagrange_at_zero(&indices),
                lagrange_coefficients_at_zero(&indices),
                "{indices:?}"
            );
        }
    }

    #[test]
    fn combine_is_subset_independent() {
        // Different subsets produce the same signature (unique signature
        // property of BLS threshold signatures).
        let (pk, sks, d) = setup(7, 5);
        let shares: Vec<SignatureShare> = sks.iter().map(|s| s.sign(DOMAIN, &d)).collect();
        let sig_a = pk.combine(DOMAIN, &d, &shares[0..5]).unwrap();
        let sig_b = pk.combine(DOMAIN, &d, &shares[2..7]).unwrap();
        assert_eq!(sig_a, sig_b);
    }

    #[test]
    fn too_few_shares_fail() {
        let (pk, sks, d) = setup(7, 5);
        let shares: Vec<SignatureShare> = sks[..4].iter().map(|s| s.sign(DOMAIN, &d)).collect();
        assert_eq!(
            pk.combine(DOMAIN, &d, &shares),
            Err(CombineError::NotEnoughValidShares {
                valid: 4,
                needed: 5
            })
        );
    }

    #[test]
    fn robustness_filters_invalid_shares() {
        let (pk, sks, d) = setup(7, 5);
        let mut shares: Vec<SignatureShare> = sks.iter().map(|s| s.sign(DOMAIN, &d)).collect();
        // Corrupt two shares: combination must still succeed from the rest.
        shares[0] = SignatureShare::from_parts(1, GroupElement::generator());
        shares[3] = SignatureShare::from_parts(4, GroupElement::IDENTITY);
        let sig = pk.combine(DOMAIN, &d, &shares).unwrap();
        assert!(pk.verify(DOMAIN, &d, &sig));
        // But if corruption leaves < k valid, it fails.
        let mostly_bad: Vec<SignatureShare> = (1..=7)
            .map(|i| SignatureShare::from_parts(i as u16, GroupElement::generator()))
            .collect();
        assert!(pk.combine(DOMAIN, &d, &mostly_bad).is_err());
    }

    #[test]
    fn duplicate_shares_do_not_count_twice() {
        let (pk, sks, d) = setup(7, 5);
        let one = sks[0].sign(DOMAIN, &d);
        let dup = vec![one; 10];
        assert_eq!(
            pk.combine(DOMAIN, &d, &dup),
            Err(CombineError::NotEnoughValidShares {
                valid: 1,
                needed: 5
            })
        );
    }

    #[test]
    fn multisig_requires_all_and_verifies() {
        let (pk, sks, d) = setup(5, 4);
        let shares: Vec<SignatureShare> = sks.iter().map(|s| s.sign(DOMAIN, &d)).collect();
        let sig = pk.combine_multisig(DOMAIN, &d, &shares).unwrap();
        assert!(pk.verify_multisig(DOMAIN, &d, &sig));
        assert!(pk.verify_either(DOMAIN, &d, &sig));
        // The multisig aggregate is NOT the threshold signature.
        assert!(!pk.verify(DOMAIN, &d, &sig));
        // Missing one share fails.
        assert_eq!(
            pk.combine_multisig(DOMAIN, &d, &shares[..4]),
            Err(CombineError::IncompleteMultisig {
                valid: 4,
                needed: 5
            })
        );
    }

    #[test]
    fn combine_preverified_matches_checked_combine() {
        let (pk, sks, d) = setup(7, 5);
        let shares: Vec<SignatureShare> = sks.iter().map(|s| s.sign(DOMAIN, &d)).collect();
        let checked = pk.combine(DOMAIN, &d, &shares[..5]).unwrap();
        let trusted = pk.combine_preverified(&shares[..5]).unwrap();
        assert_eq!(checked, trusted);
        // Duplicates are still filtered; too few distinct shares fail.
        let dup = vec![shares[0]; 10];
        assert_eq!(
            pk.combine_preverified(&dup),
            Err(CombineError::NotEnoughValidShares {
                valid: 1,
                needed: 5
            })
        );
        // A corrupt share slipping past the (absent) checks yields a
        // signature that fails verification — safety holds downstream.
        let mut bad = shares[..5].to_vec();
        bad[2] = SignatureShare::from_parts(3, GroupElement::generator());
        let sig = pk.combine_preverified(&bad).unwrap();
        assert!(!pk.verify(DOMAIN, &d, &sig));
    }

    #[test]
    fn mixed_batch_verifies_across_digests_and_schemes() {
        let (pk_a, sks_a) = generate_threshold_keys(5, 3, 11);
        let (pk_b, sks_b) = generate_threshold_keys(7, 4, 22);
        let d1 = sha256(b"block-1");
        let d2 = sha256(b"block-2");
        let mut items = Vec::new();
        let shares_a: Vec<SignatureShare> = sks_a.iter().map(|s| s.sign(b"sigma", &d1)).collect();
        let shares_b: Vec<SignatureShare> = sks_b.iter().map(|s| s.sign(b"pi", &d2)).collect();
        for share in &shares_a {
            items.push(ShareVerifyItem {
                key: &pk_a,
                domain: b"sigma",
                digest: d1,
                share: *share,
            });
        }
        for share in &shares_b {
            items.push(ShareVerifyItem {
                key: &pk_b,
                domain: b"pi",
                digest: d2,
                share: *share,
            });
        }
        assert!(batch_verify_share_items(&items, 7));
        assert!(batch_verify_share_items(&[], 7));
        // One corrupt share anywhere fails the whole batch.
        items[3].share = SignatureShare::from_parts(4, GroupElement::generator());
        assert!(!batch_verify_share_items(&items, 7));
        // Wrong domain for an otherwise-valid share also fails.
        items[3].share = shares_a[3];
        items[3].domain = b"tau";
        assert!(!batch_verify_share_items(&items, 7));
        // Out-of-range index is rejected outright.
        items[3].domain = b"sigma";
        items[3].share = SignatureShare::from_parts(99, *shares_a[3].value());
        assert!(!batch_verify_share_items(&items, 7));
    }

    #[test]
    fn batch_verify_accepts_valid_and_rejects_corrupt() {
        let (pk, sks, d) = setup(9, 5);
        let mut shares: Vec<SignatureShare> = sks.iter().map(|s| s.sign(DOMAIN, &d)).collect();
        assert!(pk.batch_verify_shares(DOMAIN, &d, &shares, 7));
        assert!(pk.batch_verify_shares(DOMAIN, &d, &[], 7));
        shares[4] = SignatureShare::from_parts(5, GroupElement::generator());
        assert!(!pk.batch_verify_shares(DOMAIN, &d, &shares, 7));
    }

    #[test]
    fn out_of_range_index_rejected() {
        let (pk, _, d) = setup(5, 3);
        let bogus = SignatureShare::from_parts(0, GroupElement::generator());
        assert!(!pk.verify_share(DOMAIN, &d, &bogus));
        let bogus = SignatureShare::from_parts(6, GroupElement::generator());
        assert!(!pk.verify_share(DOMAIN, &d, &bogus));
    }

    #[test]
    fn determinism_across_runs() {
        let (pk_a, sks_a) = generate_threshold_keys(4, 3, 1234);
        let (pk_b, sks_b) = generate_threshold_keys(4, 3, 1234);
        let d = sha256(b"m");
        assert_eq!(pk_a.public_key(), pk_b.public_key());
        assert_eq!(sks_a[0].sign(DOMAIN, &d), sks_b[0].sign(DOMAIN, &d));
        let (pk_c, _) = generate_threshold_keys(4, 3, 5678);
        assert_ne!(pk_a.public_key(), pk_c.public_key());
    }

    #[test]
    fn sbft_parameter_shapes() {
        // The paper's three schemes for f=2, c=1: n = 3f+2c+1 = 9,
        // σ: 3f+c+1 = 8, τ: 2f+c+1 = 6, π: f+1 = 3.
        let n = 9;
        let d = sha256(b"block");
        for (k, domain) in [(8usize, b"sigma".as_ref()), (6, b"tau"), (3, b"pi")] {
            let (pk, sks) = generate_threshold_keys(n, k, 99);
            let shares: Vec<SignatureShare> = sks[..k].iter().map(|s| s.sign(domain, &d)).collect();
            let sig = pk.combine(domain, &d, &shares).unwrap();
            assert!(pk.verify(domain, &d, &sig));
        }
    }

    #[test]
    fn prop_random_subsets_combine() {
        let mut rng = SplitMix64::new(0x41);
        for _ in 0..16 {
            let seed = rng.next_u64();
            let n = 3 + (rng.next_u64() as usize) % 9;
            let extra = (rng.next_u64() as usize) % 4;
            let k = (n / 2 + 1).min(n);
            let (pk, sks) = generate_threshold_keys(n, k, seed);
            let d = sha256(&seed.to_be_bytes());
            // Take k + extra shares starting at a rotating offset.
            let take = (k + extra).min(n);
            let offset = (seed as usize) % n;
            let shares: Vec<SignatureShare> = (0..take)
                .map(|i| sks[(offset + i) % n].sign(DOMAIN, &d))
                .collect();
            let sig = pk.combine(DOMAIN, &d, &shares).unwrap();
            assert!(pk.verify(DOMAIN, &d, &sig));
        }
    }
}
