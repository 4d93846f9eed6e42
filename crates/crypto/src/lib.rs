//! Cryptographic substrate for the SBFT reproduction.
//!
//! Implements, from scratch, everything §III ("Modern cryptography") and
//! §IV ("Service properties") of the paper require:
//!
//! - [`Sha256`] / [`sha256`]: FIPS 180-4 SHA-256 and HMAC-SHA256.
//! - [`Scalar`]: BN254 scalar-field arithmetic (Montgomery form).
//! - [`Polynomial`] + Lagrange interpolation: Shamir secret sharing.
//! - [`GroupElement`] + [`pairing_check`]: a simulated pairing group whose
//!   algebra matches BLS exactly (see the README "Substitutions" section).
//! - [`generate_threshold_keys`] / [`ThresholdPublicKey`]: robust threshold
//!   signatures with the paper's σ/τ/π thresholds, `n`-of-`n` multisig fast
//!   mode and batch verification.
//! - [`MerkleTree`] / [`MerkleProof`]: data authentication for the
//!   key-value store and single-message client acknowledgements.
//! - [`CryptoCostModel`]: simulated CPU costs of the above, calibrated to
//!   the paper's hardware.
//! - [`KeyPair`]: simulated PKI (RSA-2048-sized) signatures for clients.
//!
//! # Examples
//!
//! A 2-of-3 threshold signature:
//!
//! ```
//! use sbft_crypto::{generate_threshold_keys, sha256};
//!
//! let (public, shares) = generate_threshold_keys(3, 2, 42);
//! let digest = sha256(b"decision block");
//! let s1 = shares[0].sign(b"sigma", &digest);
//! let s3 = shares[2].sign(b"sigma", &digest);
//! let signature = public.combine(b"sigma", &digest, &[s1, s3])?;
//! assert!(public.verify(b"sigma", &digest, &signature));
//! # Ok::<(), sbft_crypto::CombineError>(())
//! ```

mod cost;
mod field;
mod group;
mod keys;
mod merkle;
mod poly;
mod rng;
mod sha256;
mod threshold;

pub use cost::CryptoCostModel;
pub use field::{batch_invert, modulus, Scalar, MODULUS_LIMBS};
pub use group::{
    hash_to_group, pairing_check, pairing_check_with_generator, GroupElement, PairingAccumulator,
    GROUP_ELEMENT_WIRE_BYTES,
};
pub use keys::{KeyPair, PkiSignature, PKI_SIGNATURE_WIRE_BYTES};
pub use merkle::{leaf_hash, node_hash, MerkleProof, MerkleTree, ProofStep};
pub use poly::{interpolate_at_zero, lagrange_coefficients_at_zero, Polynomial};
pub use rng::SplitMix64;
pub use sha256::{hmac_sha256, sha256, sha256_concat, Sha256};
pub use threshold::{
    batch_verify_share_items, generate_threshold_keys, CombineError, SecretKeyShare,
    ShareVerifyItem, Signature, SignatureShare, ThresholdPublicKey,
};
