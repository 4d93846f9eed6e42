//! Simulated PKI signatures for clients and replicas.
//!
//! The paper assumes "a PKI setup between clients and replicas for
//! authentication" (§III) and signs client requests with RSA-2048 (§VIII,
//! §IX). For the deterministic simulation we model a signature as an
//! HMAC-SHA256 over the message keyed by the key pair's seed; the *wire
//! size* is modeled as RSA-2048's 256 bytes, and CPU costs are charged via
//! [`crate::CryptoCostModel`]. Corruption and mismatch are detectable;
//! unforgeability against an adversary holding the verifying key is not
//! claimed (no protocol experiment here relies on it — Byzantine behaviours
//! are injected at the protocol layer, see the README "Substitutions"
//! section).

use std::fmt;

use sbft_types::Digest;

use crate::sha256::hmac_sha256;

/// Wire size of a simulated PKI signature (RSA-2048, §III).
pub const PKI_SIGNATURE_WIRE_BYTES: usize = 256;

/// A signing/verifying key pair for one principal.
#[derive(Clone, PartialEq, Eq)]
pub struct KeyPair {
    seed: [u8; 32],
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("KeyPair(..)")
    }
}

/// A detached signature over a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PkiSignature {
    mac: Digest,
}

impl PkiSignature {
    /// Raw digest bytes (for the wire codec).
    pub fn as_bytes(&self) -> &[u8; 32] {
        self.mac.as_bytes()
    }

    /// Rebuilds a signature from raw bytes (wire codec).
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        PkiSignature {
            mac: Digest::new(bytes),
        }
    }
}

impl KeyPair {
    /// Derives a key pair deterministically from a seed and a principal
    /// label (e.g. `b"client"`/`b"replica"` plus an index).
    pub fn derive(master_seed: u64, label: &[u8], index: u32) -> Self {
        let mut material = Vec::with_capacity(label.len() + 12);
        material.extend_from_slice(&master_seed.to_be_bytes());
        material.extend_from_slice(label);
        material.extend_from_slice(&index.to_be_bytes());
        let seed = *hmac_sha256(b"sbft-pki-derive", &material).as_bytes();
        KeyPair { seed }
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> PkiSignature {
        PkiSignature {
            mac: hmac_sha256(&self.seed, message),
        }
    }

    /// Verifies a signature over a message.
    pub fn verify(&self, message: &[u8], signature: &PkiSignature) -> bool {
        hmac_sha256(&self.seed, message) == signature.mac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let kp = KeyPair::derive(7, b"client", 3);
        let sig = kp.sign(b"request");
        assert!(kp.verify(b"request", &sig));
        assert!(!kp.verify(b"other", &sig));
    }

    #[test]
    fn different_principals_different_keys() {
        let a = KeyPair::derive(7, b"client", 3);
        let b = KeyPair::derive(7, b"client", 4);
        let c = KeyPair::derive(7, b"replica", 3);
        let sig = a.sign(b"m");
        assert!(!b.verify(b"m", &sig));
        assert!(!c.verify(b"m", &sig));
    }

    #[test]
    fn deterministic_derivation() {
        let a = KeyPair::derive(7, b"client", 3);
        let b = KeyPair::derive(7, b"client", 3);
        assert_eq!(a.sign(b"m"), b.sign(b"m"));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let kp = KeyPair::derive(1, b"x", 0);
        let sig = kp.sign(b"m");
        let rebuilt = PkiSignature::from_bytes(*sig.as_bytes());
        assert!(kp.verify(b"m", &rebuilt));
    }

    #[test]
    fn debug_hides_seed() {
        let kp = KeyPair::derive(1, b"x", 0);
        assert_eq!(format!("{kp:?}"), "KeyPair(..)");
    }
}
