//! [`Wire`] implementations for primitives, containers and crypto types.

use sbft_types::{ClientId, Digest, ReplicaId, SeqNum, ViewNum, U256};

use sbft_crypto::{
    GroupElement, MerkleProof, PkiSignature, ProofStep, Signature, SignatureShare,
    GROUP_ELEMENT_WIRE_BYTES, PKI_SIGNATURE_WIRE_BYTES,
};

use crate::codec::{Decoder, Encoder};
use crate::{DecodeError, Wire};

impl Wire for u8 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u8()
    }
    fn wire_len(&self) -> usize {
        1
    }
}

impl Wire for u16 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u16(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u16()
    }
    fn wire_len(&self) -> usize {
        2
    }
}

impl Wire for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u32()
    }
    fn wire_len(&self) -> usize {
        4
    }
}

impl Wire for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        dec.get_u64()
    }
    fn wire_len(&self) -> usize {
        8
    }
}

impl Wire for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(*self as u8);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::InvalidValue { what: "bool" }),
        }
    }
    fn wire_len(&self) -> usize {
        1
    }
}

impl Wire for Vec<u8> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(dec.get_bytes()?.to_vec())
    }
}

impl Wire for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self.as_bytes());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let bytes = dec.get_bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::InvalidValue { what: "utf-8" })
    }
}

/// Generic vectors encode as a varint count followed by the elements. The
/// `Vec<u8>` byte-blob case is covered by its own dedicated impl above, so
/// this impl is provided through a helper for other element types.
macro_rules! impl_wire_vec {
    ($($t:ty),* $(,)?) => {$(
        impl Wire for Vec<$t> {
            fn encode(&self, enc: &mut Encoder) {
                enc.put_varint(self.len() as u64);
                for item in self {
                    item.encode(enc);
                }
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                let len = dec.get_varint()? as usize;
                // Guard against absurd allocations from corrupt input.
                if len > dec.remaining() {
                    return Err(DecodeError::UnexpectedEof {
                        needed: len,
                        remaining: dec.remaining(),
                    });
                }
                let mut out = Vec::with_capacity(len);
                for _ in 0..len {
                    out.push(<$t>::decode(dec)?);
                }
                Ok(out)
            }
        }
    )*};
}

impl_wire_vec!(u16, u32, u64, Vec<u8>, Digest, SignatureShare, ProofStep,);

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(v) => {
                enc.put_u8(1);
                v.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            _ => Err(DecodeError::InvalidValue { what: "option tag" }),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, enc: &mut Encoder) {
        self.0.encode(enc);
        self.1.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(dec)?, B::decode(dec)?))
    }
}

impl Wire for Digest {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(self.as_bytes());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Digest::new(dec.get_array::<32>()?))
    }
    fn wire_len(&self) -> usize {
        32
    }
}

impl Wire for U256 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(&self.to_be_bytes());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(U256::from_be_bytes(dec.get_array::<32>()?))
    }
    fn wire_len(&self) -> usize {
        32
    }
}

impl Wire for ReplicaId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.get());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ReplicaId::new(dec.get_u32()?))
    }
    fn wire_len(&self) -> usize {
        4
    }
}

impl Wire for ClientId {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.get());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ClientId::new(dec.get_u32()?))
    }
    fn wire_len(&self) -> usize {
        4
    }
}

impl Wire for SeqNum {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.get());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(SeqNum::new(dec.get_u64()?))
    }
    fn wire_len(&self) -> usize {
        8
    }
}

impl Wire for ViewNum {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.get());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ViewNum::new(dec.get_u64()?))
    }
    fn wire_len(&self) -> usize {
        8
    }
}

impl Wire for GroupElement {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(&self.to_bytes());
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let bytes = dec.get_array::<GROUP_ELEMENT_WIRE_BYTES>()?;
        GroupElement::from_bytes(&bytes).ok_or(DecodeError::InvalidValue {
            what: "group element",
        })
    }
    fn wire_len(&self) -> usize {
        GROUP_ELEMENT_WIRE_BYTES
    }
}

impl Wire for Signature {
    fn encode(&self, enc: &mut Encoder) {
        self.value().encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Signature::from_element(GroupElement::decode(dec)?))
    }
    fn wire_len(&self) -> usize {
        GROUP_ELEMENT_WIRE_BYTES
    }
}

impl Wire for SignatureShare {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u16(self.index());
        self.value().encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let index = dec.get_u16()?;
        let value = GroupElement::decode(dec)?;
        Ok(SignatureShare::from_parts(index, value))
    }
    fn wire_len(&self) -> usize {
        2 + GROUP_ELEMENT_WIRE_BYTES
    }
}

impl Wire for ProofStep {
    fn encode(&self, enc: &mut Encoder) {
        self.sibling.encode(enc);
        self.sibling_is_right.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ProofStep {
            sibling: Digest::decode(dec)?,
            sibling_is_right: bool::decode(dec)?,
        })
    }
    fn wire_len(&self) -> usize {
        33
    }
}

impl Wire for MerkleProof {
    fn encode(&self, enc: &mut Encoder) {
        self.steps().to_vec().encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(MerkleProof::from_steps(Vec::<ProofStep>::decode(dec)?))
    }
}

/// A client/replica PKI signature as it appears on the wire.
///
/// The simulated signature is a 32-byte MAC ([`PkiSignature`]), but the
/// modeled wire size is RSA-2048's 256 bytes (§III), so the encoding pads
/// to [`PKI_SIGNATURE_WIRE_BYTES`]. This keeps the byte accounting that
/// drives the network model faithful to the paper's deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientSignature(pub PkiSignature);

impl Wire for ClientSignature {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(self.0.as_bytes());
        enc.put_raw(&[0u8; PKI_SIGNATURE_WIRE_BYTES - 32]);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let mac = dec.get_array::<32>()?;
        let _pad = dec.get_raw(PKI_SIGNATURE_WIRE_BYTES - 32)?;
        Ok(ClientSignature(PkiSignature::from_bytes(mac)))
    }
    fn wire_len(&self) -> usize {
        PKI_SIGNATURE_WIRE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_crypto::{generate_threshold_keys, sha256, KeyPair, MerkleTree, Scalar, SplitMix64};

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = value.to_wire_bytes();
        assert_eq!(bytes.len(), value.wire_len(), "wire_len mismatch");
        // Encoding behind existing bytes appends exactly the same bytes.
        let mut framed = vec![0xee; 4];
        assert_eq!(value.encode_into(&mut framed), bytes.len());
        assert_eq!((&framed[..4], &framed[4..]), (&[0xee; 4][..], &bytes[..]));
        let decoded = T::from_wire_bytes(&bytes).expect("decode");
        assert_eq!(&decoded, value);
    }

    #[test]
    fn primitives() {
        round_trip(&0xffu8);
        round_trip(&0x1234u16);
        round_trip(&0xdeadbeefu32);
        round_trip(&u64::MAX);
        round_trip(&true);
        round_trip(&false);
        round_trip(&b"payload".to_vec());
        round_trip(&"string".to_owned());
        round_trip(&Some(7u64));
        round_trip(&Option::<u64>::None);
        round_trip(&(42u64, b"xy".to_vec()));
    }

    #[test]
    fn ids_and_digests() {
        round_trip(&ReplicaId::new(7));
        round_trip(&ClientId::new(9));
        round_trip(&SeqNum::new(1 << 40));
        round_trip(&ViewNum::new(3));
        round_trip(&Digest::new([0xaa; 32]));
        round_trip(&U256::from(12345u64));
    }

    #[test]
    fn crypto_types() {
        let (pk, sks) = generate_threshold_keys(4, 3, 7);
        let d = sha256(b"m");
        let share = sks[0].sign(b"sigma", &d);
        round_trip(&share);
        let shares: Vec<SignatureShare> = sks[..3].iter().map(|s| s.sign(b"sigma", &d)).collect();
        round_trip(&shares);
        let sig = pk.combine(b"sigma", &d, &shares).unwrap();
        round_trip(&sig);
        // Decoded signature still verifies.
        let decoded = Signature::from_wire_bytes(&sig.to_wire_bytes()).unwrap();
        assert!(pk.verify(b"sigma", &d, &decoded));
        round_trip(&GroupElement::generator().mul(&Scalar::from_u64(99)));
    }

    #[test]
    fn merkle_proof_round_trip_and_verifies() {
        let tree = MerkleTree::from_leaves((0..9).map(|i| vec![i as u8]));
        let proof = tree.proof(4).unwrap();
        round_trip(&proof);
        let decoded = MerkleProof::from_wire_bytes(&proof.to_wire_bytes()).unwrap();
        assert!(decoded.verify(&tree.root(), &[4u8]));
    }

    #[test]
    fn client_signature_models_rsa_size() {
        let kp = KeyPair::derive(1, b"client", 0);
        let sig = ClientSignature(kp.sign(b"request"));
        assert_eq!(sig.wire_len(), PKI_SIGNATURE_WIRE_BYTES);
        round_trip(&sig);
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = 7u64.to_wire_bytes();
        bytes.push(0);
        assert_eq!(
            u64::from_wire_bytes(&bytes),
            Err(DecodeError::TrailingBytes { count: 1 })
        );
    }

    #[test]
    fn rejects_bad_bool_and_option_tags() {
        assert_eq!(
            bool::from_wire_bytes(&[2]),
            Err(DecodeError::InvalidValue { what: "bool" })
        );
        assert_eq!(
            Option::<u8>::from_wire_bytes(&[9]),
            Err(DecodeError::InvalidValue { what: "option tag" })
        );
    }

    #[test]
    fn rejects_absurd_vec_length() {
        // Varint says 2^40 elements follow: must error, not allocate.
        let mut enc = Encoder::new();
        enc.put_varint(1 << 40);
        let bytes = enc.into_bytes();
        assert!(matches!(
            Vec::<u64>::from_wire_bytes(&bytes),
            Err(DecodeError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn rejects_bad_utf8() {
        let mut enc = Encoder::new();
        enc.put_bytes(&[0xff, 0xfe]);
        let bytes = enc.into_bytes();
        assert_eq!(
            String::from_wire_bytes(&bytes),
            Err(DecodeError::InvalidValue { what: "utf-8" })
        );
    }

    fn random_bytes(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
        let len = (rng.next_u64() as usize) % max_len;
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn prop_bytes_round_trip() {
        let mut rng = SplitMix64::new(0x61);
        for _ in 0..256 {
            round_trip(&random_bytes(&mut rng, 512));
        }
    }

    #[test]
    fn prop_nested_round_trip() {
        let mut rng = SplitMix64::new(0x62);
        for _ in 0..256 {
            let count = (rng.next_u64() as usize) % 16;
            let items: Vec<Vec<u8>> = (0..count).map(|_| random_bytes(&mut rng, 32)).collect();
            round_trip(&items);
        }
    }

    #[test]
    fn prop_random_input_never_panics() {
        let mut rng = SplitMix64::new(0x63);
        for _ in 0..256 {
            // Decoding arbitrary bytes may fail but must not panic.
            let data = random_bytes(&mut rng, 64);
            let _ = Vec::<Digest>::from_wire_bytes(&data);
            let _ = SignatureShare::from_wire_bytes(&data);
            let _ = MerkleProof::from_wire_bytes(&data);
            let _ = String::from_wire_bytes(&data);
        }
    }
}
