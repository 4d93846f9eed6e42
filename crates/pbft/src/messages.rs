//! PBFT baseline messages.
//!
//! The "scale optimized PBFT" of §IX: public-key signed server messages
//! (following the paper's reference \[31\]), batching, and the classic
//! all-to-all prepare/commit pattern whose quadratic cost SBFT's
//! collectors remove.

use sbft_types::{ClientId, Digest, ReplicaId, SeqNum, ViewNum};

use sbft_crypto::{sha256_concat, KeyPair, Sha256};
use sbft_sim::SimMessage;
use sbft_statedb::RawOp;
use sbft_wire::{ClientSignature, DecodeError, Decoder, Encoder, Wire};

/// A signed client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PbftRequest {
    /// Issuing client.
    pub client: ClientId,
    /// Monotone per-client timestamp.
    pub timestamp: u64,
    /// The service operation.
    pub op: RawOp,
    /// RSA-2048-modeled client signature.
    pub signature: ClientSignature,
}

impl PbftRequest {
    fn payload(client: ClientId, timestamp: u64, op: &[u8]) -> Vec<u8> {
        let mut p = Vec::with_capacity(op.len() + 12);
        p.extend_from_slice(&client.get().to_le_bytes());
        p.extend_from_slice(&timestamp.to_le_bytes());
        p.extend_from_slice(op);
        p
    }

    /// Creates and signs a request.
    pub fn signed(client: ClientId, timestamp: u64, op: RawOp, keys: &KeyPair) -> Self {
        let signature = ClientSignature(keys.sign(&Self::payload(client, timestamp, &op)));
        PbftRequest {
            client,
            timestamp,
            op,
            signature,
        }
    }

    /// Verifies the signature.
    pub fn verify(&self, keys: &KeyPair) -> bool {
        keys.verify(
            &Self::payload(self.client, self.timestamp, &self.op),
            &self.signature.0,
        )
    }
}

impl Wire for PbftRequest {
    fn encode(&self, enc: &mut Encoder) {
        self.client.encode(enc);
        enc.put_u64(self.timestamp);
        enc.put_bytes(&self.op);
        self.signature.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(PbftRequest {
            client: ClientId::decode(dec)?,
            timestamp: dec.get_u64()?,
            op: dec.get_bytes()?.to_vec(),
            signature: ClientSignature::decode(dec)?,
        })
    }
}

/// The block hash `h = H(s||v||r)`.
pub fn pbft_block_digest(seq: SeqNum, view: ViewNum, requests: &[PbftRequest]) -> Digest {
    let mut h = Sha256::new();
    h.update(b"pbft-h|");
    h.update(&seq.get().to_le_bytes());
    h.update(&view.get().to_le_bytes());
    let mut enc = Encoder::new();
    for r in requests {
        r.encode(&mut enc);
    }
    h.update(&enc.into_bytes());
    h.finalize()
}

/// Payload a replica signs in prepare/commit/checkpoint messages.
pub fn vote_payload(
    tag: &[u8],
    seq: SeqNum,
    view: ViewNum,
    h: &Digest,
    replica: ReplicaId,
) -> Digest {
    sha256_concat(&[
        tag,
        &seq.get().to_le_bytes(),
        &view.get().to_le_bytes(),
        h.as_bytes(),
        &replica.get().to_le_bytes(),
    ])
}

fn encode_requests(enc: &mut Encoder, requests: &[PbftRequest]) {
    enc.put_varint(requests.len() as u64);
    for r in requests {
        r.encode(enc);
    }
}

fn decode_requests(dec: &mut Decoder<'_>) -> Result<Vec<PbftRequest>, DecodeError> {
    let count = dec.get_varint()? as usize;
    if count > dec.remaining() {
        return Err(DecodeError::UnexpectedEof {
            needed: count,
            remaining: dec.remaining(),
        });
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(PbftRequest::decode(dec)?);
    }
    Ok(out)
}

/// Proof that a block prepared: `2f` prepare signatures plus the block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedProof {
    /// The slot.
    pub seq: SeqNum,
    /// View of the pre-prepare.
    pub view: ViewNum,
    /// The block.
    pub requests: Vec<PbftRequest>,
    /// `(replica, signature)` prepare votes.
    pub votes: Vec<(ReplicaId, ClientSignature)>,
}

impl Wire for PreparedProof {
    fn encode(&self, enc: &mut Encoder) {
        self.seq.encode(enc);
        self.view.encode(enc);
        encode_requests(enc, &self.requests);
        enc.put_varint(self.votes.len() as u64);
        for (r, s) in &self.votes {
            r.encode(enc);
            s.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let seq = SeqNum::decode(dec)?;
        let view = ViewNum::decode(dec)?;
        let requests = decode_requests(dec)?;
        let count = dec.get_varint()? as usize;
        if count > dec.remaining() {
            return Err(DecodeError::UnexpectedEof {
                needed: count,
                remaining: dec.remaining(),
            });
        }
        let mut votes = Vec::with_capacity(count);
        for _ in 0..count {
            votes.push((ReplicaId::decode(dec)?, ClientSignature::decode(dec)?));
        }
        Ok(PreparedProof {
            seq,
            view,
            requests,
            votes,
        })
    }
}

/// A PBFT view-change message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PbftViewChange {
    /// Sender.
    pub from: ReplicaId,
    /// The view being proposed.
    pub new_view: ViewNum,
    /// Sender's stable checkpoint.
    pub last_stable: SeqNum,
    /// Prepared proofs for slots above the checkpoint.
    pub prepared: Vec<PreparedProof>,
}

impl Wire for PbftViewChange {
    fn encode(&self, enc: &mut Encoder) {
        self.from.encode(enc);
        self.new_view.encode(enc);
        self.last_stable.encode(enc);
        enc.put_varint(self.prepared.len() as u64);
        for p in &self.prepared {
            p.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let from = ReplicaId::decode(dec)?;
        let new_view = ViewNum::decode(dec)?;
        let last_stable = SeqNum::decode(dec)?;
        let count = dec.get_varint()? as usize;
        if count > dec.remaining() {
            return Err(DecodeError::UnexpectedEof {
                needed: count,
                remaining: dec.remaining(),
            });
        }
        let mut prepared = Vec::with_capacity(count);
        for _ in 0..count {
            prepared.push(PreparedProof::decode(dec)?);
        }
        Ok(PbftViewChange {
            from,
            new_view,
            last_stable,
            prepared,
        })
    }
}

/// PBFT protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PbftMsg {
    /// Client → primary.
    Request(PbftRequest),
    /// Primary → replicas.
    PrePrepare {
        /// Sequence number.
        seq: SeqNum,
        /// View.
        view: ViewNum,
        /// The batch.
        requests: Vec<PbftRequest>,
    },
    /// Replica → all replicas (the first all-to-all phase).
    Prepare {
        /// Sequence number.
        seq: SeqNum,
        /// View.
        view: ViewNum,
        /// Block hash.
        h: Digest,
        /// Voter.
        replica: ReplicaId,
        /// Signature over the vote.
        signature: ClientSignature,
    },
    /// Replica → all replicas (the second all-to-all phase).
    Commit {
        /// Sequence number.
        seq: SeqNum,
        /// View.
        view: ViewNum,
        /// Block hash.
        h: Digest,
        /// Voter.
        replica: ReplicaId,
        /// Signature over the vote.
        signature: ClientSignature,
    },
    /// Replica → client (clients wait for `f+1` matching).
    Reply {
        /// Block sequence.
        seq: SeqNum,
        /// Replying replica.
        replica: ReplicaId,
        /// The client.
        client: ClientId,
        /// Request timestamp echo.
        timestamp: u64,
        /// Operation output.
        result: Vec<u8>,
        /// Replica signature.
        signature: ClientSignature,
    },
    /// Periodic checkpoint vote (the quadratic checkpoint protocol §V-F
    /// contrasts with).
    Checkpoint {
        /// Checkpointed sequence.
        seq: SeqNum,
        /// State digest at `seq`.
        digest: Digest,
        /// Voter.
        replica: ReplicaId,
        /// Signature.
        signature: ClientSignature,
    },
    /// View change.
    ViewChange(PbftViewChange),
    /// New view: the quorum plus re-issued pre-prepares.
    NewView {
        /// The view being installed.
        view: ViewNum,
        /// Supporting view-change messages.
        view_changes: Vec<PbftViewChange>,
        /// Re-issued blocks `(seq, requests)`.
        pre_prepares: Vec<(SeqNum, Vec<PbftRequest>)>,
    },
}

impl Wire for PbftMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            PbftMsg::Request(r) => {
                enc.put_u8(0);
                r.encode(enc);
            }
            PbftMsg::PrePrepare {
                seq,
                view,
                requests,
            } => {
                enc.put_u8(1);
                seq.encode(enc);
                view.encode(enc);
                encode_requests(enc, requests);
            }
            PbftMsg::Prepare {
                seq,
                view,
                h,
                replica,
                signature,
            } => {
                enc.put_u8(2);
                seq.encode(enc);
                view.encode(enc);
                h.encode(enc);
                replica.encode(enc);
                signature.encode(enc);
            }
            PbftMsg::Commit {
                seq,
                view,
                h,
                replica,
                signature,
            } => {
                enc.put_u8(3);
                seq.encode(enc);
                view.encode(enc);
                h.encode(enc);
                replica.encode(enc);
                signature.encode(enc);
            }
            PbftMsg::Reply {
                seq,
                replica,
                client,
                timestamp,
                result,
                signature,
            } => {
                enc.put_u8(4);
                seq.encode(enc);
                replica.encode(enc);
                client.encode(enc);
                enc.put_u64(*timestamp);
                enc.put_bytes(result);
                signature.encode(enc);
            }
            PbftMsg::Checkpoint {
                seq,
                digest,
                replica,
                signature,
            } => {
                enc.put_u8(5);
                seq.encode(enc);
                digest.encode(enc);
                replica.encode(enc);
                signature.encode(enc);
            }
            PbftMsg::ViewChange(vc) => {
                enc.put_u8(6);
                vc.encode(enc);
            }
            PbftMsg::NewView {
                view,
                view_changes,
                pre_prepares,
            } => {
                enc.put_u8(7);
                view.encode(enc);
                enc.put_varint(view_changes.len() as u64);
                for vc in view_changes {
                    vc.encode(enc);
                }
                enc.put_varint(pre_prepares.len() as u64);
                for (seq, requests) in pre_prepares {
                    seq.encode(enc);
                    encode_requests(enc, requests);
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(PbftMsg::Request(PbftRequest::decode(dec)?)),
            1 => Ok(PbftMsg::PrePrepare {
                seq: SeqNum::decode(dec)?,
                view: ViewNum::decode(dec)?,
                requests: decode_requests(dec)?,
            }),
            2 => Ok(PbftMsg::Prepare {
                seq: SeqNum::decode(dec)?,
                view: ViewNum::decode(dec)?,
                h: Digest::decode(dec)?,
                replica: ReplicaId::decode(dec)?,
                signature: ClientSignature::decode(dec)?,
            }),
            3 => Ok(PbftMsg::Commit {
                seq: SeqNum::decode(dec)?,
                view: ViewNum::decode(dec)?,
                h: Digest::decode(dec)?,
                replica: ReplicaId::decode(dec)?,
                signature: ClientSignature::decode(dec)?,
            }),
            4 => Ok(PbftMsg::Reply {
                seq: SeqNum::decode(dec)?,
                replica: ReplicaId::decode(dec)?,
                client: ClientId::decode(dec)?,
                timestamp: dec.get_u64()?,
                result: dec.get_bytes()?.to_vec(),
                signature: ClientSignature::decode(dec)?,
            }),
            5 => Ok(PbftMsg::Checkpoint {
                seq: SeqNum::decode(dec)?,
                digest: Digest::decode(dec)?,
                replica: ReplicaId::decode(dec)?,
                signature: ClientSignature::decode(dec)?,
            }),
            6 => Ok(PbftMsg::ViewChange(PbftViewChange::decode(dec)?)),
            7 => {
                let view = ViewNum::decode(dec)?;
                let vc_count = dec.get_varint()? as usize;
                if vc_count > dec.remaining() {
                    return Err(DecodeError::UnexpectedEof {
                        needed: vc_count,
                        remaining: dec.remaining(),
                    });
                }
                let mut view_changes = Vec::with_capacity(vc_count);
                for _ in 0..vc_count {
                    view_changes.push(PbftViewChange::decode(dec)?);
                }
                let pp_count = dec.get_varint()? as usize;
                if pp_count > dec.remaining() {
                    return Err(DecodeError::UnexpectedEof {
                        needed: pp_count,
                        remaining: dec.remaining(),
                    });
                }
                let mut pre_prepares = Vec::with_capacity(pp_count);
                for _ in 0..pp_count {
                    let seq = SeqNum::decode(dec)?;
                    pre_prepares.push((seq, decode_requests(dec)?));
                }
                Ok(PbftMsg::NewView {
                    view,
                    view_changes,
                    pre_prepares,
                })
            }
            _ => Err(DecodeError::InvalidValue {
                what: "PbftMsg tag",
            }),
        }
    }
}

impl SimMessage for PbftMsg {
    fn wire_size(&self) -> usize {
        self.wire_len()
    }

    fn label(&self) -> &'static str {
        match self {
            PbftMsg::Request(_) => "request",
            PbftMsg::PrePrepare { .. } => "pre-prepare",
            PbftMsg::Prepare { .. } => "prepare",
            PbftMsg::Commit { .. } => "commit",
            PbftMsg::Reply { .. } => "reply",
            PbftMsg::Checkpoint { .. } => "checkpoint",
            PbftMsg::ViewChange(_) => "view-change",
            PbftMsg::NewView { .. } => "new-view",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(ts: u64) -> PbftRequest {
        let kp = KeyPair::derive(1, b"client", 3);
        PbftRequest::signed(ClientId::new(3), ts, vec![1, 2], &kp)
    }

    #[test]
    fn request_verification() {
        let kp = KeyPair::derive(1, b"client", 3);
        let req = request(5);
        assert!(req.verify(&kp));
        let other = KeyPair::derive(1, b"client", 4);
        assert!(!req.verify(&other));
    }

    #[test]
    fn messages_round_trip() {
        let req = request(1);
        let sig = req.signature;
        let vc = PbftViewChange {
            from: ReplicaId::new(1),
            new_view: ViewNum::new(2),
            last_stable: SeqNum::new(3),
            prepared: vec![PreparedProof {
                seq: SeqNum::new(4),
                view: ViewNum::new(1),
                requests: vec![req.clone()],
                votes: vec![(ReplicaId::new(0), sig)],
            }],
        };
        let msgs = vec![
            PbftMsg::Request(req.clone()),
            PbftMsg::PrePrepare {
                seq: SeqNum::new(1),
                view: ViewNum::new(0),
                requests: vec![req.clone()],
            },
            PbftMsg::Prepare {
                seq: SeqNum::new(1),
                view: ViewNum::new(0),
                h: Digest::new([7; 32]),
                replica: ReplicaId::new(2),
                signature: sig,
            },
            PbftMsg::Commit {
                seq: SeqNum::new(1),
                view: ViewNum::new(0),
                h: Digest::new([7; 32]),
                replica: ReplicaId::new(2),
                signature: sig,
            },
            PbftMsg::Reply {
                seq: SeqNum::new(1),
                replica: ReplicaId::new(2),
                client: ClientId::new(3),
                timestamp: 1,
                result: vec![9],
                signature: sig,
            },
            PbftMsg::Checkpoint {
                seq: SeqNum::new(8),
                digest: Digest::new([1; 32]),
                replica: ReplicaId::new(2),
                signature: sig,
            },
            PbftMsg::ViewChange(vc.clone()),
            PbftMsg::NewView {
                view: ViewNum::new(2),
                view_changes: vec![vc],
                pre_prepares: vec![(SeqNum::new(4), vec![req])],
            },
        ];
        for m in &msgs {
            let bytes = m.to_wire_bytes();
            assert_eq!(bytes.len(), m.wire_size());
            assert_eq!(&PbftMsg::from_wire_bytes(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn prepare_carries_full_signature_size() {
        // The quadratic phases carry a full public-key signature each —
        // the per-message cost SBFT's threshold shares replace.
        let m = PbftMsg::Prepare {
            seq: SeqNum::new(1),
            view: ViewNum::new(0),
            h: Digest::new([7; 32]),
            replica: ReplicaId::new(2),
            signature: request(1).signature,
        };
        assert!(m.wire_size() > 256);
    }

    #[test]
    fn digest_binds_all_parts() {
        let reqs = vec![request(1)];
        let h = pbft_block_digest(SeqNum::new(1), ViewNum::new(0), &reqs);
        assert_ne!(h, pbft_block_digest(SeqNum::new(2), ViewNum::new(0), &reqs));
        assert_ne!(h, pbft_block_digest(SeqNum::new(1), ViewNum::new(1), &reqs));
        assert_ne!(
            h,
            pbft_block_digest(SeqNum::new(1), ViewNum::new(0), &[request(2)])
        );
    }

    #[test]
    fn vote_payload_distinguishes_phases() {
        let h = Digest::new([1; 32]);
        let a = vote_payload(
            b"prep",
            SeqNum::new(1),
            ViewNum::new(0),
            &h,
            ReplicaId::new(1),
        );
        let b = vote_payload(
            b"comm",
            SeqNum::new(1),
            ViewNum::new(0),
            &h,
            ReplicaId::new(1),
        );
        assert_ne!(a, b);
    }
}
