//! The replica's trust boundary: stateless verification of inbound SBFT
//! messages.
//!
//! SBFT's expensive per-message work splits cleanly in two (§III, §VIII):
//! checks that bind only data the message itself carries — client PKI
//! signatures, π shares and proofs over a carried state digest,
//! self-contained view-change evidence, block fills with their commit
//! certificates, heartbeats — and checks that need replica state (a σ/τ
//! signature over a block digest only the log knows). [`SbftPreVerifier`]
//! performs the first kind and is the replica's only copy of it: a
//! [`crate::replica::ReplicaNode`] hands its verifier to every driver
//! (`sbft_sim::Node::inbound_verifier`), the simulator runs it before
//! each delivery from another node, and the TCP runtime runs it on the
//! node thread or on a pool of worker threads. The node keeps the second
//! kind.
//!
//! Signature shares across a whole drained batch are checked with one
//! random-linear-combination multi-pairing
//! ([`sbft_crypto::batch_verify_share_items`]); on a batch failure the
//! verifier falls back to per-item checks so one bad share from a
//! Byzantine peer cannot veto its honest neighbours.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sbft_crypto::{batch_verify_share_items, ShareVerifyItem};
use sbft_sim::{InboundVerifier, NodeId};
use sbft_statedb::combine_state_digest;
use sbft_types::{Digest, SeqNum, ViewNum};
use sbft_wire::Wire;

use crate::keys::{PublicKeys, DOMAIN_HEARTBEAT, DOMAIN_PI, DOMAIN_SIGMA, DOMAIN_TAU};
use crate::messages::{
    block_digest, commit2_digest, heartbeat_digest, ClientRequest, CommitCert, SbftMsg,
};
use crate::viewchange::validate_view_change;

/// Which threshold scheme a recorded share belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShareKind {
    /// Fast-path σ share over the block digest `h`.
    Sigma,
    /// Linear-path τ share over `h`.
    Tau,
    /// Second-round τ share over the commit2 digest `d2`.
    Commit2,
}

type ShareKey = (u64, u64, u16, ShareKind);

#[derive(Default)]
struct ShareMapInner {
    /// `(seq, view)` → block digest `h`, published by the node when a
    /// slot accepts a pre-prepare (or adopts a new-view plan).
    digests: HashMap<(u64, u64), Digest>,
    /// Shares a worker (or the node itself, for its own shares) has
    /// already pairing-checked against the published digest.
    preverified: HashSet<ShareKey>,
}

/// The slot-digest map published through the pre-verifier seam (§III's
/// "verify shares in parallel" applied to σ/τ): the node records each
/// slot's block digest once it is known, verify-pool workers check
/// incoming σ/τ/commit2 shares against it and mark the valid ones, and
/// the node skips the combine-time batch pairing when every share it is
/// about to combine was pre-verified. Shares arriving before the digest
/// is known simply pass through unrecorded — the node's combine falls
/// back to the full check, so the map is only ever an optimization.
#[derive(Default)]
pub struct ShareVerifyMap {
    inner: Mutex<ShareMapInner>,
}

impl ShareVerifyMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        ShareVerifyMap::default()
    }

    /// Publishes the block digest of slot `(seq, view)`. Called by the
    /// node; idempotent (pre-prepare retransmissions).
    pub fn publish_digest(&self, seq: SeqNum, view: ViewNum, h: Digest) {
        let mut inner = self.inner.lock().expect("share map poisoned");
        inner.digests.insert((seq.get(), view.get()), h);
    }

    /// The published digest of slot `(seq, view)`, if the node has
    /// learned it.
    pub fn digest(&self, seq: SeqNum, view: ViewNum) -> Option<Digest> {
        let inner = self.inner.lock().expect("share map poisoned");
        inner.digests.get(&(seq.get(), view.get())).copied()
    }

    /// Records that `share_index`'s share of `kind` for slot `(seq,
    /// view)` passed verification.
    pub fn record(&self, seq: SeqNum, view: ViewNum, share_index: u16, kind: ShareKind) {
        let mut inner = self.inner.lock().expect("share map poisoned");
        inner
            .preverified
            .insert((seq.get(), view.get(), share_index, kind));
    }

    /// `true` iff every `(share_index, kind)` pair in `shares` has been
    /// recorded for slot `(seq, view)`.
    pub fn all_preverified<'a>(
        &self,
        seq: SeqNum,
        view: ViewNum,
        kind: ShareKind,
        shares: impl IntoIterator<Item = &'a u16>,
    ) -> bool {
        let inner = self.inner.lock().expect("share map poisoned");
        shares.into_iter().all(|&index| {
            inner
                .preverified
                .contains(&(seq.get(), view.get(), index, kind))
        })
    }

    /// Drops every entry for sequence numbers `<= stable` (checkpoint
    /// garbage collection — those slots can no longer combine).
    pub fn gc_below(&self, stable: SeqNum) {
        let mut inner = self.inner.lock().expect("share map poisoned");
        inner.digests.retain(|&(seq, _), _| seq > stable.get());
        inner
            .preverified
            .retain(|&(seq, _, _, _)| seq > stable.get());
    }

    /// Drops every entry for views `< view` (view install — old-view
    /// shares can no longer combine; slots re-signed in the new view get
    /// fresh digests published).
    pub fn retain_views_from(&self, view: ViewNum) {
        let mut inner = self.inner.lock().expect("share map poisoned");
        inner.digests.retain(|&(_, v), _| v >= view.get());
        inner.preverified.retain(|&(_, v, _, _)| v >= view.get());
    }

    /// Entry counts (digests, preverified) — growth-bound tests.
    pub fn len(&self) -> (usize, usize) {
        let inner = self.inner.lock().expect("share map poisoned");
        (inner.digests.len(), inner.preverified.len())
    }

    /// `true` when the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == (0, 0)
    }
}

/// Decoder + stateless verifier for [`SbftMsg`]: a replica's inbound
/// trust boundary, shared by every worker of a `sbft_transport::VerifyPool`.
pub struct SbftPreVerifier {
    public: Arc<PublicKeys>,
    /// Monotone batch counter mixed into the RLC seed derivation (keeps
    /// two identical batches from reusing one combination).
    rlc_counter: AtomicU64,
    /// When present, σ/τ/commit2 shares whose slot digest is already
    /// published are verified here on the worker and marked, so the node
    /// can combine without re-checking.
    shares: Option<Arc<ShareVerifyMap>>,
}

impl SbftPreVerifier {
    /// Builds a verifier over the cluster's public key material.
    pub fn new(public: Arc<PublicKeys>) -> Self {
        SbftPreVerifier {
            public,
            rlc_counter: AtomicU64::new(1),
            shares: None,
        }
    }

    /// Attaches the slot-digest map shared with the node, enabling σ/τ
    /// share pre-verification on the workers.
    pub fn with_shares(mut self, shares: Arc<ShareVerifyMap>) -> Self {
        self.shares = Some(shares);
        self
    }

    /// Fiat–Shamir seed for one batch's random linear combination: a
    /// hash over the batch's own shares (plus a monotone counter), so
    /// the γᵢ depend on every share in the batch — an attacker cannot
    /// pick forged shares that cancel under coefficients that are
    /// themselves a function of those shares. (A predictable counter
    /// alone would let crafted share pairs cancel and slip through.)
    fn rlc_seed(&self, items: &[(usize, ShareVerifyItem<'_>)]) -> u64 {
        let mut hasher = sbft_crypto::Sha256::new();
        hasher.update(b"sbft-rlc-seed|");
        hasher.update(
            &self
                .rlc_counter
                .fetch_add(1, Ordering::Relaxed)
                .to_le_bytes(),
        );
        for (_, item) in items {
            hasher.update(item.domain);
            hasher.update(item.digest.as_bytes());
            hasher.update(&item.share.index().to_le_bytes());
            hasher.update(&item.share.value().to_bytes());
        }
        u64::from_le_bytes(
            hasher.finalize().as_bytes()[..8]
                .try_into()
                .expect("digest has 8+ bytes"),
        )
    }

    fn verify_request(&self, request: &ClientRequest) -> bool {
        request.verify(&self.public.client_keys(request.client))
    }

    /// The per-message check, with share-bearing messages optionally
    /// deferred into `shares` for batched verification (`None` means
    /// verify inline).
    fn verify_one<'a>(
        &'a self,
        msg: &'a SbftMsg,
        mut shares: Option<&mut Vec<(usize, ShareVerifyItem<'a>)>>,
        index: usize,
    ) -> bool {
        let public = &self.public;
        match msg {
            SbftMsg::Request(request) => self.verify_request(request),
            SbftMsg::PrePrepare { requests, .. } => requests.iter().all(|r| self.verify_request(r)),
            SbftMsg::SignState { digest, share, .. } => match shares.as_deref_mut() {
                Some(deferred) => {
                    deferred.push((
                        index,
                        ShareVerifyItem {
                            key: &public.pi,
                            domain: DOMAIN_PI,
                            digest: *digest,
                            share: *share,
                        },
                    ));
                    true
                }
                None => public.pi.verify_share(DOMAIN_PI, digest, share),
            },
            SbftMsg::FullExecuteProof { digest, pi, .. } => {
                public.pi.verify_either(DOMAIN_PI, digest, pi)
            }
            // Client-bound; replicas ignore acks, and clients check
            // their own — checked anyway so the verifier stays total
            // over the message type.
            SbftMsg::ExecuteAck { digest, pi, .. } => {
                public.pi.verify_either(DOMAIN_PI, digest, pi)
            }
            SbftMsg::StateChunkMsg {
                chunk,
                state_root,
                results_root,
                pi,
            } => {
                let digest = combine_state_digest(chunk.seq, state_root, results_root);
                public.pi.verify_either(DOMAIN_PI, &digest, pi)
            }
            SbftMsg::BlockFill {
                seq,
                view,
                requests,
                cert,
            } => {
                let h = block_digest(*seq, *view, requests);
                match cert {
                    CommitCert::Fast(sigma) => public.sigma.verify_either(DOMAIN_SIGMA, &h, sigma),
                    CommitCert::Slow(tau2) => {
                        let d2 = commit2_digest(*seq, *view, &h);
                        public.tau.verify_either(DOMAIN_TAU, &d2, tau2)
                    }
                }
            }
            SbftMsg::ViewChange(vc) => validate_view_change(public, vc),
            // Heartbeats are fully stateless: forged ones never reach
            // the failure detector.
            SbftMsg::Heartbeat {
                from,
                sent_at_ns,
                last_executed,
                share,
            } => {
                let digest = heartbeat_digest(*from, *sent_at_ns, *last_executed);
                public.tau.verify_share(DOMAIN_HEARTBEAT, &digest, share)
            }
            SbftMsg::HeartbeatEcho {
                from,
                origin_sent_at_ns,
                last_executed,
                share,
            } => {
                let digest = heartbeat_digest(*from, *origin_sent_at_ns, *last_executed);
                public.tau.verify_share(DOMAIN_HEARTBEAT, &digest, share)
            }
            // σ/τ material is passed through to the node — but when the
            // slot's digest is already published in the share map, the
            // worker also pairing-checks it via `collect_recordable`, so
            // the node's combine can skip re-verification.
            // New-view quorums (filtered per entry by the node) and
            // unauthenticated plumbing stay the node's job. ExecuteReady
            // is a local wake-up the node accepts only from itself.
            SbftMsg::SignShare { .. }
            | SbftMsg::CommitShare { .. }
            | SbftMsg::Prepare { .. }
            | SbftMsg::FullCommitProof { .. }
            | SbftMsg::FullCommitProofSlow { .. }
            | SbftMsg::NewView(_)
            | SbftMsg::Reply { .. }
            | SbftMsg::StateRequest { .. }
            | SbftMsg::RecoveryRequest { .. }
            | SbftMsg::RecoveryOffer { .. }
            | SbftMsg::Busy { .. }
            | SbftMsg::ExecuteReady => true,
        }
    }

    /// Collects σ/τ/commit2 shares whose slot digest is already published
    /// for worker-side verification. Outcomes feed the share map only,
    /// never message acceptance: shares with unknown digests pass through
    /// unrecorded and the node's combine falls back to the full check.
    fn collect_recordable<'a>(
        &'a self,
        msg: &'a SbftMsg,
        map: &ShareVerifyMap,
        items: &mut Vec<(ShareVerifyItem<'a>, ShareRecord)>,
    ) {
        match msg {
            SbftMsg::SignShare {
                seq,
                view,
                sigma,
                tau,
            } => {
                let Some(h) = map.digest(*seq, *view) else {
                    return;
                };
                items.push((
                    ShareVerifyItem {
                        key: &self.public.tau,
                        domain: DOMAIN_TAU,
                        digest: h,
                        share: *tau,
                    },
                    (*seq, *view, tau.index(), ShareKind::Tau),
                ));
                if let Some(sigma) = sigma {
                    items.push((
                        ShareVerifyItem {
                            key: &self.public.sigma,
                            domain: DOMAIN_SIGMA,
                            digest: h,
                            share: *sigma,
                        },
                        (*seq, *view, sigma.index(), ShareKind::Sigma),
                    ));
                }
            }
            SbftMsg::CommitShare { seq, view, share } => {
                let Some(h) = map.digest(*seq, *view) else {
                    return;
                };
                let d2 = commit2_digest(*seq, *view, &h);
                items.push((
                    ShareVerifyItem {
                        key: &self.public.tau,
                        domain: DOMAIN_TAU,
                        digest: d2,
                        share: *share,
                    },
                    (*seq, *view, share.index(), ShareKind::Commit2),
                ));
            }
            _ => {}
        }
    }
}

/// Slot coordinates of one recordable share.
type ShareRecord = (SeqNum, ViewNum, u16, ShareKind);

impl InboundVerifier<SbftMsg> for SbftPreVerifier {
    fn decode(&self, payload: &[u8]) -> Option<SbftMsg> {
        SbftMsg::from_wire_bytes(payload).ok()
    }

    fn verify_batch(&self, batch: &[(NodeId, SbftMsg)]) -> Vec<bool> {
        let mut out = Vec::with_capacity(batch.len());
        let mut deferred: Vec<(usize, ShareVerifyItem<'_>)> = Vec::new();
        for (i, (_, msg)) in batch.iter().enumerate() {
            out.push(self.verify_one(msg, Some(&mut deferred), i));
        }
        if !deferred.is_empty() {
            // One RLC multi-pairing over every deferred share in the
            // batch (§III: batch verification "at nearly the same cost
            // of validating only one"), with content-derived
            // coefficients.
            let seed = self.rlc_seed(&deferred);
            let items: Vec<ShareVerifyItem<'_>> = deferred.iter().map(|(_, item)| *item).collect();
            if !batch_verify_share_items(&items, seed) {
                // A bad share somewhere: fall back to per-item
                // verification so a Byzantine peer cannot veto honest
                // shares sharing its batch.
                for (i, item) in &deferred {
                    out[*i] = item
                        .key
                        .verify_share(item.domain, &item.digest, &item.share);
                }
            }
        }
        // σ/τ/commit2 pre-verification against published slot digests: a
        // second RLC batch whose outcome only marks shares in the map —
        // `out` is untouched, so this path can never reject a message.
        if let Some(map) = &self.shares {
            let mut recordable: Vec<(ShareVerifyItem<'_>, ShareRecord)> = Vec::new();
            for (_, msg) in batch {
                self.collect_recordable(msg, map, &mut recordable);
            }
            if !recordable.is_empty() {
                let indexed: Vec<(usize, ShareVerifyItem<'_>)> = recordable
                    .iter()
                    .enumerate()
                    .map(|(i, (item, _))| (i, *item))
                    .collect();
                let seed = self.rlc_seed(&indexed);
                let items: Vec<ShareVerifyItem<'_>> =
                    recordable.iter().map(|(item, _)| *item).collect();
                if batch_verify_share_items(&items, seed) {
                    for (_, (seq, view, index, kind)) in &recordable {
                        map.record(*seq, *view, *index, *kind);
                    }
                } else {
                    for (item, (seq, view, index, kind)) in &recordable {
                        if item
                            .key
                            .verify_share(item.domain, &item.digest, &item.share)
                        {
                            map.record(*seq, *view, *index, *kind);
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProtocolConfig, VariantFlags};
    use crate::keys::KeyMaterial;
    use crate::messages::{FastEvidence, SlowEvidence, VcEntry, ViewChangeMsg};
    use crate::replica::ReplicaNode;
    use sbft_crypto::{
        sha256, CryptoCostModel, GroupElement, MerkleProof, Signature, SignatureShare, SplitMix64,
        ThresholdPublicKey,
    };
    use sbft_sim::{Context, Effects, Metrics, Node, SimRng, SimTime};
    use sbft_statedb::{ExecutionProof, KvService, StateChunk};
    use sbft_types::{ClientId, ReplicaId, SeqNum, ViewNum};

    fn setup() -> (ProtocolConfig, KeyMaterial, SbftPreVerifier) {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let verifier = SbftPreVerifier::new(keys.public.clone());
        (config, keys, verifier)
    }

    fn request(keys: &KeyMaterial, ts: u64) -> ClientRequest {
        let client = ClientId::new(1);
        ClientRequest::signed(client, ts, b"op".to_vec(), &keys.public.client_keys(client))
    }

    /// A combined signature over `digest` from the first `threshold`
    /// signers, whose shares `sign` produces.
    fn certify(
        public: &ThresholdPublicKey,
        domain: &[u8],
        digest: &Digest,
        sign: impl Fn(usize) -> SignatureShare,
    ) -> Signature {
        let shares: Vec<_> = (0..public.threshold()).map(sign).collect();
        public
            .combine(domain, digest, &shares)
            .expect("threshold combines")
    }

    /// One genuine and one forged instance of every message kind the
    /// verifier checks, as `(kind, genuine, forged)`. Each forgery reuses
    /// a genuine signature on content it does not cover.
    fn genuine_and_forged(keys: &KeyMaterial) -> Vec<(&'static str, SbftMsg, SbftMsg)> {
        let (public, replicas) = (&keys.public, &keys.replicas);
        let (seq, view) = (SeqNum::new(1), ViewNum::ZERO);
        let good = request(keys, 1);
        let mut copied = good.clone();
        copied.op = b"tampered".to_vec();
        let block = vec![good.clone()];
        let other_block = vec![request(keys, 2)];
        let h = block_digest(seq, view, &block);
        let d2 = commit2_digest(seq, view, &h);
        let state = sha256(b"state");
        let other_state = sha256(b"other state");
        let pi = certify(&public.pi, DOMAIN_PI, &state, |r| {
            replicas[r].pi.sign(DOMAIN_PI, &state)
        });
        let sigma = certify(&public.sigma, DOMAIN_SIGMA, &h, |r| {
            replicas[r].sigma.sign(DOMAIN_SIGMA, &h)
        });
        let tau = certify(&public.tau, DOMAIN_TAU, &h, |r| {
            replicas[r].tau.sign(DOMAIN_TAU, &h)
        });
        let tau2 = certify(&public.tau, DOMAIN_TAU, &d2, |r| {
            replicas[r].tau.sign(DOMAIN_TAU, &d2)
        });
        let (state_root, results_root) = (sha256(b"state root"), sha256(b"results root"));
        let chunk_digest = combine_state_digest(seq, &state_root, &results_root);
        let chunk_pi = certify(&public.pi, DOMAIN_PI, &chunk_digest, |r| {
            replicas[r].pi.sign(DOMAIN_PI, &chunk_digest)
        });
        let pre_prepare = |requests| SbftMsg::PrePrepare {
            seq,
            view,
            requests,
        };
        let sign_state = |digest| SbftMsg::SignState {
            seq,
            digest,
            share: replicas[0].pi.sign(DOMAIN_PI, &state),
        };
        let execute_proof = |digest| SbftMsg::FullExecuteProof { seq, digest, pi };
        let execute_ack = |digest| SbftMsg::ExecuteAck {
            seq,
            index: 0,
            client: good.client,
            timestamp: good.timestamp,
            result: b"ok".to_vec(),
            digest,
            pi,
            proof: ExecutionProof {
                state_root,
                result_path: MerkleProof::default(),
            },
        };
        let chunk = |state_root| SbftMsg::StateChunkMsg {
            chunk: StateChunk {
                seq,
                index: 0,
                total: 1,
                entries: vec![(b"k".to_vec(), b"v".to_vec())],
            },
            state_root,
            results_root,
            pi: chunk_pi,
        };
        let fill = |seq, cert| SbftMsg::BlockFill {
            seq,
            view,
            requests: block.clone(),
            cert,
        };
        let view_change = |fast_block: &Vec<ClientRequest>| {
            SbftMsg::ViewChange(ViewChangeMsg {
                from: ReplicaId::new(2),
                new_view: ViewNum::new(1),
                last_stable: SeqNum::ZERO,
                checkpoint: None,
                entries: vec![VcEntry {
                    seq,
                    slow: SlowEvidence::Prepared {
                        view,
                        tau,
                        requests: block.clone(),
                    },
                    fast: FastEvidence::PrePrepared {
                        view,
                        share: replicas[2].sigma.sign(DOMAIN_SIGMA, &h),
                        requests: fast_block.clone(),
                    },
                }],
            })
        };
        let beat_from = ReplicaId::new(1);
        let beat_share = replicas[1]
            .tau
            .sign(DOMAIN_HEARTBEAT, &heartbeat_digest(beat_from, 5, seq));
        let heartbeat = |sent_at_ns| SbftMsg::Heartbeat {
            from: beat_from,
            sent_at_ns,
            last_executed: seq,
            share: beat_share,
        };
        let echo = |origin_sent_at_ns| SbftMsg::HeartbeatEcho {
            from: beat_from,
            origin_sent_at_ns,
            last_executed: seq,
            share: beat_share,
        };
        vec![
            (
                "request",
                SbftMsg::Request(good.clone()),
                SbftMsg::Request(copied.clone()),
            ),
            (
                "pre-prepare",
                pre_prepare(block.clone()),
                pre_prepare(vec![good.clone(), copied]),
            ),
            ("sign-state", sign_state(state), sign_state(other_state)),
            (
                "execute-proof",
                execute_proof(state),
                execute_proof(other_state),
            ),
            ("execute-ack", execute_ack(state), execute_ack(other_state)),
            ("state-chunk", chunk(state_root), chunk(results_root)),
            (
                "block-fill fast",
                fill(seq, CommitCert::Fast(sigma)),
                fill(seq.next(), CommitCert::Fast(sigma)),
            ),
            (
                "block-fill slow",
                fill(seq, CommitCert::Slow(tau2)),
                fill(seq.next(), CommitCert::Slow(tau2)),
            ),
            (
                "view-change",
                view_change(&block),
                view_change(&other_block),
            ),
            ("heartbeat", heartbeat(5), heartbeat(6)),
            ("heartbeat-echo", echo(5), echo(6)),
        ]
    }

    #[test]
    fn decode_round_trips_and_rejects_garbage() {
        let (_, keys, verifier) = setup();
        let msg = SbftMsg::Request(request(&keys, 1));
        let decoded = verifier.decode(&msg.to_wire_bytes()).expect("decodes");
        assert_eq!(decoded, msg);
        assert!(verifier.decode(&[0xff, 0x00, 0x13]).is_none());
    }

    /// The boundary at a glance: genuine and forged instances of every
    /// checked kind in one batch (forged π shares force the per-item
    /// fallback of the share batch too).
    #[test]
    fn every_checked_kind_passes_genuine_and_fails_forged() {
        let (_, keys, verifier) = setup();
        let cases = genuine_and_forged(&keys);
        let batch: Vec<(NodeId, SbftMsg)> = cases
            .iter()
            .flat_map(|(_, good, forged)| [(1, good.clone()), (1, forged.clone())])
            .collect();
        let verdicts = verifier.verify_batch(&batch);
        for ((kind, ..), verdict) in cases.iter().zip(verdicts.chunks(2)) {
            assert_eq!(verdict, [true, false], "{kind}");
        }
    }

    /// Seeded single-bit flips over every encoding above: decoding and
    /// verifying a mutant may fail, but never panics.
    #[test]
    fn single_bit_flips_never_panic_the_boundary() {
        let (_, keys, verifier) = setup();
        let encodings: Vec<Vec<u8>> = genuine_and_forged(&keys)
            .into_iter()
            .flat_map(|(_, good, forged)| [good.to_wire_bytes(), forged.to_wire_bytes()])
            .collect();
        let mut rng = SplitMix64::new(0xb17_f11b);
        let mut decoded = 0;
        for _ in 0..250 {
            let mut batch = Vec::new();
            for _ in 0..8 {
                let mut bytes = encodings[rng.next_u64() as usize % encodings.len()].clone();
                let bit = rng.next_u64() as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                batch.extend(verifier.decode(&bytes).map(|msg| (1, msg)));
            }
            decoded += batch.len();
            assert_eq!(verifier.verify_batch(&batch).len(), batch.len());
        }
        assert!(decoded > 0, "no mutant decoded; verify_batch never ran");
    }

    /// Delivers `msg` the way every driver does: through the replica's
    /// own inbound verifier, then its handler. `None` when the verifier
    /// drops it.
    fn deliver(node: &mut ReplicaNode, from: NodeId, msg: SbftMsg) -> Option<Effects<SbftMsg>> {
        let verifier = node.inbound_verifier().expect("replicas screen inbound");
        let batch = [(from, msg)];
        if verifier.verify_batch(&batch) != [true] {
            return None;
        }
        let [(_, msg)] = batch;
        let (mut rng, mut metrics, mut next_timer_id) = (SimRng::new(0), Metrics::new(false), 0);
        let mut ctx =
            Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
        node.on_message(from, msg, &mut ctx);
        Some(ctx.into_effects())
    }

    /// A request the replica already accepted does not vouch for a later
    /// copy: a Byzantine primary that splices the genuine `(client,
    /// timestamp, signature)` onto a different op is stopped at the
    /// replica's boundary, and the genuine block is still accepted.
    #[test]
    fn copied_signature_on_different_op_never_rides_the_memo() {
        let (config, keys, _) = setup();
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(1),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        let genuine = request(&keys, 1);
        let mut forged = genuine.clone();
        forged.op = b"put k EVIL".to_vec();
        let pre_prepare = |request: &ClientRequest| SbftMsg::PrePrepare {
            seq: SeqNum::new(1),
            view: ViewNum::ZERO,
            requests: vec![request.clone()],
        };
        let client = config.n() + 1;
        assert!(deliver(&mut node, client, SbftMsg::Request(genuine.clone())).is_some());
        assert!(
            deliver(&mut node, 0, pre_prepare(&forged)).is_none(),
            "the forged pre-prepare must not reach the replica"
        );
        let effects = deliver(&mut node, 0, pre_prepare(&genuine)).expect("genuine passes");
        assert!(
            effects
                .sends
                .iter()
                .any(|(_, msg)| matches!(msg, SbftMsg::SignShare { .. })),
            "the genuine block is accepted and signed"
        );
    }

    #[test]
    fn pi_shares_batch_verify_with_bad_share_fallback() {
        let (_, keys, verifier) = setup();
        let d1 = sha256(b"state-1");
        let d2 = sha256(b"state-2");
        let mut batch: Vec<(usize, SbftMsg)> = Vec::new();
        for (r, digest) in [(0usize, d1), (1, d1), (2, d2)] {
            batch.push((
                r,
                SbftMsg::SignState {
                    seq: SeqNum::new(1),
                    digest,
                    share: keys.replicas[r].pi.sign(DOMAIN_PI, &digest),
                },
            ));
        }
        assert_eq!(verifier.verify_batch(&batch), vec![true; 3]);
        // Corrupt one share: only it must be rejected (fallback path).
        batch[1].1 = SbftMsg::SignState {
            seq: SeqNum::new(1),
            digest: d1,
            share: SignatureShare::from_parts(2, GroupElement::generator()),
        };
        assert_eq!(verifier.verify_batch(&batch), vec![true, false, true]);
    }

    #[test]
    fn shares_are_recorded_once_the_digest_is_published() {
        let (_, keys, _) = setup();
        let map = Arc::new(ShareVerifyMap::new());
        let verifier = SbftPreVerifier::new(keys.public.clone()).with_shares(map.clone());
        let seq = SeqNum::new(3);
        let view = ViewNum::ZERO;
        let h = sha256(b"block");
        let tau = keys.replicas[0].tau.sign(DOMAIN_TAU, &h);
        let sigma = keys.replicas[0].sigma.sign(DOMAIN_SIGMA, &h);
        let sign_share = SbftMsg::SignShare {
            seq,
            view,
            sigma: Some(sigma),
            tau,
        };
        let d2 = commit2_digest(seq, view, &h);
        let commit = keys.replicas[1].tau.sign(DOMAIN_TAU, &d2);
        let commit_share = SbftMsg::CommitShare {
            seq,
            view,
            share: commit,
        };
        // Digest unknown: shares pass through unrecorded.
        assert_eq!(
            verifier.verify_batch(&[(0, sign_share.clone()), (1, commit_share.clone())]),
            vec![true, true]
        );
        assert!(map.is_empty());
        map.publish_digest(seq, view, h);
        assert_eq!(
            verifier.verify_batch(&[(0, sign_share), (1, commit_share)]),
            vec![true, true]
        );
        assert!(map.all_preverified(seq, view, ShareKind::Tau, [&tau.index()]));
        assert!(map.all_preverified(seq, view, ShareKind::Sigma, [&sigma.index()]));
        assert!(map.all_preverified(seq, view, ShareKind::Commit2, [&commit.index()]));
        // GC below the slot clears everything.
        map.gc_below(seq);
        assert!(map.is_empty());
    }

    #[test]
    fn forged_shares_pass_through_but_are_never_recorded() {
        let (_, keys, _) = setup();
        let map = Arc::new(ShareVerifyMap::new());
        let verifier = SbftPreVerifier::new(keys.public.clone()).with_shares(map.clone());
        let seq = SeqNum::new(7);
        let view = ViewNum::ZERO;
        let h = sha256(b"block-7");
        map.publish_digest(seq, view, h);
        let good = keys.replicas[0].tau.sign(DOMAIN_TAU, &h);
        let forged = SignatureShare::from_parts(2, GroupElement::generator());
        let batch = vec![
            (
                0usize,
                SbftMsg::SignShare {
                    seq,
                    view,
                    sigma: None,
                    tau: good,
                },
            ),
            (
                2,
                SbftMsg::SignShare {
                    seq,
                    view,
                    sigma: None,
                    tau: forged,
                },
            ),
        ];
        // Both pass through (the map never gates acceptance)...
        assert_eq!(verifier.verify_batch(&batch), vec![true, true]);
        // ...but the RLC fallback records only the honest share.
        assert!(map.all_preverified(seq, view, ShareKind::Tau, [&good.index()]));
        assert!(!map.all_preverified(seq, view, ShareKind::Tau, [&forged.index()]));
    }

    #[test]
    fn share_map_view_retention_drops_stale_views() {
        let map = ShareVerifyMap::new();
        let h = sha256(b"h");
        map.publish_digest(SeqNum::new(1), ViewNum::ZERO, h);
        map.record(SeqNum::new(1), ViewNum::ZERO, 0, ShareKind::Tau);
        map.publish_digest(SeqNum::new(1), ViewNum::new(2), h);
        map.record(SeqNum::new(1), ViewNum::new(2), 0, ShareKind::Tau);
        map.retain_views_from(ViewNum::new(2));
        assert_eq!(map.len(), (1, 1));
        assert!(map.digest(SeqNum::new(1), ViewNum::ZERO).is_none());
        assert!(map.digest(SeqNum::new(1), ViewNum::new(2)).is_some());
    }

    #[test]
    fn state_bound_messages_pass_through() {
        let (_, keys, verifier) = setup();
        let share = keys.replicas[0].tau.sign(DOMAIN_TAU, &sha256(b"h"));
        let batch = vec![
            (
                0usize,
                SbftMsg::SignShare {
                    seq: SeqNum::new(1),
                    view: ViewNum::ZERO,
                    sigma: None,
                    tau: share,
                },
            ),
            (
                0,
                SbftMsg::StateRequest {
                    last_executed: SeqNum::ZERO,
                },
            ),
        ];
        assert_eq!(verifier.verify_batch(&batch), vec![true, true]);
    }
}
