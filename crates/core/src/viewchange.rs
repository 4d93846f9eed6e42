//! The dual-mode view-change decision procedure (§V-G).
//!
//! SBFT's view change must arbitrate between two concurrent commit modes:
//! the σ fast path and the τ linear-PBFT path. These pure functions
//! implement the "Accepting a New-view" computation exactly as specified —
//! the new primary runs it to build its proposal, and every replica
//! re-runs it on the forwarded view-change quorum to check the primary
//! did ("all replicas can repeat exactly the same computation", §VII).
//!
//! The safety argument (Lemmas VI.2/VI.3) hinges on three details encoded
//! here and exercised by the tests:
//!
//! 1. a slot with a full commit proof (σ(h) or τ(τ(h))) is decided
//!    immediately;
//! 2. `fast(req', v)` requires `f+c+1` fast-evidence members at views
//!    `≥ v`, and the adopted fast view `v̂` must be *unique* for one block;
//! 3. on a view tie (`v* = v̂`) the slow-path value wins.

use std::collections::BTreeMap;

use sbft_types::{Digest, ReplicaId, SeqNum, ViewNum};

use sbft_crypto::sha256;
use sbft_wire::Wire;

use crate::config::ProtocolConfig;
use crate::keys::{PublicKeys, DOMAIN_PI, DOMAIN_SIGMA, DOMAIN_TAU};
use crate::messages::{
    block_digest, commit2_digest, ClientRequest, CommitCert, FastEvidence, SlowEvidence,
    ViewChangeMsg,
};

/// What the new view prescribes for one log slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotDecision {
    /// The slot already committed in `view`; adopt and commit directly.
    Commit {
        /// The committed block.
        requests: Vec<ClientRequest>,
        /// The view whose hash the certificate covers.
        view: ViewNum,
        /// The commit certificate.
        cert: CommitCert,
    },
    /// Re-propose this block in the new view (an empty request list is the
    /// "null" no-op filler of §V-G).
    Propose {
        /// The block to re-propose.
        requests: Vec<ClientRequest>,
    },
}

/// The outcome of processing a view-change quorum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewViewPlan {
    /// The view being installed.
    pub view: ViewNum,
    /// The adopted stable sequence number (highest proven checkpoint).
    pub stable: SeqNum,
    /// The replica whose view-change message proved `stable`: it holds
    /// that checkpoint's state, so a replica behind it fetches it there.
    pub stable_from: ReplicaId,
    /// Per-slot decisions for `stable+1 ..= max evidenced slot`.
    pub decisions: Vec<(SeqNum, SlotDecision)>,
}

/// Validates every piece of evidence inside a view-change message.
/// Invalid messages are discarded whole (the sender is faulty).
pub fn validate_view_change(keys: &PublicKeys, vc: &ViewChangeMsg) -> bool {
    if vc.last_stable > SeqNum::ZERO {
        match &vc.checkpoint {
            Some((digest, pi)) => {
                if !keys.pi.verify_either(DOMAIN_PI, digest, pi) {
                    return false;
                }
            }
            None => return false,
        }
    }
    for entry in &vc.entries {
        if entry.seq <= vc.last_stable {
            return false;
        }
        match &entry.slow {
            SlowEvidence::None => {}
            SlowEvidence::Prepared {
                view,
                tau,
                requests,
            } => {
                let h = block_digest(entry.seq, *view, requests);
                if !keys.tau.verify_either(DOMAIN_TAU, &h, tau) {
                    return false;
                }
            }
            SlowEvidence::CommittedSlow {
                view,
                tau2,
                requests,
            } => {
                let h = block_digest(entry.seq, *view, requests);
                let d2 = commit2_digest(entry.seq, *view, &h);
                if !keys.tau.verify_either(DOMAIN_TAU, &d2, tau2) {
                    return false;
                }
            }
        }
        match &entry.fast {
            FastEvidence::None => {}
            FastEvidence::PrePrepared {
                view,
                share,
                requests,
            } => {
                // The share must be the sender's own σ share.
                if share.index() as u32 != vc.from.get() + 1 {
                    return false;
                }
                let h = block_digest(entry.seq, *view, requests);
                if !keys.sigma.verify_share(DOMAIN_SIGMA, &h, share) {
                    return false;
                }
            }
            FastEvidence::CommittedFast {
                view,
                sigma,
                requests,
            } => {
                let h = block_digest(entry.seq, *view, requests);
                if !keys.sigma.verify_either(DOMAIN_SIGMA, &h, sigma) {
                    return false;
                }
            }
        }
    }
    true
}

fn requests_key(requests: &[ClientRequest]) -> Digest {
    let mut enc = sbft_wire::Encoder::new();
    for r in requests {
        r.encode(&mut enc);
    }
    sha256(&enc.into_bytes())
}

/// Computes the new-view plan from a set of (already validated, distinct-
/// sender) view-change messages. Returns `None` when fewer than
/// `2f + 2c + 1` messages are provided.
pub fn compute_plan(
    config: &ProtocolConfig,
    view: ViewNum,
    vcs: &[ViewChangeMsg],
) -> Option<NewViewPlan> {
    if vcs.len() < config.view_change_quorum() {
        return None;
    }
    // Deterministic: use the quorum as provided, sorted by sender.
    let mut quorum: Vec<&ViewChangeMsg> = vcs.iter().collect();
    quorum.sort_by_key(|vc| vc.from);
    quorum.truncate(config.view_change_quorum());

    // ls := the highest proven stable sequence.
    let proof = quorum
        .iter()
        .max_by_key(|vc| vc.last_stable)
        .expect("a view-change quorum is not empty");
    let stable = proof.last_stable;

    let max_seq = quorum
        .iter()
        .flat_map(|vc| vc.entries.iter().map(|e| e.seq))
        .max()
        .unwrap_or(stable);

    let mut decisions = Vec::new();
    let mut j = stable.next();
    while j <= max_seq {
        decisions.push((j, decide_slot(config, j, &quorum)));
        j = j.next();
    }
    Some(NewViewPlan {
        view,
        stable,
        stable_from: proof.from,
        decisions,
    })
}

fn decide_slot(config: &ProtocolConfig, seq: SeqNum, quorum: &[&ViewChangeMsg]) -> SlotDecision {
    // Gather X = {x_i}: one (slow, fast) pair per member; missing slots
    // count as (no commit, no pre-prepare).
    let entries: Vec<(&SlowEvidence, &FastEvidence)> = quorum
        .iter()
        .map(|vc| {
            vc.entries
                .iter()
                .find(|e| e.seq == seq)
                .map(|e| (&e.slow, &e.fast))
                .unwrap_or((&SlowEvidence::None, &FastEvidence::None))
        })
        .collect();

    // 0. Full commit proofs decide immediately.
    for (slow, fast) in &entries {
        if let SlowEvidence::CommittedSlow {
            view,
            tau2,
            requests,
        } = slow
        {
            return SlotDecision::Commit {
                requests: requests.clone(),
                view: *view,
                cert: CommitCert::Slow(*tau2),
            };
        }
        if let FastEvidence::CommittedFast {
            view,
            sigma,
            requests,
        } = fast
        {
            return SlotDecision::Commit {
                requests: requests.clone(),
                view: *view,
                cert: CommitCert::Fast(*sigma),
            };
        }
    }

    // 1. v* = the highest view with a prepare certificate τ(h) in LX.
    let mut v_star: Option<(ViewNum, &Vec<ClientRequest>)> = None;
    for (slow, _) in &entries {
        if let SlowEvidence::Prepared { view, requests, .. } = slow {
            if v_star.map(|(v, _)| *view > v).unwrap_or(true) {
                v_star = Some((*view, requests));
            }
        }
    }

    // 2. v̂ = the highest view for which some block is "fast": f+c+1
    //    members of FX hold σ shares for it at views ≥ v̂, unique block.
    let need = config.f + config.c + 1;
    let mut by_block: BTreeMap<Digest, (Vec<ViewNum>, &Vec<ClientRequest>)> = BTreeMap::new();
    for (_, fast) in &entries {
        if let FastEvidence::PrePrepared { view, requests, .. } = fast {
            let key = requests_key(requests);
            let entry = by_block
                .entry(key)
                .or_insert_with(|| (Vec::new(), requests));
            entry.0.push(*view);
        }
    }
    let mut v_hat: Option<(ViewNum, &Vec<ClientRequest>)> = None;
    let mut v_hat_tied = false;
    for (views, requests) in by_block.values() {
        if views.len() < need {
            continue;
        }
        let mut sorted = views.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        // req' is fast for u iff the f+c+1 highest views are all ≥ u; the
        // best such u is the (f+c+1)-th largest view.
        let u = sorted[need - 1];
        match v_hat {
            Some((current, _)) if u == current => v_hat_tied = true,
            Some((current, _)) if u > current => {
                v_hat = Some((u, requests));
                v_hat_tied = false;
            }
            None => v_hat = Some((u, requests)),
            _ => {}
        }
    }
    if v_hat_tied {
        // More than one candidate block fast at v̂: set v̂ := -1 (§V-G).
        v_hat = None;
    }

    // 3. Choose: prefer the slow-path value on ties.
    match (v_star, v_hat) {
        (Some((vs, req_star)), Some((vh, _))) if vs >= vh => SlotDecision::Propose {
            requests: req_star.clone(),
        },
        (Some((_, req_star)), None) => SlotDecision::Propose {
            requests: req_star.clone(),
        },
        (_, Some((_, req_hat))) => SlotDecision::Propose {
            requests: req_hat.clone(),
        },
        (None, None) => SlotDecision::Propose {
            requests: Vec::new(), // "null" no-op block
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariantFlags;
    use crate::keys::KeyMaterial;
    use crate::messages::VcEntry;
    use sbft_types::{ClientId, ReplicaId};

    // n = 3f+2c+1 = 9 with f=2, c=1. σ=8, τ=6, π=3, VC quorum=7, f+c+1=4.
    fn setup() -> (ProtocolConfig, KeyMaterial) {
        let config = ProtocolConfig::new(2, 1, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 42);
        (config, keys)
    }

    fn request(tag: u8) -> ClientRequest {
        let keys = sbft_crypto::KeyPair::derive(42, b"client", tag as u32);
        ClientRequest::signed(ClientId::new(tag as u32), 1, vec![tag], &keys)
    }

    fn tau_cert(
        keys: &KeyMaterial,
        seq: SeqNum,
        view: ViewNum,
        requests: &[ClientRequest],
    ) -> sbft_crypto::Signature {
        let h = block_digest(seq, view, requests);
        let shares: Vec<_> = keys
            .replicas
            .iter()
            .take(keys.public.tau.threshold())
            .map(|r| r.tau.sign(DOMAIN_TAU, &h))
            .collect();
        keys.public.tau.combine(DOMAIN_TAU, &h, &shares).unwrap()
    }

    fn sigma_cert(
        keys: &KeyMaterial,
        seq: SeqNum,
        view: ViewNum,
        requests: &[ClientRequest],
    ) -> sbft_crypto::Signature {
        let h = block_digest(seq, view, requests);
        let shares: Vec<_> = keys
            .replicas
            .iter()
            .take(keys.public.sigma.threshold())
            .map(|r| r.sigma.sign(DOMAIN_SIGMA, &h))
            .collect();
        keys.public
            .sigma
            .combine(DOMAIN_SIGMA, &h, &shares)
            .unwrap()
    }

    fn fast_share(
        keys: &KeyMaterial,
        replica: usize,
        seq: SeqNum,
        view: ViewNum,
        requests: &[ClientRequest],
    ) -> FastEvidence {
        let h = block_digest(seq, view, requests);
        FastEvidence::PrePrepared {
            view,
            share: keys.replicas[replica].sigma.sign(DOMAIN_SIGMA, &h),
            requests: requests.to_vec(),
        }
    }

    fn vc(from: usize, new_view: ViewNum, entries: Vec<VcEntry>) -> ViewChangeMsg {
        ViewChangeMsg {
            from: ReplicaId::new(from as u32),
            new_view,
            last_stable: SeqNum::ZERO,
            checkpoint: None,
            entries,
        }
    }

    fn empty_vcs(count: usize, view: ViewNum) -> Vec<ViewChangeMsg> {
        (0..count).map(|i| vc(i, view, vec![])).collect()
    }

    #[test]
    fn quorum_size_enforced() {
        let (config, _) = setup();
        let view = ViewNum::new(1);
        assert!(compute_plan(&config, view, &empty_vcs(6, view)).is_none());
        let plan = compute_plan(&config, view, &empty_vcs(7, view)).unwrap();
        assert!(plan.decisions.is_empty());
        assert_eq!(plan.stable, SeqNum::ZERO);
    }

    #[test]
    fn committed_slow_evidence_decides() {
        let (config, keys) = setup();
        let view = ViewNum::new(1);
        let seq = SeqNum::new(1);
        let req = vec![request(1)];
        let h = block_digest(seq, ViewNum::new(0), &req);
        let d2 = commit2_digest(seq, ViewNum::new(0), &h);
        let shares: Vec<_> = keys
            .replicas
            .iter()
            .take(6)
            .map(|r| r.tau.sign(DOMAIN_TAU, &d2))
            .collect();
        let tau2 = keys.public.tau.combine(DOMAIN_TAU, &d2, &shares).unwrap();

        let mut vcs = empty_vcs(7, view);
        vcs[0].entries = vec![VcEntry {
            seq,
            slow: SlowEvidence::CommittedSlow {
                view: ViewNum::new(0),
                tau2,
                requests: req.clone(),
            },
            fast: FastEvidence::None,
        }];
        assert!(validate_view_change(&keys.public, &vcs[0]));
        let plan = compute_plan(&config, view, &vcs).unwrap();
        assert_eq!(plan.decisions.len(), 1);
        match &plan.decisions[0].1 {
            SlotDecision::Commit { requests, cert, .. } => {
                assert_eq!(requests, &req);
                assert!(matches!(cert, CommitCert::Slow(_)));
            }
            other => panic!("expected commit, got {other:?}"),
        }
    }

    #[test]
    fn committed_fast_evidence_decides() {
        let (config, keys) = setup();
        let view = ViewNum::new(1);
        let seq = SeqNum::new(1);
        let req = vec![request(1)];
        let sigma = sigma_cert(&keys, seq, ViewNum::new(0), &req);
        let mut vcs = empty_vcs(7, view);
        vcs[3].entries = vec![VcEntry {
            seq,
            slow: SlowEvidence::None,
            fast: FastEvidence::CommittedFast {
                view: ViewNum::new(0),
                sigma,
                requests: req.clone(),
            },
        }];
        assert!(validate_view_change(&keys.public, &vcs[3]));
        let plan = compute_plan(&config, view, &vcs).unwrap();
        match &plan.decisions[0].1 {
            SlotDecision::Commit { requests, cert, .. } => {
                assert_eq!(requests, &req);
                assert!(matches!(cert, CommitCert::Fast(_)));
            }
            other => panic!("expected commit, got {other:?}"),
        }
    }

    #[test]
    fn prepared_value_is_adopted() {
        let (config, keys) = setup();
        let view = ViewNum::new(1);
        let seq = SeqNum::new(1);
        let req = vec![request(1)];
        let tau = tau_cert(&keys, seq, ViewNum::new(0), &req);
        let mut vcs = empty_vcs(7, view);
        vcs[2].entries = vec![VcEntry {
            seq,
            slow: SlowEvidence::Prepared {
                view: ViewNum::new(0),
                tau,
                requests: req.clone(),
            },
            fast: FastEvidence::None,
        }];
        let plan = compute_plan(&config, view, &vcs).unwrap();
        assert_eq!(plan.decisions[0].1, SlotDecision::Propose { requests: req });
    }

    #[test]
    fn fast_value_needs_f_plus_c_plus_1_members() {
        let (config, keys) = setup();
        let view = ViewNum::new(1);
        let seq = SeqNum::new(1);
        let req = vec![request(1)];
        // Only 3 members (< f+c+1 = 4) hold fast shares: not adopted.
        let mut vcs = empty_vcs(7, view);
        for i in 0..3 {
            vcs[i].entries = vec![VcEntry {
                seq,
                slow: SlowEvidence::None,
                fast: fast_share(&keys, i, seq, ViewNum::new(0), &req),
            }];
        }
        let plan = compute_plan(&config, view, &vcs).unwrap();
        assert_eq!(
            plan.decisions[0].1,
            SlotDecision::Propose {
                requests: Vec::new()
            }
        );
        // With 4 members it is adopted.
        vcs[3].entries = vec![VcEntry {
            seq,
            slow: SlowEvidence::None,
            fast: fast_share(&keys, 3, seq, ViewNum::new(0), &req),
        }];
        let plan = compute_plan(&config, view, &vcs).unwrap();
        assert_eq!(plan.decisions[0].1, SlotDecision::Propose { requests: req });
    }

    #[test]
    fn slow_path_wins_view_ties() {
        // Lemma VI.2: "even if v* = v̂ the outcome will use the slow-path
        // value".
        let (config, keys) = setup();
        let view = ViewNum::new(2);
        let seq = SeqNum::new(1);
        let slow_req = vec![request(1)];
        let fast_req = vec![request(2)];
        let evidence_view = ViewNum::new(1);
        let tau = tau_cert(&keys, seq, evidence_view, &slow_req);
        let mut vcs = empty_vcs(7, view);
        vcs[0].entries = vec![VcEntry {
            seq,
            slow: SlowEvidence::Prepared {
                view: evidence_view,
                tau,
                requests: slow_req.clone(),
            },
            fast: FastEvidence::None,
        }];
        for i in 1..5 {
            vcs[i].entries = vec![VcEntry {
                seq,
                slow: SlowEvidence::None,
                fast: fast_share(&keys, i, seq, evidence_view, &fast_req),
            }];
        }
        let plan = compute_plan(&config, view, &vcs).unwrap();
        assert_eq!(
            plan.decisions[0].1,
            SlotDecision::Propose { requests: slow_req }
        );
    }

    #[test]
    fn newer_fast_value_beats_older_prepare() {
        let (config, keys) = setup();
        let view = ViewNum::new(3);
        let seq = SeqNum::new(1);
        let slow_req = vec![request(1)];
        let fast_req = vec![request(2)];
        let tau = tau_cert(&keys, seq, ViewNum::new(0), &slow_req);
        let mut vcs = empty_vcs(7, view);
        vcs[0].entries = vec![VcEntry {
            seq,
            slow: SlowEvidence::Prepared {
                view: ViewNum::new(0),
                tau,
                requests: slow_req,
            },
            fast: FastEvidence::None,
        }];
        // 4 members with fast shares at the NEWER view 2.
        for i in 1..5 {
            vcs[i].entries = vec![VcEntry {
                seq,
                slow: SlowEvidence::None,
                fast: fast_share(&keys, i, seq, ViewNum::new(2), &fast_req),
            }];
        }
        let plan = compute_plan(&config, view, &vcs).unwrap();
        assert_eq!(
            plan.decisions[0].1,
            SlotDecision::Propose { requests: fast_req }
        );
    }

    #[test]
    fn ambiguous_fast_candidates_cancel() {
        // Two different blocks each "fast" at the same v̂ → v̂ := -1 and
        // the slot falls back (here to null).
        let (config, keys) = setup();
        let view = ViewNum::new(1);
        let seq = SeqNum::new(1);
        let req_a = vec![request(1)];
        let req_b = vec![request(2)];
        let mut vcs = empty_vcs(9, view);
        for i in 0..4 {
            vcs[i].entries = vec![VcEntry {
                seq,
                slow: SlowEvidence::None,
                fast: fast_share(&keys, i, seq, ViewNum::new(0), &req_a),
            }];
        }
        for i in 4..8 {
            vcs[i].entries = vec![VcEntry {
                seq,
                slow: SlowEvidence::None,
                fast: fast_share(&keys, i, seq, ViewNum::new(0), &req_b),
            }];
        }
        // Quorum picks the first 7 by sender id: 4×req_a + 3×req_b; only
        // req_a is fast → adopted. Use all 9 so both reach 4 members: the
        // quorum truncation keeps 7 (4×a, 3×b) — craft instead with 8
        // members so both blocks have exactly 4 in the quorum of 7? Not
        // possible; directly test decide_slot on all 9.
        let quorum: Vec<&ViewChangeMsg> = vcs.iter().collect();
        let decision = decide_slot(&config, seq, &quorum);
        assert_eq!(
            decision,
            SlotDecision::Propose {
                requests: Vec::new()
            }
        );
    }

    #[test]
    fn missing_entries_count_as_no_evidence() {
        let (config, _) = setup();
        let view = ViewNum::new(1);
        let mut vcs = empty_vcs(7, view);
        // One member claims evidence at seq 3 only; slots 1..=3 must be
        // filled, with 1 and 2 as null.
        vcs[0].entries = vec![VcEntry {
            seq: SeqNum::new(3),
            slow: SlowEvidence::None,
            fast: FastEvidence::None,
        }];
        let plan = compute_plan(&config, view, &vcs).unwrap();
        assert_eq!(plan.decisions.len(), 3);
        for (_, d) in &plan.decisions {
            assert_eq!(
                *d,
                SlotDecision::Propose {
                    requests: Vec::new()
                }
            );
        }
    }

    #[test]
    fn stable_checkpoint_advances_ls() {
        let (config, keys) = setup();
        let view = ViewNum::new(1);
        let digest = sha256(b"state at 5");
        let shares: Vec<_> = keys
            .replicas
            .iter()
            .take(3)
            .map(|r| r.pi.sign(DOMAIN_PI, &digest))
            .collect();
        let pi = keys.public.pi.combine(DOMAIN_PI, &digest, &shares).unwrap();
        let mut vcs = empty_vcs(7, view);
        vcs[4].last_stable = SeqNum::new(5);
        vcs[4].checkpoint = Some((digest, pi));
        assert!(validate_view_change(&keys.public, &vcs[4]));
        let plan = compute_plan(&config, view, &vcs).unwrap();
        assert_eq!(plan.stable, SeqNum::new(5));
        assert_eq!(plan.stable_from, vcs[4].from, "the prover holds the state");
    }

    #[test]
    fn plan_is_order_invariant() {
        // §VII: every replica repeats the primary's computation from the
        // same message set — so the plan must not depend on the order in
        // which view-change messages arrived.
        let (config, keys) = setup();
        let view = ViewNum::new(1);
        let seq = SeqNum::new(1);
        let req = vec![request(1)];
        let tau = tau_cert(&keys, seq, ViewNum::new(0), &req);
        let mut vcs = empty_vcs(8, view);
        vcs[2].entries = vec![VcEntry {
            seq,
            slow: SlowEvidence::Prepared {
                view: ViewNum::new(0),
                tau,
                requests: req,
            },
            fast: FastEvidence::None,
        }];
        for i in 3..7 {
            vcs[i].entries = vec![VcEntry {
                seq,
                slow: SlowEvidence::None,
                fast: fast_share(&keys, i, seq, ViewNum::new(0), &[request(2)]),
            }];
        }
        let baseline = compute_plan(&config, view, &vcs).unwrap();
        // Any permutation of the same messages yields the same plan.
        for rotation in 1..vcs.len() {
            let mut rotated = vcs.clone();
            rotated.rotate_left(rotation);
            assert_eq!(
                compute_plan(&config, view, &rotated).unwrap(),
                baseline,
                "rotation {rotation}"
            );
        }
    }

    #[test]
    fn validation_rejects_bogus_evidence() {
        let (_, keys) = setup();
        let view = ViewNum::new(1);
        let seq = SeqNum::new(1);
        let req = vec![request(1)];
        // A τ cert over the WRONG view must fail validation.
        let tau = tau_cert(&keys, seq, ViewNum::new(0), &req);
        let bad = ViewChangeMsg {
            from: ReplicaId::new(0),
            new_view: view,
            last_stable: SeqNum::ZERO,
            checkpoint: None,
            entries: vec![VcEntry {
                seq,
                slow: SlowEvidence::Prepared {
                    view: ViewNum::new(1), // mismatched
                    tau,
                    requests: req.clone(),
                },
                fast: FastEvidence::None,
            }],
        };
        assert!(!validate_view_change(&keys.public, &bad));
        // A fast share claimed by the wrong sender fails.
        let bad_share = ViewChangeMsg {
            from: ReplicaId::new(0),
            new_view: view,
            last_stable: SeqNum::ZERO,
            checkpoint: None,
            entries: vec![VcEntry {
                seq,
                slow: SlowEvidence::None,
                fast: fast_share(&keys, 3, seq, ViewNum::new(0), &req),
            }],
        };
        assert!(!validate_view_change(&keys.public, &bad_share));
        // Claiming stability without a checkpoint proof fails.
        let no_proof = ViewChangeMsg {
            from: ReplicaId::new(0),
            new_view: view,
            last_stable: SeqNum::new(9),
            checkpoint: None,
            entries: vec![],
        };
        assert!(!validate_view_change(&keys.public, &no_proof));
    }
}
