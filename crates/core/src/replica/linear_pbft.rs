//! The linear-PBFT fallback (§V-E) and the commit of a certified block.

use super::*;

/// Consecutive fast-path timeouts after which a replica stops waiting for
/// σ: a streak is stronger evidence than the σ-completion rate alone.
const FAST_PROBE_FALLBACKS: u32 = 4;

impl ReplicaNode {
    /// The fast path did not complete in time: fall back (§V-E).
    pub(super) fn on_fast_timeout(&mut self, ctx: &mut Ctx<'_>, seq: SeqNum) {
        let tau_threshold = self.config.tau_threshold();
        let slot = self.slot(seq);
        slot.fast_timer = None;
        if slot.prepare_sent || slot.committed() || slot.tau_shares.len() < tau_threshold {
            return;
        }
        slot.prepare_sent = true;
        let Some(view) = self.active_view() else {
            return;
        };
        ctx.incr("fast_path_fallbacks", 1);
        self.consecutive_fallbacks = self.consecutive_fallbacks.saturating_add(1);
        if self.consecutive_fallbacks >= FAST_PROBE_FALLBACKS {
            // Force the hysteresis open so subsequent slots skip the
            // fast wait immediately.
            self.hysteresis.release();
        }
        self.emit_prepare(ctx, seq, view);
    }

    pub(super) fn emit_prepare(&mut self, ctx: &mut Ctx<'_>, seq: SeqNum, view: ViewNum) {
        let Some(h) = self.slots.get(&seq.get()).and_then(|s| s.h) else {
            return;
        };
        let slot = self.slots.get(&seq.get()).expect("slot exists");
        if slot.committed() || slot.prepared.is_some() {
            return;
        }
        let shares = &slot.tau_shares;
        let Some(tau) = self.combine_tau(ctx, seq, view, ShareKind::Tau, shares, &h) else {
            return;
        };
        ctx.incr("slow_path_entries", 1);
        self.broadcast(ctx, &SbftMsg::Prepare { seq, view, tau });
    }

    /// Combines a collector's τ shares of one kind over `digest`, with
    /// the batch pairing check skipped when the verify pipeline already
    /// checked every share.
    fn combine_tau(
        &self,
        ctx: &mut Ctx<'_>,
        seq: SeqNum,
        view: ViewNum,
        kind: ShareKind,
        shares: &BTreeMap<u16, SignatureShare>,
        digest: &Digest,
    ) -> Option<Signature> {
        let preverified = self
            .shares
            .as_ref()
            .is_some_and(|m| m.all_preverified(seq, view, kind, shares.keys()));
        let shares: Vec<SignatureShare> = shares.values().copied().collect();
        ctx.charge_cpu_ns(self.cost.combine_threshold(self.config.tau_threshold()));
        if preverified {
            return self.public.tau.combine_preverified(&shares).ok();
        }
        ctx.charge_cpu_ns(self.cost.batch_verify_shares(shares.len()));
        self.public.tau.combine(DOMAIN_TAU, digest, &shares).ok()
    }

    pub(super) fn handle_prepare(
        &mut self,
        ctx: &mut Ctx<'_>,
        seq: SeqNum,
        view: ViewNum,
        tau: Signature,
    ) {
        if self.active_view() != Some(view) {
            return;
        }
        let Some(h) = self.slots.get(&seq.get()).and_then(|s| s.h) else {
            return;
        };
        ctx.charge_cpu_ns(self.cost.verify_signature());
        if !self.public.tau.verify_either(DOMAIN_TAU, &h, &tau) {
            return;
        }
        let commit_share_sent = {
            let slot = self.slot(seq);
            if slot.prepared.map(|(_, pv)| view > pv).unwrap_or(true) {
                slot.prepared = Some((tau, view));
            }
            let sent = slot.commit_share_sent;
            slot.commit_share_sent = true;
            sent
        };
        if commit_share_sent {
            return;
        }
        // Send the second-level τ share to the collectors.
        ctx.charge_cpu_ns(self.cost.sign_share());
        let d2 = commit2_digest(seq, view, &h);
        let share = self.my_keys.tau.sign(DOMAIN_TAU, &d2);
        let msg = SbftMsg::CommitShare { seq, view, share };
        for &collector in self.c_collectors(seq, view).iter() {
            self.send_to(ctx, collector, msg.clone());
        }
    }

    pub(super) fn handle_commit_share(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        seq: SeqNum,
        view: ViewNum,
        share: SignatureShare,
    ) {
        if self.active_view() != Some(view) {
            return;
        }
        let Some(my_index) = self.my_c_collector_index(seq, view) else {
            return;
        };
        if share.index() != (from + 1) as u16 {
            return;
        }
        if from == self.id.as_usize() {
            if let Some(map) = &self.shares {
                map.record(seq, view, share.index(), ShareKind::Commit2);
            }
        }
        ctx.charge_cpu_ns(self.cost.hash(70));
        let tau_threshold = self.config.tau_threshold();
        let stagger = self.timers.collector_stagger(&self.config);
        let eff_index = self.effective_stagger_index(seq, view, my_index, ctx.now());
        let slot = self.slot(seq);
        slot.commit2_shares.insert(share.index(), share);
        if slot.commit2_shares.len() >= tau_threshold && !slot.slow_proof_sent && !slot.committed()
        {
            slot.slow_proof_sent = true;
            if acts_now(ctx, eff_index, stagger, timer::STAGGER_SLOW, seq) {
                self.emit_slow_proof(ctx, seq, view);
            }
        }
    }

    pub(super) fn emit_slow_proof(&mut self, ctx: &mut Ctx<'_>, seq: SeqNum, view: ViewNum) {
        let Some(h) = self.slots.get(&seq.get()).and_then(|s| s.h) else {
            return;
        };
        let slot = self.slots.get(&seq.get()).expect("slot exists");
        if slot.committed() {
            return;
        }
        let d2 = commit2_digest(seq, view, &h);
        let shares = &slot.commit2_shares;
        let Some(tau2) = self.combine_tau(ctx, seq, view, ShareKind::Commit2, shares, &d2) else {
            return;
        };
        ctx.incr("slow_commits", 1);
        self.broadcast(ctx, &SbftMsg::FullCommitProofSlow { seq, view, tau2 });
    }

    // ---------- commit (§V-C "Commit trigger") ----------

    pub(super) fn handle_full_commit_proof(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        seq: SeqNum,
        view: ViewNum,
        cert: CommitCert,
    ) {
        if seq.get() <= self.last_stable.get() {
            return;
        }
        let Some(h) = self
            .slots
            .get(&seq.get())
            .filter(|s| s.view == Some(view))
            .and_then(|s| s.h)
        else {
            // Pre-prepare not here yet: park the certificate until the
            // block it claims to certify is known.
            let slot = self.slot(seq);
            if !slot.committed() {
                slot.parked_certs.retain(|(sender, _, _)| *sender != from);
                slot.parked_certs.push((from, view, cert));
            }
            return;
        };
        ctx.charge_cpu_ns(self.cost.verify_signature());
        let valid = match &cert {
            CommitCert::Fast(sigma) => self.public.sigma.verify_either(DOMAIN_SIGMA, &h, sigma),
            CommitCert::Slow(tau2) => {
                let d2 = commit2_digest(seq, view, &h);
                self.public.tau.verify_either(DOMAIN_TAU, &d2, tau2)
            }
        };
        if !valid {
            return;
        }
        self.commit(ctx, seq, view, cert);
    }

    /// The pre-prepare of `seq` arrived: check the certificates parked
    /// for it in arrival order until one commits the slot. One that fails
    /// is dropped, so the collector and fallback paths run as if it had
    /// never come; one for another view parks again.
    pub(super) fn commit_parked_certs(&mut self, ctx: &mut Ctx<'_>, seq: SeqNum) {
        for (from, view, cert) in std::mem::take(&mut self.slot(seq).parked_certs) {
            if self.slot(seq).committed() {
                break;
            }
            self.handle_full_commit_proof(ctx, from, seq, view, cert);
        }
    }

    /// Fills slot `seq` with a block certified elsewhere (a new-view
    /// decision, a block fill, a WAL record) for [`Self::commit`];
    /// returns its digest, or `None` if the slot already committed.
    pub(super) fn adopt_block(
        &mut self,
        seq: SeqNum,
        view: ViewNum,
        requests: Vec<ClientRequest>,
    ) -> Option<Digest> {
        let h = block_digest(seq, view, &requests);
        let slot = self.slot(seq);
        if slot.committed() {
            return None;
        }
        slot.view = Some(view);
        slot.requests = Some(requests);
        slot.h = Some(h);
        Some(h)
    }

    pub(super) fn commit(
        &mut self,
        ctx: &mut Ctx<'_>,
        seq: SeqNum,
        view: ViewNum,
        cert: CommitCert,
    ) {
        let now = ctx.now();
        let slot = self.slot(seq);
        if slot.committed() {
            return;
        }
        let Some(requests) = slot.requests.clone() else {
            return; // every caller fills the block first
        };
        let first_seen = slot.first_seen;
        let fast_commit = matches!(cert, CommitCert::Fast(_));
        let cert_logged = cert.clone();
        slot.commit_cert = Some((view, cert));
        slot.parked_certs.clear();
        if let Some(t) = slot.fast_timer.take() {
            ctx.cancel_timer(t);
        }
        if fast_commit {
            self.consecutive_fallbacks = 0;
        }
        // Committed progress in this view: reset the view-change backoff
        // so the next stall starts the doubling ladder from the adaptive
        // base again instead of wherever the last storm left it.
        self.vc_attempts = 0;
        // Only slots where σ was actually attempted are evidence about
        // the fast path: a released replica goes straight to the linear
        // path on non-probe slots, and counting those as "σ failed"
        // would keep the hysteresis pinned open forever.
        if fast_commit || self.fast_path_active(seq) {
            self.hysteresis.observe(fast_commit);
        }
        if let Some(first_seen) = first_seen {
            // Pre-prepare → commit latency feeds the adaptive view
            // timeout (absent on WAL-replayed or view-change slots).
            self.timers.observe_commit(now.since(first_seen));
        }
        ctx.incr("committed_blocks", 1);
        ctx.incr("committed_requests", requests.len() as u64);
        for r in &requests {
            self.trace_phase(ctx, r.client.get(), r.timestamp, Phase::Committed);
        }
        self.ledger.commit(Block {
            seq,
            view: view.get(),
            ops: requests.iter().map(|r| r.to_wire_bytes()).collect(),
        });
        if let Some(dur) = &mut self.durability {
            // Log the decision as a self-contained block fill (block +
            // certificate): the exact bytes recovery replays through the
            // commit path. The certificate was verified before reaching
            // here, so replay can trust its own log. Fsync batching is
            // the store's policy; commits already arrive group-batched.
            let record = SbftMsg::BlockFill {
                seq,
                view,
                requests: requests.clone(),
                cert: cert_logged,
            };
            dur.log_commit(seq.get(), &record.to_wire_bytes());
        }
        self.try_execute(ctx);
        if self.is_primary() {
            self.maybe_propose(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariantFlags;
    use sbft_sim::{Metrics, SimRng};
    use sbft_statedb::KvService;

    /// Regression (liveness): the view-change backoff used to double
    /// forever — `vc_attempts` only reset when the *watchdog* later
    /// observed progress, so a commit landing right after a view-change
    /// storm left the next stall starting from a multi-second timeout.
    /// Committing a block must reset the ladder immediately.
    #[test]
    fn commit_resets_view_change_backoff() {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(1),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        // Simulate surviving a storm: several failed attempts, then the
        // cluster stabilises and a block commits in the current view.
        node.vc_attempts = 5;
        let seq = SeqNum::new(1);
        let h = block_digest(seq, ViewNum::ZERO, &[]);
        {
            let slot = node.slot(seq);
            slot.view = Some(ViewNum::ZERO);
            slot.requests = Some(Vec::new());
            slot.h = Some(h);
        }
        let mut rng = SimRng::new(0);
        let mut metrics = Metrics::new(false);
        let mut next_timer_id = 0u64;
        let mut ctx =
            Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
        let d2 = commit2_digest(seq, ViewNum::ZERO, &h);
        let shares: Vec<_> = keys
            .replicas
            .iter()
            .take(config.tau_threshold())
            .map(|r| r.tau.sign(DOMAIN_TAU, &d2))
            .collect();
        let tau2 = keys.public.tau.combine(DOMAIN_TAU, &d2, &shares).unwrap();
        node.commit(&mut ctx, seq, ViewNum::ZERO, CommitCert::Slow(tau2));
        drop(ctx.into_effects());

        assert!(node.slots[&seq.get()].committed(), "block committed");
        assert_eq!(
            node.vc_attempts, 0,
            "committed progress must reset the view-change backoff ladder"
        );
    }
}
