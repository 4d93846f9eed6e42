//! Client requests, batching and the σ fast path (§V-C).

use super::*;

impl ReplicaNode {
    pub(super) fn handle_request(&mut self, ctx: &mut Ctx<'_>, request: ClientRequest) {
        ctx.charge_cpu_ns(self.cost.verify_request());
        let key = (request.client.get(), request.timestamp);
        if let Some(last) = self.client_table.get(&key.0) {
            // Already executed: answer directly (client retry path, §V-A).
            if request.timestamp == last.timestamp {
                let reply = self.make_reply(last.seq, &request, last.result.clone());
                ctx.send(self.client_node(request.client), reply);
                return;
            }
            if request.timestamp < last.timestamp {
                return;
            }
        }
        self.trace_phase(ctx, key.0, key.1, Phase::Received);
        let primary = self.config.primary(self.view);
        if primary == self.id {
            // During a view change this view's primary cannot propose,
            // and forwarding would loop the request straight back to
            // ourselves forever: it parks in `pending`, and the new-view
            // flow re-runs `maybe_propose`.
            let proposed = self
                .proposed_table
                .get(&request.client.get())
                .copied()
                .unwrap_or(0);
            if request.timestamp > proposed {
                self.proposed_table
                    .insert(request.client.get(), request.timestamp);
                self.pending.push_back(request);
                self.maybe_propose(ctx);
            }
        } else {
            // Forward to the primary and watch for progress.
            self.forwarded.insert(key, ());
            self.send_to(ctx, primary, SbftMsg::Request(request));
        }
        self.arm_watchdog(ctx);
    }

    /// Proposed blocks not yet committed.
    pub(super) fn in_flight(&self) -> usize {
        self.slots
            .values()
            .filter(|s| s.requests.is_some() && !s.committed())
            .count()
    }

    fn adaptive_batch_target(&self) -> usize {
        // §V-C / §VIII: batch ≈ pending / (half the allowed concurrency).
        let half_window = (self.config.max_in_flight / 2).max(1);
        (self.pending.len() / half_window).clamp(1, self.config.max_block_requests)
    }

    pub(super) fn maybe_propose(&mut self, ctx: &mut Ctx<'_>) {
        if !self.is_primary() || self.active_view().is_none() {
            return;
        }
        while !self.pending.is_empty()
            && self.in_flight() < self.config.max_in_flight
            && self.next_proposal.get() <= self.last_stable.get() + self.config.window
        {
            // Group commit: let requests pool until the batch floor is
            // met so each round carries a full batch; the batch timer
            // bounds how long a partial batch waits. A solitary request
            // on a fully idle pipeline proposes instantly — pooling only
            // pays once there is a cohort to pool.
            // The floor tracks the observed cohort: pool until roughly
            // the last block's worth of requests (with headroom to grow)
            // has arrived, never beyond `min_batch`.
            let floor = if self.in_flight() == 0 && self.last_block_len <= 2 {
                1
            } else {
                // `.max(1)` twice: a zero cap (min_batch = 0) must mean
                // "no pooling", not a clamp(1, 0) panic.
                let cap = self
                    .config
                    .min_batch
                    .min(self.config.max_block_requests)
                    .max(1);
                (self.last_block_len * 2).clamp(1, cap)
            };
            let target = self.adaptive_batch_target().max(floor);
            if self.pending.len() < target {
                // Wait for the batch to fill (or the batch timer).
                if !self.batch_timer_set {
                    self.batch_timer_set = true;
                    ctx.set_timer(self.config.batch_delay, timer::token(timer::BATCH, 0));
                }
                return;
            }
            self.propose_block(ctx);
        }
    }

    /// The batch timer: propose whatever is pending, full block or not.
    pub(super) fn on_batch_timer(&mut self, ctx: &mut Ctx<'_>) {
        self.batch_timer_set = false;
        if self.is_primary()
            && self.active_view().is_some()
            && !self.pending.is_empty()
            && self.in_flight() < self.config.max_in_flight
        {
            self.propose_block(ctx);
        }
    }

    /// Proposes up to a full block of the pending requests at the next
    /// sequence number.
    fn propose_block(&mut self, ctx: &mut Ctx<'_>) {
        let take = self.pending.len().min(self.config.max_block_requests);
        let requests: Vec<ClientRequest> = self.pending.drain(..take).collect();
        let seq = self.next_proposal;
        self.next_proposal = self.next_proposal.next();
        self.last_block_len = requests.len();
        ctx.charge_cpu_ns(self.cost.hash(64 * requests.len()));
        if self.behavior == Behavior::EquivocatingPrimary && requests.len() >= 2 {
            // Conflicting but individually valid proposals to two halves.
            let (even, odd) = requests.split_at(requests.len() / 2);
            for r in 0..self.n() {
                let requests = if r % 2 == 0 { even } else { odd }.to_vec();
                ctx.send(
                    r,
                    SbftMsg::PrePrepare {
                        seq,
                        view: self.view,
                        requests,
                    },
                );
            }
            return;
        }
        let msg = SbftMsg::PrePrepare {
            seq,
            view: self.view,
            requests,
        };
        self.broadcast(ctx, &msg);
    }

    // ---------- pre-prepare & sign-share ----------

    pub(super) fn handle_pre_prepare(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        seq: SeqNum,
        view: ViewNum,
        requests: Vec<ClientRequest>,
    ) {
        if self.active_view() != Some(view) {
            return;
        }
        if from != self.config.primary(view).as_usize() {
            return;
        }
        if seq.get() <= self.last_stable.get()
            || seq.get() > self.last_stable.get() + self.config.window
        {
            return;
        }
        let h = block_digest(seq, view, &requests);
        let slot = self.slot(seq);
        if slot.committed() || (slot.view == Some(view) && slot.h == Some(h)) {
            return; // decided, or a duplicate
        }
        if slot.view == Some(view) && slot.h.is_some() {
            // Equivocation: publicly verifiable proof the primary is
            // faulty — trigger a view change (§V-G).
            self.start_view_change(ctx, view.next());
            return;
        }
        for r in &requests {
            self.trace_phase(ctx, r.client.get(), r.timestamp, Phase::PrePrepared);
        }
        // The boundary checked the client signatures of a backup's
        // pre-prepare; the primary's own carries requests it already
        // paid for when they arrived.
        if from != self.id.as_usize() {
            ctx.charge_cpu_ns(self.cost.verify_request() * requests.len() as u64);
        }
        ctx.charge_cpu_ns(
            self.cost
                .hash(requests.iter().map(|r| r.op.len() + 64).sum()),
        );
        let (sigma, tau) = self.sign_block(ctx, &h);
        {
            let now = ctx.now();
            let slot = self.slot(seq);
            slot.view = Some(view);
            slot.first_seen = Some(now);
            slot.requests = Some(requests);
            slot.h = Some(h);
            slot.my_sigma_share = sigma;
        }
        self.send_sign_share(ctx, seq, view, h, sigma, tau);
        if self.tracer.is_some() {
            if let Some(reqs) = self.slots.get(&seq.get()).and_then(|s| s.requests.as_ref()) {
                for r in reqs {
                    self.trace_phase(ctx, r.client.get(), r.timestamp, Phase::ShareSigned);
                }
            }
        }
        // Commit proofs may have arrived before the pre-prepare.
        self.commit_parked_certs(ctx, seq);
        self.arm_watchdog(ctx);
    }

    /// Signs block digest `h` with a σ share (fast path only) and a τ
    /// share (linear path).
    pub(super) fn sign_block(
        &self,
        ctx: &mut Ctx<'_>,
        h: &Digest,
    ) -> (Option<SignatureShare>, SignatureShare) {
        let sigma = self.config.flags.fast_path.then(|| {
            ctx.charge_cpu_ns(self.cost.sign_share());
            self.my_keys.sigma.sign(DOMAIN_SIGMA, h)
        });
        ctx.charge_cpu_ns(self.cost.sign_share());
        (sigma, self.my_keys.tau.sign(DOMAIN_TAU, h))
    }

    /// Sends this replica's shares on slot `seq` to its C-collectors,
    /// first publishing the slot's digest so verify-pool workers can
    /// pre-check the σ/τ shares that arrive from here on.
    pub(super) fn send_sign_share(
        &mut self,
        ctx: &mut Ctx<'_>,
        seq: SeqNum,
        view: ViewNum,
        h: Digest,
        sigma: Option<SignatureShare>,
        tau: SignatureShare,
    ) {
        if let Some(map) = &self.shares {
            map.publish_digest(seq, view, h);
        }
        let msg = SbftMsg::SignShare {
            seq,
            view,
            sigma,
            tau,
        };
        for &collector in self.c_collectors(seq, view).iter() {
            self.send_to(ctx, collector, msg.clone());
        }
    }

    /// The §VIII adaptive switch: keep waiting for the fast path only
    /// while it has been succeeding recently; once the σ-completion-rate
    /// hysteresis releases, go straight to the linear path, probing the
    /// fast path again every `FAST_PROBE_PERIOD`-th sequence number to
    /// detect recovery.
    pub(super) fn fast_path_active(&self, seq: SeqNum) -> bool {
        self.config.flags.fast_path && self.hysteresis.attempt_fast(seq.get())
    }

    pub(super) fn handle_sign_share(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        seq: SeqNum,
        view: ViewNum,
        sigma: Option<SignatureShare>,
        tau: SignatureShare,
    ) {
        if self.active_view() != Some(view) {
            return;
        }
        let Some(my_index) = self.my_c_collector_index(seq, view) else {
            return;
        };
        let share_index = (from + 1) as u16;
        if tau.index() != share_index || sigma.map(|s| s.index() != share_index).unwrap_or(false) {
            return;
        }
        // Our own shares skip the verify pipeline (loopback): mark them
        // directly so a slot where every peer share was pre-verified can
        // still take the combine fast path.
        if from == self.id.as_usize() {
            if let Some(map) = &self.shares {
                map.record(seq, view, tau.index(), ShareKind::Tau);
                if let Some(sigma) = sigma {
                    map.record(seq, view, sigma.index(), ShareKind::Sigma);
                }
            }
        }
        ctx.charge_cpu_ns(self.cost.hash(70));
        let now = ctx.now();
        let fast_enabled = self.fast_path_active(seq);
        let sigma_threshold = self.config.sigma_threshold();
        let tau_threshold = self.config.tau_threshold();
        let stagger = self.timers.collector_stagger(&self.config);
        let fast_timeout = self.timers.fast_path_timeout(&self.config);
        // Suspected collectors ranked ahead of us will not act: discount
        // them so the next live collector fires in their stagger slot.
        let eff_index = self.effective_stagger_index(seq, view, my_index, now);

        let slot = self.slot(seq);
        if let Some(sigma) = sigma {
            slot.sigma_shares.insert(sigma.index(), sigma);
        }
        slot.tau_shares.insert(tau.index(), tau);

        // Fast trigger: enough σ shares → (staggered) combine + broadcast.
        if fast_enabled
            && slot.sigma_shares.len() >= sigma_threshold
            && !slot.fast_proof_sent
            && !slot.committed()
        {
            slot.fast_proof_sent = true;
            if let Some(t) = slot.fast_timer.take() {
                ctx.cancel_timer(t);
            }
            let gap = slot.first_seen.map(|t| now.since(t));
            if let Some(gap) = gap {
                // Pre-prepare → σ-threshold gap: the sample behind the
                // adaptive fast-path timeout and collector stagger.
                self.timers.observe_sigma_gap(gap);
            }
            if acts_now(ctx, eff_index, stagger, timer::STAGGER_FAST, seq) {
                self.emit_fast_proof(ctx, seq, view);
            }
            return;
        }

        // Slow trigger (§V-E): τ threshold reached but not σ — wait the
        // fast-path timeout, then fall back to linear PBFT.
        if slot.tau_shares.len() >= tau_threshold
            && !slot.prepare_sent
            && !slot.fast_proof_sent
            && !slot.committed()
        {
            if !fast_enabled {
                slot.prepare_sent = true;
                if acts_now(ctx, eff_index, stagger, timer::STAGGER_PREPARE, seq) {
                    self.emit_prepare(ctx, seq, view);
                }
            } else if slot.fast_timer.is_none() {
                let t = ctx.set_timer(
                    fast_timeout + stagger.saturating_mul(eff_index as u64),
                    timer::token(timer::FAST_TIMEOUT, seq.get()),
                );
                slot.fast_timer = Some(t);
            }
        }
    }

    /// Collector stagger slot for this replica, discounted by suspected
    /// collectors ranked ahead of it: when the first collector looks
    /// dead to the failure detector, the second acts in its slot
    /// immediately instead of waiting out the full stagger ladder.
    pub(super) fn effective_stagger_index(
        &mut self,
        seq: SeqNum,
        view: ViewNum,
        my_index: usize,
        now: SimTime,
    ) -> usize {
        if my_index == 0 {
            return 0;
        }
        let suspected_ahead = self
            .c_collectors(seq, view)
            .iter()
            .take(my_index)
            .filter(|r| **r != self.id && self.detector.suspected(r.as_usize(), now))
            .count();
        my_index.saturating_sub(suspected_ahead)
    }

    pub(super) fn emit_fast_proof(&mut self, ctx: &mut Ctx<'_>, seq: SeqNum, view: ViewNum) {
        let n = self.n();
        let Some(h) = self.slots.get(&seq.get()).and_then(|s| s.h) else {
            return;
        };
        let slot = self.slots.get(&seq.get()).expect("slot exists");
        if slot.committed() {
            return; // someone else's proof arrived meanwhile
        }
        let shares: Vec<SignatureShare> = slot.sigma_shares.values().copied().collect();
        // Shares the verify pipeline already pairing-checked against the
        // published slot digest (plus our own) skip the combine-time
        // batch verification.
        let preverified = self
            .shares
            .as_ref()
            .map(|m| m.all_preverified(seq, view, ShareKind::Sigma, slot.sigma_shares.keys()))
            .unwrap_or(false);
        if !preverified {
            ctx.charge_cpu_ns(self.cost.batch_verify_shares(shares.len()));
        }
        // §VIII: use the n-of-n group signature when every replica signed;
        // fall back to threshold interpolation otherwise.
        let sigma = if shares.len() == n {
            ctx.charge_cpu_ns(self.cost.combine_multisig(n));
            self.public
                .sigma
                .combine_multisig(DOMAIN_SIGMA, &h, &shares)
        } else {
            ctx.charge_cpu_ns(self.cost.combine_threshold(self.config.sigma_threshold()));
            if preverified {
                self.public.sigma.combine_preverified(&shares)
            } else {
                self.public.sigma.combine(DOMAIN_SIGMA, &h, &shares)
            }
        };
        let Ok(sigma) = sigma else {
            return; // not enough valid shares after filtering
        };
        ctx.incr("fast_commits", 1);
        self.broadcast(ctx, &SbftMsg::FullCommitProof { seq, view, sigma });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariantFlags;
    use sbft_sim::{Metrics, SimRng};
    use sbft_statedb::KvService;

    /// Regression: a replica that is the primary of its *own* (view-change
    /// in progress) view used to forward incoming requests "to the
    /// primary" — itself — creating an infinite self-send cycle that
    /// pinned the wall-clock runtime at 100% CPU. The request must be
    /// parked in `pending`, never sent back to ourselves.
    #[test]
    fn request_during_view_change_to_self_primary_is_parked_not_looped() {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(1),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        let mut rng = SimRng::new(0);
        let mut metrics = Metrics::new(false);
        let mut next_timer_id = 0u64;
        let me: NodeId = 1;
        // View 1 (primary = replica 1) with the view change still in
        // progress: exactly the state a severed replica reaches after a
        // timeout, before it can assemble a new-view quorum.
        let mut ctx = Context::external(
            SimTime::ZERO,
            me,
            &mut rng,
            &mut metrics,
            &mut next_timer_id,
        );
        node.start_view_change(&mut ctx, ViewNum::new(1));
        drop(ctx.into_effects());
        assert!(node.in_view_change() && node.view() == ViewNum::new(1));

        let client = ClientId::new(0);
        let request = ClientRequest::signed(
            client,
            1,
            b"put k v".to_vec(),
            &keys.public.client_keys(client),
        );
        let mut ctx = Context::external(
            SimTime::ZERO,
            me,
            &mut rng,
            &mut metrics,
            &mut next_timer_id,
        );
        node.on_message(config.n(), SbftMsg::Request(request), &mut ctx);
        let effects = ctx.into_effects();

        assert!(
            effects.sends.iter().all(|(to, _)| *to != me),
            "request must not be forwarded back to ourselves"
        );
        assert_eq!(node.pending.len(), 1, "request parks for the new view");
    }

    /// Collector stagger reorder: when the first-ranked collector is
    /// suspected dead, the second-ranked one takes over slot 0 of the
    /// stagger ladder instead of always waiting out its own slot.
    #[test]
    fn suspected_collector_ahead_shrinks_stagger_index() {
        let config = ProtocolConfig::new(1, 1, VariantFlags::SBFT); // n=6, c+1=2 collectors
        let keys = KeyMaterial::generate(&config, 0x5eed);
        // Find a (seq, view) whose collector list has distinct first and
        // second entries, and run as the second-ranked collector.
        let seq = SeqNum::new(1);
        let view = ViewNum::ZERO;
        let collectors = config.c_collectors(seq, view);
        assert!(collectors.len() >= 2);
        let first = collectors[0];
        let me = collectors[1];
        let mut node = ReplicaNode::new(
            config.clone(),
            me,
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        let now = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(
            node.effective_stagger_index(seq, view, 1, now),
            1,
            "an unknown (never-seen) peer carries no suspicion"
        );
        // The first collector was alive at t=0 and silent ever since.
        node.detector.note_seen(first.as_usize(), SimTime::ZERO);
        assert_eq!(
            node.effective_stagger_index(seq, view, 1, now),
            0,
            "a suspected collector ahead of us yields its stagger slot"
        );
    }
}
