//! The view change (§V-G) and its three `Status` transitions: enter a
//! view change, park a new-view plan until state transfer reaches its
//! stable checkpoint, install the view. A parked plan lives inside
//! `Status::ViewChange`, so it dies with its view change.

use super::*;

impl ReplicaNode {
    /// Whether `target` is a view this replica has neither installed nor
    /// moved past: view-change and new-view traffic for any other view
    /// is stale.
    fn awaits_view(&self, target: ViewNum) -> bool {
        target >= self.view && self.active_view() != Some(target)
    }

    /// Enters a view change to `target`: the only transition into
    /// `Status::ViewChange` with no plan, so any plan still awaiting
    /// state for an earlier target is dropped here.
    pub(super) fn start_view_change(&mut self, ctx: &mut Ctx<'_>, target: ViewNum) {
        if self.active_view().is_none() && target <= self.view {
            return;
        }
        ctx.incr("view_changes_started", 1);
        self.status = Status::ViewChange {
            awaiting_state: None,
        };
        self.view = target;
        self.vc_attempts = self.vc_attempts.saturating_add(1);
        self.pending.clear();
        self.proposed_table.clear();
        let vc = self.build_view_change(target);
        self.broadcast(ctx, &SbftMsg::ViewChange(vc));
        // Retry with exponential backoff if this view does not form.
        let backoff = self
            .timers
            .view_timeout(&self.config)
            .saturating_mul(1u64 << self.vc_attempts.min(6));
        ctx.set_timer(backoff, timer::token(timer::VC_RETRY, target.get()));
    }

    /// The view change to `target` did not complete in time: escalate.
    pub(super) fn on_view_change_retry(&mut self, ctx: &mut Ctx<'_>, target: ViewNum) {
        if self.active_view().is_none() && self.view == target {
            self.start_view_change(ctx, target.next());
        }
    }

    fn build_view_change(&self, target: ViewNum) -> ViewChangeMsg {
        if self.behavior == Behavior::StaleViewChange {
            return ViewChangeMsg {
                from: self.id,
                new_view: target,
                last_stable: SeqNum::ZERO,
                checkpoint: None,
                entries: Vec::new(),
            };
        }
        let mut entries = Vec::new();
        for (seq, slot) in &self.slots {
            if *seq <= self.last_stable.get() {
                continue;
            }
            let slow = match (&slot.commit_cert, slot.prepared) {
                (Some((view, CommitCert::Slow(tau2))), _) => SlowEvidence::CommittedSlow {
                    view: *view,
                    tau2: *tau2,
                    requests: slot.requests.clone().expect("committed slot has requests"),
                },
                (_, Some((tau, view))) if slot.requests.is_some() => SlowEvidence::Prepared {
                    view,
                    tau,
                    requests: slot.requests.clone().expect("checked"),
                },
                _ => SlowEvidence::None,
            };
            let fast = match (&slot.commit_cert, slot.my_sigma_share) {
                (Some((view, CommitCert::Fast(sigma))), _) => FastEvidence::CommittedFast {
                    view: *view,
                    sigma: *sigma,
                    requests: slot.requests.clone().expect("committed slot has requests"),
                },
                (_, Some(share)) if slot.requests.is_some() => FastEvidence::PrePrepared {
                    view: slot.view.expect("share implies pre-prepare"),
                    share,
                    requests: slot.requests.clone().expect("checked"),
                },
                _ => FastEvidence::None,
            };
            if matches!((&slow, &fast), (SlowEvidence::None, FastEvidence::None)) {
                continue;
            }
            entries.push(VcEntry {
                seq: SeqNum::new(*seq),
                slow,
                fast,
            });
        }
        ViewChangeMsg {
            from: self.id,
            new_view: target,
            last_stable: self.last_stable,
            checkpoint: self.stable_cert,
            entries,
        }
    }

    pub(super) fn handle_view_change(&mut self, ctx: &mut Ctx<'_>, vc: ViewChangeMsg) {
        if !self.awaits_view(vc.new_view) {
            return;
        }
        // View-change evidence is self-contained (certificates over
        // blocks the message itself carries): the inbound boundary
        // validated it. New-view quorums are re-validated per entry in
        // `handle_new_view` — that filter decides liveness, not just
        // validity.
        ctx.charge_cpu_ns(self.cost.verify_signature() * (1 + vc.entries.len() as u64));
        let entry = self.vc_messages.entry(vc.new_view.get()).or_default();
        entry.insert(vc.from.get(), vc.clone());

        // Join rule: f+1 distinct replicas moving to a higher view.
        let target = vc.new_view;
        let count = self.vc_messages[&target.get()].len();
        if self.active_view().is_some_and(|view| target > view) && count >= self.config.f + 1 {
            self.start_view_change(ctx, target);
        }
        // New primary: assemble the quorum and install the view.
        self.try_form_new_view(ctx, target);
    }

    fn try_form_new_view(&mut self, ctx: &mut Ctx<'_>, target: ViewNum) {
        if self.config.primary(target) != self.id {
            return;
        }
        if !self.awaits_view(target) {
            return;
        }
        let Some(msgs) = self.vc_messages.get(&target.get()) else {
            return;
        };
        if msgs.len() < self.config.view_change_quorum() {
            return;
        }
        let vcs: Vec<ViewChangeMsg> = msgs.values().cloned().collect();
        let Some(plan) = compute_plan(&self.config, target, &vcs) else {
            return;
        };
        let nv = NewViewMsg {
            view: target,
            view_changes: vcs,
        };
        self.broadcast(ctx, &SbftMsg::NewView(nv));
        self.apply_plan(ctx, plan);
    }

    pub(super) fn handle_new_view(&mut self, ctx: &mut Ctx<'_>, from: NodeId, nv: NewViewMsg) {
        if !self.awaits_view(nv.view) {
            return;
        }
        if from != self.config.primary(nv.view).as_usize() {
            return;
        }
        // Validate the quorum: distinct senders, all evidence checks.
        let mut seen = std::collections::BTreeSet::new();
        let mut valid = Vec::new();
        let evidence: u64 = nv
            .view_changes
            .iter()
            .map(|vc| 1 + vc.entries.len() as u64)
            .sum();
        ctx.charge_cpu_ns(self.cost.verify_signature() * evidence);
        for vc in &nv.view_changes {
            if vc.new_view != nv.view || !seen.insert(vc.from) {
                continue;
            }
            if validate_view_change(&self.public, vc) {
                valid.push(vc.clone());
            }
        }
        let Some(plan) = compute_plan(&self.config, nv.view, &valid) else {
            return;
        };
        self.apply_plan(ctx, plan);
    }

    /// Installs `plan`'s view, or parks the plan until this replica has
    /// the state of the plan's stable checkpoint.
    fn apply_plan(&mut self, ctx: &mut Ctx<'_>, plan: NewViewPlan) {
        if plan.stable > self.last_executed {
            self.await_state(ctx, plan);
        } else {
            self.install_view(ctx, plan);
        }
    }

    /// Parks `plan` in `Status::ViewChange` for the plan's view and
    /// fetches the state it needs from the replica whose view-change
    /// message proved the plan's stable checkpoint: that replica holds
    /// it. One request per view — a repeated plan for the view already
    /// awaited replaces the parked one without asking again.
    fn await_state(&mut self, ctx: &mut Ctx<'_>, plan: NewViewPlan) {
        let asked = matches!(
            &self.status,
            Status::ViewChange { awaiting_state: Some(parked) } if parked.view == plan.view
        );
        if !asked {
            // A request latched by an earlier trigger or view must not
            // swallow this one.
            self.state_request_outstanding = false;
            self.request_state_transfer(ctx, plan.stable_from.as_usize());
        }
        self.view = plan.view;
        self.status = Status::ViewChange {
            awaiting_state: Some(plan),
        };
    }

    /// Installs the parked plan once state transfer has brought this
    /// replica up to its stable checkpoint.
    pub(super) fn install_awaited_view(&mut self, ctx: &mut Ctx<'_>) {
        let frontier = self.last_executed;
        let Status::ViewChange { awaiting_state } = &mut self.status else {
            return;
        };
        if let Some(plan) = awaiting_state.take_if(|plan| plan.stable <= frontier) {
            self.install_view(ctx, plan);
        }
    }

    /// Installs `plan`'s view: the only transition into
    /// `Status::Normal`.
    fn install_view(&mut self, ctx: &mut Ctx<'_>, plan: NewViewPlan) {
        ctx.incr("view_changes_completed", 1);
        self.view = plan.view;
        self.status = Status::Normal;
        self.vc_attempts = 0;
        self.vc_messages = self.vc_messages.split_off(&(plan.view.get()));
        // Shares signed in abandoned views can never combine: drop both
        // the pre-verifier map's entries and the per-slot collector share
        // accumulations (a slot the plan leaves out would otherwise pin
        // old-view shares until checkpoint GC).
        if let Some(map) = &self.shares {
            map.retain_views_from(plan.view);
        }
        let abandoned = |slot: &&mut Slot| !slot.committed() && slot.view != Some(plan.view);
        for slot in self.slots.values_mut().filter(abandoned) {
            slot.sigma_shares.clear();
            slot.tau_shares.clear();
            slot.commit2_shares.clear();
        }
        let is_primary = self.is_primary();
        let mut max_seq = self.last_stable;
        for (seq, decision) in plan.decisions {
            max_seq = max_seq.max(seq);
            if self
                .slots
                .get(&seq.get())
                .map(Slot::committed)
                .unwrap_or(false)
            {
                continue;
            }
            match decision {
                SlotDecision::Commit {
                    requests,
                    view,
                    cert,
                } => {
                    let h = self
                        .adopt_block(seq, view, requests)
                        .expect("not committed");
                    if let Some(map) = &self.shares {
                        map.publish_digest(seq, view, h);
                    }
                    self.commit(ctx, seq, view, cert);
                }
                SlotDecision::Propose { requests } => {
                    // Adopt as the new view's pre-prepare and sign-share.
                    let view = plan.view;
                    let h = block_digest(seq, view, &requests);
                    let (sigma, tau) = self.sign_block(ctx, &h);
                    let slot = self.slots.entry(seq.get()).or_default();
                    // Reset per-view collector state from older views.
                    *slot = Slot {
                        view: Some(view),
                        requests: Some(requests),
                        h: Some(h),
                        my_sigma_share: sigma,
                        prepared: slot.prepared,
                        exec_digest: slot.exec_digest,
                        ..Slot::default()
                    };
                    self.send_sign_share(ctx, seq, view, h, sigma, tau);
                }
            }
        }
        if is_primary {
            self.next_proposal = SeqNum::new(
                self.next_proposal
                    .get()
                    .max(max_seq.get() + 1)
                    .max(self.last_stable.get() + 1),
            );
            self.maybe_propose(ctx);
        }
        self.arm_watchdog(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariantFlags;
    use sbft_sim::{Effects, Metrics, SimRng};
    use sbft_statedb::{KvService, Ledger};

    /// Drives one replica through handler calls, as the simulator would.
    struct Driver {
        me: NodeId,
        rng: SimRng,
        metrics: Metrics,
        timer_ids: u64,
    }

    impl Driver {
        fn new(me: NodeId) -> Self {
            Driver {
                me,
                rng: SimRng::new(0),
                metrics: Metrics::new(false),
                timer_ids: 0,
            }
        }

        fn run(
            &mut self,
            node: &mut ReplicaNode,
            handler: impl FnOnce(&mut ReplicaNode, &mut Context<'_, SbftMsg>),
        ) -> Effects<SbftMsg> {
            let mut ctx = Context::external(
                SimTime::ZERO,
                self.me,
                &mut self.rng,
                &mut self.metrics,
                &mut self.timer_ids,
            );
            handler(node, &mut ctx);
            ctx.into_effects()
        }

        fn deliver(&mut self, node: &mut ReplicaNode, from: NodeId, msg: SbftMsg) {
            drop(self.run(node, |node, ctx| node.on_message(from, msg, ctx)));
        }
    }

    /// Replica 1 of an f = 1, c = 0 cluster (seq 1's first C-collector
    /// in view 0), seq 1's one-request block, and its digest.
    fn collector_with_block() -> (ReplicaNode, KeyMaterial, Vec<ClientRequest>, Digest) {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let node = ReplicaNode::new(
            config,
            ReplicaId::new(1),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        let client = ClientId::new(0);
        let op = b"put k v".to_vec();
        let requests = vec![ClientRequest::signed(
            client,
            1,
            op,
            &keys.public.client_keys(client),
        )];
        let h = block_digest(SeqNum::new(1), ViewNum::ZERO, &requests);
        (node, keys, requests, h)
    }

    /// σ over `digest`, combined from all four replicas' shares.
    fn sigma_over(keys: &KeyMaterial, digest: &Digest) -> Signature {
        let shares: Vec<_> = keys
            .replicas
            .iter()
            .map(|r| r.sigma.sign(DOMAIN_SIGMA, digest))
            .collect();
        keys.public
            .sigma
            .combine(DOMAIN_SIGMA, digest, &shares)
            .unwrap()
    }

    fn fast_proof(sigma: Signature) -> SbftMsg {
        SbftMsg::FullCommitProof {
            seq: SeqNum::new(1),
            view: ViewNum::ZERO,
            sigma,
        }
    }

    fn pre_prepare(requests: &[ClientRequest]) -> SbftMsg {
        SbftMsg::PrePrepare {
            seq: SeqNum::new(1),
            view: ViewNum::ZERO,
            requests: requests.to_vec(),
        }
    }

    fn sign_share(keys: &KeyMaterial, r: usize, h: &Digest) -> SbftMsg {
        SbftMsg::SignShare {
            seq: SeqNum::new(1),
            view: ViewNum::ZERO,
            sigma: Some(keys.replicas[r].sigma.sign(DOMAIN_SIGMA, h)),
            tau: keys.replicas[r].tau.sign(DOMAIN_TAU, h),
        }
    }

    /// Regression: a valid commit certificate that arrived before its
    /// pre-prepare used to be stored as the slot's commit, so the
    /// replica's view-change message claimed `CommittedFast` with an
    /// empty block, and every peer rejected the whole message.
    #[test]
    fn commit_proof_before_its_pre_prepare_keeps_view_change_valid() {
        let (mut node, keys, requests, h) = collector_with_block();
        let mut driver = Driver::new(1);
        driver.deliver(&mut node, 2, fast_proof(sigma_over(&keys, &h)));
        let vc = node.build_view_change(ViewNum::new(1));
        assert!(validate_view_change(&keys.public, &vc), "{vc:?}");
        assert!(node.committed_block(SeqNum::new(1)).is_none());

        // The pre-prepare arrives: the parked certificate commits it.
        driver.deliver(&mut node, 0, pre_prepare(&requests));
        assert_eq!(node.committed_block(SeqNum::new(1)), Some(&requests));
        let vc = node.build_view_change(ViewNum::new(1));
        assert!(matches!(
            vc.entries[0].fast,
            FastEvidence::CommittedFast { .. }
        ));
        assert!(validate_view_change(&keys.public, &vc));
    }

    /// Regression: one invalid σ, sent before the pre-prepare, used to
    /// stall the slot at its collector. It sat in the slot as if it were
    /// a commit, so the collector never combined σ from the four shares
    /// (nor fell back to τ when σ was short), and its view-change message
    /// carried the bad σ.
    #[test]
    fn invalid_commit_proof_before_its_pre_prepare_does_not_stall_the_collector() {
        let forged = sigma_over(&keys_for_forgery(), &sbft_crypto::sha256(b"another block"));
        for shares in [4, 3] {
            let (mut node, keys, requests, h) = collector_with_block();
            let mut driver = Driver::new(1);
            driver.deliver(&mut node, 3, fast_proof(forged));
            driver.deliver(&mut node, 0, pre_prepare(&requests));
            assert!(node.committed_block(SeqNum::new(1)).is_none());
            let mut sent = Vec::new();
            for r in 0..shares {
                let msg = sign_share(&keys, r, &h);
                sent.extend(
                    driver
                        .run(&mut node, |node, ctx| node.on_message(r, msg, ctx))
                        .sends,
                );
            }
            if shares == 3 {
                // σ is one share short: the fast-path timeout falls back
                // to the linear path.
                let token = timer::token(timer::FAST_TIMEOUT, 1);
                sent.extend(
                    driver
                        .run(&mut node, |node, ctx| node.on_timer(token, ctx))
                        .sends,
                );
            }
            let mut to: Vec<NodeId> = sent
                .iter()
                .filter(|(_, msg)| match shares {
                    4 => matches!(msg, SbftMsg::FullCommitProof { .. }),
                    _ => matches!(msg, SbftMsg::Prepare { .. }),
                })
                .map(|(dest, _)| *dest)
                .collect();
            to.sort_unstable();
            assert_eq!(to, vec![0, 1, 2, 3], "with {shares} shares");
            let vc = node.build_view_change(ViewNum::new(1));
            assert!(validate_view_change(&keys.public, &vc), "{vc:?}");
        }
    }

    /// Key material of another deployment: its σ verifies nowhere here.
    fn keys_for_forgery() -> KeyMaterial {
        KeyMaterial::generate(&ProtocolConfig::new(1, 0, VariantFlags::SBFT), 0xbad)
    }

    /// Regression: collector share accumulations and the pre-verifier's
    /// slot-digest map used to drain only when a slot executed — a view
    /// change that abandoned the slot left both growing until checkpoint
    /// GC. Installing a new view must drop share state from older views.
    #[test]
    fn view_install_drops_share_state_of_abandoned_slots() {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(1),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        let map = std::sync::Arc::new(ShareVerifyMap::new());
        node.set_share_map(map.clone());

        // An uncommitted view-0 slot with accumulated collector shares
        // and a published digest + pre-verified marks.
        let seq = SeqNum::new(1);
        let h = sbft_crypto::sha256(b"abandoned block");
        {
            let slot = node.slot(seq);
            slot.view = Some(ViewNum::ZERO);
            slot.h = Some(h);
            for r in 0..3u16 {
                let share = keys.replicas[r as usize].tau.sign(DOMAIN_TAU, &h);
                slot.tau_shares.insert(share.index(), share);
                slot.sigma_shares.insert(
                    share.index(),
                    keys.replicas[r as usize].sigma.sign(DOMAIN_SIGMA, &h),
                );
            }
        }
        map.publish_digest(seq, ViewNum::ZERO, h);
        map.record(seq, ViewNum::ZERO, 1, ShareKind::Tau);
        assert_ne!(map.len(), (0, 0));

        // Install view 1 with no decisions for the slot (abandoned).
        let mut driver = Driver::new(1);
        drop(driver.run(&mut node, |node, ctx| {
            node.apply_plan(
                ctx,
                NewViewPlan {
                    view: ViewNum::new(1),
                    stable: SeqNum::ZERO,
                    stable_from: ReplicaId::new(0),
                    decisions: Vec::new(),
                },
            )
        }));

        assert!(map.is_empty(), "view-0 share map entries must be dropped");
        let slot = node.slots.get(&seq.get()).expect("slot still tracked");
        assert!(slot.sigma_shares.is_empty(), "σ shares dropped");
        assert!(slot.tau_shares.is_empty(), "τ shares dropped");
    }

    /// Regression: a new-view plan parked behind state transfer used to
    /// outlive its view change. Replica 1 parks view 1's plan (stable
    /// checkpoint 4, ahead of its empty log), then moves on to view 2
    /// and installs it; when checkpoint 4's state finally lands, the
    /// stale plan must not move the replica back to view 1.
    #[test]
    fn awaited_state_landing_after_a_later_view_does_not_move_the_view_back() {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(1),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        let mut driver = Driver::new(1);

        // Checkpoint 4, certified by π combined from two replicas' shares.
        let stable = SeqNum::new(4);
        let mut state = AuthKv::new();
        for k in 0..3u8 {
            state.insert(&[k], vec![k; 8]);
        }
        let state_root = state.root();
        let results_root = sbft_crypto::sha256(b"results at checkpoint 4");
        let digest = combine_state_digest(stable, &state_root, &results_root);
        let shares: Vec<_> = [0, 2]
            .iter()
            .map(|&r| keys.replicas[r].pi.sign(DOMAIN_PI, &digest))
            .collect();
        let pi = keys.public.pi.combine(DOMAIN_PI, &digest, &shares).unwrap();
        let mut ledger = Ledger::new();
        ledger.install_checkpoint(Checkpoint {
            seq: stable,
            state_digest: digest,
            state,
        });
        let chunks = ledger.export_chunks(2);
        assert!(chunks.len() > 1);

        let vc = |from: u32, view: u64, proven: bool| ViewChangeMsg {
            from: ReplicaId::new(from),
            new_view: ViewNum::new(view),
            last_stable: if proven { stable } else { SeqNum::ZERO },
            checkpoint: proven.then_some((digest, pi)),
            entries: Vec::new(),
        };

        // View 1 (replica 1 leads it): f+1 view changes pull replica 1
        // in, the third completes the quorum, and the plan's stable
        // checkpoint 4 is ahead of its frontier — it waits for state.
        for (from, proven) in [(2, true), (3, true), (0, false)] {
            driver.deliver(
                &mut node,
                from,
                SbftMsg::ViewChange(vc(from as u32, 1, proven)),
            );
        }
        assert!(node.in_view_change() && node.view() == ViewNum::new(1));

        // View 1 does not form in time; view 2's primary installs it with
        // a quorum at stable 0.
        drop(driver.run(&mut node, |node, ctx| {
            node.on_timer(timer::token(timer::VC_RETRY, 1), ctx)
        }));
        assert_eq!(node.view(), ViewNum::new(2));
        let nv = NewViewMsg {
            view: ViewNum::new(2),
            view_changes: [0, 2, 3].iter().map(|&r| vc(r, 2, false)).collect(),
        };
        driver.deliver(&mut node, 2, SbftMsg::NewView(nv));
        assert!(!node.in_view_change() && node.view() == ViewNum::new(2));

        // Checkpoint 4's chunks arrive: the state installs, the view
        // stays 2.
        for chunk in chunks {
            let msg = SbftMsg::StateChunkMsg {
                chunk,
                state_root,
                results_root,
                pi,
            };
            driver.deliver(&mut node, 3, msg);
        }
        assert_eq!(node.last_executed(), stable, "checkpoint 4 installed");
        assert_eq!(node.view(), ViewNum::new(2), "the view never moves back");
        assert!(!node.in_view_change());
    }
}
