//! State transfer (§VIII), durability and the startup recovery handshake.

use super::*;

/// Entries per state-transfer chunk.
const STATE_CHUNK_ENTRIES: usize = 4096;

/// Retry interval for the startup recovery handshake: a rebooted replica
/// re-broadcasts its recovery probe (and clears a stuck outstanding state
/// request) until f+1 peers confirm its frontier.
const RECOVERY_RETRY: SimDuration = SimDuration::from_millis(500);

impl ReplicaNode {
    /// Asks `peer_hint` (or the next replica, when the hint names no
    /// other replica) for state, unless a request is still unanswered.
    pub(super) fn request_state_transfer(&mut self, ctx: &mut Ctx<'_>, peer_hint: NodeId) {
        if self.state_request_outstanding {
            return;
        }
        self.state_request_outstanding = true;
        ctx.incr("state_transfers_requested", 1);
        let peer = if peer_hint < self.n() && peer_hint != self.id.as_usize() {
            peer_hint
        } else {
            (self.id.as_usize() + 1) % self.n()
        };
        ctx.send(
            peer,
            SbftMsg::StateRequest {
                last_executed: self.last_executed,
            },
        );
    }

    pub(super) fn handle_state_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        last_executed: SeqNum,
    ) {
        if from >= self.n() {
            return;
        }
        let Some(checkpoint) = self.ledger.checkpoint() else {
            self.send_block_fills(ctx, from, last_executed);
            return;
        };
        if checkpoint.seq > last_executed {
            let Some((state_root, results_root)) = self.stable_roots else {
                return;
            };
            let Some((_, pi)) = self.stable_cert else {
                return;
            };
            for chunk in self.ledger.export_chunks(STATE_CHUNK_ENTRIES) {
                ctx.send(
                    from,
                    SbftMsg::StateChunkMsg {
                        chunk,
                        state_root,
                        results_root,
                        pi,
                    },
                );
            }
        }
        self.send_block_fills(ctx, from, last_executed.max(self.last_stable));
    }

    fn send_block_fills(&self, ctx: &mut Ctx<'_>, to: NodeId, after: SeqNum) {
        for (seq, slot) in &self.slots {
            if *seq <= after.get() {
                continue;
            }
            let (Some(requests), Some((view, cert))) = (&slot.requests, &slot.commit_cert) else {
                continue;
            };
            ctx.send(
                to,
                SbftMsg::BlockFill {
                    seq: SeqNum::new(*seq),
                    view: *view,
                    requests: requests.clone(),
                    cert: cert.clone(),
                },
            );
        }
    }

    pub(super) fn handle_state_chunk(
        &mut self,
        ctx: &mut Ctx<'_>,
        chunk: StateChunk,
        state_root: Digest,
        results_root: Digest,
        pi: Signature,
    ) {
        if chunk.seq <= self.last_executed {
            return;
        }
        let digest = combine_state_digest(chunk.seq, &state_root, &results_root);
        // The inbound boundary verified π over the chunk's state digest.
        ctx.charge_cpu_ns(self.cost.verify_signature());
        self.assembler.add(chunk);
        let Some((seq, state)) = self.assembler.try_assemble() else {
            return;
        };
        if state.root() != state_root {
            return; // corrupt transfer; wait for a fresh one
        }
        ctx.incr("state_transfers_completed", 1);
        // A server sitting exactly at its checkpoint sends no trailing
        // block fills, so the install itself must release the latch.
        self.state_request_outstanding = false;
        ctx.charge_cpu_ns(self.cost.hash(64 * state.len()));
        self.engine.install(state.clone(), seq, digest);
        self.last_executed = seq;
        self.install_checkpoint(seq, digest, pi, (state_root, results_root), state);
        self.slots = self.slots.split_off(&(seq.get() + 1));
        self.install_awaited_view(ctx);
        self.try_execute(ctx);
        self.check_recovery_done(ctx);
    }

    pub(super) fn handle_block_fill(
        &mut self,
        ctx: &mut Ctx<'_>,
        seq: SeqNum,
        view: ViewNum,
        requests: Vec<ClientRequest>,
        cert: CommitCert,
    ) {
        // Any fill means a serve round-trip finished: drop the
        // outstanding-request latch even when this block is stale (we
        // may have caught up through the normal path while the serve
        // was in flight) — a latch that only clears on a *useful* fill
        // can stick forever and swallow every later transfer request.
        self.state_request_outstanding = false;
        if seq.get() <= self.last_executed.get() {
            return;
        }
        // A block fill is self-contained (block + certificate): the
        // inbound boundary verified the certificate against the
        // recomputed block digest.
        ctx.charge_cpu_ns(self.cost.verify_signature());
        if self.adopt_block(seq, view, requests).is_none() {
            return;
        }
        self.commit(ctx, seq, view, cert);
        self.check_recovery_done(ctx);
    }

    // ---------- durability & startup recovery ----------

    /// Applies state recovered from durable media: installs the
    /// snapshot checkpoint, then replays the WAL tail through the
    /// commit path. Replay is trusted — every logged certificate was
    /// verified before it reached the WAL, and the CRC layer already
    /// rejected damaged records — so it skips re-verification by
    /// entering at `commit` directly.
    pub(super) fn apply_recovery(&mut self, ctx: &mut Ctx<'_>) {
        let Some(recovered) = self.pending_recovery.take() else {
            return;
        };
        if recovered.wal_damage.is_some() {
            ctx.incr("wal_tail_truncations", 1);
        }
        if !recovered.is_empty() {
            // Aggregate signal for chaos plans: *something* durable was
            // applied at boot. The per-mechanism counters below can each
            // legitimately be zero (a crash landing exactly on a
            // checkpoint boundary leaves an empty WAL tail; a crash
            // before the first checkpoint leaves no snapshot).
            ctx.incr("durable_recoveries", 1);
        }
        if let Some(snap) = recovered
            .snapshot
            .filter(|snap| snap.seq > self.last_executed)
        {
            let state = snap.rebuild_state();
            let digest = snap.state_digest;
            self.engine.install(state.clone(), snap.seq, digest);
            self.last_executed = snap.seq;
            self.last_stable = snap.seq;
            self.stable_roots = Some((snap.state_root, snap.results_root));
            if let Some(pi) = snap
                .cert
                .as_deref()
                .and_then(|b| Signature::from_wire_bytes(b).ok())
            {
                self.stable_cert = Some((digest, pi));
            }
            self.ledger.install_checkpoint(Checkpoint {
                seq: snap.seq,
                state_digest: digest,
                state,
            });
            self.next_proposal = self.next_proposal.max(snap.seq.next());
            ctx.incr("recovered_from_snapshot", 1);
        }
        let mut replayed = 0u64;
        for (seq, bytes) in recovered.wal_records {
            if seq <= self.last_executed.get() {
                continue;
            }
            let Ok(SbftMsg::BlockFill {
                seq,
                view,
                requests,
                cert,
            }) = SbftMsg::from_wire_bytes(&bytes)
            else {
                continue; // CRC-valid but not a block record: skip.
            };
            if self.adopt_block(seq, view, requests).is_none() {
                continue;
            }
            self.commit(ctx, seq, view, cert);
            replayed += 1;
        }
        if replayed > 0 {
            ctx.incr("wal_replayed_blocks", replayed);
        }
    }

    /// Starts the proactive startup recovery handshake: broadcast our
    /// post-replay frontier and keep probing until f+1 peers confirm
    /// it. This is the traffic-independent state-transfer trigger — a
    /// replica rebooting into a *quiescent* cluster hears about the
    /// cluster's frontier from the offers instead of having to observe
    /// a certificate beyond its log window.
    pub(super) fn begin_recovery_handshake(&mut self, ctx: &mut Ctx<'_>) {
        if self.n() <= 1 {
            return;
        }
        self.recovery = Some(BTreeMap::new());
        ctx.incr("recovery_probes", 1);
        self.broadcast(
            ctx,
            &SbftMsg::RecoveryRequest {
                last_executed: self.last_executed,
            },
        );
        ctx.set_timer(RECOVERY_RETRY, timer::token(timer::RECOVERY, 0));
    }

    /// The handshake's retry tick: while still unconfirmed, the previous
    /// probe (or the state request it triggered) may be stuck on a dead
    /// peer — drop the outstanding-request latch and probe everyone
    /// again.
    pub(super) fn on_recovery_timer(&mut self, ctx: &mut Ctx<'_>) {
        self.check_recovery_done(ctx);
        if self.recovery.is_none() {
            return;
        }
        self.state_request_outstanding = false;
        self.broadcast(
            ctx,
            &SbftMsg::RecoveryRequest {
                last_executed: self.last_executed,
            },
        );
        ctx.set_timer(RECOVERY_RETRY, timer::token(timer::RECOVERY, 0));
    }

    pub(super) fn handle_recovery_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        last_executed: SeqNum,
    ) {
        if from >= self.n() || from == self.id.as_usize() {
            return;
        }
        ctx.send(
            from,
            SbftMsg::RecoveryOffer {
                last_executed: self.last_executed,
                last_stable: self.last_stable,
            },
        );
        if self.last_executed > last_executed {
            // The prober is behind us: serve state exactly as for an
            // explicit request (§VIII) — chunks if our stable
            // checkpoint is past its frontier, block fills for the tail.
            self.handle_state_request(ctx, from, last_executed);
        }
    }

    pub(super) fn handle_recovery_offer(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        last_executed: SeqNum,
    ) {
        if from >= self.n() || from == self.id.as_usize() {
            return;
        }
        let Some(offers) = &mut self.recovery else {
            return;
        };
        offers.insert(from, last_executed.get());
        if last_executed > self.last_executed {
            // A peer is ahead: pull state now, without waiting to
            // observe traffic. The offer names a peer known to have the
            // state, so use it as the transfer target.
            self.request_state_transfer(ctx, from);
        }
        self.check_recovery_done(ctx);
    }

    /// Ends the startup handshake once f+1 peers' offered frontiers are
    /// at or below our own — with at most f faulty replicas, at least
    /// one honest peer then vouches that we are caught up.
    fn check_recovery_done(&mut self, ctx: &mut Ctx<'_>) {
        let Some(offers) = &self.recovery else {
            return;
        };
        let confirmed = offers
            .values()
            .filter(|&&frontier| frontier <= self.last_executed.get())
            .count();
        if confirmed >= self.config.f + 1 {
            self.recovery = None;
            ctx.incr("recovery_completed", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariantFlags;
    use sbft_sim::{Metrics, SimRng};
    use sbft_statedb::KvService;

    /// Regression for the quiescent-rejoin gap: state transfer used to
    /// trigger only off *observed traffic* (a certificate more than a
    /// window past our frontier), so a replica rebooting into an idle
    /// cluster never synced. The startup handshake is the
    /// traffic-independent entry point: with zero client traffic and
    /// zero certificates in flight, a recovery offer ahead of our
    /// frontier must trigger a state request, and f+1 offers at our
    /// frontier must end recovery.
    #[test]
    fn recovery_offer_ahead_triggers_state_transfer_without_traffic() {
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 0x5eed);
        let mut node = ReplicaNode::new(
            config.clone(),
            ReplicaId::new(3),
            &keys,
            Box::new(KvService::new()),
            CryptoCostModel::free(),
        );
        node.set_durability(ReplicaDurability::in_memory(), RecoveredState::empty());
        let mut rng = SimRng::new(0);
        let mut metrics = Metrics::new(false);
        let mut next_timer_id = 0u64;
        let me: NodeId = 3;

        // Boot: the handshake probes every peer proactively.
        let mut ctx = Context::external(
            SimTime::ZERO,
            me,
            &mut rng,
            &mut metrics,
            &mut next_timer_id,
        );
        node.on_start(&mut ctx);
        let effects = ctx.into_effects();
        assert!(node.recovery_active(), "handshake starts at boot");
        let probes = effects
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, SbftMsg::RecoveryRequest { .. }))
            .count();
        assert!(probes >= config.n() - 1, "probe reaches every peer");

        // A peer's offer ahead of our empty frontier arrives. No
        // traffic, no proofs — the state request must go out anyway.
        let mut ctx = Context::external(
            SimTime::ZERO,
            me,
            &mut rng,
            &mut metrics,
            &mut next_timer_id,
        );
        node.on_message(
            1,
            SbftMsg::RecoveryOffer {
                last_executed: SeqNum::new(64),
                last_stable: SeqNum::new(32),
            },
            &mut ctx,
        );
        let effects = ctx.into_effects();
        assert!(
            effects
                .sends
                .iter()
                .any(|(to, m)| *to == 1 && matches!(m, SbftMsg::StateRequest { .. })),
            "offer ahead of our frontier must trigger a state request at once"
        );
        assert!(
            node.recovery_active(),
            "one offer ahead does not confirm us"
        );

        // f+1 = 2 peers at our frontier vouch that we are caught up.
        for peer in [0usize, 2usize] {
            let mut ctx = Context::external(
                SimTime::ZERO,
                me,
                &mut rng,
                &mut metrics,
                &mut next_timer_id,
            );
            node.on_message(
                peer,
                SbftMsg::RecoveryOffer {
                    last_executed: SeqNum::ZERO,
                    last_stable: SeqNum::ZERO,
                },
                &mut ctx,
            );
            drop(ctx.into_effects());
        }
        assert!(!node.recovery_active(), "f+1 confirmations end recovery");
    }
}
