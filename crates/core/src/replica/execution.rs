//! Execution, π shares and single-message client acks (§V-D).

use super::*;

/// Execution-stage parallelism: block execution runs on the machine's
/// spare cores (the paper's replicas have 32 VCPUs and a separate
/// execution stage, §VIII/§IX), so only `1/EXECUTION_PARALLELISM` of its
/// CPU cost lands on the message-processing core.
const EXECUTION_PARALLELISM: u64 = 16;

impl ReplicaNode {
    pub(super) fn try_execute(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let next = self.engine.next_submit();
            let Some(slot) = self.slots.get(&next.get()) else {
                break;
            };
            if !slot.committed() {
                break;
            }
            let ops: Vec<Vec<u8>> = slot
                .requests
                .as_ref()
                .expect("committed slot has requests")
                .iter()
                .map(|r| r.op.clone())
                .collect();
            // In place: executes now, completion drained below in the
            // same handler. Offloaded: queued to the execution thread —
            // the loop keeps submitting consecutive committed blocks,
            // pipelining execution behind consensus.
            self.engine.submit(next, ops);
            self.drain_exec_completions(ctx);
        }
        self.drain_exec_completions(ctx);
    }

    /// Emits the post-execution effects — π share, replies/acks, tracer
    /// stamps — for every block the engine has finished. In-place
    /// execution completes during `submit`; offloaded execution completes
    /// when the executor's wake ([`SbftMsg::ExecuteReady`]) lands.
    pub(super) fn drain_exec_completions(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(next) = self.engine.try_completion() {
            let requests = self
                .slots
                .get(&next.get())
                .and_then(|s| s.requests.clone())
                .expect("completed block's slot is retained until checkpoint");
            let exec = self
                .engine
                .execution(next)
                .expect("a completed block is stored until its checkpoint");
            ctx.charge_cpu_ns(exec.cpu_cost_ns / EXECUTION_PARALLELISM);
            ctx.incr("executed_blocks", 1);
            self.last_executed = next;
            for (l, request) in requests.iter().enumerate() {
                let key = (request.client.get(), request.timestamp);
                self.trace_phase(ctx, key.0, key.1, Phase::Executed);
                self.forwarded.remove(&key);
                if self
                    .client_table
                    .get(&key.0)
                    .is_none_or(|last| key.1 > last.timestamp)
                {
                    let last = LastReply {
                        timestamp: key.1,
                        seq: next,
                        result: exec.results[l].clone(),
                    };
                    self.client_table.insert(key.0, last);
                }
            }
            let digest = exec.state_digest;
            self.slot(next).exec_digest = Some(digest);
            // Sign the state with the π share and send to E-collectors.
            ctx.charge_cpu_ns(self.cost.sign_share());
            let share = self.my_keys.pi.sign(DOMAIN_PI, &digest);
            let msg = SbftMsg::SignState {
                seq: next,
                digest,
                share,
            };
            for &collector in self.e_collectors(next).iter() {
                self.send_to(ctx, collector, msg.clone());
            }
            // Direct replies (f+1 acknowledgement variants).
            if !self.config.flags.single_client_ack {
                let exec = self.engine.execution(next).expect("just stored");
                for (l, request) in requests.iter().enumerate() {
                    let reply = self.make_reply(next, request, exec.results[l].clone());
                    self.trace_phase(ctx, request.client.get(), request.timestamp, Phase::Replied);
                    ctx.send(self.client_node(request.client), reply);
                }
            }
            // If this replica is an E-collector and the proof was already
            // combined (we executed late), acks may now be sendable.
            self.maybe_send_acks(ctx, next);
            // Execution ends this replica's part in the request — close
            // the spans here, except on an E-collector that still owes an
            // execute-ack: it keeps them open so the late ack can stamp
            // `replied` (closed there instead).
            let awaiting_ack = self.tracer.is_some()
                && self.config.flags.single_client_ack
                && self.my_e_collector_index(next).is_some()
                && !self
                    .slots
                    .get(&next.get())
                    .map(|s| s.acks_sent)
                    .unwrap_or(true);
            if let Some(tracer) = self.tracer.as_ref().filter(|_| !awaiting_ack) {
                for request in &requests {
                    tracer.close(request.client.get(), request.timestamp);
                }
            }
            self.vc_attempts = 0;
        }
    }

    pub(super) fn make_reply(
        &self,
        seq: SeqNum,
        request: &ClientRequest,
        result: Vec<u8>,
    ) -> SbftMsg {
        SbftMsg::Reply {
            seq,
            replica: self.id,
            client: request.client,
            timestamp: request.timestamp,
            result,
            // Size-modeled replica signature over the reply.
            signature: ClientSignature(sbft_crypto::PkiSignature::from_bytes(
                *sbft_crypto::sha256(&seq.get().to_le_bytes()).as_bytes(),
            )),
        }
    }

    pub(super) fn handle_sign_state(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        seq: SeqNum,
        digest: Digest,
        share: SignatureShare,
    ) {
        let Some(my_index) = self.my_e_collector_index(seq) else {
            return;
        };
        if share.index() != (from + 1) as u16 || seq.get() <= self.last_stable.get() {
            return;
        }
        ctx.charge_cpu_ns(self.cost.hash(70));
        let pi_threshold = self.config.pi_threshold();
        let stagger = self.timers.collector_stagger(&self.config);
        let slot = self.slot(seq);
        let shares = slot.pi_shares.entry(digest).or_default();
        shares.insert(share.index(), share);
        if shares.len() >= pi_threshold && !slot.exec_proof_sent && !slot.exec_timer_set {
            slot.exec_timer_set = true;
            if acts_now(ctx, my_index, stagger, timer::STAGGER_EXEC, seq) {
                self.emit_exec_proof(ctx, seq, digest);
            }
        }
    }

    /// A staggered E-collector's turn: combine π over the digest most
    /// shares vouch for.
    pub(super) fn on_exec_stagger(&mut self, ctx: &mut Ctx<'_>, seq: SeqNum) {
        let digest = self.slots.get(&seq.get()).and_then(|s| {
            s.pi_shares
                .iter()
                .max_by_key(|(_, shares)| shares.len())
                .map(|(d, _)| *d)
        });
        if let Some(digest) = digest {
            self.emit_exec_proof(ctx, seq, digest);
        }
    }

    fn emit_exec_proof(&mut self, ctx: &mut Ctx<'_>, seq: SeqNum, digest: Digest) {
        let pi_threshold = self.config.pi_threshold();
        let slot = self.slot(seq);
        if slot.exec_proof_sent || slot.exec_proof.is_some() {
            return;
        }
        let Some(shares_map) = slot.pi_shares.get(&digest) else {
            return;
        };
        let shares: Vec<SignatureShare> = shares_map.values().copied().collect();
        slot.exec_proof_sent = true;
        // π shares carry their digest on the wire, so the inbound
        // boundary checked each against it (our own share is trusted);
        // combining skips the per-share pairing checks it charges for.
        ctx.charge_cpu_ns(self.cost.combine_threshold(pi_threshold));
        ctx.charge_cpu_ns(self.cost.batch_verify_shares(shares.len()));
        let Ok(pi) = self.public.pi.combine_preverified(&shares) else {
            return;
        };
        self.broadcast(ctx, &SbftMsg::FullExecuteProof { seq, digest, pi });
        self.slot(seq).exec_proof = Some(pi);
        self.maybe_send_acks(ctx, seq);
    }

    /// E-collector → clients: one acknowledgement per request (§V-D).
    fn maybe_send_acks(&mut self, ctx: &mut Ctx<'_>, seq: SeqNum) {
        if !self.config.flags.single_client_ack {
            return;
        }
        if self.my_e_collector_index(seq).is_none() {
            return;
        }
        let Some(slot) = self.slots.get(&seq.get()) else {
            return;
        };
        let (Some(pi), Some(digest)) = (slot.exec_proof, slot.exec_digest) else {
            return;
        };
        // Before we execute there are no proofs to send.
        if slot.acks_sent || self.last_executed < seq {
            return;
        }
        let requests = slot.requests.clone().expect("executed slot has requests");
        self.slot(seq).acks_sent = true;
        let exec = self.engine.execution(seq);
        for (l, request) in requests.iter().enumerate() {
            let Some((result, proof)) = exec.and_then(|e| Some((e.results.get(l)?, e.proof(l)?)))
            else {
                continue;
            };
            ctx.charge_cpu_ns(self.cost.hash(result.len() + 64));
            let ack = SbftMsg::ExecuteAck {
                seq,
                index: l as u64,
                client: request.client,
                timestamp: request.timestamp,
                result: result.clone(),
                digest,
                pi,
                proof,
            };
            self.trace_phase(ctx, request.client.get(), request.timestamp, Phase::Replied);
            ctx.send(self.client_node(request.client), ack);
        }
        if let Some(tracer) = &self.tracer {
            // Acks are this E-collector's last word on the block; spans
            // left open by `try_execute` for the ack close here.
            for request in &requests {
                tracer.close(request.client.get(), request.timestamp);
            }
        }
    }

    pub(super) fn handle_full_execute_proof(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        seq: SeqNum,
        digest: Digest,
        pi: Signature,
    ) {
        if seq.get() <= self.last_stable.get() {
            return;
        }
        // The execute proof binds only data it carries (digest + π): the
        // inbound boundary verified it.
        ctx.charge_cpu_ns(self.cost.verify_signature());
        // Far ahead of us: we are lagging badly — fetch state (§VIII).
        if seq.get() > self.last_executed.get() + self.config.window {
            self.request_state_transfer(ctx, from);
        }
        self.slot(seq).exec_proof.get_or_insert(pi);
        self.maybe_send_acks(ctx, seq);
        self.maybe_checkpoint(ctx, seq, digest, pi);
    }
}
