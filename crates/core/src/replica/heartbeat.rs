//! Liveness: the request watchdog and heartbeat-fed failure suspicion.

use super::*;

/// Interval between signed replica heartbeats. Heartbeats to a peer are
/// suppressed while real protocol traffic flows to it.
const HEARTBEAT_INTERVAL: SimDuration = SimDuration::from_millis(250);

/// φ-accrual suspicion level at which a silent primary triggers a
/// proactive view change (and a silent collector is routed around).
const SUSPICION_THRESHOLD: f64 = 2.0;

/// The failure detector a replica in an `n`-replica cluster feeds.
pub(super) fn failure_detector(n: usize) -> FailureDetector {
    FailureDetector::new(n, HEARTBEAT_INTERVAL, SUSPICION_THRESHOLD)
}

impl ReplicaNode {
    // ---------- watchdog ----------

    fn has_outstanding_work(&self) -> bool {
        !self.forwarded.is_empty() || !self.pending.is_empty() || self.in_flight() > 0
    }

    pub(super) fn arm_watchdog(&mut self, ctx: &mut Ctx<'_>) {
        if self.watchdog_set {
            return;
        }
        self.watchdog_set = true;
        self.watchdog_mark = (self.last_executed, self.view);
        let backoff = self
            .timers
            .view_timeout(&self.config)
            .saturating_mul(1u64 << self.vc_attempts.min(6));
        ctx.set_timer(backoff, timer::token(timer::WATCHDOG, 0));
    }

    pub(super) fn on_watchdog(&mut self, ctx: &mut Ctx<'_>) {
        self.watchdog_set = false;
        let progressed =
            self.last_executed > self.watchdog_mark.0 || self.view > self.watchdog_mark.1;
        if progressed || !self.has_outstanding_work() {
            self.vc_attempts = 0;
            if self.has_outstanding_work() {
                self.arm_watchdog(ctx);
            }
            return;
        }
        // No progress with work outstanding: the primary is faulty or the
        // network is slow — move to the next view (§V-G trigger).
        self.start_view_change(ctx, self.view.next());
    }

    // ---------- heartbeats & failure detection ----------

    pub(super) fn arm_heartbeat(&mut self, ctx: &mut Ctx<'_>) {
        if self.n() > 1 {
            ctx.set_timer(HEARTBEAT_INTERVAL, timer::token(timer::HEARTBEAT, 0));
        }
    }

    /// Heartbeat tick: beat to every peer that saw no real traffic from
    /// us within the interval (protocol sends piggyback as implicit
    /// heartbeats), refresh the suspicion gauge, and escalate sustained
    /// primary suspicion into a proactive view change.
    pub(super) fn on_heartbeat_tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let mut signed: Option<(u64, SignatureShare)> = None;
        for r in 0..self.n() {
            if r == self.id.as_usize() {
                continue;
            }
            if self.detector.heartbeat_suppressed(r, now) {
                ctx.incr("heartbeats_suppressed", 1);
                continue;
            }
            // One signature covers the tick: the digest binds our id,
            // the send time, and the execution frontier — none of which
            // vary per peer.
            let (sent_at_ns, share) = *signed.get_or_insert_with(|| {
                let sent_at_ns = now.as_nanos();
                let digest = heartbeat_digest(self.id, sent_at_ns, self.last_executed);
                (sent_at_ns, self.my_keys.tau.sign(DOMAIN_HEARTBEAT, &digest))
            });
            ctx.incr("heartbeats_sent", 1);
            ctx.send(
                r,
                SbftMsg::Heartbeat {
                    from: self.id,
                    sent_at_ns,
                    last_executed: self.last_executed,
                    share,
                },
            );
        }
        if signed.is_some() {
            ctx.charge_cpu_ns(self.cost.sign_share());
        }
        self.suspicion_gauge_milli = self.detector.max_phi_milli(self.id.as_usize(), now);
        self.check_primary_suspicion(ctx, now);
        self.arm_heartbeat(ctx);
    }

    /// Sustained φ-accrual suspicion of the current primary — two
    /// consecutive suspect ticks with work outstanding — triggers a
    /// proactive view change without waiting for the full watchdog
    /// timeout: the gray-failure escape hatch.
    fn check_primary_suspicion(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        let primary = self.config.primary(self.view);
        let suspect = primary != self.id
            && self.active_view().is_some()
            && self.recovery.is_none()
            && self.has_outstanding_work()
            && self.detector.suspected(primary.as_usize(), now);
        if !suspect {
            self.primary_suspect_ticks = 0;
            return;
        }
        self.primary_suspect_ticks += 1;
        if self.primary_suspect_ticks >= 2 {
            self.primary_suspect_ticks = 0;
            ctx.incr("proactive_view_changes", 1);
            self.start_view_change(ctx, self.view.next());
        }
    }

    pub(super) fn handle_heartbeat(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        claimed: ReplicaId,
        sent_at_ns: u64,
        share: SignatureShare,
    ) {
        if from >= self.n() || claimed.as_usize() != from || share.index() != (from + 1) as u16 {
            return;
        }
        // The inbound boundary verified the τ share over the heartbeat.
        ctx.charge_cpu_ns(self.cost.verify_signature());
        // Liveness was already noted at dispatch; answer so the sender
        // gets an RTT sample off its own clock.
        ctx.charge_cpu_ns(self.cost.sign_share());
        let echo_digest = heartbeat_digest(self.id, sent_at_ns, self.last_executed);
        let echo_share = self.my_keys.tau.sign(DOMAIN_HEARTBEAT, &echo_digest);
        ctx.send(
            from,
            SbftMsg::HeartbeatEcho {
                from: self.id,
                origin_sent_at_ns: sent_at_ns,
                last_executed: self.last_executed,
                share: echo_share,
            },
        );
    }

    pub(super) fn handle_heartbeat_echo(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: NodeId,
        claimed: ReplicaId,
        origin_sent_at_ns: u64,
        share: SignatureShare,
    ) {
        if from >= self.n() || claimed.as_usize() != from || share.index() != (from + 1) as u16 {
            return;
        }
        // The inbound boundary verified the τ share over the echo.
        ctx.charge_cpu_ns(self.cost.verify_signature());
        // `origin_sent_at_ns` is our own clock at send time, so the
        // difference is a round-trip sample (a replayed stale echo can
        // only inflate it — RTT feeds telemetry, not safety).
        let rtt = ctx.now().since(SimTime::from_nanos(origin_sent_at_ns));
        self.detector.note_rtt(from, rtt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariantFlags;
    use sbft_sim::{Metrics, SimRng};
    use sbft_statedb::KvService;

    /// A gray-failed (silent but not crashed) primary must be detected by
    /// the φ-accrual heartbeat detector and proactively voted out, well
    /// before the watchdog's full view timeout — and peers that keep
    /// talking must never accrue suspicion.
    #[test]
    fn sustained_primary_silence_triggers_proactive_view_change() {
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
        let interval = HEARTBEAT_INTERVAL;

        // Boot: the heartbeat timer arms.
        let mut ctx =
            Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
        node.on_start(&mut ctx);
        let effects = ctx.into_effects();
        assert!(
            effects
                .timers
                .iter()
                .any(|(_, _, token)| timer::split(*token).0 == timer::HEARTBEAT),
            "on_start must arm the heartbeat timer"
        );

        // Complete the startup recovery handshake (f+1 peers vouch we
        // are caught up) — proactive view changes are gated on it.
        for peer in [0usize, 2usize] {
            let mut ctx =
                Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
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
        assert!(!node.recovery_active());

        // The primary (replica 0) shows signs of life once, at t=0, via a
        // signed heartbeat...
        let sent_at_ns = 0u64;
        let digest = heartbeat_digest(ReplicaId::new(0), sent_at_ns, SeqNum::ZERO);
        let share = keys.replicas[0].tau.sign(DOMAIN_HEARTBEAT, &digest);
        let mut ctx =
            Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
        node.on_message(
            0,
            SbftMsg::Heartbeat {
                from: ReplicaId::new(0),
                sent_at_ns,
                last_executed: SeqNum::ZERO,
                share,
            },
            &mut ctx,
        );
        let effects = ctx.into_effects();
        assert!(
            effects
                .sends
                .iter()
                .any(|(to, m)| *to == 0 && matches!(m, SbftMsg::HeartbeatEcho { .. })),
            "a valid heartbeat must be echoed for RTT measurement"
        );

        // ...and a client request is outstanding (liveness matters).
        let client = ClientId::new(0);
        let request = ClientRequest::signed(
            client,
            1,
            b"put k v".to_vec(),
            &keys.public.client_keys(client),
        );
        let mut ctx =
            Context::external(SimTime::ZERO, 1, &mut rng, &mut metrics, &mut next_timer_id);
        node.on_message(config.n(), SbftMsg::Request(request), &mut ctx);
        drop(ctx.into_effects());

        // Heartbeat ticks while the primary stays silent. Early ticks
        // (short silence, low φ) must not depose it; two consecutive
        // suspect ticks after a long silence must.
        let tick = |node: &mut ReplicaNode,
                    rng: &mut SimRng,
                    metrics: &mut Metrics,
                    ids: &mut u64,
                    at: SimTime| {
            let mut ctx = Context::external(at, 1, rng, metrics, ids);
            node.on_timer(timer::token(timer::HEARTBEAT, 0), &mut ctx);
            ctx.into_effects()
        };
        let effects = tick(
            &mut node,
            &mut rng,
            &mut metrics,
            &mut next_timer_id,
            SimTime::ZERO + interval,
        );
        assert!(
            effects
                .sends
                .iter()
                .any(|(_, m)| matches!(m, SbftMsg::Heartbeat { .. })),
            "silent peers get explicit heartbeats"
        );
        assert!(!node.in_view_change(), "one interval of silence is normal");

        // ~8 intervals of silence: φ = silence/(interval·ln10) ≈ 3.5 > 2.
        let late = SimTime::ZERO + interval.saturating_mul(8);
        tick(&mut node, &mut rng, &mut metrics, &mut next_timer_id, late);
        assert!(!node.in_view_change(), "first suspect tick only marks");
        tick(
            &mut node,
            &mut rng,
            &mut metrics,
            &mut next_timer_id,
            late + interval,
        );
        assert!(
            node.in_view_change() && node.view() == ViewNum::new(1),
            "two consecutive suspect ticks must depose the gray primary"
        );
        assert_eq!(metrics.counter("proactive_view_changes"), 1);
    }
}
