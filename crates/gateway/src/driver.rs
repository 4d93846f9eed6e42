//! Open-loop load generation through the session mux.
//!
//! Closed-loop clients (the testkit's, the loopback bench's) slow down
//! when the cluster slows down — each waits for its reply before
//! offering the next request, so offered load self-throttles and the
//! saturation knee is invisible. An *open-loop* generator offers
//! requests on a fixed arrival schedule regardless of completions
//! (§ the classic open-vs-closed distinction), which is the only way to
//! push a cluster past saturation and observe what the front door does
//! with the excess.
//!
//! [`OpenLoopDriver`] is that generator fused with the gateway itself:
//! a sans-IO [`Node`] owning the admission engine ([`GatewayCore`]) and
//! the session table ([`SessionMux`]). Every tick it converts elapsed
//! time into due arrivals (fractional-carry accumulator, so a 1 ms tick
//! at 300/s offers exactly 300 per second, not 0 or 1000); each arrival
//! takes an idle session from a free list, signs a `KvPut`, runs
//! admission, and either forwards to the primary or counts a shed. The
//! driver runs over real sockets under `NodeRuntime`; replicas answer
//! its sessions through the transport's alias routes.

use std::collections::VecDeque;

use sbft_core::messages::SbftMsg;
use sbft_crypto::SplitMix64;
use sbft_sim::{Context, Node, NodeId, SimDuration};
use sbft_statedb::KvOp;
use sbft_wire::Wire;

use crate::admission::{Admission, GatewayCore};
use crate::session::SessionMux;

const ARRIVAL_TOKEN: u64 = 1;
const HOUSEKEEPING_TOKEN: u64 = 2;
/// Arrival scheduling granularity. The carry accumulator makes the
/// *rate* exact at any tick size; the tick only bounds burstiness.
const ARRIVAL_TICK: SimDuration = SimDuration::from_millis(1);
/// Give-up / slot-expiry sweep cadence.
const HOUSEKEEPING_EVERY: SimDuration = SimDuration::from_millis(100);
/// Arrivals honored in one tick. A stalled generator thread (GC pause,
/// scheduler hiccup) owes a burst on resume; past this cap the debt is
/// dropped and counted, because replaying a multi-second backlog as one
/// mega-burst measures the stall, not the cluster.
const MAX_BURST: u64 = 4_096;

const NS_PER_SEC: u64 = 1_000_000_000;

/// How many arrivals `elapsed_ns` at `per_sec` owes, given the
/// fractional debt `carry` (in request-nanoseconds) left by the last
/// tick. Returns `(due, new_carry)`.
pub fn arrivals_due(elapsed_ns: u64, per_sec: u64, carry: u64) -> (u64, u64) {
    let total = u128::from(elapsed_ns) * u128::from(per_sec) + u128::from(carry);
    (
        (total / u128::from(NS_PER_SEC)) as u64,
        (total % u128::from(NS_PER_SEC)) as u64,
    )
}

/// Open-loop workload knobs.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopConfig {
    /// Offered load: arrivals per second, independent of completions.
    pub arrivals_per_sec: u64,
    /// Value size of each generated `KvOp::Put`.
    pub value_len: usize,
    /// Keys are drawn uniformly from `0..key_space`.
    pub key_space: u64,
    /// How long a submitted request may stay outstanding before the
    /// driver gives up and frees the session (the request may still
    /// commit; replicas dedupe it if a retry ever lands).
    pub give_up_after_ns: u64,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            arrivals_per_sec: 1_000,
            value_len: 16,
            key_space: 1_024,
            give_up_after_ns: 3_000_000_000,
        }
    }
}

/// Cumulative open-loop outcomes, one bump per offered arrival plus the
/// completion/timeout tallies (all monotone).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenLoopStats {
    /// Arrivals generated by the schedule.
    pub offered: u64,
    /// Arrivals refused by admission (`Busy` would have been sent).
    pub shed: u64,
    /// Arrivals dropped because every session was busy — the open loop
    /// outran its own session pool, not the cluster.
    pub exhausted: u64,
    /// Arrival debt dropped by the `MAX_BURST` stall guard.
    pub overrun: u64,
    /// Outstanding requests abandoned by the give-up sweep.
    pub timed_out: u64,
    /// Requests verified complete (ack or `f+1` replies).
    pub completed: u64,
}

/// The gateway front door under open-loop load: admission + sessions +
/// arrival schedule in one sans-IO node.
pub struct OpenLoopDriver {
    core: GatewayCore,
    mux: SessionMux,
    config: OpenLoopConfig,
    n: usize,
    /// Where fresh admissions go; backups forward, so a stale guess
    /// costs one hop, not correctness.
    primary_guess: usize,
    /// Sessions with no outstanding request, in recycle order.
    idle: VecDeque<usize>,
    /// Fractional arrival debt (request-nanoseconds).
    carry: u64,
    last_tick_ns: u64,
    rng: SplitMix64,
    stats: OpenLoopStats,
    /// Submit-to-completion latencies since the last [`Self::take_latencies`].
    latencies_ns: Vec<u64>,
}

impl OpenLoopDriver {
    /// A driver fronting an `n`-replica cluster with the given admission
    /// engine and registered session table.
    pub fn new(
        core: GatewayCore,
        mux: SessionMux,
        config: OpenLoopConfig,
        n: usize,
        seed: u64,
    ) -> Self {
        let idle = (0..mux.len()).collect();
        OpenLoopDriver {
            core,
            mux,
            config,
            n,
            primary_guess: 0,
            idle,
            carry: 0,
            last_tick_ns: 0,
            rng: SplitMix64::new(seed),
            stats: OpenLoopStats::default(),
            latencies_ns: Vec::new(),
        }
    }

    /// The admission engine (counters, in-flight level).
    pub fn core(&self) -> &GatewayCore {
        &self.core
    }

    /// The session table.
    pub fn mux(&self) -> &SessionMux {
        &self.mux
    }

    /// Cumulative outcome counters.
    pub fn stats(&self) -> OpenLoopStats {
        self.stats
    }

    /// Retunes the offered rate (the bench sweeps this between
    /// measurement windows). Resets the fractional debt so the old
    /// rate's remainder doesn't bleed into the new one.
    pub fn set_rate(&mut self, arrivals_per_sec: u64) {
        self.config.arrivals_per_sec = arrivals_per_sec;
        self.carry = 0;
    }

    /// Feeds downstream queue depths (transport per-peer backlog,
    /// inbound queue) into the admission gate — backpressure propagation.
    pub fn set_external_pressure(&mut self, level: usize) {
        self.core.set_external_pressure(level);
    }

    /// Drains the latency samples collected since the last call.
    pub fn take_latencies(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.latencies_ns)
    }

    fn arrive(&mut self, now: u64, ctx: &mut Context<'_, SbftMsg>) {
        self.stats.offered += 1;
        let Some(s) = self.idle.pop_front() else {
            self.stats.exhausted += 1;
            ctx.incr("gateway_sessions_exhausted", 1);
            return;
        };
        let key = (self.rng.next_u64() % self.config.key_space.max(1))
            .to_le_bytes()
            .to_vec();
        let mut value = vec![0u8; self.config.value_len];
        for chunk in value.chunks_mut(8) {
            let bytes = self.rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        let op = KvOp::Put { key, value }.to_wire_bytes();
        let request = self.mux.submit(s, op, now).expect("session from idle list");
        // A fresh submit has a fresh timestamp, so this is never a
        // rebroadcast — but route both Admit shapes the same for safety.
        match self
            .core
            .admit(request.client.get(), request.timestamp, now)
        {
            Admission::Admit { .. } => {
                ctx.incr("gateway_admitted", 1);
                ctx.send(self.primary_guess, SbftMsg::Request(request));
            }
            Admission::Shed { .. } => {
                // Shed at the source: there is no remote client to send
                // Busy to, so the refusal is just a freed session (the
                // timestamp stays burned).
                self.stats.shed += 1;
                ctx.incr("gateway_shed", 1);
                self.mux.abandon(s);
                self.idle.push_back(s);
            }
        }
    }
}

impl Node<SbftMsg> for OpenLoopDriver {
    sbft_sim::impl_node_any!();

    fn on_start(&mut self, ctx: &mut Context<'_, SbftMsg>) {
        self.last_tick_ns = ctx.now().as_nanos();
        ctx.set_timer(ARRIVAL_TICK, ARRIVAL_TOKEN);
        ctx.set_timer(HOUSEKEEPING_EVERY, HOUSEKEEPING_TOKEN);
    }

    fn on_message(&mut self, _from: NodeId, msg: SbftMsg, ctx: &mut Context<'_, SbftMsg>) {
        let now = ctx.now().as_nanos();
        if let Some(completion) = self.mux.on_message(&msg, now) {
            let client = self.mux.client_of(completion.session);
            self.core.complete(client.get(), completion.timestamp);
            self.idle.push_back(completion.session);
            self.stats.completed += 1;
            self.latencies_ns.push(completion.latency_ns);
            ctx.incr("gateway_completed", 1);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, SbftMsg>) {
        let now = ctx.now().as_nanos();
        match token {
            ARRIVAL_TOKEN => {
                let elapsed = now.saturating_sub(self.last_tick_ns);
                self.last_tick_ns = now;
                let (due, carry) = arrivals_due(elapsed, self.config.arrivals_per_sec, self.carry);
                self.carry = carry;
                if due > MAX_BURST {
                    self.stats.overrun += due - MAX_BURST;
                }
                for _ in 0..due.min(MAX_BURST) {
                    self.arrive(now, ctx);
                }
                ctx.set_timer(ARRIVAL_TICK, ARRIVAL_TOKEN);
            }
            HOUSEKEEPING_TOKEN => {
                let freed = self.core.sweep(now);
                if freed > 0 {
                    ctx.incr("gateway_expired", freed);
                }
                let cutoff = now.saturating_sub(self.config.give_up_after_ns);
                let abandoned = self.mux.abandon_older_than(cutoff);
                if !abandoned.is_empty() {
                    self.stats.timed_out += abandoned.len() as u64;
                    ctx.incr("gateway_timed_out", abandoned.len() as u64);
                    self.idle.extend(abandoned);
                }
                // Rotate the guess while requests are dying unanswered —
                // the one signal a view change leaves at the front door.
                if self.stats.timed_out > 0 && self.mux.completed == 0 {
                    self.primary_guess = (self.primary_guess + 1) % self.n;
                }
                ctx.set_timer(HOUSEKEEPING_EVERY, HOUSEKEEPING_TOKEN);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn carry_accumulator_hits_the_exact_rate() {
        // 300/s sampled every 1 ms: 0.3 arrivals per tick. Naive
        // truncation yields 0 forever; the carry must deliver exactly
        // 300 over 1000 ticks.
        let mut carry = 0;
        let mut total = 0;
        for _ in 0..1_000 {
            let (due, next) = arrivals_due(1_000_000, 300, carry);
            total += due;
            carry = next;
        }
        assert_eq!(total, 300);
        assert_eq!(carry, 0);
    }

    #[test]
    fn uneven_ticks_do_not_lose_arrivals() {
        // Jittery tick lengths summing to 1 s at 7919/s must still owe
        // exactly 7919 (the carry conserves the remainder).
        let ticks = [1_000_000u64, 250_000, 3_750_000, 999_999, 1, 994_000_000];
        assert_eq!(ticks.iter().sum::<u64>(), NS_PER_SEC);
        let mut carry = 0;
        let mut total = 0;
        for elapsed in ticks {
            let (due, next) = arrivals_due(elapsed, 7_919, carry);
            total += due;
            carry = next;
        }
        assert_eq!(total, 7_919);
        assert_eq!(carry, 0);
    }
}
