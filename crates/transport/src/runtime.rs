//! Drives a sans-IO [`sbft_sim::Node`] over real sockets.
//!
//! The discrete-event engine and this runtime expose the *same*
//! [`Context`] to node handlers; the difference is where time and
//! messages come from. Here `ctx.now()` is nanoseconds of wall clock
//! since the runtime started, timers are a [`BinaryHeap`] of wall-clock
//! deadlines, and sends are encoded with [`sbft_wire::Wire`] and handed
//! to the [`TcpTransport`]. `ReplicaNode`, `ClientNode` and the PBFT
//! baseline therefore run unchanged on both backends — the acceptance
//! bar for this subsystem.
//!
//! Single-threaded by design: the node is `!Send`, so the runtime loops
//! on the caller's thread, alternating between due timers and inbound
//! frames. Per-process parallelism comes from running one process (or
//! thread) per node, as a real deployment would.
//!
//! Every inbound frame passes the node's trust boundary
//! ([`Node::inbound_verifier`]) in a [`VerifyPool`] before its handler
//! runs: on the node thread at verify width ≤ 1, on worker threads at 2
//! or more. Self-sends loop back without it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sbft_sim::{Context, InboundVerifier, Metrics, Node, NodeId, SimMessage, SimRng, SimTime};
use sbft_telemetry::{Counter, Registry};
use sbft_wire::Wire;

use crate::tcp::TcpTransport;
use crate::verify::{VerifyPool, VerifyPoolStats, VERIFY_BATCH, VERIFY_QUEUE};

/// The boundary of a node without checks of its own: decode, accept.
struct DecodeOnly;

impl<M: Wire> InboundVerifier<M> for DecodeOnly {
    fn decode(&self, payload: &[u8]) -> Option<M> {
        M::from_wire_bytes(payload).ok()
    }
}

/// Wall-clock runtime for one node.
pub struct NodeRuntime<M: SimMessage + Wire> {
    node: Box<dyn Node<M>>,
    transport: TcpTransport,
    /// Decoded messages from other nodes that passed the node's
    /// verifier, in per-peer FIFO order.
    inbound: VerifyPool<M>,
    rng: SimRng,
    metrics: Metrics,
    next_timer_id: u64,
    /// Min-heap of `(deadline_ns, timer_id, token)`.
    timers: BinaryHeap<Reverse<(u64, u64, u64)>>,
    /// Ids currently sitting in `timers` — the only ids a cancel can
    /// meaningfully apply to. Cancels for ids not in here (typically a
    /// timer that already fired: reply arrives, then the handler cancels
    /// the retransmit timer) are dropped on the floor instead of being
    /// remembered forever.
    live: HashSet<u64>,
    cancelled: HashSet<u64>,
    /// Self-sends and other locally-deliverable messages, processed
    /// before touching the socket channel.
    loopback: VecDeque<(NodeId, M)>,
    start: Instant,
    started: bool,
    events: u64,
    /// Clock skew (ns) applied to the time the node observes via
    /// `ctx.now()` — fault-injection harnesses skew replicas to probe
    /// timestamp-sensitive paths. Timer deadlines stay monotonic.
    clock_skew_ns: i64,
    /// The node's shared telemetry registry (rooted in the transport).
    registry: Registry,
    /// Cached `sbft_node_<key>` counter handles: the node's single-writer
    /// [`Metrics`] counters are mirrored into the registry after each
    /// poll so other threads (the introspection endpoint) can read them.
    mirrored: HashMap<&'static str, Counter>,
    /// Sample keys whose histograms the registry has already adopted
    /// (adoption shares buckets, so it only needs to happen once).
    adopted_samples: HashSet<&'static str>,
}

impl<M: SimMessage + Wire + Send> NodeRuntime<M> {
    /// Wraps a node and its transport, checking inbound frames on the
    /// node thread. `seed` feeds the deterministic RNG handlers see via
    /// `ctx.rng()` (determinism of the *node logic*; the network is of
    /// course not deterministic here).
    pub fn new(node: Box<dyn Node<M>>, transport: TcpTransport, seed: u64) -> Self {
        NodeRuntime::with_verify_pool(node, transport, seed, 1)
    }

    /// Wraps a node and its transport with `threads` verification
    /// workers: at 2 or more, worker threads decode and verify inbound
    /// frames (via the node's [`Node::inbound_verifier`]) before the
    /// node sees them, releasing messages in strict per-peer FIFO order;
    /// below 2 the node thread does the same checks itself.
    pub fn with_verify_pool(
        node: Box<dyn Node<M>>,
        mut transport: TcpTransport,
        seed: u64,
        threads: usize,
    ) -> Self {
        let registry = transport.registry();
        let verifier = node
            .inbound_verifier()
            .unwrap_or_else(|| Arc::new(DecodeOnly));
        let inbound = VerifyPool::start(
            transport.take_inbound(),
            verifier,
            threads,
            VERIFY_BATCH,
            VERIFY_QUEUE,
            &registry,
        );
        NodeRuntime {
            node,
            transport,
            inbound,
            rng: SimRng::new(seed),
            metrics: Metrics::new(false),
            next_timer_id: 0,
            timers: BinaryHeap::new(),
            live: HashSet::new(),
            cancelled: HashSet::new(),
            loopback: VecDeque::new(),
            start: Instant::now(),
            started: false,
            events: 0,
            clock_skew_ns: 0,
            registry,
            mirrored: HashMap::new(),
            adopted_samples: HashSet::new(),
        }
    }
}

impl<M: SimMessage + Wire> NodeRuntime<M> {
    /// Skews the clock the node observes through `ctx.now()` by
    /// `skew_ns` nanoseconds (positive = the node believes it is in the
    /// future). Mirrors `Simulation::set_clock_skew`.
    pub fn set_clock_skew(&mut self, skew_ns: i64) {
        self.clock_skew_ns = skew_ns;
    }

    /// Counters of the inbound trust boundary.
    pub fn verify_pool_stats(&self) -> VerifyPoolStats {
        self.inbound.stats()
    }

    /// Verification worker threads in use (0 = the node thread checks
    /// inbound frames itself).
    pub fn verify_threads(&self) -> usize {
        self.inbound.threads()
    }

    /// Nanoseconds since the runtime was created, as the node's timebase.
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.start.elapsed().as_nanos() as u64)
    }

    /// The underlying transport.
    pub fn transport(&self) -> &TcpTransport {
        &self.transport
    }

    /// Per-label metrics, mirroring the simulator's accounting.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The node's shared telemetry registry — the same one the
    /// transport and verify pool write into, so a single endpoint
    /// exposes the whole process-node.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mirrors the node thread's single-writer [`Metrics`] into the
    /// shared registry as `sbft_node_<key>` counters (handles cached —
    /// one relaxed store per counter) and adopts its sample histograms
    /// zero-copy. Runs after every `poll` so the introspection endpoint
    /// sees protocol counters at most one poll stale.
    fn mirror_metrics(&mut self) {
        let registry = &self.registry;
        let mirrored = &mut self.mirrored;
        let mut set = |key: &'static str, value: u64| {
            mirrored
                .entry(key)
                .or_insert_with(|| registry.counter(&format!("sbft_node_{key}")))
                .set(value);
        };
        for (key, value) in self.metrics.counters() {
            set(key, value);
        }
        set("events_processed", self.events);
        for (key, histogram) in self.metrics.sample_histograms() {
            if self.adopted_samples.insert(key) {
                registry.adopt_histogram(&format!("sbft_node_{key}"), histogram);
            }
        }
    }

    /// Handler invocations so far (messages + timers + start).
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Frames that failed to decode as `M` (malformed or hostile peers),
    /// wherever the decoding happened — node thread or pipeline workers.
    pub fn decode_errors(&self) -> u64 {
        self.inbound.stats().decode_errors
    }

    /// Timers currently pending in the heap (diagnostics).
    pub fn pending_timers(&self) -> usize {
        self.timers.len()
    }

    /// Cancellation markers waiting for their timer to surface. Bounded
    /// by [`Self::pending_timers`] — cancels for already-fired ids are
    /// discarded at the door (regression-tested; this set used to grow
    /// without bound in long-running nodes).
    pub fn pending_cancels(&self) -> usize {
        self.cancelled.len()
    }

    /// Downcasts the node for inspection, as `Simulation::node_as` does.
    pub fn node_as<T: 'static>(&self) -> Option<&T> {
        self.node.as_any().downcast_ref::<T>()
    }

    /// Mutable downcast of the node.
    pub fn node_as_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.node.as_any_mut().downcast_mut::<T>()
    }

    /// Invokes `on_start` once; later calls are no-ops.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        self.dispatch(|node, ctx| node.on_start(ctx));
    }

    fn dispatch<F>(&mut self, f: F)
    where
        F: FnOnce(&mut dyn Node<M>, &mut Context<'_, M>),
    {
        let now = self.now();
        let node_id = self.transport.node_id();
        let mut ctx = Context::external(
            now,
            node_id,
            &mut self.rng,
            &mut self.metrics,
            &mut self.next_timer_id,
        );
        ctx.set_clock_skew(self.clock_skew_ns);
        // Real sockets → real time: let tracers observe in-handler
        // durations (the simulator leaves this off for determinism).
        ctx.enable_wall_clock();
        f(self.node.as_mut(), &mut ctx);
        let effects = ctx.into_effects();
        self.events += 1;
        for (to, msg) in effects.sends {
            if to == node_id {
                self.metrics
                    .note_send(now, node_id, to, msg.label(), msg.wire_size());
                // Skip the socket round-trip; order is still FIFO.
                self.loopback.push_back((to, msg));
            } else {
                // Encode once: the bytes both size the send and go out.
                let payload = msg.to_wire_bytes();
                self.metrics
                    .note_send(now, node_id, to, msg.label(), payload.len());
                self.transport.send(to, payload);
            }
        }
        for (id, at, token) in effects.timers {
            self.live.insert(id.raw());
            self.timers.push(Reverse((at.as_nanos(), id.raw(), token)));
        }
        for id in effects.cancels {
            // Only remember cancels that can still suppress a pending
            // timer; a cancel racing a timer that already fired must not
            // grow the set unboundedly in a long-running node.
            if self.live.contains(&id.raw()) {
                self.cancelled.insert(id.raw());
            }
        }
    }

    /// Fires every timer due at `now`; returns the next pending deadline.
    ///
    /// `now` is snapshotted **once**: a handler that re-arms a short
    /// timer cannot retrigger within the same pass, even when handling
    /// takes longer than the delay. (Re-reading the clock per iteration
    /// livelocked here — an unlucky node could spin firing
    /// perpetually-due timers and never return to `poll`'s deadline
    /// check or the inbound queue.)
    fn fire_due_timers(&mut self) -> Option<u64> {
        let now_ns = self.now().as_nanos();
        let mut fired = 0u64;
        loop {
            match self.timers.peek() {
                Some(&Reverse((at, id, token))) if at <= now_ns => {
                    self.timers.pop();
                    self.live.remove(&id);
                    if self.cancelled.remove(&id) {
                        continue;
                    }
                    fired += 1;
                    // Fail-stop guard, as for the loopback drain: a node
                    // that arms an already-due timer from its own timer
                    // handler would spin here forever.
                    assert!(
                        fired <= 1_000_000,
                        "timer storm: token={token} heap={}",
                        self.timers.len(),
                    );
                    self.dispatch(|node, ctx| node.on_timer(token, ctx));
                }
                Some(&Reverse((at, _, _))) => return Some(at),
                None => return None,
            }
        }
    }

    /// Cap on frames drained per blocking wakeup, so a firehose of
    /// inbound traffic cannot starve due timers (and loopback sends) for
    /// more than one bounded batch.
    const DRAIN_BATCH: u64 = 1024;

    /// Processes events (timers, loopback, inbound frames) for up to
    /// `budget` of wall time, then returns. Call in a loop and inspect
    /// the node between calls — the real-socket analogue of
    /// `Simulation::run_for`. Returns events processed during the call.
    ///
    /// Inbound frames are drained in batches: one blocking wait per
    /// *batch* of ready frames (up to `DRAIN_BATCH`), not per
    /// frame, so under load the channel-wakeup cost amortizes across
    /// everything that has already arrived.
    pub fn poll(&mut self, budget: Duration) -> u64 {
        self.start();
        let before = self.events;
        let deadline = Instant::now() + budget;
        loop {
            let mut lb = 0u64;
            while let Some((from, msg)) = self.loopback.pop_front() {
                lb += 1;
                // Fail-stop guard: a self-send cycle in the node would
                // otherwise pin this thread silently at 100% CPU (a
                // request-forwarding cycle did exactly that once). Real
                // bursts are bounded by batch sizes — orders of
                // magnitude below this.
                assert!(
                    lb <= 1_000_000,
                    "loopback storm: node self-send cycle? label={}",
                    msg.label(),
                );
                self.dispatch(|node, ctx| node.on_message(from, msg, ctx));
            }
            let next_timer = self.fire_due_timers();
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let mut wait = deadline - now;
            if let Some(at_ns) = next_timer {
                let until_timer = Duration::from_nanos(at_ns.saturating_sub(self.now().as_nanos()));
                wait = wait.min(until_timer);
            }
            // Zero-duration waits still poll the channel once.
            let wait = wait.max(Duration::from_micros(100));
            if let Some((from, msg)) = self.inbound.recv_timeout(wait) {
                self.dispatch(|node, ctx| node.on_message(from, msg, ctx));
                // Batch-drain whatever else is already ready before
                // going back around to timers.
                let mut drained = 1;
                while drained < Self::DRAIN_BATCH {
                    match self.inbound.try_recv() {
                        Some((from, msg)) => {
                            self.dispatch(|node, ctx| node.on_message(from, msg, ctx));
                            drained += 1;
                        }
                        None => break,
                    }
                }
            }
        }
        self.mirror_metrics();
        self.events - before
    }

    /// Polls until `stop` returns true or `timeout` elapses; returns
    /// whether the predicate was met. The predicate runs between polls,
    /// every `tick`.
    pub fn run_until(
        &mut self,
        timeout: Duration,
        tick: Duration,
        mut stop: impl FnMut(&Self) -> bool,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if stop(self) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            self.poll(tick);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TransportConfig;
    use sbft_sim::SimDuration;
    use std::net::TcpListener;

    #[derive(Clone)]
    struct Ping(u64);

    impl SimMessage for Ping {
        fn wire_size(&self) -> usize {
            8 + crate::frame::FRAME_HEADER_BYTES
        }
        fn label(&self) -> &'static str {
            "ping"
        }
    }

    impl Wire for Ping {
        fn encode(&self, enc: &mut sbft_wire::Encoder) {
            enc.put_u64(self.0);
        }
        fn decode(dec: &mut sbft_wire::Decoder<'_>) -> Result<Self, sbft_wire::DecodeError> {
            Ok(Ping(dec.get_u64()?))
        }
    }

    /// Echoes pings back, counting rounds; node 0 initiates.
    struct Echo {
        peer: NodeId,
        initiator: bool,
        rounds: u64,
        completed: u64,
        timer_fired: bool,
    }

    impl Node<Ping> for Echo {
        sbft_sim::impl_node_any!();

        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            ctx.set_timer(SimDuration::from_millis(5), 99);
            if self.initiator {
                ctx.send(self.peer, Ping(0));
            }
        }

        fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut Context<'_, Ping>) {
            if self.initiator {
                self.completed = msg.0 + 1;
                if self.completed < self.rounds {
                    ctx.send(from, Ping(msg.0 + 1));
                }
            } else {
                ctx.send(from, msg);
            }
        }

        fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_, Ping>) {
            if token == 99 {
                self.timer_fired = true;
            }
        }
    }

    #[test]
    fn ping_pong_over_real_sockets_with_timers() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a0 = l0.local_addr().unwrap().to_string();
        let a1 = l1.local_addr().unwrap().to_string();

        let responder = std::thread::spawn(move || {
            let transport =
                TcpTransport::with_listener(TransportConfig::new(1, vec![(0, a0)]), l1).unwrap();
            let mut rt = NodeRuntime::new(
                Box::new(Echo {
                    peer: 0,
                    initiator: false,
                    rounds: 0,
                    completed: 0,
                    timer_fired: false,
                }),
                transport,
                1,
            );
            // Serve until the initiator is done (bounded).
            rt.poll(Duration::from_secs(3));
            rt.metrics().label_count("ping")
        });

        let transport =
            TcpTransport::with_listener(TransportConfig::new(0, vec![(1, a1)]), l0).unwrap();
        let mut rt = NodeRuntime::new(
            Box::new(Echo {
                peer: 1,
                initiator: true,
                rounds: 5,
                completed: 0,
                timer_fired: false,
            }),
            transport,
            0,
        );
        let done = rt.run_until(Duration::from_secs(5), Duration::from_millis(20), |rt| {
            rt.node_as::<Echo>().unwrap().completed >= 5
                && rt.node_as::<Echo>().unwrap().timer_fired
        });
        assert!(done, "five ping-pong rounds and a timer within deadline");
        assert_eq!(rt.metrics().label_count("ping"), 5);
        assert!(rt.events_processed() >= 7, "start + 5 pongs + timer");
        let responder_pings = responder.join().unwrap();
        assert!(responder_pings >= 5);
    }

    /// A node that sends to itself: must loop back without a socket.
    struct SelfTalker {
        heard: u64,
    }

    impl Node<Ping> for SelfTalker {
        sbft_sim::impl_node_any!();

        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            let me = ctx.id();
            ctx.send(me, Ping(7));
        }

        fn on_message(&mut self, _from: NodeId, msg: Ping, _ctx: &mut Context<'_, Ping>) {
            self.heard = msg.0;
        }
    }

    /// The common client pattern, distilled: a timer fires, and only
    /// *then* does the node cancel it (a reply arriving after the
    /// deadline). Every such cancel used to live in the `cancelled` set
    /// forever.
    struct LateCanceller {
        last: Option<sbft_sim::TimerId>,
        rounds: u64,
        target: u64,
    }

    impl Node<Ping> for LateCanceller {
        sbft_sim::impl_node_any!();

        fn on_message(&mut self, _from: NodeId, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}

        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            self.last = Some(ctx.set_timer(SimDuration::from_micros(200), 1));
        }

        fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, Ping>) {
            // This timer has already fired — cancelling it is a no-op
            // the runtime must not remember.
            if let Some(id) = self.last.take() {
                ctx.cancel_timer(id);
            }
            self.rounds += 1;
            if self.rounds < self.target {
                self.last = Some(ctx.set_timer(SimDuration::from_micros(200), 1));
            }
        }
    }

    #[test]
    fn cancels_of_fired_timers_do_not_accumulate() {
        const ROUNDS: u64 = 100;
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let transport = TcpTransport::with_listener(TransportConfig::new(3, vec![]), l).unwrap();
        let mut rt = NodeRuntime::new(
            Box::new(LateCanceller {
                last: None,
                rounds: 0,
                target: ROUNDS,
            }),
            transport,
            0,
        );
        let done = rt.run_until(Duration::from_secs(10), Duration::from_millis(5), |rt| {
            rt.node_as::<LateCanceller>().unwrap().rounds >= ROUNDS
        });
        assert!(done, "all timer rounds fired");
        assert_eq!(
            rt.pending_cancels(),
            0,
            "cancels for already-fired timers must be dropped, not hoarded"
        );
        assert!(rt.pending_timers() <= 1);
    }

    /// A node that cancels its timer *before* it fires: suppression must
    /// still work, and the marker must drain once the deadline passes.
    struct EarlyCanceller {
        suppressed_fired: bool,
        cancelled_at_start: bool,
    }

    impl Node<Ping> for EarlyCanceller {
        sbft_sim::impl_node_any!();

        fn on_message(&mut self, _from: NodeId, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}

        fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
            let id = ctx.set_timer(SimDuration::from_millis(5), 7);
            ctx.cancel_timer(id);
            self.cancelled_at_start = true;
        }

        fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_, Ping>) {
            if token == 7 {
                self.suppressed_fired = true;
            }
        }
    }

    #[test]
    fn cancel_before_fire_still_suppresses_and_drains() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let transport = TcpTransport::with_listener(TransportConfig::new(5, vec![]), l).unwrap();
        let mut rt = NodeRuntime::new(
            Box::new(EarlyCanceller {
                suppressed_fired: false,
                cancelled_at_start: false,
            }),
            transport,
            0,
        );
        rt.poll(Duration::from_millis(1));
        assert!(rt.node_as::<EarlyCanceller>().unwrap().cancelled_at_start);
        assert_eq!(rt.pending_cancels(), 1, "pending cancel is remembered");
        rt.poll(Duration::from_millis(20)); // deadline passes
        assert!(
            !rt.node_as::<EarlyCanceller>().unwrap().suppressed_fired,
            "cancelled timer must not fire"
        );
        assert_eq!(rt.pending_cancels(), 0, "marker drains with the timer");
        assert_eq!(rt.pending_timers(), 0);
    }

    #[test]
    fn self_sends_bypass_the_network() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let transport = TcpTransport::with_listener(TransportConfig::new(4, vec![]), l).unwrap();
        let mut rt = NodeRuntime::new(Box::new(SelfTalker { heard: 0 }), transport, 0);
        rt.poll(Duration::from_millis(50));
        assert_eq!(rt.node_as::<SelfTalker>().unwrap().heard, 7);
        assert_eq!(rt.transport().control().stats().frames_sent, 0);
    }
}
