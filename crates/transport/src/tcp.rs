//! A std-only TCP transport: `std::net` sockets, threads and channels.
//!
//! Connection model: every ordered pair of nodes gets its own connection —
//! node `a` dials node `b` and uses that socket **only to send**; `b`
//! attributes the traffic from the [`Handshake`] frame and only reads.
//! This keeps every socket single-writer/single-reader, so no framing
//! locks are needed and a severed direction heals independently.
//!
//! Because the dialing side's socket carries no inbound traffic, it can
//! be non-blocking without disturbing reads: sends are written **inline**
//! from the calling thread (one `write` syscall, no handoff) whenever
//! the socket has room. A per-peer flusher thread exists only for the
//! cold paths — (re)connecting with exponential backoff, and draining
//! the bounded backlog that accumulates while the socket is full or
//! down, coalescing the whole backlog into single writes. While a peer
//! is down, sends overflow the backlog and are dropped with a counter
//! bump — BFT protocols tolerate message loss and the client retry
//! logic regenerates any traffic that mattered.
//!
//! There is no authentication on connections: protocol messages carry
//! their own signatures, which is what SBFT actually relies on. The
//! handshake only attributes traffic to a node id.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use sbft_sim::NodeId;
use sbft_telemetry::{Counter, Gauge, Histogram, Registry};
use sbft_wire::Wire;

use crate::frame::{self, FrameReader, Handshake, DEFAULT_MAX_FRAME};

/// Configuration for one node's transport endpoint.
#[derive(Debug, Clone)]
pub struct TransportConfig {
    /// This node's id (replicas first, then clients — the simulator's
    /// numbering, so `sbft_sim::Node` implementations address peers
    /// identically on both backends).
    pub node_id: NodeId,
    /// Peer addresses, excluding this node (entries for `node_id` are
    /// ignored). `host:port` strings, resolved on every connect attempt.
    pub peers: Vec<(NodeId, String)>,
    /// Per-frame payload cap (a corrupt length prefix must not OOM us).
    pub max_frame: usize,
    /// First reconnect delay; doubles per failure.
    pub reconnect_base: Duration,
    /// Reconnect delay cap.
    pub reconnect_max: Duration,
    /// Per-connect-attempt timeout.
    pub connect_timeout: Duration,
    /// Bounded per-peer outbound backlog, in frames. The backlog only
    /// holds frames the inline write path couldn't put on the socket
    /// (peer down or socket full); overflow drops (and counts).
    pub outbound_queue: usize,
    /// Bounded inbound queue shared by all peers. Reader threads *block*
    /// on a full queue, which backpressures into the kernel's TCP buffers
    /// and from there to the sender — bounded memory without message
    /// loss, even against a peer that streams frames faster than the
    /// node drains them.
    pub inbound_queue: usize,
    /// Coalescing cap: each flusher pass writes up to this many backlog
    /// bytes with one syscall — many frames per `write` under load.
    /// Frames never wait for the budget to fill; an undersized backlog
    /// is written immediately.
    pub coalesce_budget: usize,
    /// Per-connection read-ahead buffer: one `read` syscall can surface
    /// many small frames.
    pub read_buffer: usize,
    /// Initial capacity of the per-peer backlog buffer (it grows on
    /// demand up to `outbound_queue` frames).
    pub write_buffer: usize,
    /// Range routes for node ids with no connection of their own: a send
    /// to an id in `[lo, hi)` is delivered over the connection to `via`
    /// instead of being dropped. This is how replicas answer gateway
    /// sessions — thousands of logical clients multiplexed over one
    /// physical gateway connection (`ClusterSpec::gateway_sessions`).
    /// Frames carry no destination, so the via-node must demultiplex
    /// from the payload itself (acks and replies name their client).
    /// Checked only after the direct peer table misses.
    pub alias_routes: Vec<AliasRoute>,
}

/// One entry of [`TransportConfig::alias_routes`]: node ids in
/// `[lo, hi)` are reachable via the connection to `via`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AliasRoute {
    /// First aliased node id (inclusive).
    pub lo: NodeId,
    /// End of the aliased range (exclusive).
    pub hi: NodeId,
    /// Peer whose connection carries the aliased traffic.
    pub via: NodeId,
}

impl TransportConfig {
    /// Defaults tuned for LAN/loopback clusters.
    pub fn new(node_id: NodeId, peers: Vec<(NodeId, String)>) -> Self {
        TransportConfig {
            node_id,
            peers,
            max_frame: DEFAULT_MAX_FRAME,
            reconnect_base: Duration::from_millis(20),
            reconnect_max: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(2),
            outbound_queue: 4096,
            inbound_queue: 16384,
            coalesce_budget: 256 * 1024,
            read_buffer: 256 * 1024,
            write_buffer: 64 * 1024,
            alias_routes: Vec::new(),
        }
    }

    /// Defaults tuned for WAN deployments: patient reconnects (transient
    /// routing flaps should not burn CPU re-dialing), deeper queues to
    /// ride out bandwidth-delay, and bigger batches per syscall.
    pub fn wan(node_id: NodeId, peers: Vec<(NodeId, String)>) -> Self {
        TransportConfig {
            reconnect_base: Duration::from_millis(200),
            reconnect_max: Duration::from_secs(15),
            connect_timeout: Duration::from_secs(10),
            outbound_queue: 16384,
            inbound_queue: 65536,
            coalesce_budget: 1024 * 1024,
            read_buffer: 1024 * 1024,
            write_buffer: 256 * 1024,
            ..TransportConfig::new(node_id, peers)
        }
    }
}

/// Snapshot of transport-level counters (socket bytes, frame header
/// included — the runtime's `Metrics` tracks per-label payload bytes, this
/// tracks what actually hit the wire).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Frames written to sockets.
    pub frames_sent: u64,
    /// Bytes written to sockets (payload + headers + handshakes).
    pub bytes_sent: u64,
    /// Frames read from sockets.
    pub frames_received: u64,
    /// Bytes read from sockets (payload + headers).
    pub bytes_received: u64,
    /// Successful outbound connections (first connect included, so a
    /// steady cluster of `p` peers shows exactly `p`; anything above that
    /// is a reconnect).
    pub connects: u64,
    /// Messages dropped: peer queue full, unknown destination, or a
    /// connection that died with the message in flight.
    pub dropped: u64,
    /// Inbound connections rejected for a bad handshake.
    pub handshake_rejects: u64,
}

/// The transport's hot-path telemetry handles. They live in the node's
/// shared [`Registry`] (so the introspection endpoint sees them) and
/// [`TransportStats`] snapshots read the same atomics — the exposition
/// and the stats API can never disagree.
struct Counters {
    frames_sent: Counter,
    bytes_sent: Counter,
    frames_received: Counter,
    bytes_received: Counter,
    connects: Counter,
    dropped: Counter,
    handshake_rejects: Counter,
    /// Framed size of every frame accepted for transmission (frames
    /// dropped at the backlog cap are not recorded).
    frame_bytes_sent: Histogram,
    /// Framed size of every frame read off a socket.
    frame_bytes_received: Histogram,
}

impl Counters {
    fn register(registry: &Registry) -> Counters {
        Counters {
            frames_sent: registry.counter("sbft_transport_frames_sent"),
            bytes_sent: registry.counter("sbft_transport_bytes_sent"),
            frames_received: registry.counter("sbft_transport_frames_received"),
            bytes_received: registry.counter("sbft_transport_bytes_received"),
            connects: registry.counter("sbft_transport_connects"),
            dropped: registry.counter("sbft_transport_dropped"),
            handshake_rejects: registry.counter("sbft_transport_handshake_rejects"),
            frame_bytes_sent: registry.histogram("sbft_transport_frame_bytes_sent"),
            frame_bytes_received: registry.histogram("sbft_transport_frame_bytes_received"),
        }
    }
}

/// Registry of live sockets so [`TransportControl::sever`] and shutdown
/// can close them out from under their owning threads.
#[derive(Default)]
struct StreamRegistry {
    next_id: u64,
    streams: HashMap<u64, (NodeId, TcpStream)>,
}

impl StreamRegistry {
    fn register(&mut self, peer: NodeId, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id;
        self.next_id += 1;
        self.streams.insert(id, (peer, clone));
        Some(id)
    }

    fn deregister(&mut self, id: Option<u64>) {
        if let Some(id) = id {
            self.streams.remove(&id);
        }
    }

    /// Shuts down and **deregisters** every stream to/from `peer`. The
    /// owning reader/writer threads notice the dead socket and release
    /// their (now stale) tokens as a no-op; removing the entries here
    /// keeps the window between shutdown and thread exit from letting a
    /// second `sever` re-count the same dead socket clones as live
    /// connections (phantom connections).
    fn sever(&mut self, peer: NodeId) -> usize {
        let severed: Vec<u64> = self
            .streams
            .iter()
            .filter(|(_, (p, _))| *p == peer)
            .map(|(id, _)| *id)
            .collect();
        for id in &severed {
            if let Some((_, stream)) = self.streams.remove(id) {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        severed.len()
    }

    fn close_all(&mut self) {
        for (_, stream) in self.streams.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.streams.clear();
    }
}

struct Shared {
    shutdown: AtomicBool,
    counters: Counters,
    /// The node's metrics registry; every layer above (verify pool, node
    /// runtime, node binary) clones this same registry so one endpoint
    /// exposes the whole process.
    telemetry: Registry,
    registry: Mutex<StreamRegistry>,
    /// Node ids allowed to appear in an inbound [`Handshake`]: exactly
    /// the configured peer set. The acceptor's own id and ids outside
    /// the cluster are absent, so traffic can never be mis-attributed to
    /// them (a buggy or hostile dialer gets counted and dropped).
    allowed_peers: HashSet<NodeId>,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// Deregisters a [`StreamRegistry`] token when dropped, so every exit
/// path of a reader/writer loop — error, clean close, shutdown,
/// disconnect — releases its registry entry. (A leaked entry would pin a
/// dead socket clone and make `sever()` report phantom connections.)
struct RegistryGuard {
    shared: Arc<Shared>,
    token: Option<u64>,
}

impl RegistryGuard {
    fn register(shared: &Arc<Shared>, peer: NodeId, stream: &TcpStream) -> RegistryGuard {
        let token = shared
            .registry
            .lock()
            .expect("registry lock")
            .register(peer, stream);
        RegistryGuard {
            shared: Arc::clone(shared),
            token,
        }
    }
}

impl Drop for RegistryGuard {
    fn drop(&mut self) {
        // Not `expect`: panicking in drop during an unwind would abort.
        if let Ok(mut registry) = self.shared.registry.lock() {
            registry.deregister(self.token.take());
        }
    }
}

/// Outbound state for one peer, shared between sending threads (inline
/// fast path) and the peer's flusher thread (reconnect + backlog).
struct Out {
    /// The live, *non-blocking* socket; `None` while (re)connecting.
    stream: Option<TcpStream>,
    /// Encoded-but-unwritten bytes (frame order), drained from `pos`.
    buf: Vec<u8>,
    pos: usize,
    /// Cumulative end offsets of frames in `buf` (absolute against
    /// `enqueued`), so `frames_sent` ticks exactly when a frame's last
    /// byte reaches the socket.
    frame_ends: VecDeque<u64>,
    /// Total bytes ever enqueued / flushed on this connection epoch.
    enqueued: u64,
    flushed: u64,
    /// Reused encode buffer for the inline path.
    scratch: Vec<u8>,
    /// Live backlog depth in frames, exported per peer.
    backlog: Gauge,
}

impl Out {
    fn new(write_buffer: usize, backlog: Gauge) -> Out {
        Out {
            stream: None,
            buf: Vec::with_capacity(write_buffer),
            pos: 0,
            frame_ends: VecDeque::new(),
            enqueued: 0,
            flushed: 0,
            scratch: Vec::with_capacity(1024),
            backlog,
        }
    }

    fn backlog_frames(&self) -> usize {
        self.frame_ends.len()
    }

    /// Appends one frame to the backlog (the caller checked capacity).
    /// Returns false (nothing appended) for a payload the framing
    /// cannot carry.
    fn enqueue(&mut self, payload: &[u8]) -> bool {
        let Ok(framed) = frame::encode_frame_into(&mut self.buf, payload) else {
            return false;
        };
        self.enqueued += framed as u64;
        self.frame_ends.push_back(self.enqueued);
        true
    }

    /// Records `n` freshly-written backlog bytes; counts frames whose
    /// last byte just hit the socket.
    fn note_flushed(&mut self, n: usize, counters: &Counters) {
        self.pos += n;
        self.flushed += n as u64;
        counters.bytes_sent.add(n as u64);
        while self
            .frame_ends
            .front()
            .is_some_and(|end| *end <= self.flushed)
        {
            self.frame_ends.pop_front();
            counters.frames_sent.inc();
        }
        self.backlog.set(self.frame_ends.len() as i64);
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
    }

    /// Tears the connection down: unsent frames are lost (counted), the
    /// flusher notices `stream` is gone and reconnects.
    fn mark_dead(&mut self, counters: &Counters) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        counters.dropped.add(self.frame_ends.len() as u64);
        self.buf.clear();
        self.pos = 0;
        self.frame_ends.clear();
        self.enqueued = 0;
        self.flushed = 0;
        self.backlog.set(0);
    }
}

/// One peer's outbound endpoint: senders take the lock, write inline
/// when the backlog is empty, and fall back to the backlog (waking the
/// flusher) when the socket is full or down.
struct Peer {
    out: Mutex<Out>,
    wake: Condvar,
    /// Backlog cap in frames (`TransportConfig::outbound_queue`).
    cap: usize,
}

impl Peer {
    /// Enqueues onto the backlog, dropping (with a counter bump) at cap
    /// or for an unencodable payload.
    fn enqueue_or_drop(&self, out: &mut Out, payload: &[u8], counters: &Counters) {
        if out.backlog_frames() >= self.cap || !out.enqueue(payload) {
            counters.dropped.inc();
            return;
        }
        counters
            .frame_bytes_sent
            .record(frame::framed_len(payload) as u64);
        out.backlog.set(out.backlog_frames() as i64);
        self.wake.notify_one();
    }

    /// Sends `payload` as one frame: inline non-blocking write when the
    /// socket is live and the backlog empty, backlog otherwise. Never
    /// blocks beyond a short critical section.
    fn send(&self, payload: &[u8], counters: &Counters) {
        let mut out = self.out.lock().expect("peer lock");
        if out.stream.is_none() || !out.buf.is_empty() {
            self.enqueue_or_drop(&mut out, payload, counters);
            return;
        }
        // Inline fast path: encode into the reused scratch buffer, then
        // one non-blocking write (loopback/LAN sockets almost always
        // have room, so this is one syscall and zero thread handoffs).
        out.scratch.clear();
        let total = match frame::encode_frame_into(&mut out.scratch, payload) {
            Ok(n) => n,
            Err(_) => {
                counters.dropped.inc();
                return;
            }
        };
        counters.frame_bytes_sent.record(total as u64);
        let mut written = 0;
        while written < total {
            let Out {
                stream, scratch, ..
            } = &mut *out;
            match stream
                .as_mut()
                .expect("stream live")
                .write(&scratch[written..])
            {
                Ok(0) => {
                    out.mark_dead(counters);
                    counters.dropped.inc();
                    self.wake.notify_one();
                    return;
                }
                Ok(n) => {
                    written += n;
                    counters.bytes_sent.add(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Socket full mid-frame: the remainder goes first in
                    // the backlog; the flusher finishes the frame.
                    let rest = out.scratch.split_off(written);
                    out.buf.extend_from_slice(&rest);
                    out.enqueued += rest.len() as u64;
                    let end = out.enqueued;
                    out.frame_ends.push_back(end);
                    out.backlog.set(out.frame_ends.len() as i64);
                    self.wake.notify_one();
                    return;
                }
                Err(_) => {
                    out.mark_dead(counters);
                    counters.dropped.inc();
                    self.wake.notify_one();
                    return;
                }
            }
        }
        counters.frames_sent.inc();
    }
}

/// Cloneable, `Send + Sync` handle for observing and disturbing a
/// transport from another thread (tests kill connections with it; the
/// node binary prints its stats).
#[derive(Clone)]
pub struct TransportControl {
    shared: Arc<Shared>,
}

impl TransportControl {
    /// Forcibly closes every live socket to/from `peer`, as if the
    /// network dropped the connections. The writer thread reconnects
    /// with backoff; liveness must resume. Returns how many sockets were
    /// severed.
    pub fn sever(&self, peer: NodeId) -> usize {
        self.shared
            .registry
            .lock()
            .expect("registry lock")
            .sever(peer)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TransportStats {
        let c = &self.shared.counters;
        TransportStats {
            frames_sent: c.frames_sent.get(),
            bytes_sent: c.bytes_sent.get(),
            frames_received: c.frames_received.get(),
            bytes_received: c.bytes_received.get(),
            connects: c.connects.get(),
            dropped: c.dropped.get(),
            handshake_rejects: c.handshake_rejects.get(),
        }
    }

    /// The node's metrics registry (shared with the owning transport).
    pub fn registry(&self) -> Registry {
        self.shared.telemetry.clone()
    }

    /// Stops all transport threads and closes all sockets.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared
            .registry
            .lock()
            .expect("registry lock")
            .close_all();
    }
}

/// One node's TCP endpoint: a listener, per-peer writer threads, and a
/// single inbound channel of `(from, payload)` frames.
pub struct TcpTransport {
    node_id: NodeId,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    inbound: Receiver<(NodeId, Vec<u8>)>,
    inbound_tx: SyncSender<(NodeId, Vec<u8>)>,
    outbound: HashMap<NodeId, Arc<Peer>>,
    alias_routes: Vec<AliasRoute>,
    /// Keeps the placeholder channel alive after [`Self::take_inbound`]
    /// moved the real receiver out (a dead placeholder would make
    /// `recv_timeout` return instantly forever — a spin loop for any
    /// caller that still polls the transport directly).
    _parked_inbound_tx: Option<SyncSender<(NodeId, Vec<u8>)>>,
}

impl TcpTransport {
    /// Binds `listen` and starts the accept loop and per-peer writers.
    ///
    /// # Errors
    ///
    /// Fails if the listen address cannot be bound.
    pub fn bind(config: TransportConfig, listen: &str) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(listen)?;
        TcpTransport::with_listener(config, listener)
    }

    /// Starts the transport on an already-bound listener (tests bind port
    /// 0 first so the OS picks free ports, then hand the listeners over).
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot be inspected or made non-blocking.
    pub fn with_listener(
        config: TransportConfig,
        listener: TcpListener,
    ) -> io::Result<TcpTransport> {
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let allowed_peers: HashSet<NodeId> = config
            .peers
            .iter()
            .map(|(peer, _)| *peer)
            .filter(|peer| *peer != config.node_id)
            .collect();
        let telemetry = Registry::new();
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            counters: Counters::register(&telemetry),
            telemetry: telemetry.clone(),
            registry: Mutex::new(StreamRegistry::default()),
            allowed_peers,
        });
        let (inbound_tx, inbound) = mpsc::sync_channel(config.inbound_queue);

        {
            let shared = Arc::clone(&shared);
            let inbound_tx = inbound_tx.clone();
            let max_frame = config.max_frame;
            let read_buffer = config.read_buffer;
            thread::Builder::new()
                .name(format!("sbft-accept-{}", config.node_id))
                .spawn(move || accept_loop(listener, shared, inbound_tx, max_frame, read_buffer))
                .expect("spawn accept thread");
        }

        let mut outbound = HashMap::new();
        for (peer, addr) in &config.peers {
            if *peer == config.node_id || outbound.contains_key(peer) {
                continue;
            }
            let backlog =
                telemetry.gauge(&format!("sbft_transport_peer_backlog{{peer=\"{peer}\"}}"));
            let handle = Arc::new(Peer {
                out: Mutex::new(Out::new(config.write_buffer, backlog)),
                wake: Condvar::new(),
                cap: config.outbound_queue,
            });
            let shared = Arc::clone(&shared);
            let writer = WriterConfig {
                node_id: config.node_id,
                peer: *peer,
                addr: addr.clone(),
                reconnect_base: config.reconnect_base,
                reconnect_max: config.reconnect_max,
                connect_timeout: config.connect_timeout,
                coalesce_budget: config.coalesce_budget,
            };
            let flusher_handle = Arc::clone(&handle);
            thread::Builder::new()
                .name(format!("sbft-writer-{}-to-{}", config.node_id, peer))
                .spawn(move || writer_loop(writer, flusher_handle, shared))
                .expect("spawn writer thread");
            outbound.insert(*peer, handle);
        }

        Ok(TcpTransport {
            node_id: config.node_id,
            local_addr,
            shared,
            inbound,
            inbound_tx,
            outbound,
            alias_routes: config.alias_routes,
            _parked_inbound_tx: None,
        })
    }

    /// Moves the inbound frame channel out of the transport, for the
    /// verification stage that screens raw frames before a node sees
    /// them (`NodeRuntime` always takes it). Reader threads (and
    /// self-sends) keep feeding the moved channel; subsequent
    /// [`Self::recv_timeout`] / [`Self::try_recv`] calls on the transport
    /// itself see nothing.
    pub fn take_inbound(&mut self) -> Receiver<(NodeId, Vec<u8>)> {
        let (parked_tx, parked_rx) = mpsc::sync_channel(1);
        self._parked_inbound_tx = Some(parked_tx);
        std::mem::replace(&mut self.inbound, parked_rx)
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A `Send + Sync` control handle (stats, sever, shutdown).
    pub fn control(&self) -> TransportControl {
        TransportControl {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The node's metrics registry. The transport roots it (it is the
    /// first thing a process-node constructs); the verify pool, the
    /// node runtime and the introspection endpoint all clone this same
    /// registry so one exposition covers the whole node.
    pub fn registry(&self) -> Registry {
        self.shared.telemetry.clone()
    }

    /// A `Send + Sync` handle that feeds self-addressed frames into this
    /// node's inbound channel from other threads. Off-thread components
    /// (the execution pool's completion wake) use it to rouse a node
    /// blocked in [`Self::recv_timeout`]; injected frames flow through
    /// the same path as network traffic, so they also work when a
    /// verification pipeline has taken the inbound channel over.
    pub fn self_injector(&self) -> InboundInjector {
        InboundInjector {
            node_id: self.node_id,
            tx: self.inbound_tx.clone(),
        }
    }

    /// Enqueues a payload for `to`. Self-sends loop straight back into
    /// the inbound channel. Never blocks: if the peer's queue is full or
    /// the peer is unknown, the message is dropped and counted — the
    /// protocol layer's retries own reliability.
    pub fn send(&self, to: NodeId, payload: Vec<u8>) {
        if to == self.node_id {
            // try_send, not send: the caller is also the queue's drainer,
            // so blocking on a full inbound queue would deadlock.
            if self.inbound_tx.try_send((self.node_id, payload)).is_err() {
                self.shared.counters.dropped.inc();
            }
            return;
        }
        let direct = self.outbound.get(&to).or_else(|| {
            // No connection of its own: an aliased id (gateway session)
            // rides the via-node's connection instead.
            self.alias_routes
                .iter()
                .find(|route| route.lo <= to && to < route.hi)
                .and_then(|route| self.outbound.get(&route.via))
        });
        let Some(peer) = direct else {
            self.shared.counters.dropped.inc();
            return;
        };
        peer.send(&payload, &self.shared.counters);
    }

    /// Encodes a [`Wire`] message and enqueues it; returns the exact
    /// framed size in bytes (for byte accounting).
    pub fn send_msg<M: Wire>(&self, to: NodeId, msg: &M) -> usize {
        let payload = msg.to_wire_bytes();
        let framed = frame::framed_len(&payload);
        self.send(to, payload);
        framed
    }

    /// Receives the next inbound frame, waiting at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        match self.inbound.recv_timeout(timeout) {
            Ok(item) => Some(item),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<(NodeId, Vec<u8>)> {
        self.inbound.try_recv().ok()
    }
}

/// Cross-thread handle that injects frames into a node's inbound channel
/// as if the node had sent them to itself (see
/// [`TcpTransport::self_injector`]). Drops the frame (returning `false`)
/// if the inbound queue is full — wake-ups are best-effort, and the node
/// will drain completions on its next poll anyway.
#[derive(Clone)]
pub struct InboundInjector {
    node_id: NodeId,
    tx: SyncSender<(NodeId, Vec<u8>)>,
}

impl InboundInjector {
    /// Pushes a self-addressed payload; `false` if the queue was full or
    /// the transport has shut down.
    pub fn inject(&self, payload: Vec<u8>) -> bool {
        self.tx.try_send((self.node_id, payload)).is_ok()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.control().shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    inbound_tx: SyncSender<(NodeId, Vec<u8>)>,
    max_frame: usize,
    read_buffer: usize,
) {
    while !shared.is_shutdown() {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let inbound_tx = inbound_tx.clone();
                thread::Builder::new()
                    .name("sbft-reader".to_string())
                    .spawn(move || reader_loop(stream, shared, inbound_tx, max_frame, read_buffer))
                    .expect("spawn reader thread");
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn reader_loop(
    stream: TcpStream,
    shared: Arc<Shared>,
    inbound_tx: SyncSender<(NodeId, Vec<u8>)>,
    max_frame: usize,
    read_buffer: usize,
) {
    let _ = stream.set_nodelay(true);
    // The handshake must arrive promptly; afterwards reads block freely.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let registry_stream = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = FrameReader::new(stream, read_buffer, max_frame);
    let peer = match reader.read_msg::<Handshake>() {
        Ok(hs) => hs.node_id as NodeId,
        Err(_) => {
            shared.counters.handshake_rejects.inc();
            return;
        }
    };
    // Attribution must name a real peer: an id outside the cluster or
    // the acceptor's own id would silently mis-label every frame on
    // this connection, so such dialers are rejected outright.
    if !shared.allowed_peers.contains(&peer) {
        shared.counters.handshake_rejects.inc();
        let _ = registry_stream.shutdown(Shutdown::Both);
        return;
    }
    let _ = registry_stream.set_read_timeout(None);
    let _guard = RegistryGuard::register(&shared, peer, &registry_stream);
    loop {
        match reader.read_frame() {
            Ok(Some(payload)) => {
                let framed = frame::framed_len(&payload) as u64;
                shared.counters.frames_received.inc();
                shared.counters.bytes_received.add(framed);
                shared.counters.frame_bytes_received.record(framed);
                if inbound_tx.send((peer, payload)).is_err() {
                    break; // transport dropped; nobody is listening
                }
            }
            Ok(None) | Err(_) => break,
        }
    }
}

struct WriterConfig {
    node_id: NodeId,
    peer: NodeId,
    addr: String,
    reconnect_base: Duration,
    reconnect_max: Duration,
    connect_timeout: Duration,
    coalesce_budget: usize,
}

fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing"))?;
    TcpStream::connect_timeout(&resolved, timeout)
}

/// The peer's background thread: (re)connects with capped backoff and
/// drains the backlog when the inline path couldn't — socket full,
/// socket down, or frames queued while connecting. Each drain coalesces
/// up to `coalesce_budget` backlog bytes into a single write. Idle time
/// is spent parked on the peer's condvar.
fn writer_loop(config: WriterConfig, peer: Arc<Peer>, shared: Arc<Shared>) {
    let mut backoff = config.reconnect_base;
    // RAII registry entry for the current connection epoch: replaced on
    // reconnect, dropped on every exit path (shutdown included), so the
    // registry never accumulates dead tokens.
    let mut guard: Option<RegistryGuard> = None;
    while !shared.is_shutdown() {
        let needs_connect = {
            let out = peer.out.lock().expect("peer lock");
            out.stream.is_none()
        };
        if needs_connect {
            guard.take(); // the old epoch's socket is gone
            let stream = match connect(&config.addr, config.connect_timeout) {
                Ok(stream) => stream,
                Err(_) => {
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(config.reconnect_max);
                    continue;
                }
            };
            let _ = stream.set_nodelay(true);
            // The handshake goes out while the socket is still blocking
            // (a fresh socket's buffer has room; blocking is simplest).
            let mut stream = stream;
            let handshake = Handshake {
                node_id: config.node_id as u64,
            };
            let written = match frame::write_msg(&mut stream, &handshake)
                .and_then(|n| stream.flush().map(|()| n))
                .and_then(|n| stream.set_nonblocking(true).map(|()| n))
            {
                Ok(n) => n,
                Err(_) => {
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(config.reconnect_max);
                    continue;
                }
            };
            shared.counters.connects.inc();
            shared.counters.bytes_sent.add(written as u64);
            backoff = config.reconnect_base;
            guard = Some(RegistryGuard::register(&shared, config.peer, &stream));
            let mut out = peer.out.lock().expect("peer lock");
            out.stream = Some(stream);
            // Backlogged frames from the outage flush below, in order,
            // before any new inline write can touch the socket.
            continue;
        }

        let mut out = peer.out.lock().expect("peer lock");
        if out.stream.is_none() {
            continue; // an inline sender hit an error; reconnect
        }
        if out.pos == out.buf.len() {
            // Nothing to flush: park until a sender needs us. The
            // timeout bounds shutdown latency.
            let _ = peer
                .wake
                .wait_timeout(out, Duration::from_millis(100))
                .expect("peer lock");
            continue;
        }
        let end = out.buf.len().min(out.pos + config.coalesce_budget);
        let span = out.pos..end;
        let Out { stream, buf, .. } = &mut *out;
        match stream.as_mut().expect("stream live").write(&buf[span]) {
            Ok(0) => out.mark_dead(&shared.counters),
            Ok(n) => out.note_flushed(n, &shared.counters),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Genuine backpressure: the kernel buffer is full, so
                // pacing is set by the receiver draining it — poll at a
                // gentle cadence rather than burning the core.
                drop(out);
                thread::sleep(Duration::from_micros(200));
            }
            Err(_) => out.mark_dead(&shared.counters),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TcpTransport, TcpTransport) {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a0 = l0.local_addr().unwrap().to_string();
        let a1 = l1.local_addr().unwrap().to_string();
        let t0 = TcpTransport::with_listener(TransportConfig::new(0, vec![(1, a1)]), l0).unwrap();
        let t1 = TcpTransport::with_listener(TransportConfig::new(1, vec![(0, a0)]), l1).unwrap();
        (t0, t1)
    }

    fn recv_until(t: &TcpTransport, deadline: Duration) -> Option<(NodeId, Vec<u8>)> {
        t.recv_timeout(deadline)
    }

    #[test]
    fn two_nodes_exchange_frames() {
        let (t0, t1) = pair();
        t0.send(1, b"ping".to_vec());
        let (from, payload) = recv_until(&t1, Duration::from_secs(5)).expect("ping arrives");
        assert_eq!(from, 0);
        assert_eq!(payload, b"ping");
        t1.send(0, b"pong".to_vec());
        let (from, payload) = recv_until(&t0, Duration::from_secs(5)).expect("pong arrives");
        assert_eq!(from, 1);
        assert_eq!(payload, b"pong");
        let stats = t0.control().stats();
        assert_eq!(stats.frames_sent, 1);
        // Exact accounting: handshake (4+14) + ping (4+4).
        assert_eq!(stats.bytes_sent, 18 + 8);
        // The same counters surface through the telemetry registry, and
        // the frame-size histogram saw exactly the one framed ping.
        let exposition = t0.registry().render_prometheus();
        assert!(exposition.contains("sbft_transport_frames_sent 1"));
        assert!(exposition.contains("sbft_transport_bytes_sent 26"));
        assert!(exposition.contains("sbft_transport_peer_backlog{peer=\"1\"} 0"));
        let snap = t0.registry().snapshot();
        let sizes = snap
            .histogram("sbft_transport_frame_bytes_sent")
            .expect("send size histogram registered");
        assert_eq!((sizes.count(), sizes.sum()), (1, 8));
    }

    #[test]
    fn self_send_loops_back() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let t = TcpTransport::with_listener(TransportConfig::new(7, vec![]), l).unwrap();
        t.send(7, b"me".to_vec());
        let (from, payload) = t.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(from, 7);
        assert_eq!(payload, b"me");
    }

    #[test]
    fn unknown_peer_counts_a_drop() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let t = TcpTransport::with_listener(TransportConfig::new(0, vec![]), l).unwrap();
        t.send(3, b"x".to_vec());
        assert_eq!(t.control().stats().dropped, 1);
    }

    #[test]
    fn alias_route_forwards_over_the_via_connection() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let a0 = l0.local_addr().unwrap().to_string();
        let a1 = l1.local_addr().unwrap().to_string();
        // Node 0 is a "replica" whose sends to ids 100..200 (gateway
        // sessions) must ride node 1's connection.
        let mut c0 = TransportConfig::new(0, vec![(1, a1)]);
        c0.alias_routes.push(AliasRoute {
            lo: 100,
            hi: 200,
            via: 1,
        });
        let t0 = TcpTransport::with_listener(c0, l0).unwrap();
        let t1 = TcpTransport::with_listener(TransportConfig::new(1, vec![(0, a0)]), l1).unwrap();
        t0.send(150, b"for-a-session".to_vec());
        let (from, payload) = t1
            .recv_timeout(Duration::from_secs(5))
            .expect("aliased frame");
        // The frame arrives attributed to the sending *node*; the
        // via-node demultiplexes sessions from the payload itself.
        assert_eq!(from, 0);
        assert_eq!(payload, b"for-a-session");
        assert_eq!(t0.control().stats().dropped, 0);
        // Outside the range the old contract holds: count and drop.
        t0.send(200, b"x".to_vec());
        assert_eq!(t0.control().stats().dropped, 1);
    }

    /// Spins until `check` passes or the deadline expires (counters are
    /// updated by transport threads, so asserts on them must wait).
    fn eventually(what: &str, mut check: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !check() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn coalesced_sends_preserve_fifo_and_exact_byte_accounting() {
        const FRAMES: u32 = 500;
        let (t0, t1) = pair();
        // Burst frames of varying sizes faster than the writer can drain,
        // so wakeups coalesce many frames into single writes.
        let mut payload_bytes = 0u64;
        for i in 0..FRAMES {
            let mut payload = i.to_le_bytes().to_vec();
            payload.resize(4 + (i as usize * 7) % 96, i as u8);
            payload_bytes += frame::framed_len(&payload) as u64;
            t0.send(1, payload);
        }
        for expect in 0..FRAMES {
            let (from, payload) = t1
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|| panic!("frame {expect} never arrived"));
            assert_eq!(from, 0);
            let seq = u32::from_le_bytes(payload[..4].try_into().unwrap());
            assert_eq!(seq, expect, "frames must arrive in FIFO order");
            assert!(payload[4..].iter().all(|b| *b == expect as u8));
        }
        // Exact accounting survives coalescing: counters still equal
        // Σ(wire_len + header), plus the one handshake on the send side.
        let handshake_bytes = {
            let mut buf = Vec::new();
            frame::write_msg(&mut buf, &Handshake { node_id: 0 }).unwrap() as u64
        };
        eventually("sender counters settle", || {
            t0.control().stats().frames_sent == FRAMES as u64
        });
        let sent = t0.control().stats();
        assert_eq!(sent.bytes_sent, handshake_bytes + payload_bytes);
        assert_eq!(sent.dropped, 0);
        let received = t1.control().stats();
        assert_eq!(received.frames_received, FRAMES as u64);
        assert_eq!(received.bytes_received, payload_bytes);
    }

    #[test]
    fn handshake_rejects_self_and_out_of_range_ids() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l0.local_addr().unwrap().to_string();
        // Peer 1 is configured at an address that never handshakes back;
        // the point is that node 0's allowed inbound set is exactly {1}.
        let idle = TcpListener::bind("127.0.0.1:0").unwrap();
        let idle_addr = idle.local_addr().unwrap().to_string();
        let t0 =
            TcpTransport::with_listener(TransportConfig::new(0, vec![(1, idle_addr)]), l0).unwrap();

        let dial = |node_id: u64, payload: &[u8]| {
            let mut s = TcpStream::connect(&addr).unwrap();
            frame::write_msg(&mut s, &Handshake { node_id }).unwrap();
            let _ = frame::write_frame(&mut s, payload);
            s // keep alive so a reject is observable as a counter, not a race
        };

        let _own = dial(0, b"self-attributed");
        let _stranger = dial(99, b"out-of-range");
        eventually("both bad handshakes rejected", || {
            t0.control().stats().handshake_rejects == 2
        });
        // Nothing from either connection may surface as inbound traffic.
        assert!(t0.recv_timeout(Duration::from_millis(200)).is_none());
        assert_eq!(t0.control().stats().frames_received, 0);

        // A legitimate peer id still attributes correctly.
        let _peer = dial(1, b"hello");
        let (from, payload) = t0.recv_timeout(Duration::from_secs(5)).expect("valid peer");
        assert_eq!((from, payload.as_slice()), (1, &b"hello"[..]));
        assert_eq!(t0.control().stats().handshake_rejects, 2);
    }

    #[test]
    fn writer_shutdown_exit_releases_registry_token() {
        // Regression: the writer loop used to deregister its stream only
        // on the write-error path, so exiting any other way (shutdown
        // while idle, in particular) leaked the registry entry across
        // reconnects. The RAII guard must release it on every exit path.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let telemetry = Registry::new();
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            counters: Counters::register(&telemetry),
            telemetry,
            registry: Mutex::new(StreamRegistry::default()),
            allowed_peers: HashSet::new(),
        });
        let peer = Arc::new(Peer {
            out: Mutex::new(Out::new(1024, Gauge::default())),
            wake: Condvar::new(),
            cap: 16,
        });
        let config = WriterConfig {
            node_id: 0,
            peer: 1,
            addr,
            reconnect_base: Duration::from_millis(10),
            reconnect_max: Duration::from_millis(100),
            connect_timeout: Duration::from_secs(1),
            coalesce_budget: 1024,
        };
        let writer_shared = Arc::clone(&shared);
        let writer_peer = Arc::clone(&peer);
        let handle = thread::spawn(move || writer_loop(config, writer_peer, writer_shared));
        let (_accepted, _) = listener.accept().unwrap();
        let live = || shared.registry.lock().expect("registry lock").streams.len();
        eventually("writer registers its stream", || live() == 1);
        // Shut down while the flusher idles in its condvar wait — the
        // exit path that used to leak the token.
        shared.shutdown.store(true, Ordering::Release);
        peer.wake.notify_one();
        handle.join().expect("writer thread exits");
        assert_eq!(live(), 0, "shutdown exit must deregister");
    }

    #[test]
    fn sever_deregisters_dead_sockets_no_phantom_connections() {
        // Regression: `sever` used to shut streams down but leave their
        // registry entries in place until the owning threads noticed and
        // exited — so a second `sever` (or an overlapping one from a test
        // harness) re-counted the same dead socket clones as live
        // connections. Severing must deregister synchronously.
        let (t0, t1) = pair();
        // Traffic in both directions guarantees both of t0's registry
        // entries exist: its writer's dialed socket and the reader socket
        // accepted from t1 (registered after t1's handshake).
        t0.send(1, b"out".to_vec());
        t1.send(0, b"in".to_vec());
        assert!(recv_until(&t1, Duration::from_secs(5)).is_some());
        assert!(recv_until(&t0, Duration::from_secs(5)).is_some());

        let first = t0.control().sever(1);
        assert!(first >= 1, "something live must be severed, got {first}");
        // Immediately again: the dead sockets are gone from the registry
        // even though their threads may not have observed the close yet.
        assert_eq!(
            t0.control().sever(1),
            0,
            "second sever must not report phantom connections"
        );
    }

    #[test]
    fn severed_connection_reconnects_and_delivers() {
        let (t0, t1) = pair();
        t0.send(1, b"before".to_vec());
        assert!(recv_until(&t1, Duration::from_secs(5)).is_some());

        // Kill every socket between them, from node 1's side too.
        let severed = t0.control().sever(1) + t1.control().sever(0);
        assert!(severed > 0, "something must have been severed");

        // Liveness must resume: retry sends until one lands.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while std::time::Instant::now() < deadline {
            t0.send(1, b"after".to_vec());
            if let Some((_, payload)) = t1.recv_timeout(Duration::from_millis(200)) {
                if payload == b"after" {
                    delivered = true;
                    break;
                }
            }
        }
        assert!(delivered, "no delivery after sever");
        assert!(
            t0.control().stats().connects >= 2,
            "writer must have reconnected"
        );
    }
}
