//! A std-only TCP transport driven by one epoll loop on the node thread.
//!
//! Connection model: every ordered pair of nodes gets its own connection —
//! node `a` dials node `b` and uses that socket **only to send**; `b`
//! attributes the traffic from the [`Handshake`] frame and only reads.
//! A severed direction heals independently, and a fault proxy can model
//! each directed link on its own.
//!
//! The node thread owns its sockets. Its loop (`TcpTransport::pump`,
//! behind `NodeRuntime::poll` and [`TcpTransport::recv_timeout`]) waits
//! once on an epoll set holding the listener, every accepted socket, the
//! dialed sockets that have a backlog, and a wake fd. It reads each
//! ready socket once and passes every complete frame to its caller as a
//! slice of the connection's read buffer. Level-triggered readiness
//! reports a socket with bytes left over again on the next wait, so one
//! `read` per readiness never strands data.
//!
//! Sends encode straight into the peer's frame buffer and are written
//! inline, one non-blocking `write`. Bytes the socket cannot take stay
//! in that buffer as a bounded backlog, which the loop drains when epoll
//! reports room. While a peer is down, sends overflow the backlog and
//! are dropped with a counter bump — BFT protocols tolerate message loss
//! and the client retry logic regenerates any traffic that mattered.
//!
//! std has no non-blocking connect, so each (re)dial runs on a
//! short-lived thread with exponential backoff. It handshakes, writes
//! the backlog queued while the peer was down, installs the socket in
//! the peer's slot and exits. Other threads reach the loop through the
//! wake fd: [`InboundInjector`] frames, and the verify workers'
//! releases.
//!
//! There is no authentication on connections: protocol messages carry
//! their own signatures, which is what SBFT actually relies on. The
//! handshake only attributes traffic to a node id.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use sbft_sim::NodeId;
use sbft_telemetry::{Counter, Gauge, Histogram, Registry};
use sbft_wire::Wire;

use crate::frame::{self, Handshake, DEFAULT_MAX_FRAME, FRAME_HEADER_BYTES};
use crate::sys::{Epoll, EventFd, Events, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// How long an accepted connection may take to send a valid handshake
/// before it is closed and counted in `handshake_rejects`.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);
/// Readiness events taken per wait.
const MAX_EVENTS: usize = 64;
/// Bound on frames injected from other threads ([`InboundInjector`])
/// and self-sends of a bare transport, waiting for the next pass.
const INJECT_QUEUE: usize = 4096;
/// Longest a dial thread sleeps between shutdown checks.
const DIAL_TICK: Duration = Duration::from_millis(50);
/// How long the loop stops watching the listener after an accept error
/// it cannot clear, such as running out of descriptors.
const ACCEPT_PAUSE: Duration = Duration::from_millis(10);

/// Epoll tokens: the listener, the wake fd, then one tag per socket kind
/// in the top bits with the peer index or connection id below.
const LISTENER: u64 = 0;
const WAKE: u64 = 1;
const PEER_TAG: u64 = 1 << 62;
const CONN_TAG: u64 = 2 << 62;
const TAG_MASK: u64 = 3 << 62;

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
    /// Per-connection read buffer: one `read` syscall can surface many
    /// small frames.
    pub read_buffer: usize,
    /// Initial capacity of the per-peer frame buffer (it grows on
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
            read_buffer: 256 * 1024,
            write_buffer: 64 * 1024,
            alias_routes: Vec::new(),
        }
    }

    /// Defaults tuned for WAN deployments: patient reconnects (transient
    /// routing flaps should not burn CPU re-dialing), deeper queues to
    /// ride out bandwidth-delay, and bigger buffers per syscall.
    pub fn wan(node_id: NodeId, peers: Vec<(NodeId, String)>) -> Self {
        TransportConfig {
            reconnect_base: Duration::from_millis(200),
            reconnect_max: Duration::from_secs(15),
            connect_timeout: Duration::from_secs(10),
            outbound_queue: 16384,
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
    /// Inbound connections rejected for a bad or missing handshake.
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
/// can close them from another thread.
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
    /// loop notices the dead sockets and releases their (now stale)
    /// tokens as a no-op; removing the entries here keeps a second
    /// `sever` in the meantime from re-counting the same dead socket
    /// clones as live connections (phantom connections).
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

/// How dial threads reach a peer.
struct DialConfig {
    node_id: NodeId,
    reconnect_base: Duration,
    reconnect_max: Duration,
    connect_timeout: Duration,
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
    /// The node thread's epoll set; dial threads add the socket they
    /// install when it has a backlog to drain.
    epoll: Epoll,
    dial: DialConfig,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// Deregisters a [`StreamRegistry`] token when dropped, so every way a
/// socket goes away — error, clean close, shutdown, sever — releases its
/// registry entry. (A leaked entry would pin a dead socket clone and
/// make `sever()` report phantom connections.)
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

/// Outbound state for one peer, shared between the node thread (sends,
/// backlog drains) and that peer's dial thread while one runs.
struct Out {
    /// The live, *non-blocking* socket; `None` while (re)connecting.
    stream: Option<TcpStream>,
    /// `stream`'s registry entry.
    guard: Option<RegistryGuard>,
    /// Framed, unwritten bytes in frame order, from `pos`. Sends encode
    /// straight onto its end.
    buf: Vec<u8>,
    pos: usize,
    /// Cumulative end offsets of frames in `buf` (absolute against
    /// `enqueued`), so `frames_sent` ticks exactly when a frame's last
    /// byte reaches the socket.
    frame_ends: VecDeque<u64>,
    /// Total bytes ever enqueued / flushed on this connection epoch.
    enqueued: u64,
    flushed: u64,
    /// Whether the loop watches `stream` for room (`EPOLLOUT`): exactly
    /// while bytes wait on a live socket.
    armed: bool,
    /// Whether a dial thread is (re)connecting this peer.
    dialing: bool,
    /// Live backlog depth in frames, exported per peer.
    backlog: Gauge,
}

impl Out {
    /// Records `n` freshly-written bytes; counts frames whose last byte
    /// just hit the socket.
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
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
    }
}

/// One peer's outbound endpoint.
struct Peer {
    id: NodeId,
    addr: String,
    /// Epoll token of the peer's socket.
    token: u64,
    out: Mutex<Out>,
    /// Backlog cap in frames (`TransportConfig::outbound_queue`).
    cap: usize,
}

impl Peer {
    /// Frames the payload `encode` appends and sends it: one inline
    /// write when the socket is live with nothing queued ahead, the
    /// backlog otherwise. Drops (and counts) at the backlog cap or for a
    /// payload the framing cannot carry. Returns the framed size (0 for
    /// the latter).
    fn send(self: &Arc<Self>, shared: &Arc<Shared>, encode: impl FnOnce(&mut Vec<u8>)) -> usize {
        let mut out = self.out.lock().expect("peer lock");
        let start = out.buf.len();
        let Ok(framed) = frame::encode_frame_with(&mut out.buf, encode) else {
            shared.counters.dropped.inc();
            return 0;
        };
        if out.frame_ends.len() >= self.cap {
            out.buf.truncate(start);
            shared.counters.dropped.inc();
            return framed;
        }
        out.enqueued += framed as u64;
        let end = out.enqueued;
        out.frame_ends.push_back(end);
        shared.counters.frame_bytes_sent.record(framed as u64);
        if out.stream.is_some() && !out.armed {
            self.flush(&mut out, shared);
        } else {
            out.backlog.set(out.frame_ends.len() as i64);
        }
        framed
    }

    /// One `write` of the waiting bytes. Whatever the socket does not
    /// take stays queued, and the loop watches the socket for room until
    /// the backlog is gone.
    fn flush(self: &Arc<Self>, out: &mut Out, shared: &Arc<Shared>) {
        let Out {
            stream, buf, pos, ..
        } = out;
        let Some(stream) = stream.as_mut() else {
            return;
        };
        match stream.write(&buf[*pos..]) {
            Ok(0) => return self.mark_dead(out, shared),
            Ok(n) => out.note_flushed(n, &shared.counters),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return self.mark_dead(out, shared),
        }
        let waiting = out.pos < out.buf.len();
        if waiting != out.armed {
            let fd = out.stream.as_ref().expect("stream live").as_raw_fd();
            let watched = if waiting {
                shared.epoll.add(fd, EPOLLOUT, self.token)
            } else {
                shared.epoll.delete(fd)
            };
            if watched.is_err() {
                return self.mark_dead(out, shared);
            }
            out.armed = waiting;
        }
        out.backlog.set(out.frame_ends.len() as i64);
    }

    /// Tears the connection down: unsent frames are lost (counted) and a
    /// dial thread reconnects.
    fn mark_dead(self: &Arc<Self>, out: &mut Out, shared: &Arc<Shared>) {
        if let Some(stream) = out.stream.take() {
            if out.armed {
                let _ = shared.epoll.delete(stream.as_raw_fd());
            }
            let _ = stream.shutdown(Shutdown::Both);
        }
        out.guard = None;
        out.armed = false;
        shared.counters.dropped.add(out.frame_ends.len() as u64);
        out.buf.clear();
        out.pos = 0;
        out.frame_ends.clear();
        out.enqueued = 0;
        out.flushed = 0;
        out.backlog.set(0);
        if !out.dialing && !shared.is_shutdown() {
            out.dialing = true;
            spawn_dial(Arc::clone(self), Arc::clone(shared));
        }
    }

    /// The loop saw the socket ready: drain the backlog, or drop a dead
    /// connection.
    fn on_ready(self: &Arc<Self>, shared: &Arc<Shared>, events: u32) {
        let mut out = self.out.lock().expect("peer lock");
        if !out.armed {
            return;
        }
        if events & (EPOLLERR | EPOLLHUP) != 0 {
            self.mark_dead(&mut out, shared);
        } else {
            self.flush(&mut out, shared);
        }
    }
}

fn spawn_dial(peer: Arc<Peer>, shared: Arc<Shared>) {
    thread::Builder::new()
        .name(format!("sbft-dial-{}-{}", shared.dial.node_id, peer.id))
        .spawn(move || dial(&peer, &shared))
        .expect("spawn dial thread");
}

fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address resolved to nothing"))?;
    TcpStream::connect_timeout(&resolved, timeout)
}

/// Connects and writes the handshake while the socket still blocks (a
/// fresh socket's buffer has room); returns the non-blocking socket and
/// the handshake's byte count.
fn connect_and_handshake(addr: &str, shared: &Shared) -> io::Result<(TcpStream, usize)> {
    let mut stream = connect(addr, shared.dial.connect_timeout)?;
    let _ = stream.set_nodelay(true);
    let handshake = Handshake {
        node_id: shared.dial.node_id as u64,
    };
    let written = frame::write_msg(&mut stream, &handshake)?;
    stream.set_nonblocking(true)?;
    Ok((stream, written))
}

/// A dial thread: connects with capped backoff, installs the socket in
/// the peer's slot, writes the frames queued while the peer was down (in
/// order, before any new send can reach the socket) and exits.
fn dial(peer: &Arc<Peer>, shared: &Arc<Shared>) {
    let mut backoff = shared.dial.reconnect_base;
    loop {
        if shared.is_shutdown() {
            peer.out.lock().expect("peer lock").dialing = false;
            return;
        }
        match connect_and_handshake(&peer.addr, shared) {
            Ok((stream, written)) => {
                shared.counters.connects.inc();
                shared.counters.bytes_sent.add(written as u64);
                let mut out = peer.out.lock().expect("peer lock");
                out.dialing = false;
                if shared.is_shutdown() {
                    return;
                }
                out.guard = Some(RegistryGuard::register(shared, peer.id, &stream));
                out.stream = Some(stream);
                if out.pos < out.buf.len() {
                    peer.flush(&mut out, shared);
                }
                return;
            }
            Err(_) => {
                let wake_at = Instant::now() + backoff;
                while !shared.is_shutdown() {
                    let left = wake_at.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    thread::sleep(left.min(DIAL_TICK));
                }
                backoff = (backoff * 2).min(shared.dial.reconnect_max);
            }
        }
    }
}

/// Rouses a transport's event loop from another thread: the next (or
/// current) wait returns, and the loop drains whatever the waker's
/// owner queued. The node runtime hands its transport's waker to the
/// verify workers.
#[derive(Clone)]
pub struct Waker {
    fd: Arc<EventFd>,
}

impl Waker {
    fn new() -> io::Result<Waker> {
        Ok(Waker {
            fd: Arc::new(EventFd::new()?),
        })
    }

    /// Makes the loop's wait return. Call after queueing the work the
    /// loop should see.
    pub fn wake(&self) {
        self.fd.notify();
    }

    /// Loop side: clears the eventfd before the caller drains, so a
    /// wake racing the drain leaves it readable for the next pass.
    fn reset(&self) {
        self.fd.reset();
    }
}

/// One accepted connection, read by the node thread.
struct Conn {
    stream: TcpStream,
    /// The dialer named by a valid handshake; `None` until one arrives.
    peer: Option<NodeId>,
    /// Read buffer: bytes `start..end` are received and not yet framed.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    _guard: Option<RegistryGuard>,
}

/// What a read left the connection in.
enum ReadOutcome {
    Open,
    Closed,
}

impl Conn {
    /// One `read`, then every complete frame in the buffer: the
    /// handshake first, then data frames to `sink`.
    fn read_once(
        &mut self,
        shared: &Arc<Shared>,
        max_frame: usize,
        read_buffer: usize,
        sink: &mut dyn FnMut(NodeId, &[u8]),
    ) -> ReadOutcome {
        match self.stream.read(&mut self.buf[self.end..]) {
            Ok(0) => return self.close(shared),
            Ok(n) => self.end += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                return ReadOutcome::Open
            }
            Err(_) => return self.close(shared),
        }
        let (mut frames, mut bytes) = (0u64, 0u64);
        loop {
            let framed = match frame::frame_len(&self.buf[self.start..self.end], max_frame) {
                Ok(Some(framed)) => framed,
                Ok(None) => break,
                Err(_) => {
                    // A corrupt or hostile length: nothing is allocated
                    // for it.
                    self.count(shared, frames, bytes);
                    return self.close(shared);
                }
            };
            if self.end - self.start < framed {
                if framed > self.buf.len() {
                    // Bigger than the buffer: make room for exactly it.
                    self.compact();
                    self.buf.resize(framed, 0);
                }
                break;
            }
            let payload = &self.buf[self.start + FRAME_HEADER_BYTES..self.start + framed];
            match self.peer {
                Some(peer) => {
                    frames += 1;
                    bytes += framed as u64;
                    shared.counters.frame_bytes_received.record(framed as u64);
                    sink(peer, payload);
                }
                None => {
                    // Attribution must name a real peer: an id outside
                    // the cluster or the acceptor's own id would
                    // silently mis-label every frame on this connection,
                    // so such dialers are rejected outright.
                    let peer = Handshake::from_wire_bytes(payload)
                        .ok()
                        .map(|hs| hs.node_id as NodeId)
                        .filter(|peer| shared.allowed_peers.contains(peer));
                    let Some(peer) = peer else {
                        shared.counters.handshake_rejects.inc();
                        return ReadOutcome::Closed;
                    };
                    self.peer = Some(peer);
                    self._guard = Some(RegistryGuard::register(shared, peer, &self.stream));
                }
            }
            self.start += framed;
        }
        self.count(shared, frames, bytes);
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
            if self.buf.len() > read_buffer {
                self.buf = vec![0; read_buffer]; // an oversized frame passed
            }
        } else {
            self.compact();
        }
        ReadOutcome::Open
    }

    fn count(&self, shared: &Shared, frames: u64, bytes: u64) {
        if frames > 0 {
            shared.counters.frames_received.add(frames);
            shared.counters.bytes_received.add(bytes);
        }
    }

    /// Moves the unframed bytes to the front of the buffer.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// A connection that ends before its handshake counts as rejected.
    fn close(&self, shared: &Shared) -> ReadOutcome {
        if self.peer.is_none() {
            shared.counters.handshake_rejects.inc();
        }
        ReadOutcome::Closed
    }
}

/// The node thread's side of the loop: the listener and every accepted
/// connection.
struct Io {
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Accepted connections still owing a handshake, oldest first.
    handshakes: VecDeque<(Instant, u64)>,
    /// When the listener, unwatched after an accept error, is watched
    /// again.
    accept_resume: Option<Instant>,
    events: Events,
    max_frame: usize,
    /// Bytes each connection's read buffer holds (at least one header).
    read_buffer: usize,
    /// Set once shutdown closed the listener's and connections' watches.
    closed: bool,
}

impl Io {
    fn accept_all(&mut self, shared: &Arc<Shared>) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                Err(_) => {
                    // Out of descriptors or memory: the connection stays
                    // queued, and level-triggered readiness would report
                    // the listener on every wait.
                    return self.pause_accepting(shared);
                }
            };
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let id = self.next_conn;
            self.next_conn += 1;
            if shared
                .epoll
                .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, CONN_TAG | id)
                .is_err()
            {
                continue;
            }
            self.conns.insert(
                id,
                Conn {
                    stream,
                    peer: None,
                    buf: vec![0; self.read_buffer],
                    start: 0,
                    end: 0,
                    _guard: None,
                },
            );
            self.handshakes
                .push_back((Instant::now() + HANDSHAKE_DEADLINE, id));
        }
    }

    fn read(&mut self, id: u64, shared: &Arc<Shared>, sink: &mut dyn FnMut(NodeId, &[u8])) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if let ReadOutcome::Closed = conn.read_once(shared, self.max_frame, self.read_buffer, sink)
        {
            self.close(id, shared);
        }
    }

    fn close(&mut self, id: u64, shared: &Shared) {
        if let Some(conn) = self.conns.remove(&id) {
            // The registry may hold a duplicate of the descriptor, which
            // would keep the watch alive past the close.
            let _ = shared.epoll.delete(conn.stream.as_raw_fd());
        }
    }

    /// Stops watching the listener for [`ACCEPT_PAUSE`].
    fn pause_accepting(&mut self, shared: &Shared) {
        let _ = shared.epoll.delete(self.listener.as_raw_fd());
        self.accept_resume = Some(Instant::now() + ACCEPT_PAUSE);
    }

    /// Watches the listener again once an accept pause is over.
    fn resume_accepting(&mut self, shared: &Shared, now: Instant) {
        if self.accept_resume.is_some_and(|at| at <= now) {
            self.accept_resume = None;
            let _ = shared
                .epoll
                .add(self.listener.as_raw_fd(), EPOLLIN, LISTENER);
        }
    }

    /// Closes connections whose handshake deadline passed without one.
    fn expire_handshakes(&mut self, shared: &Arc<Shared>, now: Instant) {
        while let Some(&(due, id)) = self.handshakes.front() {
            let owing = self.conns.get(&id).is_some_and(|conn| conn.peer.is_none());
            if owing && due > now {
                return;
            }
            self.handshakes.pop_front();
            if owing {
                shared.counters.handshake_rejects.inc();
                self.close(id, shared);
            }
        }
    }

    /// After shutdown: stop accepting and drop every connection.
    fn close_all(&mut self, shared: &Shared) {
        let _ = shared.epoll.delete(self.listener.as_raw_fd());
        self.accept_resume = None;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close(id, shared);
        }
        self.handshakes.clear();
        self.closed = true;
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
    /// network dropped the connections. The transport re-dials with
    /// backoff; liveness must resume. Returns how many sockets were
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

    /// Stops dialing, closes all sockets, and stops accepting.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared
            .registry
            .lock()
            .expect("registry lock")
            .close_all();
    }
}

/// One node's TCP endpoint: a listener, one outbound socket per peer,
/// and the event loop that reads them on the owning thread.
pub struct TcpTransport {
    node_id: NodeId,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    io: RefCell<Io>,
    outbound: HashMap<NodeId, Arc<Peer>>,
    /// `outbound`'s peers by epoll token index.
    peers: Vec<Arc<Peer>>,
    alias_routes: Vec<AliasRoute>,
    waker: Waker,
    /// Frames from [`InboundInjector`]s and self-sends, delivered on
    /// the loop's next pass.
    injected_tx: SyncSender<(NodeId, Vec<u8>)>,
    injected: Receiver<(NodeId, Vec<u8>)>,
    /// Frames read for [`Self::recv_timeout`] callers, oldest first.
    received: RefCell<VecDeque<(NodeId, Vec<u8>)>>,
}

impl TcpTransport {
    /// Binds `listen` and starts dialing every peer.
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
    /// Fails if the listener cannot be inspected or made non-blocking,
    /// the epoll set or wake fd cannot be created, or the system cannot
    /// wait on them (a kernel before Linux 5.11, or a sandbox that
    /// forbids `epoll_pwait2`).
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
        let epoll = Epoll::new()?;
        let waker = Waker::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER)?;
        epoll.add(waker.fd.raw(), EPOLLIN, WAKE)?;
        // One wait now, so a kernel or seccomp profile without
        // `epoll_pwait2` fails the boot instead of every later pass.
        let mut events = Events::with_capacity(MAX_EVENTS);
        epoll.wait(&mut events, Duration::ZERO)?;
        let telemetry = Registry::new();
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            counters: Counters::register(&telemetry),
            telemetry: telemetry.clone(),
            registry: Mutex::new(StreamRegistry::default()),
            allowed_peers,
            epoll,
            dial: DialConfig {
                node_id: config.node_id,
                reconnect_base: config.reconnect_base,
                reconnect_max: config.reconnect_max,
                connect_timeout: config.connect_timeout,
            },
        });

        let mut outbound = HashMap::new();
        let mut peers = Vec::new();
        for (peer, addr) in &config.peers {
            if *peer == config.node_id || outbound.contains_key(peer) {
                continue;
            }
            let backlog =
                telemetry.gauge(&format!("sbft_transport_peer_backlog{{peer=\"{peer}\"}}"));
            let handle = Arc::new(Peer {
                id: *peer,
                addr: addr.clone(),
                token: PEER_TAG | peers.len() as u64,
                out: Mutex::new(Out {
                    stream: None,
                    guard: None,
                    buf: Vec::with_capacity(config.write_buffer),
                    pos: 0,
                    frame_ends: VecDeque::new(),
                    enqueued: 0,
                    flushed: 0,
                    armed: false,
                    dialing: true,
                    backlog,
                }),
                cap: config.outbound_queue,
            });
            spawn_dial(Arc::clone(&handle), Arc::clone(&shared));
            outbound.insert(*peer, Arc::clone(&handle));
            peers.push(handle);
        }

        let (injected_tx, injected) = mpsc::sync_channel(INJECT_QUEUE);
        Ok(TcpTransport {
            node_id: config.node_id,
            local_addr,
            shared,
            io: RefCell::new(Io {
                listener,
                conns: HashMap::new(),
                next_conn: 0,
                handshakes: VecDeque::new(),
                accept_resume: None,
                events,
                max_frame: config.max_frame,
                read_buffer: config.read_buffer.max(FRAME_HEADER_BYTES),
                closed: false,
            }),
            outbound,
            peers,
            alias_routes: config.alias_routes,
            waker,
            injected_tx,
            injected,
            received: RefCell::new(VecDeque::new()),
        })
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

    /// A handle that rouses this transport's loop from another thread.
    pub(crate) fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// A `Send + Sync` handle that feeds self-addressed frames into this
    /// node's inbound path from other threads. Off-thread components
    /// (the execution pool's completion wake) use it to rouse a node
    /// parked in its loop; injected frames are delivered like network
    /// traffic, through the node's verifier at every verify width.
    pub fn self_injector(&self) -> InboundInjector {
        InboundInjector {
            node_id: self.node_id,
            tx: self.injected_tx.clone(),
            waker: self.waker.clone(),
        }
    }

    fn route(&self, to: NodeId) -> Option<&Arc<Peer>> {
        self.outbound.get(&to).or_else(|| {
            // No connection of its own: an aliased id (gateway session)
            // rides the via-node's connection instead.
            self.alias_routes
                .iter()
                .find(|route| route.lo <= to && to < route.hi)
                .and_then(|route| self.outbound.get(&route.via))
        })
    }

    /// Queues a self-addressed frame for the next pass; dropped (and
    /// counted) if the queue is full.
    fn loop_back(&self, payload: Vec<u8>) {
        if self.injected_tx.try_send((self.node_id, payload)).is_err() {
            self.shared.counters.dropped.inc();
            return;
        }
        self.waker.wake();
    }

    /// Sends a payload to `to`. Self-sends loop back into this node's
    /// inbound path. Never blocks: if the peer's queue is full or the
    /// peer is unknown, the message is dropped and counted — the
    /// protocol layer's retries own reliability.
    pub fn send(&self, to: NodeId, payload: Vec<u8>) {
        if to == self.node_id {
            return self.loop_back(payload);
        }
        match self.route(to) {
            Some(peer) => {
                peer.send(&self.shared, |buf| buf.extend_from_slice(&payload));
            }
            None => self.shared.counters.dropped.inc(),
        }
    }

    /// Encodes a [`Wire`] message straight into the peer's frame buffer
    /// and sends it as [`Self::send`] does; returns the exact framed
    /// size in bytes (for byte accounting), sent or dropped — 0 only for
    /// a payload over `u32::MAX` bytes, which no frame can carry.
    pub fn send_msg<M: Wire>(&self, to: NodeId, msg: &M) -> usize {
        if to == self.node_id {
            let payload = msg.to_wire_bytes();
            let framed = frame::framed_len(&payload);
            self.loop_back(payload);
            return framed;
        }
        match self.route(to) {
            Some(peer) => peer.send(&self.shared, |buf| {
                msg.encode_into(buf);
            }),
            None => {
                self.shared.counters.dropped.inc();
                FRAME_HEADER_BYTES + msg.wire_len()
            }
        }
    }

    /// One pass of the event loop: waits up to `timeout` for readiness,
    /// then accepts waiting connections, reads each ready socket once
    /// (every complete frame goes to `sink` as a slice of the read
    /// buffer, attributed to its sender), drains the backlog of every
    /// peer socket with room, and hands injected frames to `sink`.
    pub(crate) fn pump(&self, timeout: Duration, sink: &mut dyn FnMut(NodeId, &[u8])) {
        let mut io = self.io.borrow_mut();
        let io = &mut *io;
        let shared = &self.shared;
        if shared.is_shutdown() && !io.closed {
            io.close_all(shared);
        }
        let mut timeout = timeout;
        let timers = [io.handshakes.front().map(|&(due, _)| due), io.accept_resume];
        for due in timers.into_iter().flatten() {
            timeout = timeout.min(due.saturating_duration_since(Instant::now()));
        }
        if let Err(e) = shared.epoll.wait(&mut io.events, timeout) {
            // `with_listener` already waited once, so the call exists;
            // a later failure is a broken descriptor, not a quiet pass.
            panic!("epoll wait failed: {e}");
        }
        for i in 0..io.events.len() {
            let (token, events) = io.events.get(i);
            match token & TAG_MASK {
                PEER_TAG => {
                    let index = (token & !TAG_MASK) as usize;
                    self.peers[index].on_ready(shared, events);
                }
                CONN_TAG => io.read(token & !TAG_MASK, shared, sink),
                _ if token == LISTENER => io.accept_all(shared),
                _ => {
                    self.waker.reset();
                    while let Ok((from, payload)) = self.injected.try_recv() {
                        sink(from, &payload);
                    }
                }
            }
        }
        if !io.handshakes.is_empty() || io.accept_resume.is_some() {
            let now = Instant::now();
            io.expire_handshakes(shared, now);
            io.resume_accepting(shared, now);
        }
    }

    /// Receives the next inbound frame, waiting at most `timeout` — for
    /// callers that drive a bare transport rather than a `NodeRuntime`.
    /// Runs the same loop as the runtime: calling it also drains this
    /// node's backlogs and accepts its connections.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(frame) = self.received.borrow_mut().pop_front() {
                return Some(frame);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            self.pump(left, &mut |from, payload| {
                self.received
                    .borrow_mut()
                    .push_back((from, payload.to_vec()))
            });
            if left.is_zero() {
                return self.received.borrow_mut().pop_front();
            }
        }
    }

    /// Non-blocking receive: one pass of the loop without waiting.
    pub fn try_recv(&self) -> Option<(NodeId, Vec<u8>)> {
        self.recv_timeout(Duration::ZERO)
    }
}

/// Cross-thread handle that injects frames into a node's inbound path
/// as if the node had sent them to itself, and wakes its loop (see
/// [`TcpTransport::self_injector`]). Drops the frame (returning `false`)
/// if the injection queue is full — wake-ups are best-effort, and the
/// node will drain completions on its next poll anyway.
#[derive(Clone)]
pub struct InboundInjector {
    node_id: NodeId,
    tx: SyncSender<(NodeId, Vec<u8>)>,
    waker: Waker,
}

impl InboundInjector {
    /// Pushes a self-addressed payload; `false` if the queue was full or
    /// the transport is gone.
    pub fn inject(&self, payload: Vec<u8>) -> bool {
        if self.tx.try_send((self.node_id, payload)).is_err() {
            return false;
        }
        self.waker.wake();
        true
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.control().shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::OwnedFd;

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

    /// Drives `t` until `check` passes, failing after `limit`.
    fn eventually(what: &str, t: &TcpTransport, limit: Duration, mut check: impl FnMut() -> bool) {
        let deadline = Instant::now() + limit;
        while !check() {
            assert!(Instant::now() < deadline, "timed out: {what}");
            assert!(t.recv_timeout(Duration::from_millis(5)).is_none());
        }
    }

    #[test]
    fn coalesced_sends_preserve_fifo_and_exact_byte_accounting() {
        const FRAMES: u32 = 500;
        let (t0, t1) = pair();
        // Burst frames of varying sizes before the connection is up, so
        // they queue and leave in large writes.
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
        // Exact accounting survives batching: counters still equal
        // Σ(wire_len + header), plus the one handshake on the send side.
        let handshake_bytes = {
            let mut buf = Vec::new();
            frame::write_msg(&mut buf, &Handshake { node_id: 0 }).unwrap() as u64
        };
        eventually(
            "sender counters settle",
            &t0,
            Duration::from_secs(5),
            || t0.control().stats().frames_sent == FRAMES as u64,
        );
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
        eventually(
            "both bad handshakes rejected",
            &t0,
            Duration::from_secs(5),
            || t0.control().stats().handshake_rejects == 2,
        );
        // Nothing from either connection may surface as inbound traffic.
        assert!(t0.recv_timeout(Duration::from_millis(200)).is_none());
        assert_eq!(t0.control().stats().frames_received, 0);

        // A legitimate peer id still attributes correctly.
        let _peer = dial(1, b"hello");
        let (from, payload) = t0.recv_timeout(Duration::from_secs(5)).expect("valid peer");
        assert_eq!((from, payload.as_slice()), (1, &b"hello"[..]));
        assert_eq!(t0.control().stats().handshake_rejects, 2);
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A transport listening for node 1, and a raw socket that has
    /// handshaken as node 1.
    fn raw_dialer(
        config: impl FnOnce(TransportConfig) -> TransportConfig,
    ) -> (TcpTransport, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let t = TcpTransport::with_listener(
            config(TransportConfig::new(0, vec![(1, "127.0.0.1:9".into())])),
            l,
        )
        .unwrap();
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        frame::write_msg(&mut s, &Handshake { node_id: 1 }).unwrap();
        (t, s)
    }

    /// The parser reassembles frames written in chunks of every size
    /// from 1 byte up — headers and payloads split anywhere, several
    /// frames per read, frames bigger than the read buffer — in order and
    /// with exact counters.
    #[test]
    fn frames_reassemble_from_chunks_of_every_size() {
        for chunk in (1..=16).chain([64, 300, 1000, 4096]) {
            let (t, mut s) = raw_dialer(|mut c| {
                c.read_buffer = 256;
                c
            });
            let mut rng = 0xc4a2_0000 ^ chunk as u64;
            let payloads: Vec<Vec<u8>> = (0..40)
                .map(|_| {
                    let len = match splitmix(&mut rng) % 3 {
                        0 => (splitmix(&mut rng) % 8) as usize,
                        1 => (splitmix(&mut rng) % 200) as usize,
                        _ => 256 + (splitmix(&mut rng) % 700) as usize,
                    };
                    (0..len).map(|_| splitmix(&mut rng) as u8).collect()
                })
                .collect();
            let mut wire = Vec::new();
            for payload in &payloads {
                frame::encode_frame_into(&mut wire, payload).unwrap();
            }
            let writer = thread::spawn(move || {
                for piece in wire.chunks(chunk) {
                    s.write_all(piece).unwrap();
                    s.flush().unwrap();
                }
                s
            });
            for (i, expected) in payloads.iter().enumerate() {
                let (from, got) = t
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|| panic!("chunk {chunk}: frame {i} never arrived"));
                assert_eq!(from, 1);
                assert_eq!(&got, expected, "chunk {chunk}: frame {i}");
            }
            let _s = writer.join().unwrap();
            let stats = t.control().stats();
            assert_eq!(stats.frames_received, payloads.len() as u64);
            let bytes: usize = payloads.iter().map(|p| frame::framed_len(p)).sum();
            assert_eq!(stats.bytes_received, bytes as u64, "chunk {chunk}");
        }
    }

    /// A length prefix over `max_frame` closes the connection without
    /// surfacing a frame or growing the read buffer for it.
    #[test]
    fn oversized_length_prefix_closes_the_connection() {
        let (t, mut s) = raw_dialer(|mut c| {
            c.max_frame = 64;
            c
        });
        frame::write_frame(&mut s, b"fits").unwrap();
        s.write_all(&65u32.to_le_bytes()).unwrap();
        s.write_all(&[0u8; 65]).unwrap();
        let (from, payload) = t.recv_timeout(Duration::from_secs(5)).expect("first frame");
        assert_eq!((from, payload.as_slice()), (1, &b"fits"[..]));
        assert!(t.recv_timeout(Duration::from_millis(200)).is_none());
        let io = t.io.borrow();
        assert!(io.conns.is_empty(), "the connection is closed");
        drop(io);
        // The transport's side is gone: the dialer reads end-of-stream
        // (or a reset).
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut byte = [0u8; 1];
        assert!(matches!(s.read(&mut byte), Ok(0) | Err(_)));
        let stats = t.control().stats();
        assert_eq!((stats.frames_received, stats.bytes_received), (1, 8));
    }

    /// An accepted connection that never handshakes is closed at the
    /// deadline and counted.
    #[test]
    fn silent_connection_is_dropped_at_the_handshake_deadline() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let t = TcpTransport::with_listener(TransportConfig::new(0, vec![]), l).unwrap();
        let mut silent = TcpStream::connect(addr).unwrap();
        let accepted = Instant::now();
        assert!(t.recv_timeout(Duration::from_millis(100)).is_none());
        assert_eq!(t.io.borrow().conns.len(), 1, "accepted, owing a handshake");
        eventually(
            "silent connection dropped",
            &t,
            HANDSHAKE_DEADLINE * 2,
            || t.control().stats().handshake_rejects == 1,
        );
        assert!(accepted.elapsed() >= HANDSHAKE_DEADLINE);
        assert!(t.io.borrow().conns.is_empty());
        silent
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut byte = [0u8; 1];
        assert!(matches!(silent.read(&mut byte), Ok(0) | Err(_)));
    }

    /// An accept error that does not clear pauses accepting instead of
    /// turning every wait into a busy spin, and a paused listener is
    /// watched again once the pause is over.
    #[test]
    fn persistent_accept_errors_pause_the_listener() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        // The listening socket through a second descriptor, to break it
        // under the transport below.
        let twin = TcpStream::from(OwnedFd::from(l.try_clone().unwrap()));
        let t = TcpTransport::with_listener(TransportConfig::new(0, vec![]), l).unwrap();
        let drive = |timeout| t.pump(timeout, &mut |_, _| panic!("no frames expected"));

        // A paused listener leaves a dialer queued until the pause ends.
        t.io.borrow_mut().pause_accepting(&t.shared);
        let _dialer = TcpStream::connect(addr).unwrap();
        drive(Duration::from_secs(5));
        assert!(t.io.borrow().conns.is_empty(), "paused: nothing accepted");
        assert!(t.io.borrow().accept_resume.is_none(), "the pause is over");
        eventually("accepting resumes", &t, Duration::from_secs(5), || {
            t.io.borrow().conns.len() == 1
        });

        // A listener shut down for reading stays readable while every
        // accept fails, as one out of descriptors does. A loop that
        // kept watching it would spin through hundreds of thousands of
        // passes here; pausing allows about two per `ACCEPT_PAUSE`.
        twin.shutdown(Shutdown::Read).unwrap();
        let window = Duration::from_millis(200);
        let started = Instant::now();
        let mut passes = 0u32;
        while started.elapsed() < window {
            drive(Duration::from_secs(5));
            passes += 1;
        }
        let bound = 4 * window.as_millis() / ACCEPT_PAUSE.as_millis();
        assert!(u128::from(passes) <= bound, "{passes} passes in {window:?}");
    }

    /// Every socket a transport registers (dialed and accepted) leaves
    /// the registry when the loop closes it: a leaked token pins a dead
    /// socket clone, and `sever` would report it as a live connection.
    #[test]
    fn closed_sockets_release_their_registry_tokens() {
        let (t0, t1) = pair();
        t0.send(1, b"out".to_vec());
        t1.send(0, b"in".to_vec());
        assert!(recv_until(&t1, Duration::from_secs(5)).is_some());
        assert!(recv_until(&t0, Duration::from_secs(5)).is_some());
        let live = |t: &TcpTransport| {
            t.shared
                .registry
                .lock()
                .expect("registry lock")
                .streams
                .len()
        };
        assert_eq!(live(&t0), 2, "one dialed, one accepted");
        // Node 1 goes away: t0 reads end-of-stream on the accepted
        // socket (`Io::close`), and a write to the dialed one fails
        // (`Peer::mark_dead`); redials find no listener.
        drop(t1);
        eventually(
            "the loop releases both tokens",
            &t0,
            Duration::from_secs(5),
            || {
                t0.send(1, b"probe".to_vec());
                live(&t0) == 0
            },
        );
        assert!(t0.io.borrow().conns.is_empty());

        // Shutdown drops whatever the loop still holds.
        let mut s = TcpStream::connect(t0.local_addr()).unwrap();
        frame::write_msg(&mut s, &Handshake { node_id: 1 }).unwrap();
        frame::write_frame(&mut s, b"late").unwrap();
        assert!(recv_until(&t0, Duration::from_secs(5)).is_some());
        assert_eq!((live(&t0), t0.io.borrow().conns.len()), (1, 1));
        t0.control().shutdown();
        assert!(t0.try_recv().is_none());
        assert_eq!(live(&t0), 0, "shutdown must deregister");
        assert!(
            t0.io.borrow().conns.is_empty(),
            "the loop drops its connections"
        );
    }

    #[test]
    fn sever_deregisters_dead_sockets_no_phantom_connections() {
        // Regression: `sever` used to shut streams down but leave their
        // registry entries in place until their owners noticed — so a
        // second `sever` (or an overlapping one from a test harness)
        // re-counted the same dead socket clones as live connections.
        // Severing must deregister synchronously.
        let (t0, t1) = pair();
        // Traffic in both directions guarantees both of t0's registry
        // entries exist: its dialed socket and the socket accepted from
        // t1 (registered after t1's handshake).
        t0.send(1, b"out".to_vec());
        t1.send(0, b"in".to_vec());
        assert!(recv_until(&t1, Duration::from_secs(5)).is_some());
        assert!(recv_until(&t0, Duration::from_secs(5)).is_some());

        let first = t0.control().sever(1);
        assert!(first >= 1, "something live must be severed, got {first}");
        // Immediately again: the dead sockets are gone from the registry
        // even though the loop has not observed the close yet.
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
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while Instant::now() < deadline {
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
            "the sender must have re-dialed"
        );
    }
}
