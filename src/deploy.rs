//! Builds every replica, client and gateway that runs on the real TCP
//! transport, from a [`ClusterSpec`]: the `sbft-node` and `sbft-gateway`
//! binaries, the chaos harness's TCP backend, and [`LoopbackCluster`],
//! the in-process cluster the TCP tests, the `tcp_cluster` example and
//! the loopback benches boot, all get their nodes here.
//!
//! Every process derives the same key material from the config's seed
//! (`KeyMaterial::generate` is deterministic — a real deployment would
//! run distributed key generation instead; see `crates/crypto`). Node
//! construction itself is shared with the simulator via
//! [`sbft_core::make_replica`] / [`sbft_core::make_client`], so the exact
//! same `ReplicaNode`/`ClientNode` state machines run on both backends.
//! At every verify width a replica takes messages from other nodes only
//! through its own inbound verifier (`ReplicaNode`'s
//! `Node::inbound_verifier`); the width only picks the thread that runs
//! it.

use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use sbft_core::{
    make_client, make_replica, KeyMaterial, ProtocolConfig, ReplicaDurability, SbftMsg,
    ShareVerifyMap, TimerBundle, VariantFlags, Workload,
};
use sbft_crypto::CryptoCostModel;
use sbft_gateway::{AdmissionConfig, GatewayCore, OpenLoopConfig, OpenLoopDriver, SessionMux};
use sbft_sim::SimDuration;
use sbft_statedb::{FsyncPolicy, KvService};
use sbft_telemetry::Registry;
use sbft_transport::{
    ClusterSpec, NodeRuntime, TcpTransport, TransportControl, TransportProfile, VariantName,
};
use sbft_wire::Wire;

/// Maps a cluster spec onto protocol parameters. The spec's `profile`
/// picks the timers: `lan` keeps the tight loopback/datacenter timers,
/// `wan` sets [`TimerBundle::CONTINENTAL`].
pub fn protocol_for(spec: &ClusterSpec) -> ProtocolConfig {
    let flags = match spec.variant {
        VariantName::Sbft => VariantFlags::SBFT,
        VariantName::LinearPbft => VariantFlags::LINEAR_PBFT,
        VariantName::FastPath => VariantFlags::FAST_PATH,
    };
    let mut protocol = ProtocolConfig::new(spec.f, spec.c, flags);
    match spec.profile {
        TransportProfile::Lan => {
            protocol.fast_path_timeout = SimDuration::from_millis(40);
            protocol.collector_stagger = SimDuration::from_millis(20);
            protocol.view_timeout = SimDuration::from_millis(500);
            // Loopback RTT is ~0: per-round message overhead dominates,
            // so group-commit — pool requests briefly and spend one
            // consensus round on a whole batch instead of a round per
            // request. The short batch delay caps the pooling wait.
            protocol.batch_delay = SimDuration::from_micros(400);
            protocol.max_in_flight = 4;
            protocol.max_block_requests = 256;
            protocol.min_batch = 16;
        }
        TransportProfile::Wan => protocol.set_timers(TimerBundle::CONTINENTAL),
    }
    protocol
}

/// A closed-loop key-value workload for a real client (the §IX
/// micro-benchmark shape).
#[derive(Debug, Clone)]
pub struct ClientWorkload {
    /// Requests to issue before stopping.
    pub requests: usize,
    /// Random puts batched into each request.
    pub ops_per_request: usize,
    /// Key space size.
    pub key_space: u64,
    /// Value size in bytes.
    pub value_len: usize,
}

impl Default for ClientWorkload {
    fn default() -> Self {
        ClientWorkload {
            requests: 100,
            ops_per_request: 1,
            key_space: 1024,
            value_len: 16,
        }
    }
}

/// The seed of `node`'s runtime RNG.
fn node_seed(spec: &ClusterSpec, node: usize) -> u64 {
    spec.seed ^ (node as u64).wrapping_mul(0x9e3779b97f4a7c15)
}

fn wall_clock_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

fn transport_for(
    spec: &ClusterSpec,
    node: usize,
    listener: Option<TcpListener>,
) -> io::Result<TcpTransport> {
    let config = spec.transport_config(node);
    match listener {
        Some(listener) => TcpTransport::with_listener(config, listener),
        None => {
            let addr = spec.addr_of(node).ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("node {node} not in config"),
                )
            })?;
            TcpTransport::bind(config, addr)
        }
    }
}

/// Builds the runtime for replica `r` with a key-value service backend.
/// Pass a pre-bound `listener` to override the config's address (tests
/// bind port 0 and hand the listeners over).
///
/// # Errors
///
/// Fails if the listen address cannot be bound.
pub fn replica_runtime(
    spec: &ClusterSpec,
    r: usize,
    listener: Option<TcpListener>,
) -> io::Result<NodeRuntime<SbftMsg>> {
    replica_runtime_with_protocol(spec, &protocol_for(spec), r, listener)
}

/// [`replica_runtime`] on protocol parameters the caller tuned past
/// [`protocol_for`] (the chaos harness sets each plan's window,
/// checkpoint period and in-flight cap).
///
/// `data_dir` makes the replica durable: commit WAL and checkpoint
/// snapshots under [`replica_data_dir`], recovered at boot before the
/// startup handshake covers whatever the disk missed. `verify_threads`
/// workers screen inbound frames through the replica's verifier (at
/// `<= 1` the node thread does), and `exec_threads > 1` moves the
/// replica's service to its own execution thread (any width past 1
/// means that one thread).
///
/// # Errors
///
/// Fails if the listen address cannot be bound or the data directory
/// cannot be opened.
pub fn replica_runtime_with_protocol(
    spec: &ClusterSpec,
    protocol: &ProtocolConfig,
    r: usize,
    listener: Option<TcpListener>,
) -> io::Result<NodeRuntime<SbftMsg>> {
    let keys = KeyMaterial::generate(protocol, spec.seed);
    let mut replica = make_replica(
        protocol,
        r,
        &keys,
        Box::new(KvService::new()),
        CryptoCostModel::free(),
    );
    if let Some(dir) = replica_data_dir(spec, r) {
        let policy = spec
            .fsync
            .as_deref()
            .and_then(FsyncPolicy::parse)
            .unwrap_or_default();
        let (durability, recovered) = ReplicaDurability::on_disk(&dir, policy)?;
        replica.set_durability(durability, recovered);
    }
    let transport = transport_for(spec, spec.replica_node(r), listener)?;
    // Phase tracing rides the transport's shared registry: the replica
    // stamps request lifecycles, the introspection endpoint reads them.
    replica.set_tracer(transport.registry().tracer());
    if spec.resolved_exec_threads() > 1 {
        // Completion wake: the executor injects a self-addressed
        // `ExecuteReady` frame and writes the transport's wake fd,
        // rousing a node thread parked in its event loop's wait. The
        // frame passes the replica's verifier like any other message
        // (the pre-verifier passes it; the replica only honours it from
        // itself).
        let injector = transport.self_injector();
        let payload = SbftMsg::ExecuteReady.to_wire_bytes();
        replica.offload_execution(Box::new(move || {
            injector.inject(payload.clone());
        }));
    }
    let verify_threads = spec.resolved_verify_threads();
    if verify_threads > 1 {
        // Slot-digest map shared between the replica (publishes digests
        // at pre-prepare, consumes pre-verified shares at combine time)
        // and the pipeline workers (record σ/τ shares they checked).
        replica.set_share_map(Arc::new(ShareVerifyMap::default()));
    }
    let seed = node_seed(spec, r);
    Ok(NodeRuntime::with_verify_pool(
        Box::new(replica),
        transport,
        seed,
        verify_threads,
    ))
}

/// Where replica `r` keeps its durable state: `<data_dir>/replica-<r>`,
/// or `None` when the spec runs in memory.
pub fn replica_data_dir(spec: &ClusterSpec, r: usize) -> Option<PathBuf> {
    let base = spec.data_dir.as_ref()?;
    Some(Path::new(base).join(format!("replica-{r}")))
}

/// Builds the runtime for client `c` issuing `workload`.
///
/// # Errors
///
/// Fails if the listen address cannot be bound.
pub fn client_runtime(
    spec: &ClusterSpec,
    c: usize,
    workload: &ClientWorkload,
    listener: Option<TcpListener>,
) -> io::Result<NodeRuntime<SbftMsg>> {
    let protocol = protocol_for(spec);
    let keys = KeyMaterial::generate(&protocol, spec.seed);
    let source = Workload::KvPut {
        requests: workload.requests,
        ops_per_request: workload.ops_per_request,
        key_space: workload.key_space,
        value_len: workload.value_len,
    }
    .source_for(c, spec.seed);
    let mut client = make_client(
        &protocol,
        c,
        &keys,
        source,
        SimDuration::from_millis(400),
        CryptoCostModel::free(),
    );
    // A restarted client process must not reuse timestamps its id already
    // committed under (replicas dedupe on them and old cached results get
    // garbage-collected), so anchor the sequence to wall-clock. Microsecond
    // resolution: the base must outpace the request counter across a
    // restart, and a closed-loop client can exceed 1 request/ms (loopback
    // commits in ~0.6 ms) but not 1 request/µs.
    client.set_timestamp_base(wall_clock_micros());
    let node = spec.client_node(c);
    let transport = transport_for(spec, node, listener)?;
    let seed = node_seed(spec, node);
    // Clients decode on their own thread and do their own verification:
    // a closed-loop client blocks on its one in-flight reply, so
    // offloading its single π check per ack to a worker pool would add a
    // cross-thread handoff per reply and win nothing. `verify_threads`
    // is a replica knob.
    Ok(NodeRuntime::new(Box::new(client), transport, seed))
}

/// Builds the runtime for gateway `g`: the open-loop front door from
/// `crates/gateway`, with all `spec.gateway_sessions` session tickets
/// registered up front (one pass through the memoized client-key cache —
/// no per-request PKI work afterwards).
///
/// Session timestamps anchor to wall-clock microseconds for the same
/// reason client timestamps do: a restarted gateway reboots with an
/// empty session table, and replicas silently dedupe any timestamp its
/// client ids already committed under.
///
/// # Errors
///
/// Fails if the listen address cannot be bound.
pub fn gateway_runtime(
    spec: &ClusterSpec,
    g: usize,
    admission: AdmissionConfig,
    workload: OpenLoopConfig,
    listener: Option<TcpListener>,
) -> io::Result<NodeRuntime<SbftMsg>> {
    let protocol = protocol_for(spec);
    let keys = KeyMaterial::generate(&protocol, spec.seed);
    let mux = SessionMux::register(
        &protocol,
        keys.public.clone(),
        spec.session_client_base(g),
        spec.gateway_sessions,
        wall_clock_micros(),
    );
    let node = spec.gateway_node(g);
    let seed = node_seed(spec, node);
    let driver = OpenLoopDriver::new(GatewayCore::new(admission), mux, workload, spec.n(), seed);
    let transport = transport_for(spec, node, listener)?;
    // Like clients, the gateway decodes on its own thread: its
    // per-message work (one π check or reply-digest count) is far below
    // a replica's, and the node thread must stay responsive to the
    // arrival timer.
    Ok(NodeRuntime::new(Box::new(driver), transport, seed))
}

/// Sums the transport's per-peer backlog gauges toward the replicas —
/// the external-pressure signal a gateway host feeds back into
/// [`OpenLoopDriver::set_external_pressure`] between polls. When
/// replicas stop draining their sockets, this rises and the admission
/// gate trips before anything downstream drowns.
pub fn replica_backlog(runtime: &NodeRuntime<SbftMsg>, n: usize) -> usize {
    let registry = runtime.registry();
    (0..n)
        .map(|peer| {
            registry
                .gauge(&format!("sbft_transport_peer_backlog{{peer=\"{peer}\"}}"))
                .get()
                .max(0) as usize
        })
        .sum()
}

/// Renders a loopback [`ClusterSpec`] config for `n` replicas and
/// `clients` clients on the given pre-bound listeners — the text a user
/// would write by hand, generated for tests and examples.
pub fn loopback_config(
    f: usize,
    c: usize,
    seed: u64,
    replica_addrs: &[String],
    client_addrs: &[String],
) -> String {
    use std::fmt::Write as _;
    let mut text = format!("f {f}\nc {c}\nseed {seed}\nvariant sbft\n");
    for (r, addr) in replica_addrs.iter().enumerate() {
        writeln!(text, "replica {r} {addr}").expect("write to string");
    }
    for (i, addr) in client_addrs.iter().enumerate() {
        writeln!(text, "client {i} {addr}").expect("write to string");
    }
    text
}

/// Binds `count` listeners on OS-picked loopback ports and returns them
/// with their addresses, ready for [`loopback_config`].
///
/// # Errors
///
/// Fails if a port cannot be bound.
pub fn bind_loopback(count: usize) -> io::Result<(Vec<TcpListener>, Vec<String>)> {
    let listeners = (0..count)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    let addrs = listeners
        .iter()
        .map(|l| Ok(l.local_addr()?.to_string()))
        .collect::<io::Result<_>>()?;
    Ok((listeners, addrs))
}

/// How long a replica thread's poll may wait: how quickly it notices
/// [`LoopbackCluster::stop`].
const REPLICA_POLL: Duration = Duration::from_millis(10);

/// What [`LoopbackCluster::stop`] hands a replica thread: read the
/// runtime, then exit.
type Reader = Box<dyn FnOnce(&NodeRuntime<SbftMsg>) + Send>;

struct ReplicaThread {
    registry: Registry,
    control: TransportControl,
    stop: mpsc::Sender<Reader>,
    thread: JoinHandle<()>,
}

/// An in-process loopback cluster: each replica of a generated
/// [`loopback_config`] runs [`replica_runtime`] on a thread of its own,
/// on OS-picked ports so parallel runs never collide. The clients and
/// the gateway the config names are the caller's to drive, from the
/// listeners this cluster bound for them.
pub struct LoopbackCluster {
    spec: ClusterSpec,
    config: String,
    replicas: Vec<ReplicaThread>,
    clients: Vec<Option<TcpListener>>,
    gateway: Option<TcpListener>,
}

impl LoopbackCluster {
    /// Boots the `3f + 2c + 1` replicas of a loopback cluster with
    /// `clients` client ports and, given `gateway_sessions`, a gateway
    /// port carrying that many sessions. `directives` is config text
    /// appended to the generated config (`verify_threads 2`,
    /// `data_dir ...`). Returns once every replica has booted.
    ///
    /// # Errors
    ///
    /// Fails if a port cannot be bound, the config does not parse, or a
    /// replica does not boot.
    pub fn start(
        f: usize,
        c: usize,
        seed: u64,
        clients: usize,
        gateway_sessions: Option<usize>,
        directives: &str,
    ) -> io::Result<LoopbackCluster> {
        let (replica_listeners, replica_addrs) = bind_loopback(3 * f + 2 * c + 1)?;
        let (client_listeners, client_addrs) = bind_loopback(clients)?;
        let mut config = loopback_config(f, c, seed, &replica_addrs, &client_addrs);
        let gateway = match gateway_sessions {
            Some(sessions) => {
                let (mut listener, addr) = bind_loopback(1)?;
                config += &format!("gateway 0 {}\ngateway_sessions {sessions}\n", addr[0]);
                listener.pop()
            }
            None => None,
        };
        config += directives;
        let spec = ClusterSpec::parse(&config)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;

        let (booted_tx, booted_rx) = mpsc::channel();
        let mut threads = Vec::new();
        for (r, listener) in replica_listeners.into_iter().enumerate() {
            let spec = spec.clone();
            let booted = booted_tx.clone();
            let (stop, stopped) = mpsc::channel::<Reader>();
            let thread = thread::Builder::new()
                .name(format!("replica-{r}"))
                .spawn(move || {
                    let mut runtime = match replica_runtime(&spec, r, Some(listener)) {
                        Ok(runtime) => runtime,
                        Err(e) => {
                            let _ = booted.send((r, Err(e)));
                            return;
                        }
                    };
                    let handles = (runtime.registry().clone(), runtime.transport().control());
                    // Report and hang up: `start` reads reports until
                    // every thread has hung up.
                    let _ = booted.send((r, Ok(handles)));
                    drop(booted);
                    loop {
                        match stopped.try_recv() {
                            Ok(read) => return read(&runtime),
                            Err(mpsc::TryRecvError::Disconnected) => return,
                            Err(mpsc::TryRecvError::Empty) => {
                                runtime.poll(REPLICA_POLL);
                            }
                        }
                    }
                })?;
            threads.push((stop, thread));
        }
        drop(booted_tx);
        let mut handles: Vec<_> = threads.iter().map(|_| None).collect();
        let mut failure = None;
        for (r, booted) in booted_rx {
            match booted {
                Ok(pair) => handles[r] = Some(pair),
                Err(e) => failure = Some(e),
            }
        }
        if let Some(e) = failure {
            // Hanging up ends the replicas that did boot.
            for (stop, thread) in threads {
                drop(stop);
                let _ = thread.join();
            }
            return Err(e);
        }
        let replicas = threads
            .into_iter()
            .zip(handles)
            .map(|((stop, thread), handles)| {
                let (registry, control) = handles.expect("a replica panicked while booting");
                ReplicaThread {
                    registry,
                    control,
                    stop,
                    thread,
                }
            })
            .collect();
        Ok(LoopbackCluster {
            spec,
            config,
            replicas,
            clients: client_listeners.into_iter().map(Some).collect(),
            gateway,
        })
    }

    /// The parsed cluster config.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The config text: what a real deployment would put in its
    /// `cluster.conf`.
    pub fn config(&self) -> &str {
        &self.config
    }

    /// Replica `r`'s telemetry registry (its tracer and node counters),
    /// readable while it runs.
    pub fn registry(&self, r: usize) -> &Registry {
        &self.replicas[r].registry
    }

    /// Replica `r`'s transport control (traffic stats, `sever`).
    pub fn control(&self, r: usize) -> &TransportControl {
        &self.replicas[r].control
    }

    /// Takes client `c`'s listener, for a caller that builds the
    /// client's runtime on a thread of its own.
    pub fn take_client_listener(&mut self, c: usize) -> Option<TcpListener> {
        self.clients.get_mut(c)?.take()
    }

    /// Builds client `c`'s runtime on the caller's thread.
    ///
    /// # Errors
    ///
    /// Fails if the client's address cannot be bound.
    pub fn client(
        &mut self,
        c: usize,
        workload: &ClientWorkload,
    ) -> io::Result<NodeRuntime<SbftMsg>> {
        let listener = self.take_client_listener(c);
        client_runtime(&self.spec, c, workload, listener)
    }

    /// Builds the gateway's open-loop runtime on the caller's thread.
    ///
    /// # Errors
    ///
    /// Fails if the gateway's address cannot be bound.
    pub fn gateway(
        &mut self,
        admission: AdmissionConfig,
        workload: OpenLoopConfig,
    ) -> io::Result<NodeRuntime<SbftMsg>> {
        gateway_runtime(&self.spec, 0, admission, workload, self.gateway.take())
    }

    /// Stops every replica and returns, in replica order, what `read`
    /// took from each runtime on its own thread just before it stopped.
    ///
    /// # Errors
    ///
    /// Fails if a replica thread panicked.
    pub fn stop<T: Send + 'static>(
        self,
        read: impl Fn(usize, &NodeRuntime<SbftMsg>) -> T + Send + Sync + 'static,
    ) -> io::Result<Vec<T>> {
        let read = Arc::new(read);
        let (read_tx, read_rx) = mpsc::channel();
        for (r, replica) in self.replicas.iter().enumerate() {
            let (read, read_tx) = (Arc::clone(&read), read_tx.clone());
            let _ = replica
                .stop
                .send(Box::new(move |runtime: &NodeRuntime<SbftMsg>| {
                    let _ = read_tx.send((r, read(r, runtime)));
                }));
        }
        drop(read_tx);
        for (r, replica) in self.replicas.into_iter().enumerate() {
            if replica.thread.join().is_err() {
                return Err(io::Error::other(format!("replica {r}'s thread panicked")));
            }
        }
        let mut reads: Vec<(usize, T)> = read_rx.into_iter().collect();
        reads.sort_by_key(|(r, _)| *r);
        Ok(reads.into_iter().map(|(_, value)| value).collect())
    }
}
