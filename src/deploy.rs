//! Glue for real deployments: builds SBFT replicas and clients from a
//! [`ClusterSpec`] and wires them onto the TCP transport.
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
use std::sync::Arc;

use sbft_core::{
    make_client, make_replica, KeyMaterial, ProtocolConfig, ReplicaDurability, ReplicaNode,
    SbftMsg, ShareVerifyMap, VariantFlags, Workload,
};
use sbft_crypto::CryptoCostModel;
use sbft_gateway::{AdmissionConfig, GatewayCore, OpenLoopConfig, OpenLoopDriver, SessionMux};
use sbft_sim::SimDuration;
use sbft_statedb::{FsyncPolicy, KvService};
use sbft_transport::{ClusterSpec, NodeRuntime, TcpTransport, TransportProfile, VariantName};
use sbft_wire::Wire;

/// Wraps a replica in its runtime: `verify_threads` workers screen
/// inbound frames through the replica's verifier (at `<= 1` the node
/// thread does), and `exec_threads > 1` moves the replica's service to
/// its own execution thread (any width past 1 means that one thread).
/// Shared by [`replica_runtime`], the chaos harness, and the benches so
/// every backend builds pipelines the same way.
pub fn replica_runtime_with_pipeline(
    mut replica: ReplicaNode,
    transport: TcpTransport,
    seed: u64,
    verify_threads: usize,
    exec_threads: usize,
) -> NodeRuntime<SbftMsg> {
    // Phase tracing rides the transport's shared registry: the replica
    // stamps request lifecycles, the introspection endpoint reads them.
    replica.set_tracer(transport.registry().tracer());
    if exec_threads > 1 {
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
    if verify_threads > 1 {
        // Slot-digest map shared between the replica (publishes digests
        // at pre-prepare, consumes pre-verified shares at combine time)
        // and the pipeline workers (record σ/τ shares they checked).
        replica.set_share_map(Arc::new(ShareVerifyMap::default()));
    }
    NodeRuntime::with_verify_pool(Box::new(replica), transport, seed, verify_threads)
}

/// Maps a cluster spec onto protocol parameters. The spec's `profile`
/// picks the timer bundle: `lan` keeps the tight loopback/datacenter
/// timers, `wan` stretches them to continental round-trip scale (the
/// same shape `bench::driver::wan_protocol_tuning` applies to the
/// simulator's Continent topology).
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
        TransportProfile::Wan => {
            protocol.fast_path_timeout = SimDuration::from_millis(250);
            protocol.collector_stagger = SimDuration::from_millis(90);
            protocol.view_timeout = SimDuration::from_secs(10);
            protocol.batch_delay = SimDuration::from_millis(10);
        }
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
    let protocol = protocol_for(spec);
    let keys = KeyMaterial::generate(&protocol, spec.seed);
    let mut replica = make_replica(
        &protocol,
        r,
        &keys,
        Box::new(KvService::new()),
        CryptoCostModel::free(),
    );
    // `data_dir` makes the replica durable: commit WAL + checkpoint
    // snapshots under `<data_dir>/replica-<r>`, recovered at boot
    // before the startup handshake covers whatever the disk missed.
    if let Some(base) = &spec.data_dir {
        let policy = spec
            .fsync
            .as_deref()
            .and_then(FsyncPolicy::parse)
            .unwrap_or_default();
        let dir = std::path::Path::new(base).join(format!("replica-{r}"));
        let (durability, recovered) = ReplicaDurability::on_disk(&dir, policy)?;
        replica.set_durability(durability, recovered);
    }
    let transport = transport_for(spec, spec.replica_node(r), listener)?;
    Ok(replica_runtime_with_pipeline(
        replica,
        transport,
        spec.seed ^ (r as u64).wrapping_mul(0x9e3779b97f4a7c15),
        spec.resolved_verify_threads(),
        spec.resolved_exec_threads(),
    ))
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
    client.set_timestamp_base(
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0),
    );
    let node = spec.client_node(c);
    let transport = transport_for(spec, node, listener)?;
    let seed = spec.seed ^ (node as u64).wrapping_mul(0x9e3779b97f4a7c15);
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
    let timestamp_base = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mux = SessionMux::register(
        &protocol,
        keys.public.clone(),
        spec.session_client_base(g),
        spec.gateway_sessions,
        timestamp_base,
    );
    let node = spec.gateway_node(g);
    let seed = spec.seed ^ (node as u64).wrapping_mul(0x9e3779b97f4a7c15);
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

/// [`loopback_config`] plus a front door: one gateway carrying
/// `sessions` logical clients (the `gateway` / `gateway_sessions`
/// directives a deployment would write by hand).
pub fn loopback_config_with_gateway(
    f: usize,
    c: usize,
    seed: u64,
    replica_addrs: &[String],
    client_addrs: &[String],
    gateway_addr: &str,
    sessions: usize,
) -> String {
    use std::fmt::Write as _;
    let mut text = loopback_config(f, c, seed, replica_addrs, client_addrs);
    writeln!(text, "gateway 0 {gateway_addr}").expect("write to string");
    writeln!(text, "gateway_sessions {sessions}").expect("write to string");
    text
}
