//! Cluster construction helpers shared by tests, examples and benchmarks.
//!
//! Builds a full simulated deployment: `n` replicas and `m` clients placed
//! on a WAN topology, with key material, services and workloads wired up.

use sbft_types::{ClientId, Digest, ReplicaId, SeqNum};

use sbft_crypto::CryptoCostModel;
use sbft_sim::{NetworkConfig, NetworkModel, NodeId, Placement, SimDuration, Simulation, Topology};
use sbft_statedb::{KvOp, KvService, RawOp, Service};
use sbft_wire::Wire;

use crate::client::ClientNode;
use crate::config::ProtocolConfig;
use crate::keys::KeyMaterial;
use crate::messages::SbftMsg;
use crate::persist::{DurabilityImage, RecoveredState, ReplicaDurability};
use crate::replica::{Behavior, ReplicaNode};

/// Workload issued by each client.
#[derive(Debug, Clone)]
pub enum Workload {
    /// The §IX key-value benchmark: each request is `ops_per_request`
    /// random puts (64 in batching mode, 1 without).
    KvPut {
        /// Number of requests per client.
        requests: usize,
        /// Operations batched into one request.
        ops_per_request: usize,
        /// Key space size.
        key_space: u64,
        /// Value size in bytes.
        value_len: usize,
    },
    /// Explicit per-client operation lists (e.g. the Ethereum trace).
    Explicit(Vec<Vec<RawOp>>),
}

impl Workload {
    /// Builds the lazy request source for one client.
    pub fn source_for(&self, client: usize, seed: u64) -> crate::client::RequestSource {
        match self {
            Workload::KvPut {
                requests,
                ops_per_request,
                key_space,
                value_len,
            } => {
                let mut rng =
                    sbft_crypto::SplitMix64::new(seed ^ (client as u64).wrapping_mul(0x9e37));
                let (requests, ops_per_request, key_space, value_len) =
                    (*requests, *ops_per_request, *key_space, *value_len);
                Box::new(move |i| {
                    if i >= requests as u64 {
                        return None;
                    }
                    let ops: Vec<KvOp> = (0..ops_per_request)
                        .map(|_| KvOp::Put {
                            key: (rng.next_u64() % key_space).to_le_bytes().to_vec(),
                            value: (0..value_len).map(|_| rng.next_u64() as u8).collect(),
                        })
                        .collect();
                    Some(if ops.len() == 1 {
                        ops.into_iter().next().expect("one op").to_wire_bytes()
                    } else {
                        KvOp::Batch(ops).to_wire_bytes()
                    })
                })
            }
            Workload::Explicit(per_client) => {
                let mine = per_client
                    .get(client % per_client.len().max(1))
                    .cloned()
                    .unwrap_or_default();
                Box::new(move |i| mine.get(i as usize).cloned())
            }
        }
    }
}

/// Everything needed to build one simulated cluster.
pub struct ClusterConfig {
    /// Protocol parameters and variant flags.
    pub protocol: ProtocolConfig,
    /// Number of clients.
    pub clients: usize,
    /// Client workload.
    pub workload: Workload,
    /// Deployment topology.
    pub topology: Topology,
    /// VMs packed per physical machine per region (§IX; E7).
    pub machines_per_region: usize,
    /// Network parameters.
    pub network: NetworkConfig,
    /// Crypto CPU cost model.
    pub cost: CryptoCostModel,
    /// Client retry timeout.
    pub client_retry: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Record a full message trace (Figure 1).
    pub trace: bool,
    /// Reserve a front-door gateway node after the clients and route
    /// every client's requests through it. The gateway node itself is
    /// NOT built here (that would invert the crate dependency — the
    /// gateway lives in `sbft-gateway`): the caller must `add_node` it
    /// immediately after [`Cluster::build`], where it receives node id
    /// [`Cluster::gateway_node`] by insertion order.
    pub gateway: bool,
    /// Factory for each replica's service backend.
    pub service_factory: Box<dyn Fn() -> Box<dyn Service>>,
}

impl ClusterConfig {
    /// A small LAN cluster with a key-value service — the default starting
    /// point for tests.
    pub fn small(f: usize, c: usize, flags: crate::config::VariantFlags) -> Self {
        let mut protocol = ProtocolConfig::new(f, c, flags);
        // Tight timers for fast tests.
        protocol.fast_path_timeout = SimDuration::from_millis(40);
        protocol.collector_stagger = SimDuration::from_millis(20);
        protocol.view_timeout = SimDuration::from_millis(500);
        protocol.batch_delay = SimDuration::from_millis(2);
        ClusterConfig {
            protocol,
            clients: 2,
            workload: Workload::KvPut {
                requests: 10,
                ops_per_request: 1,
                key_space: 64,
                value_len: 16,
            },
            topology: Topology::lan(),
            machines_per_region: 4,
            network: NetworkConfig::default(),
            cost: CryptoCostModel::free(),
            client_retry: SimDuration::from_millis(400),
            seed: 42,
            trace: false,
            gateway: false,
            service_factory: Box::new(|| Box::new(KvService::new())),
        }
    }
}

/// Builds one replica node — the construction shared by the simulated
/// cluster below and the real-socket runtime in `sbft-transport` (both
/// backends drive the same sans-IO [`ReplicaNode`]). The replica is
/// memory-only: callers attach a durable store with
/// [`ReplicaNode::set_durability`] (the simulator an in-memory one, a
/// deployment with a `data_dir` an on-disk one).
pub fn make_replica(
    protocol: &ProtocolConfig,
    r: usize,
    keys: &KeyMaterial,
    service: Box<dyn sbft_statedb::Service>,
    cost: CryptoCostModel,
) -> ReplicaNode {
    ReplicaNode::new(
        protocol.clone(),
        ReplicaId::new(r as u32),
        keys,
        service,
        cost,
    )
}

/// Builds one client node (see [`make_replica`]); `source` yields the
/// client's request stream lazily.
pub fn make_client(
    protocol: &ProtocolConfig,
    c: usize,
    keys: &KeyMaterial,
    source: crate::client::RequestSource,
    retry: SimDuration,
    cost: CryptoCostModel,
) -> ClientNode {
    ClientNode::new(
        protocol.clone(),
        ClientId::new(c as u32),
        keys.public.clone(),
        source,
        retry,
        cost,
    )
}

/// A built cluster: the simulation plus its shape, retaining enough of
/// the configuration to rebuild a replica from scratch (restart with
/// empty state — the chaos harness's crash/restart fault).
pub struct Cluster {
    /// The underlying simulation.
    pub sim: Simulation<SbftMsg>,
    /// Number of replicas.
    pub n: usize,
    /// Number of clients.
    pub clients: usize,
    /// Whether a gateway node slot follows the clients (see
    /// [`ClusterConfig::gateway`]).
    pub gateway: bool,
    protocol: ProtocolConfig,
    keys: KeyMaterial,
    cost: CryptoCostModel,
    service_factory: Box<dyn Fn() -> Box<dyn Service>>,
}

impl Cluster {
    /// Builds a cluster from a configuration.
    pub fn build(config: ClusterConfig) -> Cluster {
        let n = config.protocol.n();
        let extras = config.clients + usize::from(config.gateway);
        let total = n + extras;
        let mut placement = Placement::round_robin(&config.topology, n, config.machines_per_region);
        placement.extend(&config.topology, extras, config.machines_per_region);
        let network = NetworkModel::new(config.topology, placement, config.network, total);
        let mut sim = Simulation::new(network, config.seed, config.trace);
        let keys = KeyMaterial::generate(&config.protocol, config.seed);
        for r in 0..n {
            let mut replica = make_replica(
                &config.protocol,
                r,
                &keys,
                (config.service_factory)(),
                config.cost.clone(),
            );
            // Every simulated replica carries an in-memory durable store:
            // the WAL/snapshot code paths run in all tests (same bytes as
            // the disk backend, minus the syscalls), and the harness can
            // capture the image for restart-with-intact-disk faults.
            replica.set_durability(ReplicaDurability::in_memory(), RecoveredState::empty());
            sim.add_node(Box::new(replica));
        }
        for c in 0..config.clients {
            let source = config.workload.source_for(c, config.seed);
            let mut client = make_client(
                &config.protocol,
                c,
                &keys,
                source,
                config.client_retry,
                config.cost.clone(),
            );
            if config.gateway {
                client.set_gateway(n + config.clients);
            }
            sim.add_node(Box::new(client));
        }
        Cluster {
            sim,
            n,
            clients: config.clients,
            gateway: config.gateway,
            protocol: config.protocol,
            keys,
            cost: config.cost,
            service_factory: config.service_factory,
        }
    }

    /// Restarts replica `r` **with empty state** at the current simulated
    /// time, as if its process was killed and rebooted with a wiped disk:
    /// fresh service backend, zero log, view 0. Timers armed by the
    /// previous incarnation never fire; the rejoining replica must catch
    /// up through the protocol (block fills / state transfer).
    pub fn restart_replica(&mut self, r: usize) {
        assert!(r < self.n, "replica {r} out of range");
        // A wiped disk, but a disk: the next intact restart recovers
        // from whatever this incarnation logs.
        self.boot_replica(r, ReplicaDurability::in_memory(), RecoveredState::empty());
    }

    /// Replaces replica `r` with a fresh incarnation on `durability`.
    fn boot_replica(&mut self, r: usize, durability: ReplicaDurability, recovered: RecoveredState) {
        let mut fresh = make_replica(
            &self.protocol,
            r,
            &self.keys,
            (self.service_factory)(),
            self.cost.clone(),
        );
        fresh.set_durability(durability, recovered);
        self.sim.restart_node(r, Box::new(fresh));
    }

    /// Captures replica `r`'s durable state image (its "disk"). Panics
    /// if the node is not a replica; returns an empty image if the
    /// replica has no durable store attached.
    pub fn durability_image(&mut self, r: usize) -> DurabilityImage {
        self.sim
            .node_as_mut::<ReplicaNode>(r)
            .expect("node is a replica")
            .durability_image()
            .unwrap_or_default()
    }

    /// Damages replica `r`'s durable store in place — chaos fault
    /// injection against a crashed node, without running recovery. The
    /// damage surfaces at the victim's next intact restart.
    pub fn damage_durability(&mut self, r: usize, mutate: impl FnOnce(&mut DurabilityImage)) {
        self.sim
            .node_as_mut::<ReplicaNode>(r)
            .expect("node is a replica")
            .damage_durability(mutate);
    }

    /// Restarts replica `r` **with an intact disk**: the process dies,
    /// but the durable image (WAL + snapshot bytes) survives and the
    /// fresh incarnation recovers from it at start, then runs the
    /// startup recovery handshake for whatever the disk didn't cover.
    /// `mutate` can damage the image in between (torn writes, bit
    /// flips) — recovery must truncate-and-continue, never panic.
    pub fn restart_replica_intact(&mut self, r: usize, mutate: impl FnOnce(&mut DurabilityImage)) {
        assert!(r < self.n, "replica {r} out of range");
        let mut image = self.durability_image(r);
        mutate(&mut image);
        let (durability, recovered) = ReplicaDurability::from_image(image);
        self.boot_replica(r, durability, recovered);
    }

    /// Node id of a replica.
    pub fn replica_node(&self, r: usize) -> NodeId {
        r
    }

    /// Node id of a client.
    pub fn client_node(&self, c: usize) -> NodeId {
        self.n + c
    }

    /// Node id of the gateway slot (valid when built with
    /// [`ClusterConfig::gateway`]; the caller added the node there).
    pub fn gateway_node(&self) -> NodeId {
        self.n + self.clients
    }

    /// Starts all nodes and runs for a simulated duration.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.sim.start();
        self.sim.run_for(duration);
    }

    /// Inspects a replica.
    pub fn replica(&self, r: usize) -> &ReplicaNode {
        self.sim
            .node_as::<ReplicaNode>(r)
            .expect("node is a replica")
    }

    /// Mutable access to a replica (behaviour injection before `run_for`).
    pub fn replica_mut(&mut self, r: usize) -> &mut ReplicaNode {
        self.sim
            .node_as_mut::<ReplicaNode>(r)
            .expect("node is a replica")
    }

    /// Inspects a client.
    pub fn client(&self, c: usize) -> &ClientNode {
        self.sim
            .node_as::<ClientNode>(self.n + c)
            .expect("node is a client")
    }

    /// Sets a replica's fault behaviour.
    pub fn set_behavior(&mut self, r: usize, behavior: Behavior) {
        self.replica_mut(r).set_behavior(behavior);
    }

    /// Total completed client requests.
    pub fn total_completed(&self) -> u64 {
        self.sim.metrics().counter("client_completed")
    }

    /// Safety snapshots of every live (non-crashed) replica.
    pub fn snapshots(&self) -> Vec<ReplicaSnapshot> {
        (0..self.n)
            .filter(|r| !self.sim.is_crashed(*r))
            .map(|r| ReplicaSnapshot::of(self.replica(r), r))
            .collect()
    }

    /// Checks inter-replica safety: every pair of live replicas agrees on
    /// every sequence number both have committed (Theorem VI.1), replicas
    /// that executed equally far have identical state digests, commit
    /// logs are gap-free up to the execution frontier, and no replica
    /// executed the same client request twice.
    ///
    /// # Panics
    ///
    /// Panics with a description of the disagreement, if any.
    pub fn assert_agreement(&self) {
        if let Some(violation) = invariant_violation(&self.snapshots()) {
            panic!("{violation}");
        }
    }
}

/// A point-in-time safety snapshot of one replica, comparable across
/// backends — the simulator extracts it in-process, the TCP harness from
/// each node thread before it exits. Everything the cross-cutting
/// invariants need, nothing tied to either runtime.
#[derive(Debug, Clone)]
pub struct ReplicaSnapshot {
    /// Replica index.
    pub replica: usize,
    /// Current view.
    pub view: u64,
    /// Latest stable checkpoint.
    pub last_stable: u64,
    /// Execution frontier.
    pub last_executed: u64,
    /// Digest of the executed state.
    pub state_digest: Digest,
    /// `(seq, block digest)` of every retained committed block.
    pub blocks: Vec<(u64, Digest)>,
    /// `(seq, client, timestamp)` of every request in those blocks.
    pub requests: Vec<(u64, u32, u64)>,
    /// Root of the state the replica stored for its stable checkpoint.
    pub checkpoint_state_root: Option<Digest>,
    /// The state root that checkpoint's certificate binds.
    pub checkpoint_cert_root: Option<Digest>,
}

impl ReplicaSnapshot {
    /// Extracts the snapshot from a replica node.
    pub fn of(replica: &ReplicaNode, r: usize) -> ReplicaSnapshot {
        let mut blocks = Vec::new();
        let mut requests = Vec::new();
        let max_seq = replica.last_executed().get() + 512;
        for seq in replica.last_stable().get()..=max_seq {
            if seq == 0 {
                continue;
            }
            let seq = SeqNum::new(seq);
            if let Some(reqs) = replica.committed_block(seq) {
                blocks.push((
                    seq.get(),
                    crate::messages::block_digest(seq, sbft_types::ViewNum::ZERO, reqs),
                ));
                for req in reqs {
                    requests.push((seq.get(), req.client.get(), req.timestamp));
                }
            }
        }
        let checkpoint = replica.checkpoint_roots();
        ReplicaSnapshot {
            replica: r,
            view: replica.view().get(),
            last_stable: replica.last_stable().get(),
            last_executed: replica.last_executed().get(),
            state_digest: replica.state_digest(),
            blocks,
            requests,
            checkpoint_state_root: checkpoint.map(|(stored, _)| stored),
            checkpoint_cert_root: checkpoint.map(|(_, certified)| certified),
        }
    }
}

/// Checks the cross-cutting safety invariants over a set of replica
/// snapshots, returning a description of the first violation:
///
/// 1. **Agreement** — no two replicas committed different blocks at the
///    same sequence number, and replicas with equal execution frontiers
///    have identical state digests.
/// 2. **Monotone commit** — each replica's retained commit log is
///    gap-free from its stable checkpoint to its execution frontier (a
///    replica never executes past a hole).
/// 3. **No duplicate execution** — no `(client, timestamp)` pair appears
///    in two committed blocks of one replica.
/// 4. **Checkpoint integrity** — the state a replica stored for its
///    stable checkpoint has the root the checkpoint's certificate binds.
pub fn invariant_violation(snapshots: &[ReplicaSnapshot]) -> Option<String> {
    let mut blocks: std::collections::BTreeMap<u64, (usize, Digest)> =
        std::collections::BTreeMap::new();
    let mut states: std::collections::BTreeMap<u64, (usize, Digest)> =
        std::collections::BTreeMap::new();
    for snap in snapshots {
        let r = snap.replica;
        for (seq, digest) in &snap.blocks {
            if let Some((other, existing)) = blocks.get(seq) {
                if existing != digest {
                    return Some(format!(
                        "SAFETY: replicas {other} and {r} committed different blocks at seq {seq}"
                    ));
                }
            } else {
                blocks.insert(*seq, (r, *digest));
            }
        }
        if snap.last_executed > 0 {
            if let Some((other, existing)) = states.get(&snap.last_executed) {
                if *existing != snap.state_digest {
                    return Some(format!(
                        "SAFETY: replicas {other} and {r} diverge in state at seq {}",
                        snap.last_executed
                    ));
                }
            } else {
                states.insert(snap.last_executed, (r, snap.state_digest));
            }
        }
        let retained: std::collections::BTreeSet<u64> =
            snap.blocks.iter().map(|(seq, _)| *seq).collect();
        for seq in (snap.last_stable + 1)..=snap.last_executed {
            if !retained.contains(&seq) {
                return Some(format!(
                    "MONOTONE: replica {r} executed to {} but has no committed block at {seq} \
                     (stable {})",
                    snap.last_executed, snap.last_stable
                ));
            }
        }
        let mut seen: std::collections::HashMap<(u32, u64), u64> = std::collections::HashMap::new();
        for (seq, client, timestamp) in &snap.requests {
            if let Some(first) = seen.insert((*client, *timestamp), *seq) {
                return Some(format!(
                    "DUPLICATE: replica {r} committed request (client {client}, ts {timestamp}) \
                     at both seq {first} and seq {seq}"
                ));
            }
        }
        if let (Some(stored), Some(certified)) =
            (snap.checkpoint_state_root, snap.checkpoint_cert_root)
        {
            if stored != certified {
                return Some(format!(
                    "CHECKPOINT: replica {r} stored state root {stored} for its checkpoint at \
                     seq {}, whose certificate binds state root {certified}",
                    snap.last_stable
                ));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariantFlags;
    use sbft_sim::SimTime;

    fn run_small(flags: crate::config::VariantFlags, f: usize, c: usize) -> Cluster {
        let mut cluster = Cluster::build(ClusterConfig::small(f, c, flags));
        cluster.run_for(SimDuration::from_secs(20));
        cluster
    }

    #[test]
    fn fast_path_commits_n4() {
        // Figure 1 configuration: n=4, f=1, c=0.
        let cluster = run_small(VariantFlags::SBFT, 1, 0);
        assert_eq!(cluster.total_completed(), 20, "all requests complete");
        cluster.assert_agreement();
        // The fast path carried the load; no fallback happened.
        assert!(cluster.sim.metrics().counter("fast_commits") > 0);
        assert_eq!(cluster.sim.metrics().counter("slow_commits"), 0);
        // Single-ack mode must not send per-replica replies.
        assert_eq!(cluster.sim.metrics().label_count("reply"), 0);
        assert!(cluster.sim.metrics().label_count("execute-ack") > 0);
    }

    #[test]
    fn linear_pbft_variant_commits() {
        let cluster = run_small(VariantFlags::LINEAR_PBFT, 1, 0);
        assert_eq!(cluster.total_completed(), 20);
        cluster.assert_agreement();
        // No fast path: all commits are slow-path.
        assert_eq!(cluster.sim.metrics().counter("fast_commits"), 0);
        assert!(cluster.sim.metrics().counter("slow_commits") > 0);
        // Clients get f+1 replies, not single acks.
        assert!(cluster.sim.metrics().label_count("reply") > 0);
        assert_eq!(cluster.sim.metrics().label_count("execute-ack"), 0);
    }

    #[test]
    fn fast_path_variant_with_direct_replies() {
        let cluster = run_small(VariantFlags::FAST_PATH, 1, 0);
        assert_eq!(cluster.total_completed(), 20);
        cluster.assert_agreement();
        assert!(cluster.sim.metrics().counter("fast_commits") > 0);
        assert!(cluster.sim.metrics().label_count("reply") > 0);
    }

    #[test]
    fn crash_of_c_backups_keeps_fast_path() {
        // With c=1 (n=6), one crashed backup must not leave the fast path.
        let mut config = ClusterConfig::small(1, 1, VariantFlags::SBFT);
        config.workload = Workload::KvPut {
            requests: 10,
            ops_per_request: 1,
            key_space: 64,
            value_len: 16,
        };
        let mut cluster = Cluster::build(config);
        cluster.sim.schedule_crash(5, SimTime::ZERO);
        cluster.run_for(SimDuration::from_secs(20));
        assert_eq!(cluster.total_completed(), 20);
        cluster.assert_agreement();
        assert!(cluster.sim.metrics().counter("fast_commits") > 0);
    }

    #[test]
    fn crash_beyond_c_falls_back_to_slow_path() {
        // c=0: a single crashed backup forces the linear-PBFT path.
        let mut cluster = Cluster::build(ClusterConfig::small(1, 0, VariantFlags::SBFT));
        cluster.sim.schedule_crash(3, SimTime::ZERO);
        cluster.run_for(SimDuration::from_secs(30));
        assert_eq!(cluster.total_completed(), 20);
        cluster.assert_agreement();
        assert!(cluster.sim.metrics().counter("slow_commits") > 0);
        assert!(cluster.sim.metrics().counter("fast_path_fallbacks") > 0);
    }

    #[test]
    fn primary_crash_triggers_view_change_and_recovers() {
        let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
        config.workload = Workload::KvPut {
            requests: 30,
            ops_per_request: 1,
            key_space: 64,
            value_len: 16,
        };
        let mut cluster = Cluster::build(config);
        // Crash the primary mid-run (the LAN workload takes ~100ms, so
        // crash early enough to interrupt it).
        cluster
            .sim
            .schedule_crash(0, SimTime::ZERO + SimDuration::from_millis(20));
        cluster.run_for(SimDuration::from_secs(60));
        cluster.assert_agreement();
        assert!(
            cluster.sim.metrics().counter("view_changes_completed") > 0,
            "a view change must have completed"
        );
        // Liveness: clients finish their workload under the new primary.
        assert_eq!(cluster.total_completed(), 60);
        for r in 1..4 {
            assert!(cluster.replica(r).view() > sbft_types::ViewNum::ZERO);
        }
    }

    #[test]
    fn equivocating_primary_is_safe() {
        let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
        config.clients = 4;
        // Force multi-request blocks so the primary has something to
        // split into conflicting proposals.
        config.protocol.max_in_flight = 1;
        let mut cluster = Cluster::build(config);
        cluster.set_behavior(0, Behavior::EquivocatingPrimary);
        cluster.run_for(SimDuration::from_secs(60));
        // Equivocation must never produce conflicting commits.
        cluster.assert_agreement();
        // And the cluster must eventually make progress in a new view.
        assert!(cluster.sim.metrics().counter("view_changes_completed") > 0);
        assert!(cluster.total_completed() > 0, "liveness after equivocation");
    }

    #[test]
    fn deterministic_runs() {
        let a = run_small(VariantFlags::SBFT, 1, 0);
        let b = run_small(VariantFlags::SBFT, 1, 0);
        assert_eq!(a.sim.events_processed(), b.sim.events_processed());
        assert_eq!(
            a.sim.metrics().sample_snapshot("latency_ms"),
            b.sim.metrics().sample_snapshot("latency_ms")
        );
    }

    #[test]
    fn checkpoints_garbage_collect() {
        let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
        config.protocol.checkpoint_period = 8;
        config.workload = Workload::KvPut {
            requests: 60,
            ops_per_request: 1,
            key_space: 16,
            value_len: 8,
        };
        let mut cluster = Cluster::build(config);
        cluster.run_for(SimDuration::from_secs(60));
        assert_eq!(cluster.total_completed(), 120);
        cluster.assert_agreement();
        assert!(cluster.sim.metrics().counter("checkpoints") > 0);
        for r in 0..4 {
            assert!(
                cluster.replica(r).last_stable().get() > 0,
                "replica {r} never advanced its stable point"
            );
        }
    }

    #[test]
    fn intact_restart_recovers_from_local_wal() {
        let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
        config.protocol.checkpoint_period = 16;
        config.workload = Workload::KvPut {
            requests: 30,
            ops_per_request: 1,
            key_space: 64,
            value_len: 16,
        };
        let mut cluster = Cluster::build(config);
        cluster.run_for(SimDuration::from_secs(20));
        assert_eq!(cluster.total_completed(), 60);
        let frontier = cluster.replica(3).last_executed().get();
        assert!(frontier > 0);
        // Reboot with the disk intact: the fresh incarnation replays its
        // snapshot + WAL locally and the handshake confirms it without a
        // fresh state transfer.
        cluster.restart_replica_intact(3, |_| {});
        cluster.run_for(SimDuration::from_secs(5));
        assert!(
            cluster.replica(3).last_executed().get() >= frontier,
            "intact restart recovers at least the pre-crash frontier"
        );
        assert!(
            !cluster.replica(3).recovery_active(),
            "handshake confirms the recovered frontier"
        );
        assert!(
            cluster.sim.metrics().counter("wal_replayed_blocks") > 0,
            "recovery came from the local log"
        );
        cluster.assert_agreement();
    }

    #[test]
    fn intact_restart_survives_torn_wal_tail() {
        let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
        config.workload = Workload::KvPut {
            requests: 30,
            ops_per_request: 1,
            key_space: 64,
            value_len: 16,
        };
        let mut cluster = Cluster::build(config);
        cluster.run_for(SimDuration::from_secs(20));
        assert_eq!(cluster.total_completed(), 60);
        let frontier = cluster.replica(3).last_executed().get();
        // Tear the final WAL record mid-write: replay must truncate and
        // continue, and the handshake fetches whatever the tear lost.
        cluster.restart_replica_intact(3, |image| image.tear_wal_tail(5));
        cluster.run_for(SimDuration::from_secs(10));
        assert_eq!(
            cluster.sim.metrics().counter("wal_tail_truncations"),
            1,
            "the torn tail was detected and truncated"
        );
        assert!(
            cluster.replica(3).last_executed().get() >= frontier,
            "replica recovers past the torn tail via the handshake"
        );
        cluster.assert_agreement();
    }

    #[test]
    fn healthy_run_commits_500_with_zero_view_changes() {
        // The adaptive timers must never be twitchier than the static
        // ones on a healthy cluster: 500 commits on an undisturbed
        // 4-replica LAN, and not a single view change attempt.
        let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
        config.workload = Workload::KvPut {
            requests: 250,
            ops_per_request: 1,
            key_space: 64,
            value_len: 16,
        };
        let mut cluster = Cluster::build(config);
        cluster.run_for(SimDuration::from_secs(120));
        assert_eq!(cluster.total_completed(), 500);
        cluster.assert_agreement();
        assert_eq!(
            cluster.sim.metrics().counter("view_changes_started"),
            0,
            "a healthy run must not attempt a single view change"
        );
        assert!(cluster.sim.metrics().counter("fast_commits") > 0);
    }

    #[test]
    fn gray_slow_primary_is_replaced_and_cluster_recovers() {
        // Gray failure: the primary stays up and answers everything —
        // just 150ms late per message. No crash, no partition, nothing a
        // socket error would reveal; only the liveness layer (adaptive
        // watchdogs + heartbeat suspicion) can notice and depose it.
        let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
        config.workload = Workload::KvPut {
            requests: 30,
            ops_per_request: 1,
            key_space: 64,
            value_len: 16,
        };
        let mut cluster = Cluster::build(config);
        cluster.sim.start();
        cluster.sim.run_for(SimDuration::from_millis(20));
        cluster
            .sim
            .set_processing_delay(0, SimDuration::from_millis(150));
        cluster.sim.run_for(SimDuration::from_secs(60));
        cluster.assert_agreement();
        assert!(
            cluster.sim.metrics().counter("view_changes_completed") > 0,
            "the gray primary must be replaced"
        );
        assert_eq!(
            cluster.total_completed(),
            60,
            "liveness resumes under the replacement primary"
        );
        for r in 1..4 {
            assert!(cluster.replica(r).view() > sbft_types::ViewNum::ZERO);
        }
    }

    /// A client whose execute-ack was lost retries long after its
    /// request executed. Checkpoint GC must not make replicas drop that
    /// retry: they answer it from the client table with f+1 `Reply`s.
    #[test]
    fn lost_ack_is_answered_after_checkpoint_gc() {
        let put = |i: u64| {
            KvOp::Put {
                key: i.to_le_bytes().to_vec(),
                value: vec![7; 16],
            }
            .to_wire_bytes()
        };
        let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
        // Client A sends one request; client B sends 330 more.
        config.workload = Workload::Explicit(vec![vec![put(0)], (1..=330).map(put).collect()]);
        let mut cluster = Cluster::build(config);
        cluster.sim.start();
        let a_committed = |cluster: &Cluster| {
            (1..=4).any(|s| {
                cluster
                    .replica(0)
                    .committed_block(SeqNum::new(s))
                    .is_some_and(|reqs| reqs.iter().any(|r| r.client.get() == 0))
            })
        };
        while !a_committed(&cluster) {
            assert!(
                cluster.sim.step(),
                "the simulation ran dry before A committed"
            );
        }
        // Cut A off right after its request commits: the execute-ack,
        // and every reply to its retries while cut off, is lost.
        let cut = cluster.sim.now();
        let heal = cut + SimDuration::from_secs(10);
        let a = cluster.client_node(0);
        cluster.sim.network_mut().set_node_deaf(a, cut, heal);
        let b_before = cluster.client(1).completed;
        cluster.sim.run_until(heal);
        assert_eq!(cluster.client(0).completed, 0, "A's ack was lost");
        assert!(
            cluster.client(1).completed - b_before >= 300,
            "B committed at least 300 requests while A was cut off"
        );
        for r in 0..4 {
            assert!(
                cluster.replica(r).last_stable().get() >= 256,
                "replica {r}'s checkpoints passed A's request"
            );
        }
        let replies_before = cluster.sim.metrics().label_count("reply");
        cluster.sim.run_for(SimDuration::from_secs(60));
        assert_eq!(cluster.client(0).completed, 1, "A completes after the heal");
        assert!(
            cluster.sim.metrics().label_count("reply") - replies_before >= 2,
            "A completed from f+1 replies"
        );
        cluster.assert_agreement();
    }

    /// A checkpoint holds its own block's state. With blocks in flight, a
    /// replica used to store the state after its *last executed* block
    /// under the checkpoint's roots: every transfer of such a checkpoint
    /// failed the receiver's root check, and an intact restart replayed
    /// its WAL on top of a later state.
    #[test]
    fn intact_restart_catches_up_through_a_checkpoint_transfer() {
        let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
        config.protocol.checkpoint_period = 16;
        config.clients = 8;
        config.workload = Workload::KvPut {
            requests: 200,
            ops_per_request: 1,
            key_space: 64,
            value_len: 16,
        };
        let mut cluster = Cluster::build(config);
        cluster.run_for(SimDuration::from_secs(1));
        assert_eq!(cluster.total_completed(), 1600, "quiescent");
        let frontier = cluster.replica(0).last_executed();
        cluster.restart_replica_intact(3, |_| {});
        cluster.run_for(SimDuration::from_secs(10));
        assert_eq!(
            cluster.replica(3).last_executed(),
            frontier,
            "replica 3 reaches the cluster frontier"
        );
        assert!(
            cluster.sim.metrics().counter("state_transfers_completed") > 0,
            "through a completed state transfer"
        );
        cluster.assert_agreement();
    }

    /// A replica that falls behind a new view's stable checkpoint must
    /// fetch that state from a replica that has it. It used to ask its
    /// successor, `(id + 1) % n`: here that is the crashed old primary,
    /// no answer ever came, and without the lagging replica's τ share
    /// the new views could not commit.
    #[test]
    fn lagging_replica_fetches_new_view_state_from_a_live_replica() {
        let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
        config.protocol.checkpoint_period = 8;
        config.protocol.window = 16;
        config.workload = Workload::KvPut {
            requests: 400,
            ops_per_request: 1,
            key_space: 64,
            value_len: 16,
        };
        let mut cluster = Cluster::build(config);
        let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
        cluster
            .sim
            .network_mut()
            .set_node_deaf(3, at(200), at(1500));
        cluster.sim.schedule_crash(0, at(1500));
        cluster.sim.start();
        cluster.sim.run_until(at(1500) + SimDuration::from_secs(30));
        cluster.assert_agreement();
        assert!(cluster.sim.metrics().counter("state_transfers_completed") > 0);
        assert_eq!(cluster.total_completed(), 800, "every request completes");
    }

    #[test]
    fn invariant_violation_names_each_broken_invariant() {
        type Breakage = fn(&mut ReplicaSnapshot);
        fn d(b: u8) -> Digest {
            Digest::new([b; 32])
        }
        let healthy = |replica: usize| ReplicaSnapshot {
            replica,
            view: 0,
            last_stable: 0,
            last_executed: 2,
            state_digest: d(9),
            blocks: vec![(1, d(1)), (2, d(2))],
            requests: vec![(1, 0, 1), (2, 0, 2)],
            checkpoint_state_root: Some(d(5)),
            checkpoint_cert_root: Some(d(5)),
        };
        assert_eq!(invariant_violation(&[healthy(0), healthy(1)]), None);
        let rows: [(&str, Breakage); 5] = [
            ("SAFETY", |s| s.blocks[1].1 = d(3)),
            ("SAFETY", |s| s.state_digest = d(8)),
            ("MONOTONE", |s| {
                s.blocks.remove(0);
            }),
            ("DUPLICATE", |s| s.requests[1].2 = 1),
            ("CHECKPOINT", |s| s.checkpoint_state_root = Some(d(6))),
        ];
        for (kind, break_it) in rows {
            let mut broken = healthy(1);
            break_it(&mut broken);
            let violation = invariant_violation(&[healthy(0), broken]).expect(kind);
            assert!(violation.starts_with(kind), "{kind}: {violation}");
        }
    }

    #[test]
    fn larger_cluster_commits() {
        // f=3, c=1 → n=12: a mid-size cluster exercising rotation.
        let mut config = ClusterConfig::small(3, 1, VariantFlags::SBFT);
        config.clients = 4;
        let mut cluster = Cluster::build(config);
        cluster.run_for(SimDuration::from_secs(30));
        assert_eq!(cluster.total_completed(), 40);
        cluster.assert_agreement();
    }
}
