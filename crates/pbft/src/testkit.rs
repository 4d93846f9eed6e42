//! PBFT cluster construction for tests and benchmarks, mirroring
//! `sbft_core::testkit` so the two systems run on identical substrates.

use sbft_types::{ClientId, ReplicaId, SeqNum, ViewNum};

use sbft_core::{invariant_violation, ReplicaSnapshot, Workload};
use sbft_crypto::CryptoCostModel;
use sbft_sim::{NetworkConfig, NetworkModel, Placement, SimDuration, Simulation, Topology};
use sbft_statedb::{KvService, Service};

use crate::client::PbftClient;
use crate::keys::PbftKeys;
use crate::messages::{pbft_block_digest, PbftMsg};
use crate::replica::{PbftConfig, PbftReplica};

/// Configuration for one PBFT cluster.
pub struct PbftClusterConfig {
    /// Protocol parameters.
    pub protocol: PbftConfig,
    /// Number of clients.
    pub clients: usize,
    /// Workload.
    pub workload: Workload,
    /// Topology.
    pub topology: Topology,
    /// Machines per region.
    pub machines_per_region: usize,
    /// Network config.
    pub network: NetworkConfig,
    /// Crypto cost model.
    pub cost: CryptoCostModel,
    /// Client retry timeout.
    pub client_retry: SimDuration,
    /// Seed.
    pub seed: u64,
    /// Trace messages.
    pub trace: bool,
    /// Service factory.
    pub service_factory: Box<dyn Fn() -> Box<dyn Service>>,
}

impl PbftClusterConfig {
    /// A small LAN cluster for tests.
    pub fn small(f: usize) -> Self {
        let mut protocol = PbftConfig::new(f);
        protocol.view_timeout = SimDuration::from_millis(500);
        protocol.batch_delay = SimDuration::from_millis(2);
        PbftClusterConfig {
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
            service_factory: Box::new(|| Box::new(KvService::new())),
        }
    }
}

/// A built PBFT cluster.
pub struct PbftCluster {
    /// The simulation.
    pub sim: Simulation<PbftMsg>,
    /// Replica count.
    pub n: usize,
    /// Client count.
    pub clients: usize,
}

impl PbftCluster {
    /// Builds the cluster.
    pub fn build(config: PbftClusterConfig) -> PbftCluster {
        let n = config.protocol.n();
        let total = n + config.clients;
        let mut placement = Placement::round_robin(&config.topology, n, config.machines_per_region);
        placement.extend(&config.topology, config.clients, config.machines_per_region);
        let network = NetworkModel::new(config.topology, placement, config.network, total);
        let mut sim = Simulation::new(network, config.seed, config.trace);
        let keys = PbftKeys::new(config.seed);
        for r in 0..n {
            sim.add_node(Box::new(PbftReplica::new(
                config.protocol.clone(),
                ReplicaId::new(r as u32),
                keys.clone(),
                (config.service_factory)(),
                config.cost.clone(),
            )));
        }
        for c in 0..config.clients {
            let source = config.workload.source_for(c, config.seed);
            sim.add_node(Box::new(PbftClient::new(
                config.protocol.clone(),
                ClientId::new(c as u32),
                &keys,
                source,
                config.client_retry,
                config.cost.clone(),
            )));
        }
        PbftCluster {
            sim,
            n,
            clients: config.clients,
        }
    }

    /// Starts and runs for a duration.
    pub fn run_for(&mut self, duration: SimDuration) {
        self.sim.start();
        self.sim.run_for(duration);
    }

    /// Inspects a replica.
    pub fn replica(&self, r: usize) -> &PbftReplica {
        self.sim.node_as::<PbftReplica>(r).expect("replica node")
    }

    /// Inspects a client.
    pub fn client(&self, c: usize) -> &PbftClient {
        self.sim.node_as::<PbftClient>(self.n + c).expect("client")
    }

    /// Total completed requests.
    pub fn total_completed(&self) -> u64 {
        self.sim.metrics().counter("client_completed")
    }

    /// Safety snapshots of every live (non-crashed) replica, in the
    /// form SBFT's invariants judge (a PBFT replica stores no checkpoint
    /// state roots, so that invariant has nothing to compare).
    fn snapshots(&self) -> Vec<ReplicaSnapshot> {
        (0..self.n)
            .filter(|r| !self.sim.is_crashed(*r))
            .map(|r| {
                let replica = self.replica(r);
                let mut blocks = Vec::new();
                let mut requests = Vec::new();
                let from = replica.last_stable().get().max(1);
                for seq in from..=replica.last_executed().get() + 512 {
                    let seq = SeqNum::new(seq);
                    if let Some(reqs) = replica.committed_block(seq) {
                        blocks.push((seq.get(), pbft_block_digest(seq, ViewNum::ZERO, reqs)));
                        requests.extend(
                            reqs.iter()
                                .map(|q| (seq.get(), q.client.get(), q.timestamp)),
                        );
                    }
                }
                ReplicaSnapshot {
                    replica: r,
                    view: replica.view().get(),
                    last_stable: replica.last_stable().get(),
                    last_executed: replica.last_executed().get(),
                    state_digest: replica.state_digest(),
                    blocks,
                    requests,
                    checkpoint_state_root: None,
                    checkpoint_cert_root: None,
                }
            })
            .collect()
    }

    /// Checks inter-replica safety with SBFT's judge
    /// ([`invariant_violation`]): agreement on every committed block and
    /// on equally advanced states, gap-free commit logs, no request
    /// executed twice.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violation, if any.
    pub fn assert_agreement(&self) {
        if let Some(violation) = invariant_violation(&self.snapshots()) {
            panic!("{violation}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_sim::SimTime;
    use sbft_statedb::KvOp;
    use sbft_wire::Wire;

    #[test]
    fn commits_and_replies() {
        let mut cluster = PbftCluster::build(PbftClusterConfig::small(1));
        cluster.run_for(SimDuration::from_secs(20));
        assert_eq!(cluster.total_completed(), 20);
        cluster.assert_agreement();
        // All-to-all phases really happened: prepares ≈ commits ≈ n² scale.
        let prepares = cluster.sim.metrics().label_count("prepare");
        let commits = cluster.sim.metrics().label_count("commit");
        assert!(prepares > 0 && commits > 0);
        assert!(cluster.sim.metrics().label_count("reply") > 0);
    }

    #[test]
    fn tolerates_f_crashed_backups() {
        let mut cluster = PbftCluster::build(PbftClusterConfig::small(1));
        cluster.sim.schedule_crash(3, SimTime::ZERO);
        cluster.run_for(SimDuration::from_secs(20));
        assert_eq!(cluster.total_completed(), 20);
        cluster.assert_agreement();
    }

    #[test]
    fn primary_crash_view_change_recovers() {
        let mut config = PbftClusterConfig::small(1);
        config.workload = Workload::KvPut {
            requests: 30,
            ops_per_request: 1,
            key_space: 64,
            value_len: 16,
        };
        let mut cluster = PbftCluster::build(config);
        cluster
            .sim
            .schedule_crash(0, SimTime::ZERO + SimDuration::from_millis(20));
        cluster.run_for(SimDuration::from_secs(60));
        cluster.assert_agreement();
        assert!(cluster.sim.metrics().counter("view_changes_completed") > 0);
        assert_eq!(cluster.total_completed(), 60);
    }

    #[test]
    fn checkpoints_advance() {
        let mut config = PbftClusterConfig::small(1);
        config.protocol.checkpoint_period = 8;
        config.workload = Workload::KvPut {
            requests: 60,
            ops_per_request: 1,
            key_space: 16,
            value_len: 8,
        };
        let mut cluster = PbftCluster::build(config);
        cluster.run_for(SimDuration::from_secs(60));
        assert_eq!(cluster.total_completed(), 120);
        assert!(cluster.sim.metrics().counter("checkpoints") > 0);
        for r in 0..4 {
            assert!(cluster.replica(r).last_stable().get() > 0);
        }
        cluster.assert_agreement();
    }

    /// A client whose replies were all lost retries long after its
    /// request executed. Checkpoint GC must not make replicas drop that
    /// retry: they answer it from the client table.
    #[test]
    fn lost_reply_is_answered_after_checkpoint_gc() {
        let put = |i: u64| {
            KvOp::Put {
                key: i.to_le_bytes().to_vec(),
                value: vec![7; 16],
            }
            .to_wire_bytes()
        };
        let mut config = PbftClusterConfig::small(1);
        // Client A sends one request; client B sends 400 more.
        config.workload = Workload::Explicit(vec![vec![put(0)], (1..=400).map(put).collect()]);
        let mut cluster = PbftCluster::build(config);
        cluster.sim.start();
        let a_committed = |cluster: &PbftCluster| {
            (0..4).any(|r| {
                (1..=4).any(|s| {
                    cluster
                        .replica(r)
                        .committed_block(SeqNum::new(s))
                        .is_some_and(|reqs| reqs.iter().any(|req| req.client.get() == 0))
                })
            })
        };
        while !a_committed(&cluster) {
            assert!(
                cluster.sim.step(),
                "the simulation ran dry before A committed"
            );
        }
        // Cut A off as soon as the first replica commits its request:
        // every reply, and every reply to its retries while cut off, is
        // lost.
        let cut = cluster.sim.now();
        let heal = cut + SimDuration::from_secs(20);
        let a = cluster.n;
        cluster.sim.network_mut().set_node_deaf(a, cut, heal);
        cluster.sim.run_until(heal);
        assert_eq!(cluster.client(0).completed, 0, "A's replies were lost");
        assert_eq!(cluster.client(1).completed, 400, "B committed everything");
        for r in 0..4 {
            assert!(
                cluster.replica(r).last_stable().get() >= 256,
                "replica {r}'s checkpoints passed A's request"
            );
        }
        cluster.sim.run_for(SimDuration::from_secs(60));
        assert_eq!(cluster.client(0).completed, 1, "A completes after the heal");
        cluster.assert_agreement();
    }

    #[test]
    fn quadratic_message_complexity_visible() {
        // PBFT's per-block message count grows ~n²; verify the pattern by
        // comparing prepare counts at two cluster sizes for one block each.
        let count_prepares = |f: usize| {
            let mut config = PbftClusterConfig::small(f);
            config.clients = 1;
            config.workload = Workload::KvPut {
                requests: 1,
                ops_per_request: 1,
                key_space: 4,
                value_len: 4,
            };
            let mut cluster = PbftCluster::build(config);
            cluster.run_for(SimDuration::from_secs(10));
            assert_eq!(cluster.total_completed(), 1);
            cluster.sim.metrics().label_count("prepare")
        };
        let small = count_prepares(1); // n = 4
        let large = count_prepares(3); // n = 10
                                       // n² scaling: 100/16 ≈ 6x; allow generous slack.
        assert!(
            large >= small * 4,
            "prepare counts should scale quadratically: {small} vs {large}"
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut cluster = PbftCluster::build(PbftClusterConfig::small(1));
            cluster.run_for(SimDuration::from_secs(20));
            cluster.sim.events_processed()
        };
        assert_eq!(run(), run());
    }
}
