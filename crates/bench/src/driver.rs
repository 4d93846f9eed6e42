//! Builds and runs one benchmark configuration on either protocol stack,
//! returning the measurements shared by all figures.

use sbft_core::{Cluster, ClusterConfig, ProtocolConfig, TimerBundle, VariantFlags, Workload};
use sbft_crypto::CryptoCostModel;
use sbft_evm::{batch_trace, generate_eth_trace, EthTraceConfig, EvmService};
use sbft_pbft::{PbftCluster, PbftClusterConfig, PbftConfig};
use sbft_sim::{
    NetworkConfig, SampleStats, SimDuration, SimMessage, SimTime, Simulation, Topology,
};
use sbft_statedb::{KvService, RawOp, Service};

/// The five protocol variants of the §IX ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The scale-optimized PBFT baseline.
    Pbft,
    /// Ingredient 1: linear PBFT (collectors + threshold signatures).
    LinearPbft,
    /// Ingredients 1+2: linear PBFT with the fast path.
    FastPath,
    /// Ingredients 1+2+3: full SBFT with c = 0.
    SbftC0,
    /// All four ingredients: SBFT with redundant servers (c = f/8,
    /// the paper's heuristic; c = 8 at paper scale).
    SbftRedundant,
}

impl Variant {
    /// All five, in the paper's order.
    pub const ALL: [Variant; 5] = [
        Variant::Pbft,
        Variant::LinearPbft,
        Variant::FastPath,
        Variant::SbftC0,
        Variant::SbftRedundant,
    ];

    /// Display name matching the figures' legend.
    pub fn name(&self) -> &'static str {
        match self {
            Variant::Pbft => "PBFT",
            Variant::LinearPbft => "Linear-PBFT",
            Variant::FastPath => "Linear-PBFT+Fast",
            Variant::SbftC0 => "SBFT (c=0)",
            Variant::SbftRedundant => "SBFT (c=f/8)",
        }
    }

    /// The redundant-server parameter for a given `f`.
    pub fn c_for(&self, f: usize) -> usize {
        match self {
            Variant::SbftRedundant => (f / 8).max(1),
            _ => 0,
        }
    }

    fn flags(&self) -> VariantFlags {
        match self {
            Variant::Pbft => VariantFlags::LINEAR_PBFT, // unused
            Variant::LinearPbft => VariantFlags::LINEAR_PBFT,
            Variant::FastPath => VariantFlags::FAST_PATH,
            Variant::SbftC0 | Variant::SbftRedundant => VariantFlags::SBFT,
        }
    }
}

/// Deployment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// f = 4, two client counts, short windows: the fastest
    /// shape-preserving sweep (`--scale quick`).
    Quick,
    /// f = 4: minutes of wall-clock for the full grids (default).
    Small,
    /// f = 16: tens of minutes.
    Medium,
    /// f = 64 (n = 193 / 209): the paper's deployment.
    Paper,
}

impl Scale {
    /// Parses `--scale small|medium|paper` from argv (defaults to small).
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        for pair in args.windows(2) {
            if pair[0] == "--scale" {
                return match pair[1].as_str() {
                    "paper" => Scale::Paper,
                    "medium" => Scale::Medium,
                    "quick" => Scale::Quick,
                    _ => Scale::Small,
                };
            }
        }
        if args.iter().any(|a| a == "--paper") {
            return Scale::Paper;
        }
        Scale::Small
    }

    /// The fault threshold `f`.
    pub fn f(&self) -> usize {
        match self {
            Scale::Quick | Scale::Small => 4,
            Scale::Medium => 16,
            Scale::Paper => 64,
        }
    }

    /// Client counts for the x-axis of Figures 2/3.
    pub fn client_counts(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![4, 16],
            Scale::Small => vec![4, 16, 32],
            Scale::Medium => vec![4, 32, 64, 128],
            Scale::Paper => vec![4, 32, 64, 128, 192, 256],
        }
    }

    /// Failure counts for the columns of Figures 2/3 (`{0, f/8, f}`,
    /// matching the paper's `{0, 8, 64}` at `f = 64`).
    pub fn failure_counts(&self) -> Vec<usize> {
        let f = self.f();
        vec![0, (f / 8).max(1), f]
    }

    /// Simulated measurement window.
    pub fn measure(&self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_secs(6),
            _ => SimDuration::from_secs(8),
        }
    }

    /// Simulated warm-up before measuring.
    pub fn warmup(&self) -> SimDuration {
        SimDuration::from_secs(2)
    }
}

/// Which deployment topology to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// 5-region continent WAN (the KV benchmarks, §IX).
    Continent,
    /// 15-region world WAN.
    World,
    /// Single-site LAN.
    Lan,
}

impl TopologyKind {
    fn build(&self) -> Topology {
        match self {
            TopologyKind::Continent => Topology::continent(),
            TopologyKind::World => Topology::world(),
            TopologyKind::Lan => Topology::lan(),
        }
    }
}

/// Service backend selection.
#[derive(Debug, Clone)]
pub enum ServiceKind {
    /// The key-value store with random-put workload.
    Kv {
        /// Operations per client request (64 = batching mode, 1 = none).
        ops_per_request: usize,
    },
    /// The EVM running an Ethereum-like trace pre-batched per client.
    Eth {
        /// Per-client request lists (each request = one 12 kB batch).
        batches_per_client: Vec<Vec<RawOp>>,
        /// Average transactions per request, for throughput conversion.
        txs_per_request: f64,
    },
}

/// One benchmark point.
#[derive(Clone)]
pub struct ExperimentSpec {
    /// Protocol variant.
    pub variant: Variant,
    /// Fault threshold.
    pub f: usize,
    /// Number of clients.
    pub clients: usize,
    /// Crashed backups at t = 0.
    pub failures: usize,
    /// Straggler backups (heavily delayed links) at t = 0.
    pub stragglers: usize,
    /// Topology.
    pub topology: TopologyKind,
    /// VMs per machine and region (packing, E7).
    pub machines_per_region: usize,
    /// Service + workload.
    pub service: ServiceKind,
    /// Warm-up (excluded from measurement).
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Seed.
    pub seed: u64,
}

impl ExperimentSpec {
    /// A Figure-2/3 style KV point.
    pub fn kv(variant: Variant, scale: Scale, clients: usize, ops: usize, failures: usize) -> Self {
        ExperimentSpec {
            variant,
            f: scale.f(),
            clients,
            failures,
            stragglers: 0,
            topology: TopologyKind::Continent,
            machines_per_region: 2,
            service: ServiceKind::Kv {
                ops_per_request: ops,
            },
            warmup: scale.warmup(),
            measure: scale.measure(),
            seed: 0x5bf7,
        }
    }
}

/// Measurements from one run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Variant display name.
    pub variant: &'static str,
    /// Cluster size.
    pub n: usize,
    /// Clients.
    pub clients: usize,
    /// Completed requests inside the measurement window.
    pub completed_requests: u64,
    /// Operations (or transactions) per second.
    pub throughput_ops: f64,
    /// Requests per second.
    pub throughput_requests: f64,
    /// Latency over the measurement window.
    pub latency: Option<SampleStats>,
    /// Messages per committed request (linearity measure).
    pub msgs_per_request: f64,
    /// Bytes per committed request.
    pub bytes_per_request: f64,
    /// Fraction of blocks committed on the fast path.
    pub fast_path_fraction: f64,
}

/// The round-trip-scaled timers of a topology (`None` keeps the
/// protocol defaults).
fn timers(topology: TopologyKind) -> Option<TimerBundle> {
    match topology {
        TopologyKind::World => Some(TimerBundle {
            fast_path_timeout: SimDuration::from_millis(700),
            collector_stagger: SimDuration::from_millis(250),
            view_timeout: SimDuration::from_secs(20),
            batch_delay: SimDuration::from_millis(20),
        }),
        TopologyKind::Continent => Some(TimerBundle::CONTINENTAL),
        TopologyKind::Lan => None,
    }
}

/// Runs one experiment point.
pub fn run_experiment(spec: &ExperimentSpec) -> ExperimentResult {
    match spec.variant {
        Variant::Pbft => run_pbft(spec),
        _ => run_sbft(spec),
    }
}

/// Operations (or transactions) per request, and the clients' workload.
fn ops_and_workload(spec: &ExperimentSpec) -> (f64, Workload) {
    match &spec.service {
        ServiceKind::Kv { ops_per_request } => (
            *ops_per_request as f64,
            Workload::KvPut {
                requests: usize::MAX / 2, // effectively unbounded; lazy
                ops_per_request: *ops_per_request,
                key_space: 1_000_000,
                value_len: 16,
            },
        ),
        ServiceKind::Eth {
            batches_per_client,
            txs_per_request,
        } => (
            *txs_per_request,
            Workload::Explicit(batches_per_client.clone()),
        ),
    }
}

fn client_retry(topology: TopologyKind) -> SimDuration {
    match topology {
        TopologyKind::World => SimDuration::from_millis(4_000),
        _ => SimDuration::from_millis(1_500),
    }
}

fn service_factory(service: &ServiceKind) -> Box<dyn Fn() -> Box<dyn Service>> {
    match service {
        ServiceKind::Eth { .. } => Box::new(|| Box::new(EvmService::new())),
        ServiceKind::Kv { .. } => Box::new(|| Box::new(KvService::new())),
    }
}

fn run_sbft(spec: &ExperimentSpec) -> ExperimentResult {
    let c = spec.variant.c_for(spec.f);
    let mut protocol = ProtocolConfig::new(spec.f, c, spec.variant.flags());
    if let Some(timers) = timers(spec.topology) {
        protocol.set_timers(timers);
    }
    let (ops_per_request, workload) = ops_and_workload(spec);
    let mut cluster = Cluster::build(ClusterConfig {
        protocol,
        clients: spec.clients,
        workload,
        topology: spec.topology.build(),
        machines_per_region: spec.machines_per_region,
        network: NetworkConfig::default(),
        cost: CryptoCostModel::default(),
        client_retry: client_retry(spec.topology),
        seed: spec.seed,
        trace: false,
        gateway: false,
        service_factory: service_factory(&spec.service),
    });
    let result = measure(spec, cluster.n, &mut cluster.sim, ops_per_request);
    cluster.assert_agreement();
    result
}

fn run_pbft(spec: &ExperimentSpec) -> ExperimentResult {
    let mut protocol = PbftConfig::new(spec.f);
    if let Some(timers) = timers(spec.topology) {
        protocol.view_timeout = timers.view_timeout;
        protocol.batch_delay = timers.batch_delay;
    }
    let (ops_per_request, workload) = ops_and_workload(spec);
    let mut cluster = PbftCluster::build(PbftClusterConfig {
        protocol,
        clients: spec.clients,
        workload,
        topology: spec.topology.build(),
        machines_per_region: spec.machines_per_region,
        network: NetworkConfig::default(),
        cost: CryptoCostModel::default(),
        client_retry: client_retry(spec.topology),
        seed: spec.seed,
        trace: false,
        service_factory: service_factory(&spec.service),
    });
    let result = measure(spec, cluster.n, &mut cluster.sim, ops_per_request);
    cluster.assert_agreement();
    result
}

/// Runs a built cluster of `n` replicas through one experiment point:
/// crashes `spec.failures` backups and slows the next `spec.stragglers`
/// at t = 0, warms up, then measures the window. PBFT commits count
/// neither as fast nor as slow, so its fast-path fraction reads 0.
fn measure<M: SimMessage>(
    spec: &ExperimentSpec,
    n: usize,
    sim: &mut Simulation<M>,
    ops_per_request: f64,
) -> ExperimentResult {
    for r in 1..=spec.failures {
        sim.schedule_crash(r, SimTime::ZERO);
    }
    for s in 0..spec.stragglers {
        let node = spec.failures + 1 + s;
        sim.network_mut()
            .set_node_extra_delay(node, SimDuration::from_millis(150));
    }
    sim.start();
    sim.run_for(spec.warmup);
    let warm_completed = sim.metrics().counter("client_completed");
    let warm_samples = sim.metrics().sample_snapshot("latency_ms");
    let warm_msgs = sim.metrics().messages_sent();
    let warm_bytes = sim.metrics().bytes_sent();
    sim.run_for(spec.measure);
    let metrics = sim.metrics();
    let completed = metrics.counter("client_completed") - warm_completed;
    let seconds = spec.measure.as_secs_f64();
    let samples = metrics.sample_snapshot("latency_ms").since(&warm_samples);
    let fast = metrics.counter("fast_commits") as f64;
    let slow = metrics.counter("slow_commits") as f64;
    ExperimentResult {
        variant: spec.variant.name(),
        n,
        clients: spec.clients,
        completed_requests: completed,
        throughput_ops: completed as f64 * ops_per_request / seconds,
        throughput_requests: completed as f64 / seconds,
        latency: SampleStats::from_sample_snapshot(&samples),
        msgs_per_request: delta_per(metrics.messages_sent() - warm_msgs, completed),
        bytes_per_request: delta_per(metrics.bytes_sent() - warm_bytes, completed),
        fast_path_fraction: if fast + slow > 0.0 {
            fast / (fast + slow)
        } else {
            0.0
        },
    }
}

fn delta_per(total: u64, completed: u64) -> f64 {
    if completed == 0 {
        0.0
    } else {
        total as f64 / completed as f64
    }
}

/// Builds the Ethereum-like workload: a trace of `transactions` txs split
/// into ~12 kB client batches (§IX), spread round-robin over `clients`.
pub fn eth_workload(transactions: usize, contracts: usize, clients: usize) -> ServiceKind {
    let trace = generate_eth_trace(&EthTraceConfig {
        transactions,
        contracts,
        accounts: (transactions / 50).max(100),
        gas_limit: 1_000_000,
        seed: 0xe7e7,
    });
    let batches = batch_trace(&trace, 12 * 1024);
    let txs_per_request = trace.len() as f64 / batches.len() as f64;
    let mut per_client: Vec<Vec<RawOp>> = vec![Vec::new(); clients];
    for (i, batch) in batches.into_iter().enumerate() {
        // One client request = one ~12 kB batch of ~50 transactions (§IX),
        // encoded as a Transaction::Batch service operation.
        let txs: Vec<sbft_evm::Transaction> = batch
            .iter()
            .filter_map(|raw| sbft_wire::Wire::from_wire_bytes(raw).ok())
            .collect();
        per_client[i % clients].push(sbft_wire::Wire::to_wire_bytes(
            &sbft_evm::Transaction::Batch(txs),
        ));
    }
    ServiceKind::Eth {
        batches_per_client: per_client,
        txs_per_request,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_metadata() {
        assert_eq!(Variant::ALL.len(), 5);
        assert_eq!(Variant::SbftRedundant.c_for(64), 8);
        assert_eq!(Variant::SbftRedundant.c_for(4), 1);
        assert_eq!(Variant::SbftC0.c_for(64), 0);
    }

    #[test]
    fn scale_presets() {
        assert_eq!(Scale::Paper.f(), 64);
        assert_eq!(Scale::Paper.failure_counts(), vec![0, 8, 64]);
        assert_eq!(Scale::Small.f(), 4);
    }

    #[test]
    fn tiny_experiment_runs_all_variants() {
        for variant in Variant::ALL {
            let mut spec = ExperimentSpec::kv(variant, Scale::Small, 4, 1, 0);
            spec.f = 1;
            spec.topology = TopologyKind::Lan;
            spec.warmup = SimDuration::from_millis(500);
            spec.measure = SimDuration::from_secs(2);
            let result = run_experiment(&spec);
            assert!(
                result.throughput_requests > 0.0,
                "{} made no progress",
                variant.name()
            );
            assert!(result.latency.is_some());
        }
    }

    #[test]
    fn eth_workload_splits_across_clients() {
        let service = eth_workload(500, 5, 4);
        let ServiceKind::Eth {
            batches_per_client,
            txs_per_request,
        } = service
        else {
            panic!("expected eth");
        };
        assert_eq!(batches_per_client.len(), 4);
        // Each request is one ~12 kB batch of many transactions.
        let requests: usize = batches_per_client.iter().map(Vec::len).sum();
        let mut txs = 0usize;
        for client in &batches_per_client {
            for request in client {
                let tx: sbft_evm::Transaction =
                    sbft_wire::Wire::from_wire_bytes(request).expect("batch decodes");
                match tx {
                    sbft_evm::Transaction::Batch(inner) => txs += inner.len(),
                    _ => txs += 1,
                }
            }
        }
        assert_eq!(txs, 500);
        assert!((txs_per_request - txs as f64 / requests as f64).abs() < 1.0);
        assert!(txs_per_request > 10.0, "batches should hold many txs");
    }
}
