//! Benchmark of one end-to-end consensus round on both stacks:
//! wall-clock cost of simulating a commit (not simulated latency).

use std::hint::black_box;

use sbft_bench::micro::Bench;
use sbft_core::{Cluster, ClusterConfig, VariantFlags, Workload};
use sbft_pbft::{PbftCluster, PbftClusterConfig};
use sbft_sim::SimDuration;

fn main() {
    let mut c = Bench::from_args();
    c.bench_function("sbft_commit_round_n4", |b| {
        b.iter(|| {
            let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
            config.clients = 1;
            config.workload = Workload::KvPut {
                requests: 1,
                ops_per_request: 1,
                key_space: 4,
                value_len: 8,
            };
            let mut cluster = Cluster::build(config);
            cluster.run_for(SimDuration::from_secs(2));
            assert_eq!(cluster.total_completed(), 1);
            black_box(cluster.sim.events_processed())
        })
    });

    c.bench_function("pbft_commit_round_n4", |b| {
        b.iter(|| {
            let mut config = PbftClusterConfig::small(1);
            config.clients = 1;
            config.workload = Workload::KvPut {
                requests: 1,
                ops_per_request: 1,
                key_space: 4,
                value_len: 8,
            };
            let mut cluster = PbftCluster::build(config);
            cluster.run_for(SimDuration::from_secs(2));
            assert_eq!(cluster.total_completed(), 1);
            black_box(cluster.sim.events_processed())
        })
    });
}
