//! A geo-replicated WAN deployment, scaled-down by default and full
//! paper-scale (209 replicas, f=64, c=8, 15 world regions) with
//! `--paper-scale`.
//!
//! Run with: `cargo run --release --example wan_deployment [-- --paper-scale]`

use sbft::core::{Cluster, ClusterConfig, VariantFlags, Workload};
use sbft::crypto::CryptoCostModel;
use sbft::sim::{SimDuration, Topology};

fn main() {
    let paper_scale = std::env::args().any(|a| a == "--paper-scale");
    // Default: f=8, c=1 → n=27. Paper scale: f=64, c=8 → n=209.
    let (f, c, clients, requests) = if paper_scale {
        (64, 8, 32, 20)
    } else {
        (8, 1, 16, 20)
    };

    let mut config = ClusterConfig::small(f, c, VariantFlags::SBFT);
    config.topology = Topology::world();
    config.machines_per_region = 1;
    config.clients = clients;
    config.workload = Workload::KvPut {
        requests,
        ops_per_request: 64, // batching mode (§IX)
        key_space: 100_000,
        value_len: 16,
    };
    config.cost = CryptoCostModel::default();
    config.client_retry = SimDuration::from_secs(8);
    config.protocol.fast_path_timeout = SimDuration::from_millis(500);
    config.protocol.collector_stagger = SimDuration::from_millis(150);
    config.protocol.view_timeout = SimDuration::from_secs(15);

    let n = config.protocol.n();
    println!("== world-scale WAN deployment ==");
    println!("replicas: {n} (f={f}, c={c}), clients: {clients}, 15 regions\n");

    let mut cluster = Cluster::build(config);
    let started = std::time::Instant::now();
    cluster.run_for(SimDuration::from_secs(120));
    let wall = started.elapsed();

    let completed = cluster.total_completed();
    let sim_seconds = cluster.sim.now().as_secs_f64();
    let stats = cluster.sim.metrics().sample_stats("latency_ms");
    assert_eq!(
        completed,
        (clients * requests) as u64,
        "every request commits"
    );
    cluster.assert_agreement();

    println!(
        "completed requests        : {completed} / {}",
        clients * requests
    );
    println!(
        "throughput (requests/sec) : {:.1}",
        completed as f64 / sim_seconds.min(120.0)
    );
    if let Some(stats) = stats {
        println!(
            "latency median / p99 (ms) : {:.0} / {:.0}",
            stats.median, stats.p99
        );
    }
    println!(
        "fast / slow path commits  : {} / {}",
        cluster.sim.metrics().counter("fast_commits"),
        cluster.sim.metrics().counter("slow_commits")
    );
    println!(
        "total messages / bytes    : {} / {:.1} MB",
        cluster.sim.metrics().messages_sent(),
        cluster.sim.metrics().bytes_sent() as f64 / 1e6
    );
    println!("safety                    : all replicas agree");
    println!("\n(simulated 2 minutes in {wall:.1?} wall-clock)");
}
