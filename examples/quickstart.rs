//! Quickstart: a 4-replica SBFT cluster (Figure 1's n=4, f=1, c=0)
//! committing key-value operations through the fast path, with the
//! message flow printed at the end.
//!
//! Run with: `cargo run --example quickstart`

use sbft::core::{Cluster, ClusterConfig, VariantFlags, Workload};
use sbft::sim::SimDuration;

fn main() {
    // f = 1 Byzantine fault, c = 0 redundant servers → n = 4 replicas.
    let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
    config.clients = 1;
    config.workload = Workload::KvPut {
        requests: 3,
        ops_per_request: 1,
        key_space: 16,
        value_len: 8,
    };
    config.trace = true; // record every message for the flow diagram

    let mut cluster = Cluster::build(config);
    cluster.run_for(SimDuration::from_secs(5));

    println!("== SBFT quickstart: n=4, f=1, c=0 ==\n");
    println!("completed client requests : {}", cluster.total_completed());
    println!(
        "fast-path commits          : {}",
        cluster.sim.metrics().counter("fast_commits")
    );
    println!(
        "slow-path commits          : {}",
        cluster.sim.metrics().counter("slow_commits")
    );
    assert_eq!(cluster.total_completed(), 3, "every request commits");
    cluster.assert_agreement();
    println!("safety check               : all replicas agree\n");

    println!("message flow of the first request (Figure 1):");
    println!(
        "{:>10}  {:<5} {:<5} {:<22} {:>6}",
        "time", "from", "to", "type", "bytes"
    );
    for event in cluster.sim.metrics().trace().iter().take(24) {
        let name = |id: usize| {
            if id < cluster.n {
                format!("r{id}")
            } else {
                format!("c{}", id - cluster.n)
            }
        };
        println!(
            "{:>10}  {:<5} {:<5} {:<22} {:>6}",
            event.at.to_string(),
            name(event.from),
            name(event.to),
            event.label,
            event.bytes
        );
    }
    println!("\nper-message-type totals:");
    for (label, count, bytes) in cluster.sim.metrics().labels() {
        println!("  {label:<24} {count:>6} msgs {bytes:>10} bytes");
    }
}
