//! TCP cluster: the same 4-replica SBFT deployment as
//! `examples/quickstart.rs`, but over real loopback sockets instead of
//! the simulator — one thread per node, OS-picked ports, actual bytes on
//! actual TCP connections.
//!
//! Run with: `cargo run --example tcp_cluster`

use std::time::{Duration, Instant};

use sbft::core::{ClientNode, ReplicaNode};
use sbft::deploy::{ClientWorkload, LoopbackCluster};
use sbft::sim::SampleStats;

fn main() {
    // f = 1 Byzantine fault, c = 0 redundant servers → n = 4 replicas,
    // plus one closed-loop client. The cluster binds port 0 everywhere
    // so the OS picks free ports, then writes the cluster config from
    // what it chose — exactly the file a real deployment would
    // distribute.
    let mut cluster = LoopbackCluster::start(1, 0, 42, 1, None, "").expect("cluster boots");
    println!("== SBFT over TCP: n=4, f=1, c=0 ==\n");
    println!(
        "cluster config (what you would put in cluster.conf):\n{}",
        cluster.config()
    );

    let workload = ClientWorkload {
        requests: 50,
        ..ClientWorkload::default()
    };
    let mut client = cluster.client(0, &workload).expect("client");
    let started = Instant::now();
    let finished = client.run_until(Duration::from_secs(60), Duration::from_millis(20), |rt| {
        rt.node_as::<ClientNode>().expect("client").completed >= 50
    });
    let elapsed = started.elapsed().as_secs_f64();

    let node = client.node_as::<ClientNode>().expect("client");
    assert!(finished, "workload did not complete");
    println!(
        "committed {} requests in {elapsed:.2}s = {:.1} req/s over real TCP",
        node.completed,
        node.completed as f64 / elapsed
    );
    if let Some(stats) = SampleStats::from_samples(&node.latencies_ms) {
        println!(
            "request latency ms: mean {:.2} median {:.2} p99 {:.2}",
            stats.mean, stats.median, stats.p99
        );
    }
    let t = client.transport().control().stats();
    println!(
        "client socket traffic: {} frames / {} bytes sent, {} frames / {} bytes received\n",
        t.frames_sent, t.bytes_sent, t.frames_received, t.bytes_received
    );

    println!("per-replica outcome:");
    let outcomes = cluster
        .stop(|_, runtime| {
            let node = runtime.node_as::<ReplicaNode>().expect("replica node");
            (
                node.last_executed().get(),
                runtime.metrics().counter("fast_commits"),
            )
        })
        .expect("replicas stop");
    for (r, (executed, fast)) in outcomes.into_iter().enumerate() {
        println!("  replica {r}: executed through seq {executed}, {fast} fast-path commits");
    }
    println!(
        "\nsame ReplicaNode/ClientNode state machines as the simulator — only the backend changed."
    );
}
