//! View changes under fire: crash the primary mid-run and watch the
//! dual-mode view change (§V-G) hand leadership over without losing a
//! single committed request.
//!
//! Run with: `cargo run --example view_change`

use sbft::core::{Behavior, Cluster, ClusterConfig, VariantFlags, Workload};
use sbft::sim::{SimDuration, SimTime};

fn run(label: &str, configure: impl FnOnce(&mut Cluster)) {
    let mut config = ClusterConfig::small(1, 0, VariantFlags::SBFT);
    config.clients = 2;
    config.workload = Workload::KvPut {
        requests: 25,
        ops_per_request: 1,
        key_space: 64,
        value_len: 16,
    };
    let mut cluster = Cluster::build(config);
    configure(&mut cluster);
    cluster.run_for(SimDuration::from_secs(90));
    assert_eq!(
        cluster.total_completed(),
        50,
        "{label}: every request commits"
    );
    cluster.assert_agreement();
    println!("== {label} ==");
    println!(
        "  completed requests     : {} / 50",
        cluster.total_completed()
    );
    println!(
        "  view changes started   : {}",
        cluster.sim.metrics().counter("view_changes_started")
    );
    println!(
        "  view changes completed : {}",
        cluster.sim.metrics().counter("view_changes_completed")
    );
    for r in 0..cluster.n {
        if cluster.sim.is_crashed(r) {
            println!("  replica {r}: crashed");
        } else {
            let rep = cluster.replica(r);
            println!(
                "  replica {r}: view={} executed={} state={}",
                rep.view(),
                rep.last_executed(),
                rep.state_digest().short()
            );
        }
    }
    println!("  safety                 : all live replicas agree\n");
}

fn main() {
    run("primary crash at t=20ms", |cluster| {
        cluster
            .sim
            .schedule_crash(0, SimTime::ZERO + SimDuration::from_millis(20));
    });

    run("equivocating primary", |cluster| {
        cluster.set_behavior(0, Behavior::EquivocatingPrimary);
        // Multi-request blocks give the primary something to split.
        // (Behaviour configured; the cluster detects the stall and
        // replaces the primary.)
    });

    run("mute primary (never proposes)", |cluster| {
        cluster.set_behavior(0, Behavior::MutePrimary);
    });
}
