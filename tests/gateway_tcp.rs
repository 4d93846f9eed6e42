//! End-to-end tests for the gateway's real-socket session path: logical
//! client sessions multiplexed over the gateway's single connection per
//! replica, with replies alias-routed back through that connection.
//!
//! This is the half the simulator cannot exercise — the sim's network
//! addresses every node directly, so only TCP proves that a replica can
//! answer a session it has no socket for, and that the mux demultiplexes
//! and verifies those replies (π signature + execution proof) at scale.

use std::time::Duration;

use sbft::core::{invariant_violation, ReplicaNode, ReplicaSnapshot};
use sbft::deploy::LoopbackCluster;
use sbft::gateway::{AdmissionConfig, OpenLoopConfig, OpenLoopDriver};

/// Boots `3f + 1` replicas and a gateway port carrying `sessions`
/// logical clients (no standalone clients).
fn boot(f: usize, sessions: usize, seed: u64) -> LoopbackCluster {
    LoopbackCluster::start(f, 0, seed, 0, Some(sessions), "").expect("cluster boots")
}

/// Stops the replicas and checks the cross-cutting safety invariants
/// over their final state; returns the snapshots.
fn stop_and_check(cluster: LoopbackCluster) -> Vec<ReplicaSnapshot> {
    let snapshots = cluster
        .stop(|r, runtime| {
            ReplicaSnapshot::of(runtime.node_as::<ReplicaNode>().expect("replica node"), r)
        })
        .expect("replicas stop");
    assert_eq!(invariant_violation(&snapshots), None);
    snapshots
}

/// Acceptance: hundreds of logical sessions flow through one gateway
/// process — session tickets registered once against the memoized key
/// cache, requests signed and admitted at the gateway, replies
/// alias-routed back and verified by the mux — and the cluster commits
/// them exactly once.
#[test]
fn sessions_commit_through_the_gateway_over_tcp() {
    const TARGET: u64 = 150;
    let mut cluster = boot(1, 256, 0x6a7e);
    let workload = OpenLoopConfig {
        arrivals_per_sec: 600,
        ..OpenLoopConfig::default()
    };
    let mut gateway = cluster
        .gateway(AdmissionConfig::default(), workload)
        .expect("gateway boots");
    let finished = gateway.run_until(Duration::from_secs(60), Duration::from_millis(20), |rt| {
        rt.node_as::<OpenLoopDriver>()
            .expect("driver")
            .stats()
            .completed
            >= TARGET
    });
    let driver = gateway.node_as::<OpenLoopDriver>().expect("driver");
    let stats = driver.stats();
    assert!(
        finished,
        "only {}/{TARGET} session requests completed (offered {}, shed {}, timed out {})",
        stats.completed, stats.offered, stats.shed, stats.timed_out
    );
    // Every completion was admission-tracked and mux-verified.
    let counters = driver.core().counters();
    assert!(counters.admitted >= stats.completed);
    assert_eq!(driver.mux().completed, stats.completed);
    assert_eq!(gateway.decode_errors(), 0);

    assert!(
        stop_and_check(cluster).iter().all(|s| s.last_executed >= 1),
        "every replica must have executed session requests"
    );
}

/// Overload behavior on the session path: a deliberately tiny admission
/// budget under a high offered rate must shed at the front door while
/// the admitted trickle keeps completing — graceful degradation, not
/// silent collapse.
#[test]
fn overloaded_gateway_sheds_while_admitted_sessions_complete() {
    let mut cluster = boot(1, 64, 0x51ed);
    let workload = OpenLoopConfig {
        arrivals_per_sec: 2_000,
        ..OpenLoopConfig::default()
    };
    let admission = AdmissionConfig {
        max_in_flight: 8,
        resume_at: 4,
        retry_after_ms: 10,
        ..AdmissionConfig::default()
    };
    let mut gateway = cluster.gateway(admission, workload).expect("gateway boots");
    let finished = gateway.run_until(Duration::from_secs(60), Duration::from_millis(20), |rt| {
        let stats = rt.node_as::<OpenLoopDriver>().expect("driver").stats();
        stats.completed >= 20 && stats.shed > 0
    });
    let stats = gateway.node_as::<OpenLoopDriver>().expect("driver").stats();
    assert!(
        finished,
        "overloaded gateway: completed {}, shed {} (offered {})",
        stats.completed, stats.shed, stats.offered
    );
    stop_and_check(cluster);
}
