//! Integration tests for the real TCP transport: the same `ReplicaNode`
//! and `ClientNode` state machines that power the simulator tests, driven
//! over real loopback sockets by `sbft_transport::NodeRuntime`.
//!
//! One OS thread per node, as a real single-machine deployment would run
//! one process per node. Ports are chosen by the OS (bind to port 0, then
//! hand the listeners to the transports) so parallel test runs never
//! collide.

use std::time::{Duration, Instant};

use sbft::core::{
    invariant_violation, ClientNode, ClientRequest, KeyMaterial, ReplicaNode, ReplicaSnapshot,
    SbftMsg,
};
use sbft::deploy::{
    bind_loopback, loopback_config, protocol_for, replica_runtime, ClientWorkload, LoopbackCluster,
};
use sbft::transport::{ClusterSpec, NodeRuntime, TcpTransport};
use sbft::types::ClientId;
use sbft::wire::Wire;

/// Boots a 4-replica cluster (f = 1, c = 0) with one client port.
/// `verify_threads` / `exec_threads` are the pipeline widths: 1 keeps
/// inbound checks and execution on the node thread, `> 1` enables the
/// respective worker pool inside every replica runtime.
fn boot(seed: u64, verify_threads: usize, exec_threads: usize) -> LoopbackCluster {
    let directives = format!("verify_threads {verify_threads}\nexec_threads {exec_threads}\n");
    LoopbackCluster::start(1, 0, seed, 1, None, &directives).expect("cluster boots")
}

fn completed(client: &NodeRuntime<SbftMsg>) -> u64 {
    client
        .node_as::<ClientNode>()
        .expect("client node")
        .completed
}

/// Polls `client` until it has completed `target` requests, failing the
/// test if that takes longer than `within`.
fn run_until_completed(client: &mut NodeRuntime<SbftMsg>, target: u64, within: Duration) {
    let finished = client.run_until(within, Duration::from_millis(20), |rt| {
        completed(rt) >= target
    });
    assert!(
        finished,
        "only {}/{target} requests committed",
        completed(client)
    );
}

/// Boots client 0 and drives `workload` to completion.
fn commit_workload(
    cluster: &mut LoopbackCluster,
    workload: &ClientWorkload,
) -> NodeRuntime<SbftMsg> {
    let mut client = cluster.client(0, workload).expect("client boots");
    run_until_completed(
        &mut client,
        workload.requests as u64,
        Duration::from_secs(60),
    );
    assert_eq!(client.decode_errors(), 0);
    client
}

/// Stops the replicas, checks the cross-cutting safety invariants over
/// their final state (the simulator's `Cluster::assert_agreement`), and
/// returns each replica's snapshot with its fast-commit count.
fn stop_and_check(cluster: LoopbackCluster) -> Vec<(ReplicaSnapshot, u64)> {
    let exits = cluster
        .stop(|r, runtime| {
            let node = runtime.node_as::<ReplicaNode>().expect("replica node");
            (
                ReplicaSnapshot::of(node, r),
                runtime.metrics().counter("fast_commits"),
            )
        })
        .expect("replicas stop");
    let snapshots: Vec<ReplicaSnapshot> = exits.iter().map(|(s, _)| s.clone()).collect();
    assert_eq!(invariant_violation(&snapshots), None);
    exits
}

/// Every replica executed at least one block.
fn all_executed(exits: &[(ReplicaSnapshot, u64)]) -> bool {
    exits.iter().all(|(s, _)| s.last_executed >= 1)
}

/// Acceptance: a 4-replica TCP loopback cluster commits client requests
/// end-to-end on the fast path, with the sim's `ReplicaNode`/`ClientNode`
/// unmodified.
#[test]
fn four_replica_tcp_cluster_commits_fast_path() {
    let mut cluster = boot(0x7c9, 1, 1);
    let workload = ClientWorkload {
        requests: 20,
        ..ClientWorkload::default()
    };
    let client = commit_workload(&mut cluster, &workload);

    // The client's per-label accounting proves the single-ack path ran:
    // execute-acks arrive, no PBFT-style replies were needed.
    assert!(client.metrics().label_count("request") >= 20);

    let exits = stop_and_check(cluster);
    let fast: u64 = exits.iter().map(|(_, fast)| fast).sum();
    assert!(fast > 0, "fast path never engaged");
    assert!(
        all_executed(&exits),
        "every replica must have executed something"
    );
}

/// Acceptance: the same cluster with the parallel verification pipeline
/// enabled (3 workers per replica) commits the full workload — decode
/// and stateless crypto run on the pool, the replicas consume
/// pre-verified envelopes in per-peer FIFO order, and agreement holds.
#[test]
fn four_replica_cluster_commits_with_verify_pipeline() {
    let mut cluster = boot(0x91e3, 3, 1);
    let workload = ClientWorkload {
        requests: 30,
        ..ClientWorkload::default()
    };
    commit_workload(&mut cluster, &workload);
    assert!(
        all_executed(&stop_and_check(cluster)),
        "every replica must have executed through the pipeline"
    );
}

/// Acceptance: the cluster with block execution offloaded to a dedicated
/// executor thread (`exec_threads 2`) commits the full workload on the
/// direct inbound path — the node thread hands committed blocks to the
/// executor, parks in its event loop, and is woken by the executor's
/// self-addressed `ExecuteReady` frame; replies still go out in order
/// and agreement holds.
#[test]
fn four_replica_cluster_commits_with_execution_offload() {
    let mut cluster = boot(0x5ec0, 1, 2);
    let workload = ClientWorkload {
        requests: 30,
        ops_per_request: 4,
        ..ClientWorkload::default()
    };
    commit_workload(&mut cluster, &workload);
    assert!(
        all_executed(&stop_and_check(cluster)),
        "every replica must have executed through the exec pool"
    );
}

/// Acceptance: both pipelines at once — inbound frames decode and
/// pre-verify on the verify pool (σ/τ shares recorded against published
/// slot digests), committed blocks execute on the executor thread, and
/// the `ExecuteReady` wake flows through the verification pipeline like
/// any other frame. The node thread is left doing only protocol
/// bookkeeping.
#[test]
fn four_replica_cluster_commits_with_both_pipelines() {
    let mut cluster = boot(0xb07f, 2, 2);
    let workload = ClientWorkload {
        requests: 30,
        ..ClientWorkload::default()
    };
    commit_workload(&mut cluster, &workload);
    assert!(
        all_executed(&stop_and_check(cluster)),
        "every replica must have executed with both pipelines active"
    );
}

/// Acceptance: killing every connection of one replica mid-run only dents
/// throughput — the transport reconnects with backoff and liveness
/// resumes until the full workload commits.
#[test]
fn severed_replica_reconnects_and_liveness_resumes() {
    const REQUESTS: u64 = 40;
    let mut cluster = boot(0xdead, 1, 1);
    let workload = ClientWorkload {
        requests: REQUESTS as usize,
        ..ClientWorkload::default()
    };
    let mut client = cluster.client(0, &workload).expect("client boots");

    // Phase 1: commit some of the workload on a healthy cluster.
    run_until_completed(&mut client, 10, Duration::from_secs(30));

    // Phase 2: sever every socket touching replica 1 (every such socket
    // is either dialed by 1 or accepted by 1, so its registry sees all
    // of them). Both directions of 4 node pairs go down at once.
    let victim = cluster.control(1);
    let connects_before = victim.stats().connects;
    let total = cluster.spec().n() + 1;
    let severed: usize = (0..total)
        .filter(|peer| *peer != 1)
        .map(|peer| victim.sever(peer))
        .sum();
    assert!(severed > 0, "no sockets were severed");

    // Phase 3: the remaining workload must still commit.
    run_until_completed(&mut client, REQUESTS, Duration::from_secs(60));
    assert!(
        victim.stats().connects > connects_before,
        "replica 1 must have re-dialed its peers"
    );
    stop_and_check(cluster);
}

/// The trust boundary at verify widths 1 (node thread) and 2 (workers):
/// a backup fed one malformed frame and one forged request counts one of
/// each on its registry and never acts on either — the only request it
/// forwards to the primary is the genuine one sent after them. The
/// primary and the client are bare transports driven by the test.
#[test]
fn replica_counts_and_drops_malformed_and_forged_frames_at_every_width() {
    for verify_threads in [1, 2] {
        let (listeners, addrs) = bind_loopback(5).expect("bind loopback");
        let text = format!(
            "verify_threads {verify_threads}\n{}",
            loopback_config(1, 0, 0xb0d, &addrs[..4], &addrs[4..])
        );
        let spec = ClusterSpec::parse(&text).expect("generated config parses");
        let mut listeners = listeners.into_iter();
        let primary =
            TcpTransport::with_listener(spec.transport_config(0), listeners.next().unwrap())
                .expect("primary transport");
        let mut backup = replica_runtime(&spec, 1, listeners.next()).expect("replica boots");
        let client_listener = listeners.nth(2).expect("client listener");
        let client = TcpTransport::with_listener(
            spec.transport_config(spec.client_node(0)),
            client_listener,
        )
        .expect("client transport");

        let keys = KeyMaterial::generate(&protocol_for(&spec), spec.seed);
        let id = ClientId::new(0);
        let mut forged =
            ClientRequest::signed(id, 1, b"put k v".to_vec(), &keys.public.client_keys(id));
        forged.op = b"put k EVIL".to_vec();
        let genuine =
            ClientRequest::signed(id, 2, b"put k v".to_vec(), &keys.public.client_keys(id));
        client.send(1, vec![0xff, 0x00, 0x13]);
        client.send_msg(1, &SbftMsg::Request(forged));
        client.send_msg(1, &SbftMsg::Request(genuine.clone()));

        let mut forwarded = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        while forwarded.is_empty() && Instant::now() < deadline {
            backup.poll(Duration::from_millis(10));
            while let Some((_, payload)) = primary.try_recv() {
                if let Ok(SbftMsg::Request(request)) = SbftMsg::from_wire_bytes(&payload) {
                    forwarded.push(request);
                }
            }
        }
        assert_eq!(forwarded, vec![genuine], "width {verify_threads}");
        let registry = backup.registry();
        assert_eq!(registry.counter("sbft_verify_decode_errors").get(), 1);
        assert_eq!(registry.counter("sbft_verify_rejects").get(), 1);
        assert_eq!(backup.decode_errors(), 1);
        backup.transport().control().shutdown();
    }
}
