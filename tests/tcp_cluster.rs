//! Integration tests for the real TCP transport: the same `ReplicaNode`
//! and `ClientNode` state machines that power the simulator tests, driven
//! over real loopback sockets by `sbft_transport::NodeRuntime`.
//!
//! One OS thread per node, as a real single-machine deployment would run
//! one process per node. Ports are chosen by the OS (bind to port 0, then
//! hand the listeners to the transports) so parallel test runs never
//! collide.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use sbft::core::{ClientNode, ClientRequest, KeyMaterial, ReplicaNode, SbftMsg};
use sbft::deploy::{
    client_runtime, loopback_config, protocol_for, replica_runtime, ClientWorkload,
};
use sbft::transport::{ClusterSpec, TcpTransport, TransportControl};
use sbft::types::{ClientId, Digest};
use sbft::wire::Wire;

/// What each replica thread reports when the run ends.
struct ReplicaReport {
    replica: usize,
    last_executed: u64,
    state_digest: Digest,
    fast_commits: u64,
    slow_commits: u64,
}

struct TcpCluster {
    spec: ClusterSpec,
    done: Arc<AtomicBool>,
    replica_controls: Vec<TransportControl>,
    replica_threads: Vec<thread::JoinHandle<ReplicaReport>>,
}

impl TcpCluster {
    /// Boots `n = 3f + 2c + 1` replica threads on OS-picked loopback
    /// ports, plus listeners for `clients` clients (returned for the
    /// caller to drive).
    fn boot(f: usize, c: usize, clients: usize, seed: u64) -> (TcpCluster, Vec<TcpListener>) {
        // `verify_threads 1` / `exec_threads 1` keep inbound checks and
        // execution on the node thread: these tests cover that path; the
        // worker pools have their own tests below.
        TcpCluster::boot_with_pipelines(f, c, clients, seed, 1, 1)
    }

    /// [`TcpCluster::boot`] with explicit verification- and
    /// execution-pipeline widths (`>1` enables the respective worker
    /// pool inside every replica runtime).
    fn boot_with_pipelines(
        f: usize,
        c: usize,
        clients: usize,
        seed: u64,
        verify_threads: usize,
        exec_threads: usize,
    ) -> (TcpCluster, Vec<TcpListener>) {
        let n = 3 * f + 2 * c + 1;
        let bind = |count: usize| -> (Vec<TcpListener>, Vec<String>) {
            let listeners: Vec<TcpListener> = (0..count)
                .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
                .collect();
            let addrs = listeners
                .iter()
                .map(|l| l.local_addr().expect("local addr").to_string())
                .collect();
            (listeners, addrs)
        };
        let (replica_listeners, replica_addrs) = bind(n);
        let (client_listeners, client_addrs) = bind(clients);
        let config_text = format!(
            "verify_threads {verify_threads}\nexec_threads {exec_threads}\n{}",
            loopback_config(f, c, seed, &replica_addrs, &client_addrs)
        );
        let spec = ClusterSpec::parse(&config_text).expect("generated config parses");

        let done = Arc::new(AtomicBool::new(false));
        let (control_tx, control_rx) = mpsc::channel();
        let mut replica_threads = Vec::new();
        for (r, listener) in replica_listeners.into_iter().enumerate() {
            let spec = spec.clone();
            let done = Arc::clone(&done);
            let control_tx = control_tx.clone();
            replica_threads.push(
                thread::Builder::new()
                    .name(format!("replica-{r}"))
                    .spawn(move || {
                        let mut runtime =
                            replica_runtime(&spec, r, Some(listener)).expect("replica boots");
                        control_tx
                            .send((r, runtime.transport().control()))
                            .expect("report control");
                        while !done.load(Ordering::Acquire) {
                            runtime.poll(Duration::from_millis(20));
                        }
                        let node = runtime.node_as::<ReplicaNode>().expect("replica node");
                        ReplicaReport {
                            replica: r,
                            last_executed: node.last_executed().get(),
                            state_digest: node.state_digest(),
                            fast_commits: runtime.metrics().counter("fast_commits"),
                            slow_commits: runtime.metrics().counter("slow_commits"),
                        }
                    })
                    .expect("spawn replica thread"),
            );
        }
        let mut controls: Vec<Option<TransportControl>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (r, control) = control_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("every replica reports its control");
            controls[r] = Some(control);
        }
        let cluster = TcpCluster {
            spec,
            done,
            replica_controls: controls.into_iter().map(|c| c.expect("control")).collect(),
            replica_threads,
        };
        (cluster, client_listeners)
    }

    /// Stops the replica threads and collects their reports.
    fn stop(self) -> Vec<ReplicaReport> {
        self.done.store(true, Ordering::Release);
        self.replica_threads
            .into_iter()
            .map(|t| t.join().expect("replica thread exits cleanly"))
            .collect()
    }
}

/// Checks inter-replica safety the way the simulator's
/// `Cluster::assert_agreement` does: replicas that executed equally far
/// must have identical state digests.
fn assert_agreement(reports: &[ReplicaReport]) {
    for a in reports {
        for b in reports {
            if a.replica < b.replica && a.last_executed == b.last_executed && a.last_executed > 0 {
                assert_eq!(
                    a.state_digest, b.state_digest,
                    "SAFETY: replicas {} and {} diverge at seq {}",
                    a.replica, b.replica, a.last_executed
                );
            }
        }
    }
}

/// Acceptance: a 4-replica TCP loopback cluster commits client requests
/// end-to-end on the fast path, with the sim's `ReplicaNode`/`ClientNode`
/// unmodified.
#[test]
fn four_replica_tcp_cluster_commits_fast_path() {
    const REQUESTS: usize = 20;
    let (cluster, mut client_listeners) = TcpCluster::boot(1, 0, 1, 0x7c9);
    let workload = ClientWorkload {
        requests: REQUESTS,
        ..ClientWorkload::default()
    };
    let mut client = client_runtime(
        &cluster.spec,
        0,
        &workload,
        Some(client_listeners.remove(0)),
    )
    .expect("client boots");
    let finished = client.run_until(Duration::from_secs(60), Duration::from_millis(20), |rt| {
        rt.node_as::<ClientNode>().expect("client node").completed >= REQUESTS as u64
    });
    let completed = client
        .node_as::<ClientNode>()
        .expect("client node")
        .completed;
    assert!(finished, "only {completed}/{REQUESTS} requests committed");

    // The client's per-label accounting proves the single-ack path ran:
    // execute-acks arrive, no PBFT-style replies were needed.
    assert!(client.metrics().label_count("request") >= REQUESTS as u64);
    assert_eq!(client.decode_errors(), 0);

    let reports = cluster.stop();
    assert_agreement(&reports);
    let fast: u64 = reports.iter().map(|r| r.fast_commits).sum();
    let slow: u64 = reports.iter().map(|r| r.slow_commits).sum();
    assert!(fast > 0, "fast path never engaged (slow: {slow})");
    assert!(
        reports.iter().all(|r| r.last_executed >= 1),
        "every replica must have executed something"
    );
}

/// Acceptance: the same cluster with the parallel verification pipeline
/// enabled (3 workers per replica) commits the full workload — decode
/// and stateless crypto run on the pool, the replicas consume
/// pre-verified envelopes in per-peer FIFO order, and agreement holds.
#[test]
fn four_replica_cluster_commits_with_verify_pipeline() {
    const REQUESTS: usize = 30;
    let (cluster, mut client_listeners) = TcpCluster::boot_with_pipelines(1, 0, 1, 0x91e3, 3, 1);
    let workload = ClientWorkload {
        requests: REQUESTS,
        ..ClientWorkload::default()
    };
    let mut client = client_runtime(
        &cluster.spec,
        0,
        &workload,
        Some(client_listeners.remove(0)),
    )
    .expect("client boots");
    let finished = client.run_until(Duration::from_secs(60), Duration::from_millis(20), |rt| {
        rt.node_as::<ClientNode>().expect("client node").completed >= REQUESTS as u64
    });
    let completed = client
        .node_as::<ClientNode>()
        .expect("client node")
        .completed;
    assert!(finished, "only {completed}/{REQUESTS} requests committed");
    assert_eq!(client.decode_errors(), 0);

    let reports = cluster.stop();
    assert_agreement(&reports);
    assert!(
        reports.iter().all(|r| r.last_executed >= 1),
        "every replica must have executed through the pipeline"
    );
}

/// Acceptance: the cluster with block execution offloaded to a dedicated
/// executor thread (2 wave workers) commits the full workload on the
/// direct inbound path — the node thread hands committed blocks to the
/// pool, parks in `recv_timeout`, and is woken by the executor's
/// self-addressed `ExecuteReady` frame; replies still go out in order
/// and agreement holds.
#[test]
fn four_replica_cluster_commits_with_execution_offload() {
    const REQUESTS: usize = 30;
    let (cluster, mut client_listeners) = TcpCluster::boot_with_pipelines(1, 0, 1, 0x5ec0, 1, 2);
    let workload = ClientWorkload {
        requests: REQUESTS,
        ops_per_request: 4,
        ..ClientWorkload::default()
    };
    let mut client = client_runtime(
        &cluster.spec,
        0,
        &workload,
        Some(client_listeners.remove(0)),
    )
    .expect("client boots");
    let finished = client.run_until(Duration::from_secs(60), Duration::from_millis(20), |rt| {
        rt.node_as::<ClientNode>().expect("client node").completed >= REQUESTS as u64
    });
    let completed = client
        .node_as::<ClientNode>()
        .expect("client node")
        .completed;
    assert!(finished, "only {completed}/{REQUESTS} requests committed");
    assert_eq!(client.decode_errors(), 0);

    let reports = cluster.stop();
    assert_agreement(&reports);
    assert!(
        reports.iter().all(|r| r.last_executed >= 1),
        "every replica must have executed through the exec pool"
    );
}

/// Acceptance: both pipelines at once — inbound frames decode and
/// pre-verify on the verify pool (σ/τ shares recorded against published
/// slot digests), committed blocks execute on the exec pool, and the
/// `ExecuteReady` wake flows through the verification pipeline like any
/// other frame. The node thread is left doing only protocol bookkeeping.
#[test]
fn four_replica_cluster_commits_with_both_pipelines() {
    const REQUESTS: usize = 30;
    let (cluster, mut client_listeners) = TcpCluster::boot_with_pipelines(1, 0, 1, 0xb07f, 2, 2);
    let workload = ClientWorkload {
        requests: REQUESTS,
        ..ClientWorkload::default()
    };
    let mut client = client_runtime(
        &cluster.spec,
        0,
        &workload,
        Some(client_listeners.remove(0)),
    )
    .expect("client boots");
    let finished = client.run_until(Duration::from_secs(60), Duration::from_millis(20), |rt| {
        rt.node_as::<ClientNode>().expect("client node").completed >= REQUESTS as u64
    });
    let completed = client
        .node_as::<ClientNode>()
        .expect("client node")
        .completed;
    assert!(finished, "only {completed}/{REQUESTS} requests committed");
    assert_eq!(client.decode_errors(), 0);

    let reports = cluster.stop();
    assert_agreement(&reports);
    assert!(
        reports.iter().all(|r| r.last_executed >= 1),
        "every replica must have executed with both pipelines active"
    );
}

/// Acceptance: killing every connection of one replica mid-run only dents
/// throughput — the transport reconnects with backoff and liveness
/// resumes until the full workload commits.
#[test]
fn severed_replica_reconnects_and_liveness_resumes() {
    const REQUESTS: usize = 40;
    let (cluster, mut client_listeners) = TcpCluster::boot(1, 0, 1, 0xdead);
    let workload = ClientWorkload {
        requests: REQUESTS,
        ..ClientWorkload::default()
    };
    let mut client = client_runtime(
        &cluster.spec,
        0,
        &workload,
        Some(client_listeners.remove(0)),
    )
    .expect("client boots");

    // Phase 1: commit some of the workload on a healthy cluster.
    let warmed = client.run_until(Duration::from_secs(30), Duration::from_millis(20), |rt| {
        rt.node_as::<ClientNode>().expect("client node").completed >= 10
    });
    assert!(warmed, "healthy cluster must commit the first 10 requests");

    // Phase 2: sever every socket touching replica 1 (every such socket
    // is either dialed by 1 or accepted by 1, so its registry sees all
    // of them). Both directions of 4 node pairs go down at once.
    let victim = &cluster.replica_controls[1];
    let connects_before = victim.stats().connects;
    let total = cluster.spec.n() + 1;
    let mut severed = 0;
    for peer in 0..total {
        if peer != 1 {
            severed += victim.sever(peer);
        }
    }
    assert!(severed > 0, "no sockets were severed");

    // Phase 3: the remaining workload must still commit.
    let finished = client.run_until(Duration::from_secs(60), Duration::from_millis(20), |rt| {
        rt.node_as::<ClientNode>().expect("client node").completed >= REQUESTS as u64
    });
    let completed = client
        .node_as::<ClientNode>()
        .expect("client node")
        .completed;
    assert!(
        finished,
        "liveness lost after sever: {completed}/{REQUESTS} committed"
    );
    assert!(
        victim.stats().connects > connects_before,
        "replica 1 must have re-dialed its peers"
    );

    let reports = cluster.stop();
    assert_agreement(&reports);
}

/// The trust boundary at verify widths 1 (node thread) and 2 (workers):
/// a backup fed one malformed frame and one forged request counts one of
/// each on its registry and never acts on either — the only request it
/// forwards to the primary is the genuine one sent after them. The
/// primary and the client are bare transports driven by the test.
#[test]
fn replica_counts_and_drops_malformed_and_forged_frames_at_every_width() {
    for verify_threads in [1, 2] {
        let listeners: Vec<TcpListener> = (0..5)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().expect("local addr").to_string())
            .collect();
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
