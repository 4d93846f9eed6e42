//! Runs a [`FaultPlan`] on the real TCP stack: one OS thread per node
//! (exactly how a single-machine deployment runs one process per node),
//! every connection routed through the [`crate::proxy::ChaosNet`] fault
//! proxy, plan events applied at wall-clock offsets.
//!
//! The same sans-IO `ReplicaNode`/`ClientNode` state machines run here
//! as on the simulator — the point of the dual-backend harness is that
//! one plan exercises one protocol through two runtimes. Wall-clock
//! runs are not bit-deterministic (the OS schedules threads), but the
//! judged invariants are identical.

use std::collections::HashMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use sbft_core::{
    make_client, make_replica, Behavior, ClientNode, KeyMaterial, ProtocolConfig,
    ReplicaDurability, ReplicaNode, ReplicaSnapshot, Workload,
};
use sbft_crypto::CryptoCostModel;
use sbft_gateway::{AdmissionConfig, GatewayCore, GatewayNode};
use sbft_sim::SimDuration;
use sbft_statedb::{FsyncPolicy, KvService};
use sbft_transport::{ClusterSpec, NodeRuntime, TcpTransport, TransportProfile, VariantName};

use crate::plan::{timeline, Fault, FaultPlan, Step};
use crate::proxy::ChaosNet;
use crate::report::{judge, Backend, Outcome, RunReport, TRACKED_COUNTERS};

/// Wall-clock grace after the horizon for liveness to land.
const LIVENESS_GRACE: Duration = Duration::from_secs(25);
/// Minimum post-horizon grace worth running with; below this a run is
/// skipped rather than judged against a bar it was never given time to
/// clear.
const MIN_GRACE: Duration = Duration::from_secs(5);
/// Node thread poll slice.
const POLL: Duration = Duration::from_millis(10);

enum NodeCmd {
    SetBehavior(Behavior),
    SetSkew(i64),
    /// Gray-slow the node: stall its event loop this long every poll
    /// slice (zero clears). The process stays up and answers everything
    /// — late, which is exactly what a gray-failed replica looks like.
    SetProcessingDelay(Duration),
}

struct NodeExit {
    snapshot: Option<ReplicaSnapshot>,
    counters: HashMap<String, u64>,
    /// This incarnation's full telemetry registry (counters only) at
    /// teardown — zero at boot, so final values are run deltas.
    registry: Vec<(String, u64)>,
    completed: u64,
    events: u64,
}

struct NodeHandle {
    stop: Arc<AtomicBool>,
    cmds: mpsc::Sender<NodeCmd>,
    progress: Arc<AtomicU64>,
    thread: thread::JoinHandle<NodeExit>,
}

impl NodeHandle {
    fn join(self) -> NodeExit {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("node thread exits cleanly")
    }
}

fn node_seed(seed: u64, node: usize) -> u64 {
    seed ^ (node as u64).wrapping_mul(0x9e3779b97f4a7c15)
}

fn drive<M>(
    stop: &AtomicBool,
    cmds: &mpsc::Receiver<NodeCmd>,
    progress: &AtomicU64,
    runtime: &mut NodeRuntime<M>,
    observe: impl Fn(&NodeRuntime<M>) -> u64,
) where
    M: sbft_sim::SimMessage + sbft_wire::Wire,
{
    let mut process_delay = Duration::ZERO;
    while !stop.load(Ordering::Acquire) {
        while let Ok(cmd) = cmds.try_recv() {
            match cmd {
                NodeCmd::SetBehavior(behavior) => {
                    if let Some(replica) = runtime.node_as_mut::<ReplicaNode>() {
                        replica.set_behavior(behavior);
                    }
                }
                NodeCmd::SetSkew(skew_ns) => runtime.set_clock_skew(skew_ns),
                NodeCmd::SetProcessingDelay(delay) => process_delay = delay,
            }
        }
        let before = runtime.events_processed();
        runtime.poll(POLL);
        if !process_delay.is_zero() {
            // Charge the stall per event handled, like the simulator's
            // per-message cost model — a batch of work stalls the loop
            // proportionally (capped so stop/cmds stay responsive).
            let processed = (runtime.events_processed() - before).min(10) as u32;
            if processed > 0 {
                thread::sleep(process_delay * processed);
            }
        }
        progress.store(observe(runtime), Ordering::Release);
    }
}

fn tracked_counters<M: sbft_sim::SimMessage + sbft_wire::Wire>(
    runtime: &NodeRuntime<M>,
) -> HashMap<String, u64> {
    TRACKED_COUNTERS
        .iter()
        .map(|key| ((*key).to_string(), runtime.metrics().counter(key)))
        .collect()
}

fn spawn_replica(
    r: usize,
    protocol: ProtocolConfig,
    spec: ClusterSpec,
    seed: u64,
    listener: TcpListener,
    data_dir: Option<PathBuf>,
) -> NodeHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let (cmd_tx, cmd_rx) = mpsc::channel();
    let thread_stop = Arc::clone(&stop);
    let thread_progress = Arc::clone(&progress);
    let thread = thread::Builder::new()
        .name(format!("chaos-replica-{r}"))
        .spawn(move || {
            let keys = KeyMaterial::generate(&protocol, spec.seed);
            let mut replica = make_replica(
                &protocol,
                r,
                &keys,
                Box::new(KvService::new()),
                CryptoCostModel::free(),
            );
            // Disk-fault plans give every replica a real data dir: the
            // WAL + snapshot live in files, crashes leave them behind,
            // and intact restarts recover from them like a real reboot.
            if let Some(dir) = &data_dir {
                let (durability, recovered) =
                    ReplicaDurability::on_disk(dir, FsyncPolicy::default())
                        .expect("chaos data dir opens");
                replica.set_durability(durability, recovered);
            }
            let transport = TcpTransport::with_listener(spec.transport_config(r), listener)
                .expect("replica transport boots");
            let control = transport.control();
            let mut runtime = sbft::deploy::replica_runtime_with_pipeline(
                replica,
                transport,
                node_seed(seed, r),
                spec.verify_threads,
                spec.exec_threads,
            );
            drive(
                &thread_stop,
                &cmd_rx,
                &thread_progress,
                &mut runtime,
                |rt| {
                    rt.node_as::<ReplicaNode>()
                        .map(|n| n.last_executed().get())
                        .unwrap_or(0)
                },
            );
            let snapshot = runtime
                .node_as::<ReplicaNode>()
                .map(|node| ReplicaSnapshot::of(node, r));
            let counters = tracked_counters(&runtime);
            let registry = runtime.registry().counter_values();
            let events = runtime.events_processed();
            control.shutdown();
            NodeExit {
                snapshot,
                counters,
                registry,
                completed: 0,
                events,
            }
        })
        .expect("spawn replica thread");
    NodeHandle {
        stop,
        cmds: cmd_tx,
        progress,
        thread,
    }
}

fn spawn_client(
    c: usize,
    protocol: ProtocolConfig,
    spec: ClusterSpec,
    workload: Workload,
    seed: u64,
    listener: TcpListener,
    gateway: Option<usize>,
) -> NodeHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let (cmd_tx, cmd_rx) = mpsc::channel();
    let thread_stop = Arc::clone(&stop);
    let thread_progress = Arc::clone(&progress);
    let node = spec.client_node(c);
    let thread = thread::Builder::new()
        .name(format!("chaos-client-{c}"))
        .spawn(move || {
            let keys = KeyMaterial::generate(&protocol, spec.seed);
            let source = workload.source_for(c, spec.seed);
            let mut client = make_client(
                &protocol,
                c,
                &keys,
                source,
                SimDuration::from_millis(400),
                CryptoCostModel::free(),
            );
            if let Some(gateway) = gateway {
                client.set_gateway(gateway);
            }
            let transport = TcpTransport::with_listener(spec.transport_config(node), listener)
                .expect("client transport boots");
            let control = transport.control();
            let mut runtime = NodeRuntime::new(Box::new(client), transport, node_seed(seed, node));
            drive(
                &thread_stop,
                &cmd_rx,
                &thread_progress,
                &mut runtime,
                |rt| rt.node_as::<ClientNode>().map(|n| n.completed).unwrap_or(0),
            );
            let completed = runtime
                .node_as::<ClientNode>()
                .map(|n| n.completed)
                .unwrap_or(0);
            let counters = tracked_counters(&runtime);
            let registry = runtime.registry().counter_values();
            let events = runtime.events_processed();
            control.shutdown();
            NodeExit {
                snapshot: None,
                counters,
                registry,
                completed,
                events,
            }
        })
        .expect("spawn client thread");
    NodeHandle {
        stop,
        cmds: cmd_tx,
        progress,
        thread,
    }
}

fn spawn_gateway(
    spec: ClusterSpec,
    admission: AdmissionConfig,
    seed: u64,
    listener: TcpListener,
) -> NodeHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let progress = Arc::new(AtomicU64::new(0));
    let (cmd_tx, cmd_rx) = mpsc::channel();
    let thread_stop = Arc::clone(&stop);
    let thread_progress = Arc::clone(&progress);
    let node = spec.gateway_node(0);
    let n = spec.n();
    let thread = thread::Builder::new()
        .name("chaos-gateway".to_string())
        .spawn(move || {
            let gateway = GatewayNode::new(GatewayCore::new(admission), n);
            let transport = TcpTransport::with_listener(spec.transport_config(node), listener)
                .expect("gateway transport boots");
            let control = transport.control();
            let mut runtime = NodeRuntime::new(Box::new(gateway), transport, node_seed(seed, node));
            drive(
                &thread_stop,
                &cmd_rx,
                &thread_progress,
                &mut runtime,
                |rt| rt.metrics().counter("gateway_admitted"),
            );
            let counters = tracked_counters(&runtime);
            let registry = runtime.registry().counter_values();
            let events = runtime.events_processed();
            control.shutdown();
            NodeExit {
                snapshot: None,
                counters,
                registry,
                completed: 0,
                events,
            }
        })
        .expect("spawn gateway thread");
    NodeHandle {
        stop,
        cmds: cmd_tx,
        progress,
        thread,
    }
}

struct TcpRun {
    net: ChaosNet,
    protocol: ProtocolConfig,
    spec: ClusterSpec,
    seed: u64,
    /// Replica handles (None while crashed).
    replicas: Vec<Option<NodeHandle>>,
    clients: Vec<NodeHandle>,
    /// The gateway front door, when the plan runs one (None while
    /// crashed or for gateway-less plans).
    gateway: Option<NodeHandle>,
    /// Admission policy for (re)booting the gateway; None = no gateway.
    gateway_admission: Option<AdmissionConfig>,
    /// Exits of crashed gateway incarnations.
    gateway_exits: Vec<NodeExit>,
    /// Exits of crashed incarnations, tagged with the replica id
    /// (counters still count).
    crashed_exits: Vec<(usize, NodeExit)>,
    /// Per-node extra one-way delay; link delay is the *sum* of its two
    /// endpoints' values, mirroring the simulator's additive
    /// `extra_node_delay` so overlapping Delay faults mean the same
    /// thing on both backends.
    node_delay_ms: Vec<u64>,
    /// Per-node mean of the extra exponential link jitter; like delays,
    /// a link's jitter mean is the sum of its endpoints' values.
    node_jitter_ms: Vec<u64>,
    /// Per-replica on-disk data dirs under a run-private tempdir root —
    /// only allocated when the plan injects disk faults
    /// (`RestartIntact` / `TornWal`); `None` keeps every other plan on
    /// the in-memory store. `(root, per-replica dirs)`.
    data_dirs: Option<(PathBuf, Vec<PathBuf>)>,
}

impl TcpRun {
    fn boot(plan: &FaultPlan, seed: u64) -> std::io::Result<TcpRun> {
        let n = plan.n();
        let total = n + plan.clients + usize::from(plan.gateway);
        let net = ChaosNet::new(total, seed)?;
        // Every peer table points at the proxy; each node's own listener
        // is bound to an OS-picked port and published as its forward
        // address (restarts rebind and republish).
        let spec = ClusterSpec {
            f: plan.f,
            c: plan.c,
            seed,
            variant: VariantName::Sbft,
            profile: TransportProfile::Lan,
            // Always exercise the parallel verification pipeline under
            // chaos: 2 workers per replica forces the reorder/release
            // machinery into every fault schedule even on a 1-core host
            // (where the deploy default would check frames on the node
            // thread).
            verify_threads: 2,
            // Likewise for the execution pipeline: the executor-thread
            // handoff, completion wake, and crash-between-commit-and-ack
            // window are live in every TCP fault schedule.
            exec_threads: 2,
            // The harness wires durability itself (per-run tempdirs,
            // only for disk-fault plans), not through the spec.
            data_dir: None,
            fsync: None,
            replicas: (0..n).map(|r| net.proxy_addr(r)).collect(),
            clients: (n..n + plan.clients)
                .map(|node| net.proxy_addr(node))
                .collect(),
            gateways: if plan.gateway {
                vec![net.proxy_addr(plan.gateway_node())]
            } else {
                Vec::new()
            },
            // Chaos clients are real nodes with their own connections —
            // the gateway multiplexes no sessions here (the session-mux
            // path is the open-loop bench's and binary's job).
            gateway_sessions: 0,
        };
        let mut protocol = sbft::deploy::protocol_for(&spec);
        if let Some(window) = plan.window {
            protocol.window = window;
        }
        if let Some(period) = plan.checkpoint_period {
            protocol.checkpoint_period = period;
        }
        if let Some(max_in_flight) = plan.max_in_flight {
            protocol.max_in_flight = max_in_flight;
        }
        let bind = |node: usize| -> std::io::Result<TcpListener> {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            net.set_forward(node, listener.local_addr()?.to_string());
            Ok(listener)
        };
        let uses_disk = plan
            .events
            .iter()
            .any(|e| matches!(e.fault, Fault::RestartIntact { .. } | Fault::TornWal { .. }));
        let data_dirs = if uses_disk {
            static RUN_ID: AtomicU64 = AtomicU64::new(0);
            let root = std::env::temp_dir().join(format!(
                "sbft-chaos-{}-{}",
                std::process::id(),
                RUN_ID.fetch_add(1, Ordering::Relaxed)
            ));
            let dirs: Vec<PathBuf> = (0..n).map(|r| root.join(format!("replica-{r}"))).collect();
            Some((root, dirs))
        } else {
            None
        };
        let replica_dir = |r: usize| data_dirs.as_ref().map(|(_, dirs)| dirs[r].clone());
        let workload = plan.workload();
        let mut replicas = Vec::new();
        for r in 0..n {
            let listener = bind(r)?;
            replicas.push(Some(spawn_replica(
                r,
                protocol.clone(),
                spec.clone(),
                seed,
                listener,
                replica_dir(r),
            )));
        }
        let gateway_route = plan.gateway.then(|| plan.gateway_node());
        let mut clients = Vec::new();
        for c in 0..plan.clients {
            let listener = bind(n + c)?;
            clients.push(spawn_client(
                c,
                protocol.clone(),
                spec.clone(),
                workload.clone(),
                seed,
                listener,
                gateway_route,
            ));
        }
        let gateway_admission = plan.gateway.then(|| match plan.gateway_slots {
            Some(slots) => AdmissionConfig {
                max_in_flight: slots,
                resume_at: (slots / 2).max(1),
                retry_after_ms: 20,
                slot_ttl_ns: 100_000_000,
            },
            None => AdmissionConfig::default(),
        });
        let gateway = match gateway_admission {
            Some(admission) => {
                let listener = bind(plan.gateway_node())?;
                Some(spawn_gateway(spec.clone(), admission, seed, listener))
            }
            None => None,
        };
        let node_delay_ms = vec![0; total];
        let node_jitter_ms = vec![0; total];
        Ok(TcpRun {
            net,
            protocol,
            spec,
            seed,
            replicas,
            clients,
            gateway,
            gateway_admission,
            gateway_exits: Vec::new(),
            crashed_exits: Vec::new(),
            node_delay_ms,
            node_jitter_ms,
            data_dirs,
        })
    }

    fn replica_dir(&self, r: usize) -> Option<PathBuf> {
        self.data_dirs.as_ref().map(|(_, dirs)| dirs[r].clone())
    }

    fn total(&self) -> usize {
        self.spec.n() + self.spec.clients.len() + self.spec.gateways.len()
    }

    fn completed(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.progress.load(Ordering::Acquire))
            .sum()
    }

    /// Pushes the per-node delays and jitter means onto every directed
    /// link as the sum of its endpoints' values (the simulator's
    /// additive model).
    fn refresh_delays(&self) {
        for a in 0..self.total() {
            for b in 0..self.total() {
                if a != b {
                    let ms = self.node_delay_ms[a] + self.node_delay_ms[b];
                    self.net.set_delay(a, b, Duration::from_millis(ms));
                    let jitter = self.node_jitter_ms[a] + self.node_jitter_ms[b];
                    self.net.set_jitter(a, b, Duration::from_millis(jitter));
                }
            }
        }
    }

    /// Boots a fresh incarnation of a crashed replica on a new port,
    /// leaving whatever is in its data dir (if any) for recovery.
    fn respawn(&mut self, r: usize) {
        if self.replicas[r].is_some() {
            return; // restarting a live replica is a plan bug; ignore
        }
        let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
            return;
        };
        if let Ok(addr) = listener.local_addr() {
            self.net.set_forward(r, addr.to_string());
        }
        self.replicas[r] = Some(spawn_replica(
            r,
            self.protocol.clone(),
            self.spec.clone(),
            self.seed,
            listener,
            self.replica_dir(r),
        ));
    }

    fn apply(&mut self, step: &Step) {
        match step {
            Step::Crash(r) => {
                if let Some(handle) = self.replicas[*r].take() {
                    self.net.clear_forward(*r);
                    self.crashed_exits.push((*r, handle.join()));
                }
            }
            Step::Restart(r) => {
                // Empty-state semantics: a plain restart loses the disk
                // too, so wipe the data dir before the fresh incarnation
                // opens it.
                if let Some(dir) = self.replica_dir(*r) {
                    let _ = std::fs::remove_dir_all(&dir);
                }
                self.respawn(*r);
            }
            Step::RestartIntact(r) => self.respawn(*r),
            Step::TornWal { replica, cut } => {
                // The victim is crashed (validated), so its incarnation
                // joined and the WAL file handle is closed: tear the
                // tail off the file directly, like a power loss would.
                if let Some(dir) = self.replica_dir(*replica) {
                    let path = sbft_core::persist::wal_path(&dir);
                    if let Ok(file) = std::fs::OpenOptions::new().write(true).open(&path) {
                        if let Ok(meta) = file.metadata() {
                            let _ = file.set_len(meta.len().saturating_sub(*cut as u64));
                        }
                    }
                }
            }
            Step::PartitionStart {
                from, to, one_way, ..
            } => {
                for a in from {
                    for b in to {
                        self.net.block(*a, *b);
                        if !*one_way {
                            self.net.block(*b, *a);
                        }
                    }
                }
            }
            Step::PartitionHeal { from, to, one_way } => {
                for a in from {
                    for b in to {
                        self.net.heal(*a, *b);
                        if !*one_way {
                            self.net.heal(*b, *a);
                        }
                    }
                }
            }
            Step::DelayStart { node, delay_ms } => {
                self.node_delay_ms[*node] = *delay_ms;
                self.refresh_delays();
            }
            Step::DelayClear { node } => {
                self.node_delay_ms[*node] = 0;
                self.refresh_delays();
            }
            Step::DropStart { prob } => self.net.set_drop_all(*prob),
            Step::DropClear => self.net.set_drop_all(0.0),
            Step::DuplicateStart { prob } => self.net.set_duplicate_all(*prob),
            Step::DuplicateClear => self.net.set_duplicate_all(0.0),
            Step::Behavior { replica, behavior } => {
                if let Some(handle) = &self.replicas[*replica] {
                    let _ = handle.cmds.send(NodeCmd::SetBehavior(*behavior));
                }
            }
            Step::ClockSkew { node, skew_ms } => {
                let skew_ns = skew_ms.saturating_mul(1_000_000);
                let handle = if *node < self.replicas.len() {
                    self.replicas[*node].as_ref()
                } else {
                    self.clients.get(*node - self.replicas.len())
                };
                if let Some(handle) = handle {
                    let _ = handle.cmds.send(NodeCmd::SetSkew(skew_ns));
                }
            }
            Step::GatewayCrash => {
                if let Some(handle) = self.gateway.take() {
                    let node = self.spec.gateway_node(0);
                    self.net.clear_forward(node);
                    self.gateway_exits.push(handle.join());
                }
            }
            Step::GatewayRestart => {
                if self.gateway.is_some() {
                    return; // restarting a live gateway is a plan bug; ignore
                }
                let Some(admission) = self.gateway_admission else {
                    return;
                };
                let node = self.spec.gateway_node(0);
                let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
                    return;
                };
                if let Ok(addr) = listener.local_addr() {
                    self.net.set_forward(node, addr.to_string());
                }
                self.gateway = Some(spawn_gateway(
                    self.spec.clone(),
                    admission,
                    self.seed,
                    listener,
                ));
            }
            Step::SlowReplicaStart { replica, delay_ms } => {
                if let Some(handle) = &self.replicas[*replica] {
                    let _ = handle
                        .cmds
                        .send(NodeCmd::SetProcessingDelay(Duration::from_millis(
                            *delay_ms,
                        )));
                }
            }
            Step::SlowReplicaClear { replica } => {
                if let Some(handle) = &self.replicas[*replica] {
                    let _ = handle
                        .cmds
                        .send(NodeCmd::SetProcessingDelay(Duration::ZERO));
                }
            }
            Step::DegradedLinkStart {
                node,
                latency_ms,
                jitter_ms,
            } => {
                self.node_delay_ms[*node] = *latency_ms;
                self.node_jitter_ms[*node] = *jitter_ms;
                self.refresh_delays();
            }
            Step::DegradedLinkClear { node } => {
                self.node_delay_ms[*node] = 0;
                self.node_jitter_ms[*node] = 0;
                self.refresh_delays();
            }
            Step::SlowCpu { .. } | Step::Deaf { .. } => {
                unreachable!("sim-only faults are rejected before boot")
            }
        }
    }
}

/// Runs `plan` under `seed` on the real TCP backend. `time_cap` bounds
/// the whole run's wall clock (the liveness grace shrinks to fit).
pub fn run_tcp(plan: &FaultPlan, seed: u64, time_cap: Duration) -> RunReport {
    plan.validate();
    let started = Instant::now();
    let abort = |outcome: Outcome, started: &Instant| RunReport {
        plan: plan.name.to_string(),
        backend: Backend::Tcp,
        seed,
        outcome,
        completed: 0,
        fingerprint: 0,
        wall: started.elapsed(),
        counters: HashMap::new(),
        snapshots: Vec::new(),
        registries: Vec::new(),
    };
    if !plan.tcp_supported() {
        return abort(
            Outcome::Skipped("plan uses sim-only faults".to_string()),
            &started,
        );
    }
    // A run squeezed by the sweep's time budget would read as a bogus
    // liveness failure (no post-horizon grace left); report it as what
    // it is: skipped for time.
    let horizon = Duration::from_millis(plan.horizon_ms);
    if time_cap < horizon + MIN_GRACE {
        return abort(
            Outcome::Skipped("time cap too small for this plan's horizon".to_string()),
            &started,
        );
    }
    let mut run = match TcpRun::boot(plan, seed) {
        Ok(run) => run,
        Err(e) => return abort(Outcome::Fail(format!("boot: {e}")), &started),
    };

    for (at_ms, step) in timeline(plan) {
        let at = started.elapsed();
        let target = Duration::from_millis(at_ms);
        if target > at {
            thread::sleep(target - at);
        }
        run.apply(&step);
    }
    if started.elapsed() < horizon {
        thread::sleep(horizon - started.elapsed());
    }
    let completed_at_horizon = run.completed();

    // Wait for the pollable parts of the bar: post-horizon progress and
    // (for rejoin plans) the catch-up lag, read off the per-replica
    // frontier atomics. Counters and safety are judged after teardown.
    let deadline = (started + horizon + LIVENESS_GRACE).min(started + time_cap.max(horizon));
    loop {
        let progressed = run.completed() - completed_at_horizon >= plan.min_progress;
        let caught_up = plan.max_final_lag.is_none_or(|max_lag| {
            let frontiers: Vec<u64> = run
                .replicas
                .iter()
                .flatten()
                .map(|h| h.progress.load(Ordering::Acquire))
                .collect();
            let top = frontiers.iter().copied().max().unwrap_or(0);
            frontiers.iter().all(|f| top.saturating_sub(*f) <= max_lag)
        });
        if (progressed && caught_up) || Instant::now() >= deadline {
            break;
        }
        thread::sleep(Duration::from_millis(25));
    }
    let progress = run.completed() - completed_at_horizon;

    // Tear down and collect: stop everything first (clients included,
    // so no new requests race the snapshots), then join.
    for client in &run.clients {
        client.stop.store(true, Ordering::Release);
    }
    if let Some(gateway) = &run.gateway {
        gateway.stop.store(true, Ordering::Release);
    }
    for replica in run.replicas.iter().flatten() {
        replica.stop.store(true, Ordering::Release);
    }
    let client_exits: Vec<NodeExit> = run.clients.drain(..).map(NodeHandle::join).collect();
    if let Some(gateway) = run.gateway.take() {
        run.gateway_exits.push(gateway.join());
    }
    let replica_exits: Vec<(usize, NodeExit)> = run
        .replicas
        .iter_mut()
        .enumerate()
        .filter_map(|(r, slot)| slot.take().map(|handle| (r, handle.join())))
        .collect();
    run.net.shutdown();
    if let Some((root, _)) = &run.data_dirs {
        let _ = std::fs::remove_dir_all(root);
    }

    let snapshots: Vec<ReplicaSnapshot> = replica_exits
        .iter()
        .filter_map(|(_, exit)| exit.snapshot.clone())
        .collect();
    let mut counters: HashMap<String, u64> = HashMap::new();
    let mut fingerprint = 0u64;
    for exit in replica_exits
        .iter()
        .map(|(_, exit)| exit)
        .chain(&client_exits)
        .chain(&run.gateway_exits)
        .chain(run.crashed_exits.iter().map(|(_, exit)| exit))
    {
        for (key, value) in &exit.counters {
            *counters.entry(key.clone()).or_insert(0) += value;
        }
        fingerprint += exit.events;
    }
    let completed: u64 = client_exits.iter().map(|exit| exit.completed).sum();
    // Per-node registry deltas, crashed incarnations first so a
    // restarted replica's two lives both show up in the dump.
    let mut registries: Vec<(String, Vec<(String, u64)>)> = Vec::new();
    for (r, exit) in &run.crashed_exits {
        registries.push((format!("replica {r} (crashed)"), exit.registry.clone()));
    }
    for (r, exit) in &replica_exits {
        registries.push((format!("replica {r}"), exit.registry.clone()));
    }
    for (c, exit) in client_exits.iter().enumerate() {
        registries.push((format!("client {c}"), exit.registry.clone()));
    }
    for (g, exit) in run.gateway_exits.iter().enumerate() {
        registries.push((format!("gateway (incarnation {g})"), exit.registry.clone()));
    }

    RunReport {
        plan: plan.name.to_string(),
        backend: Backend::Tcp,
        seed,
        outcome: judge(plan, &snapshots, &counters, progress),
        completed,
        fingerprint,
        wall: started.elapsed(),
        counters,
        snapshots,
        registries,
    }
}
