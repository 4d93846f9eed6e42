//! One cluster boot: bind listeners, start the replicas and the clients
//! through `sbft::deploy`, wait for the first committed
//! request, optionally measure a window, tear down, and check the
//! replicas' safety invariants.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sbft::core::{invariant_violation, ClientNode, ReplicaNode, ReplicaSnapshot};
use sbft::deploy::{client_runtime, loopback_config, replica_runtime, ClientWorkload};
use sbft::gateway::OpenLoopConfig;
use sbft::telemetry::Registry;
use sbft::transport::{ClusterSpec, TransportControl};

use crate::procfs;

/// How long a boot may take to commit its first request.
const SETUP_DEADLINE: Duration = Duration::from_secs(60);
/// Node-thread poll budget: how quickly threads notice a stop.
const REPLICA_POLL: Duration = Duration::from_millis(10);
/// Client poll budget: the resolution of completion times.
const CLIENT_POLL: Duration = Duration::from_millis(1);

/// A named workload: closed-loop `ClientNode`s, one thread each, issuing
/// `ClientWorkload::default()` requests of `ops_per_request` puts back
/// to back.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub clients: usize,
    pub ops_per_request: usize,
}

/// Warm-up and measured window of a boot.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub warmup: Duration,
    pub length: Duration,
}

/// What one boot does.
pub struct Plan<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    pub trace: bool,
    pub window: Window,
}

/// Node counters summed over the started replicas (and, for
/// `client_retries`, the closed-loop clients).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub frames_sent: u64,
    pub bytes_sent: u64,
    pub dropped: u64,
    pub committed_requests: u64,
    pub committed_blocks: u64,
    pub fast_commits: u64,
    pub slow_commits: u64,
    pub fallbacks: u64,
    pub view_changes: u64,
    pub client_retries: u64,
    /// `(count, sum ns)` per tracer component, in `PHASE_COMPONENTS` order.
    pub phases: [(u64, u64); 5],
}

impl Counters {
    fn minus(&self, before: &Counters) -> Counters {
        let mut phases = [(0, 0); 5];
        for (i, phase) in phases.iter_mut().enumerate() {
            *phase = (
                self.phases[i].0.saturating_sub(before.phases[i].0),
                self.phases[i].1.saturating_sub(before.phases[i].1),
            );
        }
        Counters {
            frames_sent: self.frames_sent.saturating_sub(before.frames_sent),
            bytes_sent: self.bytes_sent.saturating_sub(before.bytes_sent),
            dropped: self.dropped.saturating_sub(before.dropped),
            committed_requests: self
                .committed_requests
                .saturating_sub(before.committed_requests),
            committed_blocks: self
                .committed_blocks
                .saturating_sub(before.committed_blocks),
            fast_commits: self.fast_commits.saturating_sub(before.fast_commits),
            slow_commits: self.slow_commits.saturating_sub(before.slow_commits),
            fallbacks: self.fallbacks.saturating_sub(before.fallbacks),
            view_changes: self.view_changes.saturating_sub(before.view_changes),
            client_retries: self.client_retries.saturating_sub(before.client_retries),
            phases,
        }
    }
}

/// The `Send` handles through which counters are read from outside the
/// node threads: each node's telemetry registry and transport control.
#[derive(Default)]
struct Probe {
    replicas: Vec<(Registry, TransportControl)>,
    clients: Vec<Registry>,
}

/// Everything read at one window edge.
struct Snapshot {
    host: (u64, u64),
    threads: BTreeMap<u32, (String, f64)>,
    counters: Counters,
}

fn node_counter(registry: &Registry, key: &str) -> u64 {
    registry.counter(&format!("sbft_node_{key}")).get()
}

impl Probe {
    fn snapshot(&self) -> Snapshot {
        let mut c = Counters::default();
        for (registry, control) in &self.replicas {
            let stats = control.stats();
            c.frames_sent += stats.frames_sent;
            c.bytes_sent += stats.bytes_sent;
            c.dropped += stats.dropped;
            c.committed_requests += node_counter(registry, "committed_requests");
            c.committed_blocks += node_counter(registry, "committed_blocks");
            c.fast_commits += node_counter(registry, "fast_commits");
            c.slow_commits += node_counter(registry, "slow_commits");
            c.fallbacks += node_counter(registry, "fast_path_fallbacks");
            c.view_changes += node_counter(registry, "view_changes_started");
            for (i, (_, histogram)) in registry.tracer().component_snapshots().iter().enumerate() {
                c.phases[i].0 += histogram.count();
                c.phases[i].1 += histogram.sum();
            }
        }
        for registry in &self.clients {
            c.client_retries += node_counter(registry, "client_retries");
        }
        Snapshot {
            host: procfs::host_ticks(),
            threads: procfs::thread_cpu(),
            counters: c,
        }
    }
}

/// The measured window of a boot, as seen by the clients.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    pub window_s: f64,
    /// Requests issued in the window.
    pub offered: u64,
    pub completed: u64,
    /// Requests that did not complete within the give-up.
    pub timed_out: u64,
    /// Latency of every completed request, plus every failed one at the
    /// give-up.
    pub latencies_ms: Vec<f64>,
    /// Mean latency of the completed requests alone.
    pub completed_mean_ms: f64,
    /// CPU seconds of every thread of the process that was alive at the
    /// window's end (the cluster's threads live for the whole boot).
    pub process_cpu_s: f64,
    /// Share of the machine's CPU time stolen by the hypervisor.
    pub host_steal_frac: f64,
    /// CPU seconds per thread group (see [`procfs::group_of`]).
    pub groups: BTreeMap<&'static str, f64>,
    /// Counter deltas over the window.
    pub counters: Counters,
    /// View changes started since boot, summed over replicas.
    pub view_changes_total: u64,
}

impl Measured {
    fn cpu(mut self, start: &Snapshot, end: &Snapshot) -> Measured {
        let total = end.host.1.saturating_sub(start.host.1);
        self.host_steal_frac = end.host.0.saturating_sub(start.host.0) as f64 / total.max(1) as f64;
        self.groups = procfs::group_delta(&start.threads, &end.threads);
        self.process_cpu_s = self.groups.values().sum();
        self.counters = end.counters.minus(&start.counters);
        self.view_changes_total = end.counters.view_changes;
        self
    }
}

/// One finished boot that passed the correctness gate.
pub struct Boot {
    pub setup_s: f64,
    pub measured: Measured,
}

fn bind(count: usize) -> Result<(Vec<TcpListener>, Vec<String>), String> {
    let mut listeners = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..count {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        addrs.push(
            listener
                .local_addr()
                .map_err(|e| format!("local addr: {e}"))?
                .to_string(),
        );
        listeners.push(listener);
    }
    Ok((listeners, addrs))
}

type ReplicaExit = (ReplicaSnapshot, u64);

fn spawn_replica(
    r: usize,
    spec: ClusterSpec,
    listener: TcpListener,
    trace: bool,
    stop: Arc<AtomicBool>,
    handles: Sender<(Registry, TransportControl)>,
) -> JoinHandle<Result<ReplicaExit, String>> {
    thread::Builder::new()
        .name(format!("replica-{r}"))
        .spawn(move || {
            let mut runtime = replica_runtime(&spec, r, Some(listener))
                .map_err(|e| format!("replica {r}: {e}"))?;
            runtime.registry().tracer().set_enabled(trace);
            let control = runtime.transport().control();
            let _ = handles.send((runtime.registry().clone(), control.clone()));
            while !stop.load(Ordering::Acquire) {
                runtime.poll(REPLICA_POLL);
            }
            let node = runtime
                .node_as::<ReplicaNode>()
                .ok_or("replica runtime holds a ReplicaNode")?;
            let exit = (
                ReplicaSnapshot::of(node, r),
                runtime.metrics().counter("committed_requests"),
            );
            control.shutdown();
            Ok(exit)
        })
        .expect("spawn replica thread")
}

/// A completion `(client, seen at, latency ms)` published by a
/// closed-loop client thread.
type Completion = (usize, Instant, f64);
type Sink = Arc<Mutex<Vec<Completion>>>;

fn spawn_client(
    c: usize,
    spec: ClusterSpec,
    listener: TcpListener,
    ops_per_request: usize,
    stop: Arc<AtomicBool>,
    sink: Sink,
    handles: Sender<Registry>,
) -> JoinHandle<Result<(), String>> {
    thread::Builder::new()
        .name(format!("client-{c}"))
        .spawn(move || {
            let workload = ClientWorkload {
                requests: usize::MAX / 2,
                ops_per_request,
                ..ClientWorkload::default()
            };
            let mut runtime = client_runtime(&spec, c, &workload, Some(listener))
                .map_err(|e| format!("client {c}: {e}"))?;
            let _ = handles.send(runtime.registry().clone());
            let mut reported = 0;
            while !stop.load(Ordering::Acquire) {
                runtime.poll(CLIENT_POLL);
                let node = runtime
                    .node_as::<ClientNode>()
                    .ok_or("client runtime holds a ClientNode")?;
                if node.latencies_ms.len() > reported {
                    let now = Instant::now();
                    sink.lock()
                        .expect("sink lock")
                        .extend(node.latencies_ms[reported..].iter().map(|ms| (c, now, *ms)));
                    reported = node.latencies_ms.len();
                }
            }
            runtime.transport().control().shutdown();
            Ok(())
        })
        .expect("spawn client thread")
}

/// How long a request may stay outstanding before it counts as failed:
/// the gateway's open-loop give-up, so a failure means the same as it
/// does at the front door.
fn give_up() -> Duration {
    Duration::from_nanos(OpenLoopConfig::default().give_up_after_ns)
}

/// When the request of a completion was issued.
fn issued_at(seen: Instant, ms: f64) -> Option<Instant> {
    seen.checked_sub(Duration::from_secs_f64(ms / 1e3))
}

/// Whether client `c` has completed a request issued at or after `we`.
fn moved_past(completions: &[Completion], c: usize, we: Instant) -> bool {
    completions
        .iter()
        .rev()
        .take_while(|(_, seen, _)| *seen >= we)
        .any(|&(i, seen, ms)| i == c && issued_at(seen, ms).is_some_and(|at| at >= we))
}

/// Closed loop: waits for the first completion, then measures the window
/// from this thread while the client threads publish completions. The
/// window's requests are the ones issued inside it. Each client's request
/// outstanding at the window's end is waited for until the client issues
/// the next one or the give-up passes; a request that took longer than
/// the give-up, or never completed, failed.
fn drive_closed(
    t0: Instant,
    sink: &Sink,
    clients: usize,
    probe: &Probe,
    window: Window,
) -> Result<(f64, Measured), String> {
    let first = loop {
        if let Some((_, at, _)) = sink.lock().expect("sink lock").first() {
            break *at;
        }
        if t0.elapsed() > SETUP_DEADLINE {
            return Err(format!("no request committed within {SETUP_DEADLINE:?}"));
        }
        thread::sleep(CLIENT_POLL);
    };
    let setup_s = (first - t0).as_secs_f64();
    thread::sleep(window.warmup);
    let start = probe.snapshot();
    let ws = Instant::now();
    thread::sleep(window.length);
    let we = Instant::now();
    let end = probe.snapshot();
    let give_up = give_up();
    while Instant::now() < we + give_up {
        let completions = sink.lock().expect("sink lock");
        if (0..clients).all(|c| moved_past(&completions, c, we)) {
            break;
        }
        drop(completions);
        thread::sleep(CLIENT_POLL);
    }

    let give_up_ms = give_up.as_secs_f64() * 1e3;
    let mut measured = Measured {
        window_s: (we - ws).as_secs_f64(),
        ..Measured::default()
    };
    let mut completed_ms = 0.0;
    // When each client's last request issued before `we` completed, which
    // is when it issued its next one.
    let mut next_issued = vec![None; clients];
    let completions = sink.lock().expect("sink lock");
    for &(c, seen, ms) in completions.iter() {
        let Some(at) = issued_at(seen, ms).filter(|at| *at < we) else {
            continue;
        };
        next_issued[c] = Some(seen);
        if at < ws {
            continue;
        }
        measured.offered += 1;
        if ms <= give_up_ms {
            measured.latencies_ms.push(ms);
            completed_ms += ms;
        } else {
            measured.timed_out += 1;
            measured.latencies_ms.push(give_up_ms);
        }
    }
    for (c, issued) in next_issued.into_iter().enumerate() {
        let in_window = issued.is_some_and(|at| ws <= at && at < we);
        if in_window && !moved_past(&completions, c, we) {
            measured.offered += 1;
            measured.timed_out += 1;
            measured.latencies_ms.push(give_up_ms);
        }
    }
    measured.completed = measured.offered - measured.timed_out;
    measured.completed_mean_ms = completed_ms / measured.completed.max(1) as f64;
    Ok((setup_s, measured.cpu(&start, &end)))
}

/// Runs one boot of `plan`. Errors (a node that cannot boot, no commit
/// before the deadline, a thread that panicked, a failed correctness
/// gate) carry their reason.
pub fn boot(plan: &Plan<'_>) -> Result<Boot, String> {
    let workload = plan.workload;
    let t0 = Instant::now();
    let n = 4;
    let (replica_listeners, replica_addrs) = bind(n)?;
    let (client_listeners, client_addrs) = bind(workload.clients)?;
    let mut text = loopback_config(1, 0, plan.seed, &replica_addrs, &client_addrs);
    text.push_str("profile lan\n");
    let spec = ClusterSpec::parse(&text).map_err(|e| e.to_string())?;

    let stop_replicas = Arc::new(AtomicBool::new(false));
    let stop_clients = Arc::new(AtomicBool::new(false));
    let (handle_tx, handle_rx) = mpsc::channel();
    let mut replicas = Vec::new();
    for (r, listener) in replica_listeners.into_iter().enumerate() {
        replicas.push(spawn_replica(
            r,
            spec.clone(),
            listener,
            plan.trace,
            Arc::clone(&stop_replicas),
            handle_tx.clone(),
        ));
    }
    let mut probe = Probe::default();
    let mut result = Ok((0.0, Measured::default()));
    for _ in 0..replicas.len() {
        match handle_rx.recv_timeout(SETUP_DEADLINE) {
            Ok(handles) => probe.replicas.push(handles),
            Err(_) => result = Err("a replica failed to boot".to_string()),
        }
    }

    let mut clients = Vec::new();
    let sink: Sink = Arc::default();
    if result.is_ok() {
        let (registry_tx, registry_rx) = mpsc::channel();
        for (c, listener) in client_listeners.into_iter().enumerate() {
            clients.push(spawn_client(
                c,
                spec.clone(),
                listener,
                workload.ops_per_request,
                Arc::clone(&stop_clients),
                Arc::clone(&sink),
                registry_tx.clone(),
            ));
        }
        for _ in 0..workload.clients {
            match registry_rx.recv_timeout(SETUP_DEADLINE) {
                Ok(registry) => probe.clients.push(registry),
                Err(_) => result = Err("a client failed to boot".to_string()),
            }
        }
        if result.is_ok() {
            result = drive_closed(t0, &sink, workload.clients, &probe, plan.window);
        }
    }

    // Teardown: clients first, then replicas, whose final state is checked.
    stop_clients.store(true, Ordering::Release);
    for client in clients {
        if let Err(e) = client
            .join()
            .unwrap_or_else(|_| Err("client thread panicked".to_string()))
        {
            result = Err(e);
        }
    }
    stop_replicas.store(true, Ordering::Release);
    let mut snapshots = Vec::new();
    let mut committed_max = 0;
    for replica in replicas {
        match replica
            .join()
            .unwrap_or_else(|_| Err("replica thread panicked".to_string()))
        {
            Ok((snapshot, committed)) => {
                snapshots.push(snapshot);
                committed_max = committed_max.max(committed);
            }
            Err(e) => result = Err(e),
        }
    }
    let (setup_s, measured) = result?;
    // The correctness gate: the replicas' safety invariants, and every
    // completion a client accepted must have committed.
    if let Some(violation) = invariant_violation(&snapshots) {
        return Err(format!("correctness gate failed: {violation}"));
    }
    if measured.completed > committed_max {
        return Err(format!(
            "correctness gate failed: {} completions in the window but at most \
             {committed_max} committed requests",
            measured.completed
        ));
    }
    Ok(Boot { setup_s, measured })
}
