//! `sbft-node` — runs one node of a real SBFT cluster over TCP.
//!
//! Usage:
//!
//! ```text
//! sbft-node --config cluster.conf --replica <id>
//! sbft-node --config cluster.conf --client <id> [--requests N] [--ops N] [--value-len N]
//! ```
//!
//! Every process reads the same plain-text config (see
//! `sbft_transport::ClusterSpec` for the format) and finds its own listen
//! address in it. Replicas run until killed, printing commit progress
//! every few seconds; clients run a closed-loop key-value workload and
//! exit when it completes, printing throughput and latency.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sbft::core::{ClientNode, ReplicaNode};
use sbft::deploy::{client_runtime, replica_runtime, ClientWorkload};
use sbft::sim::SampleStats;
use sbft::transport::{ClusterSpec, TransportProfile};

struct Args {
    config: String,
    role: Role,
    workload: ClientWorkload,
    /// Overrides the config file's `profile` directive when set.
    profile: Option<TransportProfile>,
    /// Overrides the config file's `verify_threads` directive when set
    /// (0 = auto from core count, 1 = checks on the node thread).
    verify_threads: Option<usize>,
    /// Overrides the config file's `exec_threads` directive when set
    /// (0 = auto from core count, 1 = inline execution on the node
    /// thread, >= 2 = offloaded with that many wave workers).
    exec_threads: Option<usize>,
    /// Serves the node's metrics registry over HTTP when set
    /// (`/metrics` Prometheus text, `/trace` JSON phase spans).
    metrics_addr: Option<String>,
    /// Overrides the config file's `data_dir` directive when set:
    /// durable WAL + checkpoint snapshots under
    /// `<dir>/replica-<id>`, recovered at boot.
    data_dir: Option<String>,
    /// Overrides the config file's `fsync` directive when set
    /// (`always` | `never` | `batch[:N]`; default `batch:8`).
    fsync: Option<String>,
}

enum Role {
    Replica(usize),
    Client(usize),
}

const USAGE: &str = "usage: sbft-node --config <file> (--replica <id> | --client <id>) \
                     [--profile lan|wan] [--verify-threads N] [--exec-threads N] \
                     [--data-dir <dir>] [--fsync always|never|batch[:N]] \
                     [--metrics-addr host:port] [--requests N] [--ops N] [--value-len N]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut config = None;
    let mut role = None;
    let mut workload = ClientWorkload::default();
    let mut profile = None;
    let mut verify_threads = None;
    let mut exec_threads = None;
    let mut metrics_addr = None;
    let mut data_dir = None;
    let mut fsync = None;
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].clone();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            argv.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--config" => config = Some(value("--config")?),
            "--replica" => {
                role = Some(Role::Replica(
                    value("--replica")?.parse().map_err(|_| "bad replica id")?,
                ))
            }
            "--client" => {
                role = Some(Role::Client(
                    value("--client")?.parse().map_err(|_| "bad client id")?,
                ))
            }
            "--requests" => {
                workload.requests = value("--requests")?.parse().map_err(|_| "bad --requests")?
            }
            "--ops" => {
                workload.ops_per_request = value("--ops")?.parse().map_err(|_| "bad --ops")?
            }
            "--value-len" => {
                workload.value_len = value("--value-len")?
                    .parse()
                    .map_err(|_| "bad --value-len")?
            }
            "--profile" => {
                profile = Some(match value("--profile")?.as_str() {
                    "lan" => TransportProfile::Lan,
                    "wan" => TransportProfile::Wan,
                    other => return Err(format!("unknown profile `{other}` (lan | wan)")),
                })
            }
            "--verify-threads" => {
                verify_threads = Some(
                    value("--verify-threads")?
                        .parse()
                        .map_err(|_| "bad --verify-threads")?,
                )
            }
            "--exec-threads" => {
                exec_threads = Some(
                    value("--exec-threads")?
                        .parse()
                        .map_err(|_| "bad --exec-threads")?,
                )
            }
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")?),
            "--data-dir" => data_dir = Some(value("--data-dir")?),
            "--fsync" => fsync = Some(value("--fsync")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
        i += 1;
    }
    Ok(Args {
        config: config.ok_or(USAGE)?,
        role: role.ok_or(USAGE)?,
        workload,
        profile,
        verify_threads,
        exec_threads,
        metrics_addr,
        data_dir,
        fsync,
    })
}

fn run_replica(spec: &ClusterSpec, r: usize, metrics_addr: Option<&str>) -> Result<(), String> {
    let mut runtime = replica_runtime(spec, r, None).map_err(|e| e.to_string())?;
    if let Some(addr) = metrics_addr {
        let served = sbft::telemetry::serve(addr, runtime.registry().clone())
            .map_err(|e| format!("--metrics-addr {addr}: {e}"))?;
        eprintln!("replica {r}: metrics on http://{served}/metrics, traces on /trace");
    }
    // Protocol-position gauges: the registry's counters cover traffic and
    // verification, but view and watermark live inside the replica state
    // machine — mirror them so the endpoint shows consensus progress.
    let view_gauge = runtime.registry().gauge("sbft_node_view");
    let executed_gauge = runtime.registry().gauge("sbft_node_last_executed");
    let stable_gauge = runtime.registry().gauge("sbft_node_last_stable");
    // Liveness-layer gauges: the self-tuned timers, fast-path hysteresis
    // state, and heartbeat suspicion level — what an operator watches to
    // tell a gray-degraded cluster from a healthy one.
    let fast_timeout_gauge = runtime.registry().gauge("sbft_liveness_fast_timeout_us");
    let stagger_gauge = runtime
        .registry()
        .gauge("sbft_liveness_collector_stagger_us");
    let view_timeout_gauge = runtime.registry().gauge("sbft_liveness_view_timeout_us");
    let engaged_gauge = runtime.registry().gauge("sbft_liveness_fast_path_engaged");
    let suspicion_gauge = runtime
        .registry()
        .gauge("sbft_liveness_max_suspicion_milli");
    let rtt_gauges: Vec<_> = (0..spec.n())
        .map(|p| {
            runtime
                .registry()
                .gauge(&format!("sbft_liveness_peer_rtt_us_{p}"))
        })
        .collect();
    eprintln!(
        "replica {r}/{} listening on {} ({:?} profile, {} verify workers, {} exec workers, \
         view timers armed)",
        spec.n(),
        runtime.transport().local_addr(),
        spec.profile,
        runtime.verify_threads(),
        spec.resolved_exec_threads(),
    );
    let mut last_report = Instant::now();
    loop {
        runtime.poll(Duration::from_millis(500));
        {
            let node = runtime.node_as::<ReplicaNode>().expect("replica node");
            view_gauge.set(node.view().get() as i64);
            executed_gauge.set(node.last_executed().get() as i64);
            stable_gauge.set(node.last_stable().get() as i64);
            fast_timeout_gauge.set((node.adaptive_fast_timeout().as_nanos() / 1_000) as i64);
            stagger_gauge.set((node.adaptive_collector_stagger().as_nanos() / 1_000) as i64);
            view_timeout_gauge.set((node.adaptive_view_timeout().as_nanos() / 1_000) as i64);
            engaged_gauge.set(i64::from(node.fast_path_engaged()));
            suspicion_gauge.set(node.max_suspicion_milli() as i64);
            for (p, gauge) in rtt_gauges.iter().enumerate() {
                gauge.set((node.peer_rtt(p).as_nanos() / 1_000) as i64);
            }
        }
        if last_report.elapsed() >= Duration::from_secs(5) {
            last_report = Instant::now();
            let node = runtime.node_as::<ReplicaNode>().expect("replica node");
            let stats = runtime.transport().control().stats();
            eprintln!(
                "replica {r}: view {} executed {} stable {} | tx {} frames / {} B, rx {} frames, \
                 {} reconnect-ish connects, {} dropped",
                node.view(),
                node.last_executed(),
                node.last_stable(),
                stats.frames_sent,
                stats.bytes_sent,
                stats.frames_received,
                stats.connects,
                stats.dropped,
            );
        }
    }
}

fn run_client(spec: &ClusterSpec, c: usize, workload: &ClientWorkload) -> Result<(), String> {
    let target = workload.requests as u64;
    let mut runtime = client_runtime(spec, c, workload, None).map_err(|e| e.to_string())?;
    eprintln!(
        "client {c} listening on {}; issuing {target} requests ({} ops each)",
        runtime.transport().local_addr(),
        workload.ops_per_request
    );
    let started = Instant::now();
    let mut last_report = Instant::now();
    loop {
        runtime.poll(Duration::from_millis(200));
        let completed = runtime
            .node_as::<ClientNode>()
            .expect("client node")
            .completed;
        if completed >= target {
            break;
        }
        if last_report.elapsed() >= Duration::from_secs(2) {
            last_report = Instant::now();
            eprintln!("client {c}: {completed}/{target} committed");
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let node = runtime.node_as::<ClientNode>().expect("client node");
    println!(
        "client {c}: {} requests in {elapsed:.2}s = {:.1} req/s",
        node.completed,
        node.completed as f64 / elapsed
    );
    if let Some(stats) = SampleStats::from_samples(&node.latencies_ms) {
        println!(
            "latency ms: mean {:.2} median {:.2} p99 {:.2} max {:.2}",
            stats.mean, stats.median, stats.p99, stats.max
        );
    }
    let t = runtime.transport().control().stats();
    println!(
        "transport: {} frames / {} B sent, {} frames / {} B received",
        t.frames_sent, t.bytes_sent, t.frames_received, t.bytes_received
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let mut spec = match ClusterSpec::load(&args.config) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(profile) = args.profile {
        spec.profile = profile;
    }
    if let Some(threads) = args.verify_threads {
        spec.verify_threads = threads;
    }
    if let Some(threads) = args.exec_threads {
        spec.exec_threads = threads;
    }
    if let Some(dir) = args.data_dir {
        spec.data_dir = Some(dir);
    }
    if let Some(policy) = args.fsync {
        spec.fsync = Some(policy);
    }
    let result = match args.role {
        Role::Replica(r) if r < spec.n() => run_replica(&spec, r, args.metrics_addr.as_deref()),
        Role::Client(c) if c < spec.clients.len() => run_client(&spec, c, &args.workload),
        Role::Replica(r) => Err(format!("replica {r} out of range (n = {})", spec.n())),
        Role::Client(c) => Err(format!(
            "client {c} out of range ({} clients in config)",
            spec.clients.len()
        )),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
