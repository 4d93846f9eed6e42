//! Measures real-socket commit throughput: a 4-replica SBFT cluster on
//! loopback TCP, swept over client counts. The §IX analogue of the
//! simulator's Figure-2 sweep, but in wall-clock time on actual sockets
//! — what `cargo run --release --bin loopback_throughput` on one machine
//! can actually sustain.
//!
//! Flags: `--quick` (short window), `--clients a,b,c` (sweep points),
//! `--verify-threads N` (verification pipeline workers per replica;
//! 0 = auto from core count, 1 = checks on the node thread),
//! `--exec-threads N` (where blocks execute: 0 = auto, 1 = in place on
//! the node thread, ≥2 = on one executor thread),
//! `--json PATH` (machine-readable result file, default
//! `BENCH_loopback.json`), `--no-json`, `--no-trace` (disable
//! per-request phase tracing — the A/B switch for measuring the
//! telemetry layer's overhead), `--data-dir <dir>` (durable WAL +
//! checkpoint snapshots at the default `batch:8` fsync — the A/B switch
//! for measuring the durability layer's overhead).
//!
//! Every run emits the perf-trajectory record `BENCH_loopback.json`
//! (req/s, latency percentiles, process-CPU µs per request, thread
//! count, git revision) so successive PRs can be compared; CI uploads it
//! as an artifact.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use sbft::core::{ClientNode, ReplicaNode};
use sbft::deploy::{client_runtime, ClientWorkload, LoopbackCluster};
use sbft::sim::SampleStats;
use sbft::telemetry::HistogramSnapshot;
use sbft::transport::{TransportStats, VerifyPoolStats};
use sbft::types::ViewNum;
use sbft_bench::trajectory::Trajectory;

struct Args {
    window: Duration,
    warmup: Duration,
    clients: Vec<usize>,
    verbose: bool,
    smoke_floor: Option<f64>,
    /// 0 = auto (core count), 1 = checks on the node thread.
    verify_threads: usize,
    /// 0 = auto, 1 = execution in place, >= 2 = on one executor thread.
    exec_threads: usize,
    json_path: Option<String>,
    /// Per-request phase tracing on the replicas (`--no-trace` turns it
    /// off; comparing the two runs measures the tracer's overhead).
    trace: bool,
    /// Base directory for durable replica state (WAL + snapshots at the
    /// deploy default `fsync batch:8`). Each sweep point gets its own
    /// subdirectory (fresh clusters must not recover each other's
    /// state). Unset = in-memory, the pre-durability baseline.
    data_dir: Option<String>,
    /// Fsync policy for `--data-dir` runs (`always` | `never` |
    /// `batch[:N]`); unset keeps the deploy default. A/B against
    /// `never` isolates the fsync stalls from the logging cost itself.
    fsync: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        window: Duration::from_secs(5),
        warmup: Duration::from_secs(1),
        clients: vec![1, 2, 4, 8],
        verbose: false,
        smoke_floor: None,
        verify_threads: 0,
        exec_threads: 0,
        json_path: Some("BENCH_loopback.json".to_string()),
        trace: true,
        data_dir: None,
        fsync: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--quick" => {
                args.window = Duration::from_secs(1);
                args.warmup = Duration::from_millis(300);
                args.clients = vec![1, 4];
            }
            "--smoke" => {
                // CI regression gate: one short point, conservative floor
                // (shared runners are slow and single-core; the floor
                // only has to catch order-of-magnitude wire regressions).
                args.window = Duration::from_secs(2);
                args.warmup = Duration::from_millis(500);
                args.clients = vec![4];
                args.smoke_floor = Some(2_000.0);
            }
            "--floor" => {
                i += 1;
                args.smoke_floor = Some(
                    argv.get(i)
                        .expect("--floor needs req/s")
                        .parse()
                        .expect("floor req/s"),
                );
            }
            "--verify-threads" => {
                i += 1;
                args.verify_threads = argv
                    .get(i)
                    .expect("--verify-threads needs a count")
                    .parse()
                    .expect("thread count");
            }
            "--exec-threads" => {
                i += 1;
                args.exec_threads = argv
                    .get(i)
                    .expect("--exec-threads needs a count")
                    .parse()
                    .expect("thread count");
            }
            "--json" => {
                i += 1;
                args.json_path = Some(argv.get(i).expect("--json needs a path").clone());
            }
            "--no-json" => args.json_path = None,
            "--data-dir" => {
                i += 1;
                args.data_dir = Some(argv.get(i).expect("--data-dir needs a path").clone());
            }
            "--fsync" => {
                i += 1;
                args.fsync = Some(argv.get(i).expect("--fsync needs a policy").clone());
            }
            "--no-trace" => args.trace = false,
            "--verbose" => args.verbose = true,
            "--clients" => {
                i += 1;
                args.clients = argv
                    .get(i)
                    .expect("--clients needs a,b,c")
                    .split(',')
                    .map(|s| s.parse().expect("client count"))
                    .collect();
            }
            other => panic!("unknown argument `{other}`"),
        }
        i += 1;
    }
    args
}

/// Process CPU time in clock ticks (utime + stime from /proc/self/stat),
/// `None` off Linux. Covers every thread of the process — replicas,
/// clients, transport and verification workers — which is exactly the
/// "protocol CPU per request" the trajectory tracks.
fn process_cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesized comm (which may contain spaces).
    let rest = stat.rsplit(')').next()?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line; after the
    // comm we have consumed 2 fields, so they are at offsets 11 and 12.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Microseconds per clock tick (Linux's USER_HZ is 100 everywhere that
/// matters; a wrong constant skews the absolute number, not the trend).
const US_PER_TICK: f64 = 10_000.0;

/// Summed CPU ticks of the threads whose name starts with `prefix`
/// (per-thread utime + stime from /proc/self/task/*/stat), `None` off
/// Linux. With `"replica-"` this isolates the four node threads from
/// the transport, verification, and execution workers — the protocol's
/// critical-path serial cost, which the pipelines exist to shrink.
fn thread_cpu_ticks(prefix: &str) -> Option<u64> {
    let mut total = 0u64;
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let Ok(stat) = std::fs::read_to_string(entry.ok()?.path().join("stat")) else {
            continue; // thread exited mid-scan
        };
        let name_start = stat.find('(')? + 1;
        let name_end = stat.rfind(')')?;
        if !stat[name_start..name_end].starts_with(prefix) {
            continue;
        }
        let fields: Vec<&str> = stat[name_end + 1..].split_whitespace().collect();
        let utime: u64 = fields.get(11)?.parse().ok()?;
        let stime: u64 = fields.get(12)?.parse().ok()?;
        total += utime + stime;
    }
    Some(total)
}

/// One sweep point's measurements.
struct Point {
    clients: usize,
    req_per_s: f64,
    mean_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    cpu_us_per_request: f64,
    /// CPU burned by the four `replica-*` node threads alone — the
    /// serial critical path the verify/exec pipelines offload.
    node_cpu_us_per_request: f64,
    verify_threads_used: usize,
    /// Execution-pipeline width actually in effect (0 = inline).
    exec_threads_used: usize,
    /// `(component, mean µs, worst replica p99 µs)` per latency phase,
    /// aggregated across the 4 replicas' tracers (whole run including
    /// warmup — phase shares, not absolute window numbers). Empty when
    /// tracing is off.
    phase_us: Vec<(&'static str, f64, f64)>,
    /// View changes started, summed across the 4 replicas. A healthy
    /// loopback run must show zero — any flapping here means the
    /// adaptive timers got twitchy under clean conditions.
    view_changes: u64,
    /// Replica 0's adaptive σ-path timeout at teardown (ms).
    adaptive_fast_timeout_ms: f64,
    /// Replica 0's adaptive view timeout at teardown (ms).
    adaptive_view_timeout_ms: f64,
}

/// What each replica's runtime holds when its sweep point ends.
struct ReplicaExit {
    view: ViewNum,
    executed: u64,
    fast: u64,
    slow: u64,
    stats: TransportStats,
    pool: VerifyPoolStats,
    components: Vec<(&'static str, HistogramSnapshot)>,
    view_changes: u64,
    /// The adaptive σ-path and view timeouts (ms).
    adaptive_timers: (f64, f64),
}

/// Folds the per-replica tracer snapshots into one `(component, mean µs,
/// worst p99 µs)` row per phase. The mean merge is exact (sums and
/// counts add); p99 across replicas is reported as the worst replica's,
/// which is the number an operator chasing tail latency wants anyway.
fn fold_phases(
    per_replica: Vec<Vec<(&'static str, HistogramSnapshot)>>,
) -> Vec<(&'static str, f64, f64)> {
    let mut rows: Vec<(&'static str, u64, f64, f64)> = Vec::new();
    for components in per_replica {
        for (name, snap) in components {
            let row = match rows.iter_mut().find(|(n, _, _, _)| *n == name) {
                Some(row) => row,
                None => {
                    rows.push((name, 0, 0.0, 0.0));
                    rows.last_mut().expect("just pushed")
                }
            };
            if snap.count() > 0 {
                row.1 += snap.count();
                row.2 += snap.mean() * snap.count() as f64;
                row.3 = row.3.max(snap.quantile(0.99) as f64);
            }
        }
    }
    rows.into_iter()
        .map(|(name, count, sum_ns, p99_ns)| {
            let mean_ns = if count > 0 {
                sum_ns / count as f64
            } else {
                0.0
            };
            (name, mean_ns / 1_000.0, p99_ns / 1_000.0)
        })
        .collect()
}

/// One sweep point: boots a fresh cluster, measures a window.
fn measure(clients: usize, args: &Args) -> Point {
    let durability = match &args.data_dir {
        Some(base) => match &args.fsync {
            Some(policy) => format!("data_dir {base}/c{clients}\nfsync {policy}\n"),
            None => format!("data_dir {base}/c{clients}\n"),
        },
        None => String::new(),
    };
    let directives = format!(
        "verify_threads {}\nexec_threads {}\n{durability}",
        args.verify_threads, args.exec_threads,
    );
    let mut cluster =
        LoopbackCluster::start(1, 0, 0x5bf7, clients, None, &directives).expect("cluster boots");
    for r in 0..4 {
        cluster.registry(r).tracer().set_enabled(args.trace);
    }
    let spec = cluster.spec().clone();
    let verify_threads_used = if spec.resolved_verify_threads() > 1 {
        spec.resolved_verify_threads()
    } else {
        0
    };
    let exec_threads_used = if spec.resolved_exec_threads() > 1 {
        spec.resolved_exec_threads()
    } else {
        0
    };

    let done = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();

    // Clients publish every completed request's latency; the main thread
    // snapshots the vector at the warmup and window edges.
    let latencies = Arc::new(Mutex::new(Vec::<f64>::new()));
    for c in 0..clients {
        let listener = cluster.take_client_listener(c);
        let spec = spec.clone();
        let done = Arc::clone(&done);
        let latencies = Arc::clone(&latencies);
        threads.push(
            thread::Builder::new()
                .name(format!("client-{c}"))
                .spawn(move || {
                    let workload = ClientWorkload {
                        requests: usize::MAX / 2, // open-ended; stopped by `done`
                        ..ClientWorkload::default()
                    };
                    let mut runtime =
                        client_runtime(&spec, c, &workload, listener).expect("client");
                    let mut reported = 0usize;
                    while !done.load(Ordering::Acquire) {
                        runtime.poll(Duration::from_millis(10));
                        let node = runtime.node_as::<ClientNode>().expect("client");
                        let new = node.latencies_ms.len();
                        if new > reported {
                            latencies
                                .lock()
                                .expect("latency lock")
                                .extend_from_slice(&node.latencies_ms[reported..]);
                            reported = new;
                        }
                    }
                })
                .expect("spawn client"),
        );
    }

    thread::sleep(args.warmup);
    let committed_at_start = latencies.lock().expect("latency lock").len();
    let cpu_at_start = process_cpu_ticks();
    let node_cpu_at_start = thread_cpu_ticks("replica-");
    let started = Instant::now();
    thread::sleep(args.window);
    let elapsed = started.elapsed().as_secs_f64();
    let cpu_at_end = process_cpu_ticks();
    let node_cpu_at_end = thread_cpu_ticks("replica-");
    let window_latencies: Vec<f64> = {
        let all = latencies.lock().expect("latency lock");
        all[committed_at_start.min(all.len())..].to_vec()
    };
    done.store(true, Ordering::Release);
    for t in threads {
        t.join().expect("node thread");
    }
    let replicas = cluster
        .stop(|r, runtime| {
            if std::env::var("SBFT_LABELS").is_ok() {
                let mut labels: Vec<_> = runtime.metrics().labels().collect();
                labels.sort_by_key(|(_, n, _)| std::cmp::Reverse(*n));
                eprintln!("  replica {r} sends by label: {labels:?}");
            }
            let node = runtime.node_as::<ReplicaNode>().expect("replica node");
            ReplicaExit {
                view: node.view(),
                executed: node.last_executed().get(),
                fast: runtime.metrics().counter("fast_commits"),
                slow: runtime.metrics().counter("slow_commits"),
                stats: runtime.transport().control().stats(),
                pool: runtime.verify_pool_stats(),
                components: runtime.registry().tracer().component_snapshots(),
                view_changes: runtime.metrics().counter("view_changes_started"),
                adaptive_timers: (
                    node.adaptive_fast_timeout().as_millis_f64(),
                    node.adaptive_view_timeout().as_millis_f64(),
                ),
            }
        })
        .expect("replicas stop");
    let view_changes = replicas.iter().map(|x| x.view_changes).sum();
    let adaptive_timers = replicas[0].adaptive_timers;
    if args.verbose {
        for (r, x) in replicas.iter().enumerate() {
            let (stats, pool) = (&x.stats, &x.pool);
            eprintln!(
                "  replica {r}: view {} executed {} fast {} slow {} | \
                 tx {} frames/{} B rx {} frames/{} B, {} connects, {} dropped, {} hs-rejects",
                x.view,
                x.executed,
                x.fast,
                x.slow,
                stats.frames_sent,
                stats.bytes_sent,
                stats.frames_received,
                stats.bytes_received,
                stats.connects,
                stats.dropped,
                stats.handshake_rejects,
            );
            eprintln!(
                "  replica {r} verify-pool: {} in / {} released, {} decode errs, \
                 {} rejects, {} batches ({:.1} frames/batch)",
                pool.frames_in,
                pool.released,
                pool.decode_errors,
                pool.verify_rejects,
                pool.batches,
                pool.frames_in as f64 / pool.batches.max(1) as f64,
            );
        }
    }
    let per_replica_phases = replicas.into_iter().map(|x| x.components).collect();
    let committed = window_latencies.len() as u64;
    // The simulator's stats helper keeps the percentile definition
    // identical across the sim and wire trajectories.
    let stats = SampleStats::from_samples(&window_latencies);
    let cpu_us_per_request = match (cpu_at_start, cpu_at_end) {
        (Some(start), Some(end)) if committed > 0 => {
            (end.saturating_sub(start)) as f64 * US_PER_TICK / committed as f64
        }
        _ => 0.0,
    };
    let node_cpu_us_per_request = match (node_cpu_at_start, node_cpu_at_end) {
        (Some(start), Some(end)) if committed > 0 => {
            (end.saturating_sub(start)) as f64 * US_PER_TICK / committed as f64
        }
        _ => 0.0,
    };
    Point {
        clients,
        req_per_s: committed as f64 / elapsed,
        mean_ms: stats.as_ref().map(|s| s.mean).unwrap_or(0.0),
        p50_ms: stats.as_ref().map(|s| s.median).unwrap_or(0.0),
        p99_ms: stats.as_ref().map(|s| s.p99).unwrap_or(0.0),
        cpu_us_per_request,
        node_cpu_us_per_request,
        verify_threads_used,
        exec_threads_used,
        phase_us: if args.trace {
            fold_phases(per_replica_phases)
        } else {
            Vec::new()
        },
        view_changes,
        adaptive_fast_timeout_ms: adaptive_timers.0,
        adaptive_view_timeout_ms: adaptive_timers.1,
    }
}

fn write_json(path: &str, points: &[Point], best: f64) {
    let mut record = Trajectory::new("loopback_throughput");
    record.field_u64(
        "verify_threads",
        points.first().map(|p| p.verify_threads_used).unwrap_or(0) as u64,
    );
    record.field_u64(
        "exec_threads",
        points.first().map(|p| p.exec_threads_used).unwrap_or(0) as u64,
    );
    record.field_f64("best_req_per_s", best);
    for p in points {
        let mut phases = String::new();
        for (name, mean_us, p99_us) in &p.phase_us {
            if !phases.is_empty() {
                phases.push_str(", ");
            }
            // 3 decimals: sub-µs phases (a fast in-handler verify) must
            // still serialize nonzero — the perf-smoke gate reads these.
            phases.push_str(&format!(
                "\"{name}\": {{\"mean_us\": {mean_us:.3}, \"p99_us\": {p99_us:.3}}}"
            ));
        }
        record.point(format!(
            "{{\"clients\": {}, \"req_per_s\": {:.1}, \"mean_ms\": {:.3}, \
             \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"cpu_us_per_request\": {:.1}, \
             \"node_cpu_us_per_request\": {:.1}, \"view_changes\": {}, \
             \"adaptive_fast_timeout_ms\": {:.3}, \"adaptive_view_timeout_ms\": {:.3}, \
             \"phase_us\": {{{phases}}}}}",
            p.clients,
            p.req_per_s,
            p.mean_ms,
            p.p50_ms,
            p.p99_ms,
            p.cpu_us_per_request,
            p.node_cpu_us_per_request,
            p.view_changes,
            p.adaptive_fast_timeout_ms,
            p.adaptive_view_timeout_ms,
        ));
    }
    record.write(path);
}

fn main() {
    let args = parse_args();
    println!("loopback TCP throughput, n=4 (f=1, c=0), closed-loop clients");
    println!(
        "verify-threads: {} (0 = auto; resolves per host at boot)",
        args.verify_threads
    );
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>10} {:>12} {:>13}",
        "clients", "req/s", "mean ms", "p50 ms", "p99 ms", "cpu µs/req", "node µs/req"
    );
    let mut best = 0.0f64;
    let mut points = Vec::new();
    for &clients in &args.clients {
        let point = measure(clients, &args);
        println!(
            "{:>8} {:>12.1} {:>10.2} {:>10.2} {:>10.2} {:>12.1} {:>13.1}",
            point.clients,
            point.req_per_s,
            point.mean_ms,
            point.p50_ms,
            point.p99_ms,
            point.cpu_us_per_request,
            point.node_cpu_us_per_request,
        );
        if point.view_changes > 0 {
            println!(
                "         WARNING: {} view changes started during a clean loopback run",
                point.view_changes
            );
        }
        if !point.phase_us.is_empty() {
            let parts: Vec<String> = point
                .phase_us
                .iter()
                .map(|(name, mean_us, p99_us)| format!("{name} {mean_us:.0}µs (p99 {p99_us:.0})"))
                .collect();
            println!("         phases: {}", parts.join(", "));
        }
        best = best.max(point.req_per_s);
        points.push(point);
    }
    if let Some(path) = &args.json_path {
        write_json(path, &points, best);
    }
    if let Some(floor) = args.smoke_floor {
        assert!(
            best >= floor,
            "wire-path regression: best sweep point {best:.1} req/s is under the floor of \
             {floor:.1} req/s"
        );
        println!("smoke floor ok: {best:.1} req/s >= {floor:.1} req/s");
        let view_changes: u64 = points.iter().map(|p| p.view_changes).sum();
        assert_eq!(
            view_changes, 0,
            "liveness regression: {view_changes} view changes started during a clean \
             loopback run — the adaptive timers are flapping under healthy conditions"
        );
        println!("smoke view changes ok: zero across the sweep");
        if args.trace {
            // The tracer's `verify` and `execute` components must be
            // real measurements now that handlers stamp wall-clock
            // in-handler time (and execution may complete on the
            // executor thread): a zero mean means the seam regressed to
            // the old "~0 on the direct path" behaviour.
            for component in ["verify", "execute"] {
                let observed = points.iter().any(|p| {
                    p.phase_us
                        .iter()
                        .any(|(name, mean_us, _)| *name == component && *mean_us > 0.0)
                });
                assert!(
                    observed,
                    "phase tracing regression: `{component}` phase mean is zero in every \
                     sweep point — in-handler durations are no longer observed"
                );
            }
            println!("smoke phases ok: verify and execute components are nonzero");
        }
    }
}
