//! The repository benchmark: a real 4-replica SBFT cluster (f=1, c=0,
//! `profile lan`, `variant sbft`) on TCP loopback in one process, built
//! through `sbft::deploy`, under one named workload, judged from the
//! client side. No message delay is injected.
//!
//! ```text
//! sbft-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                [--tmp DIR] [--rev REV] [--record FILE]
//! ```
//!
//! A run boots the cluster as many times as its workload says and
//! measures an equal share of `S` seconds on each boot. `--trace 0` keeps
//! the phase tracer off and reports the median over boots of every
//! end-to-end metric. `--trace 1` alternates untraced and traced boots,
//! then times the isolated layer calls while no cluster is up, and
//! reports the per-layer metrics (medians over the traced boots) plus the
//! traced-minus-untraced difference of the medians of every end-to-end
//! metric. Every boot must pass the replicas' safety invariants, or the
//! run reports the violation and no numbers. The last line of standard
//! output is one JSON object; a per-run record with provenance is
//! printed before it and appended to `--record`.

mod cluster;
mod layers;
mod procfs;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use cluster::{Boot, Measured, Plan, Window, Workload};
use layers::LayerCosts;

/// Warm-up between a boot's first commit and its measured window.
const WARMUP: Duration = Duration::from_millis(500);

/// A workload and the number of boots a run splits its seconds over.
struct Bench {
    workload: Workload,
    boots: usize,
}

/// The workloads.
///
/// Both run one closed-loop client, so one block is in flight at a time.
/// When two blocks are in flight, a block's execution collector sometimes
/// sees the next block's checkpoint become stable before it has f+1 π
/// shares; it drops the late share and never sends the execute-ack, and
/// the client's retries find the result garbage-collected, so the request
/// never completes (about once per 100k requests with two clients, and
/// once per 300k arrivals through the gateway's open loop at 500/s).
///
/// - `kv_closed`: one 16 B put per request, so every request pays a whole
///   consensus round and per-message cost in core, transport and crypto
///   dominates.
/// - `kv_batch`: 64 puts per request, the batching mode of the paper's
///   key-value benchmark (§IX). The same number of messages carries 64
///   times the operations, so execution, the pre-prepare codec and bytes
///   on the wire weigh far more.
static BENCHES: [Bench; 2] = [
    Bench {
        workload: Workload {
            name: "kv_closed",
            clients: 1,
            ops_per_request: 1,
        },
        boots: 20,
    },
    Bench {
        workload: Workload {
            name: "kv_batch",
            clients: 1,
            ops_per_request: 64,
        },
        boots: 20,
    },
];

struct Args {
    bench: &'static Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
    tmp: PathBuf,
    rev: String,
    record: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut args = Args {
        bench: &BENCHES[0],
        seed: 1,
        seconds: 30,
        trace: false,
        tmp: PathBuf::from(".bench_build/perfbench-tmp"),
        rev: "unknown".to_string(),
        record: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--tmp" => args.tmp = PathBuf::from(value),
            "--rev" => args.rev = value.clone(),
            "--record" => args.record = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    args.bench = BENCHES
        .iter()
        .find(|b| b.workload.name == name)
        .ok_or(format!("unknown workload `{name}`"))?;
    Ok(args)
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

/// The end-to-end metrics of one measured boot, over its whole window.
struct EndToEnd {
    throughput_rps: f64,
    latency_p50_ms: f64,
    latency_p90_ms: f64,
    latency_p99_ms: f64,
    latency_mean_ms: f64,
    samples: usize,
    failed_frac: f64,
    cpu_us_per_req: f64,
    setup_s: f64,
}

impl EndToEnd {
    /// Failed requests stay in the percentiles, at the give-up.
    fn of(m: &Measured, setup_s: f64) -> Result<EndToEnd, String> {
        if m.completed == 0 {
            return Err("no request completed in the measured window".to_string());
        }
        let mut all = m.latencies_ms.clone();
        all.sort_by(f64::total_cmp);
        Ok(EndToEnd {
            throughput_rps: m.completed as f64 / m.window_s,
            latency_p50_ms: percentile(&all, 0.50),
            latency_p90_ms: percentile(&all, 0.90),
            latency_p99_ms: percentile(&all, 0.99),
            latency_mean_ms: m.completed_mean_ms,
            samples: all.len(),
            failed_frac: m.timed_out as f64 / m.offered.max(1) as f64,
            cpu_us_per_req: m.process_cpu_s * 1e6 / m.completed as f64,
            setup_s,
        })
    }

    /// The gated metrics, in `BENCHMARK.json` order.
    fn gated(&self) -> Vec<Metric> {
        vec![
            ("throughput_rps".into(), self.throughput_rps, "req/s"),
            ("latency_p50_ms".into(), self.latency_p50_ms, "ms"),
            ("latency_p90_ms".into(), self.latency_p90_ms, "ms"),
            ("success_frac".into(), 1.0 - self.failed_frac, "ratio"),
            ("cpu_us_per_req".into(), self.cpu_us_per_req, "us"),
            ("setup_s".into(), self.setup_s, "s"),
        ]
    }

    /// Diagnostics kept in the record beside the gated metrics.
    fn diagnostics(&self) -> Vec<Metric> {
        vec![
            ("failed_frac".into(), self.failed_frac, "ratio"),
            ("latency_p99_ms".into(), self.latency_p99_ms, "ms"),
            ("latency_mean_ms".into(), self.latency_mean_ms, "ms"),
            ("latency_samples".into(), self.samples as f64, "count"),
        ]
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of one traced boot, from its counters and thread
/// CPU. The first list is reported in the result line; the second only
/// in the record, because on some workloads or hosts its threads do not
/// exist and it reads 0 on every run (the verify and exec pools resolve
/// inline below 4 cores).
fn per_layer(m: &Measured, e2e: &EndToEnd) -> (Vec<Metric>, Vec<Metric>) {
    let c = &m.counters;
    let done = m.completed as f64;
    let cpu_us = |group: &str| ratio(m.groups.get(group).copied().unwrap_or(0.0) * 1e6, done);
    let blocks = c.committed_blocks as f64;
    let mut phase_sum = 0.0;
    let mut layers: Vec<Metric> = vec![
        (
            "transport.msgs_per_req".into(),
            ratio(c.frames_sent as f64, done),
            "count",
        ),
        (
            "transport.bytes_per_req".into(),
            ratio(c.bytes_sent as f64, done),
            "B",
        ),
        ("transport.cpu_us_per_req".into(), cpu_us("transport"), "us"),
        ("transport.dropped".into(), c.dropped as f64, "count"),
        ("core.node_cpu_us_per_req".into(), cpu_us("node"), "us"),
        (
            "core.reqs_per_block".into(),
            ratio(c.committed_requests as f64, blocks),
            "count",
        ),
        (
            "core.fast_commit_frac".into(),
            ratio(
                c.fast_commits as f64,
                (c.fast_commits + c.slow_commits) as f64,
            ),
            "ratio",
        ),
        (
            "core.fallbacks_per_block".into(),
            ratio(c.fallbacks as f64, blocks),
            "ratio",
        ),
        (
            "core.view_changes".into(),
            m.view_changes_total as f64,
            "count",
        ),
        (
            "core.client_retries_per_req".into(),
            ratio(c.client_retries as f64, done),
            "ratio",
        ),
    ];
    for (i, (name, _, _)) in sbft::telemetry::PHASE_COMPONENTS.iter().enumerate() {
        let (count, sum_ns) = c.phases[i];
        let mean_us = ratio(sum_ns as f64 / 1e3, count as f64);
        phase_sum += mean_us;
        layers.push((format!("core.phase_{name}_us"), mean_us, "us"));
    }
    let unattributed_us = e2e.latency_mean_ms * 1e3 - phase_sum;
    layers.extend([
        ("core.phase_unattributed_us".into(), unattributed_us, "us"),
        (
            "core.phase_unattributed_frac".into(),
            ratio(unattributed_us, e2e.latency_mean_ms * 1e3),
            "ratio",
        ),
        ("core.client_cpu_us_per_req".into(), cpu_us("client"), "us"),
    ]);
    let record_only = vec![
        (
            "transport.verify_pool_cpu_us_per_req".into(),
            cpu_us("verify_pool"),
            "us",
        ),
        (
            "core.exec_pool_cpu_us_per_req".into(),
            cpu_us("exec_pool"),
            "us",
        ),
        ("other.cpu_us_per_req".into(), cpu_us("other"), "us"),
    ];
    (layers, record_only)
}

/// The isolated layer costs as metrics.
fn cost_metrics(costs: &LayerCosts) -> Vec<Metric> {
    vec![
        ("crypto.share_sign_us".into(), costs.share_sign_us, "us"),
        ("crypto.share_verify_us".into(), costs.share_verify_us, "us"),
        ("crypto.combine_us".into(), costs.combine_us, "us"),
        (
            "wire.preprepare_encode_us".into(),
            costs.preprepare_encode_us,
            "us",
        ),
        (
            "wire.preprepare_decode_us".into(),
            costs.preprepare_decode_us,
            "us",
        ),
        ("statedb.exec_block_us".into(), costs.exec_block_us, "us"),
        ("statedb.wal_append_us".into(), costs.wal_append_us, "us"),
        ("statedb.wal_sync_us".into(), costs.wal_sync_us, "us"),
    ]
}

/// The median over rows of each metric; every row lists the same metrics
/// in the same order.
fn medians(rows: &[Vec<Metric>]) -> Vec<Metric> {
    rows[0]
        .iter()
        .enumerate()
        .map(|(j, (name, _, unit))| {
            (
                name.clone(),
                median(rows.iter().map(|r| r[j].1).collect()),
                *unit,
            )
        })
        .collect()
}

/// Each metric's values over rows, as one JSON object of lists.
fn per_boot_json(rows: &[Vec<Metric>]) -> String {
    let lists: Vec<String> = rows[0]
        .iter()
        .enumerate()
        .map(|(j, (name, _, _))| {
            format!(
                "\"{name}\": {}",
                json_list(rows.iter().map(|r| r[j].1.to_string()))
            )
        })
        .collect();
    format!("{{{}}}", lists.join(", "))
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Resolved pipeline widths on this host, as `deploy` would pick them.
fn resolved_widths() -> (usize, usize) {
    let addrs: Vec<String> = (1..=4).map(|p| format!("127.0.0.1:{p}")).collect();
    let spec =
        sbft::transport::ClusterSpec::parse(&sbft::deploy::loopback_config(1, 0, 0, &addrs, &[]))
            .expect("generated config parses");
    let inline = |w: usize| if w > 1 { w } else { 0 };
    (
        inline(spec.resolved_verify_threads()),
        inline(spec.resolved_exec_threads()),
    )
}

struct Report {
    attempted: u64,
    failed: u64,
    /// Metrics of the result line.
    metrics: Vec<Metric>,
    /// Extra `(key, JSON value)` pairs for the record.
    record: Vec<(String, String)>,
}

/// One measured boot, its window an equal share of the run's seconds.
fn run_boot(args: &Args, trace: bool) -> Result<(Boot, EndToEnd), String> {
    let length = Duration::from_millis(args.seconds * 1000 / args.bench.boots as u64);
    let boot = cluster::boot(&Plan {
        workload: &args.bench.workload,
        seed: args.seed,
        trace,
        window: Window {
            warmup: WARMUP,
            length: length.max(Duration::from_millis(100)),
        },
    })?;
    let e2e = EndToEnd::of(&boot.measured, boot.setup_s)?;
    Ok((boot, e2e))
}

fn json_list(values: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", values.into_iter().collect::<Vec<_>>().join(", "))
}

/// Every gated metric is the median over untraced boots, so one boot
/// that settles into an unusual regime does not move the run.
fn run_untraced(args: &Args) -> Result<Report, String> {
    let mut rows = Vec::new();
    let mut diagnostics = Vec::new();
    let mut counters = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..args.bench.boots {
        let (boot, e2e) = run_boot(args, false)?;
        let m = &boot.measured;
        rows.push(e2e.gated());
        diagnostics.push(json_metrics(&e2e.diagnostics()));
        counters.push(counters_json(m));
        attempted += m.offered;
        failed += m.timed_out;
    }
    Ok(Report {
        attempted,
        failed,
        metrics: medians(&rows),
        record: vec![
            ("boots".into(), per_boot_json(&rows)),
            ("diagnostics".into(), json_list(diagnostics)),
            ("counters".into(), json_list(counters)),
        ],
    })
}

/// Alternates untraced and traced boots, so both sides see the same host
/// speed as it drifts; the per-layer metrics are
/// medians over the traced boots, and the tracing overhead is the
/// difference of the two sides' medians. The layer calls run last, while
/// no cluster is up, on blocks shaped like the untraced boots' blocks.
fn run_traced(args: &Args) -> Result<Report, String> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut reqs_per_block = Vec::new();
    let (mut layer_rows, mut record_rows) = (Vec::new(), Vec::new());
    let mut counters = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for i in 0..args.bench.boots {
        let trace = i % 2 == 1;
        let (boot, e2e) = run_boot(args, trace)?;
        let m = &boot.measured;
        if trace {
            let (layers, record_only) = per_layer(m, &e2e);
            layer_rows.push(layers);
            record_rows.push(record_only);
            traced.push(e2e.gated());
        } else {
            reqs_per_block.push(ratio(
                m.counters.committed_requests as f64,
                m.counters.committed_blocks as f64,
            ));
            plain.push(e2e.gated());
        }
        counters.push(counters_json(m));
        attempted += m.offered;
        failed += m.timed_out;
    }
    let costs = layers::measure(
        args.seed,
        median(reqs_per_block),
        args.bench.workload.ops_per_request,
        &args.tmp,
    );
    let (plain, traced) = (medians(&plain), medians(&traced));
    let mut metrics = medians(&layer_rows);
    metrics.extend(cost_metrics(&costs));
    metrics.extend(
        traced
            .iter()
            .zip(&plain)
            .map(|((name, traced, unit), (_, plain, _))| {
                (format!("trace_overhead.{name}"), traced - plain, *unit)
            }),
    );
    Ok(Report {
        attempted,
        failed,
        metrics,
        record: vec![
            ("untraced".into(), json_metrics(&plain)),
            ("traced".into(), json_metrics(&traced)),
            (
                "layers_record_only".into(),
                json_metrics(&medians(&record_rows)),
            ),
            ("counters".into(), json_list(counters)),
        ],
    })
}

fn counters_json(m: &Measured) -> String {
    let c = &m.counters;
    let groups: Vec<String> = m
        .groups
        .iter()
        .map(|(g, cpu)| format!("\"{g}\": {cpu}"))
        .collect();
    format!(
        "{{\"offered\": {}, \"completed\": {}, \"timed_out\": {}, \
         \"frames_sent\": {}, \"bytes_sent\": {}, \"dropped\": {}, \
         \"committed_requests\": {}, \"committed_blocks\": {}, \"fast_commits\": {}, \
         \"slow_commits\": {}, \"fast_path_fallbacks\": {}, \"view_changes_total\": {}, \
         \"client_retries\": {}, \"process_cpu_s\": {}, \"host_steal_frac\": {}, \
         \"thread_cpu_s\": {{{}}}}}",
        m.offered,
        m.completed,
        m.timed_out,
        c.frames_sent,
        c.bytes_sent,
        c.dropped,
        c.committed_requests,
        c.committed_blocks,
        c.fast_commits,
        c.slow_commits,
        c.fallbacks,
        m.view_changes_total,
        c.client_retries,
        m.process_cpu_s,
        m.host_steal_frac,
        groups.join(", "),
    )
}

fn record_line(args: &Args, report: &Report) -> String {
    let cpus = std::thread::available_parallelism().map_or(0, |c| c.get());
    let host_cores = std::fs::read_to_string("/proc/stat").map_or(0, |stat| {
        stat.lines()
            .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
            .count()
    });
    let (verify, exec) = resolved_widths();
    let mut line = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rev\": \"{}\", \
         \"host_cores\": {host_cores}, \"cpus_used\": {cpus}, \"verify_threads\": {verify}, \"exec_threads\": {exec}, \
         \"injected_delay\": \"none\", \"crypto\": \"CryptoCostModel::free() over the discrete-log \
         stand-in group; crypto costs are about 1000x below real BLS\", \
         \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
        args.bench.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rev,
        report.attempted,
        report.failed,
        json_metrics(&report.metrics),
    );
    for (key, value) in &report.record {
        let _ = write!(line, ", \"{key}\": {value}");
    }
    line.push('}');
    line
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sbft-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.tmp) {
        eprintln!("sbft-perfbench: cannot create {}: {e}", args.tmp.display());
        return ExitCode::FAILURE;
    }
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    let report =
        match result.and_then(
            |report| match report.metrics.iter().find(|m| !m.1.is_finite()) {
                Some((name, _, _)) => Err(format!("metric {name} is not finite")),
                None => Ok(report),
            },
        ) {
            Ok(report) => report,
            Err(e) => {
                // A failed run reports the failure and no numbers.
                eprintln!("sbft-perfbench: {}: {e}", args.bench.workload.name);
                println!(
                    "{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}"
                );
                return ExitCode::FAILURE;
            }
        };
    let record = record_line(&args, &report);
    for (name, value, unit) in &report.metrics {
        println!(
            "{:<44} {value:>14.4} {unit}",
            format!("{}.{name}", args.bench.workload.name)
        );
    }
    println!("record {record}");
    if let Some(path) = &args.record {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{record}"));
        if let Err(e) = appended {
            eprintln!("sbft-perfbench: cannot append to {}: {e}", path.display());
        }
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics(&report.metrics)
    );
    ExitCode::SUCCESS
}
