//! Open-loop saturation sweep through the gateway (`BENCH_gateway.json`).
//!
//! Closed-loop benches (`loopback_throughput`) cannot see the saturation
//! knee: their clients slow down with the cluster, so offered load never
//! exceeds capacity. This bench boots a real TCP loopback cluster behind
//! the gateway front door, registers a large block of logical client
//! sessions (the 100k-client shape of SBFT's §I scaling story — session
//! tickets against the memoized key cache, no per-request PKI), and
//! offers *arrival-rate driven* load that keeps coming regardless of
//! completions. The rate doubles per sweep point until well past
//! saturation, recording goodput, shed rate, and latency percentiles at
//! each step — the graceful-degradation curve the front door exists to
//! produce.
//!
//! Usage:
//!
//! ```text
//! gateway_openloop [--smoke] [--sessions N] [--rate-start N] [--points N]
//!                  [--window SECS] [--check] [--json PATH] [--no-json]
//! ```
//!
//! `--smoke` is the CI shape: 1k sessions, short windows, floor
//! assertions instead of the full degradation check. `--check` asserts
//! the acceptance bar: at 2x the saturation rate, goodput holds >= 70%
//! of peak and the excess is shed explicitly rather than collapsing.

use std::time::{Duration, Instant};

use sbft::deploy::{replica_backlog, LoopbackCluster};
use sbft::gateway::{AdmissionConfig, OpenLoopConfig, OpenLoopDriver, OpenLoopStats};
use sbft::sim::SampleStats;
use sbft_bench::trajectory::Trajectory;

struct Args {
    sessions: usize,
    rate_start: u64,
    points: usize,
    window: Duration,
    smoke: bool,
    check: bool,
    json: Option<String>,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        sessions: 100_000,
        rate_start: 1_000,
        points: 8,
        window: Duration::from_secs(5),
        smoke: false,
        check: false,
        json: Some("BENCH_gateway.json".to_string()),
    };
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].clone();
        let mut value = |name: &str| -> String {
            i += 1;
            argv.get(i)
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .clone()
        };
        match arg.as_str() {
            "--smoke" => {
                args.smoke = true;
                args.sessions = 1_000;
                args.rate_start = 500;
                args.points = 3;
                args.window = Duration::from_secs(2);
            }
            "--sessions" => args.sessions = value("--sessions").parse().expect("bad --sessions"),
            "--rate-start" => {
                args.rate_start = value("--rate-start").parse().expect("bad --rate-start")
            }
            "--points" => args.points = value("--points").parse().expect("bad --points"),
            "--window" => {
                args.window = Duration::from_secs(value("--window").parse().expect("bad --window"))
            }
            "--check" => args.check = true,
            "--json" => args.json = Some(value("--json")),
            "--no-json" => args.json = None,
            other => panic!("unknown argument `{other}`"),
        }
        i += 1;
    }
    args
}

/// One measured sweep point.
struct Point {
    offered_rate: u64,
    offered_per_sec: f64,
    admitted_per_sec: f64,
    goodput_per_sec: f64,
    shed_per_sec: f64,
    shed_fraction: f64,
    p50_ms: f64,
    p99_ms: f64,
    timed_out: u64,
}

fn delta(now: OpenLoopStats, before: OpenLoopStats) -> OpenLoopStats {
    OpenLoopStats {
        offered: now.offered - before.offered,
        shed: now.shed - before.shed,
        exhausted: now.exhausted - before.exhausted,
        overrun: now.overrun - before.overrun,
        timed_out: now.timed_out - before.timed_out,
        completed: now.completed - before.completed,
    }
}

fn main() {
    let args = parse_args();
    let f = 1;
    let n = 3 * f + 1;
    let seed = 0x9a7e;

    let mut cluster =
        LoopbackCluster::start(f, 0, seed, 0, Some(args.sessions), "").expect("cluster boots");

    // Registration is the session-ticket pass: all logical clients derive
    // their keys once, here, through the memoized cache.
    let registered = Instant::now();
    let mut gateway = cluster
        .gateway(
            AdmissionConfig::default(),
            OpenLoopConfig {
                arrivals_per_sec: args.rate_start,
                ..OpenLoopConfig::default()
            },
        )
        .expect("gateway boots");
    eprintln!(
        "registered {} sessions in {:.2}s; sweeping {} points x{:?} from {}/s",
        args.sessions,
        registered.elapsed().as_secs_f64(),
        args.points,
        args.window,
        args.rate_start,
    );

    // Warmup: let connections establish and the first batches commit.
    gateway.poll(Duration::from_secs(1));

    let mut points: Vec<Point> = Vec::new();
    let mut rate = args.rate_start;
    for _ in 0..args.points {
        gateway
            .node_as_mut::<OpenLoopDriver>()
            .expect("gateway driver")
            .set_rate(rate);
        let before = gateway
            .node_as::<OpenLoopDriver>()
            .expect("gateway driver")
            .stats();
        // Drain latencies from previous windows so percentiles are
        // window-local.
        let _ = gateway
            .node_as_mut::<OpenLoopDriver>()
            .expect("gateway driver")
            .take_latencies();
        let started = Instant::now();
        let mut latencies_ns: Vec<u64> = Vec::new();
        while started.elapsed() < args.window {
            gateway.poll(Duration::from_millis(50));
            let pressure = replica_backlog(&gateway, n);
            let driver = gateway
                .node_as_mut::<OpenLoopDriver>()
                .expect("gateway driver");
            driver.set_external_pressure(pressure);
            latencies_ns.extend(driver.take_latencies());
        }
        let elapsed = started.elapsed().as_secs_f64();
        let after = gateway
            .node_as::<OpenLoopDriver>()
            .expect("gateway driver")
            .stats();
        let d = delta(after, before);
        let latencies_ms: Vec<f64> = latencies_ns
            .iter()
            .map(|ns| *ns as f64 / 1_000_000.0)
            .collect();
        let stats = SampleStats::from_samples(&latencies_ms);
        let admitted = d.offered - d.shed - d.exhausted;
        let point = Point {
            offered_rate: rate,
            offered_per_sec: d.offered as f64 / elapsed,
            admitted_per_sec: admitted as f64 / elapsed,
            goodput_per_sec: d.completed as f64 / elapsed,
            shed_per_sec: d.shed as f64 / elapsed,
            shed_fraction: if d.offered > 0 {
                d.shed as f64 / d.offered as f64
            } else {
                0.0
            },
            p50_ms: stats.as_ref().map(|s| s.median).unwrap_or(0.0),
            p99_ms: stats.as_ref().map(|s| s.p99).unwrap_or(0.0),
            timed_out: d.timed_out,
        };
        eprintln!(
            "rate {:>7}/s: offered {:>8.0}/s goodput {:>8.0}/s shed {:>7.0}/s ({:>4.1}%) \
             p50 {:>7.2}ms p99 {:>7.2}ms timed-out {}",
            point.offered_rate,
            point.offered_per_sec,
            point.goodput_per_sec,
            point.shed_per_sec,
            point.shed_fraction * 100.0,
            point.p50_ms,
            point.p99_ms,
            point.timed_out,
        );
        points.push(point);
        rate *= 2;
    }

    cluster.stop(|_, _| ()).expect("replicas stop");

    // The curve's shape: peak goodput, where it saturates, and how much
    // survives at double that offered load.
    let peak = points
        .iter()
        .map(|p| p.goodput_per_sec)
        .fold(0.0f64, f64::max);
    let knee = points
        .iter()
        .enumerate()
        .max_by(|a, b| {
            a.1.goodput_per_sec
                .partial_cmp(&b.1.goodput_per_sec)
                .expect("finite goodput")
        })
        .map(|(i, _)| i)
        .unwrap_or(0);
    let saturation_rate = points[knee].offered_rate;
    let at_double = points
        .iter()
        .find(|p| p.offered_rate >= saturation_rate * 2)
        .map(|p| p.goodput_per_sec);
    let retained = at_double.map(|g| if peak > 0.0 { g / peak } else { 0.0 });
    println!(
        "peak goodput {peak:.0}/s at offered {saturation_rate}/s; at 2x saturation: {}",
        match retained {
            Some(r) => format!("{:.0}% of peak", r * 100.0),
            None => "not reached (knee at the last sweep point)".to_string(),
        }
    );

    if let Some(path) = &args.json {
        let mut record = Trajectory::new("gateway_openloop");
        record.field_u64("sessions", args.sessions as u64);
        record.field_u64("window_secs", args.window.as_secs());
        record.field_f64("peak_goodput_per_sec", peak);
        record.field_u64("saturation_offered_per_sec", saturation_rate);
        record.field_f64(
            "goodput_retained_at_2x_pct",
            retained.map(|r| r * 100.0).unwrap_or(-1.0),
        );
        for p in &points {
            record.point(format!(
                "{{\"offered_rate\": {}, \"offered_per_sec\": {:.1}, \
                 \"admitted_per_sec\": {:.1}, \"goodput_per_sec\": {:.1}, \
                 \"shed_per_sec\": {:.1}, \"shed_fraction\": {:.4}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"timed_out\": {}}}",
                p.offered_rate,
                p.offered_per_sec,
                p.admitted_per_sec,
                p.goodput_per_sec,
                p.shed_per_sec,
                p.shed_fraction,
                p.p50_ms,
                p.p99_ms,
                p.timed_out,
            ));
        }
        record.write(path);
    }

    if args.smoke {
        // CI floors: the pipeline ran end to end — sessions registered,
        // arrivals offered, the cluster committed through the mux.
        let total: u64 = points.iter().map(|p| p.offered_per_sec as u64).sum();
        assert!(total > 0, "smoke: no arrivals offered");
        assert!(
            peak > 0.0,
            "smoke: nothing completed through the gateway (peak goodput 0)"
        );
        println!("smoke floors passed: peak goodput {peak:.0}/s");
    }
    if args.check {
        // The acceptance bar: graceful degradation, not silent collapse.
        let retained = retained.expect(
            "degradation check needs a sweep point at 2x the saturation rate — \
             raise --points or --rate-start",
        );
        assert!(
            retained >= 0.70,
            "goodput at 2x saturation fell to {:.0}% of peak (bar: 70%)",
            retained * 100.0
        );
        let past_knee = &points[knee + 1..];
        assert!(
            past_knee.iter().any(|p| p.shed_per_sec > 0.0),
            "overload must shed explicitly via Busy, not just queue"
        );
        println!(
            "degradation check passed: {:.0}% of peak at 2x saturation",
            retained * 100.0
        );
    }
}
