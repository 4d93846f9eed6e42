//! Micro-benchmark of the intra-block parallel execution pipeline: how
//! fast the conflict scheduler + wave pool execute realistic blocks at
//! different worker counts, isolated from consensus. This is the number
//! that bounds how much replica CPU the execution thread can absorb
//! once whole-block execution leaves the node thread.
//!
//! Two workloads, mirroring the seeded cross-check suite: a key-value
//! block stream (random puts over a bounded key space — disjoint write
//! sets, so waves go wide) and the §IX Ethereum-like contract trace
//! (per-account read/write sets with real conflicts and occasional
//! whole-state fallbacks). Every sweep point re-executes the same
//! blocks from genesis and must land on the serial path's state digest
//! — determinism is asserted, not assumed.
//!
//! Flags: `--threads a,b,c` (worker counts; default 1,2,4), `--blocks N`
//! (default 200), `--ops N` (ops per KV block, default 128),
//! `--json PATH` (default `BENCH_execute.json`), `--no-json`, `--smoke`
//! (tiny run + sanity gate, for CI).

use std::time::Instant;

use sbft_bench::trajectory::Trajectory;
use sbft_crypto::SplitMix64;
use sbft_evm::{generate_eth_trace, EthTraceConfig, EvmService};
use sbft_statedb::{KvOp, KvService, RawOp, Service, WavePool};
use sbft_types::{Digest, SeqNum};
use sbft_wire::Wire;

struct Args {
    threads: Vec<usize>,
    blocks: usize,
    ops_per_block: usize,
    json_path: Option<String>,
    smoke: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        threads: vec![1, 2, 4],
        blocks: 200,
        ops_per_block: 128,
        json_path: Some("BENCH_execute.json".to_string()),
        smoke: false,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--threads" => {
                i += 1;
                args.threads = argv
                    .get(i)
                    .expect("--threads needs a,b,c")
                    .split(',')
                    .map(|s| s.parse().expect("thread count"))
                    .collect();
            }
            "--blocks" => {
                i += 1;
                args.blocks = argv
                    .get(i)
                    .expect("--blocks needs a count")
                    .parse()
                    .expect("block count");
            }
            "--ops" => {
                i += 1;
                args.ops_per_block = argv
                    .get(i)
                    .expect("--ops needs a count")
                    .parse()
                    .expect("op count");
            }
            "--json" => {
                i += 1;
                args.json_path = Some(argv.get(i).expect("--json needs a path").clone());
            }
            "--no-json" => args.json_path = None,
            "--smoke" => {
                args.smoke = true;
                args.blocks = 40;
                args.ops_per_block = 64;
                args.threads = vec![1, 2];
            }
            other => panic!("unknown argument `{other}`"),
        }
        i += 1;
    }
    args
}

/// Seed-derived key-value blocks: random puts across a key space wide
/// enough that most blocks plan into a handful of broad waves.
fn kv_blocks(blocks: usize, ops_per_block: usize) -> Vec<Vec<RawOp>> {
    let mut rng = SplitMix64::new(0xb10c);
    (0..blocks)
        .map(|_| {
            (0..ops_per_block)
                .map(|_| {
                    let key = format!("key-{:05}", rng.next_u64() % 4096);
                    let value = rng.next_u64().to_le_bytes().to_vec();
                    KvOp::Put {
                        key: key.into_bytes(),
                        value,
                    }
                    .to_wire_bytes()
                })
                .collect()
        })
        .collect()
}

/// The §IX contract trace, chunked into client-batch-sized blocks.
fn evm_blocks(blocks: usize, ops_per_block: usize) -> Vec<Vec<RawOp>> {
    let transactions = blocks * ops_per_block;
    let trace = generate_eth_trace(&EthTraceConfig {
        transactions,
        contracts: (transactions / 100).max(10),
        accounts: (transactions / 10).max(100),
        gas_limit: 1_000_000,
        seed: 0xe7e7,
    });
    trace.chunks(ops_per_block).map(<[RawOp]>::to_vec).collect()
}

struct Point {
    backend: &'static str,
    threads: usize,
    blocks_per_s: f64,
    ops_per_s: f64,
    digest: Digest,
}

/// Executes every block from genesis on a fresh service through the
/// wave pool, returning throughput and the final state digest.
fn measure(
    backend: &'static str,
    service: &mut dyn Service,
    blocks: &[Vec<RawOp>],
    threads: usize,
) -> Point {
    let pool = WavePool::new(threads);
    let total_ops: usize = blocks.iter().map(Vec::len).sum();
    let started = Instant::now();
    for (i, ops) in blocks.iter().enumerate() {
        service.execute_block_parallel(SeqNum::new(1 + i as u64), ops, &pool);
    }
    let elapsed = started.elapsed().as_secs_f64();
    Point {
        backend,
        threads,
        blocks_per_s: blocks.len() as f64 / elapsed,
        ops_per_s: total_ops as f64 / elapsed,
        digest: service.state_digest(),
    }
}

fn write_json(path: &str, blocks: usize, ops_per_block: usize, points: &[Point]) {
    let mut record = Trajectory::new("execute_pipeline");
    record.field_u64("blocks", blocks as u64);
    record.field_u64("ops_per_block", ops_per_block as u64);
    for p in points {
        record.point(format!(
            "{{\"backend\": \"{}\", \"threads\": {}, \"blocks_per_s\": {:.1}, \
             \"ops_per_s\": {:.1}}}",
            p.backend, p.threads, p.blocks_per_s, p.ops_per_s,
        ));
    }
    record.write(path);
}

fn main() {
    let args = parse_args();
    println!(
        "execution pipeline micro-bench: {} blocks × {} ops, kv + evm",
        args.blocks, args.ops_per_block
    );
    println!(
        "{:>8} {:>8} {:>14} {:>14}",
        "backend", "threads", "blocks/s", "ops/s"
    );
    let mut points = Vec::new();
    let kv = kv_blocks(args.blocks, args.ops_per_block);
    // EVM blocks are ~50 txs in the paper's workload; keep them smaller
    // than the KV blocks so the sweep finishes in comparable time.
    let evm = evm_blocks(args.blocks, (args.ops_per_block / 2).max(8));
    for (backend, blocks) in [("kv", &kv), ("evm", &evm)] {
        // Serial reference digest: the plain `execute_block` path that
        // `--exec-threads 1` deployments still run.
        let reference = {
            let mut service: Box<dyn Service> = match backend {
                "kv" => Box::new(KvService::new()),
                _ => Box::new(EvmService::new()),
            };
            for (i, ops) in blocks.iter().enumerate() {
                service.execute_block(SeqNum::new(1 + i as u64), ops);
            }
            service.state_digest()
        };
        for &threads in &args.threads {
            let mut service: Box<dyn Service> = match backend {
                "kv" => Box::new(KvService::new()),
                _ => Box::new(EvmService::new()),
            };
            let point = measure(backend, service.as_mut(), blocks, threads);
            println!(
                "{:>8} {:>8} {:>14.1} {:>14.1}",
                point.backend, point.threads, point.blocks_per_s, point.ops_per_s
            );
            assert_eq!(
                point.digest, reference,
                "DETERMINISM: {backend} at {threads} workers diverged from the serial digest"
            );
            points.push(point);
        }
    }
    if let Some(path) = &args.json_path {
        write_json(path, args.blocks, args.ops_per_block, &points);
    }
    if args.smoke {
        // Sanity floor, not a perf gate: even one slow shared core
        // executes hundreds of small blocks per second.
        let best = points.iter().map(|p| p.blocks_per_s).fold(0.0f64, f64::max);
        assert!(
            best >= 10.0,
            "execution pipeline impossibly slow: {best:.1} blocks/s"
        );
        println!("execution smoke ok: {best:.1} blocks/s best, digests match serial");
    }
}
