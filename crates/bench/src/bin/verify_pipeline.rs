//! Micro-benchmark of the parallel verification pipeline itself: how
//! fast a `VerifyPool` decodes + pre-verifies realistic SBFT traffic at
//! different worker counts, isolated from consensus. This is the number
//! that bounds how much replica-thread CPU the pipeline can absorb on a
//! multi-core host.
//!
//! Traffic mix per 8 frames: 4 client requests (PKI HMAC checks), 2
//! sign-state shares (π share verification, RLC-batched), 1 pre-prepare
//! carrying 4 requests, 1 full-execute-proof (combined signature).
//!
//! Flags: `--threads a,b,c` (worker counts to sweep, 1 = screened on the
//! receiving thread; default 1,2,4),
//! `--frames N` (default 20000), `--json PATH`
//! (default `BENCH_verify_pipeline.json`), `--no-json`, `--smoke`
//! (tiny run + sanity gate, for CI).

use std::sync::Arc;
use std::time::{Duration, Instant};

use sbft::core::{
    ClientRequest, KeyMaterial, ProtocolConfig, SbftMsg, SbftPreVerifier, VariantFlags,
};
use sbft::transport::VerifyPool;
use sbft_bench::trajectory::Trajectory;
use sbft_core::DOMAIN_PI;
use sbft_crypto::sha256;
use sbft_types::{ClientId, SeqNum, ViewNum};
use sbft_wire::Wire;

struct Args {
    threads: Vec<usize>,
    frames: usize,
    json_path: Option<String>,
    smoke: bool,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        threads: vec![1, 2, 4],
        frames: 20_000,
        json_path: Some("BENCH_verify_pipeline.json".to_string()),
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
            "--frames" => {
                i += 1;
                args.frames = argv
                    .get(i)
                    .expect("--frames needs a count")
                    .parse()
                    .expect("frame count");
            }
            "--json" => {
                i += 1;
                args.json_path = Some(argv.get(i).expect("--json needs a path").clone());
            }
            "--no-json" => args.json_path = None,
            "--smoke" => {
                args.smoke = true;
                args.frames = 4_000;
                args.threads = vec![2];
            }
            other => panic!("unknown argument `{other}`"),
        }
        i += 1;
    }
    args
}

/// Builds one measurement's worth of encoded frames (the same for every
/// thread count, so sweeps compare like with like).
fn build_frames(keys: &KeyMaterial, frames: usize) -> Vec<(usize, Vec<u8>)> {
    let digests: Vec<_> = (0..16u8).map(|i| sha256(&[i, 0x5b])).collect();
    let mut out = Vec::with_capacity(frames);
    for i in 0..frames {
        let peer = i % 4;
        let msg = match i % 8 {
            0..=3 => {
                let client = ClientId::new((i % 7) as u32);
                SbftMsg::Request(ClientRequest::signed(
                    client,
                    i as u64,
                    vec![0xab; 32],
                    &keys.public.client_keys(client),
                ))
            }
            4 | 5 => {
                let digest = digests[i % digests.len()];
                SbftMsg::SignState {
                    seq: SeqNum::new(1 + (i as u64 % 32)),
                    digest,
                    share: keys.replicas[peer].pi.sign(DOMAIN_PI, &digest),
                }
            }
            6 => {
                let requests: Vec<ClientRequest> = (0..4)
                    .map(|j| {
                        let client = ClientId::new(((i + j) % 7) as u32);
                        ClientRequest::signed(
                            client,
                            (i + j) as u64,
                            vec![0xcd; 32],
                            &keys.public.client_keys(client),
                        )
                    })
                    .collect();
                SbftMsg::PrePrepare {
                    seq: SeqNum::new(1 + (i as u64 % 32)),
                    view: ViewNum::ZERO,
                    requests,
                }
            }
            _ => {
                let digest = digests[i % digests.len()];
                let shares: Vec<_> = keys
                    .replicas
                    .iter()
                    .take(2)
                    .map(|r| r.pi.sign(DOMAIN_PI, &digest))
                    .collect();
                let pi = keys
                    .public
                    .pi
                    .combine(DOMAIN_PI, &digest, &shares)
                    .expect("π combines");
                SbftMsg::FullExecuteProof {
                    seq: SeqNum::new(1 + (i as u64 % 32)),
                    digest,
                    pi,
                }
            }
        };
        out.push((peer, msg.to_wire_bytes()));
    }
    out
}

struct Point {
    threads: usize,
    frames_per_s: f64,
    us_per_frame: f64,
}

fn measure(frames: &[(usize, Vec<u8>)], threads: usize, verifier: Arc<SbftPreVerifier>) -> Point {
    let pool: VerifyPool<SbftMsg> = VerifyPool::start(
        verifier,
        threads,
        sbft::transport::verify::VERIFY_BATCH,
        4096,
        &sbft::telemetry::Registry::new(),
        None,
    );
    let started = Instant::now();
    // Screened here below two workers; queued for the workers (their
    // releases drained as they come) otherwise.
    let mut released = 0usize;
    for (peer, payload) in frames {
        released += usize::from(pool.submit(*peer, payload).is_some());
        while pool.try_recv().is_some() {
            released += 1;
        }
    }
    while released < frames.len() {
        match pool.recv_timeout(Duration::from_secs(30)) {
            Some(_) => released += 1,
            None => panic!("pipeline stalled at {released}/{} frames", frames.len()),
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let stats = pool.stats();
    assert_eq!(stats.verify_rejects, 0, "all frames are honest");
    assert_eq!(stats.decode_errors, 0);
    Point {
        threads,
        frames_per_s: frames.len() as f64 / elapsed,
        us_per_frame: elapsed * 1e6 / frames.len() as f64,
    }
}

fn write_json(path: &str, frames: usize, points: &[Point]) {
    let mut record = Trajectory::new("verify_pipeline");
    record.field_u64("frames", frames as u64);
    for p in points {
        record.point(format!(
            "{{\"threads\": {}, \"frames_per_s\": {:.1}, \"us_per_frame\": {:.2}}}",
            p.threads, p.frames_per_s, p.us_per_frame,
        ));
    }
    record.write(path);
}

fn main() {
    let args = parse_args();
    let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
    let keys = KeyMaterial::generate(&config, 0x5bf7);
    let verifier = Arc::new(SbftPreVerifier::new(keys.public.clone()));
    println!(
        "verify pipeline micro-bench: {} frames (requests / shares / pre-prepares / proofs)",
        args.frames
    );
    let frames = build_frames(&keys, args.frames);
    println!("{:>8} {:>14} {:>12}", "threads", "frames/s", "µs/frame");
    let mut points = Vec::new();
    for &threads in &args.threads {
        let point = measure(&frames, threads, verifier.clone());
        println!(
            "{:>8} {:>14.1} {:>12.2}",
            point.threads, point.frames_per_s, point.us_per_frame
        );
        points.push(point);
    }
    if let Some(path) = &args.json_path {
        write_json(path, args.frames, &points);
    }
    if args.smoke {
        // Sanity floor, not a perf gate: even one slow shared core
        // decodes and verifies thousands of frames per second.
        let best = points.iter().map(|p| p.frames_per_s).fold(0.0f64, f64::max);
        assert!(
            best >= 1_000.0,
            "verification pipeline impossibly slow: {best:.1} frames/s"
        );
        println!("pipeline smoke ok: {best:.1} frames/s");
    }
}
