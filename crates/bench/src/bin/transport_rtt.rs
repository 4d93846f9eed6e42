//! Raw transport round-trip: one frame each way between two
//! `TcpTransport`s on loopback, no protocol on top. This isolates the
//! wire path's per-frame cost — the inline send syscall, then the
//! receiving thread's wakeup from its epoll wait and one `read` — from
//! the consensus logic layered above it, so wire-path regressions show
//! up without running a whole cluster.
//!
//! Flags: `--rounds N` (default 20000), `--payload BYTES` (default 64).

use std::net::TcpListener;
use std::time::{Duration, Instant};

use sbft::transport::{TcpTransport, TransportConfig};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut rounds = 20_000u32;
    let mut payload_len = 64usize;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--rounds" => {
                i += 1;
                rounds = argv[i].parse().expect("rounds");
            }
            "--payload" => {
                i += 1;
                payload_len = argv[i].parse().expect("payload bytes");
            }
            other => panic!("unknown argument `{other}`"),
        }
        i += 1;
    }

    let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
    let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
    let a0 = l0.local_addr().expect("addr").to_string();
    let a1 = l1.local_addr().expect("addr").to_string();
    let t0 = TcpTransport::with_listener(TransportConfig::new(0, vec![(1, a1)]), l0).expect("t0");
    let t1 = TcpTransport::with_listener(TransportConfig::new(1, vec![(0, a0)]), l1).expect("t1");

    let echo = std::thread::spawn(move || {
        let mut echoed = 0u32;
        while echoed < rounds {
            if let Some((_, payload)) = t1.recv_timeout(Duration::from_secs(5)) {
                t1.send(0, payload);
                echoed += 1;
            } else {
                break;
            }
        }
        echoed
    });

    // Warm the connections up.
    t0.send(1, vec![0u8; payload_len]);
    assert!(t0.recv_timeout(Duration::from_secs(5)).is_some());

    let started = Instant::now();
    let mut completed = 0u32;
    for _ in 1..rounds {
        t0.send(1, vec![7u8; payload_len]);
        if t0.recv_timeout(Duration::from_secs(5)).is_none() {
            break;
        }
        completed += 1;
    }
    let elapsed = started.elapsed();
    echo.join().expect("echo thread");
    let rtt_us = elapsed.as_secs_f64() * 1e6 / completed as f64;
    println!(
        "transport rtt: {completed} rounds of {payload_len} B, {:.1} us/rtt ({:.1} us one-way)",
        rtt_us,
        rtt_us / 2.0
    );
    let stats = t0.control().stats();
    println!(
        "wire: {} frames / {} B sent, {} frames / {} B received",
        stats.frames_sent, stats.bytes_sent, stats.frames_received, stats.bytes_received
    );
}
