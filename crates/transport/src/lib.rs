//! Real-socket transport and node runtime for the SBFT reproduction.
//!
//! The protocol crates are sans-IO: [`sbft_sim::Node`] state machines
//! driven by messages and timers. The discrete-event simulator is one
//! backend; this crate is the other — the one that makes the repro
//! *deployable*, as the paper's own evaluation ran on real sockets over
//! real WANs (§IX). Three layers:
//!
//! - [`frame`]: length-prefixed framing over the [`sbft_wire`] codec,
//!   with exact byte accounting and a connection [`Handshake`].
//! - [`TcpTransport`]: a TCP mesh on `std::net` and one epoll loop per
//!   node (the workspace is intentionally dependency-free, so the two
//!   Linux calls `std` lacks are declared in one small FFI module). The
//!   node thread owns its sockets: it reads every ready socket once per
//!   pass and writes sends inline, with bounded per-peer backlogs,
//!   automatic reconnect with exponential backoff, sever/stat controls,
//!   and counters mirroring the simulator's [`sbft_sim::Metrics`]
//!   labels. Linux only.
//! - [`NodeRuntime`]: adapts the sim's `Context`/timer API to wall-clock
//!   deadlines so `ReplicaNode`, `ClientNode` and the PBFT baseline run
//!   unchanged over real sockets, passing every inbound frame through
//!   the node's verifier in a [`VerifyPool`].
//!
//! [`ClusterSpec`] is the plain-text cluster config the `sbft-node`
//! binary consumes; see the repository README ("Running a real cluster").
//!
//! # Examples
//!
//! Two bare transports on loopback (in-process; a real deployment runs
//! one process per node). Receiving runs the receiver's event loop:
//!
//! ```
//! use sbft_transport::{TcpTransport, TransportConfig};
//! use std::net::TcpListener;
//! use std::time::Duration;
//!
//! let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
//! let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
//! let a0 = l0.local_addr().unwrap().to_string();
//! let a1 = l1.local_addr().unwrap().to_string();
//! let t0 = TcpTransport::with_listener(TransportConfig::new(0, vec![(1, a1)]), l0).unwrap();
//! let t1 = TcpTransport::with_listener(TransportConfig::new(1, vec![(0, a0)]), l1).unwrap();
//! t0.send(1, b"hello".to_vec());
//! let (from, payload) = t1.recv_timeout(Duration::from_secs(5)).unwrap();
//! assert_eq!((from, payload.as_slice()), (0, &b"hello"[..]));
//! ```

pub mod config;
pub mod frame;
pub mod runtime;
mod sys;
pub mod tcp;
pub mod verify;

pub use config::{ClusterSpec, ConfigError, TransportProfile, VariantName};
pub use frame::{
    encode_frame_into, encode_frame_with, frame_len, framed_len, read_frame, read_msg, write_frame,
    write_msg, FrameReader, Handshake, DEFAULT_MAX_FRAME, FRAME_HEADER_BYTES,
};
pub use runtime::NodeRuntime;
pub use tcp::{
    AliasRoute, InboundInjector, TcpTransport, TransportConfig, TransportControl, TransportStats,
    Waker,
};
pub use verify::{VerifyPool, VerifyPoolStats};
