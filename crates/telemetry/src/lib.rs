//! Zero-dependency observability core for the SBFT reproduction.
//!
//! Every thread in a running node — the `!Send` node thread with its
//! socket loop, the transport's dial threads, the VerifyPool workers —
//! shares one [`Registry`] of metrics. Registration (name → handle)
//! takes a mutex once, on the cold path; the handles themselves are
//! `Arc`-wrapped atomics, so the hot paths never lock:
//!
//! - [`Counter`]: monotone `u64` (relaxed `fetch_add`).
//! - [`Gauge`]: signed level (`store`), e.g. queue depths.
//! - [`Histogram`]: fixed log₂ buckets with 16 linear sub-buckets each
//!   (≤ 6.25 % relative error), for latencies and frame sizes. Bounded
//!   memory regardless of how long the process runs — this is also the
//!   sample store backing `sbft_sim::Metrics`, replacing its old
//!   unbounded `Vec<f64>`.
//!
//! The [`PhaseTracer`] stamps each client request's lifecycle
//! (received → pre-prepared → share-signed → committed → executed →
//! replied) into a bounded ring of [`Span`]s and decomposes the
//! adjacent-phase durations into per-component latency histograms
//! (queue / verify / consensus / execute / reply).
//!
//! [`serve`] exposes both over a std-only HTTP endpoint: Prometheus
//! text exposition at `/metrics`, recent trace spans as JSON at
//! `/trace` (`sbft-node --metrics-addr`).

mod histogram;
mod http;
mod registry;
mod trace;

pub use histogram::{Histogram, HistogramSnapshot};
pub use http::serve;
pub use registry::{Counter, Gauge, Registry, RegistrySnapshot};
pub use trace::{Phase, PhaseTracer, Span, PHASE_COMPONENTS};
