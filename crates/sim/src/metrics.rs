//! Run metrics: counters, samples and optional message traces.
//!
//! Samples land in the shared [`sbft_telemetry::Histogram`] type
//! (bounded fixed-bucket storage) instead of an unbounded `Vec<f64>`,
//! so week-long swarm runs cannot grow memory with every request.
//! Sample values are scaled ×1000 on the way in (millisecond samples
//! are stored with microsecond resolution); [`Metrics::sample_stats`]
//! undoes the scaling.

use std::collections::BTreeMap;

use sbft_telemetry::{Histogram, HistogramSnapshot};

use crate::node::NodeId;
use crate::time::SimTime;

/// Fixed-point scale applied to `f64` samples before they enter the
/// histogram (ms → µs for latency samples).
const SAMPLE_SCALE: f64 = 1000.0;

/// One traced message send (used for Figure-1-style flow diagrams).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Send time.
    pub at: SimTime,
    /// Sender node.
    pub from: NodeId,
    /// Receiver node.
    pub to: NodeId,
    /// Message label.
    pub label: &'static str,
    /// Encoded size in bytes.
    pub bytes: usize,
}

/// Aggregated metrics for one simulation run.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    samples: BTreeMap<&'static str, Histogram>,
    messages_sent: u64,
    bytes_sent: u64,
    per_label_count: BTreeMap<&'static str, u64>,
    per_label_bytes: BTreeMap<&'static str, u64>,
    trace_enabled: bool,
    trace: Vec<TraceEvent>,
}

impl Metrics {
    /// Creates empty metrics; `trace_enabled` records every send.
    pub fn new(trace_enabled: bool) -> Self {
        Metrics {
            trace_enabled,
            ..Metrics::default()
        }
    }

    /// Increments a named counter.
    pub fn incr(&mut self, key: &'static str, by: u64) {
        *self.counters.entry(key).or_insert(0) += by;
    }

    /// Records a sample under a key (stored ×`SAMPLE_SCALE` in a
    /// bounded histogram; negative values clamp to zero).
    pub fn record(&mut self, key: &'static str, value: f64) {
        self.samples
            .entry(key)
            .or_default()
            .record((value * SAMPLE_SCALE).max(0.0).round() as u64);
    }

    /// Reads a counter (0 if never incremented).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Number of samples recorded under a key.
    pub fn sample_count(&self, key: &str) -> u64 {
        self.samples.get(key).map(Histogram::count).unwrap_or(0)
    }

    /// A point-in-time copy of one sample histogram (empty snapshot if
    /// the key was never recorded). Identical runs produce identical
    /// snapshots, so these double as determinism fingerprints; benches
    /// use [`HistogramSnapshot::since`] to carve out warm-up windows.
    pub fn sample_snapshot(&self, key: &str) -> HistogramSnapshot {
        self.samples
            .get(key)
            .map(Histogram::snapshot)
            .unwrap_or_default()
    }

    /// Summary stats for a sample key, in the units `record` was given.
    pub fn sample_stats(&self, key: &str) -> Option<SampleStats> {
        SampleStats::from_sample_snapshot(&self.sample_snapshot(key))
    }

    /// The sample histogram handle for a key, creating it if absent —
    /// lets an external registry adopt (share) the buckets.
    pub fn sample_histogram(&mut self, key: &'static str) -> Histogram {
        self.samples.entry(key).or_default().clone()
    }

    /// Every sample histogram handle, sorted by key (the handles share
    /// buckets with this `Metrics` — adopting one is zero-copy).
    pub fn sample_histograms(&self) -> impl Iterator<Item = (&'static str, Histogram)> + '_ {
        self.samples.iter().map(|(k, h)| (*k, h.clone()))
    }

    /// All counters, sorted by key.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Accounts one message send under `label`. The discrete-event engine
    /// calls this for every simulated transmission; external backends
    /// (the TCP runtime) call it with wall-clock-derived times so byte
    /// accounting stays comparable across backends.
    pub fn note_send(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        label: &'static str,
        bytes: usize,
    ) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        *self.per_label_count.entry(label).or_insert(0) += 1;
        *self.per_label_bytes.entry(label).or_insert(0) += bytes as u64;
        if self.trace_enabled {
            self.trace.push(TraceEvent {
                at,
                from,
                to,
                label,
                bytes,
            });
        }
    }

    /// Total messages sent in the run.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Total bytes sent in the run.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Message count for one label.
    pub fn label_count(&self, label: &str) -> u64 {
        self.per_label_count.get(label).copied().unwrap_or(0)
    }

    /// Byte count for one label.
    pub fn label_bytes(&self, label: &str) -> u64 {
        self.per_label_bytes.get(label).copied().unwrap_or(0)
    }

    /// All labels with counts and bytes, sorted by label.
    pub fn labels(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.per_label_count
            .iter()
            .map(|(k, c)| (*k, *c, self.per_label_bytes.get(k).copied().unwrap_or(0)))
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }
}

/// Summary statistics over a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl SampleStats {
    /// Computes stats from samples; `None` when empty.
    pub fn from_samples(samples: &[f64]) -> Option<SampleStats> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let pct = |p: f64| -> f64 {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            sorted[idx]
        };
        Some(SampleStats {
            count,
            mean,
            median: pct(0.5),
            p99: pct(0.99),
            min: sorted[0],
            max: sorted[count - 1],
        })
    }

    /// Computes stats from a [`Metrics`] sample snapshot (undoing the
    /// fixed-point scaling); `None` when empty. The mean is exact;
    /// quantiles and extrema carry the histogram's ≤ 6.25 % bucket
    /// error.
    pub fn from_sample_snapshot(snapshot: &HistogramSnapshot) -> Option<SampleStats> {
        if snapshot.count() == 0 {
            return None;
        }
        let unscale = |v: u64| v as f64 / SAMPLE_SCALE;
        Some(SampleStats {
            count: snapshot.count() as usize,
            mean: snapshot.mean() / SAMPLE_SCALE,
            median: unscale(snapshot.quantile(0.5)),
            p99: unscale(snapshot.quantile(0.99)),
            min: unscale(snapshot.min()),
            max: unscale(snapshot.max()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_samples() {
        let mut m = Metrics::new(false);
        m.incr("x", 2);
        m.incr("x", 3);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counter("missing"), 0);
        m.record("lat", 1.0);
        m.record("lat", 2.0);
        assert_eq!(m.sample_count("lat"), 2);
        assert_eq!(m.sample_count("missing"), 0);
        let stats = m.sample_stats("lat").unwrap();
        assert_eq!(stats.count, 2);
        assert!((stats.mean - 1.5).abs() < 1e-9, "mean is exact");
        // min/max are bucket upper bounds: at most 6.25 % above the
        // true extremes, never below them.
        assert!(stats.min >= 1.0 && stats.min <= 1.07, "min {}", stats.min);
        assert!(stats.max >= 2.0 && stats.max <= 2.14, "max {}", stats.max);
        assert!(m.sample_stats("missing").is_none());
    }

    #[test]
    fn sample_snapshots_fingerprint_runs_and_window() {
        let mut a = Metrics::new(false);
        let mut b = Metrics::new(false);
        for v in [0.6, 0.7, 1.4] {
            a.record("lat", v);
            b.record("lat", v);
        }
        assert_eq!(
            a.sample_snapshot("lat"),
            b.sample_snapshot("lat"),
            "identical runs, identical snapshots"
        );
        let warm = a.sample_snapshot("lat");
        a.record("lat", 10.0);
        let window = a.sample_snapshot("lat").since(&warm);
        let stats = SampleStats::from_sample_snapshot(&window).unwrap();
        assert_eq!(stats.count, 1);
        assert!(stats.min > 9.0, "warm-up samples excluded from window");
    }

    #[test]
    fn send_accounting() {
        let mut m = Metrics::new(true);
        m.note_send(SimTime::ZERO, 0, 1, "prepare", 100);
        m.note_send(SimTime::ZERO, 1, 0, "prepare", 50);
        m.note_send(SimTime::ZERO, 0, 2, "commit", 10);
        assert_eq!(m.messages_sent(), 3);
        assert_eq!(m.bytes_sent(), 160);
        assert_eq!(m.label_count("prepare"), 2);
        assert_eq!(m.label_bytes("prepare"), 150);
        assert_eq!(m.trace().len(), 3);
        assert_eq!(m.labels().count(), 2);
    }

    #[test]
    fn trace_disabled_by_default() {
        let mut m = Metrics::new(false);
        m.note_send(SimTime::ZERO, 0, 1, "x", 1);
        assert!(m.trace().is_empty());
    }

    #[test]
    fn stats() {
        let s = SampleStats::from_samples(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.median, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-9);
        assert!(SampleStats::from_samples(&[]).is_none());
    }

    #[test]
    fn p99_on_large_sample() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = SampleStats::from_samples(&samples).unwrap();
        assert_eq!(s.p99, 99.0);
    }
}
