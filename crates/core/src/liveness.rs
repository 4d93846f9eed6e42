//! Adaptive liveness machinery: self-tuning protocol timers and
//! heartbeat-fed failure suspicion.
//!
//! SBFT's dual-mode design (§V-E) hinges on three timers — the
//! fast-path timeout, the collector stagger, and the base view-change
//! timeout — which the paper leaves as deployment constants. One magic
//! number cannot serve loopback, LAN, and WAN alike: too tight and a
//! loaded cluster view-change-storms, too loose and a wedged primary
//! costs seconds. This module derives all three from *measured*
//! latency, Jacobson/Karels style (EWMA of the mean plus EWMA of the
//! deviation, timeout = srtt + 4·rttvar), clamped between a fixed floor
//! and the static configured value as the ceiling. Until enough
//! samples accumulate the static value is used unchanged, so startup
//! behaves exactly like the static-timer build.
//!
//! Alongside the timers live two more estimator-driven policies:
//!
//! - [`FastPathHysteresis`]: engage/release thresholds on the observed
//!   σ-completion rate decide whether collectors wait for σ at all; a
//!   released fast path is still probed every 32nd sequence.
//! - [`FailureDetector`]: per-peer φ-accrual-style suspicion fed by
//!   signed heartbeats (and by any real protocol traffic, which
//!   suppresses redundant heartbeats). Sustained suspicion of the
//!   primary triggers a proactive view change before client timeouts
//!   fire; suspicion of a collector shortens the stagger schedule to
//!   route around it.

use sbft_sim::{SimDuration, SimTime};

use crate::config::ProtocolConfig;

/// Samples before an estimator's derived timeout is trusted; below
/// this, callers fall back to the static configured value.
const WARMUP_SAMPLES: u64 = 8;

/// Floor for the adaptive fast-path timeout.
const MIN_FAST_PATH_TIMEOUT: SimDuration = SimDuration::from_millis(5);

/// Floor for the adaptive collector stagger.
const MIN_COLLECTOR_STAGGER: SimDuration = SimDuration::from_millis(2);

/// Floor for the adaptive base view-change timeout. The watchdog floor
/// is deliberately lazier than the heartbeat suspicion path (which
/// catches a dead primary in ~5 intervals): on an oversubscribed host,
/// scheduler stalls of a few hundred ms are routine, and a floor below
/// them turns every hiccup into a view-change storm.
const MIN_VIEW_TIMEOUT: SimDuration = SimDuration::from_millis(500);

/// While the fast path is disengaged, it is still attempted on every
/// sequence number divisible by this, so a healed cluster re-discovers
/// σ commits.
const FAST_PROBE_PERIOD: u64 = 32;

/// ln(10), for the φ-accrual conversion from survival probability to
/// a base-10 suspicion level.
const LN_10: f64 = core::f64::consts::LN_10;

/// Jacobson/Karels-style latency estimator over integer nanoseconds:
/// `srtt += (sample - srtt) / 8`, `rttvar += (|sample - srtt| - rttvar) / 4`,
/// derived timeout `srtt + 4·rttvar`.
#[derive(Debug, Clone, Default)]
pub struct EwmaEstimator {
    srtt_ns: u64,
    rttvar_ns: u64,
    samples: u64,
}

impl EwmaEstimator {
    /// A fresh estimator with no samples.
    pub fn new() -> Self {
        EwmaEstimator::default()
    }

    /// Feeds one latency sample.
    pub fn observe(&mut self, sample: SimDuration) {
        let sample_ns = sample.as_nanos();
        if self.samples == 0 {
            self.srtt_ns = sample_ns;
            self.rttvar_ns = sample_ns / 2;
        } else {
            let err = sample_ns.abs_diff(self.srtt_ns);
            // srtt ± err/8, in unsigned arithmetic.
            if sample_ns >= self.srtt_ns {
                self.srtt_ns += err / 8;
            } else {
                self.srtt_ns -= err / 8;
            }
            if err >= self.rttvar_ns {
                self.rttvar_ns += (err - self.rttvar_ns) / 4;
            } else {
                self.rttvar_ns -= (self.rttvar_ns - err) / 4;
            }
        }
        self.samples = self.samples.saturating_add(1);
    }

    /// Smoothed mean.
    pub fn mean(&self) -> SimDuration {
        SimDuration::from_nanos(self.srtt_ns)
    }

    /// The classic derived timeout, `srtt + 4·rttvar`.
    pub fn timeout(&self) -> SimDuration {
        SimDuration::from_nanos(
            self.srtt_ns
                .saturating_add(self.rttvar_ns.saturating_mul(4)),
        )
    }

    /// True once enough samples accumulated to trust the estimate.
    pub fn warmed_up(&self) -> bool {
        self.samples >= WARMUP_SAMPLES
    }
}

fn clamp(value: SimDuration, floor: SimDuration, ceiling: SimDuration) -> SimDuration {
    if value < floor {
        floor
    } else if value > ceiling {
        ceiling
    } else {
        value
    }
}

/// Derives the three liveness timers from measured latency.
///
/// Two signals feed it: the σ-completion gap (pre-prepare receipt →
/// σ threshold reached, observed at collectors and at fast commits) and
/// whole-commit latency (pre-prepare receipt → commit, any path).
#[derive(Debug, Clone, Default)]
pub struct TimeoutController {
    sigma_gap: EwmaEstimator,
    commit: EwmaEstimator,
}

impl TimeoutController {
    /// A fresh controller; all timers start at their static values.
    pub fn new() -> Self {
        TimeoutController::default()
    }

    /// Feeds the gap from pre-prepare receipt to σ completion.
    pub fn observe_sigma_gap(&mut self, gap: SimDuration) {
        self.sigma_gap.observe(gap);
    }

    /// Feeds a whole-commit latency sample (either path).
    pub fn observe_commit(&mut self, latency: SimDuration) {
        self.commit.observe(latency);
    }

    /// Fast-path timeout: how long a collector holding τ waits for σ
    /// before falling back to linear PBFT (§V-E "Trigger").
    pub fn fast_path_timeout(&self, config: &ProtocolConfig) -> SimDuration {
        if !self.sigma_gap.warmed_up() {
            return config.fast_path_timeout;
        }
        clamp(
            self.sigma_gap.timeout(),
            MIN_FAST_PATH_TIMEOUT,
            config.fast_path_timeout,
        )
    }

    /// Stagger between redundant collectors: half the expected σ gap
    /// (so a healthy first collector normally acts alone, §V).
    pub fn collector_stagger(&self, config: &ProtocolConfig) -> SimDuration {
        if !self.sigma_gap.warmed_up() {
            return config.collector_stagger;
        }
        clamp(
            SimDuration::from_nanos(self.sigma_gap.timeout().as_nanos() / 2),
            MIN_COLLECTOR_STAGGER,
            config.collector_stagger,
        )
    }

    /// Base view-change timeout: a generous multiple of observed commit
    /// latency (doubling per consecutive view change is applied by the
    /// caller, and satellite fix: reset once a view commits progress).
    pub fn view_timeout(&self, config: &ProtocolConfig) -> SimDuration {
        if !self.commit.warmed_up() {
            return config.view_timeout;
        }
        clamp(
            self.commit.timeout().saturating_mul(8),
            MIN_VIEW_TIMEOUT,
            config.view_timeout,
        )
    }
}

/// Per-mille σ-completion rate above which the fast path engages.
const ENGAGE_RATE_MILLI: u64 = 600;
/// Per-mille σ-completion rate below which the fast path releases.
const RELEASE_RATE_MILLI: u64 = 200;

/// Fast-path engage/release hysteresis on the observed σ-completion
/// rate.
///
/// The rate is an EWMA (α = 1/8) over per-commit outcomes: 1 when a
/// block committed via σ, 0 when it fell back to the τ path. Distinct
/// engage (≥60%) and release (<20%) thresholds prevent flapping at a
/// boundary. While released, every `FAST_PROBE_PERIOD`-th sequence
/// still probes σ so a healed cluster re-engages.
#[derive(Debug, Clone)]
pub struct FastPathHysteresis {
    rate_milli: u64,
    engaged: bool,
    /// Consecutive successful σ probes while released. Once released,
    /// the replica only *attempts* σ on probe sequences, so probes are
    /// the only evidence available — a short streak of them re-engages
    /// without waiting for the sparse probe samples to drag the whole
    /// EWMA over the engage threshold (which they never could against
    /// 31 intervening non-attempts per period).
    probe_streak: u32,
}

/// Consecutive successful probes that re-engage a released fast path.
const REENGAGE_PROBE_STREAK: u32 = 2;

impl Default for FastPathHysteresis {
    fn default() -> Self {
        // Optimistic start: engaged at 100%, exactly like the static
        // build's behavior on a fresh cluster.
        FastPathHysteresis {
            rate_milli: 1000,
            engaged: true,
            probe_streak: 0,
        }
    }
}

impl FastPathHysteresis {
    /// A fresh, engaged hysteresis.
    pub fn new() -> Self {
        FastPathHysteresis::default()
    }

    /// Feeds one commit outcome (`true` = committed via σ). Callers must
    /// only report slots where the σ path was actually *attempted*
    /// ([`Self::attempt_fast`] was true at proposal) — a slot that went
    /// straight to the linear path says nothing about σ health.
    pub fn observe(&mut self, fast: bool) {
        let sample = if fast { 1000 } else { 0 };
        self.rate_milli = self.rate_milli - self.rate_milli / 8 + sample / 8;
        if self.engaged {
            if self.rate_milli < RELEASE_RATE_MILLI {
                self.engaged = false;
                self.probe_streak = 0;
            }
        } else if fast {
            self.probe_streak += 1;
            if self.probe_streak >= REENGAGE_PROBE_STREAK || self.rate_milli >= ENGAGE_RATE_MILLI {
                self.engaged = true;
                self.rate_milli = self.rate_milli.max(ENGAGE_RATE_MILLI);
                self.probe_streak = 0;
            }
        } else {
            self.probe_streak = 0;
        }
    }

    /// Force-release (e.g. after a streak of consecutive fast-path
    /// timeouts, which is stronger evidence than the rate).
    pub fn release(&mut self) {
        self.engaged = false;
        self.probe_streak = 0;
        self.rate_milli = self.rate_milli.min(RELEASE_RATE_MILLI.saturating_sub(1));
    }

    /// Whether a given sequence should attempt the σ path.
    pub fn attempt_fast(&self, seq: u64) -> bool {
        self.engaged || seq.is_multiple_of(FAST_PROBE_PERIOD)
    }

    /// Currently engaged?
    pub fn engaged(&self) -> bool {
        self.engaged
    }

    /// Observed σ-completion rate, per mille (telemetry).
    pub fn rate_milli(&self) -> u64 {
        self.rate_milli
    }
}

/// One peer's liveness record.
#[derive(Debug, Clone, Default)]
struct PeerHealth {
    /// Last instant any message (heartbeat or real traffic) arrived.
    last_seen: Option<SimTime>,
    /// Last instant we sent this peer real protocol traffic
    /// (heartbeats to it are suppressed inside one interval of this).
    last_sent: Option<SimTime>,
    /// Smoothed inter-arrival gap of messages from this peer.
    interarrival: EwmaEstimator,
    /// Smoothed round-trip time from heartbeat echoes.
    rtt: EwmaEstimator,
}

/// φ-accrual-style failure detector over all peers.
///
/// φ for a peer is `elapsed / (mean_gap · ln 10)` — the suspicion level
/// of an exponential-interarrival model, i.e. `-log10 P(silence this
/// long | peer alive)`. The mean gap is floored at the heartbeat
/// interval so bursty real traffic cannot make the detector twitchy.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    peers: Vec<PeerHealth>,
    interval: SimDuration,
    threshold: f64,
}

impl FailureDetector {
    /// A detector for `n` peers with the configured heartbeat interval
    /// and suspicion threshold.
    pub fn new(n: usize, interval: SimDuration, threshold: f64) -> Self {
        FailureDetector {
            peers: vec![PeerHealth::default(); n],
            interval,
            threshold,
        }
    }

    /// Records an arrival from `peer` (any message counts as liveness).
    pub fn note_seen(&mut self, peer: usize, now: SimTime) {
        let Some(p) = self.peers.get_mut(peer) else {
            return;
        };
        if let Some(prev) = p.last_seen {
            p.interarrival.observe(now.since(prev));
        }
        p.last_seen = Some(now);
    }

    /// Records real protocol traffic sent to `peer`.
    pub fn note_sent(&mut self, peer: usize, now: SimTime) {
        if let Some(p) = self.peers.get_mut(peer) {
            p.last_sent = Some(now);
        }
    }

    /// True when a heartbeat to `peer` would be redundant: real traffic
    /// went to it within the last interval.
    pub fn heartbeat_suppressed(&self, peer: usize, now: SimTime) -> bool {
        match self.peers.get(peer).and_then(|p| p.last_sent) {
            Some(sent) => now.since(sent) < self.interval,
            None => false,
        }
    }

    /// Records a round-trip sample from a heartbeat echo.
    pub fn note_rtt(&mut self, peer: usize, rtt: SimDuration) {
        if let Some(p) = self.peers.get_mut(peer) {
            p.rtt.observe(rtt);
        }
    }

    /// Current φ suspicion level for `peer`. Zero until first contact.
    pub fn phi(&self, peer: usize, now: SimTime) -> f64 {
        let Some(p) = self.peers.get(peer) else {
            return 0.0;
        };
        let Some(seen) = p.last_seen else {
            return 0.0;
        };
        let elapsed = now.since(seen).as_nanos() as f64;
        let mean = p
            .interarrival
            .mean()
            .as_nanos()
            .max(self.interval.as_nanos())
            .max(1) as f64;
        elapsed / (mean * LN_10)
    }

    /// Whether `peer` is currently above the suspicion threshold.
    pub fn suspected(&self, peer: usize, now: SimTime) -> bool {
        self.phi(peer, now) > self.threshold
    }

    /// Highest φ across peers other than `me`, in milli-units
    /// (telemetry gauge).
    pub fn max_phi_milli(&self, me: usize, now: SimTime) -> u64 {
        (0..self.peers.len())
            .filter(|&p| p != me)
            .map(|p| (self.phi(p, now) * 1000.0) as u64)
            .max()
            .unwrap_or(0)
    }

    /// Smoothed heartbeat RTT to `peer` (zero until the first echo).
    pub fn rtt(&self, peer: usize) -> SimDuration {
        self.peers
            .get(peer)
            .map(|p| p.rtt.mean())
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariantFlags;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::new(1, 0, VariantFlags::SBFT)
    }

    #[test]
    fn estimator_matches_static_until_warm() {
        let config = cfg();
        let mut controller = TimeoutController::new();
        assert_eq!(
            controller.fast_path_timeout(&config),
            config.fast_path_timeout
        );
        assert_eq!(
            controller.collector_stagger(&config),
            config.collector_stagger
        );
        assert_eq!(controller.view_timeout(&config), config.view_timeout);
        for _ in 0..WARMUP_SAMPLES - 1 {
            controller.observe_sigma_gap(SimDuration::from_millis(2));
            controller.observe_commit(SimDuration::from_millis(4));
        }
        // One short of warm: still static.
        assert_eq!(
            controller.fast_path_timeout(&config),
            config.fast_path_timeout
        );
        controller.observe_sigma_gap(SimDuration::from_millis(2));
        controller.observe_commit(SimDuration::from_millis(4));
        assert!(controller.fast_path_timeout(&config) < config.fast_path_timeout);
        assert!(controller.view_timeout(&config) < config.view_timeout);
    }

    #[test]
    fn derived_timers_track_latency_and_respect_clamps() {
        let config = cfg();
        let mut controller = TimeoutController::new();
        for _ in 0..64 {
            controller.observe_sigma_gap(SimDuration::from_millis(2));
            controller.observe_commit(SimDuration::from_millis(4));
        }
        let fast = controller.fast_path_timeout(&config);
        // ~2ms steady σ gap: timeout well under the 150ms static value,
        // at or above the 5ms floor.
        assert!(fast >= MIN_FAST_PATH_TIMEOUT, "{fast}");
        assert!(fast < SimDuration::from_millis(20), "{fast}");
        assert!(controller.collector_stagger(&config) >= MIN_COLLECTOR_STAGGER);
        assert!(controller.view_timeout(&config) >= MIN_VIEW_TIMEOUT);

        // A latency spike inflates variance and thus the timeout.
        let before = controller.fast_path_timeout(&config);
        controller.observe_sigma_gap(SimDuration::from_millis(40));
        assert!(controller.fast_path_timeout(&config) > before);

        // Huge latencies clamp at the static ceiling.
        for _ in 0..64 {
            controller.observe_sigma_gap(SimDuration::from_secs(2));
            controller.observe_commit(SimDuration::from_secs(5));
        }
        assert_eq!(
            controller.fast_path_timeout(&config),
            config.fast_path_timeout
        );
        assert_eq!(controller.view_timeout(&config), config.view_timeout);
    }

    #[test]
    fn hysteresis_releases_and_reengages() {
        let mut h = FastPathHysteresis::new();
        assert!(h.engaged());
        assert!(h.attempt_fast(7));
        // Sustained fallbacks release the fast path...
        for _ in 0..32 {
            h.observe(false);
        }
        assert!(!h.engaged());
        // ...but probe sequences still try σ.
        assert!(!h.attempt_fast(7));
        assert!(h.attempt_fast(2 * FAST_PROBE_PERIOD));
        // Sustained σ success re-engages.
        for _ in 0..32 {
            h.observe(true);
        }
        assert!(h.engaged());
    }

    #[test]
    fn hysteresis_does_not_flap_between_thresholds() {
        let mut h = FastPathHysteresis::new();
        for _ in 0..32 {
            h.observe(false);
        }
        assert!(!h.engaged());
        // Alternating outcomes hover near 50% — between release (20%)
        // and engage (60%) — so the released state must hold.
        for i in 0..64 {
            h.observe(i % 2 == 0);
            assert!(!h.engaged(), "rate {}", h.rate_milli());
        }
    }

    #[test]
    fn phi_grows_with_silence_and_resets_on_contact() {
        let interval = SimDuration::from_millis(100);
        let mut fd = FailureDetector::new(4, interval, 2.0);
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            fd.note_seen(1, now);
            now += interval;
        }
        assert!(fd.phi(1, now) < 1.0);
        assert!(!fd.suspected(1, now));
        // ~1.2s of silence against a 100ms cadence: suspicion crosses
        // the threshold.
        now += SimDuration::from_millis(1200);
        assert!(fd.suspected(1, now), "phi {}", fd.phi(1, now));
        assert!(fd.max_phi_milli(0, now) > 2000);
        // Contact clears it.
        fd.note_seen(1, now);
        assert!(!fd.suspected(1, now));
    }

    #[test]
    fn heartbeats_suppressed_only_within_interval_of_real_traffic() {
        let interval = SimDuration::from_millis(100);
        let mut fd = FailureDetector::new(2, interval, 2.0);
        let now = SimTime::ZERO + SimDuration::from_secs(1);
        assert!(!fd.heartbeat_suppressed(1, now));
        fd.note_sent(1, now);
        assert!(fd.heartbeat_suppressed(1, now + SimDuration::from_millis(50)));
        assert!(!fd.heartbeat_suppressed(1, now + SimDuration::from_millis(150)));
    }

    #[test]
    fn rtt_estimator_smooths_echo_samples() {
        let mut fd = FailureDetector::new(2, SimDuration::from_millis(100), 2.0);
        assert_eq!(fd.rtt(1), SimDuration::ZERO);
        for _ in 0..16 {
            fd.note_rtt(1, SimDuration::from_micros(800));
        }
        let rtt = fd.rtt(1);
        assert!(
            rtt > SimDuration::from_micros(700) && rtt < SimDuration::from_micros(900),
            "{rtt}"
        );
    }
}
