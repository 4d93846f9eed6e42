//! Protocol configuration: cluster parameters, quorum sizes, roles and
//! collector selection (§V).

use sbft_types::{Digest, ReplicaId, SeqNum, ViewNum};

use sbft_crypto::sha256;
use sbft_sim::SimDuration;

/// Which protocol variant a cluster runs — the ablation axis of §IX.
///
/// Each variant adds one ingredient on top of the previous:
/// Linear-PBFT (collector-based τ path) → + fast path (σ path) →
/// + execution collectors with single-message client acks. Redundant
/// servers (ingredient 4) are controlled independently by `c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantFlags {
    /// Enable the σ fast path (ingredient 2).
    pub fast_path: bool,
    /// Single-message client acknowledgement via execution collectors
    /// (ingredient 3); when false, every replica replies to clients and a
    /// client waits for `f+1` matching replies.
    pub single_client_ack: bool,
}

impl VariantFlags {
    /// Linear-PBFT: collectors and threshold signatures only.
    pub const LINEAR_PBFT: VariantFlags = VariantFlags {
        fast_path: false,
        single_client_ack: false,
    };
    /// Linear-PBFT plus the fast path.
    pub const FAST_PATH: VariantFlags = VariantFlags {
        fast_path: true,
        single_client_ack: false,
    };
    /// Full SBFT: fast path and single-message client acks.
    pub const SBFT: VariantFlags = VariantFlags {
        fast_path: true,
        single_client_ack: true,
    };
}

/// The four protocol timers that scale with the network's round trip,
/// set together by [`ProtocolConfig::set_timers`].
#[derive(Debug, Clone, Copy)]
pub struct TimerBundle {
    /// See [`ProtocolConfig::fast_path_timeout`].
    pub fast_path_timeout: SimDuration,
    /// See [`ProtocolConfig::collector_stagger`].
    pub collector_stagger: SimDuration,
    /// See [`ProtocolConfig::view_timeout`].
    pub view_timeout: SimDuration,
    /// See [`ProtocolConfig::batch_delay`].
    pub batch_delay: SimDuration,
}

impl TimerBundle {
    /// Continental round trips: the five-region WAN of the §IX
    /// key-value runs, and a real deployment's `wan` profile.
    pub const CONTINENTAL: TimerBundle = TimerBundle {
        fast_path_timeout: SimDuration::from_millis(250),
        collector_stagger: SimDuration::from_millis(90),
        view_timeout: SimDuration::from_secs(10),
        batch_delay: SimDuration::from_millis(10),
    };
}

/// Cluster-wide protocol configuration. `n = 3f + 2c + 1` (§II).
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Byzantine fault threshold `f`.
    pub f: usize,
    /// Redundant-server parameter `c` (ingredient 4; §I suggests
    /// `c ≤ f/8` as a good heuristic).
    pub c: usize,
    /// Variant flags for the ablation.
    pub flags: VariantFlags,
    /// Log window `win` (§V-B; paper uses 256).
    pub window: u64,
    /// Maximum decision blocks in flight from the primary.
    pub max_in_flight: usize,
    /// Maximum client requests per decision block.
    pub max_block_requests: usize,
    /// Group-commit pooling cap. When recent blocks were non-trivial,
    /// the primary holds proposals back until roughly twice the last
    /// block's worth of requests is pending — but never more than this
    /// many — or the batch timer fires, whichever comes first. 1 — the
    /// default — disables pooling entirely (propose the moment anything
    /// is pending), which is right when round-trips dominate;
    /// low-latency deployments raise it (with a short `batch_delay`) so
    /// consensus overhead amortizes over whole batches instead of
    /// paying a round per request. A solitary request on a fully idle,
    /// recently-quiet pipeline always proposes instantly.
    pub min_batch: usize,
    /// Primary batch timer: propose a non-full block after this delay.
    pub batch_delay: SimDuration,
    /// Collector fast-path timeout: after τ is available, wait this long
    /// for σ before falling back to linear PBFT (§V-E "Trigger").
    pub fast_path_timeout: SimDuration,
    /// Stagger between redundant collectors (§V: "we stagger the
    /// collectors, so in most executions just one collector is active").
    pub collector_stagger: SimDuration,
    /// Base view-change timeout (doubles per consecutive view change).
    pub view_timeout: SimDuration,
    /// Checkpoint period (paper: `win/2`).
    pub checkpoint_period: u64,
}

impl ProtocolConfig {
    /// Creates a configuration for given `f`, `c` and variant flags with
    /// WAN-appropriate defaults.
    pub fn new(f: usize, c: usize, flags: VariantFlags) -> Self {
        ProtocolConfig {
            f,
            c,
            flags,
            window: 256,
            max_in_flight: 16,
            max_block_requests: 64,
            min_batch: 1,
            batch_delay: SimDuration::from_millis(5),
            fast_path_timeout: SimDuration::from_millis(150),
            collector_stagger: SimDuration::from_millis(60),
            view_timeout: SimDuration::from_secs(2),
            checkpoint_period: 128,
        }
    }

    /// Sets the four round-trip-scaled timers of `timers`.
    pub fn set_timers(&mut self, timers: TimerBundle) {
        self.fast_path_timeout = timers.fast_path_timeout;
        self.collector_stagger = timers.collector_stagger;
        self.view_timeout = timers.view_timeout;
        self.batch_delay = timers.batch_delay;
    }

    /// Total replicas `n = 3f + 2c + 1`.
    pub fn n(&self) -> usize {
        3 * self.f + 2 * self.c + 1
    }

    /// The σ fast-commit threshold, `3f + c + 1`.
    pub fn sigma_threshold(&self) -> usize {
        3 * self.f + self.c + 1
    }

    /// The τ slow-path threshold, `2f + c + 1`.
    pub fn tau_threshold(&self) -> usize {
        2 * self.f + self.c + 1
    }

    /// The π execution threshold, `f + 1`.
    pub fn pi_threshold(&self) -> usize {
        self.f + 1
    }

    /// View-change quorum, `2f + 2c + 1` (§V-G).
    pub fn view_change_quorum(&self) -> usize {
        2 * self.f + 2 * self.c + 1
    }

    /// The round-robin primary of a view (§V-B).
    pub fn primary(&self, view: ViewNum) -> ReplicaId {
        view.primary(self.n())
    }

    /// The `c+1` commit collectors for `(seq, view)`: a pseudo-random
    /// group of non-primary replicas, with the primary appended as the
    /// last, fallback collector (§V-E).
    pub fn c_collectors(&self, seq: SeqNum, view: ViewNum) -> Vec<ReplicaId> {
        let mut collectors = self.pick_collectors(b"c-coll", seq, view, self.c + 1);
        collectors.push(self.primary(view));
        collectors
    }

    /// The `c+1` execution collectors for `(seq, view)` (§V-B).
    pub fn e_collectors(&self, seq: SeqNum, view: ViewNum) -> Vec<ReplicaId> {
        self.pick_collectors(b"e-coll", seq, view, self.c + 1)
    }

    fn pick_collectors(
        &self,
        domain: &[u8; 6],
        seq: SeqNum,
        view: ViewNum,
        count: usize,
    ) -> Vec<ReplicaId> {
        let n = self.n();
        let primary = self.primary(view).as_usize();
        // Deterministic pseudo-random permutation seeded by (domain, seq,
        // view): hash-ranked selection over non-primary replicas. Each
        // candidate's material `domain ‖ seq ‖ view ‖ r` differs only in
        // its last 8 bytes, so one stack array serves them all.
        let mut material = [0u8; 30];
        material[..6].copy_from_slice(domain);
        material[6..14].copy_from_slice(&seq.get().to_le_bytes());
        material[14..22].copy_from_slice(&view.get().to_le_bytes());
        let mut ranked: Vec<(Digest, usize)> = (0..n)
            .filter(|&r| r != primary)
            .map(|r| {
                material[22..].copy_from_slice(&(r as u64).to_le_bytes());
                (sha256(&material), r)
            })
            .collect();
        ranked.sort();
        ranked
            .into_iter()
            .take(count.min(n.saturating_sub(1)))
            .map(|(_, r)| ReplicaId::new(r as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The C- and E-collector lists for seqs 1..=50 and views 0..=2 at
    /// n = 4 and n = 13, pinned as a digest of every list (each as its
    /// length, then its replica ids, one byte each): any change to the
    /// ranking changes which replicas collect, on every deployment.
    #[test]
    fn collector_lists_are_pinned() {
        for ((f, c), fingerprint, first_c, first_e) in [
            (
                (1, 0),
                "2b36953cd5294fff336e6578504204f64d50a3f6ddc8b4dfc0950e5bd0668f23",
                vec![1, 0],
                vec![3],
            ),
            (
                (2, 3),
                "e80943148f34d90c36cc39768b640868c5699bb338768a57de22236c1a2ae35e",
                vec![12, 10, 11, 6, 0],
                vec![3, 2, 1, 8],
            ),
        ] {
            let config = cfg(f, c);
            let ids = |list: Vec<ReplicaId>| list.iter().map(|r| r.as_usize()).collect::<Vec<_>>();
            let (s1, v0) = (SeqNum::new(1), ViewNum::new(0));
            assert_eq!(ids(config.c_collectors(s1, v0)), first_c);
            assert_eq!(ids(config.e_collectors(s1, v0)), first_e);
            let mut material = Vec::new();
            for seq in 1..=50 {
                for view in 0..=2 {
                    let (s, v) = (SeqNum::new(seq), ViewNum::new(view));
                    for list in [config.c_collectors(s, v), config.e_collectors(s, v)] {
                        material.push(list.len() as u8);
                        material.extend(ids(list).into_iter().map(|r| r as u8));
                    }
                }
            }
            assert_eq!(
                sha256(&material).to_hex(),
                fingerprint,
                "n = {}",
                config.n()
            );
        }
    }

    fn cfg(f: usize, c: usize) -> ProtocolConfig {
        ProtocolConfig::new(f, c, VariantFlags::SBFT)
    }

    #[test]
    fn paper_cluster_sizes() {
        // §IX: f=64, c=0 → n=193; c=8 → n=209.
        assert_eq!(cfg(64, 0).n(), 193);
        assert_eq!(cfg(64, 8).n(), 209);
        // Figure 1: n=4, f=1, c=0.
        assert_eq!(cfg(1, 0).n(), 4);
    }

    #[test]
    fn thresholds_match_section_v() {
        let config = cfg(2, 1); // n = 9
        assert_eq!(config.n(), 9);
        assert_eq!(config.sigma_threshold(), 8);
        assert_eq!(config.tau_threshold(), 6);
        assert_eq!(config.pi_threshold(), 3);
        assert_eq!(config.view_change_quorum(), 7);
    }

    #[test]
    fn primary_rotates() {
        let config = cfg(1, 0);
        assert_eq!(config.primary(ViewNum::new(0)), ReplicaId::new(0));
        assert_eq!(config.primary(ViewNum::new(5)), ReplicaId::new(1));
    }

    #[test]
    fn collectors_exclude_primary_and_are_deterministic() {
        let config = cfg(2, 2); // n = 13, c+1 = 3 collectors
        let view = ViewNum::new(0);
        for s in 1..50u64 {
            let seq = SeqNum::new(s);
            let cs = config.c_collectors(seq, view);
            assert_eq!(cs.len(), 4); // c+1 pseudo-random + primary fallback
            assert_eq!(*cs.last().unwrap(), config.primary(view));
            // The pseudo-random part excludes the primary.
            assert!(cs[..3].iter().all(|r| *r != config.primary(view)));
            // Distinct members.
            let mut sorted: Vec<_> = cs[..3].to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3);
            assert_eq!(cs, config.c_collectors(seq, view));
            let es = config.e_collectors(seq, view);
            assert_eq!(es.len(), 3);
            assert!(es.iter().all(|r| *r != config.primary(view)));
        }
    }

    #[test]
    fn collector_selection_spreads_load() {
        // Over many sequences, most replicas serve as collector sometimes
        // ("by choosing a different C-collector group for each decision
        // block, we balance the load over all replicas", §V).
        let config = cfg(2, 1); // n = 9
        let view = ViewNum::new(0);
        let mut seen = vec![0usize; config.n()];
        for s in 1..=200u64 {
            for r in config.c_collectors(SeqNum::new(s), view) {
                seen[r.as_usize()] += 1;
            }
        }
        let non_primary_seen = seen
            .iter()
            .enumerate()
            .filter(|(r, _)| *r != config.primary(view).as_usize())
            .filter(|(_, &count)| count > 0)
            .count();
        assert_eq!(non_primary_seen, config.n() - 1, "counts: {seen:?}");
    }

    #[test]
    fn collectors_change_with_view_and_seq() {
        let config = cfg(2, 2);
        let a = config.c_collectors(SeqNum::new(1), ViewNum::new(0));
        let b = config.c_collectors(SeqNum::new(2), ViewNum::new(0));
        let c = config.c_collectors(SeqNum::new(1), ViewNum::new(1));
        assert!(a != b || a != c, "selection should vary");
    }
}
