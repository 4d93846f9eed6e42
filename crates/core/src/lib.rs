//! # SBFT: the replication protocol (the paper's primary contribution)
//!
//! A faithful implementation of the SBFT protocol of Golan Gueta et al.
//! (DSN 2019): a scalable BFT state-machine-replication engine for
//! `n = 3f + 2c + 1` replicas combining four ingredients (§I):
//!
//! 1. **Linear PBFT** — collector-relayed threshold-signature aggregation
//!    instead of all-to-all phases ([`ProtocolConfig::c_collectors`],
//!    [`messages::SbftMsg::SignShare`] → `Prepare` → `CommitShare` →
//!    `FullCommitProofSlow`).
//! 2. **Fast path** — single-round σ commit when the system is synchronous
//!    and at most `c` replicas are slow (`SignShare` →
//!    `FullCommitProof`), with the dual-mode view change of §V-G
//!    ([`viewchange`]).
//! 3. **Single-message client acknowledgement** — execution collectors
//!    aggregate π shares over the post-execution state digest and send
//!    each client one `ExecuteAck` carrying one signature and one Merkle
//!    proof.
//! 4. **Redundant servers** — the `c` parameter; `c+1` staggered
//!    collectors keep the fast path alive under stragglers.
//!
//! The engine is sans-IO: [`ReplicaNode`] and [`ClientNode`] implement
//! [`sbft_sim::Node`] and are driven entirely by messages and timers, so
//! every experiment is deterministic.
//!
//! # Quickstart
//!
//! ```
//! use sbft_core::{Cluster, ClusterConfig, VariantFlags};
//! use sbft_sim::SimDuration;
//!
//! // n = 4 (f = 1, c = 0), 2 clients × 10 key-value requests.
//! let mut cluster = Cluster::build(ClusterConfig::small(1, 0, VariantFlags::SBFT));
//! cluster.run_for(SimDuration::from_secs(10));
//! assert_eq!(cluster.total_completed(), 20);
//! cluster.assert_agreement();
//! ```

pub mod client;
pub mod config;
pub mod exec;
pub mod keys;
pub mod liveness;
pub mod messages;
pub mod persist;
pub mod replica;
pub mod testkit;
pub mod verify;
pub mod viewchange;

pub use client::ClientNode;
pub use config::{ProtocolConfig, VariantFlags};
pub use exec::ExecEngine;
pub use keys::{
    KeyMaterial, PublicKeys, ReplicaKeys, DOMAIN_HEARTBEAT, DOMAIN_PI, DOMAIN_SIGMA, DOMAIN_TAU,
};
pub use liveness::{EwmaEstimator, FailureDetector, FastPathHysteresis, TimeoutController};
pub use messages::{ClientRequest, CommitCert, SbftMsg};
pub use persist::{DurabilityImage, RecoveredState, ReplicaDurability};
pub use replica::{Behavior, ReplicaNode};
pub use testkit::{
    invariant_violation, make_client, make_replica, Cluster, ClusterConfig, ReplicaSnapshot,
    Workload,
};
pub use verify::{SbftPreVerifier, ShareKind, ShareVerifyMap};
pub use viewchange::{compute_plan, validate_view_change, NewViewPlan, SlotDecision};
