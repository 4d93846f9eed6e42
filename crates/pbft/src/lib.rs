//! The "scale optimized PBFT" baseline of §IX.
//!
//! A from-scratch PBFT (Castro & Liskov, OSDI'99) implementation sharing
//! the SBFT reproduction's substrates (simulator, services, crypto cost
//! model) so that benchmark comparisons isolate the *protocol* difference:
//!
//! - all-to-all prepare and commit phases (quadratic message complexity);
//! - public-key signed server messages (§IX follows Clement et al.);
//! - direct replies: every replica answers every client, who waits for
//!   `f+1` matching replies;
//! - the quadratic checkpoint protocol;
//! - the classic view change with prepared-certificate proofs.
//!
//! SBFT's four ingredients (§I) replace, respectively: the two all-to-all
//! phases (collectors + threshold signatures), the multi-round commit
//! (fast path), the `f+1` replies (execution collectors), and the
//! sensitivity to single stragglers (redundant servers).

pub mod client;
pub mod keys;
pub mod messages;
pub mod replica;
pub mod testkit;

pub use client::PbftClient;
pub use keys::PbftKeys;
pub use messages::{pbft_block_digest, PbftMsg, PbftRequest, PbftViewChange, PreparedProof};
pub use replica::{PbftConfig, PbftReplica};
pub use testkit::{PbftCluster, PbftClusterConfig};
