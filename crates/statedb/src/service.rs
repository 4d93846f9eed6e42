//! The generic replicated-service interface of §IV.
//!
//! "As a generic replication library, SBFT requires an implementation of
//! the following service interface to be received as an initialization
//! parameter": deterministic operations `execute(D, o)` over a state `D`,
//! plus the data-authentication interface `digest(D)`,
//! `proof(o, l, s, D, val)` and `verify(d, o, val, s, l, P)`.
//!
//! The state digest of block `s` commits to both the post-execution state
//! root and the Merkle root of the block's operation results:
//! `d_s = H(s || state_root || results_root)`. A client holding the π
//! threshold signature on `d_s` can then verify its operation's output with
//! one Merkle path — the single-message acknowledgement of §V-D.
//!
//! A [`Service`] only computes: it executes a block, op by op in block
//! order, and hands back a [`BlockExecution`] carrying the block's
//! results and their Merkle tree. It keeps no per-block history. The replica stores each block's
//! execution until the block's checkpoint is stable and serves
//! `proof(o, l, s, D, val)` from it ([`BlockExecution::proof`]).

use sbft_types::{Digest, SeqNum};

use sbft_crypto::{sha256, sha256_concat, MerkleProof, MerkleTree, Sha256};

/// Raw, service-opaque encoding of one operation as carried in blocks.
pub type RawOp = Vec<u8>;

/// Result of executing one block on a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockExecution {
    /// Sequence number of the executed block.
    pub seq: SeqNum,
    /// The state digest `d_s` that replicas sign with π shares.
    pub state_digest: Digest,
    /// The post-execution state root (component of `d_s`).
    pub state_root: Digest,
    /// The Merkle tree over this block's results: its root is the other
    /// component of `d_s`, its paths are the execute-ack proofs.
    pub results_tree: MerkleTree,
    /// Per-operation outputs, in block order.
    pub results: Vec<Vec<u8>>,
    /// Simulated CPU cost of executing the block, in nanoseconds.
    pub cpu_cost_ns: u64,
}

impl BlockExecution {
    /// Finishes a block whose operations produced `results` and left the
    /// state at `state_root`: builds the results tree and the signed
    /// digest `d_s`. Every service's `execute_block` ends here.
    pub fn finish(
        seq: SeqNum,
        state_root: Digest,
        ops: &[RawOp],
        results: Vec<Vec<u8>>,
        cpu_cost_ns: u64,
    ) -> BlockExecution {
        let results_tree = results_tree(ops, &results);
        BlockExecution {
            seq,
            state_digest: combine_state_digest(seq, &state_root, &results_tree.root()),
            state_root,
            results_tree,
            results,
            cpu_cost_ns,
        }
    }

    /// The Merkle root over this block's results (component of `d_s`).
    pub fn results_root(&self) -> Digest {
        self.results_tree.root()
    }

    /// The `proof(o, l, s, D, val)` of §IV for operation `l`: `None` when
    /// the block has no operation `l`.
    pub fn proof(&self, l: usize) -> Option<ExecutionProof> {
        Some(ExecutionProof {
            state_root: self.state_root,
            result_path: self.results_tree.proof(l)?,
        })
    }
}

/// Proof that operation `l` of block `s` produced a given output
/// (the `proof(o, l, s, D, val)` object of §IV).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionProof {
    /// The post-execution state root of block `s`.
    pub state_root: Digest,
    /// Merkle path for the result leaf under the block's results root.
    pub result_path: MerkleProof,
}

/// Computes the result-leaf bytes for operation `l` with output `val`.
fn result_leaf(l: usize, op: &[u8], val: &[u8]) -> Vec<u8> {
    let mut leaf = Vec::with_capacity(8 + 32 + val.len());
    leaf.extend_from_slice(&(l as u64).to_le_bytes());
    leaf.extend_from_slice(sha256(op).as_bytes());
    leaf.extend_from_slice(val);
    leaf
}

/// Combines a block's components into the signed state digest `d_s`.
pub fn combine_state_digest(seq: SeqNum, state_root: &Digest, results_root: &Digest) -> Digest {
    sha256_concat(&[
        b"sbft-state|",
        &seq.get().to_le_bytes(),
        state_root.as_bytes(),
        results_root.as_bytes(),
    ])
}

/// Builds the Merkle tree over a block's results.
fn results_tree(ops: &[RawOp], results: &[Vec<u8>]) -> MerkleTree {
    assert_eq!(ops.len(), results.len(), "one result per operation");
    MerkleTree::from_leaves(
        ops.iter()
            .zip(results)
            .enumerate()
            .map(|(l, (op, val))| result_leaf(l, op, val)),
    )
}

/// The client-side verification `verify(d, o, val, s, l, P)` of §IV.
///
/// Returns `true` iff `proof` shows that `op` was executed as the `l`-th
/// operation of the block at sequence `s`, produced output `val`, and the
/// resulting state has digest `d`.
pub fn verify_execution(
    d: &Digest,
    op: &[u8],
    val: &[u8],
    seq: SeqNum,
    l: usize,
    proof: &ExecutionProof,
) -> bool {
    let leaf = result_leaf(l, op, val);
    let results_root = proof.result_path.compute_root(&leaf);
    combine_state_digest(seq, &proof.state_root, &results_root) == *d
}

/// The hash of a decision block: `h = H(s || v || r)` (§V-C).
pub fn block_hash(seq: SeqNum, view: u64, requests: &[RawOp]) -> Digest {
    let mut h = Sha256::new();
    h.update(b"sbft-block|");
    h.update(&seq.get().to_le_bytes());
    h.update(&view.to_le_bytes());
    h.update(&(requests.len() as u64).to_le_bytes());
    for r in requests {
        h.update(sha256(r).as_bytes());
    }
    h.finalize()
}

/// Digest of a single operation (clients reference long operations by
/// digest, §V-A: "when o is long we just send the digest of o").
pub fn op_digest(op: &[u8]) -> Digest {
    sha256_concat(&[b"sbft-op|", op])
}

/// A deterministic replicated service (§IV "Generic service"): a pure
/// state machine that executes blocks in sequence order. `Send`, so a
/// replica can move it onto its executor thread.
pub trait Service: Send {
    /// Executes a block of operations one after another, in block order,
    /// advancing the state from `D_{s-1}` to `D_s`, and returns outputs +
    /// the signed state digest. This is the only execution algorithm: the
    /// replica calls it in place on its node thread or on its executor
    /// thread, and nothing else differs.
    fn execute_block(&mut self, seq: SeqNum, ops: &[RawOp]) -> BlockExecution;

    /// The digest of the current state (after the last executed block).
    fn state_digest(&self) -> Digest;

    /// Sequence number of the last executed block.
    fn last_executed(&self) -> SeqNum;

    /// Snapshots the current authenticated state (O(1) structural share),
    /// used for checkpoints and state transfer.
    fn snapshot(&self) -> crate::trie::AuthKv;

    /// Replaces the state wholesale with a transferred snapshot.
    fn install(&mut self, state: crate::trie::AuthKv, seq: SeqNum, digest: Digest);

    /// Upcast for downcasting concrete services in tests and examples.
    fn as_any(&self) -> &dyn std::any::Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_round_trip() {
        let ops: Vec<RawOp> = vec![b"op0".to_vec(), b"op1".to_vec(), b"op2".to_vec()];
        let results = vec![b"r0".to_vec(), b"r1".to_vec(), b"r2".to_vec()];
        let state_root = Digest::new([7u8; 32]);
        let seq = SeqNum::new(5);
        let exec = BlockExecution::finish(seq, state_root, &ops, results.clone(), 0);
        let d = exec.state_digest;
        assert_eq!(
            d,
            combine_state_digest(seq, &state_root, &exec.results_root())
        );
        assert!(exec.proof(3).is_none(), "no proof past the last op");
        for l in 0..3 {
            let proof = exec.proof(l).unwrap();
            assert!(verify_execution(&d, &ops[l], &results[l], seq, l, &proof));
            // Wrong value fails.
            assert!(!verify_execution(&d, &ops[l], b"bogus", seq, l, &proof));
            // Wrong position fails.
            assert!(!verify_execution(
                &d,
                &ops[l],
                &results[l],
                seq,
                l + 1,
                &proof
            ));
            // Wrong sequence fails.
            assert!(!verify_execution(
                &d,
                &ops[l],
                &results[l],
                seq.next(),
                l,
                &proof
            ));
        }
    }

    #[test]
    fn block_hash_depends_on_all_parts() {
        let ops: Vec<RawOp> = vec![b"a".to_vec()];
        let h = block_hash(SeqNum::new(1), 0, &ops);
        assert_ne!(h, block_hash(SeqNum::new(2), 0, &ops));
        assert_ne!(h, block_hash(SeqNum::new(1), 1, &ops));
        assert_ne!(h, block_hash(SeqNum::new(1), 0, &[b"b".to_vec()]));
        assert_eq!(h, block_hash(SeqNum::new(1), 0, &[b"a".to_vec()]));
    }

    #[test]
    fn state_digest_commits_to_both_roots() {
        let s = SeqNum::new(9);
        let a = Digest::new([1; 32]);
        let b = Digest::new([2; 32]);
        assert_ne!(
            combine_state_digest(s, &a, &b),
            combine_state_digest(s, &b, &a)
        );
        assert_ne!(
            combine_state_digest(s, &a, &b),
            combine_state_digest(s.next(), &a, &b)
        );
    }

    #[test]
    #[should_panic(expected = "one result per operation")]
    fn results_tree_arity_check() {
        results_tree(&[b"op".to_vec()], &[]);
    }
}
