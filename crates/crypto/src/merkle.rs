//! Merkle trees with inclusion proofs (§IV "An authenticated key-value
//! store").
//!
//! SBFT authenticates data read from a *single* replica with Merkle proofs:
//! the execute-ack a client receives carries `proof(o, l, s, D, val)` whose
//! verification is "the Merkle proof verification rooted at the digest d".
//! Leaves and inner nodes are hashed with distinct prefixes to rule out
//! second-preimage attacks across levels.

use sbft_types::Digest;

use crate::sha256::sha256_concat;

const LEAF_PREFIX: &[u8] = &[0x00];
const NODE_PREFIX: &[u8] = &[0x01];

/// Hashes a leaf value.
pub fn leaf_hash(data: &[u8]) -> Digest {
    sha256_concat(&[LEAF_PREFIX, data])
}

/// Hashes two child digests into their parent.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[NODE_PREFIX, left.as_bytes(), right.as_bytes()])
}

/// One step of a Merkle inclusion proof: the sibling digest and whether the
/// sibling sits to the right of the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProofStep {
    /// The sibling node's digest.
    pub sibling: Digest,
    /// `true` if the sibling is the right child at this level.
    pub sibling_is_right: bool,
}

/// A Merkle inclusion proof for one leaf.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MerkleProof {
    steps: Vec<ProofStep>,
}

impl MerkleProof {
    /// Creates a proof from its steps (wire codec entry point).
    pub fn from_steps(steps: Vec<ProofStep>) -> Self {
        MerkleProof { steps }
    }

    /// The proof's steps, leaf-to-root.
    pub fn steps(&self) -> &[ProofStep] {
        &self.steps
    }

    /// Number of steps (tree depth).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` for a proof over a single-leaf tree.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Recomputes the root implied by `leaf_data` under this proof.
    pub fn compute_root(&self, leaf_data: &[u8]) -> Digest {
        let mut acc = leaf_hash(leaf_data);
        for step in &self.steps {
            acc = if step.sibling_is_right {
                node_hash(&acc, &step.sibling)
            } else {
                node_hash(&step.sibling, &acc)
            };
        }
        acc
    }

    /// Verifies that `leaf_data` is included under `root`.
    pub fn verify(&self, root: &Digest, leaf_data: &[u8]) -> bool {
        self.compute_root(leaf_data) == *root
    }
}

/// A Merkle tree over a sequence of leaf values.
///
/// An odd node at any level is promoted unchanged to the next level
/// (no duplication), which is sound given the leaf/node domain separation.
///
/// # Examples
///
/// ```
/// use sbft_crypto::MerkleTree;
///
/// let tree = MerkleTree::from_leaves(vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
/// let proof = tree.proof(2).unwrap();
/// assert!(proof.verify(&tree.root(), b"c"));
/// assert!(!proof.verify(&tree.root(), b"x"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    // levels[0] = leaf hashes, last level = [root]
    levels: Vec<Vec<Digest>>,
    leaf_count: usize,
}

impl MerkleTree {
    /// Builds a tree over the given leaves. An empty input produces a tree
    /// whose root is [`Digest::ZERO`].
    pub fn from_leaves<I, B>(leaves: I) -> Self
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let level0: Vec<Digest> = leaves
            .into_iter()
            .map(|leaf| leaf_hash(leaf.as_ref()))
            .collect();
        Self::from_leaf_hashes(level0)
    }

    /// Builds a tree over precomputed leaf hashes.
    pub fn from_leaf_hashes(level0: Vec<Digest>) -> Self {
        let leaf_count = level0.len();
        let mut levels = vec![level0];
        while levels.last().expect("non-empty").len() > 1 {
            let prev = levels.last().expect("non-empty");
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            let mut i = 0;
            while i < prev.len() {
                if i + 1 < prev.len() {
                    next.push(node_hash(&prev[i], &prev[i + 1]));
                } else {
                    next.push(prev[i]); // promote odd node
                }
                i += 2;
            }
            levels.push(next);
        }
        MerkleTree { levels, leaf_count }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.leaf_count
    }

    /// Returns `true` if the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.leaf_count == 0
    }

    /// The Merkle root ([`Digest::ZERO`] for an empty tree).
    pub fn root(&self) -> Digest {
        match self.levels.last() {
            Some(level) if !level.is_empty() => level[0],
            _ => Digest::ZERO,
        }
    }

    /// Builds the inclusion proof for leaf `index`, or `None` if out of
    /// range.
    pub fn proof(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.leaf_count {
            return None;
        }
        let mut steps = Vec::new();
        let mut pos = index;
        for level in &self.levels[..self.levels.len().saturating_sub(1)] {
            let sibling_pos = pos ^ 1;
            if sibling_pos < level.len() {
                steps.push(ProofStep {
                    sibling: level[sibling_pos],
                    sibling_is_right: sibling_pos > pos,
                });
            }
            // Promoted odd nodes contribute no step at this level.
            pos /= 2;
        }
        Some(MerkleProof { steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    fn leaves(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn empty_tree() {
        let t = MerkleTree::from_leaves(Vec::<Vec<u8>>::new());
        assert!(t.is_empty());
        assert_eq!(t.root(), Digest::ZERO);
        assert!(t.proof(0).is_none());
    }

    #[test]
    fn single_leaf() {
        let t = MerkleTree::from_leaves(vec![b"only".to_vec()]);
        assert_eq!(t.root(), leaf_hash(b"only"));
        let p = t.proof(0).unwrap();
        assert!(p.is_empty());
        assert!(p.verify(&t.root(), b"only"));
        assert!(!p.verify(&t.root(), b"other"));
    }

    #[test]
    fn all_proofs_verify_for_many_sizes() {
        for n in 1..=33 {
            let data = leaves(n);
            let t = MerkleTree::from_leaves(data.clone());
            assert_eq!(t.len(), n);
            for (i, leaf) in data.iter().enumerate() {
                let p = t.proof(i).unwrap();
                assert!(p.verify(&t.root(), leaf), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn proof_rejects_wrong_leaf_and_wrong_root() {
        let data = leaves(10);
        let t = MerkleTree::from_leaves(data.clone());
        let p = t.proof(3).unwrap();
        assert!(!p.verify(&t.root(), b"leaf-4"));
        assert!(!p.verify(&Digest::ZERO, b"leaf-3"));
    }

    #[test]
    fn proof_for_wrong_position_fails() {
        let data = leaves(8);
        let t = MerkleTree::from_leaves(data.clone());
        let p3 = t.proof(3).unwrap();
        // Using leaf 5's data with leaf 3's proof must fail.
        assert!(!p3.verify(&t.root(), &data[5]));
    }

    #[test]
    fn domain_separation_leaf_vs_node() {
        // A leaf whose bytes equal a node encoding must not collide.
        let a = leaf_hash(b"x");
        let b = leaf_hash(b"y");
        let inner = node_hash(&a, &b);
        let mut fake_leaf = Vec::new();
        fake_leaf.extend_from_slice(a.as_bytes());
        fake_leaf.extend_from_slice(b.as_bytes());
        assert_ne!(leaf_hash(&fake_leaf), inner);
    }

    #[test]
    fn deterministic_roots() {
        let t1 = MerkleTree::from_leaves(leaves(13));
        let t2 = MerkleTree::from_leaves(leaves(13));
        assert_eq!(t1.root(), t2.root());
        let t3 = MerkleTree::from_leaves(leaves(14));
        assert_ne!(t1.root(), t3.root());
    }

    #[test]
    fn tampered_step_fails() {
        let data = leaves(6);
        let t = MerkleTree::from_leaves(data.clone());
        let p = t.proof(2).unwrap();
        let mut steps = p.steps().to_vec();
        steps[0].sibling = Digest::new([9u8; 32]);
        let bad = MerkleProof::from_steps(steps);
        assert!(!bad.verify(&t.root(), &data[2]));
    }

    fn random_leaves(
        rng: &mut SplitMix64,
        min_count: usize,
        max_count: usize,
        max_len: usize,
    ) -> Vec<Vec<u8>> {
        let count = min_count + (rng.next_u64() as usize) % (max_count - min_count);
        (0..count)
            .map(|_| {
                let len = (rng.next_u64() as usize) % max_len;
                (0..len).map(|_| rng.next_u64() as u8).collect()
            })
            .collect()
    }

    #[test]
    fn prop_inclusion() {
        let mut rng = SplitMix64::new(0x21);
        for _ in 0..64 {
            let data = random_leaves(&mut rng, 1, 64, 32);
            let t = MerkleTree::from_leaves(data.clone());
            let i = (rng.next_u64() as usize) % data.len();
            let p = t.proof(i).unwrap();
            assert!(p.verify(&t.root(), &data[i]));
        }
    }

    #[test]
    fn prop_cross_leaf_rejection() {
        let mut rng = SplitMix64::new(0x22);
        for _ in 0..64 {
            let data = random_leaves(&mut rng, 2, 32, 16);
            let t = MerkleTree::from_leaves(data.clone());
            let i = (rng.next_u64() as usize) % data.len();
            let j = (i + 1) % data.len();
            if data[i] == data[j] {
                continue;
            }
            let p = t.proof(i).unwrap();
            assert!(!p.verify(&t.root(), &data[j]));
        }
    }
}
