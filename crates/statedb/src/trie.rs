//! An authenticated key-value map: a Merkle crit-bit trie.
//!
//! §IV requires "an authenticated key-value store [that] uses a Merkle tree
//! interface for data authentication", able to prove to a client reading
//! from a *single* replica that a key has a given value at a given state.
//!
//! Keys are addressed by the bits of `SHA-256(key)` (so the trie shape is
//! balanced regardless of key distribution) in a crit-bit (PATRICIA) trie:
//! each internal node stores the first bit index at which its two subtrees
//! differ. Nodes are reference-counted and copy-on-write, so snapshots of
//! the whole store are O(1) and share structure — this is what makes
//! per-sequence-number state snapshots (§IV `D_s`) affordable.
//!
//! A write descends twice. The first pass is read-only: the leaf the key's
//! bits lead to shares the longest hash prefix with the key, so the first
//! bit at which their hashes differ is where the key splits off (the
//! classic crit-bit insert). The second pass takes each node on the path
//! through `Arc::make_mut`: a node nothing else holds is mutated in place,
//! and a node is copied only when a snapshot shares it. Between snapshots
//! a write therefore allocates nothing but the new leaf and its branch.
//!
//! Node digests are **lazy**: a write only clears the cached digests on
//! its path, and hashes are computed on the first [`AuthKv::root`] /
//! [`AuthKv::prove`] after a batch of writes (then cached in the node, so
//! shared subtrees never re-hash). A block that touches a hot path through
//! the trie many times pays for one digest recomputation of that path per
//! block, not one per operation — the execute loop's root caching the
//! replica relies on.
//!
//! Nodes are `Arc`-counted with `OnceLock` digest cells, so [`AuthKv`] is
//! `Send + Sync`: the execution pipeline ships O(1) snapshots across
//! threads and wave workers read one snapshot concurrently (see
//! [`crate::exec`]). Mutation still requires `&mut AuthKv` — concurrency
//! is over immutable snapshots, never shared writes.

use std::mem;
use std::sync::{Arc, OnceLock};

use sbft_types::Digest;

use sbft_crypto::{sha256, Sha256};

/// Returns bit `i` (0 = most significant) of a 32-byte hash.
fn bit(hash: &[u8; 32], i: u16) -> bool {
    (hash[(i / 8) as usize] >> (7 - (i % 8))) & 1 == 1
}

/// Finds the first bit index at which two hashes differ.
/// Returns `None` when equal.
fn first_diff_bit(a: &[u8; 32], b: &[u8; 32]) -> Option<u16> {
    for i in 0..32 {
        let x = a[i] ^ b[i];
        if x != 0 {
            return Some((i * 8) as u16 + x.leading_zeros() as u16);
        }
    }
    None
}

fn leaf_digest(key: &[u8], value: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x00]);
    h.update(&(key.len() as u64).to_le_bytes());
    h.update(key);
    h.update(value);
    h.finalize()
}

fn branch_digest(crit_bit: u16, left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(&[0x01]);
    h.update(&crit_bit.to_le_bytes());
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        key_hash: [u8; 32],
        key: Vec<u8>,
        value: Vec<u8>,
        digest: OnceLock<Digest>,
    },
    Branch {
        crit_bit: u16,
        left: Arc<Node>,
        right: Arc<Node>,
        digest: OnceLock<Digest>,
    },
}

impl Node {
    /// The node's Merkle digest, computed on first use and cached in the
    /// node. Shared (copy-on-write) subtrees keep their filled cells, so
    /// after a batch of writes only the written paths re-hash.
    fn digest(&self) -> Digest {
        match self {
            Node::Leaf {
                key, value, digest, ..
            } => *digest.get_or_init(|| leaf_digest(key, value)),
            Node::Branch {
                crit_bit,
                left,
                right,
                digest,
            } => *digest.get_or_init(|| branch_digest(*crit_bit, &left.digest(), &right.digest())),
        }
    }

    fn leaf(key_hash: [u8; 32], key: Vec<u8>, value: Vec<u8>) -> Arc<Node> {
        Arc::new(Node::Leaf {
            key_hash,
            key,
            value,
            digest: OnceLock::new(),
        })
    }

    /// Descends one level on a write: makes the branch behind `slot`
    /// writable — mutated in place when nothing else holds it, copied
    /// only when a snapshot shares it — clears its cached digest (the
    /// write below changes it) and returns the child `key_hash` leads to.
    fn child_mut<'a>(slot: &'a mut Arc<Node>, key_hash: &[u8; 32]) -> &'a mut Arc<Node> {
        match Arc::make_mut(slot) {
            Node::Branch {
                crit_bit,
                left,
                right,
                digest,
            } => {
                digest.take();
                if bit(key_hash, *crit_bit) {
                    right
                } else {
                    left
                }
            }
            Node::Leaf { .. } => unreachable!("writes descend through branches only"),
        }
    }

    /// The value of a leaf being dropped from the trie: moved out when
    /// nothing else holds the leaf, cloned when a snapshot does.
    fn into_value(leaf: Arc<Node>) -> Option<Vec<u8>> {
        match Arc::unwrap_or_clone(leaf) {
            Node::Leaf { value, .. } => Some(value),
            Node::Branch { .. } => None,
        }
    }
}

/// One step of a trie proof: the crit-bit index and the sibling digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrieProofStep {
    /// Bit index of the branch node.
    pub crit_bit: u16,
    /// Digest of the sibling subtree.
    pub sibling: Digest,
    /// `true` if the lookup path went right (sibling is the left child).
    pub went_right: bool,
}

/// Proof that a key maps to a value (membership) or is absent.
///
/// For absence the proof carries the *witness leaf* the lookup terminates
/// at; the verifier checks that the witness key differs from the queried
/// key, which in a crit-bit trie implies absence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrieProof {
    /// The leaf key found at the lookup position.
    pub witness_key: Vec<u8>,
    /// The value stored at the witness leaf.
    pub witness_value: Vec<u8>,
    /// Path from leaf to root.
    pub steps: Vec<TrieProofStep>,
}

impl TrieProof {
    /// Recomputes the root digest implied by this proof.
    pub fn compute_root(&self) -> Digest {
        let mut acc = leaf_digest(&self.witness_key, &self.witness_value);
        for step in &self.steps {
            acc = if step.went_right {
                branch_digest(step.crit_bit, &step.sibling, &acc)
            } else {
                branch_digest(step.crit_bit, &acc, &step.sibling)
            };
        }
        acc
    }

    /// Verifies that `key` maps to `Some(value)` / `None` under `root`.
    pub fn verify(&self, root: &Digest, key: &[u8], expected: Option<&[u8]>) -> bool {
        if self.compute_root() != *root {
            return false;
        }
        // The path must actually be the lookup path for `key`: each branch
        // step must branch on the side the key's hash dictates.
        let key_hash = *sha256(key).as_bytes();
        for step in &self.steps {
            if bit(&key_hash, step.crit_bit) != step.went_right {
                return false;
            }
        }
        match expected {
            Some(value) => self.witness_key == key && self.witness_value == value,
            None => self.witness_key != key,
        }
    }
}

/// A Merkle crit-bit trie with O(1) copy-on-write snapshots.
///
/// # Examples
///
/// ```
/// use sbft_statedb::AuthKv;
///
/// let mut kv = AuthKv::new();
/// kv.insert(b"alice".to_vec(), b"100".to_vec());
/// let snapshot = kv.clone(); // O(1), shares structure
/// kv.insert(b"alice".to_vec(), b"50".to_vec());
/// assert_eq!(snapshot.get(b"alice"), Some(&b"100"[..]));
/// assert_eq!(kv.get(b"alice"), Some(&b"50"[..]));
/// assert_ne!(snapshot.root(), kv.root());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AuthKv {
    root: Option<Arc<Node>>,
    len: usize,
}

impl AuthKv {
    /// Creates an empty store.
    pub fn new() -> Self {
        AuthKv::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The Merkle root ([`Digest::ZERO`] when empty).
    pub fn root(&self) -> Digest {
        self.root
            .as_ref()
            .map(|n| n.digest())
            .unwrap_or(Digest::ZERO)
    }

    /// The leaf `key_hash`'s bits lead to: the key's own leaf if it is
    /// stored, else the stored key sharing the longest hash prefix with
    /// it. `None` only when the store is empty.
    fn leaf_for(&self, key_hash: &[u8; 32]) -> Option<&Node> {
        let mut node = self.root.as_deref()?;
        while let Node::Branch {
            crit_bit,
            left,
            right,
            ..
        } = node
        {
            node = if bit(key_hash, *crit_bit) {
                right
            } else {
                left
            };
        }
        Some(node)
    }

    /// Looks up a key.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        self.get_hashed(&*sha256(key).as_bytes(), key)
    }

    /// [`AuthKv::get`] with the key's SHA-256 already computed — callers
    /// that touch the same keys repeatedly (a block's execute loop)
    /// memoize the hash instead of re-hashing per operation.
    pub fn get_hashed(&self, key_hash: &[u8; 32], key: &[u8]) -> Option<&[u8]> {
        match self.leaf_for(key_hash)? {
            Node::Leaf {
                key: found, value, ..
            } if found.as_slice() == key => Some(value),
            _ => None,
        }
    }

    /// Inserts or updates a key, returning the previous value if any.
    pub fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) -> Option<Vec<u8>> {
        let key_hash = *sha256(&key).as_bytes();
        self.insert_hashed(key_hash, key, value)
    }

    /// [`AuthKv::insert`] with the key's SHA-256 already computed.
    pub fn insert_hashed(
        &mut self,
        key_hash: [u8; 32],
        key: Vec<u8>,
        value: Vec<u8>,
    ) -> Option<Vec<u8>> {
        // First descent, read-only: the crit bit is the first bit at which
        // the key's hash differs from the leaf its bits lead to.
        let Some(Node::Leaf {
            key_hash: found, ..
        }) = self.leaf_for(&key_hash)
        else {
            // An empty store: the key becomes the root.
            self.root = Some(Node::leaf(key_hash, key, value));
            self.len = 1;
            return None;
        };
        let crit = first_diff_bit(found, &key_hash);
        // Second descent, in place: past every branch that tests a bit
        // before the crit bit (every branch, on an update).
        let mut slot = self.root.as_mut().expect("a leaf was found");
        while let Node::Branch { crit_bit, .. } = **slot {
            if crit.is_some_and(|crit| crit < crit_bit) {
                break;
            }
            slot = Node::child_mut(slot, &key_hash);
        }
        let Some(crit) = crit else {
            // Same hash: an update of the stored key (hash collisions are
            // cryptographically negligible).
            let Node::Leaf {
                value: old, digest, ..
            } = Arc::make_mut(slot)
            else {
                unreachable!("an update descends to the key's leaf");
            };
            digest.take();
            return Some(mem::replace(old, value));
        };
        // The new key splits off above the subtree at `slot`.
        let leaf = Node::leaf(key_hash, key, value);
        let (left, right) = if bit(&key_hash, crit) {
            (Arc::clone(slot), leaf)
        } else {
            (leaf, Arc::clone(slot))
        };
        *slot = Arc::new(Node::Branch {
            crit_bit: crit,
            left,
            right,
            digest: OnceLock::new(),
        });
        self.len += 1;
        None
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.remove_hashed(&*sha256(key).as_bytes(), key)
    }

    /// [`AuthKv::remove`] with the key's SHA-256 already computed.
    pub fn remove_hashed(&mut self, key_hash: &[u8; 32], key: &[u8]) -> Option<Vec<u8>> {
        // First descent, read-only: only a stored key changes the trie.
        match self.leaf_for(key_hash)? {
            Node::Leaf { key: found, .. } if found.as_slice() == key => self.len -= 1,
            _ => return None,
        }
        // Second descent, in place, to the branch above the key's leaf,
        // whose other child then takes the branch's place.
        let mut slot = self.root.as_mut()?;
        while let Node::Branch {
            crit_bit,
            left,
            right,
            ..
        } = &**slot
        {
            let (child, sibling) = if bit(key_hash, *crit_bit) {
                (right, left)
            } else {
                (left, right)
            };
            if let Node::Leaf { .. } = **child {
                let leaf = Arc::clone(child);
                *slot = Arc::clone(sibling);
                return Node::into_value(leaf);
            }
            slot = Node::child_mut(slot, key_hash);
        }
        // The key's leaf is the root.
        self.root.take().and_then(Node::into_value)
    }

    /// Builds a membership/absence proof for a key.
    ///
    /// Returns `None` only when the store is empty (an empty store's root
    /// is the [`Digest::ZERO`] sentinel, which no proof matches).
    pub fn prove(&self, key: &[u8]) -> Option<TrieProof> {
        let key_hash = *sha256(key).as_bytes();
        let mut node = self.root.as_deref()?;
        let mut steps_root_to_leaf = Vec::new();
        loop {
            match node {
                Node::Leaf {
                    key: leaf_key,
                    value,
                    ..
                } => {
                    let mut steps = steps_root_to_leaf;
                    // Proofs are stored leaf-to-root.
                    steps.reverse();
                    return Some(TrieProof {
                        witness_key: leaf_key.clone(),
                        witness_value: value.clone(),
                        steps,
                    });
                }
                Node::Branch {
                    crit_bit,
                    left,
                    right,
                    ..
                } => {
                    let went_right = bit(&key_hash, *crit_bit);
                    let (next, sibling) = if went_right {
                        (right, left.digest())
                    } else {
                        (left, right.digest())
                    };
                    steps_root_to_leaf.push(TrieProofStep {
                        crit_bit: *crit_bit,
                        sibling,
                        went_right,
                    });
                    node = next;
                }
            }
        }
    }

    /// Iterates all `(key, value)` pairs (order: by key hash).
    pub fn iter(&self) -> Iter<'_> {
        let mut stack = Vec::new();
        if let Some(root) = self.root.as_deref() {
            stack.push(root);
        }
        Iter { stack }
    }
}

/// Iterator over the trie's entries.
pub struct Iter<'a> {
    stack: Vec<&'a Node>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a [u8], &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(node) = self.stack.pop() {
            match node {
                Node::Leaf { key, value, .. } => return Some((key, value)),
                Node::Branch { left, right, .. } => {
                    self.stack.push(right);
                    self.stack.push(left);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_crypto::SplitMix64;
    use std::collections::BTreeMap;

    fn random_key(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
        let len = 1 + (rng.next_u64() as usize) % (max_len - 1);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    fn random_value(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
        let len = (rng.next_u64() as usize) % max_len;
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    fn kv(pairs: &[(&str, &str)]) -> AuthKv {
        let mut store = AuthKv::new();
        for (k, v) in pairs {
            store.insert(k.as_bytes().to_vec(), v.as_bytes().to_vec());
        }
        store
    }

    #[test]
    fn insert_get_update() {
        let mut store = AuthKv::new();
        assert_eq!(store.get(b"a"), None);
        assert_eq!(store.insert(b"a".to_vec(), b"1".to_vec()), None);
        assert_eq!(store.get(b"a"), Some(&b"1"[..]));
        assert_eq!(
            store.insert(b"a".to_vec(), b"2".to_vec()),
            Some(b"1".to_vec())
        );
        assert_eq!(store.get(b"a"), Some(&b"2"[..]));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn many_keys() {
        let mut store = AuthKv::new();
        for i in 0..500u32 {
            store.insert(i.to_string().into_bytes(), vec![i as u8]);
        }
        assert_eq!(store.len(), 500);
        for i in 0..500u32 {
            assert_eq!(store.get(i.to_string().as_bytes()), Some(&[i as u8][..]));
        }
        assert_eq!(store.get(b"501"), None);
    }

    #[test]
    fn update_existing_key_under_branch() {
        // Regression: updating a stored key must descend to its leaf,
        // not split.
        let mut store = AuthKv::new();
        for i in 0..20u32 {
            store.insert(i.to_string().into_bytes(), b"v1".to_vec());
        }
        for i in 0..20u32 {
            assert_eq!(
                store.insert(i.to_string().into_bytes(), b"v2".to_vec()),
                Some(b"v1".to_vec()),
                "update of key {i}"
            );
        }
        assert_eq!(store.len(), 20);
        for i in 0..20u32 {
            assert_eq!(store.get(i.to_string().as_bytes()), Some(&b"v2"[..]));
        }
    }

    #[test]
    fn root_changes_with_content() {
        let a = kv(&[("x", "1"), ("y", "2")]);
        let b = kv(&[("x", "1"), ("y", "2")]);
        let c = kv(&[("x", "1"), ("y", "3")]);
        assert_eq!(a.root(), b.root());
        assert_ne!(a.root(), c.root());
        // Insertion order does not matter.
        let d = kv(&[("y", "2"), ("x", "1")]);
        assert_eq!(a.root(), d.root());
        assert_eq!(AuthKv::new().root(), Digest::ZERO);
    }

    #[test]
    fn snapshots_are_independent() {
        let mut store = kv(&[("k", "v1")]);
        let snap = store.clone();
        store.insert(b"k".to_vec(), b"v2".to_vec());
        store.insert(b"k2".to_vec(), b"x".to_vec());
        assert_eq!(snap.get(b"k"), Some(&b"v1"[..]));
        assert_eq!(snap.get(b"k2"), None);
        assert_eq!(snap.len(), 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn remove_works_and_restores_root() {
        let base = kv(&[("a", "1"), ("b", "2")]);
        let mut store = base.clone();
        store.insert(b"c".to_vec(), b"3".to_vec());
        assert_eq!(store.remove(b"c"), Some(b"3".to_vec()));
        assert_eq!(store.root(), base.root());
        assert_eq!(store.remove(b"missing"), None);
        assert_eq!(store.len(), 2);
        // Remove down to empty.
        assert!(store.remove(b"a").is_some());
        assert!(store.remove(b"b").is_some());
        assert!(store.is_empty());
        assert_eq!(store.root(), Digest::ZERO);
    }

    #[test]
    fn membership_proofs() {
        let store = kv(&[("alice", "100"), ("bob", "50"), ("carol", "7")]);
        let root = store.root();
        for (k, v) in [("alice", "100"), ("bob", "50"), ("carol", "7")] {
            let proof = store.prove(k.as_bytes()).unwrap();
            assert!(proof.verify(&root, k.as_bytes(), Some(v.as_bytes())), "{k}");
            // Wrong value fails.
            assert!(!proof.verify(&root, k.as_bytes(), Some(b"999")));
            // Wrong root fails.
            assert!(!proof.verify(&Digest::ZERO, k.as_bytes(), Some(v.as_bytes())));
        }
    }

    #[test]
    fn absence_proofs() {
        let store = kv(&[("alice", "100"), ("bob", "50")]);
        let root = store.root();
        let proof = store.prove(b"mallory").unwrap();
        assert!(proof.verify(&root, b"mallory", None));
        // An absence proof cannot claim presence.
        assert!(!proof.verify(&root, b"mallory", Some(b"1")));
        // A membership proof cannot claim absence.
        let proof = store.prove(b"alice").unwrap();
        assert!(!proof.verify(&root, b"alice", None));
    }

    #[test]
    fn proof_for_one_key_rejects_another() {
        let store = kv(&[("alice", "100"), ("bob", "50"), ("carol", "7")]);
        let root = store.root();
        let proof = store.prove(b"alice").unwrap();
        // Alice's proof must not verify bob's value (path check).
        assert!(!proof.verify(&root, b"bob", Some(b"50")));
    }

    #[test]
    fn iteration_covers_all() {
        let store = kv(&[("a", "1"), ("b", "2"), ("c", "3")]);
        let collected: BTreeMap<Vec<u8>, Vec<u8>> = store
            .iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        assert_eq!(collected.len(), 3);
        assert_eq!(collected[&b"b"[..].to_vec()], b"2".to_vec());
    }

    #[test]
    fn hashed_entry_points_match_plain_ones() {
        let mut plain = AuthKv::new();
        let mut hashed = AuthKv::new();
        for i in 0..64u32 {
            let key = i.to_string().into_bytes();
            let value = vec![i as u8; 4];
            plain.insert(key.clone(), value.clone());
            let h = *sha256(&key).as_bytes();
            hashed.insert_hashed(h, key.clone(), value);
            assert_eq!(hashed.get_hashed(&h, &key), plain.get(&key));
        }
        assert_eq!(plain.root(), hashed.root());
        for i in (0..64u32).step_by(3) {
            let key = i.to_string().into_bytes();
            let h = *sha256(&key).as_bytes();
            assert_eq!(hashed.remove_hashed(&h, &key), plain.remove(&key));
        }
        assert_eq!(plain.root(), hashed.root());
    }

    #[test]
    fn lazy_digests_survive_snapshot_interleaving() {
        // Snapshots taken before digests are ever forced must still hash
        // to the same root as an eagerly-observed copy, and mutations
        // after forcing must invalidate exactly the written path.
        let mut store = AuthKv::new();
        for i in 0..32u32 {
            store.insert(i.to_string().into_bytes(), b"v1".to_vec());
        }
        let snap_unforced = store.clone(); // no digest computed yet
        let root_before = store.root(); // forces digests (shared with snap)
        store.insert(b"7".to_vec(), b"v2".to_vec());
        let root_after = store.root();
        assert_ne!(root_before, root_after);
        assert_eq!(snap_unforced.root(), root_before);
        // An independently-built store with the same final content agrees.
        let mut rebuilt = AuthKv::new();
        for i in 0..32u32 {
            let v: &[u8] = if i == 7 { b"v2" } else { b"v1" };
            rebuilt.insert(i.to_string().into_bytes(), v.to_vec());
        }
        assert_eq!(rebuilt.root(), root_after);
    }

    #[test]
    fn prop_matches_btreemap() {
        let mut rng = SplitMix64::new(0x51);
        for _ in 0..48 {
            let op_count = 1 + (rng.next_u64() as usize) % 59;
            let mut store = AuthKv::new();
            let mut reference = BTreeMap::new();
            for _ in 0..op_count {
                let key = random_key(&mut rng, 8);
                let value = random_value(&mut rng, 8);
                let is_remove = rng.next_u64() & 1 == 1;
                if is_remove {
                    assert_eq!(store.remove(&key), reference.remove(&key));
                } else {
                    assert_eq!(
                        store.insert(key.clone(), value.clone()),
                        reference.insert(key, value)
                    );
                }
                assert_eq!(store.len(), reference.len());
            }
            for (key, value) in &reference {
                assert_eq!(store.get(key), Some(value.as_slice()));
            }
        }
    }

    #[test]
    fn prop_proofs_verify() {
        let mut rng = SplitMix64::new(0x52);
        for _ in 0..48 {
            let entry_count = 1 + (rng.next_u64() as usize) % 29;
            let mut entries: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            while entries.len() < entry_count {
                entries.insert(random_key(&mut rng, 6), random_value(&mut rng, 6));
            }
            let probe = random_key(&mut rng, 6);
            let mut store = AuthKv::new();
            for (k, v) in &entries {
                store.insert(k.clone(), v.clone());
            }
            let root = store.root();
            for (k, v) in &entries {
                let proof = store.prove(k).unwrap();
                assert!(proof.verify(&root, k, Some(v)));
            }
            let proof = store.prove(&probe).unwrap();
            assert!(proof.verify(&root, &probe, entries.get(&probe).map(|v| v.as_slice())));
        }
    }

    #[test]
    fn prop_root_is_history_independent() {
        let mut rng = SplitMix64::new(0x53);
        for _ in 0..48 {
            let entry_count = 1 + (rng.next_u64() as usize) % 29;
            // Dedup by key, keeping the last write.
            let mut dedup: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for _ in 0..entry_count {
                dedup.insert(random_key(&mut rng, 6), random_value(&mut rng, 6));
            }
            let mut forward = AuthKv::new();
            for (k, v) in dedup.iter() {
                forward.insert(k.clone(), v.clone());
            }
            let mut backward = AuthKv::new();
            for (k, v) in dedup.iter().rev() {
                backward.insert(k.clone(), v.clone());
            }
            assert_eq!(forward.root(), backward.root());
        }
    }

    /// A `(key, value)` pair.
    type Entry = (Vec<u8>, Vec<u8>);

    /// A model of the store keyed by key hash: its iteration order is the
    /// trie's, and [`reference_root`] hashes it.
    type Model = BTreeMap<[u8; 32], Entry>;

    /// The root of the canonical crit-bit trie over `entries`, built from
    /// scratch: `entries` is keyed (so sorted) by key hash, and each level
    /// splits on the first bit at which the smallest and largest hash
    /// differ. Independent of [`AuthKv`]'s incremental write path.
    fn reference_root(entries: &Model) -> Digest {
        fn build(entries: &[(&[u8; 32], &Entry)]) -> Digest {
            match entries {
                [(_, (key, value))] => leaf_digest(key, value),
                _ => {
                    let crit = first_diff_bit(entries[0].0, entries[entries.len() - 1].0)
                        .expect("distinct hashes");
                    let split = entries.partition_point(|(hash, _)| !bit(hash, crit));
                    branch_digest(crit, &build(&entries[..split]), &build(&entries[split..]))
                }
            }
        }
        let sorted: Vec<_> = entries.iter().collect();
        if sorted.is_empty() {
            Digest::ZERO
        } else {
            build(&sorted)
        }
    }

    fn model_entries(model: &Model) -> Vec<Entry> {
        model.values().cloned().collect()
    }

    fn store_entries(store: &AuthKv) -> Vec<Entry> {
        store
            .iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect()
    }

    /// One seeded write against both the store and the model: a put to a
    /// key from a 48-key space (an insert or an update) or a delete.
    fn random_write(rng: &mut SplitMix64, store: &mut AuthKv, model: &mut Model) {
        let key = (rng.next_u64() % 48).to_le_bytes().to_vec();
        let hash = *sha256(&key).as_bytes();
        if rng.next_u64().is_multiple_of(3) {
            assert_eq!(
                store.remove_hashed(&hash, &key),
                model.remove(&hash).map(|(_, v)| v)
            );
        } else {
            let value = random_value(rng, 12);
            assert_eq!(
                store.insert_hashed(hash, key.clone(), value.clone()),
                model.insert(hash, (key, value)).map(|(_, v)| v)
            );
        }
    }

    #[test]
    fn root_matches_reference_after_every_step() {
        let mut rng = SplitMix64::new(0x54);
        let mut store = AuthKv::new();
        let mut model = Model::new();
        for step in 0..1500 {
            random_write(&mut rng, &mut store, &mut model);
            assert_eq!(store.root(), reference_root(&model), "step {step}");
            assert_eq!(store.len(), model.len());
            assert_eq!(store_entries(&store), model_entries(&model));
        }
    }

    #[test]
    fn golden_root_of_a_seeded_store() {
        // Pins the digest format: any change to leaf/branch hashing or to
        // the trie's shape moves this root.
        let mut rng = SplitMix64::new(0x55);
        let mut store = AuthKv::new();
        let mut model = Model::new();
        for _ in 0..400 {
            random_write(&mut rng, &mut store, &mut model);
        }
        assert_eq!(store.len(), 35);
        assert_eq!(
            store.root().to_hex(),
            "75f2994879b43e6baea5988e90acb82ff8f2b279dc8d8aca37576ae260976c99"
        );
    }

    #[test]
    fn snapshots_never_see_later_writes() {
        let mut rng = SplitMix64::new(0x56);
        let mut store = AuthKv::new();
        let mut model = Model::new();
        // (snapshot, root, entries) as the writer stood when it was taken.
        let mut snapshots: Vec<(AuthKv, Digest, Vec<Entry>)> = Vec::new();
        for step in 0..1200 {
            if step % 300 == 250 {
                // Remove down to empty, then carry on re-inserting.
                for (hash, (key, value)) in std::mem::take(&mut model) {
                    assert_eq!(store.remove_hashed(&hash, &key), Some(value));
                }
                assert!(store.is_empty());
                assert_eq!(store.root(), Digest::ZERO);
            }
            match rng.next_u64() % 16 {
                // Take a snapshot; its root is captured from the model so
                // the snapshot's own digests stay unforced until checked.
                0 | 1 => {
                    snapshots.push((store.clone(), reference_root(&model), model_entries(&model)))
                }
                // Force the writer's digests now and then, so later writes
                // must clear cached digests on the path they touch.
                2 => assert_eq!(store.root(), reference_root(&model)),
                _ => random_write(&mut rng, &mut store, &mut model),
            }
            if step % 100 == 99 {
                for (snap, root, entries) in &snapshots {
                    assert_eq!(snap.root(), *root, "step {step}");
                    assert_eq!(snap.len(), entries.len());
                    assert_eq!(store_entries(snap), *entries);
                }
            }
        }
        assert!(snapshots.len() > 100);
        assert_eq!(store.root(), reference_root(&model));
        assert_eq!(store.len(), model.len());
        assert_eq!(store_entries(&store), model_entries(&model));
        for (hash, (key, value)) in &model {
            assert_eq!(store.get_hashed(hash, key), Some(value.as_slice()));
        }
    }
}
