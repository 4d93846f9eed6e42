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
//! A write descends from the root to the leaf the key's bits lead to,
//! taking each node on the path through `Arc::make_mut`: a node nothing
//! else holds is mutated in place, and a node is copied only when a
//! snapshot shares it. On an update that leaf is the key's own, and the
//! write ends there. A new key splits off where its hash first differs
//! from that leaf's (the classic crit-bit insert), which a second descent
//! reaches; the first one's extra work below the split is a few cleared
//! digests that re-hash to the same values. Writes take the key by
//! reference, so between snapshots an update allocates nothing and an
//! insert only the new leaf (with its key) and its branch.
//!
//! Node digests are **lazy**: a write only clears the cached digests on
//! its path, and hashes are computed on the first [`AuthKv::root`] /
//! [`AuthKv::prove`] after a batch of writes (then cached in the node, so
//! shared subtrees never re-hash). A block that touches a hot path through
//! the trie many times pays for one digest recomputation of that path per
//! block, not one per operation — the execute loop's root caching the
//! replica relies on. A leaf hashes 9 bytes plus its key and value, and a
//! branch 67 bytes, so with short keys and values each is one `compress`
//! call of one or two blocks on the one-shot path of
//! [`sbft_crypto::sha256_concat`].
//!
//! Each node caches its digest in a `DigestCell` of four atomic words,
//! all zero while unset, written once after each write to the node.
//! A digest is a pure function of the node's contents, which are
//! immutable while the node is shared, so threads hashing shared nodes at
//! once (the executor thread in its live state, the node thread in a
//! checkpoint snapshot of it) may race to fill a cell, and every racer
//! stores the same four words. A reader trusts the cell only
//! when no word is zero, and those are then the final words; a partly
//! written cell reads as unset and is hashed again. So the cell needs no
//! lock, no `Once` and no atomic read-modify-write, and no ordering
//! beyond each word's own. Clearing it takes `&mut`, which no reader can
//! overlap. A digest with a zero word (probability 2^-62) is never cached,
//! only re-hashed on each use.
//!
//! Nodes are `Arc`-counted with these cells, so [`AuthKv`] is
//! `Send + Sync`: the executor thread ships O(1) checkpoint snapshots to
//! the node thread. Mutation still requires `&mut AuthKv` — concurrency
//! is over immutable snapshots, never shared writes.

use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sbft_types::Digest;

use sbft_crypto::{sha256, sha256_concat};

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
    sha256_concat(&[&[0x00], &(key.len() as u64).to_le_bytes(), key, value])
}

fn branch_digest(crit_bit: u16, left: &Digest, right: &Digest) -> Digest {
    sha256_concat(&[
        &[0x01],
        &crit_bit.to_le_bytes(),
        left.as_bytes(),
        right.as_bytes(),
    ])
}

/// A node's cached digest, written at most once between writes to the
/// node (see the module docs): all-zero words mean unset.
#[derive(Debug, Default)]
struct DigestCell([AtomicU64; 4]);

impl DigestCell {
    /// The cached digest, if every word of it has been stored.
    fn get(&self) -> Option<Digest> {
        let words = self.0.each_ref().map(|word| word.load(Ordering::Relaxed));
        if words.contains(&0) {
            return None;
        }
        let mut bytes = [0u8; 32];
        for (chunk, word) in bytes.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_ne_bytes());
        }
        Some(Digest::new(bytes))
    }

    /// Stores `digest`: racing stores all write these same words.
    fn set(&self, digest: &Digest) {
        for (word, chunk) in self.0.iter().zip(digest.as_bytes().chunks_exact(8)) {
            let chunk = chunk.try_into().expect("8-byte chunk");
            word.store(u64::from_ne_bytes(chunk), Ordering::Relaxed);
        }
    }

    /// Unsets the cell; `&mut` keeps every reader out.
    fn clear(&mut self) {
        for word in &mut self.0 {
            *word.get_mut() = 0;
        }
    }
}

impl Clone for DigestCell {
    fn clone(&self) -> Self {
        DigestCell(
            self.0
                .each_ref()
                .map(|word| AtomicU64::new(word.load(Ordering::Relaxed))),
        )
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        key_hash: [u8; 32],
        key: Box<[u8]>,
        value: Box<[u8]>,
        digest: DigestCell,
    },
    Branch {
        crit_bit: u16,
        left: Arc<Node>,
        right: Arc<Node>,
        digest: DigestCell,
    },
}

impl Node {
    /// The node's Merkle digest, computed on first use and cached in the
    /// node. Shared (copy-on-write) subtrees keep their filled cells, so
    /// after a batch of writes only the written paths re-hash.
    fn digest(&self) -> Digest {
        let cell = match self {
            Node::Leaf { digest, .. } | Node::Branch { digest, .. } => digest,
        };
        if let Some(digest) = cell.get() {
            return digest;
        }
        let digest = match self {
            Node::Leaf { key, value, .. } => leaf_digest(key, value),
            Node::Branch {
                crit_bit,
                left,
                right,
                ..
            } => branch_digest(*crit_bit, &left.digest(), &right.digest()),
        };
        cell.set(&digest);
        digest
    }

    fn leaf(key_hash: [u8; 32], key: &[u8], value: Vec<u8>) -> Arc<Node> {
        Arc::new(Node::Leaf {
            key_hash,
            key: key.into(),
            value: value.into_boxed_slice(),
            digest: DigestCell::default(),
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
                digest.clear();
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
            Node::Leaf { value, .. } => Some(value.into_vec()),
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
/// kv.insert(b"alice", b"100".to_vec());
/// let snapshot = kv.clone(); // O(1), shares structure
/// kv.insert(b"alice", b"50".to_vec());
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
        match self.leaf_for(sha256(key).as_bytes())? {
            Node::Leaf {
                key: found, value, ..
            } if **found == *key => Some(value),
            _ => None,
        }
    }

    /// Inserts or updates a key, returning the previous value if any. The
    /// key is copied only when it is new to the store.
    pub fn insert(&mut self, key: &[u8], value: Vec<u8>) -> Option<Vec<u8>> {
        self.insert_hashed(*sha256(key).as_bytes(), key, value)
    }

    /// [`AuthKv::insert`] with the key's SHA-256 already computed.
    fn insert_hashed(&mut self, key_hash: [u8; 32], key: &[u8], value: Vec<u8>) -> Option<Vec<u8>> {
        let Some(mut slot) = self.root.as_mut() else {
            // An empty store: the key becomes the root.
            self.root = Some(Node::leaf(key_hash, key, value));
            self.len = 1;
            return None;
        };
        // First descent, in place, to the leaf the key's bits lead to: the
        // key's own leaf on an update, which then ends here.
        while let Node::Branch { .. } = **slot {
            slot = Node::child_mut(slot, &key_hash);
        }
        let Node::Leaf {
            key_hash: found, ..
        } = &**slot
        else {
            unreachable!("the descent ends at a leaf");
        };
        // The crit bit is the first bit at which the key's hash differs
        // from that leaf's; the same hash is an update of the stored key
        // (hash collisions are cryptographically negligible).
        let Some(crit) = first_diff_bit(found, &key_hash) else {
            let Node::Leaf {
                value: old, digest, ..
            } = Arc::make_mut(slot)
            else {
                unreachable!("the descent ends at a leaf");
            };
            digest.clear();
            return Some(mem::replace(old, value.into_boxed_slice()).into_vec());
        };
        // A new key: a second descent, past every branch that tests a bit
        // before the crit bit. The first one also cleared (and, under a
        // snapshot, copied) the few branches below the split, which then
        // only re-hash to the same digests.
        let mut slot = self.root.as_mut().expect("the store is not empty");
        while let Node::Branch { crit_bit, .. } = **slot {
            if crit < crit_bit {
                break;
            }
            slot = Node::child_mut(slot, &key_hash);
        }
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
            digest: DigestCell::default(),
        });
        self.len += 1;
        None
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        self.remove_hashed(&*sha256(key).as_bytes(), key)
    }

    /// [`AuthKv::remove`] with the key's SHA-256 already computed.
    fn remove_hashed(&mut self, key_hash: &[u8; 32], key: &[u8]) -> Option<Vec<u8>> {
        // First descent, read-only: only a stored key changes the trie.
        match self.leaf_for(key_hash)? {
            Node::Leaf { key: found, .. } if **found == *key => self.len -= 1,
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
                        witness_key: leaf_key.to_vec(),
                        witness_value: value.to_vec(),
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
    use std::sync::Barrier;
    use std::thread;

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
            store.insert(k.as_bytes(), v.as_bytes().to_vec());
        }
        store
    }

    #[test]
    fn insert_get_update() {
        let mut store = AuthKv::new();
        assert_eq!(store.get(b"a"), None);
        assert_eq!(store.insert(b"a", b"1".to_vec()), None);
        assert_eq!(store.get(b"a"), Some(&b"1"[..]));
        assert_eq!(store.insert(b"a", b"2".to_vec()), Some(b"1".to_vec()));
        assert_eq!(store.get(b"a"), Some(&b"2"[..]));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn many_keys() {
        let mut store = AuthKv::new();
        for i in 0..500u32 {
            store.insert(i.to_string().as_bytes(), vec![i as u8]);
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
            store.insert(i.to_string().as_bytes(), b"v1".to_vec());
        }
        for i in 0..20u32 {
            assert_eq!(
                store.insert(i.to_string().as_bytes(), b"v2".to_vec()),
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
        store.insert(b"k", b"v2".to_vec());
        store.insert(b"k2", b"x".to_vec());
        assert_eq!(snap.get(b"k"), Some(&b"v1"[..]));
        assert_eq!(snap.get(b"k2"), None);
        assert_eq!(snap.len(), 1);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn remove_works_and_restores_root() {
        let base = kv(&[("a", "1"), ("b", "2")]);
        let mut store = base.clone();
        store.insert(b"c", b"3".to_vec());
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
            plain.insert(&key, value.clone());
            let h = *sha256(&key).as_bytes();
            hashed.insert_hashed(h, &key, value);
            assert_eq!(hashed.get(&key), plain.get(&key));
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
            store.insert(i.to_string().as_bytes(), b"v1".to_vec());
        }
        let snap_unforced = store.clone(); // no digest computed yet
        let root_before = store.root(); // forces digests (shared with snap)
        store.insert(b"7", b"v2".to_vec());
        let root_after = store.root();
        assert_ne!(root_before, root_after);
        assert_eq!(snap_unforced.root(), root_before);
        // An independently-built store with the same final content agrees.
        let mut rebuilt = AuthKv::new();
        for i in 0..32u32 {
            let v: &[u8] = if i == 7 { b"v2" } else { b"v1" };
            rebuilt.insert(i.to_string().as_bytes(), v.to_vec());
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
                        store.insert(&key, value.clone()),
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
                store.insert(k, v.clone());
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
                forward.insert(k, v.clone());
            }
            let mut backward = AuthKv::new();
            for (k, v) in dedup.iter().rev() {
                backward.insert(k, v.clone());
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
                store.insert_hashed(hash, &key, value.clone()),
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
    fn threads_hashing_one_unhashed_snapshot_agree() {
        // Four threads race to fill the digest cells of one shared
        // snapshot no one has hashed; each round's writes clear the cells
        // on their paths, so every round races over fresh cells again.
        let mut rng = SplitMix64::new(0x57);
        let mut store = AuthKv::new();
        let mut model = Model::new();
        for round in 0..6 {
            for _ in 0..300 {
                let key = (rng.next_u64() % 1024).to_le_bytes();
                let value = random_value(&mut rng, 24);
                store.insert(&key, value.clone());
                model.insert(*sha256(&key).as_bytes(), (key.to_vec(), value));
            }
            let snapshot = store.clone();
            let expected = reference_root(&model);
            let barrier = Barrier::new(4);
            let roots: Vec<Digest> = thread::scope(|scope| {
                let racers: Vec<_> = (0..4)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            snapshot.root()
                        })
                    })
                    .collect();
                racers
                    .into_iter()
                    .map(|racer| racer.join().expect("hashing thread panicked"))
                    .collect()
            });
            assert_eq!(roots, vec![expected; 4], "round {round}");
            // The writer shares the cells the racers filled.
            assert_eq!(store.root(), expected, "round {round}");
        }
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
        for (key, value) in model.values() {
            assert_eq!(store.get(key), Some(value.as_slice()));
        }
    }
}
