//! The block ledger: committed decision blocks, checkpoints and the
//! chunked state-transfer protocol data (§V-F, §VIII).

use std::collections::BTreeMap;

use sbft_types::{Digest, SeqNum};

use crate::service::{block_hash, RawOp};
use crate::trie::AuthKv;

/// A committed decision block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Sequence number.
    pub seq: SeqNum,
    /// View in which the block committed.
    pub view: u64,
    /// The client operations (`r = (r_1, ..., r_b)`, §V-C).
    pub ops: Vec<RawOp>,
}

impl Block {
    /// The block hash `h = H(s||v||r)`.
    pub fn hash(&self) -> Digest {
        block_hash(self.seq, self.view, &self.ops)
    }
}

/// A checkpoint: the authenticated state at a stable sequence number.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Sequence number of the checkpoint.
    pub seq: SeqNum,
    /// The signed state digest `d_s` at that point.
    pub state_digest: Digest,
    /// Snapshot of the authenticated store (O(1) structural share).
    pub state: AuthKv,
}

/// One chunk of a state snapshot in transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateChunk {
    /// Checkpoint sequence this chunk belongs to.
    pub seq: SeqNum,
    /// Chunk index.
    pub index: u32,
    /// Total number of chunks in the snapshot.
    pub total: u32,
    /// Key-value pairs carried by this chunk.
    pub entries: Vec<(Vec<u8>, Vec<u8>)>,
}

/// The per-replica ledger: committed blocks keyed by sequence number, the
/// latest stable checkpoint, and state-transfer helpers.
#[derive(Debug, Default)]
pub struct Ledger {
    blocks: BTreeMap<u64, Block>,
    checkpoint: Option<Checkpoint>,
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Stores a committed block. Re-storing the same sequence is idempotent
    /// only for identical content.
    ///
    /// # Panics
    ///
    /// Panics if a *different* block was already committed at this
    /// sequence — that would be a safety violation and must abort the
    /// simulation loudly.
    pub fn commit(&mut self, block: Block) {
        if let Some(existing) = self.blocks.get(&block.seq.get()) {
            assert_eq!(
                existing.hash(),
                block.hash(),
                "SAFETY VIOLATION: two different blocks committed at {}",
                block.seq
            );
            return;
        }
        self.blocks.insert(block.seq.get(), block);
    }

    /// Returns the committed block at `seq`, if retained.
    pub fn block(&self, seq: SeqNum) -> Option<&Block> {
        self.blocks.get(&seq.get())
    }

    /// Returns `true` if a block is committed at `seq`.
    pub fn is_committed(&self, seq: SeqNum) -> bool {
        self.blocks.contains_key(&seq.get())
    }

    /// Number of retained blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if no blocks are retained.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Iterates retained blocks in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.values()
    }

    /// Records a stable checkpoint and garbage-collects blocks `<= seq`
    /// ("when a decision block at sequence s is stable we can garbage
    /// collect all previous decisions", §V-F).
    pub fn install_checkpoint(&mut self, checkpoint: Checkpoint) {
        let seq = checkpoint.seq;
        self.checkpoint = Some(checkpoint);
        self.blocks = self.blocks.split_off(&(seq.get() + 1));
    }

    /// The latest stable checkpoint.
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        self.checkpoint.as_ref()
    }

    /// Splits the latest checkpoint's state into transferable chunks of at
    /// most `max_entries` entries each.
    pub fn export_chunks(&self, max_entries: usize) -> Vec<StateChunk> {
        let Some(cp) = &self.checkpoint else {
            return Vec::new();
        };
        let entries: Vec<(Vec<u8>, Vec<u8>)> = cp
            .state
            .iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        let max_entries = max_entries.max(1);
        let total = entries.len().div_ceil(max_entries).max(1) as u32;
        if entries.is_empty() {
            return vec![StateChunk {
                seq: cp.seq,
                index: 0,
                total: 1,
                entries: Vec::new(),
            }];
        }
        entries
            .chunks(max_entries)
            .enumerate()
            .map(|(i, chunk)| StateChunk {
                seq: cp.seq,
                index: i as u32,
                total,
                entries: chunk.to_vec(),
            })
            .collect()
    }
}

/// Reassembles a snapshot from chunks; returns `None` until all chunks of
/// one checkpoint are present and consistent.
#[derive(Debug, Default)]
pub struct ChunkAssembler {
    seq: Option<SeqNum>,
    total: u32,
    received: BTreeMap<u32, StateChunk>,
}

impl ChunkAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        ChunkAssembler::default()
    }

    /// Adds a chunk. Chunks of a newer checkpoint reset the assembler;
    /// chunks of an older one are ignored.
    pub fn add(&mut self, chunk: StateChunk) {
        match self.seq {
            Some(seq) if chunk.seq < seq => return,
            Some(seq) if chunk.seq == seq => {}
            _ => {
                self.seq = Some(chunk.seq);
                self.total = chunk.total;
                self.received.clear();
            }
        }
        self.received.insert(chunk.index, chunk);
    }

    /// Attempts to assemble the full state.
    pub fn try_assemble(&self) -> Option<(SeqNum, AuthKv)> {
        let seq = self.seq?;
        if self.received.len() as u32 != self.total {
            return None;
        }
        let mut state = AuthKv::new();
        for chunk in self.received.values() {
            for (k, v) in &chunk.entries {
                state.insert(k, v.clone());
            }
        }
        Some((seq, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(seq: u64, tag: &str) -> Block {
        Block {
            seq: SeqNum::new(seq),
            view: 0,
            ops: vec![tag.as_bytes().to_vec()],
        }
    }

    #[test]
    fn commit_and_lookup() {
        let mut ledger = Ledger::new();
        ledger.commit(block(1, "a"));
        ledger.commit(block(2, "b"));
        assert!(ledger.is_committed(SeqNum::new(1)));
        assert!(!ledger.is_committed(SeqNum::new(3)));
        assert_eq!(ledger.block(SeqNum::new(2)).unwrap().ops[0], b"b".to_vec());
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn recommit_same_block_is_idempotent() {
        let mut ledger = Ledger::new();
        ledger.commit(block(1, "a"));
        ledger.commit(block(1, "a"));
        assert_eq!(ledger.len(), 1);
    }

    #[test]
    #[should_panic(expected = "SAFETY VIOLATION")]
    fn conflicting_commit_panics() {
        let mut ledger = Ledger::new();
        ledger.commit(block(1, "a"));
        ledger.commit(block(1, "b"));
    }

    #[test]
    fn checkpoint_garbage_collects() {
        let mut ledger = Ledger::new();
        for s in 1..=10 {
            ledger.commit(block(s, "x"));
        }
        let mut state = AuthKv::new();
        state.insert(b"k", b"v".to_vec());
        ledger.install_checkpoint(Checkpoint {
            seq: SeqNum::new(7),
            state_digest: Digest::new([1; 32]),
            state,
        });
        assert!(!ledger.is_committed(SeqNum::new(7)));
        assert!(ledger.is_committed(SeqNum::new(8)));
        assert_eq!(ledger.checkpoint().unwrap().seq, SeqNum::new(7));
    }

    #[test]
    fn chunked_state_transfer_round_trip() {
        let mut state = AuthKv::new();
        for i in 0..25u32 {
            state.insert(i.to_string().as_bytes(), vec![i as u8]);
        }
        let digest = state.root();
        let mut ledger = Ledger::new();
        ledger.install_checkpoint(Checkpoint {
            seq: SeqNum::new(5),
            state_digest: digest,
            state: state.clone(),
        });
        let chunks = ledger.export_chunks(7);
        assert_eq!(chunks.len(), 4);
        assert!(chunks.iter().all(|c| c.total == 4));

        let mut assembler = ChunkAssembler::new();
        // Deliver out of order, with a duplicate.
        assembler.add(chunks[2].clone());
        assert!(assembler.try_assemble().is_none());
        assembler.add(chunks[0].clone());
        assembler.add(chunks[0].clone());
        assembler.add(chunks[3].clone());
        assert!(assembler.try_assemble().is_none());
        assembler.add(chunks[1].clone());
        let (seq, rebuilt) = assembler.try_assemble().unwrap();
        assert_eq!(seq, SeqNum::new(5));
        assert_eq!(rebuilt.root(), state.root());
    }

    #[test]
    fn assembler_prefers_newer_checkpoint() {
        let mut old_state = AuthKv::new();
        old_state.insert(b"old", b"1".to_vec());
        let mut new_state = AuthKv::new();
        new_state.insert(b"new", b"2".to_vec());

        let make_chunks = |seq: u64, state: &AuthKv| {
            let mut ledger = Ledger::new();
            ledger.install_checkpoint(Checkpoint {
                seq: SeqNum::new(seq),
                state_digest: state.root(),
                state: state.clone(),
            });
            ledger.export_chunks(100)
        };
        let old_chunks = make_chunks(5, &old_state);
        let new_chunks = make_chunks(9, &new_state);

        let mut assembler = ChunkAssembler::new();
        assembler.add(old_chunks[0].clone());
        assembler.add(new_chunks[0].clone());
        // Old chunk arriving late is ignored.
        assembler.add(old_chunks[0].clone());
        let (seq, rebuilt) = assembler.try_assemble().unwrap();
        assert_eq!(seq, SeqNum::new(9));
        assert_eq!(rebuilt.root(), new_state.root());
    }

    #[test]
    fn export_empty_state() {
        let mut ledger = Ledger::new();
        ledger.install_checkpoint(Checkpoint {
            seq: SeqNum::new(1),
            state_digest: Digest::ZERO,
            state: AuthKv::new(),
        });
        let chunks = ledger.export_chunks(10);
        assert_eq!(chunks.len(), 1);
        let mut assembler = ChunkAssembler::new();
        assembler.add(chunks[0].clone());
        let (_, rebuilt) = assembler.try_assemble().unwrap();
        assert!(rebuilt.is_empty());
    }

    #[test]
    fn export_without_checkpoint_is_empty() {
        let ledger = Ledger::new();
        assert!(ledger.export_chunks(10).is_empty());
    }
}
