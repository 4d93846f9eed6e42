//! Authenticated state management for the SBFT reproduction (§IV).
//!
//! This crate provides the three storage-side substrates the paper's
//! system relies on:
//!
//! - [`AuthKv`]: a Merkle crit-bit trie — an authenticated key-value map
//!   with O(1) copy-on-write snapshots and per-key membership/absence
//!   proofs ([`TrieProof`]). Writes mutate nodes in place and copy a node
//!   only when a snapshot shares it.
//! - [`Service`]: the generic deterministic replicated-service interface
//!   of §IV. A service only executes: each block yields a
//!   [`BlockExecution`] with the digest `d_s`, the results and their
//!   Merkle tree, from which the replica serves `proof` for as long as it
//!   keeps the block. [`verify_execution`] is the client-side check used
//!   by the single-message acknowledgement path, and [`KvService`] is the
//!   key-value instantiation used by the micro-benchmarks.
//! - [`Ledger`]: committed decision blocks, stable checkpoints with
//!   garbage collection (§V-F), and chunked state transfer
//!   ([`StateChunk`], [`ChunkAssembler`]) for replicas that fall behind
//!   (§VIII).
//! - Durability: an append-only commit [`Wal`] (CRC-guarded records,
//!   torn-tail truncation on replay, fsync batching via [`FsyncPolicy`])
//!   and CRC-sealed, versioned stable-checkpoint [`Snapshot`] files.

mod exec;
mod kv;
mod ledger;
mod rwset;
mod service;
mod snapshot;
mod trie;
mod wal;

pub use exec::{
    execute_ops_parallel, plan_waves, OpExecutor, ParallelBlock, PlannedOp, WavePool, WriteCmd,
};
pub use kv::{KvCostModel, KvOp, KvPlanner, KvService};
pub use ledger::{Block, Checkpoint, ChunkAssembler, Ledger, StateChunk};
pub use rwset::ReadWriteSet;
pub use service::{
    block_hash, combine_state_digest, op_digest, verify_execution, BlockExecution, ExecutionProof,
    RawOp, Service,
};
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_V2};
pub use trie::{AuthKv, TrieProof, TrieProofStep};
pub use wal::{append_record, crc32, replay, FsyncPolicy, Wal, WalRecord, WalReplay};
