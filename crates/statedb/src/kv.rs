//! The authenticated key-value service used by the micro-benchmarks
//! (§IX "Key-Value store benchmark").

use std::collections::HashMap;

use sbft_types::{Digest, SeqNum};

use sbft_crypto::sha256;
use sbft_wire::{DecodeError, Decoder, Encoder, Wire};

use crate::exec::{execute_ops_parallel, OpExecutor, PlannedOp, WavePool, WriteCmd};
use crate::rwset::ReadWriteSet;
use crate::service::{BlockExecution, RawOp, Service};
use crate::trie::AuthKv;

/// One key-value operation, the `o` of the generic service (§IV).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOp {
    /// Writes `value` under `key`; returns the previous value (or empty).
    Put {
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// Reads `key`; returns its value (or empty when absent).
    Get {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// Deletes `key`; returns the removed value (or empty).
    Delete {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// The no-op filler used by the view change (§V-G "null").
    Noop,
    /// A client-side batch: the paper's batching mode packs 64 operations
    /// into one request (§IX "Measurements"). Executes each in order;
    /// the result is the concatenated sub-results' digest-free outputs of
    /// the *last* operation (benchmark puts return nothing anyway).
    Batch(Vec<KvOp>),
}

impl Wire for KvOp {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            KvOp::Put { key, value } => {
                enc.put_u8(0);
                enc.put_bytes(key);
                enc.put_bytes(value);
            }
            KvOp::Get { key } => {
                enc.put_u8(1);
                enc.put_bytes(key);
            }
            KvOp::Delete { key } => {
                enc.put_u8(2);
                enc.put_bytes(key);
            }
            KvOp::Noop => enc.put_u8(3),
            KvOp::Batch(ops) => {
                enc.put_u8(4);
                enc.put_varint(ops.len() as u64);
                for op in ops {
                    op.encode(enc);
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            0 => Ok(KvOp::Put {
                key: dec.get_bytes()?.to_vec(),
                value: dec.get_bytes()?.to_vec(),
            }),
            1 => Ok(KvOp::Get {
                key: dec.get_bytes()?.to_vec(),
            }),
            2 => Ok(KvOp::Delete {
                key: dec.get_bytes()?.to_vec(),
            }),
            3 => Ok(KvOp::Noop),
            4 => {
                let count = dec.get_varint()? as usize;
                if count > dec.remaining() {
                    return Err(DecodeError::UnexpectedEof {
                        needed: count,
                        remaining: dec.remaining(),
                    });
                }
                let mut ops = Vec::with_capacity(count);
                for _ in 0..count {
                    ops.push(KvOp::decode(dec)?);
                }
                Ok(KvOp::Batch(ops))
            }
            _ => Err(DecodeError::InvalidValue { what: "KvOp tag" }),
        }
    }
}

/// Cost model for KV execution and persistence (the paper persists to
/// RocksDB, §VIII; costs are simulated CPU+IO nanoseconds).
#[derive(Debug, Clone)]
pub struct KvCostModel {
    /// Base cost per operation (lookup, allocation).
    pub per_op_ns: u64,
    /// Cost per byte written (memtable + WAL).
    pub write_per_byte_ns: u64,
    /// Per-block fsync/commit overhead.
    pub commit_ns: u64,
}

impl Default for KvCostModel {
    fn default() -> Self {
        KvCostModel {
            per_op_ns: 2_000,
            write_per_byte_ns: 30,
            commit_ns: 100_000,
        }
    }
}

/// The authenticated key-value replicated service.
///
/// # Examples
///
/// ```
/// use sbft_statedb::{KvOp, KvService, Service, verify_execution};
/// use sbft_types::SeqNum;
/// use sbft_wire::Wire;
///
/// let mut service = KvService::new();
/// let op = KvOp::Put { key: b"k".to_vec(), value: b"v".to_vec() }.to_wire_bytes();
/// let exec = service.execute_block(SeqNum::new(1), &[op.clone()]);
/// let proof = exec.proof(0).unwrap();
/// assert!(verify_execution(&exec.state_digest, &op, b"", SeqNum::new(1), 0, &proof));
/// ```
#[derive(Debug, Default)]
pub struct KvService {
    state: AuthKv,
    last_executed: SeqNum,
    last_digest: Digest,
    cost: KvCostModel,
    /// Memoized `SHA-256(key)` for trie addressing: benchmark and real
    /// workloads revisit a working set of keys, and each op used to
    /// re-hash its key before touching the trie. Bounded; clearing only
    /// costs re-hashing.
    key_hash_memo: HashMap<Vec<u8>, [u8; 32]>,
}

/// Bound on [`KvService::key_hash_memo`].
const KEY_HASH_MEMO_CAP: usize = 65_536;

impl KvService {
    /// Creates an empty service with default costs.
    pub fn new() -> Self {
        KvService::default()
    }

    /// Creates a service with a custom cost model.
    pub fn with_cost(cost: KvCostModel) -> Self {
        KvService {
            cost,
            ..KvService::default()
        }
    }

    /// Reads a key from the current state (read-only query, §IV).
    pub fn query(&self, key: &[u8]) -> Option<&[u8]> {
        self.state.get(key)
    }

    /// Direct access to the underlying authenticated store.
    pub fn state(&self) -> &AuthKv {
        &self.state
    }

    /// Replaces the state wholesale (state transfer, §VIII).
    pub fn install_snapshot(&mut self, state: AuthKv, seq: SeqNum, digest: Digest) {
        self.state = state;
        self.last_executed = seq;
        self.last_digest = digest;
    }

    /// Ends a block on either execution path: records the new frontier
    /// and returns the block's execution.
    fn finish(
        &mut self,
        seq: SeqNum,
        ops: &[RawOp],
        results: Vec<Vec<u8>>,
        cpu_cost_ns: u64,
    ) -> BlockExecution {
        let execution = BlockExecution::finish(seq, self.state.root(), ops, results, cpu_cost_ns);
        self.last_executed = seq;
        self.last_digest = execution.state_digest;
        execution
    }

    fn apply(&mut self, op_bytes: &[u8]) -> (Vec<u8>, u64) {
        match KvOp::from_wire_bytes(op_bytes) {
            Ok(op) => self.apply_op(op),
            // Malformed operations execute as no-ops deterministically: all
            // replicas see the same bytes, so all agree on the outcome.
            Err(_) => (Vec::new(), self.cost.per_op_ns),
        }
    }

    /// `SHA-256(key)`, memoized across operations and blocks.
    fn key_hash(&mut self, key: &[u8]) -> [u8; 32] {
        if let Some(hash) = self.key_hash_memo.get(key) {
            return *hash;
        }
        let hash = *sha256(key).as_bytes();
        if self.key_hash_memo.len() >= KEY_HASH_MEMO_CAP {
            self.key_hash_memo.clear();
        }
        self.key_hash_memo.insert(key.to_vec(), hash);
        hash
    }

    fn apply_op(&mut self, op: KvOp) -> (Vec<u8>, u64) {
        let mut cost = self.cost.per_op_ns;
        let result = match op {
            KvOp::Put { key, value } => {
                cost += self.cost.write_per_byte_ns * (key.len() + value.len()) as u64;
                let hash = self.key_hash(&key);
                self.state
                    .insert_hashed(hash, key, value)
                    .unwrap_or_default()
            }
            KvOp::Get { key } => {
                let hash = self.key_hash(&key);
                self.state
                    .get_hashed(&hash, &key)
                    .map(<[u8]>::to_vec)
                    .unwrap_or_default()
            }
            KvOp::Delete { key } => {
                let hash = self.key_hash(&key);
                self.state.remove_hashed(&hash, &key).unwrap_or_default()
            }
            KvOp::Noop => Vec::new(),
            KvOp::Batch(ops) => {
                let mut last = Vec::new();
                for op in ops {
                    let (r, c) = self.apply_op(op);
                    last = r;
                    cost += c;
                }
                last
            }
        };
        (result, cost)
    }
}

/// The stateless planning half of [`KvService`] for the parallel
/// execution pipeline (see [`execute_ops_parallel`]): key-value footprints are
/// statically derivable from the op encoding — the conflict token of a
/// key is the key itself.
#[derive(Debug, Clone, Default)]
pub struct KvPlanner {
    cost: KvCostModel,
}

impl KvPlanner {
    /// Creates a planner mirroring `cost`'s charging rules.
    pub fn with_cost(cost: KvCostModel) -> Self {
        KvPlanner { cost }
    }

    fn declare(op: &KvOp, set: &mut ReadWriteSet) {
        match op {
            KvOp::Put { key, .. } | KvOp::Delete { key } => {
                set.writes.insert(key.clone());
            }
            KvOp::Get { key } => {
                set.reads.insert(key.clone());
            }
            KvOp::Noop => {}
            KvOp::Batch(ops) => {
                for op in ops {
                    KvPlanner::declare(op, set);
                }
            }
        }
    }

    /// Mirrors [`KvService::apply_op`] byte-for-byte, playing writes into a
    /// private snapshot clone (so batch sub-ops observe each other) while
    /// recording them for the serial apply phase.
    fn plan(
        cost_model: &KvCostModel,
        state: &mut AuthKv,
        op: KvOp,
        out: &mut PlannedOp,
    ) -> Vec<u8> {
        out.cost_ns += cost_model.per_op_ns;
        match op {
            KvOp::Put { key, value } => {
                out.cost_ns += cost_model.write_per_byte_ns * (key.len() + value.len()) as u64;
                let key_hash = *sha256(&key).as_bytes();
                out.writes.push(WriteCmd::Put {
                    key_hash,
                    key: key.clone(),
                    value: value.clone(),
                });
                state
                    .insert_hashed(key_hash, key, value)
                    .unwrap_or_default()
            }
            KvOp::Get { key } => {
                let key_hash = *sha256(&key).as_bytes();
                state
                    .get_hashed(&key_hash, &key)
                    .map(<[u8]>::to_vec)
                    .unwrap_or_default()
            }
            KvOp::Delete { key } => {
                let key_hash = *sha256(&key).as_bytes();
                out.writes.push(WriteCmd::Delete {
                    key_hash,
                    key: key.clone(),
                });
                state.remove_hashed(&key_hash, &key).unwrap_or_default()
            }
            KvOp::Noop => Vec::new(),
            KvOp::Batch(ops) => {
                let mut last = Vec::new();
                for op in ops {
                    last = KvPlanner::plan(cost_model, state, op, out);
                }
                last
            }
        }
    }
}

impl OpExecutor for KvPlanner {
    fn rw_set(&self, op: &[u8]) -> ReadWriteSet {
        let mut set = ReadWriteSet::empty();
        if let Ok(op) = KvOp::from_wire_bytes(op) {
            KvPlanner::declare(&op, &mut set);
        }
        set
    }

    fn plan_op(&self, state: &AuthKv, op: &[u8]) -> PlannedOp {
        let mut out = PlannedOp::default();
        match KvOp::from_wire_bytes(op) {
            Ok(op) => {
                let mut scratch = state.clone();
                out.result = KvPlanner::plan(&self.cost, &mut scratch, op, &mut out);
            }
            // Same deterministic no-op as the serial path.
            Err(_) => out.cost_ns = self.cost.per_op_ns,
        }
        out
    }
}

impl Service for KvService {
    fn execute_block(&mut self, seq: SeqNum, ops: &[RawOp]) -> BlockExecution {
        assert_eq!(
            seq,
            self.last_executed.next(),
            "blocks execute in sequence order"
        );
        let mut results = Vec::with_capacity(ops.len());
        let mut cpu = self.cost.commit_ns;
        for op in ops {
            let (result, cost) = self.apply(op);
            results.push(result);
            cpu += cost;
        }
        self.finish(seq, ops, results, cpu)
    }

    fn execute_block_parallel(
        &mut self,
        seq: SeqNum,
        ops: &[RawOp],
        pool: &WavePool,
    ) -> BlockExecution {
        if pool.threads() <= 1 {
            return self.execute_block(seq, ops);
        }
        assert_eq!(
            seq,
            self.last_executed.next(),
            "blocks execute in sequence order"
        );
        let planner: std::sync::Arc<dyn OpExecutor> =
            std::sync::Arc::new(KvPlanner::with_cost(self.cost.clone()));
        let block = execute_ops_parallel(&mut self.state, ops, &planner, pool);
        self.finish(seq, ops, block.results, self.cost.commit_ns + block.cost_ns)
    }

    fn state_digest(&self) -> Digest {
        self.last_digest
    }

    fn last_executed(&self) -> SeqNum {
        self.last_executed
    }

    fn snapshot(&self) -> AuthKv {
        self.state.clone()
    }

    fn install(&mut self, state: AuthKv, seq: SeqNum, digest: Digest) {
        self.install_snapshot(state, seq, digest);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::verify_execution;

    fn put(key: &str, value: &str) -> Vec<u8> {
        KvOp::Put {
            key: key.as_bytes().to_vec(),
            value: value.as_bytes().to_vec(),
        }
        .to_wire_bytes()
    }

    fn get(key: &str) -> Vec<u8> {
        KvOp::Get {
            key: key.as_bytes().to_vec(),
        }
        .to_wire_bytes()
    }

    #[test]
    fn op_codec_round_trip() {
        for op in [
            KvOp::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            KvOp::Get { key: b"k".to_vec() },
            KvOp::Delete { key: b"k".to_vec() },
            KvOp::Noop,
        ] {
            assert_eq!(KvOp::from_wire_bytes(&op.to_wire_bytes()).unwrap(), op);
        }
        assert!(KvOp::from_wire_bytes(&[99]).is_err());
    }

    #[test]
    fn execute_blocks_in_order() {
        let mut svc = KvService::new();
        let e1 = svc.execute_block(SeqNum::new(1), &[put("a", "1")]);
        assert_eq!(e1.results, vec![Vec::<u8>::new()]);
        let e2 = svc.execute_block(SeqNum::new(2), &[get("a"), put("a", "2")]);
        assert_eq!(e2.results[0], b"1".to_vec());
        assert_eq!(e2.results[1], b"1".to_vec()); // previous value
        assert_eq!(svc.query(b"a"), Some(&b"2"[..]));
        assert_eq!(svc.last_executed(), SeqNum::new(2));
        assert_ne!(e1.state_digest, e2.state_digest);
    }

    #[test]
    #[should_panic(expected = "sequence order")]
    fn out_of_order_execution_panics() {
        let mut svc = KvService::new();
        svc.execute_block(SeqNum::new(2), &[]);
    }

    #[test]
    fn determinism_across_replicas() {
        let ops1 = vec![put("x", "1"), put("y", "2")];
        let ops2 = vec![get("x"), KvOp::Noop.to_wire_bytes()];
        let mut a = KvService::new();
        let mut b = KvService::new();
        for svc in [&mut a, &mut b] {
            svc.execute_block(SeqNum::new(1), &ops1);
            svc.execute_block(SeqNum::new(2), &ops2);
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.state().root(), b.state().root());
    }

    #[test]
    fn client_verifiable_proofs() {
        let mut svc = KvService::new();
        svc.execute_block(SeqNum::new(1), &[put("k", "v")]);
        let ops = vec![get("k"), put("k", "w")];
        let exec = svc.execute_block(SeqNum::new(2), &ops);
        for (l, op) in ops.iter().enumerate() {
            let proof = exec.proof(l).unwrap();
            let val = &exec.results[l];
            assert!(verify_execution(
                &exec.state_digest,
                op,
                val,
                SeqNum::new(2),
                l,
                &proof
            ));
        }
        // There is no proof for an operation the block does not have.
        assert!(exec.proof(ops.len()).is_none());
    }

    #[test]
    fn malformed_op_is_deterministic_noop() {
        let mut a = KvService::new();
        let mut b = KvService::new();
        let bad = vec![0xff, 0x01, 0x02];
        let ea = a.execute_block(SeqNum::new(1), &[bad.clone()]);
        let eb = b.execute_block(SeqNum::new(1), &[bad]);
        assert_eq!(ea.state_digest, eb.state_digest);
        assert_eq!(ea.results[0], Vec::<u8>::new());
    }

    #[test]
    fn snapshot_install() {
        let mut source = KvService::new();
        source.execute_block(SeqNum::new(1), &[put("a", "1"), put("b", "2")]);
        let mut target = KvService::new();
        target.install_snapshot(
            source.state().clone(),
            source.last_executed(),
            source.state_digest(),
        );
        assert_eq!(target.query(b"a"), Some(&b"1"[..]));
        assert_eq!(target.state_digest(), source.state_digest());
        // Execution continues from the snapshot.
        let ea = target.execute_block(SeqNum::new(2), &[put("c", "3")]);
        let eb = source.execute_block(SeqNum::new(2), &[put("c", "3")]);
        assert_eq!(ea.state_digest, eb.state_digest);
    }

    #[test]
    fn cost_scales_with_writes() {
        let mut svc = KvService::new();
        let small = svc.execute_block(SeqNum::new(1), &[put("k", "v")]);
        let big_value = "x".repeat(10_000);
        let big = svc.execute_block(SeqNum::new(2), &[put("k", &big_value)]);
        assert!(big.cpu_cost_ns > small.cpu_cost_ns);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use sbft_crypto::SplitMix64;

    /// Random op over a deliberately small key space so blocks mix
    /// conflicting and independent ops (and some malformed bytes).
    fn random_op(rng: &mut SplitMix64, depth: usize) -> Vec<u8> {
        fn key(rng: &mut SplitMix64) -> Vec<u8> {
            format!("key-{}", rng.next_u64() % 13).into_bytes()
        }
        fn value(rng: &mut SplitMix64) -> Vec<u8> {
            let len = (rng.next_u64() % 24) as usize;
            (0..len).map(|_| rng.next_u64() as u8).collect()
        }
        let op = match rng.next_u64() % if depth == 0 { 7 } else { 6 } {
            0 | 1 => KvOp::Put {
                key: key(rng),
                value: value(rng),
            },
            2 | 3 => KvOp::Get { key: key(rng) },
            4 => KvOp::Delete { key: key(rng) },
            5 => KvOp::Noop,
            _ => {
                let len = 1 + (rng.next_u64() % 5) as usize;
                return if rng.next_u64() % 4 == 0 {
                    // Malformed bytes: must stay a deterministic no-op.
                    vec![0xfe; len]
                } else {
                    KvOp::Batch(
                        (0..len)
                            .map(|_| {
                                let sub = random_op(rng, depth + 1);
                                KvOp::from_wire_bytes(&sub).unwrap_or(KvOp::Noop)
                            })
                            .collect::<Vec<_>>(),
                    )
                    .to_wire_bytes()
                };
            }
        };
        op.to_wire_bytes()
    }

    #[test]
    fn parallel_execution_is_byte_identical_to_serial() {
        let mut rng = SplitMix64::new(0x5bf7_0001);
        let mut serial = KvService::new();
        let pools: Vec<WavePool> = vec![WavePool::new(2), WavePool::new(4)];
        let mut parallel: Vec<KvService> = pools.iter().map(|_| KvService::new()).collect();
        for block in 1..=24u64 {
            let op_count = 1 + (rng.next_u64() % 40) as usize;
            let ops: Vec<RawOp> = (0..op_count).map(|_| random_op(&mut rng, 0)).collect();
            let seq = SeqNum::new(block);
            let expected = serial.execute_block(seq, &ops);
            for (svc, pool) in parallel.iter_mut().zip(&pools) {
                let got = svc.execute_block_parallel(seq, &ops, pool);
                assert_eq!(got, expected, "block {block} diverged from serial");
                assert_eq!(svc.state().root(), serial.state().root());
            }
        }
    }

    #[test]
    fn single_thread_pool_takes_the_serial_path() {
        let pool = WavePool::new(1);
        let mut a = KvService::new();
        let mut b = KvService::new();
        let ops = vec![
            KvOp::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            }
            .to_wire_bytes(),
            KvOp::Get { key: b"k".to_vec() }.to_wire_bytes(),
        ];
        let ea = a.execute_block(SeqNum::new(1), &ops);
        let eb = b.execute_block_parallel(SeqNum::new(1), &ops, &pool);
        assert_eq!(ea, eb);
    }
}
