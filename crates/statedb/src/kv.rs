//! The authenticated key-value service used by the micro-benchmarks
//! (§IX "Key-Value store benchmark").
//!
//! Ops reach execution as opaque bytes (consensus never looks inside
//! them), so every op is read by one decoder, [`KvOpRef::parse`], which
//! borrows: keys and values stay slices of the op's bytes, and a put
//! allocates only the value the trie keeps (and the key, if it is new to
//! the store). The executor and the owned [`KvOp`] codec both go through
//! it. Batches are flat: a batch inside a batch does not decode, so no
//! step recurses on input depth, and such an op executes as the
//! deterministic no-op every malformed op is. Keys are hashed per access,
//! with no memo: a short key is one `compress` call on the one-shot path
//! of [`sbft_crypto::sha256`].

use std::slice;

use sbft_types::{Digest, SeqNum};

use sbft_wire::{DecodeError, Decoder, Encoder, Wire};

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
    /// the result is the output of the *last* operation (benchmark puts
    /// return nothing anyway). A batch inside a batch encodes, but does
    /// not decode: such an op executes as a no-op.
    Batch(Vec<KvOp>),
}

/// Wire tag of [`KvOp::Batch`].
const BATCH_TAG: u8 = 4;

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
                enc.put_u8(BATCH_TAG);
                enc.put_varint(ops.len() as u64);
                for op in ops {
                    op.encode(enc);
                }
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(KvOpRef::read(dec)?.to_op())
    }
}

/// One key-value access read in place: its key and value borrow the
/// encoded op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KvAccess<'a> {
    Put { key: &'a [u8], value: &'a [u8] },
    Get { key: &'a [u8] },
    Delete { key: &'a [u8] },
    Noop,
}

impl<'a> KvAccess<'a> {
    /// Reads the access after its `tag`; a batch tag is rejected.
    fn read(tag: u8, dec: &mut Decoder<'a>) -> Result<Self, DecodeError> {
        Ok(match tag {
            0 => KvAccess::Put {
                key: dec.get_bytes()?,
                value: dec.get_bytes()?,
            },
            1 => KvAccess::Get {
                key: dec.get_bytes()?,
            },
            2 => KvAccess::Delete {
                key: dec.get_bytes()?,
            },
            3 => KvAccess::Noop,
            BATCH_TAG => {
                return Err(DecodeError::InvalidValue {
                    what: "KvOp batch inside a batch",
                })
            }
            _ => return Err(DecodeError::InvalidValue { what: "KvOp tag" }),
        })
    }

    fn to_op(self) -> KvOp {
        match self {
            KvAccess::Put { key, value } => KvOp::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            },
            KvAccess::Get { key } => KvOp::Get { key: key.to_vec() },
            KvAccess::Delete { key } => KvOp::Delete { key: key.to_vec() },
            KvAccess::Noop => KvOp::Noop,
        }
    }
}

/// A [`KvOp`] read in place: one access, or a flat batch of them.
#[derive(Debug, Clone, PartialEq, Eq)]
enum KvOpRef<'a> {
    One(KvAccess<'a>),
    Batch(Vec<KvAccess<'a>>),
}

impl<'a> KvOpRef<'a> {
    /// Decodes a whole encoded op, as [`Wire::from_wire_bytes`] does:
    /// trailing bytes are an error.
    fn parse(bytes: &'a [u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let op = KvOpRef::read(&mut dec)?;
        match dec.remaining() {
            0 => Ok(op),
            count => Err(DecodeError::TrailingBytes { count }),
        }
    }

    fn read(dec: &mut Decoder<'a>) -> Result<Self, DecodeError> {
        match dec.get_u8()? {
            BATCH_TAG => {
                let count = dec.get_varint()? as usize;
                // Every access takes at least one byte: bounds the
                // allocation below by the input's length.
                if count > dec.remaining() {
                    return Err(DecodeError::UnexpectedEof {
                        needed: count,
                        remaining: dec.remaining(),
                    });
                }
                let mut accesses = Vec::with_capacity(count);
                for _ in 0..count {
                    let tag = dec.get_u8()?;
                    accesses.push(KvAccess::read(tag, dec)?);
                }
                Ok(KvOpRef::Batch(accesses))
            }
            tag => Ok(KvOpRef::One(KvAccess::read(tag, dec)?)),
        }
    }

    /// The op's accesses, in execution order.
    fn accesses(&self) -> &[KvAccess<'a>] {
        match self {
            KvOpRef::One(access) => slice::from_ref(access),
            KvOpRef::Batch(accesses) => accesses,
        }
    }

    fn to_op(&self) -> KvOp {
        match self {
            KvOpRef::One(access) => access.to_op(),
            KvOpRef::Batch(accesses) => {
                KvOp::Batch(accesses.iter().map(|access| access.to_op()).collect())
            }
        }
    }

    /// Runs the accesses in order against `state` and returns the last
    /// one's result.
    fn run(&self, state: &mut AuthKv) -> Vec<u8> {
        let mut result = Vec::new();
        for access in self.accesses() {
            result = match *access {
                KvAccess::Put { key, value } => {
                    state.insert(key, value.to_vec()).unwrap_or_default()
                }
                KvAccess::Get { key } => state.get(key).map(<[u8]>::to_vec).unwrap_or_default(),
                KvAccess::Delete { key } => state.remove(key).unwrap_or_default(),
                KvAccess::Noop => Vec::new(),
            };
        }
        result
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

impl KvCostModel {
    /// The modeled cost of one op: `per_op_ns` for each access and once
    /// more for a batch itself, plus `write_per_byte_ns` per byte put. A
    /// malformed op (`None`) costs `per_op_ns`.
    fn op_ns(&self, op: Option<&KvOpRef<'_>>) -> u64 {
        let Some(op) = op else {
            return self.per_op_ns;
        };
        let batch_ns = match op {
            KvOpRef::One(_) => 0,
            KvOpRef::Batch(_) => self.per_op_ns,
        };
        op.accesses()
            .iter()
            .map(|access| match access {
                KvAccess::Put { key, value } => {
                    self.per_op_ns + self.write_per_byte_ns * (key.len() + value.len()) as u64
                }
                _ => self.per_op_ns,
            })
            .sum::<u64>()
            + batch_ns
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
}

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

    fn apply(&mut self, op_bytes: &[u8]) -> (Vec<u8>, u64) {
        let op = KvOpRef::parse(op_bytes).ok();
        // Malformed operations execute as no-ops deterministically: all
        // replicas see the same bytes, so all agree on the outcome.
        let result = match &op {
            Some(op) => op.run(&mut self.state),
            None => Vec::new(),
        };
        (result, self.cost.op_ns(op.as_ref()))
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
        let execution = BlockExecution::finish(seq, self.state.root(), ops, results, cpu);
        self.last_executed = seq;
        self.last_digest = execution.state_digest;
        execution
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
    use sbft_crypto::SplitMix64;
    use std::collections::BTreeMap;

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
            KvOp::Batch(vec![KvOp::Get { key: b"k".to_vec() }, KvOp::Noop]),
            KvOp::Batch(Vec::new()),
        ] {
            assert_eq!(KvOp::from_wire_bytes(&op.to_wire_bytes()).unwrap(), op);
        }
        assert!(KvOp::from_wire_bytes(&[99]).is_err());
        let nested = KvOp::Batch(vec![KvOp::Batch(vec![KvOp::Noop])]);
        assert_eq!(
            KvOp::from_wire_bytes(&nested.to_wire_bytes()),
            Err(DecodeError::InvalidValue {
                what: "KvOp batch inside a batch"
            })
        );
    }

    #[test]
    fn borrowed_and_owned_decoders_agree_on_mutated_batches() {
        let mut rng = SplitMix64::new(0x5bf7_0002);
        let mut decoded = 0;
        for case in 0..3000 {
            let ops = (0..1 + rng.next_u64() % 6)
                .map(|_| {
                    let key = (rng.next_u64() % 1024).to_le_bytes().to_vec();
                    match rng.next_u64() % 4 {
                        0 => KvOp::Put {
                            key,
                            value: rng.next_u64().to_le_bytes().to_vec(),
                        },
                        1 => KvOp::Get { key },
                        2 => KvOp::Delete { key },
                        _ => KvOp::Noop,
                    }
                })
                .collect();
            let mut bytes = KvOp::Batch(ops).to_wire_bytes();
            let at = (rng.next_u64() % bytes.len() as u64) as usize;
            match rng.next_u64() % 3 {
                0 => bytes.truncate(at),
                1 => bytes[at] ^= 1 << (rng.next_u64() % 8),
                _ => bytes.extend((0..1 + rng.next_u64() % 4).map(|_| rng.next_u64() as u8)),
            }
            let owned = KvOp::from_wire_bytes(&bytes);
            let borrowed = KvOpRef::parse(&bytes).map(|op| op.to_op());
            assert_eq!(borrowed, owned, "case {case}: {bytes:?}");
            decoded += usize::from(owned.is_ok());
        }
        // Bit flips in keys and values still decode: both outcomes occur.
        assert!(decoded > 300 && decoded < 2700, "{decoded} decoded");
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
        let batch = KvOp::Batch(vec![
            KvOp::Put {
                key: b"a".to_vec(),
                value: b"2".to_vec(),
            },
            KvOp::Delete { key: b"a".to_vec() },
        ])
        .to_wire_bytes();
        let truncated = batch[..batch.len() - 1].to_vec();
        let trailing = [batch.as_slice(), &[0]].concat();
        let nested = KvOp::Batch(vec![KvOp::from_wire_bytes(&batch).unwrap()]).to_wire_bytes();
        // A no-op inside 200,000 nested batches, 400,001 bytes: a decoder
        // that recursed per level overflowed the stack here.
        let deep = [[BATCH_TAG, 1].repeat(200_000), vec![3]].concat();
        let block = |op: Vec<u8>| vec![put("a", "1"), op, get("a")];
        let noop =
            KvService::new().execute_block(SeqNum::new(1), &block(KvOp::Noop.to_wire_bytes()));
        for (name, bad) in [
            ("unknown tag", vec![0xff, 0x01, 0x02]),
            ("truncated batch", truncated),
            ("trailing bytes", trailing),
            ("nested batch", nested),
            ("deeply nested batch", deep),
        ] {
            let bad = KvService::new().execute_block(SeqNum::new(1), &block(bad));
            // Exactly what a no-op does: no result, no write, one op's cost.
            assert_eq!(bad.results, noop.results, "{name}");
            assert_eq!(bad.state_root, noop.state_root, "{name}");
            assert_eq!(bad.cpu_cost_ns, noop.cpu_cost_ns, "{name}");
        }
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

    /// A seeded op over a deliberately small key space (13 keys), so
    /// blocks read and overwrite each other's keys, paired with the op it
    /// means: `None` for malformed bytes (an unknown tag, a batch inside a
    /// batch, a truncated batch), which execute as no-ops.
    fn random_op(rng: &mut SplitMix64, depth: usize) -> (Vec<u8>, Option<KvOp>) {
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
                let batch = KvOp::Batch(
                    (0..len)
                        .map(|_| random_op(rng, depth + 1).1.expect("a flat op"))
                        .collect(),
                );
                return match rng.next_u64() % 8 {
                    0 => (vec![0xfe; len], None),
                    1 => (KvOp::Batch(vec![batch]).to_wire_bytes(), None),
                    2 => {
                        let mut bytes = batch.to_wire_bytes();
                        bytes.pop();
                        (bytes, None)
                    }
                    _ => (batch.to_wire_bytes(), Some(batch)),
                };
            }
        };
        (op.to_wire_bytes(), Some(op))
    }

    /// Applies `op` to an ordered map and returns what the service must
    /// answer: the old value for a put or delete, the value for a get, the
    /// last access's result for a batch.
    fn model_apply(model: &mut BTreeMap<Vec<u8>, Vec<u8>>, op: &KvOp) -> Vec<u8> {
        match op {
            KvOp::Put { key, value } => model.insert(key.clone(), value.clone()),
            KvOp::Get { key } => model.get(key).cloned(),
            KvOp::Delete { key } => model.remove(key),
            KvOp::Noop => None,
            KvOp::Batch(ops) => return ops.iter().fold(Vec::new(), |_, op| model_apply(model, op)),
        }
        .unwrap_or_default()
    }

    #[test]
    fn seeded_blocks_match_an_ordered_map_model() {
        let mut rng = SplitMix64::new(0x5bf7_0001);
        let mut svc = KvService::new();
        let mut model = BTreeMap::new();
        let (mut batches, mut malformed) = (0, 0);
        for block in 1..=24u64 {
            let op_count = 1 + (rng.next_u64() % 40) as usize;
            let (ops, meant): (Vec<RawOp>, Vec<Option<KvOp>>) =
                (0..op_count).map(|_| random_op(&mut rng, 0)).unzip();
            let exec = svc.execute_block(SeqNum::new(block), &ops);
            for (l, op) in meant.iter().enumerate() {
                let want = match op {
                    Some(op) => {
                        batches += usize::from(matches!(op, KvOp::Batch(_)));
                        model_apply(&mut model, op)
                    }
                    None => {
                        malformed += 1;
                        Vec::new()
                    }
                };
                assert_eq!(exec.results[l], want, "block {block}, op {l}");
            }
            let contents: BTreeMap<Vec<u8>, Vec<u8>> = svc
                .state()
                .iter()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            assert_eq!(contents, model, "block {block}");
            assert_eq!(svc.state().len(), model.len(), "block {block}");
        }
        assert!(
            batches > 0 && malformed > 0,
            "{batches} batches, {malformed} malformed"
        );
    }
}
