//! Micro-benchmarks for the Merkle structures backing the authenticated
//! key-value store and the execution proofs (§IV), and for executing one
//! key-value block on them.

use std::hint::black_box;

use sbft_bench::micro::Bench;
use sbft_crypto::{MerkleTree, SplitMix64};
use sbft_statedb::{AuthKv, KvOp, KvService, RawOp, Service};
use sbft_types::SeqNum;
use sbft_wire::Wire;

/// Distinct seeded blocks `kv_block` cycles through.
const KV_BLOCKS: usize = 1024;
/// Blocks run before timing: enough to fill the store to all 1024 keys.
const KV_WARM_BLOCKS: u64 = 1024;
/// The checkpoint interval at which the replica's executor keeps a state
/// snapshot; writes after one copy the trie nodes it shares.
const KV_SNAPSHOT_EVERY: u64 = 128;

/// Blocks shaped like the `kv_batch` workload's: one request of 64 puts
/// with 8-byte keys below 1024 and 16-byte values.
fn kv_blocks(seed: u64) -> Vec<Vec<RawOp>> {
    let mut rng = SplitMix64::new(seed);
    (0..KV_BLOCKS)
        .map(|_| {
            let puts = (0..64)
                .map(|_| KvOp::Put {
                    key: (rng.next_u64() % 1024).to_le_bytes().to_vec(),
                    value: (0..16).map(|_| rng.next_u64() as u8).collect(),
                })
                .collect();
            vec![KvOp::Batch(puts).to_wire_bytes()]
        })
        .collect()
}

fn main() {
    let mut c = Bench::from_args();
    let leaves: Vec<Vec<u8>> = (0..1024u32).map(|i| i.to_le_bytes().to_vec()).collect();
    let tree = MerkleTree::from_leaves(leaves.clone());
    let proof = tree.proof(512).unwrap();
    let root = tree.root();

    c.bench_function("merkle_build_1024", |b| {
        b.iter(|| black_box(MerkleTree::from_leaves(leaves.clone())))
    });
    c.bench_function("merkle_prove", |b| {
        b.iter(|| black_box(tree.proof(512).unwrap()))
    });
    c.bench_function("merkle_verify", |b| {
        b.iter(|| black_box(proof.verify(&root, &leaves[512])))
    });

    let mut kv = AuthKv::new();
    for i in 0..10_000u32 {
        kv.insert(&i.to_le_bytes(), vec![7u8; 16]);
    }
    c.bench_function("authkv_insert_10k_store", |b| {
        b.iter(|| {
            let mut kv = kv.clone();
            black_box(kv.insert(b"new-key", b"v".to_vec()))
        })
    });
    c.bench_function("authkv_prove_10k_store", |b| {
        b.iter(|| black_box(kv.prove(&500u32.to_le_bytes()).unwrap()))
    });
    let trie_root = kv.root();
    let trie_proof = kv.prove(&500u32.to_le_bytes()).unwrap();
    c.bench_function("authkv_verify", |b| {
        b.iter(|| black_box(trie_proof.verify(&trie_root, &500u32.to_le_bytes(), Some(&[7u8; 16]))))
    });

    // One iteration executes one block through `KvService::execute_block`:
    // the 64 puts, the state root, the results tree and `d_s`.
    c.bench_function("kv_block", |b| {
        let blocks = kv_blocks(0x6b76_626c);
        let mut service = KvService::new();
        let mut executed = 0u64;
        let mut snapshot = None;
        let mut step = || {
            let ops = &blocks[executed as usize % KV_BLOCKS];
            executed += 1;
            let execution = service.execute_block(SeqNum::new(executed), black_box(ops));
            if executed.is_multiple_of(KV_SNAPSHOT_EVERY) {
                snapshot = Some(service.snapshot());
            }
            execution
        };
        for _ in 0..KV_WARM_BLOCKS {
            step();
        }
        let warm = step().state_digest;
        println!("kv_block: d_s of block {} = {warm}", KV_WARM_BLOCKS + 1);
        b.iter(step);
    });
}
