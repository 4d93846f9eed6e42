//! Isolated layer costs: timed calls into the public functions of
//! `crypto`, `wire` and `statedb`, on inputs shaped like the workload's
//! blocks. Run while no cluster is up, so nothing competes for cores.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use sbft::core::keys::DOMAIN_SIGMA;
use sbft::core::{ClientRequest, KeyMaterial, ProtocolConfig, SbftMsg, VariantFlags};
use sbft::crypto::{sha256, SplitMix64};
use sbft::deploy::ClientWorkload;
use sbft::statedb::{FsyncPolicy, KvOp, KvService, Service, Wal};
use sbft::types::{ClientId, SeqNum, ViewNum};
use sbft::wire::Wire;

/// Median per-call microseconds of each timed layer call.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    pub share_sign_us: f64,
    pub share_verify_us: f64,
    pub combine_us: f64,
    pub preprepare_encode_us: f64,
    pub preprepare_decode_us: f64,
    pub exec_block_us: f64,
    pub wal_append_us: f64,
    pub wal_sync_us: f64,
}

/// Batches per measurement; the reported cost is the median batch.
const BATCHES: usize = 9;

/// Times `call` in [`BATCHES`] batches of `per_batch` calls and returns
/// the median per-call cost in microseconds.
fn median_us(per_batch: usize, mut call: impl FnMut(usize)) -> f64 {
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|b| {
            let started = Instant::now();
            for i in 0..per_batch {
                call(b * per_batch + i);
            }
            started.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[BATCHES / 2]
}

/// Signed requests like the workload's: `ops_per_request` puts of
/// `ClientWorkload::default()` values and keys, from seeded client keys.
fn seeded_block(
    keys: &KeyMaterial,
    seed: u64,
    requests: usize,
    ops_per_request: usize,
) -> Vec<ClientRequest> {
    let shape = ClientWorkload::default();
    let mut rng = SplitMix64::new(seed);
    (0..requests)
        .map(|i| {
            let mut puts: Vec<KvOp> = (0..ops_per_request)
                .map(|_| KvOp::Put {
                    key: (rng.next_u64() % shape.key_space).to_le_bytes().to_vec(),
                    value: (0..shape.value_len).map(|_| rng.next_u64() as u8).collect(),
                })
                .collect();
            let op = if puts.len() == 1 {
                puts.remove(0).to_wire_bytes()
            } else {
                KvOp::Batch(puts).to_wire_bytes()
            };
            let client = ClientId::new(1000 + i as u32);
            ClientRequest::signed(client, 1 + i as u64, op, &keys.public.client_keys(client))
        })
        .collect()
}

/// Measures every isolated layer cost for blocks of `reqs_per_block`
/// requests (rounded, at least one) of `ops_per_request` puts each,
/// appending WAL records under `dir`.
pub fn measure(seed: u64, reqs_per_block: f64, ops_per_request: usize, dir: &Path) -> LayerCosts {
    let protocol = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
    let keys = KeyMaterial::generate(&protocol, seed);
    let n = protocol.n();
    let requests = (reqs_per_block.round() as usize).max(1);
    let block = seeded_block(&keys, seed, requests, ops_per_request);
    let digests: Vec<_> = (0..64u64)
        .map(|i| sha256(&(seed ^ i).to_le_bytes()))
        .collect();
    let sigma = &keys.public.sigma;
    let shares: Vec<Vec<_>> = digests
        .iter()
        .map(|d| {
            (0..n)
                .map(|r| keys.replicas[r].sigma.sign(DOMAIN_SIGMA, d))
                .collect()
        })
        .collect();

    let mut costs = LayerCosts {
        share_sign_us: median_us(200, |i| {
            let d = &digests[i % digests.len()];
            black_box(keys.replicas[i % n].sigma.sign(DOMAIN_SIGMA, black_box(d)));
        }),
        share_verify_us: median_us(200, |i| {
            let d = i % digests.len();
            assert!(sigma.verify_share(DOMAIN_SIGMA, &digests[d], black_box(&shares[d][i % n])));
        }),
        combine_us: median_us(50, |i| {
            let d = i % digests.len();
            black_box(
                sigma
                    .combine(DOMAIN_SIGMA, &digests[d], black_box(&shares[d]))
                    .expect("n valid shares combine"),
            );
        }),
        ..LayerCosts::default()
    };

    let preprepare = SbftMsg::PrePrepare {
        seq: SeqNum::new(1),
        view: ViewNum::ZERO,
        requests: block.clone(),
    };
    let bytes = preprepare.to_wire_bytes();
    costs.preprepare_encode_us = median_us(200, |_| {
        black_box(black_box(&preprepare).to_wire_bytes());
    });
    costs.preprepare_decode_us = median_us(200, |_| {
        black_box(SbftMsg::from_wire_bytes(black_box(&bytes)).expect("round trip decodes"));
    });

    let ops: Vec<_> = block.iter().map(|r| r.op.clone()).collect();
    let mut service = KvService::new();
    costs.exec_block_us = median_us(50, |i| {
        black_box(service.execute_block(SeqNum::new(1 + i as u64), black_box(&ops)));
    });

    let path = dir.join("layer-wal.log");
    let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).expect("layer WAL opens");
    costs.wal_append_us = median_us(100, |i| {
        wal.append(1 + i as u64, black_box(&bytes))
            .expect("WAL append");
    });
    // Each sync gets one fresh record to flush; only the sync is timed.
    let base = (BATCHES * 100) as u64;
    let mut syncs: Vec<f64> = (0..BATCHES * 5)
        .map(|i| {
            wal.append(base + 1 + i as u64, &bytes).expect("WAL append");
            let started = Instant::now();
            wal.sync().expect("WAL sync");
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    syncs.sort_by(f64::total_cmp);
    costs.wal_sync_us = syncs[syncs.len() / 2];
    drop(wal);
    let _ = std::fs::remove_file(&path);
    costs
}
