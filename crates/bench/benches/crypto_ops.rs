//! Micro-benchmarks for the threshold-cryptography substrate at the
//! paper's scale (σ threshold 201 of n = 209, §V).

use std::hint::black_box;

use sbft_bench::micro::Bench;
use sbft_core::{KeyMaterial, ProtocolConfig, VariantFlags};
use sbft_crypto::{
    batch_verify_share_items, generate_threshold_keys, sha256, KeyPair, Scalar, ShareVerifyItem,
    SignatureShare,
};
use sbft_types::ClientId;

fn main() {
    let mut c = Bench::from_args();
    let digest = sha256(b"decision block");
    // Paper scale: n = 209, σ threshold = 201.
    let (public, shares) = generate_threshold_keys(209, 201, 42);
    let sig_shares: Vec<SignatureShare> =
        shares.iter().map(|s| s.sign(b"sigma", &digest)).collect();
    let combined = public.combine(b"sigma", &digest, &sig_shares).unwrap();
    let multisig = public
        .combine_multisig(b"sigma", &digest, &sig_shares)
        .unwrap();

    c.bench_function("sign_share", |b| {
        b.iter(|| black_box(shares[0].sign(b"sigma", &digest)))
    });
    c.bench_function("verify_share", |b| {
        b.iter(|| black_box(public.verify_share(b"sigma", &digest, &sig_shares[0])))
    });
    c.bench_function("batch_verify_201_shares", |b| {
        b.iter(|| black_box(public.batch_verify_shares(b"sigma", &digest, &sig_shares[..201], 7)))
    });
    c.bench_function("combine_threshold_201_of_209", |b| {
        b.iter(|| black_box(public.combine(b"sigma", &digest, &sig_shares).unwrap()))
    });
    c.bench_function("combine_multisig_209", |b| {
        b.iter(|| {
            black_box(
                public
                    .combine_multisig(b"sigma", &digest, &sig_shares)
                    .unwrap(),
            )
        })
    });
    c.bench_function("verify_combined", |b| {
        b.iter(|| black_box(public.verify(b"sigma", &digest, &combined)))
    });
    c.bench_function("verify_multisig", |b| {
        b.iter(|| black_box(public.verify_multisig(b"sigma", &digest, &multisig)))
    });
    c.bench_function("combine_preverified_201_of_209", |b| {
        b.iter(|| black_box(public.combine_preverified(&sig_shares).unwrap()))
    });
    c.bench_function("mixed_batch_verify_64_shares_8_digests", |b| {
        // The verification pipeline's shape: π shares from many replicas
        // over a handful of recent state digests, one RLC check.
        let (pk, sks) = generate_threshold_keys(8, 3, 7);
        let digests: Vec<_> = (0..8u8).map(|i| sha256(&[i])).collect();
        let items: Vec<(usize, u8)> = (0..64).map(|i| (i % 8, (i / 8) as u8)).collect();
        let signed: Vec<(SignatureShare, u8)> = items
            .iter()
            .map(|(signer, d)| (sks[*signer].sign(b"pi", &digests[*d as usize]), *d))
            .collect();
        b.iter(|| {
            let batch: Vec<ShareVerifyItem<'_>> = signed
                .iter()
                .map(|(share, d)| ShareVerifyItem {
                    key: &pk,
                    domain: b"pi",
                    digest: digests[*d as usize],
                    share: *share,
                })
                .collect();
            black_box(batch_verify_share_items(&batch, 7))
        })
    });
    c.bench_function("client_key_derive_uncached", |b| {
        let mut id = 0u32;
        b.iter(|| {
            id = id.wrapping_add(1) % 64;
            black_box(KeyPair::derive(42, b"client", id))
        })
    });
    c.bench_function("client_key_lookup_cached", |b| {
        // The replica hot path after the memoization satellite: repeated
        // lookups of a working set hit the bounded cache.
        let config = ProtocolConfig::new(1, 0, VariantFlags::SBFT);
        let keys = KeyMaterial::generate(&config, 42);
        let mut id = 0u32;
        b.iter(|| {
            id = id.wrapping_add(1) % 64;
            black_box(keys.public.client_keys(ClientId::new(id)))
        })
    });
    c.bench_function("variable_base_mul", |b| {
        let base = sbft_crypto::GroupElement::generator().mul(&Scalar::from_u64(0xabcd));
        let s = Scalar::from_digest(&sha256(b"scalar"));
        b.iter(|| black_box(base.mul(&s)))
    });
    c.bench_function("sha256_1k", |b| {
        let data = vec![0xabu8; 1024];
        b.iter(|| black_box(sha256(&data)))
    });
}
