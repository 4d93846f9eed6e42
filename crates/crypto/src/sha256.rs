//! SHA-256, implemented from scratch (FIPS 180-4).
//!
//! The paper uses SHA-256 as the cryptographic hash function `H` for block
//! digests (`h = H(s||v||r)`, §V-C), Merkle trees (§IV) and state digests.
//! This implementation is tested against the FIPS/NIST test vectors.

use sbft_types::Digest;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A block compression function: folds a whole number of 64-byte blocks
/// into the chaining state.
type Compress = fn(&mut [u32; 8], &[u8]);

/// Incremental SHA-256 hasher.
///
/// Blocks are compressed on the CPU's SHA extensions when it has them and
/// by portable code otherwise; both produce the same digest.
///
/// # Examples
///
/// ```
/// use sbft_crypto::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"abc");
/// let digest = hasher.finalize();
/// assert_eq!(
///     digest.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feeds bytes into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress)
    }

    fn update_with(&mut self, mut data: &[u8], compress: Compress) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress(&mut self.state, &data[..whole]);
        }
        let rest = &data[whole..];
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    fn finalize_with(mut self, compress: Compress) -> Digest {
        // Append 0x80, zeros to 56 mod 64, then the 64-bit bit length:
        // one final block, or two when fewer than 9 bytes are free.
        let len = self.buffer_len;
        self.buffer[len] = 0x80;
        self.buffer[len + 1..].fill(0);
        if len >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest::new(out)
    }
}

/// Compresses whole 64-byte blocks, on the SHA extensions when the CPU
/// has them.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if x86::sha_extensions_detected() {
        // SAFETY: the CPU supports every feature `compress_sha_ni`
        // enables; that was checked at run time just above.
        unsafe { x86::compress_sha_ni(state, blocks) };
        return;
    }
    compress_portable(state, blocks);
}

/// FIPS 180-4 compression in portable Rust: the fallback on CPUs without
/// the SHA extensions and the reference the tests check them against.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(v);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::K;

    /// Whether this CPU has every feature [`compress_sha_ni`] enables
    /// (`sse2` is part of the x86-64 baseline).
    pub(super) fn sha_extensions_detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }

    /// Compresses whole 64-byte blocks with the SHA-NI round and message
    /// schedule instructions, four rounds per step.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `sse4.1` and `ssse3` features, as
    /// [`sha_extensions_detected`] checks.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // SAFETY: `state` is 32 readable bytes; unaligned loads are allowed.
        let (abcd, efgh) = unsafe {
            let words = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(words), _mm_loadu_si128(words.add(1)))
        };
        // The round instruction keeps the state as (A,B,E,F) and
        // (C,D,G,H), A and C in the top lanes.
        let badc = _mm_shuffle_epi32(abcd, 0xb1);
        let hgfe = _mm_shuffle_epi32(efgh, 0x1b);
        let mut abef = _mm_alignr_epi8(badc, hgfe, 8);
        let mut cdgh = _mm_blend_epi16(hgfe, badc, 0xf0);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w0 = message_words(block, 0);
            let mut w1 = message_words(block, 1);
            let mut w2 = message_words(block, 2);
            let mut w3 = message_words(block, 3);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            for i in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let abcd = _mm_blend_epi16(feba, dchg, 0xf0);
        let efgh = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: `state` is 32 writable bytes; unaligned stores are
        // allowed.
        unsafe {
            let words = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(words, abcd);
            _mm_storeu_si128(words.add(1), efgh);
        }
    }

    /// Message words `W[4i..4i + 4]` of `block`, `W[4i]` in the low lane.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn message_words(block: &[u8], i: usize) -> __m128i {
        let bytes = &block[16 * i..16 * i + 16];
        // SAFETY: `bytes` is 16 readable bytes; unaligned loads are allowed.
        let raw = unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()) };
        // The words are big-endian: reverse the bytes of each lane.
        _mm_shuffle_epi8(
            raw,
            _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203),
        )
    }

    /// The next four message words, from the sixteen before them in
    /// `w0..w3`: the σ0 terms, plus the `W[t-7]` terms, plus the σ1 terms.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(partial, w3)
    }

    /// Rounds `4i..4i + 4` on message words `w`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = &K[4 * i..4 * i + 4];
        // SAFETY: `k` is 16 readable bytes; unaligned loads are allowed.
        let wk = _mm_add_epi32(w, unsafe { _mm_loadu_si128(k.as_ptr().cast::<__m128i>()) });
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
}

/// Hashes a byte slice with SHA-256 in one call.
///
/// # Examples
///
/// ```
/// let d = sbft_crypto::sha256(b"");
/// assert_eq!(
///     d.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    hash_parts(&[data], compress)
}

/// Hashes the concatenation of several byte slices.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    hash_parts(parts, compress)
}

/// HMAC-SHA256 (RFC 2104). The paper's implementation authenticates
/// point-to-point channels (TLS 1.2); we expose HMAC for the same purpose in
/// the simulated transport.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    hmac_with(key, message, compress)
}

fn hash_parts(parts: &[&[u8]], compress: Compress) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update_with(p, compress);
    }
    h.finalize_with(compress)
}

fn hmac_with(key: &[u8], message: &[u8], compress: Compress) -> Digest {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(hash_parts(&[key], compress).as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; 64];
    let mut opad = [0x5cu8; 64];
    for i in 0..64 {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let inner = hash_parts(&[&ipad, message], compress);
    hash_parts(&[&opad, inner.as_bytes()], compress)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both compression paths: the portable reference, and the dispatched
    /// one the hasher uses (the SHA extensions where the CPU has them, the
    /// portable code again where it does not).
    const PATHS: [(&str, Compress); 2] =
        [("portable", compress_portable), ("dispatched", compress)];

    fn hash_with(data: &[u8], compress: Compress) -> String {
        hash_parts(&[data], compress).to_hex()
    }

    // FIPS 180-4 / NIST CAVS vectors, through both paths.
    #[test]
    fn empty_string() {
        for (path, compress) in PATHS {
            assert_eq!(
                hash_with(b"", compress),
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                "{path}"
            );
        }
    }

    #[test]
    fn abc() {
        for (path, compress) in PATHS {
            assert_eq!(
                hash_with(b"abc", compress),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                "{path}"
            );
        }
    }

    #[test]
    fn two_block_message() {
        for (path, compress) in PATHS {
            assert_eq!(
                hash_with(
                    b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                    compress
                ),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
                "{path}"
            );
        }
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        for (path, compress) in PATHS {
            assert_eq!(
                hash_with(&data, compress),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{path}"
            );
        }
    }

    #[test]
    fn exact_block_boundary() {
        // 64-byte input exercises the padding-to-new-block path.
        let data = [0x61u8; 64];
        for (path, compress) in PATHS {
            assert_eq!(
                hash_with(&data, compress),
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
                "{path}"
            );
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let one_shot = sha256(&data);
        for chunk_size in [1usize, 3, 63, 64, 65, 127, 999] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk_size}");
        }
    }

    /// Every length from 0 to 300 bytes — across the 55/56/63/64/119/120
    /// padding edges — hashed in one call and in 1/3/63/64/65-byte
    /// chunks, through both paths, gives the portable one-shot digest.
    #[test]
    fn compression_paths_agree_on_every_length() {
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
            .collect();
        for len in 0..=data.len() {
            let input = &data[..len];
            let reference = hash_parts(&[input], compress_portable);
            for (path, compress) in PATHS {
                assert_eq!(hash_parts(&[input], compress), reference, "{path}, {len} B");
                for chunk in [1usize, 3, 63, 64, 65] {
                    let mut h = Sha256::new();
                    for part in input.chunks(chunk) {
                        h.update_with(part, compress);
                    }
                    assert_eq!(
                        h.finalize_with(compress),
                        reference,
                        "{path}, {len} B in {chunk}-byte chunks"
                    );
                }
            }
        }
    }

    #[test]
    fn concat_helper() {
        assert_eq!(sha256_concat(&[b"ab", b"c"]), sha256(b"abc"));
        assert_eq!(sha256_concat(&[]), sha256(b""));
    }

    // RFC 4231 test case 1 and 2, through both paths.
    #[test]
    fn hmac_rfc4231_case1() {
        let key = [0x0bu8; 20];
        for (path, compress) in PATHS {
            assert_eq!(
                hmac_with(&key, b"Hi There", compress).to_hex(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
                "{path}"
            );
        }
    }

    #[test]
    fn hmac_rfc4231_case2() {
        for (path, compress) in PATHS {
            assert_eq!(
                hmac_with(b"Jefe", b"what do ya want for nothing?", compress).to_hex(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
                "{path}"
            );
        }
    }

    #[test]
    fn hmac_long_key_is_hashed() {
        // Keys longer than the block size are first hashed (RFC 4231 case 6).
        let key = [0xaau8; 131];
        for (path, compress) in PATHS {
            assert_eq!(
                hmac_with(
                    &key,
                    b"Test Using Larger Than Block-Size Key - Hash Key First",
                    compress
                )
                .to_hex(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
                "{path}"
            );
        }
    }
}
