//! Durable stable-checkpoint snapshots with a versioned on-disk format.
//!
//! A snapshot captures one stable checkpoint: the sequence number, the
//! signed state digest, and the full entry set of the authenticated trie
//! (the trie root is history-independent, so rebuilding by insertion
//! reproduces the exact checkpoint root).
//!
//! The layout is `magic | version | seq | state_digest | state_root |
//! results_root | cert | entries | crc32`: the roots the digest commits
//! to, an optional opaque checkpoint-certificate blob, and a trailing
//! CRC-32 over the whole file. The version is 2 ([`SNAPSHOT_V2`]); no
//! deployment ever wrote the v1 layout, so [`Snapshot::decode`] refuses
//! it like any other unknown version. Writers go through temp-file +
//! rename, so a crash never leaves a half-written snapshot in place (a
//! corrupt or unknown file is treated as absent — the startup recovery
//! handshake re-fetches the checkpoint from peers).

use std::io::{self, Write};
use std::path::Path;

use sbft_types::{Digest, SeqNum};
use sbft_wire::{Decoder, Encoder, Wire};

use crate::trie::AuthKv;
use crate::wal::crc32;

/// File magic; anything else is not a snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SBFTSNAP";
/// The snapshot layout.
pub const SNAPSHOT_V2: u16 = 2;

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Not a snapshot file at all.
    BadMagic,
    /// A version this build does not know.
    UnknownVersion(u16),
    /// Structurally broken or checksum-failed content.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => f.write_str("bad snapshot magic"),
            SnapshotError::UnknownVersion(v) => write!(f, "unknown snapshot version {v}"),
            SnapshotError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
        }
    }
}

/// An in-memory stable-checkpoint snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The checkpoint sequence number.
    pub seq: SeqNum,
    /// The signed state digest `d_s` at the checkpoint.
    pub state_digest: Digest,
    /// The trie root the digest commits to.
    pub state_root: Digest,
    /// The results root the digest commits to.
    pub results_root: Digest,
    /// Opaque checkpoint-certificate blob (the replication layer's
    /// encoding of the π signature), when one was stable.
    pub cert: Option<Vec<u8>>,
    /// The full entry set of the checkpoint state.
    pub entries: Vec<(Vec<u8>, Vec<u8>)>,
}

fn encode_entries(enc: &mut Encoder, entries: &[(Vec<u8>, Vec<u8>)]) {
    enc.put_varint(entries.len() as u64);
    for (k, v) in entries {
        enc.put_bytes(k);
        enc.put_bytes(v);
    }
}

fn decode_entries(dec: &mut Decoder<'_>) -> Result<Vec<(Vec<u8>, Vec<u8>)>, SnapshotError> {
    let count =
        dec.get_varint()
            .map_err(|e| SnapshotError::Corrupt(format!("entry count: {e:?}")))? as usize;
    if count > dec.remaining() {
        return Err(SnapshotError::Corrupt(format!(
            "entry count {count} exceeds remaining bytes"
        )));
    }
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        let k = dec
            .get_bytes()
            .map_err(|e| SnapshotError::Corrupt(format!("entry key: {e:?}")))?
            .to_vec();
        let v = dec
            .get_bytes()
            .map_err(|e| SnapshotError::Corrupt(format!("entry value: {e:?}")))?
            .to_vec();
        entries.push((k, v));
    }
    Ok(entries)
}

impl Snapshot {
    /// Builds a snapshot from a checkpoint's components.
    pub fn of_checkpoint(
        seq: SeqNum,
        state_digest: Digest,
        state_root: Digest,
        results_root: Digest,
        cert: Option<Vec<u8>>,
        state: &AuthKv,
    ) -> Snapshot {
        Snapshot {
            seq,
            state_digest,
            state_root,
            results_root,
            cert,
            entries: state
                .iter()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect(),
        }
    }

    /// Rebuilds the checkpoint trie from the stored entries.
    pub fn rebuild_state(&self) -> AuthKv {
        let mut state = AuthKv::new();
        for (k, v) in &self.entries {
            state.insert(k, v.clone());
        }
        state
    }

    /// Encodes the snapshot, CRC-sealed.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_raw(SNAPSHOT_MAGIC);
        enc.put_u16(SNAPSHOT_V2);
        self.seq.encode(&mut enc);
        self.state_digest.encode(&mut enc);
        self.state_root.encode(&mut enc);
        self.results_root.encode(&mut enc);
        match &self.cert {
            Some(cert) => {
                enc.put_u8(1);
                enc.put_bytes(cert);
            }
            None => enc.put_u8(0),
        }
        encode_entries(&mut enc, &self.entries);
        let mut bytes = enc.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Decodes a snapshot, checking its magic, version and checksum.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < SNAPSHOT_MAGIC.len() + 2 || &bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes(bytes[8..10].try_into().unwrap());
        match version {
            SNAPSHOT_V2 => {
                if bytes.len() < 14 {
                    return Err(SnapshotError::Corrupt("too short for v2".to_string()));
                }
                let (body, tail) = bytes.split_at(bytes.len() - 4);
                let stored = u32::from_le_bytes(tail.try_into().unwrap());
                if crc32(body) != stored {
                    return Err(SnapshotError::Corrupt("checksum mismatch".to_string()));
                }
                let mut dec = Decoder::new(&body[10..]);
                let seq = SeqNum::decode(&mut dec)
                    .map_err(|e| SnapshotError::Corrupt(format!("seq: {e:?}")))?;
                let state_digest = Digest::decode(&mut dec)
                    .map_err(|e| SnapshotError::Corrupt(format!("digest: {e:?}")))?;
                let state_root = Digest::decode(&mut dec)
                    .map_err(|e| SnapshotError::Corrupt(format!("state root: {e:?}")))?;
                let results_root = Digest::decode(&mut dec)
                    .map_err(|e| SnapshotError::Corrupt(format!("results root: {e:?}")))?;
                let cert = match dec
                    .get_u8()
                    .map_err(|e| SnapshotError::Corrupt(format!("cert flag: {e:?}")))?
                {
                    0 => None,
                    1 => Some(
                        dec.get_bytes()
                            .map_err(|e| SnapshotError::Corrupt(format!("cert: {e:?}")))?
                            .to_vec(),
                    ),
                    other => {
                        return Err(SnapshotError::Corrupt(format!("cert flag {other}")));
                    }
                };
                let entries = decode_entries(&mut dec)?;
                Ok(Snapshot {
                    seq,
                    state_digest,
                    state_root,
                    results_root,
                    cert,
                    entries,
                })
            }
            other => Err(SnapshotError::UnknownVersion(other)),
        }
    }

    /// Writes the snapshot to `path` via temp-file + rename, so readers
    /// never observe a half-written file.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        let bytes = self.encode();
        let tmp = path.with_extension("snap.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Reads and decodes the snapshot at `path`. A missing or corrupt
    /// file loads as `None` — recovery then falls back to the peers'
    /// checkpoints.
    pub fn read_from(path: &Path) -> io::Result<Option<Snapshot>> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(Snapshot::decode(&bytes).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::combine_state_digest;
    use sbft_crypto::SplitMix64;

    fn sample_state(entries: usize, seed: u64) -> AuthKv {
        let mut rng = SplitMix64::new(seed);
        let mut state = AuthKv::new();
        for _ in 0..entries {
            let k = rng.next_u64().to_le_bytes().to_vec();
            let v = rng.next_u64().to_le_bytes().to_vec();
            state.insert(&k, v);
        }
        state
    }

    fn sample_snapshot() -> Snapshot {
        let state = sample_state(40, 7);
        let state_root = state.root();
        let results_root = Digest::new([9; 32]);
        let seq = SeqNum::new(16);
        Snapshot::of_checkpoint(
            seq,
            combine_state_digest(seq, &state_root, &results_root),
            state_root,
            results_root,
            Some(vec![1, 2, 3, 4]),
            &state,
        )
    }

    #[test]
    fn v2_round_trip() {
        let snap = sample_snapshot();
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
        assert_eq!(decoded.rebuild_state().root(), snap.state_root);
    }

    #[test]
    fn corrupt_and_unknown_inputs_are_rejected_not_panicked() {
        let snap = sample_snapshot();
        let good = snap.encode();
        // Flip one byte anywhere: either the magic/version breaks or the
        // CRC catches it. Never a panic, never a silently-wrong load.
        let mut rng = SplitMix64::new(3);
        for _ in 0..64 {
            let mut bad = good.clone();
            let pos = (rng.next_u64() as usize) % bad.len();
            bad[pos] ^= 1 << (rng.next_u64() % 8);
            assert!(Snapshot::decode(&bad).is_err(), "flip at {pos} must fail");
        }
        // Truncations at every length fail cleanly too.
        for cut in 0..good.len() {
            assert!(Snapshot::decode(&good[..cut]).is_err());
        }
        // A future version is refused, not misparsed.
        let mut future = good.clone();
        future[8] = 99;
        assert_eq!(
            Snapshot::decode(&future),
            Err(SnapshotError::UnknownVersion(99))
        );
        // So is the v1 layout no deployment ever wrote.
        let mut v1 = good.clone();
        v1[8..10].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(Snapshot::decode(&v1), Err(SnapshotError::UnknownVersion(1)));
    }

    #[test]
    fn write_read_round_trip_via_tmpfile() {
        let dir = std::env::temp_dir().join(format!("sbft-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("checkpoint.snap");
        let snap = sample_snapshot();
        snap.write_to(&path).unwrap();
        let loaded = Snapshot::read_from(&path).unwrap().unwrap();
        assert_eq!(loaded, snap);
        // Corrupt file on disk reads as absent.
        std::fs::write(&path, b"SBFTSNAPgarbage").unwrap();
        assert!(Snapshot::read_from(&path).unwrap().is_none());
        // So does a file in an unknown layout.
        let mut v1 = snap.encode();
        v1[8..10].copy_from_slice(&1u16.to_le_bytes());
        std::fs::write(&path, v1).unwrap();
        assert!(Snapshot::read_from(&path).unwrap().is_none());
        // Missing file reads as absent.
        assert!(Snapshot::read_from(&dir.join("nope.snap"))
            .unwrap()
            .is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
