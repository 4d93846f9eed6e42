//! Durable replica state: the glue between the consensus node and the
//! statedb durability substrates ([`Wal`] + [`Snapshot`]).
//!
//! A [`ReplicaDurability`] owns one replica's durable media: an
//! append-only commit WAL whose records are self-contained
//! `SbftMsg::BlockFill` wire bytes (block + certificate — exactly what
//! replay feeds back through the commit path), and the latest
//! stable-checkpoint snapshot. Two backends share the byte format:
//!
//! - **Disk**: real files under a data dir (`commit.wal`,
//!   `checkpoint.snap`), fsync'd per [`FsyncPolicy`], snapshot written
//!   atomically via tmp + rename, WAL compacted past each stable
//!   checkpoint.
//! - **Memory**: the same bytes in `Vec<u8>`s, for the deterministic
//!   simulator. A [`DurabilityImage`] captures them so a simulated
//!   restart can re-seed the fresh incarnation — modelling "crash with
//!   intact disk" — and chaos tests can tear or bit-flip the captured
//!   WAL tail before reboot.
//!
//! Recovery itself (installing the snapshot, replaying the WAL tail,
//! the peer handshake) lives in the replica; this module only answers
//! "what survived?" as a [`RecoveredState`].

use std::io;
use std::path::{Path, PathBuf};

use sbft_statedb::{append_record, replay, FsyncPolicy, Snapshot, Wal};

/// File name of the commit WAL inside a replica's data dir.
pub const WAL_FILE: &str = "commit.wal";
/// File name of the stable-checkpoint snapshot inside a replica's data dir.
pub const SNAPSHOT_FILE: &str = "checkpoint.snap";

/// Path of the commit WAL for a data dir.
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// Path of the checkpoint snapshot for a data dir.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// What a replica found on its durable media at boot.
pub struct RecoveredState {
    /// The latest decodable stable-checkpoint snapshot, if any. A
    /// corrupt or missing snapshot file recovers as `None` — the replica
    /// falls back to fetching state from peers.
    pub snapshot: Option<Snapshot>,
    /// WAL records past the snapshot, `(seq, message wire bytes)`, in
    /// log order. Damaged tails were already truncated away.
    pub wal_records: Vec<(u64, Vec<u8>)>,
    /// Set when the WAL tail was torn or corrupt and got truncated.
    pub wal_damage: Option<String>,
}

impl RecoveredState {
    /// A boot with nothing on disk.
    pub fn empty() -> RecoveredState {
        RecoveredState {
            snapshot: None,
            wal_records: Vec::new(),
            wal_damage: None,
        }
    }

    /// True when nothing survived (fresh boot semantics).
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.wal_records.is_empty()
    }
}

/// A byte-for-byte capture of a replica's durable state. The simulator
/// snapshots one at crash time and re-seeds it into the restarted
/// incarnation; chaos plans mutate `wal` in between to inject torn
/// writes.
#[derive(Clone, Debug, Default)]
pub struct DurabilityImage {
    /// Encoded snapshot file contents, if one was written.
    pub snapshot: Option<Vec<u8>>,
    /// Raw WAL bytes.
    pub wal: Vec<u8>,
}

impl DurabilityImage {
    /// Drops the last `cut` bytes of the WAL — a torn final write.
    pub fn tear_wal_tail(&mut self, cut: usize) {
        let keep = self.wal.len().saturating_sub(cut);
        self.wal.truncate(keep);
    }

    /// Flips one bit in the WAL (`offset` wraps into range) — media
    /// corruption the CRC must catch.
    pub fn flip_wal_bit(&mut self, offset: usize, bit: u8) {
        if self.wal.is_empty() {
            return;
        }
        let i = offset % self.wal.len();
        self.wal[i] ^= 1 << (bit % 8);
    }
}

enum Backend {
    Memory {
        snapshot: Option<Vec<u8>>,
        wal: Vec<u8>,
    },
    Disk {
        dir: PathBuf,
        wal: Wal,
    },
}

/// One replica's durable backing store. See the module docs.
pub struct ReplicaDurability {
    backend: Backend,
    /// Highest sequence already in the WAL: replayed commits re-enter
    /// the commit path (which logs), so appends below this are dropped
    /// instead of duplicating records.
    highest_logged: u64,
}

/// Decodes what a (snapshot bytes, WAL bytes) pair recovers to, plus
/// the resulting log frontier and the WAL's undamaged length.
fn recover_from_bytes(
    snapshot_bytes: Option<&[u8]>,
    wal_bytes: &[u8],
) -> (RecoveredState, u64, usize) {
    let snapshot = snapshot_bytes.and_then(|b| Snapshot::decode(b).ok());
    let snap_seq = snapshot.as_ref().map(|s| s.seq.get()).unwrap_or(0);
    let wal = replay(wal_bytes);
    let mut highest = snap_seq;
    let mut records = Vec::new();
    for r in wal.records {
        highest = highest.max(r.seq);
        if r.seq > snap_seq {
            records.push((r.seq, r.payload));
        }
    }
    (
        RecoveredState {
            snapshot,
            wal_records: records,
            wal_damage: wal.damage,
        },
        highest,
        wal.good_len,
    )
}

impl ReplicaDurability {
    /// A fresh in-memory store (simulator default): logging and
    /// checkpointing run exactly as on disk, minus the syscalls.
    pub fn in_memory() -> ReplicaDurability {
        ReplicaDurability {
            backend: Backend::Memory {
                snapshot: None,
                wal: Vec::new(),
            },
            highest_logged: 0,
        }
    }

    /// Re-seeds an in-memory store from a captured [`DurabilityImage`]
    /// (simulated restart-with-intact-disk). Damaged WAL tails are
    /// truncated exactly as the disk backend would.
    pub fn from_image(image: DurabilityImage) -> (ReplicaDurability, RecoveredState) {
        let (recovered, highest, good_len) =
            recover_from_bytes(image.snapshot.as_deref(), &image.wal);
        let mut wal = image.wal;
        wal.truncate(good_len);
        (
            ReplicaDurability {
                backend: Backend::Memory {
                    snapshot: image.snapshot,
                    wal,
                },
                highest_logged: highest,
            },
            recovered,
        )
    }

    /// Opens (or creates) the disk store under `dir`, recovering
    /// whatever the files hold. Torn WAL tails are truncated in place.
    pub fn on_disk(
        dir: &Path,
        policy: FsyncPolicy,
    ) -> io::Result<(ReplicaDurability, RecoveredState)> {
        std::fs::create_dir_all(dir)?;
        let snapshot_bytes = match std::fs::read(snapshot_path(dir)) {
            Ok(b) => Some(b),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let (wal, wal_replay) = Wal::open(&wal_path(dir), policy)?;
        let snapshot = snapshot_bytes.and_then(|b| Snapshot::decode(&b).ok());
        let snap_seq = snapshot.as_ref().map(|s| s.seq.get()).unwrap_or(0);
        let mut highest = snap_seq.max(wal.tail_seq());
        let mut records = Vec::new();
        for r in wal_replay.records {
            highest = highest.max(r.seq);
            if r.seq > snap_seq {
                records.push((r.seq, r.payload));
            }
        }
        Ok((
            ReplicaDurability {
                backend: Backend::Disk {
                    dir: dir.to_path_buf(),
                    wal,
                },
                highest_logged: highest,
            },
            RecoveredState {
                snapshot,
                wal_records: records,
                wal_damage: wal_replay.damage,
            },
        ))
    }

    /// Appends one committed decision to the WAL. Sequences at or below
    /// the current frontier (recovery replays, duplicate deliveries)
    /// are dropped. Disk errors are swallowed: losing durability must
    /// not take down consensus, and recovery treats a short log as a
    /// torn tail.
    pub fn log_commit(&mut self, seq: u64, msg_bytes: &[u8]) {
        if seq <= self.highest_logged {
            return;
        }
        self.highest_logged = seq;
        match &mut self.backend {
            Backend::Memory { wal, .. } => append_record(wal, seq, msg_bytes),
            Backend::Disk { wal, .. } => {
                let _ = wal.append(seq, msg_bytes);
            }
        }
    }

    /// Persists a stable-checkpoint snapshot and compacts the WAL past
    /// it. The snapshot write is atomic (tmp + rename on disk), so a
    /// crash mid-checkpoint leaves the previous snapshot intact.
    pub fn store_checkpoint(&mut self, snapshot: &Snapshot) {
        let stable = snapshot.seq.get();
        self.highest_logged = self.highest_logged.max(stable);
        match &mut self.backend {
            Backend::Memory { snapshot: s, wal } => {
                *s = Some(snapshot.encode());
                let kept: Vec<_> = replay(wal)
                    .records
                    .into_iter()
                    .filter(|r| r.seq > stable)
                    .collect();
                wal.clear();
                for r in kept {
                    append_record(wal, r.seq, &r.payload);
                }
            }
            Backend::Disk { dir, wal } => {
                let _ = snapshot.write_to(&snapshot_path(dir));
                let _ = wal.compact_through(stable);
            }
        }
    }

    /// Forces buffered WAL appends to stable storage (no-op in memory).
    pub fn sync(&mut self) {
        if let Backend::Disk { wal, .. } = &mut self.backend {
            let _ = wal.sync();
        }
    }

    /// Captures the current durable bytes (see [`DurabilityImage`]).
    /// The disk backend syncs and re-reads its files.
    pub fn image(&mut self) -> DurabilityImage {
        match &mut self.backend {
            Backend::Memory { snapshot, wal } => DurabilityImage {
                snapshot: snapshot.clone(),
                wal: wal.clone(),
            },
            Backend::Disk { dir, wal } => {
                let _ = wal.sync();
                DurabilityImage {
                    snapshot: std::fs::read(snapshot_path(dir)).ok(),
                    wal: std::fs::read(wal_path(dir)).unwrap_or_default(),
                }
            }
        }
    }

    /// Replaces the durable bytes wholesale, **without** running
    /// recovery — fault injection for a crashed replica's store. Unlike
    /// [`ReplicaDurability::from_image`], a damaged tail is left in
    /// place so it surfaces (and gets truncated) at the next reboot.
    pub fn overwrite_image(&mut self, image: DurabilityImage) {
        match &mut self.backend {
            Backend::Memory { snapshot, wal } => {
                *snapshot = image.snapshot;
                *wal = image.wal;
            }
            Backend::Disk { dir, .. } => {
                match image.snapshot {
                    Some(bytes) => {
                        let _ = std::fs::write(snapshot_path(dir), bytes);
                    }
                    None => {
                        let _ = std::fs::remove_file(snapshot_path(dir));
                    }
                }
                // Raw byte write; the internal `Wal` handle goes stale,
                // which is fine — this store belongs to a crashed
                // incarnation and is only read back via `image()` or a
                // fresh `on_disk()` open.
                let _ = std::fs::write(wal_path(dir), image.wal);
            }
        }
    }

    /// Highest sequence the WAL (or snapshot) covers.
    pub fn frontier(&self) -> u64 {
        self.highest_logged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_statedb::AuthKv;
    use sbft_types::{Digest, SeqNum};

    fn sample_snapshot(seq: u64) -> Snapshot {
        let mut state = AuthKv::new();
        state.insert(b"k", b"v".to_vec());
        let root = state.root();
        Snapshot::of_checkpoint(
            SeqNum::new(seq),
            Digest::new([7; 32]),
            root,
            Digest::new([9; 32]),
            Some(vec![1, 2, 3]),
            &state,
        )
    }

    /// In-memory store → image → fresh store round-trips the snapshot
    /// and the WAL tail past it, and the rebooted store refuses to
    /// re-log already-covered sequences.
    #[test]
    fn image_round_trip_recovers_snapshot_and_tail() {
        let mut dur = ReplicaDurability::in_memory();
        for seq in 1..=6u64 {
            dur.log_commit(seq, format!("block-{seq}").as_bytes());
        }
        dur.store_checkpoint(&sample_snapshot(4));
        dur.log_commit(7, b"block-7");
        // Duplicate / stale appends are dropped.
        dur.log_commit(7, b"dup");
        dur.log_commit(3, b"stale");

        let image = dur.image();
        let (mut rebooted, recovered) = ReplicaDurability::from_image(image);
        let snap = recovered.snapshot.expect("snapshot survives");
        assert_eq!(snap.seq.get(), 4);
        assert_eq!(snap.rebuild_state().root(), snap.state_root);
        let seqs: Vec<u64> = recovered.wal_records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![5, 6, 7]);
        assert_eq!(recovered.wal_records[2].1, b"block-7");
        assert!(recovered.wal_damage.is_none());
        assert_eq!(rebooted.frontier(), 7);
        rebooted.log_commit(7, b"replayed-dup");
        rebooted.log_commit(8, b"block-8");
        let again = rebooted.image();
        let (_, r2) = ReplicaDurability::from_image(again);
        let seqs: Vec<u64> = r2.wal_records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![5, 6, 7, 8]);
    }

    /// A torn image WAL tail truncates to the last whole record and
    /// reports the damage; re-appending after reboot works.
    #[test]
    fn torn_image_tail_truncates_and_recovers() {
        let mut dur = ReplicaDurability::in_memory();
        dur.log_commit(1, b"one");
        dur.log_commit(2, b"two-torn");
        let mut image = dur.image();
        image.tear_wal_tail(3);
        let (mut rebooted, recovered) = ReplicaDurability::from_image(image);
        let seqs: Vec<u64> = recovered.wal_records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1]);
        assert!(recovered.wal_damage.is_some());
        assert_eq!(rebooted.frontier(), 1);
        rebooted.log_commit(2, b"two-again");
        let (_, r2) = ReplicaDurability::from_image(rebooted.image());
        assert_eq!(r2.wal_records.len(), 2);
        assert!(r2.wal_damage.is_none());
    }

    /// Disk backend: a full write → reboot cycle through real files in
    /// a tmpdir, including WAL compaction at the checkpoint.
    #[test]
    fn disk_round_trip_in_tmpdir() {
        let dir = std::env::temp_dir().join(format!("sbft-persist-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (mut dur, recovered) =
                ReplicaDurability::on_disk(&dir, FsyncPolicy::Always).expect("open");
            assert!(recovered.is_empty());
            for seq in 1..=5u64 {
                dur.log_commit(seq, format!("block-{seq}").as_bytes());
            }
            dur.store_checkpoint(&sample_snapshot(3));
            dur.sync();
        }
        {
            let (mut dur, recovered) =
                ReplicaDurability::on_disk(&dir, FsyncPolicy::default()).expect("reopen");
            let snap = recovered.snapshot.expect("snapshot file survives");
            assert_eq!(snap.seq.get(), 3);
            let seqs: Vec<u64> = recovered.wal_records.iter().map(|(s, _)| *s).collect();
            assert_eq!(seqs, vec![4, 5], "WAL compacted through the checkpoint");
            assert_eq!(dur.frontier(), 5);
            dur.log_commit(6, b"block-6");
            dur.sync();
        }
        let (_, recovered) =
            ReplicaDurability::on_disk(&dir, FsyncPolicy::default()).expect("reopen again");
        let seqs: Vec<u64> = recovered.wal_records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
