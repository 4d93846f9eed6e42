//! Intra-block parallel execution: conflict scheduler and wave worker pool.
//!
//! The committed block is the unit of work. [`plan_waves`] groups the
//! block's ops into *waves* using their declared [`ReadWriteSet`]s: ops in
//! one wave are pairwise non-conflicting, and every op is placed after the
//! last earlier op it conflicts with. Waves then execute one after the
//! other; inside a wave each op is *planned* against an O(1) copy-on-write
//! snapshot of the wave-start state (so planners never observe each
//! other), and the recorded [`WriteCmd`]s are *applied* serially in
//! original op order. Because ops in a wave are conflict-free, planning
//! against the wave-start snapshot reads exactly what serial execution
//! would have read, and the serial apply keeps the trie — whose shape is
//! history-independent — byte-identical to the serial path.
//!
//! Determinism: wave assignment depends only on the declared sets, plan
//! results depend only on the wave-start snapshot, and writes are applied
//! in op order. Thread count affects wall-clock only, never state roots
//! or results.

use crate::rwset::ReadWriteSet;
use crate::service::RawOp;
use crate::trie::AuthKv;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{Builder, JoinHandle};

/// A state mutation recorded during planning, replayed serially at apply
/// time. Key hashes are computed on the worker so the apply loop does no
/// hashing.
#[derive(Debug, Clone)]
pub enum WriteCmd {
    Put {
        key_hash: [u8; 32],
        key: Vec<u8>,
        value: Vec<u8>,
    },
    Delete {
        key_hash: [u8; 32],
        key: Vec<u8>,
    },
}

/// The outcome of planning one op against a snapshot.
#[derive(Debug, Clone, Default)]
pub struct PlannedOp {
    /// The op's reply payload, byte-identical to serial execution.
    pub result: Vec<u8>,
    /// Mutations to replay against the live state, in op-internal order.
    pub writes: Vec<WriteCmd>,
    /// Modeled CPU cost of the op (summed into `cpu_cost_ns`).
    pub cost_ns: u64,
    /// Service-specific counter (the EVM service sums gas here).
    pub aux: u64,
}

/// Per-service planning hooks the generic wave driver calls.
///
/// Implementations must be deterministic and side-effect free: `plan_op`
/// receives a read-only snapshot and returns everything the op would have
/// done to it. Ops with internal sequencing (client batches) clone the
/// snapshot — O(1) — and play their own writes into the private clone.
pub trait OpExecutor: Send + Sync {
    /// Declared footprint of the op. Must cover everything `plan_op` may
    /// touch; malformed ops that execute as no-ops declare empty sets.
    fn rw_set(&self, op: &[u8]) -> ReadWriteSet;

    /// Executes the op against `state` without mutating it, recording the
    /// writes it would perform.
    fn plan_op(&self, state: &AuthKv, op: &[u8]) -> PlannedOp;
}

/// Groups ops into conflict-free waves preserving block order.
///
/// Greedy leveling: op `i` lands on level `1 + max(level(j))` over earlier
/// ops `j` that conflict with it (level 0 when none do). Quadratic in the
/// block size, which the proposer already caps at a few hundred ops.
pub fn plan_waves(sets: &[ReadWriteSet]) -> Vec<Vec<usize>> {
    let mut levels: Vec<usize> = Vec::with_capacity(sets.len());
    let mut waves: Vec<Vec<usize>> = Vec::new();
    for (i, set) in sets.iter().enumerate() {
        let mut level = 0;
        for (j, earlier) in sets.iter().enumerate().take(i) {
            if earlier.conflicts_with(set) {
                level = level.max(levels[j] + 1);
            }
        }
        levels.push(level);
        if waves.len() <= level {
            waves.resize_with(level + 1, Vec::new);
        }
        waves[level].push(i);
    }
    waves
}

type Job = Box<dyn FnOnce() + Send>;

/// A small persistent worker pool for wave execution.
///
/// Same shape as the transport crate's verify pool: shared `Mutex<Receiver>`
/// intake, workers live for the pool's lifetime, dropping the pool closes
/// the channel and joins them. `threads == 1` spawns no workers at all —
/// every wave plans inline on the caller thread.
pub struct WavePool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WavePool {
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        if threads == 1 {
            return WavePool {
                tx: None,
                workers: Vec::new(),
                threads: 1,
            };
        }
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                Builder::new()
                    .name(format!("sbft-wave-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = rx.lock().expect("wave intake poisoned");
                            guard.recv()
                        };
                        match job {
                            // A panicking plan drops its result sender; the
                            // driver notices and fails the block, while the
                            // worker stays alive for later blocks.
                            Ok(job) => {
                                let _ = catch_unwind(AssertUnwindSafe(job));
                            }
                            Err(_) => break,
                        }
                    })
                    .expect("spawn wave worker")
            })
            .collect();
        WavePool {
            tx: Some(tx),
            workers,
            threads,
        }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    fn submit(&self, job: Job) {
        self.tx
            .as_ref()
            .expect("submit on single-thread pool")
            .send(job)
            .expect("wave workers exited");
    }
}

impl Drop for WavePool {
    fn drop(&mut self) {
        self.tx.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Aggregate outcome of executing one block's ops through the scheduler.
pub struct ParallelBlock {
    /// Per-op reply payloads, in op order.
    pub results: Vec<Vec<u8>>,
    /// Sum of per-op modeled costs (the caller adds its commit cost).
    pub cost_ns: u64,
    /// Sum of per-op aux counters (gas for the EVM service).
    pub aux: u64,
}

/// Drives one block through plan/apply waves against `state`.
///
/// The caller recomputes the root once afterwards — lazy trie digests mean
/// nothing here forces hashing mid-block.
pub fn execute_ops_parallel(
    state: &mut AuthKv,
    ops: &[RawOp],
    executor: &Arc<dyn OpExecutor>,
    pool: &WavePool,
) -> ParallelBlock {
    let sets: Vec<ReadWriteSet> = ops.iter().map(|op| executor.rw_set(op)).collect();
    let waves = plan_waves(&sets);

    let mut planned: Vec<Option<PlannedOp>> = (0..ops.len()).map(|_| None).collect();
    for wave in &waves {
        if pool.threads() == 1 || wave.len() == 1 {
            for &idx in wave {
                planned[idx] = Some(executor.plan_op(state, &ops[idx]));
            }
        } else {
            let (result_tx, result_rx): (Sender<(usize, PlannedOp)>, Receiver<(usize, PlannedOp)>) =
                channel();
            for &idx in wave {
                let snapshot = state.clone();
                let op = ops[idx].clone();
                let executor = Arc::clone(executor);
                let result_tx = result_tx.clone();
                pool.submit(Box::new(move || {
                    let out = executor.plan_op(&snapshot, &op);
                    let _ = result_tx.send((idx, out));
                }));
            }
            drop(result_tx);
            for _ in 0..wave.len() {
                let (idx, out) = result_rx.recv().expect("wave plan panicked on a worker");
                planned[idx] = Some(out);
            }
        }
        // Waves hold indices in ascending block order, so this serial
        // replay is exactly the serial path's write order.
        for &idx in wave {
            let op = planned[idx].as_ref().expect("planned in this wave");
            for write in &op.writes {
                match write {
                    WriteCmd::Put {
                        key_hash,
                        key,
                        value,
                    } => {
                        state.insert_hashed(*key_hash, key, value.clone());
                    }
                    WriteCmd::Delete { key_hash, key } => {
                        state.remove_hashed(key_hash, key);
                    }
                }
            }
        }
    }

    let mut results = Vec::with_capacity(ops.len());
    let mut cost_ns = 0u64;
    let mut aux = 0u64;
    for op in planned {
        let op = op.expect("every op planned by some wave");
        results.push(op.result);
        cost_ns = cost_ns.wrapping_add(op.cost_ns);
        aux = aux.wrapping_add(op.aux);
    }
    ParallelBlock {
        results,
        cost_ns,
        aux,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwset::ReadWriteSet;
    use sbft_crypto::sha256;

    #[test]
    fn disjoint_writes_share_one_wave() {
        let sets = vec![
            ReadWriteSet::write(b"a".to_vec()),
            ReadWriteSet::write(b"b".to_vec()),
            ReadWriteSet::write(b"c".to_vec()),
        ];
        assert_eq!(plan_waves(&sets), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn conflicting_chain_serializes_in_block_order() {
        let sets = vec![
            ReadWriteSet::write(b"k".to_vec()),
            ReadWriteSet::read(b"k".to_vec()),
            ReadWriteSet::write(b"k".to_vec()),
        ];
        // op1 reads what op0 wrote; op2 overwrites what op1 read.
        assert_eq!(plan_waves(&sets), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn whole_state_op_runs_alone() {
        let sets = vec![
            ReadWriteSet::write(b"a".to_vec()),
            ReadWriteSet::whole_state(),
            ReadWriteSet::write(b"a".to_vec()),
            ReadWriteSet::write(b"b".to_vec()),
        ];
        assert_eq!(plan_waves(&sets), vec![vec![0], vec![1], vec![2, 3]]);
    }

    #[test]
    fn reads_pack_together_under_a_writer() {
        let sets = vec![
            ReadWriteSet::write(b"k".to_vec()),
            ReadWriteSet::read(b"k".to_vec()),
            ReadWriteSet::read(b"k".to_vec()),
            ReadWriteSet::read(b"x".to_vec()),
        ];
        assert_eq!(plan_waves(&sets), vec![vec![0, 3], vec![1, 2]]);
    }

    /// Overwrite planner: result = previous value, write = the new one.
    struct PutExecutor;

    impl OpExecutor for PutExecutor {
        fn rw_set(&self, op: &[u8]) -> ReadWriteSet {
            ReadWriteSet::write(vec![op[0]])
        }

        fn plan_op(&self, state: &AuthKv, op: &[u8]) -> PlannedOp {
            let key = vec![op[0]];
            let previous = state.get(&key).map(<[u8]>::to_vec).unwrap_or_default();
            PlannedOp {
                result: previous,
                writes: vec![WriteCmd::Put {
                    key_hash: *sha256(&key).as_bytes(),
                    key,
                    value: op.to_vec(),
                }],
                cost_ns: 7,
                aux: 1,
            }
        }
    }

    fn run_block(threads: usize, ops: &[RawOp]) -> (Vec<Vec<u8>>, sbft_types::Digest, u64, u64) {
        let executor: Arc<dyn OpExecutor> = Arc::new(PutExecutor);
        let pool = WavePool::new(threads);
        let mut state = AuthKv::new();
        state.insert(b"a", b"seed".to_vec());
        let out = execute_ops_parallel(&mut state, ops, &executor, &pool);
        (out.results, state.root(), out.cost_ns, out.aux)
    }

    #[test]
    fn wave_execution_matches_serial_for_every_thread_count() {
        // Repeated keys force multiple waves; 'a' starts seeded so the
        // first overwrite has a previous value to report.
        let ops: Vec<RawOp> = [b"a1", b"b1", b"c1", b"a2", b"d1", b"b2", b"a3", b"e1"]
            .iter()
            .map(|op| op.to_vec())
            .collect();
        let serial = run_block(1, &ops);
        for threads in [2, 4] {
            assert_eq!(run_block(threads, &ops), serial);
        }
        assert_eq!(serial.2, 7 * ops.len() as u64);
        assert_eq!(serial.3, ops.len() as u64);
        // Spot-check sequencing across waves: op "a2" sees op "a1"'s write.
        assert_eq!(serial.0[3], b"a1".to_vec());
        assert_eq!(serial.0[6], b"a2".to_vec());
    }

    #[test]
    fn pool_survives_a_panicking_plan() {
        struct Bomb;
        impl OpExecutor for Bomb {
            fn rw_set(&self, _op: &[u8]) -> ReadWriteSet {
                ReadWriteSet::empty()
            }
            fn plan_op(&self, _state: &AuthKv, op: &[u8]) -> PlannedOp {
                assert!(op[0] != b'!', "bomb op");
                PlannedOp::default()
            }
        }
        let executor: Arc<dyn OpExecutor> = Arc::new(Bomb);
        let pool = WavePool::new(2);
        let mut state = AuthKv::new();
        let boom = catch_unwind(AssertUnwindSafe(|| {
            execute_ops_parallel(
                &mut state,
                &[b"!".to_vec(), b"ok".to_vec()],
                &executor,
                &pool,
            )
        }));
        assert!(boom.is_err(), "panicking plan fails the block");
        // The pool is still serviceable for the next block.
        let out = execute_ops_parallel(
            &mut state,
            &[b"ok".to_vec(), b"fine".to_vec()],
            &executor,
            &pool,
        );
        assert_eq!(out.results.len(), 2);
    }
}
