//! The execution engine: how a replica runs committed blocks and keeps
//! what it must answer for them.
//!
//! The node thread submits committed blocks in sequence order. One
//! executor step runs each block on the replica's [`Service`] and queues
//! a completion; the node drains completions in submission order and
//! emits the block's effects (π share, replies, execute-acks). The step
//! runs in one of two places, and nothing else differs between them:
//!
//! - **in place** (the default: the simulator and `exec_threads 1`): on
//!   the node thread, inside [`ExecEngine::submit`], so the completion is
//!   drained in the same handler invocation;
//! - **on the `sbft-exec` thread** (after [`ExecEngine::offload`]): the
//!   service moves to a dedicated thread with an intra-block
//!   [`WavePool`], commands queue on a channel, and the thread wakes the
//!   node after each completion (the `ExecuteReady` self-message).
//!
//! The engine keeps one per-seq store. Each drained block's
//! [`BlockExecution`] (digest, results, results tree) stays until the
//! block's checkpoint is stable; the replica serves execute-ack proofs
//! from it. Each checkpoint candidate — a block at or past
//! `last_stable + checkpoint_period` — also keeps a snapshot of the state
//! right after it, so a checkpoint holds its own block's state even while
//! later blocks are in flight. A stable checkpoint drops the store up to
//! it and the snapshots that are no longer candidates. A state transfer
//! clears the store and starts a new epoch: completions from an older
//! epoch are dropped.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::thread::{Builder, JoinHandle};

use sbft_statedb::{AuthKv, BlockExecution, RawOp, Service, WavePool};
use sbft_types::{Digest, SeqNum};

/// Commands the node hands to the executor step.
enum ExecCmd {
    /// Execute the committed block at `seq`, under `epoch`; `snapshot`
    /// asks for the post-block state (a checkpoint candidate).
    Execute {
        epoch: u64,
        seq: SeqNum,
        ops: Vec<RawOp>,
        snapshot: bool,
    },
    /// Replace the service state wholesale (state transfer) and enter
    /// `epoch`.
    Install {
        epoch: u64,
        state: AuthKv,
        seq: SeqNum,
        digest: Digest,
    },
}

/// One executed block: what the store keeps per sequence number.
struct Executed {
    block: BlockExecution,
    /// The state right after the block, kept for checkpoint candidates.
    snapshot: Option<AuthKv>,
}

/// A completion, tagged with the epoch its block was submitted under.
type Completion = (u64, Executed);

/// The executor step's state: the service, the intra-block wave pool and
/// the epoch whose commands it honours.
struct Executor {
    service: Box<dyn Service>,
    waves: WavePool,
    epoch: u64,
    done: Sender<Completion>,
}

impl Executor {
    /// Runs one command; returns whether it queued a completion.
    fn step(&mut self, cmd: ExecCmd) -> bool {
        match cmd {
            ExecCmd::Execute {
                epoch,
                seq,
                ops,
                snapshot,
            } => {
                // Abandoned by a state transfer, or (defensively) out of
                // order.
                if epoch != self.epoch || seq != self.service.last_executed().next() {
                    return false;
                }
                let block = self.service.execute_block_parallel(seq, &ops, &self.waves);
                let snapshot = snapshot.then(|| self.service.snapshot());
                self.done
                    .send((epoch, Executed { block, snapshot }))
                    .is_ok()
            }
            ExecCmd::Install {
                epoch,
                state,
                seq,
                digest,
            } => {
                self.epoch = epoch;
                self.service.install(state, seq, digest);
                false
            }
        }
    }
}

/// Where the executor step runs.
enum Runner {
    /// On the caller's thread, during `submit` and `install`.
    InPlace(Executor),
    /// On the `sbft-exec` thread.
    Thread(ExecThread),
}

/// The `sbft-exec` thread and its command channel. Dropping it closes the
/// channel, which ends the thread's loop, and joins the thread.
#[derive(Default)]
struct ExecThread {
    cmds: Option<Sender<ExecCmd>>,
    handle: Option<JoinHandle<()>>,
}

impl ExecThread {
    /// Runs `executor`'s step on a new thread, with a `threads`-wide wave
    /// pool, calling `wake` after each completion.
    fn spawn(mut executor: Executor, threads: usize, wake: Box<dyn Fn() + Send>) -> Self {
        let (cmds, intake) = channel::<ExecCmd>();
        executor.waves = WavePool::new(threads);
        let handle = Builder::new()
            .name("sbft-exec".into())
            .spawn(move || {
                while let Ok(cmd) = intake.recv() {
                    if executor.step(cmd) {
                        wake();
                    }
                }
            })
            .expect("spawn execution thread");
        ExecThread {
            cmds: Some(cmds),
            handle: Some(handle),
        }
    }
}

impl Drop for ExecThread {
    fn drop(&mut self) {
        self.cmds.take();
        if let Some(handle) = self.handle.take() {
            // A panic there was already reported, and the node side
            // panicked on the closed completion queue.
            let _ = handle.join();
        }
    }
}

/// A replica's execution pipeline: one completion queue, one per-seq
/// store of executions and checkpoint snapshots, one epoch rule.
pub struct ExecEngine {
    runner: Runner,
    done: Receiver<Completion>,
    store: BTreeMap<u64, Executed>,
    /// Current epoch; completions tagged with an older one are dropped.
    epoch: u64,
    /// Next block to submit (runs ahead of the drained frontier while
    /// blocks are on the executor thread).
    next_submit: SeqNum,
    /// State digest after the last drained block.
    digest: Digest,
    /// Last stable checkpoint: blocks at or past `stable +
    /// checkpoint_period` are checkpoint candidates.
    stable: SeqNum,
    checkpoint_period: u64,
}

impl ExecEngine {
    /// Wraps `service`, executing in place until [`Self::offload`].
    pub fn new(service: Box<dyn Service>, checkpoint_period: u64) -> Self {
        let (done_tx, done) = channel();
        let next_submit = service.last_executed().next();
        let digest = service.state_digest();
        ExecEngine {
            runner: Runner::InPlace(Executor {
                service,
                waves: WavePool::new(1),
                epoch: 0,
                done: done_tx,
            }),
            done,
            store: BTreeMap::new(),
            epoch: 0,
            next_submit,
            digest,
            stable: SeqNum::ZERO,
            checkpoint_period,
        }
    }

    /// Moves the service onto the `sbft-exec` thread, which runs each
    /// block through a `threads`-wide [`WavePool`] and calls `wake` after
    /// every completion.
    ///
    /// # Panics
    ///
    /// Panics if execution is already offloaded.
    pub fn offload(&mut self, threads: usize, wake: Box<dyn Fn() + Send>) {
        let runner = std::mem::replace(&mut self.runner, Runner::Thread(ExecThread::default()));
        let Runner::InPlace(executor) = runner else {
            panic!("execution is already offloaded");
        };
        self.runner = Runner::Thread(ExecThread::spawn(executor, threads, wake));
    }

    fn dispatch(&mut self, cmd: ExecCmd) {
        match &mut self.runner {
            Runner::InPlace(executor) => {
                executor.step(cmd);
            }
            Runner::Thread(thread) => {
                let cmds = thread.cmds.as_ref().expect("execution thread running");
                cmds.send(cmd).expect("execution thread exited");
            }
        }
    }

    /// Next block to submit, in sequence order.
    pub fn next_submit(&self) -> SeqNum {
        self.next_submit
    }

    /// Hands the committed block at `seq` to the executor step.
    pub fn submit(&mut self, seq: SeqNum, ops: Vec<RawOp>) {
        debug_assert_eq!(seq, self.next_submit, "blocks submit in sequence order");
        self.next_submit = seq.next();
        let snapshot = self.is_candidate(seq);
        self.dispatch(ExecCmd::Execute {
            epoch: self.epoch,
            seq,
            ops,
            snapshot,
        });
    }

    fn is_candidate(&self, seq: SeqNum) -> bool {
        seq.get() >= self.stable.get() + self.checkpoint_period
    }

    /// Stores the next finished block, if any, and returns its sequence
    /// number. Completions arrive in submission order.
    ///
    /// # Panics
    ///
    /// Panics if the execution thread died.
    pub fn try_completion(&mut self) -> Option<SeqNum> {
        loop {
            let (epoch, mut executed) = match self.done.try_recv() {
                Ok(completion) => completion,
                Err(TryRecvError::Empty) => return None,
                Err(TryRecvError::Disconnected) => panic!("execution thread exited"),
            };
            if epoch != self.epoch {
                continue; // pre-install leftovers
            }
            let seq = executed.block.seq;
            if !self.is_candidate(seq) {
                executed.snapshot = None; // a checkpoint passed it meanwhile
            }
            self.digest = executed.block.state_digest;
            self.store.insert(seq.get(), executed);
            return Some(seq);
        }
    }

    /// The stored execution of block `seq`: present from its completion
    /// until its checkpoint is stable.
    pub fn execution(&self, seq: SeqNum) -> Option<&BlockExecution> {
        self.store.get(&seq.get()).map(|executed| &executed.block)
    }

    /// The state right after block `seq`, if `seq` is a checkpoint
    /// candidate that has completed.
    pub fn checkpoint_state(&self, seq: SeqNum) -> Option<AuthKv> {
        self.store.get(&seq.get())?.snapshot.clone()
    }

    /// The digest of the state after the last drained block.
    pub fn state_digest(&self) -> Digest {
        self.digest
    }

    /// Replaces the state wholesale (state transfer) with the checkpoint
    /// at `seq`: clears the store and enters a new epoch, so in-flight
    /// completions from the old prefix are dropped.
    pub fn install(&mut self, state: AuthKv, seq: SeqNum, digest: Digest) {
        self.epoch += 1;
        self.next_submit = seq.next();
        self.digest = digest;
        self.stable = seq;
        self.store.clear();
        self.dispatch(ExecCmd::Install {
            epoch: self.epoch,
            state,
            seq,
            digest,
        });
    }

    /// The checkpoint at `stable` is stable: drops the blocks up to it,
    /// and the snapshots of blocks that are no longer candidates.
    pub fn garbage_collect(&mut self, stable: SeqNum) {
        self.stable = stable;
        self.store = self.store.split_off(&(stable.get() + 1));
        let candidates = stable.get() + self.checkpoint_period;
        for (_, executed) in self.store.range_mut(..candidates) {
            executed.snapshot = None;
        }
    }

    /// The service, while it executes in place (tests, sim harnesses);
    /// `None` once it lives on the execution thread.
    pub fn service(&self) -> Option<&dyn Service> {
        match &self.runner {
            Runner::InPlace(executor) => Some(executor.service.as_ref()),
            Runner::Thread(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_statedb::{KvOp, KvService};
    use sbft_wire::Wire;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn put(key: &str, value: &str) -> RawOp {
        KvOp::Put {
            key: key.as_bytes().to_vec(),
            value: value.as_bytes().to_vec(),
        }
        .to_wire_bytes()
    }

    fn drain_blocking(engine: &mut ExecEngine) -> SeqNum {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(seq) = engine.try_completion() {
                return seq;
            }
            assert!(Instant::now() < deadline, "executor never completed");
            std::thread::yield_now();
        }
    }

    fn offloaded(threads: usize, checkpoint_period: u64) -> ExecEngine {
        let mut engine = ExecEngine::new(Box::new(KvService::new()), checkpoint_period);
        engine.offload(threads, Box::new(|| {}));
        engine
    }

    #[test]
    fn offloaded_engine_matches_inline_results() {
        let wakes = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&wakes);
        let mut offloaded = ExecEngine::new(Box::new(KvService::new()), 2);
        offloaded.offload(
            2,
            Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }),
        );
        let mut inline = ExecEngine::new(Box::new(KvService::new()), 2);
        assert!(offloaded.service().is_none() && inline.service().is_some());

        for (seq, ops) in [
            (1u64, vec![put("a", "1"), put("b", "2")]),
            (2, vec![put("a", "3"), put("c", "4")]),
            (3, vec![put("b", "5"), put("d", "6")]),
        ] {
            let seq = SeqNum::new(seq);
            assert_eq!(offloaded.next_submit(), seq);
            offloaded.submit(seq, ops.clone());
            inline.submit(seq, ops);
            assert_eq!(drain_blocking(&mut offloaded), seq);
            assert_eq!(
                inline.try_completion(),
                Some(seq),
                "in place is synchronous"
            );
            let (got, want) = (offloaded.execution(seq), inline.execution(seq));
            assert_eq!(got, want, "digests, results and results trees agree");
            assert_eq!(offloaded.state_digest(), inline.state_digest());
            assert_eq!(
                got.and_then(|e| e.proof(1)),
                want.and_then(|e| e.proof(1)),
                "both serve the same proofs"
            );
            let (got, want) = (
                offloaded.checkpoint_state(seq),
                inline.checkpoint_state(seq),
            );
            assert_eq!(got.is_some(), seq.get() >= 2, "candidates from seq 2 on");
            assert_eq!(
                got.map(|s| s.root()),
                want.map(|s| s.root()),
                "checkpoint snapshots agree"
            );
        }
        assert_eq!(wakes.load(Ordering::SeqCst), 3, "one wake per block");
    }

    #[test]
    fn checkpoint_state_is_its_own_blocks_state() {
        // Blocks 2 and 3 are both candidates and both complete before the
        // checkpoint at 2 is taken: the snapshot for 2 must not see 3.
        let mut engine = offloaded(1, 2);
        for s in 1..=3u64 {
            engine.submit(SeqNum::new(s), vec![put("k", &s.to_string())]);
        }
        for s in 1..=3u64 {
            assert_eq!(drain_blocking(&mut engine), SeqNum::new(s));
        }
        let two = engine.execution(SeqNum::new(2)).expect("stored").state_root;
        let state = engine.checkpoint_state(SeqNum::new(2)).expect("candidate");
        assert_eq!(state.root(), two);
        assert_eq!(state.get(b"k"), Some(&b"2"[..]));
        // The checkpoint at 2 passes 3: it is no longer a candidate.
        engine.garbage_collect(SeqNum::new(2));
        assert!(engine.execution(SeqNum::new(2)).is_none());
        assert!(engine.execution(SeqNum::new(3)).is_some());
        assert!(engine.checkpoint_state(SeqNum::new(3)).is_none());
    }

    #[test]
    fn install_drops_stale_completions() {
        let mut engine = offloaded(1, 128);
        engine.submit(SeqNum::new(1), vec![put("old", "x")]);

        // A state transfer lands before the completion is drained:
        // execute blocks 1..=5 on a donor so the snapshot is real.
        let mut donor = KvService::new();
        let mut last = None;
        for s in 1..=5u64 {
            last = Some(donor.execute_block(SeqNum::new(s), &[put("k", &s.to_string())]));
        }
        let digest = last.expect("executed").state_digest;
        engine.install(donor.snapshot(), SeqNum::new(5), digest);

        assert_eq!(engine.state_digest(), digest);
        assert_eq!(engine.next_submit(), SeqNum::new(6));
        // The pre-install completion (epoch 0) must be swallowed, and
        // post-install blocks execute on the transferred state.
        engine.submit(SeqNum::new(6), vec![put("k", "6")]);
        let seq = drain_blocking(&mut engine);
        assert_eq!(seq, SeqNum::new(6));
        let exec = engine.execution(seq).expect("stored");
        assert_eq!(exec.results[0], b"5".to_vec(), "sees transferred state");
        assert_eq!(engine.state_digest(), exec.state_digest);
        assert!(engine.execution(SeqNum::new(1)).is_none());
    }
}
