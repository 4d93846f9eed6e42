//! The inbound trust boundary of the TCP runtime: every frame from
//! another node is decoded and verified by the node's
//! [`sbft_sim::InboundVerifier`] before the node sees it.
//!
//! A [`VerifyPool`] with fewer than two workers spawns no threads: the
//! node thread screens each frame itself as it receives it. With two or
//! more, worker threads sit between the
//! [`crate::TcpTransport`]'s frame channel and the node's single-threaded
//! runtime. The sans-IO nodes are `!Send` by design, so the node thread
//! cannot be parallelized — but the expensive *stateless* per-message
//! work (frame decode, client-signature checks, share verification over
//! carried digests) can leave it. Workers drain raw `(from, payload)`
//! frames in small batches, decode them, hand the batch to the shared
//! verifier (which can amortize — e.g. one random-linear-combination
//! pairing check over every signature share in the batch), and release
//! the survivors to the node. Both widths count into the same
//! `sbft_verify_*` counters.
//!
//! Ordering: the protocol assumes per-peer FIFO delivery (TCP gives it,
//! and the discrete-event simulator models it), so the pool must not let
//! two frames from one peer overtake each other just because different
//! workers verified them. Each frame gets a per-peer **order token** at
//! intake (assigned under the same lock as the channel read, so tokens
//! match arrival order); after verification a worker parks its result in
//! the peer's reorder buffer and releases the contiguous prefix. No locks
//! are ever taken on the node itself.

use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use sbft_sim::{InboundVerifier, NodeId};
use sbft_telemetry::{Counter, Registry};

/// Frames one screening pass claims — the amortization unit for the
/// batched (random-linear-combination) share checks.
pub const VERIFY_BATCH: usize = 32;
/// Bound on a worker pool's verified-output queue.
pub const VERIFY_QUEUE: usize = 16_384;

/// How long a worker blocks on the intake channel before re-checking the
/// shutdown flag (bounds pool teardown latency).
const INTAKE_TICK: Duration = Duration::from_millis(50);

/// Counter snapshot for one pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyPoolStats {
    /// Frames pulled off the transport channel.
    pub frames_in: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Decoded messages rejected by verification.
    pub verify_rejects: u64,
    /// Messages that passed verification, bound for the node.
    pub released: u64,
    /// Screening batches processed (released / batches ≈ amortization).
    pub batches: u64,
}

/// Telemetry handles for the pool, registered into the node's shared
/// [`Registry`] so the introspection endpoint sees them; the
/// [`VerifyPoolStats`] API reads the same atomics.
struct Counters {
    frames_in: Counter,
    decode_errors: Counter,
    verify_rejects: Counter,
    released: Counter,
    batches: Counter,
}

impl Counters {
    fn register(registry: &Registry) -> Counters {
        Counters {
            frames_in: registry.counter("sbft_verify_frames_in"),
            decode_errors: registry.counter("sbft_verify_decode_errors"),
            verify_rejects: registry.counter("sbft_verify_rejects"),
            released: registry.counter("sbft_verify_released"),
            batches: registry.counter("sbft_verify_batches"),
        }
    }
}

/// A verifier panic, carried out of [`screen`] to be re-raised.
type Panic = Box<dyn Any + Send>;

/// Screens one batch of frames: decodes each, verifies the decoded ones
/// with one `verify_batch` call, and counts the outcome. `out[i]` holds
/// frame `i`'s message iff it decoded and passed.
///
/// The verification call is panic-guarded: a panicking verifier rejects
/// every decoded message of the batch — counted, so `frames_in ==
/// decode_errors + verify_rejects + released` stays exact — and the
/// panic is handed back for the caller to re-raise once its own
/// bookkeeping is settled.
fn screen<M: 'static>(
    verifier: &dyn InboundVerifier<M>,
    counters: &Counters,
    frames: &[(NodeId, Vec<u8>)],
) -> (Vec<Option<M>>, Option<Panic>) {
    counters.frames_in.add(frames.len() as u64);
    counters.batches.inc();
    let mut decoded_at: Vec<usize> = Vec::with_capacity(frames.len());
    let mut pairs: Vec<(NodeId, M)> = Vec::with_capacity(frames.len());
    for (i, (from, payload)) in frames.iter().enumerate() {
        match verifier.decode(payload) {
            Some(msg) => {
                decoded_at.push(i);
                pairs.push((*from, msg));
            }
            None => counters.decode_errors.inc(),
        }
    }
    let mut out: Vec<Option<M>> = (0..frames.len()).map(|_| None).collect();
    let verdicts = panic::catch_unwind(AssertUnwindSafe(|| {
        let verdicts = verifier.verify_batch(&pairs);
        // Hard contract: one verdict per decoded message. A short
        // vector would otherwise silently drop the tail with no counter
        // accounting for it.
        assert_eq!(
            verdicts.len(),
            pairs.len(),
            "InboundVerifier::verify_batch must return one verdict per message",
        );
        verdicts
    }));
    match verdicts {
        Ok(verdicts) => {
            for ((i, (_, msg)), ok) in decoded_at.into_iter().zip(pairs).zip(verdicts) {
                if ok {
                    counters.released.inc();
                    out[i] = Some(msg);
                } else {
                    counters.verify_rejects.inc();
                }
            }
            (out, None)
        }
        Err(panic) => {
            counters.verify_rejects.add(pairs.len() as u64);
            (out, Some(panic))
        }
    }
}

/// Intake side: the raw frame channel plus per-peer order counters.
/// One lock for both, so order tokens always match channel order.
struct Intake {
    rx: Receiver<(NodeId, Vec<u8>)>,
    next_token: HashMap<NodeId, u64>,
}

/// One peer's reorder buffer: results parked until their token is next.
struct PeerReorder<M> {
    next_release: u64,
    /// `token → Some(msg)` (verified) or `None` (dropped; the token still
    /// advances, or later frames would stall forever).
    parked: BTreeMap<u64, Option<M>>,
}

impl<M> Default for PeerReorder<M> {
    fn default() -> Self {
        PeerReorder {
            next_release: 0,
            parked: BTreeMap::new(),
        }
    }
}

struct Reorder<M> {
    peers: HashMap<NodeId, PeerReorder<M>>,
}

/// Where screening happens.
enum Stage<M> {
    /// No workers: the consuming thread screens each frame as it
    /// receives it.
    Inline {
        rx: Receiver<(NodeId, Vec<u8>)>,
        verifier: Arc<dyn InboundVerifier<M>>,
    },
    /// Worker threads screen frames and release them, per-peer FIFO,
    /// into `out_rx`.
    Workers {
        out_rx: Option<Receiver<(NodeId, M)>>,
        shutdown: Arc<AtomicBool>,
        workers: Vec<thread::JoinHandle<()>>,
    },
}

/// The verification stage between the transport and the node. Construct
/// with [`VerifyPool::start`], consume with [`VerifyPool::recv_timeout`]
/// / [`VerifyPool::try_recv`] from the node thread.
pub struct VerifyPool<M> {
    counters: Arc<Counters>,
    threads: usize,
    stage: Stage<M>,
}

impl<M: Send + 'static> VerifyPool<M> {
    /// Screens `inbound` (the receiver moved out of a transport with
    /// `TcpTransport::take_inbound`) through `verifier`. With `threads <
    /// 2` nothing is spawned and the receiving thread screens frames
    /// itself; otherwise `threads` workers do. `batch` caps how many
    /// ready frames a worker claims per pass — the amortization unit for
    /// batched verification. `queue` bounds the workers' verified-output
    /// channel (backpressure onto the workers, and from there onto the
    /// kernel's TCP buffers). Counters register into `registry` — pass
    /// the transport's, so one exposition covers the whole node.
    pub fn start(
        inbound: Receiver<(NodeId, Vec<u8>)>,
        verifier: Arc<dyn InboundVerifier<M>>,
        threads: usize,
        batch: usize,
        queue: usize,
        registry: &Registry,
    ) -> VerifyPool<M> {
        assert!(batch >= 1, "batch must be at least 1");
        let counters = Arc::new(Counters::register(registry));
        if threads < 2 {
            return VerifyPool {
                counters,
                threads: 0,
                stage: Stage::Inline {
                    rx: inbound,
                    verifier,
                },
            };
        }
        let (out_tx, out_rx) = mpsc::sync_channel(queue.max(1));
        let shutdown = Arc::new(AtomicBool::new(false));
        let intake = Arc::new(Mutex::new(Intake {
            rx: inbound,
            next_token: HashMap::new(),
        }));
        let reorder = Arc::new(Mutex::new(Reorder {
            peers: HashMap::new(),
        }));
        let workers = (0..threads)
            .map(|w| {
                let intake = Arc::clone(&intake);
                let reorder = Arc::clone(&reorder);
                let verifier = Arc::clone(&verifier);
                let shutdown = Arc::clone(&shutdown);
                let counters = Arc::clone(&counters);
                let out_tx = out_tx.clone();
                thread::Builder::new()
                    .name(format!("sbft-verify-{w}"))
                    .spawn(move || {
                        worker_loop(
                            &intake, &reorder, &*verifier, &shutdown, &counters, &out_tx, batch,
                        )
                    })
                    .expect("spawn verify worker")
            })
            .collect();
        VerifyPool {
            counters,
            threads,
            stage: Stage::Workers {
                out_rx: Some(out_rx),
                shutdown,
                workers,
            },
        }
    }
}

impl<M: 'static> VerifyPool<M> {
    /// Number of worker threads (0 when the node thread screens).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Receives the next verified message, waiting at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(NodeId, M)> {
        self.recv(Some((Instant::now(), timeout)))
    }

    /// Non-blocking receive of a verified message.
    pub fn try_recv(&self) -> Option<(NodeId, M)> {
        self.recv(None)
    }

    /// Receives within `wait = (start, timeout)` (`None`: only what is
    /// already queued).
    fn recv(&self, wait: Option<(Instant, Duration)>) -> Option<(NodeId, M)> {
        match &self.stage {
            Stage::Workers { out_rx, .. } => pull(out_rx.as_ref()?, wait),
            Stage::Inline { rx, verifier } => loop {
                let frame = pull(rx, wait)?;
                let (outcome, poisoned) =
                    screen(&**verifier, &self.counters, std::slice::from_ref(&frame));
                if let Some(panic) = poisoned {
                    panic::resume_unwind(panic);
                }
                if let Some(Some(msg)) = outcome.into_iter().next() {
                    return Some((frame.0, msg));
                }
            },
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> VerifyPoolStats {
        VerifyPoolStats {
            frames_in: self.counters.frames_in.get(),
            decode_errors: self.counters.decode_errors.get(),
            verify_rejects: self.counters.verify_rejects.get(),
            released: self.counters.released.get(),
            batches: self.counters.batches.get(),
        }
    }
}

impl<M> Drop for VerifyPool<M> {
    fn drop(&mut self) {
        let Stage::Workers {
            out_rx,
            shutdown,
            workers,
        } = &mut self.stage
        else {
            return;
        };
        shutdown.store(true, Ordering::Release);
        // Dropping the receiver first errors out any worker blocked on a
        // full output queue; the rest notice the flag within one tick.
        out_rx.take();
        for worker in workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Receives from `rx` within what is left of `timeout` since `start`
/// (`None`: only what is already queued).
fn pull<T>(rx: &Receiver<T>, wait: Option<(Instant, Duration)>) -> Option<T> {
    match wait {
        Some((start, timeout)) => rx
            .recv_timeout(timeout.saturating_sub(start.elapsed()))
            .ok(),
        None => rx.try_recv().ok(),
    }
}

fn worker_loop<M: Send + 'static>(
    intake: &Mutex<Intake>,
    reorder: &Mutex<Reorder<M>>,
    verifier: &dyn InboundVerifier<M>,
    shutdown: &AtomicBool,
    counters: &Counters,
    out_tx: &SyncSender<(NodeId, M)>,
    batch: usize,
) {
    while !shutdown.load(Ordering::Acquire) {
        // Intake: one blocking wait, then claim whatever else is already
        // queued (up to `batch`), assigning per-peer order tokens under
        // the same lock so tokens match arrival order.
        let (frames, tokens) = {
            let mut intake = match intake.lock() {
                Ok(guard) => guard,
                Err(_) => return, // a worker panicked; don't compound it
            };
            let first = match intake.rx.recv_timeout(INTAKE_TICK) {
                Ok(item) => item,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            let mut frames = vec![first];
            while frames.len() < batch {
                match intake.rx.try_recv() {
                    Ok(item) => frames.push(item),
                    Err(_) => break,
                }
            }
            let tokens: Vec<u64> = frames
                .iter()
                .map(|(peer, _)| {
                    let next = intake.next_token.entry(*peer).or_insert(0);
                    let token = *next;
                    *next += 1;
                    token
                })
                .collect();
            (frames, tokens)
        };

        // Decode and verify off the lock. A panicking verifier must not
        // kill this worker before it parks its tokens: dying without
        // them would silently stall every later frame from those peers
        // (the reorder buffer waits forever on the gap).
        let (outcomes, poisoned) = screen(verifier, counters, &frames);

        // Release: park every frame's outcome (dropped frames park `None`
        // so the token sequence stays dense), then flush each touched
        // peer's contiguous ready prefix, in token order, while holding
        // the reorder lock — that is the per-peer FIFO guarantee. The
        // send below can block on a full output queue while holding this
        // lock; that is deliberate backpressure (a stalled node pauses
        // the whole pool rather than buffering unboundedly), at the cost
        // of serializing workers while the node catches up.
        let mut reorder = match reorder.lock() {
            Ok(guard) => guard,
            Err(_) => return,
        };
        for (((from, _), token), outcome) in frames.iter().zip(tokens).zip(outcomes) {
            let peer = reorder.peers.entry(*from).or_default();
            peer.parked.insert(token, outcome);
            while let Some(msg) = peer.parked.remove(&peer.next_release) {
                peer.next_release += 1;
                if let Some(msg) = msg {
                    if out_tx.send((*from, msg)).is_err() {
                        return; // pool dropped; nobody is listening
                    }
                }
            }
        }
        if let Some(panic) = poisoned {
            // Tokens are parked and FIFO continuity is safe — now fail
            // loudly instead of running on with a compromised verifier.
            drop(reorder);
            panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbft_sim::SimRng;
    use std::sync::mpsc::sync_channel;

    /// Test message: `(peer_tag, seq, poison)` packed into the payload.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Seq {
        peer_tag: u64,
        seq: u64,
    }

    /// Decodes 17-byte frames; verification sleeps a payload-derived
    /// jitter (forcing workers to finish out of order) and rejects
    /// poisoned frames.
    struct JitterVerifier;

    impl InboundVerifier<Seq> for JitterVerifier {
        fn decode(&self, payload: &[u8]) -> Option<Seq> {
            if payload.len() != 17 {
                return None;
            }
            Some(Seq {
                peer_tag: u64::from_le_bytes(payload[0..8].try_into().unwrap()),
                seq: u64::from_le_bytes(payload[8..16].try_into().unwrap()),
            })
        }

        fn verify_batch(&self, batch: &[(NodeId, Seq)]) -> Vec<bool> {
            batch
                .iter()
                .map(|(_, msg)| {
                    // Data-dependent stall: enough to let later frames of
                    // the same peer finish first on another worker.
                    let jitter = (msg.peer_tag ^ msg.seq).wrapping_mul(0x9e37) % 23;
                    std::thread::sleep(Duration::from_micros(jitter * 10));
                    msg.seq % 16 != 7 // every 16th-ish frame is poisoned
                })
                .collect()
        }
    }

    fn frame(peer_tag: u64, seq: u64) -> Vec<u8> {
        let mut payload = Vec::with_capacity(17);
        payload.extend_from_slice(&peer_tag.to_le_bytes());
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.push(0xab);
        payload
    }

    /// The satellite stress test: 10k frames from several peers pushed
    /// through a 4-worker pool with data-dependent verification delays,
    /// in a seeded random interleaving. Per-peer FIFO must survive, every
    /// valid frame must come out exactly once, rejects must be counted.
    #[test]
    fn seeded_stress_preserves_per_peer_fifo() {
        const PEERS: usize = 5;
        const TOTAL: usize = 10_000;
        let mut rng = SimRng::new(0x51f0_57e5);
        let (tx, rx) = sync_channel(256);
        let pool: VerifyPool<Seq> =
            VerifyPool::start(rx, Arc::new(JitterVerifier), 4, 16, 128, &Registry::new());

        let feeder = std::thread::spawn(move || {
            let mut next_seq = [0u64; PEERS];
            let mut sent = vec![0u64; PEERS];
            for _ in 0..TOTAL {
                let peer = (rng.next_u64() as usize) % PEERS;
                let seq = next_seq[peer];
                next_seq[peer] += 1;
                tx.send((peer as NodeId, frame(peer as u64, seq)))
                    .expect("pool alive");
                sent[peer] += 1;
            }
            sent
        });

        let mut seen = vec![Vec::new(); PEERS];
        let mut received = 0usize;
        let expected_valid = |sent: u64| (0..sent).filter(|s| s % 16 != 7).count();
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            match pool.recv_timeout(Duration::from_millis(200)) {
                Some((from, msg)) => {
                    assert_eq!(from as u64, msg.peer_tag, "attribution preserved");
                    seen[from].push(msg.seq);
                    received += 1;
                }
                None => {
                    // A 200ms-quiet pool with the feeder done is drained
                    // (verification jitter is microseconds).
                    if feeder.is_finished() {
                        break;
                    }
                    assert!(
                        std::time::Instant::now() < deadline,
                        "stress run did not drain in time"
                    );
                }
            }
        }
        let sent = feeder.join().expect("feeder");

        for (peer, seqs) in seen.iter().enumerate() {
            // Strict FIFO: the released sequence per peer is exactly the
            // sent sequence minus the poisoned frames, in order.
            let expect: Vec<u64> = (0..sent[peer]).filter(|s| s % 16 != 7).collect();
            assert_eq!(seqs, &expect, "peer {peer} order violated");
        }
        let valid_total: usize = sent.iter().map(|s| expected_valid(*s)).sum();
        assert_eq!(received, valid_total);

        let stats = pool.stats();
        assert_eq!(stats.frames_in, TOTAL as u64, "every frame drained");
        assert_eq!(stats.released, valid_total as u64);
        assert_eq!(stats.verify_rejects, (TOTAL - valid_total) as u64);
        assert_eq!(stats.decode_errors, 0);
        assert!(
            stats.batches < stats.frames_in,
            "some amortization must have happened: {} batches for {} frames",
            stats.batches,
            stats.frames_in,
        );
    }

    /// At every width — the node thread screening (1) or workers (2).
    #[test]
    fn malformed_frames_are_counted_and_do_not_stall_the_stream() {
        for threads in [1, 2] {
            let (tx, rx) = sync_channel(64);
            let registry = Registry::new();
            let pool: VerifyPool<Seq> =
                VerifyPool::start(rx, Arc::new(JitterVerifier), threads, 4, 64, &registry);
            // Interleave garbage with valid frames from one peer: the
            // valid ones must still come out, in order, despite dropped
            // tokens.
            for seq in 0..20u64 {
                tx.send((3, frame(3, seq))).unwrap();
                tx.send((3, vec![0xff; 3])).unwrap(); // undecodable
            }
            let mut seqs = Vec::new();
            while seqs.len() < 19 {
                let (from, msg) = pool
                    .recv_timeout(Duration::from_secs(5))
                    .expect("valid frames released");
                assert_eq!(from, 3);
                seqs.push(msg.seq);
            }
            let expect: Vec<u64> = (0..20).filter(|s| s % 16 != 7).collect();
            assert_eq!(seqs, expect, "width {threads}");
            assert!(pool.try_recv().is_none());
            let stats = pool.stats();
            assert_eq!(stats.frames_in, 40);
            assert_eq!(stats.decode_errors, 20);
            assert_eq!(stats.verify_rejects, 1); // seq 7
            assert_eq!(stats.released, 19);
            assert_eq!(
                registry.counter("sbft_verify_decode_errors").get(),
                20,
                "the registry reads the same counters"
            );
        }
    }

    #[test]
    fn drop_shuts_workers_down() {
        let (tx, rx) = sync_channel::<(NodeId, Vec<u8>)>(4);
        let pool: VerifyPool<Seq> =
            VerifyPool::start(rx, Arc::new(JitterVerifier), 3, 4, 4, &Registry::new());
        tx.send((0, frame(0, 0))).unwrap();
        let _ = pool.recv_timeout(Duration::from_secs(5)).expect("released");
        drop(pool); // must join all workers without hanging
                    // The intake sender is still alive; sends just go nowhere.
        let _ = tx.send((0, frame(0, 1)));
    }
}
