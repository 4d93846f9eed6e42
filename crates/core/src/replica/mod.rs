//! The SBFT replica (§V).
//!
//! One state machine per replica, driven by the simulator. A replica can
//! simultaneously act as primary, C-collector and E-collector depending on
//! `(seq, view)` (§V-B); collector duties rotate per decision block to
//! spread load.
//!
//! Commit paths:
//!
//! - **fast** (§V-C): pre-prepare → sign-share (σ) → full-commit-proof;
//! - **linear-PBFT** (§V-E): sign-share (τ) → prepare → commit →
//!   full-commit-proof-slow, entered when the fast path times out or is
//!   disabled.
//!
//! Execution (§V-D): consecutive committed blocks execute against the
//! [`Service`]; π shares flow to E-collectors which certify the state and
//! (in single-ack mode) acknowledge each client with one message.
//!
//! The handlers live in one submodule per section of the paper; this
//! module holds the replica's state, the message dispatch and the timer
//! table.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use sbft_types::{ClientId, Digest, ReplicaId, SeqNum, ViewNum};

use sbft_crypto::{CryptoCostModel, Signature, SignatureShare};
use sbft_sim::{Context, InboundVerifier, Node, NodeId, SimDuration, SimTime, TimerId};
use sbft_statedb::{
    combine_state_digest, AuthKv, Block, Checkpoint, ChunkAssembler, Ledger, Service, Snapshot,
    StateChunk,
};
use sbft_telemetry::{Phase, PhaseTracer};
use sbft_wire::{ClientSignature, Wire};

use crate::config::ProtocolConfig;
use crate::exec::ExecEngine;
use crate::keys::{
    KeyMaterial, PublicKeys, ReplicaKeys, DOMAIN_HEARTBEAT, DOMAIN_PI, DOMAIN_SIGMA, DOMAIN_TAU,
};
use crate::liveness::{FailureDetector, FastPathHysteresis, TimeoutController};
use crate::messages::{
    block_digest, commit2_digest, heartbeat_digest, ClientRequest, CommitCert, FastEvidence,
    NewViewMsg, SbftMsg, SlowEvidence, VcEntry, ViewChangeMsg,
};
use crate::persist::{DurabilityImage, RecoveredState, ReplicaDurability};
use crate::verify::{SbftPreVerifier, ShareKind, ShareVerifyMap};
use crate::viewchange::{compute_plan, validate_view_change, NewViewPlan, SlotDecision};

mod checkpoint;
mod execution;
mod fast_path;
mod heartbeat;
mod linear_pbft;
mod state_transfer;
mod view_change;

/// The context every replica handler runs in.
type Ctx<'a> = Context<'a, SbftMsg>;

/// Timer token kinds (token = kind | payload << 8).
mod timer {
    pub const BATCH: u64 = 1;
    pub const FAST_TIMEOUT: u64 = 2;
    pub const STAGGER_FAST: u64 = 3;
    pub const STAGGER_PREPARE: u64 = 4;
    pub const STAGGER_SLOW: u64 = 5;
    pub const STAGGER_EXEC: u64 = 6;
    pub const WATCHDOG: u64 = 7;
    pub const VC_RETRY: u64 = 8;
    pub const RECOVERY: u64 = 9;
    pub const HEARTBEAT: u64 = 10;

    pub fn token(kind: u64, payload: u64) -> u64 {
        kind | (payload << 8)
    }
    pub fn split(token: u64) -> (u64, u64) {
        (token & 0xff, token >> 8)
    }
}

/// Whether a collector ranked `index` acts at once: the first does, a
/// later one arms its `kind` timer `index` staggers out and acts then.
fn acts_now(ctx: &mut Ctx<'_>, index: usize, stagger: SimDuration, kind: u64, seq: SeqNum) -> bool {
    if index > 0 {
        let delay = stagger.saturating_mul(index as u64);
        ctx.set_timer(delay, timer::token(kind, seq.get()));
    }
    index == 0
}

/// Fault-injection behaviours for tests and the view-change stress
/// experiment (E8). Honest replicas use [`Behavior::Honest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Behavior {
    /// Follow the protocol.
    #[default]
    Honest,
    /// As primary, send conflicting pre-prepares to two halves of the
    /// cluster (equivocation; must be detected without safety loss).
    EquivocatingPrimary,
    /// As primary, never propose (liveness failure; forces view change).
    MutePrimary,
    /// Send view-change messages with no evidence (stale information).
    StaleViewChange,
}

/// The replica's mode. Only the three transitions in `view_change`
/// assign it: entering a view change, parking a new-view plan behind
/// state transfer, and installing a view.
#[derive(Debug)]
enum Status {
    /// Ordering requests in `view`.
    Normal,
    /// Changing to `view` (§V-G). `awaiting_state` holds the new view's
    /// plan while this replica is behind the plan's stable checkpoint:
    /// the plan's state request is outstanding, and the plan is
    /// installed once that state lands. A later view change drops it.
    ViewChange { awaiting_state: Option<NewViewPlan> },
}

#[derive(Debug, Default)]
struct Slot {
    /// View of the currently accepted pre-prepare.
    view: Option<ViewNum>,
    /// When this replica first accepted a pre-prepare for the slot —
    /// the anchor for the adaptive timers' σ-gap and commit-latency
    /// samples (absent on slots filled by WAL replay or view change).
    first_seen: Option<SimTime>,
    requests: Option<Vec<ClientRequest>>,
    h: Option<Digest>,
    commit_share_sent: bool,
    // --- C-collector state ---
    sigma_shares: BTreeMap<u16, SignatureShare>,
    tau_shares: BTreeMap<u16, SignatureShare>,
    commit2_shares: BTreeMap<u16, SignatureShare>,
    fast_timer: Option<TimerId>,
    fast_proof_sent: bool,
    prepare_sent: bool,
    slow_proof_sent: bool,
    // --- replica commit state ---
    /// Highest prepare certificate accepted (view-change evidence `lm`).
    prepared: Option<(Signature, ViewNum)>,
    /// This replica's σ share on its accepted pre-prepare (evidence `fm`).
    my_sigma_share: Option<SignatureShare>,
    /// The certificate, and its view, that `ReplicaNode::commit`
    /// committed the slot on: set there and nowhere else, so the slot is
    /// committed exactly when this is `Some`.
    commit_cert: Option<(ViewNum, CommitCert)>,
    /// Certificates that arrived before their pre-prepare, unverified
    /// until the block is known, in arrival order and one per sender (a
    /// faulty sender cannot displace an honest collector's).
    parked_certs: Vec<(NodeId, ViewNum, CommitCert)>,
    // --- execution state ---
    exec_digest: Option<Digest>,
    // --- E-collector state ---
    pi_shares: BTreeMap<Digest, BTreeMap<u16, SignatureShare>>,
    exec_proof: Option<Signature>,
    exec_proof_sent: bool,
    acks_sent: bool,
    exec_timer_set: bool,
    // --- roles ---
    collectors: SlotCollectors,
}

impl Slot {
    fn committed(&self) -> bool {
        self.commit_cert.is_some()
    }
}

/// A slot's collector lists, each ranked once instead of on every
/// message: E-collectors depend on the sequence number alone,
/// C-collectors on the view as well.
#[derive(Debug, Default)]
struct SlotCollectors {
    e: Option<Arc<[ReplicaId]>>,
    c: Option<(ViewNum, Arc<[ReplicaId]>)>,
}

/// A client's latest executed request and its result: a retry of it is
/// answered with a [`SbftMsg::Reply`] however long ago it executed (the
/// client's ack may have been lost), and older timestamps are stale.
#[derive(Debug)]
struct LastReply {
    timestamp: u64,
    seq: SeqNum,
    result: Vec<u8>,
}

/// The SBFT replica node.
pub struct ReplicaNode {
    config: ProtocolConfig,
    id: ReplicaId,
    public: std::sync::Arc<PublicKeys>,
    my_keys: ReplicaKeys,
    /// Commit→execute→reply pipeline and the per-block store that serves
    /// execute-ack proofs and checkpoint state. Executes in place unless
    /// [`Self::offload_execution`] moved the service to its own thread.
    engine: ExecEngine,
    /// Slot-digest map shared with the verification pipeline: the node
    /// publishes each slot's block digest so workers can pre-verify σ/τ
    /// shares; combine sites skip the batch pairing when every share they
    /// hold was marked (see [`crate::verify::ShareVerifyMap`]).
    shares: Option<std::sync::Arc<ShareVerifyMap>>,
    /// The trust boundary every driver runs on messages from other nodes
    /// (see [`Node::inbound_verifier`]): client request signatures, π
    /// shares and proofs over carried digests, view-change evidence,
    /// state chunks, block fills and heartbeats are checked there, so
    /// handlers only charge the modeled cost. Checks that depend on
    /// replica state (block digests only the log knows) run here.
    verifier: Arc<SbftPreVerifier>,
    cost: CryptoCostModel,
    behavior: Behavior,

    view: ViewNum,
    status: Status,
    slots: BTreeMap<u64, Slot>,
    last_executed: SeqNum,
    last_stable: SeqNum,
    /// `(d_ls, π(d_ls))` — checkpoint proof for `last_stable`.
    stable_cert: Option<(Digest, Signature)>,
    /// `(state_root, results_root)` at the stable checkpoint, for state
    /// transfer certificates.
    stable_roots: Option<(Digest, Digest)>,
    ledger: Ledger,

    // Primary state.
    pending: VecDeque<ClientRequest>,
    next_proposal: SeqNum,
    batch_timer_set: bool,
    /// Size of the most recent block this primary proposed: the
    /// group-commit hysteresis signal. Small last block ⇒ light load ⇒
    /// propose instantly; a full recent block keeps pooling on so a
    /// cohort's stragglers ride one round instead of fragmenting.
    last_block_len: usize,
    /// Highest proposed timestamp per client (primary-side dedup).
    proposed_table: HashMap<u32, u64>,

    // Execution bookkeeping.
    /// Each client's latest executed request, kept to answer its retries.
    client_table: HashMap<u32, LastReply>,
    /// Requests this replica knows are outstanding (liveness watchdog).
    forwarded: HashMap<(u32, u64), ()>,

    // View change state.
    vc_messages: BTreeMap<u64, BTreeMap<u32, ViewChangeMsg>>,
    vc_attempts: u32,
    watchdog_mark: (SeqNum, ViewNum),
    watchdog_set: bool,

    /// Consecutive fast-path fallbacks observed (the §VIII adaptive
    /// switch: after a few, skip the fast wait and go straight to the
    /// linear path, probing the fast path again periodically).
    consecutive_fallbacks: u32,

    // Adaptive liveness.
    /// Jacobson/Karels estimators over observed σ-gap and commit latency;
    /// derives the fast-path timeout, collector stagger, and base
    /// view-change timeout (clamped by the floors in `liveness` and the
    /// static `ProtocolConfig` values as ceilings).
    timers: TimeoutController,
    /// Fast-path engage/release hysteresis on the σ-completion rate —
    /// the principled replacement for the raw fallback-streak probe.
    hysteresis: FastPathHysteresis,
    /// φ-accrual failure detector fed by heartbeats and ordinary
    /// protocol traffic; drives proactive view changes and collector
    /// stagger reordering.
    detector: FailureDetector,
    /// Consecutive heartbeat ticks on which the current primary looked
    /// suspect (two in a row before a proactive view change — one noisy
    /// φ spike is not evidence of a gray failure).
    primary_suspect_ticks: u32,
    /// Max φ (in milli-units) over peers at the last heartbeat tick,
    /// cached so transports can export it as a gauge without a clock.
    suspicion_gauge_milli: u64,

    // State transfer.
    assembler: ChunkAssembler,
    /// A state request is unanswered: later ones wait for it, except a
    /// new view's plan, which clears it (see `await_state`).
    state_request_outstanding: bool,

    // Durability & startup recovery.
    /// Durable backing store (commit WAL + checkpoint snapshots). `None`
    /// keeps the replica memory-only (the pre-durability behaviour).
    durability: Option<ReplicaDurability>,
    /// State recovered from durable media, applied in `on_start` (the
    /// install/replay needs a context to emit effects).
    pending_recovery: Option<RecoveredState>,
    /// The startup recovery handshake, from boot until f+1 peers confirm
    /// this replica is caught up: each peer's offered execution
    /// frontier.
    recovery: Option<BTreeMap<usize, u64>>,

    /// Optional per-request phase tracer (see [`Self::set_tracer`]):
    /// stamps each request's lifecycle so end-to-end latency decomposes
    /// into queue / verify / consensus / execute / reply components.
    tracer: Option<PhaseTracer>,
}

impl ReplicaNode {
    /// Creates a replica with the given keys and service backend.
    pub fn new(
        config: ProtocolConfig,
        id: ReplicaId,
        keys: &KeyMaterial,
        service: Box<dyn Service>,
        cost: CryptoCostModel,
    ) -> Self {
        let detector = heartbeat::failure_detector(config.n());
        let engine = ExecEngine::new(service, config.checkpoint_period);
        ReplicaNode {
            my_keys: keys.replicas[id.as_usize()].clone(),
            public: keys.public.clone(),
            config,
            id,
            engine,
            shares: None,
            verifier: Arc::new(SbftPreVerifier::new(keys.public.clone())),
            cost,
            behavior: Behavior::Honest,
            view: ViewNum::ZERO,
            status: Status::Normal,
            slots: BTreeMap::new(),
            last_executed: SeqNum::ZERO,
            last_stable: SeqNum::ZERO,
            stable_cert: None,
            stable_roots: None,
            ledger: Ledger::new(),
            pending: VecDeque::new(),
            next_proposal: SeqNum::new(1),
            batch_timer_set: false,
            last_block_len: 0,
            proposed_table: HashMap::new(),
            client_table: HashMap::new(),
            forwarded: HashMap::new(),
            vc_messages: BTreeMap::new(),
            vc_attempts: 0,
            watchdog_mark: (SeqNum::ZERO, ViewNum::ZERO),
            watchdog_set: false,
            consecutive_fallbacks: 0,
            timers: TimeoutController::new(),
            hysteresis: FastPathHysteresis::default(),
            detector,
            primary_suspect_ticks: 0,
            suspicion_gauge_milli: 0,
            assembler: ChunkAssembler::new(),
            state_request_outstanding: false,
            durability: None,
            pending_recovery: None,
            recovery: None,
            tracer: None,
        }
    }

    /// Sets a fault-injection behaviour (defaults to honest).
    pub fn set_behavior(&mut self, behavior: Behavior) {
        self.behavior = behavior;
    }

    /// Moves this replica's service onto its own execution thread, which
    /// runs each committed block through [`Service::execute_block`]. The
    /// block's effects (replies, π shares, acks) are emitted as
    /// completions drain, after `wake` has roused the node — deploy makes
    /// it inject [`SbftMsg::ExecuteReady`]. Call before handing the
    /// replica to a driver.
    pub fn offload_execution(&mut self, wake: Box<dyn Fn() + Send>) {
        self.engine.offload(wake);
    }

    /// Attaches a slot-digest map to this replica and its inbound
    /// verifier ([`crate::verify::SbftPreVerifier::with_shares`]):
    /// enables σ/τ share pre-verification wherever the verifier runs and
    /// the combine-time fast path here. Call before handing the replica
    /// to a driver.
    pub fn set_share_map(&mut self, shares: std::sync::Arc<ShareVerifyMap>) {
        self.verifier =
            Arc::new(SbftPreVerifier::new(self.public.clone()).with_shares(Arc::clone(&shares)));
        self.shares = Some(shares);
    }

    /// Attaches a phase tracer: every request this replica handles is
    /// stamped at received / pre-prepared / share-signed / committed /
    /// executed / replied, keyed by `(client, timestamp)`. Phases a
    /// replica never observes stay unstamped (partial spans). Defaults
    /// to none — stamping costs nothing unless attached.
    pub fn set_tracer(&mut self, tracer: PhaseTracer) {
        self.tracer = Some(tracer);
    }

    /// Attaches the durable backing store plus whatever it recovered at
    /// open time. Call before the node starts: the snapshot install and
    /// WAL replay are deferred to `on_start` (they need a context), and
    /// every commit/checkpoint from then on is logged through the store.
    pub fn set_durability(&mut self, durability: ReplicaDurability, recovered: RecoveredState) {
        self.durability = Some(durability);
        self.pending_recovery = Some(recovered);
    }

    /// Whether the startup recovery handshake is still in progress.
    pub fn recovery_active(&self) -> bool {
        self.recovery.is_some()
    }

    /// Captures the durable state image (WAL + snapshot bytes), if a
    /// store is attached — the simulator's "intact disk" across a
    /// restart.
    pub fn durability_image(&mut self) -> Option<DurabilityImage> {
        self.durability.as_mut().map(|d| d.image())
    }

    /// Mutates the durable bytes in place **without** running recovery —
    /// chaos fault injection (torn writes, bit flips) against a crashed
    /// replica's store. Damage surfaces at the next reboot. No-op when
    /// no store is attached.
    pub fn damage_durability(&mut self, mutate: impl FnOnce(&mut DurabilityImage)) {
        if let Some(dur) = &mut self.durability {
            let mut image = dur.image();
            mutate(&mut image);
            dur.overwrite_image(image);
        }
    }

    /// Stamps one lifecycle phase for a request (no-op without an
    /// attached tracer). Wall-clock runtimes enable
    /// `Context::real_elapsed_ns`, so stamps inside one handler
    /// invocation (commit → execute → reply) resolve to distinct times
    /// and the verify/execute phase components come out nonzero; in the
    /// simulator the offset is always 0 and stamps stay deterministic.
    fn trace_phase(&self, ctx: &Ctx<'_>, client: u32, timestamp: u64, phase: Phase) {
        if let Some(tracer) = &self.tracer {
            tracer.stamp(
                client,
                timestamp,
                phase,
                ctx.now().as_nanos() + ctx.real_elapsed_ns(),
            );
        }
    }

    /// Current view.
    pub fn view(&self) -> ViewNum {
        self.view
    }

    /// Whether a view change is in progress.
    pub fn in_view_change(&self) -> bool {
        self.active_view().is_none()
    }

    /// The view this replica is ordering requests in, or `None` while it
    /// changes views.
    fn active_view(&self) -> Option<ViewNum> {
        match self.status {
            Status::Normal => Some(self.view),
            Status::ViewChange { .. } => None,
        }
    }

    /// Last executed sequence number.
    pub fn last_executed(&self) -> SeqNum {
        self.last_executed
    }

    /// Last stable (checkpointed) sequence number.
    pub fn last_stable(&self) -> SeqNum {
        self.last_stable
    }

    /// The digest of the state after the last *drained* block (for
    /// cross-replica agreement checks in tests).
    pub fn state_digest(&self) -> Digest {
        self.engine.state_digest()
    }

    /// The stable checkpoint's integrity pair: the root of the state this
    /// replica stored for it, and the state root its certificate binds
    /// (`None` before the first checkpoint). The two differ only if the
    /// stored state is not the checkpoint block's.
    pub fn checkpoint_roots(&self) -> Option<(Digest, Digest)> {
        let stored = self.ledger.checkpoint()?.state.root();
        let (certified, _) = self.stable_roots?;
        Some((stored, certified))
    }

    /// Read-only access to the service. Panics when execution is
    /// offloaded — the service lives on the executor thread.
    pub fn service(&self) -> &dyn Service {
        self.engine
            .service()
            .expect("service is on the executor thread (execution offloaded)")
    }

    /// Current adaptive fast-path timeout (equals the static
    /// `ProtocolConfig::fast_path_timeout` until the estimator warms up).
    pub fn adaptive_fast_timeout(&self) -> SimDuration {
        self.timers.fast_path_timeout(&self.config)
    }

    /// Current adaptive collector stagger.
    pub fn adaptive_collector_stagger(&self) -> SimDuration {
        self.timers.collector_stagger(&self.config)
    }

    /// Current adaptive base view-change timeout (before backoff
    /// doubling).
    pub fn adaptive_view_timeout(&self) -> SimDuration {
        self.timers.view_timeout(&self.config)
    }

    /// Whether the fast-path hysteresis currently has the σ path engaged
    /// (disengaged replicas only probe it every `FAST_PROBE_PERIOD`-th
    /// sequence number).
    pub fn fast_path_engaged(&self) -> bool {
        self.hysteresis.engaged()
    }

    /// Max φ-accrual suspicion (milli-units) over all peers, as of the
    /// last heartbeat tick — a clock-free snapshot for telemetry gauges.
    pub fn max_suspicion_milli(&self) -> u64 {
        self.suspicion_gauge_milli
    }

    /// Last heartbeat round-trip time measured to `peer` (zero until the
    /// first echo arrives).
    pub fn peer_rtt(&self, peer: usize) -> SimDuration {
        self.detector.rtt(peer)
    }

    /// The committed block at `seq`, if retained.
    pub fn committed_block(&self, seq: SeqNum) -> Option<&Vec<ClientRequest>> {
        self.slots
            .get(&seq.get())
            .filter(|s| s.committed())
            .and_then(|s| s.requests.as_ref())
    }

    // ---------- role helpers ----------

    fn n(&self) -> usize {
        self.config.n()
    }

    fn is_primary(&self) -> bool {
        self.config.primary(self.view) == self.id
    }

    fn client_node(&self, client: ClientId) -> NodeId {
        self.n() + client.as_usize()
    }

    fn broadcast(&mut self, ctx: &mut Ctx<'_>, msg: &SbftMsg) {
        let now = ctx.now();
        for r in 0..self.n() {
            if r != self.id.as_usize() {
                // Real protocol traffic doubles as a heartbeat: record
                // the send so the next heartbeat tick suppresses the
                // redundant explicit beat to this peer.
                self.detector.note_sent(r, now);
            }
            ctx.send(r, msg.clone());
        }
    }

    fn send_to(&mut self, ctx: &mut Ctx<'_>, to: ReplicaId, msg: SbftMsg) {
        if to != self.id {
            self.detector.note_sent(to.as_usize(), ctx.now());
        }
        ctx.send(to.as_usize(), msg);
    }

    fn slot(&mut self, seq: SeqNum) -> &mut Slot {
        self.slots.entry(seq.get()).or_default()
    }

    /// The C-collectors of `(seq, view)`, memoized in the slot (ranked
    /// afresh, uncached, for a slot this replica does not hold).
    fn c_collectors(&mut self, seq: SeqNum, view: ViewNum) -> Arc<[ReplicaId]> {
        let Some(slot) = self.slots.get_mut(&seq.get()) else {
            return self.config.c_collectors(seq, view).into();
        };
        match &slot.collectors.c {
            Some((cached_view, list)) if *cached_view == view => list.clone(),
            _ => {
                let list: Arc<[ReplicaId]> = self.config.c_collectors(seq, view).into();
                slot.collectors.c = Some((view, list.clone()));
                list
            }
        }
    }

    /// The E-collectors of `seq`, memoized in the slot like
    /// [`Self::c_collectors`].
    fn e_collectors(&mut self, seq: SeqNum) -> Arc<[ReplicaId]> {
        let Some(slot) = self.slots.get_mut(&seq.get()) else {
            return self.config.e_collectors(seq, ViewNum::ZERO).into();
        };
        slot.collectors
            .e
            .get_or_insert_with(|| self.config.e_collectors(seq, ViewNum::ZERO).into())
            .clone()
    }

    fn my_c_collector_index(&mut self, seq: SeqNum, view: ViewNum) -> Option<usize> {
        self.c_collectors(seq, view)
            .iter()
            .position(|r| *r == self.id)
    }

    fn my_e_collector_index(&mut self, seq: SeqNum) -> Option<usize> {
        self.e_collectors(seq).iter().position(|r| *r == self.id)
    }
}

impl Node<SbftMsg> for ReplicaNode {
    sbft_sim::impl_node_any!();

    fn inbound_verifier(&self) -> Option<Arc<dyn InboundVerifier<SbftMsg>>> {
        Some(self.verifier.clone())
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.apply_recovery(ctx);
        if self.behavior == Behavior::MutePrimary && self.is_primary() {
            // Mute primaries do not even heartbeat: to the cluster they
            // are indistinguishable from a gray-failed leader, which is
            // exactly what the failure detector should see.
            return;
        }
        self.begin_recovery_handshake(ctx);
        self.arm_heartbeat(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: SbftMsg, ctx: &mut Ctx<'_>) {
        // Any authenticated-channel traffic from a peer replica counts as
        // evidence of life for the failure detector.
        if from < self.n() && from != self.id.as_usize() {
            self.detector.note_seen(from, ctx.now());
        }
        if self.behavior == Behavior::MutePrimary && self.is_primary() {
            // A mute primary still participates as a backup, but never
            // proposes; simplest faithful model: drop client requests.
            if matches!(msg, SbftMsg::Request(_)) {
                return;
            }
        }
        match msg {
            SbftMsg::Request(r) => self.handle_request(ctx, r),
            SbftMsg::PrePrepare {
                seq,
                view,
                requests,
            } => self.handle_pre_prepare(ctx, from, seq, view, requests),
            SbftMsg::SignShare {
                seq,
                view,
                sigma,
                tau,
            } => self.handle_sign_share(ctx, from, seq, view, sigma, tau),
            SbftMsg::FullCommitProof { seq, view, sigma } => {
                self.handle_full_commit_proof(ctx, from, seq, view, CommitCert::Fast(sigma))
            }
            SbftMsg::Prepare { seq, view, tau } => self.handle_prepare(ctx, seq, view, tau),
            SbftMsg::CommitShare { seq, view, share } => {
                self.handle_commit_share(ctx, from, seq, view, share)
            }
            SbftMsg::FullCommitProofSlow { seq, view, tau2 } => {
                self.handle_full_commit_proof(ctx, from, seq, view, CommitCert::Slow(tau2))
            }
            SbftMsg::SignState { seq, digest, share } => {
                self.handle_sign_state(ctx, from, seq, digest, share)
            }
            SbftMsg::FullExecuteProof { seq, digest, pi } => {
                self.handle_full_execute_proof(ctx, from, seq, digest, pi)
            }
            SbftMsg::ExecuteAck { .. } | SbftMsg::Reply { .. } => {
                // Client-bound messages; replicas ignore them.
            }
            SbftMsg::ViewChange(vc) => self.handle_view_change(ctx, vc),
            SbftMsg::NewView(nv) => self.handle_new_view(ctx, from, nv),
            SbftMsg::StateRequest { last_executed } => {
                self.handle_state_request(ctx, from, last_executed)
            }
            SbftMsg::StateChunkMsg {
                chunk,
                state_root,
                results_root,
                pi,
            } => self.handle_state_chunk(ctx, chunk, state_root, results_root, pi),
            SbftMsg::BlockFill {
                seq,
                view,
                requests,
                cert,
            } => self.handle_block_fill(ctx, seq, view, requests, cert),
            SbftMsg::ExecuteReady => {
                // The executor thread's wake-up, injected through our own
                // inbound path. Only meaningful (and only trusted) from
                // ourselves.
                if from == self.id.as_usize() {
                    self.drain_exec_completions(ctx);
                }
            }
            SbftMsg::RecoveryRequest { last_executed } => {
                self.handle_recovery_request(ctx, from, last_executed)
            }
            SbftMsg::RecoveryOffer { last_executed, .. } => {
                self.handle_recovery_offer(ctx, from, last_executed)
            }
            // Gateway → client admission rejections; nothing for a
            // replica to do with one.
            SbftMsg::Busy { .. } => {}
            SbftMsg::Heartbeat {
                from: claimed,
                sent_at_ns,
                share,
                ..
            } => self.handle_heartbeat(ctx, from, claimed, sent_at_ns, share),
            SbftMsg::HeartbeatEcho {
                from: claimed,
                origin_sent_at_ns,
                share,
                ..
            } => self.handle_heartbeat_echo(ctx, from, claimed, origin_sent_at_ns, share),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        let (kind, payload) = timer::split(token);
        let seq = SeqNum::new(payload);
        match kind {
            timer::BATCH => self.on_batch_timer(ctx),
            timer::FAST_TIMEOUT => self.on_fast_timeout(ctx, seq),
            // A collector's stagger slot came up: act if still in the view.
            timer::STAGGER_FAST | timer::STAGGER_PREPARE | timer::STAGGER_SLOW => {
                let Some(view) = self.active_view() else {
                    return;
                };
                match kind {
                    timer::STAGGER_FAST => self.emit_fast_proof(ctx, seq, view),
                    timer::STAGGER_PREPARE => self.emit_prepare(ctx, seq, view),
                    _ => self.emit_slow_proof(ctx, seq, view),
                }
            }
            timer::STAGGER_EXEC => self.on_exec_stagger(ctx, seq),
            timer::WATCHDOG => self.on_watchdog(ctx),
            timer::RECOVERY => self.on_recovery_timer(ctx),
            timer::VC_RETRY => self.on_view_change_retry(ctx, ViewNum::new(payload)),
            timer::HEARTBEAT => self.on_heartbeat_tick(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariantFlags;
    use sbft_statedb::KvService;

    /// The per-slot collector memo holds exactly what `ProtocolConfig`
    /// ranks, for every slot and view, at paper scale too.
    #[test]
    fn memoized_collectors_match_config() {
        for (f, c) in [(1, 0), (1, 1), (2, 2), (64, 0)] {
            let config = ProtocolConfig::new(f, c, VariantFlags::SBFT);
            let keys = KeyMaterial::generate(&config, 7);
            let mut node = ReplicaNode::new(
                config.clone(),
                ReplicaId::new(0),
                &keys,
                Box::new(KvService::new()),
                CryptoCostModel::free(),
            );
            for s in 1..=512 {
                let seq = SeqNum::new(s);
                node.slot(seq);
                let want_e = config.e_collectors(seq, ViewNum::ZERO);
                for v in 0..=8 {
                    let view = ViewNum::new(v);
                    let want_c = config.c_collectors(seq, view);
                    // The first call ranks and caches, the second reads
                    // the cache.
                    for _ in 0..2 {
                        assert_eq!(*node.c_collectors(seq, view), *want_c, "f={f} c={c}");
                        assert_eq!(*node.e_collectors(seq), *want_e, "f={f} c={c}");
                    }
                    let cached = &node.slots[&s].collectors;
                    assert_eq!(
                        cached.c.as_ref().map(|(v, list)| (*v, &**list)),
                        Some((view, &*want_c))
                    );
                    assert_eq!(cached.e.as_deref(), Some(&*want_e));
                }
            }
        }
    }
}
