//! The PBFT baseline replica: pre-prepare, all-to-all prepare, all-to-all
//! commit, direct replies, quadratic checkpointing, and the classic view
//! change — the protocol SBFT is measured against (§IX).

use std::collections::{BTreeMap, HashMap, VecDeque};

use sbft_types::{ClientId, Digest, ReplicaId, SeqNum, ViewNum};

use sbft_crypto::{CryptoCostModel, KeyPair};
use sbft_sim::{Context, Node, NodeId};
use sbft_statedb::Service;
use sbft_wire::ClientSignature;

use crate::keys::PbftKeys;
use crate::messages::{
    pbft_block_digest, vote_payload, PbftMsg, PbftRequest, PbftViewChange, PreparedProof,
};

const TIMER_BATCH: u64 = 1;
const TIMER_WATCHDOG: u64 = 2;
const TIMER_VC_RETRY: u64 = 3;

/// Execution-stage parallelism, as in the SBFT replica: only
/// `1/EXECUTION_PARALLELISM` of a block's execution cost lands on the
/// message-processing core.
const EXECUTION_PARALLELISM: u64 = 16;

/// PBFT cluster parameters: `n = 3f + 1`.
#[derive(Debug, Clone)]
pub struct PbftConfig {
    /// Fault threshold.
    pub f: usize,
    /// Log window.
    pub window: u64,
    /// Max blocks in flight.
    pub max_in_flight: usize,
    /// Max requests per block.
    pub max_block_requests: usize,
    /// Batch timer.
    pub batch_delay: sbft_sim::SimDuration,
    /// Checkpoint period.
    pub checkpoint_period: u64,
    /// View-change timeout base.
    pub view_timeout: sbft_sim::SimDuration,
}

impl PbftConfig {
    /// Creates a configuration with WAN defaults.
    pub fn new(f: usize) -> Self {
        PbftConfig {
            f,
            window: 256,
            max_in_flight: 16,
            max_block_requests: 64,
            batch_delay: sbft_sim::SimDuration::from_millis(5),
            checkpoint_period: 128,
            view_timeout: sbft_sim::SimDuration::from_secs(2),
        }
    }

    /// Total replicas `n = 3f + 1`.
    pub fn n(&self) -> usize {
        3 * self.f + 1
    }

    /// Prepare quorum (`2f`, besides the pre-prepare).
    pub fn prepare_quorum(&self) -> usize {
        2 * self.f
    }

    /// Commit quorum (`2f + 1`).
    pub fn commit_quorum(&self) -> usize {
        2 * self.f + 1
    }

    /// Round-robin primary.
    pub fn primary(&self, view: ViewNum) -> ReplicaId {
        view.primary(self.n())
    }
}

/// A client's latest executed request and its result: a retry of it is
/// answered with a [`PbftMsg::Reply`] however long ago it executed, and
/// older timestamps are stale.
#[derive(Debug)]
struct LastReply {
    timestamp: u64,
    seq: SeqNum,
    result: Vec<u8>,
}

#[derive(Debug, Default)]
struct Slot {
    view: Option<ViewNum>,
    requests: Option<Vec<PbftRequest>>,
    h: Option<Digest>,
    prepares: BTreeMap<u32, ClientSignature>,
    commits: BTreeMap<u32, ClientSignature>,
    prepare_sent: bool,
    commit_sent: bool,
    prepared: bool,
    committed: bool,
}

/// The PBFT replica node.
pub struct PbftReplica {
    config: PbftConfig,
    id: ReplicaId,
    keys: PbftKeys,
    my_key: KeyPair,
    service: Box<dyn Service>,
    cost: CryptoCostModel,

    view: ViewNum,
    in_view_change: bool,
    slots: BTreeMap<u64, Slot>,
    last_executed: SeqNum,
    last_stable: SeqNum,

    pending: VecDeque<PbftRequest>,
    next_proposal: SeqNum,
    batch_timer_set: bool,
    proposed_table: HashMap<u32, u64>,
    /// Each client's latest executed request, kept to answer its retries.
    client_table: HashMap<u32, LastReply>,
    forwarded: HashMap<(u32, u64), ()>,

    checkpoint_votes: BTreeMap<u64, BTreeMap<u32, Digest>>,
    vc_messages: BTreeMap<u64, BTreeMap<u32, PbftViewChange>>,
    vc_attempts: u32,
    watchdog_mark: (SeqNum, ViewNum),
    watchdog_set: bool,
}

impl PbftReplica {
    /// Creates a replica.
    pub fn new(
        config: PbftConfig,
        id: ReplicaId,
        keys: PbftKeys,
        service: Box<dyn Service>,
        cost: CryptoCostModel,
    ) -> Self {
        PbftReplica {
            my_key: keys.replica_keys(id),
            config,
            id,
            keys,
            service,
            cost,
            view: ViewNum::ZERO,
            in_view_change: false,
            slots: BTreeMap::new(),
            last_executed: SeqNum::ZERO,
            last_stable: SeqNum::ZERO,
            pending: VecDeque::new(),
            next_proposal: SeqNum::new(1),
            batch_timer_set: false,
            proposed_table: HashMap::new(),
            client_table: HashMap::new(),
            forwarded: HashMap::new(),
            checkpoint_votes: BTreeMap::new(),
            vc_messages: BTreeMap::new(),
            vc_attempts: 0,
            watchdog_mark: (SeqNum::ZERO, ViewNum::ZERO),
            watchdog_set: false,
        }
    }

    /// Current view.
    pub fn view(&self) -> ViewNum {
        self.view
    }

    /// Last executed sequence.
    pub fn last_executed(&self) -> SeqNum {
        self.last_executed
    }

    /// Last stable checkpoint.
    pub fn last_stable(&self) -> SeqNum {
        self.last_stable
    }

    /// The service's state digest.
    pub fn state_digest(&self) -> Digest {
        self.service.state_digest()
    }

    /// The committed block at `seq`, if retained.
    pub fn committed_block(&self, seq: SeqNum) -> Option<&Vec<PbftRequest>> {
        self.slots
            .get(&seq.get())
            .filter(|s| s.committed)
            .and_then(|s| s.requests.as_ref())
    }

    fn n(&self) -> usize {
        self.config.n()
    }

    fn is_primary(&self) -> bool {
        self.config.primary(self.view) == self.id
    }

    fn client_node(&self, client: ClientId) -> NodeId {
        self.n() + client.as_usize()
    }

    fn broadcast(&self, ctx: &mut Context<'_, PbftMsg>, msg: &PbftMsg) {
        for r in 0..self.n() {
            ctx.send(r, msg.clone());
        }
    }

    fn slot(&mut self, seq: SeqNum) -> &mut Slot {
        self.slots.entry(seq.get()).or_default()
    }

    // ---------- liveness watchdog ----------

    fn has_outstanding_work(&self) -> bool {
        !self.forwarded.is_empty()
            || !self.pending.is_empty()
            || self
                .slots
                .values()
                .any(|s| s.requests.is_some() && !s.committed)
    }

    fn arm_watchdog(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if self.watchdog_set {
            return;
        }
        self.watchdog_set = true;
        self.watchdog_mark = (self.last_executed, self.view);
        let backoff = self
            .config
            .view_timeout
            .saturating_mul(1u64 << self.vc_attempts.min(6));
        ctx.set_timer(backoff, TIMER_WATCHDOG);
    }

    // ---------- requests & proposals ----------

    fn handle_request(&mut self, ctx: &mut Context<'_, PbftMsg>, request: PbftRequest) {
        ctx.charge_cpu_ns(self.cost.verify_request());
        if !request.verify(&self.keys.client_keys(request.client)) {
            return;
        }
        let key = (request.client.get(), request.timestamp);
        if let Some(last) = self.client_table.get(&key.0) {
            // Already executed: answer directly (client retry path).
            if request.timestamp == last.timestamp {
                let reply = self.make_reply(last.seq, &request, last.result.clone());
                ctx.send(self.client_node(request.client), reply);
                return;
            }
            if request.timestamp < last.timestamp {
                return;
            }
        }
        if self.is_primary() && !self.in_view_change {
            let proposed = self
                .proposed_table
                .get(&request.client.get())
                .copied()
                .unwrap_or(0);
            if request.timestamp > proposed {
                self.proposed_table
                    .insert(request.client.get(), request.timestamp);
                self.pending.push_back(request);
                self.maybe_propose(ctx);
            }
        } else {
            self.forwarded.insert(key, ());
            ctx.send(
                self.config.primary(self.view).as_usize(),
                PbftMsg::Request(request),
            );
        }
        self.arm_watchdog(ctx);
    }

    fn in_flight(&self) -> usize {
        self.slots
            .values()
            .filter(|s| s.requests.is_some() && !s.committed)
            .count()
    }

    fn maybe_propose(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        if !self.is_primary() || self.in_view_change {
            return;
        }
        while !self.pending.is_empty()
            && self.in_flight() < self.config.max_in_flight
            && self.next_proposal.get() <= self.last_stable.get() + self.config.window
        {
            let half_window = (self.config.max_in_flight / 2).max(1);
            let target =
                (self.pending.len() / half_window).clamp(1, self.config.max_block_requests);
            if self.pending.len() < target && self.in_flight() > 0 {
                if !self.batch_timer_set {
                    self.batch_timer_set = true;
                    ctx.set_timer(self.config.batch_delay, TIMER_BATCH);
                }
                return;
            }
            let take = self.pending.len().min(self.config.max_block_requests);
            let requests: Vec<PbftRequest> = self.pending.drain(..take).collect();
            let seq = self.next_proposal;
            self.next_proposal = self.next_proposal.next();
            self.broadcast(
                ctx,
                &PbftMsg::PrePrepare {
                    seq,
                    view: self.view,
                    requests,
                },
            );
        }
    }

    // ---------- the three phases ----------

    fn handle_pre_prepare(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        from: NodeId,
        seq: SeqNum,
        view: ViewNum,
        requests: Vec<PbftRequest>,
    ) {
        if view != self.view || self.in_view_change {
            return;
        }
        if from != self.config.primary(view).as_usize() {
            return;
        }
        if seq.get() <= self.last_stable.get()
            || seq.get() > self.last_stable.get() + self.config.window
        {
            return;
        }
        let h = pbft_block_digest(seq, view, &requests);
        {
            let slot = self.slot(seq);
            if slot.committed || (slot.view == Some(view) && slot.h == Some(h)) {
                return;
            }
            if slot.view == Some(view) && slot.h.is_some() {
                // Conflicting pre-prepare: faulty primary.
                self.start_view_change(ctx, view.next());
                return;
            }
        }
        ctx.charge_cpu_ns(self.cost.verify_request() * requests.len() as u64);
        for r in &requests {
            if !r.verify(&self.keys.client_keys(r.client)) {
                return;
            }
        }
        {
            let slot = self.slot(seq);
            slot.view = Some(view);
            slot.requests = Some(requests);
            slot.h = Some(h);
        }
        self.send_prepare(ctx, seq, view, h);
        self.check_prepared(ctx, seq);
        self.arm_watchdog(ctx);
    }

    fn send_prepare(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        seq: SeqNum,
        view: ViewNum,
        h: Digest,
    ) {
        let slot = self.slot(seq);
        if slot.prepare_sent {
            return;
        }
        slot.prepare_sent = true;
        ctx.charge_cpu_ns(self.cost.sign_request());
        let payload = vote_payload(b"prep", seq, view, &h, self.id);
        let signature = ClientSignature(self.my_key.sign(payload.as_bytes()));
        let msg = PbftMsg::Prepare {
            seq,
            view,
            h,
            replica: self.id,
            signature,
        };
        self.broadcast(ctx, &msg);
    }

    fn handle_prepare(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        seq: SeqNum,
        view: ViewNum,
        h: Digest,
        replica: ReplicaId,
        signature: ClientSignature,
    ) {
        if view != self.view || self.in_view_change || replica == self.id {
            return;
        }
        ctx.charge_cpu_ns(self.cost.verify_request());
        let payload = vote_payload(b"prep", seq, view, &h, replica);
        if !self
            .keys
            .replica_keys(replica)
            .verify(payload.as_bytes(), &signature.0)
        {
            return;
        }
        {
            let slot = self.slot(seq);
            if slot.h.is_some() && slot.h != Some(h) {
                return;
            }
            slot.prepares.insert(replica.get(), signature);
        }
        self.check_prepared(ctx, seq);
    }

    fn check_prepared(&mut self, ctx: &mut Context<'_, PbftMsg>, seq: SeqNum) {
        let quorum = self.config.prepare_quorum();
        let view = self.view;
        let (ready, h) = {
            let slot = self.slot(seq);
            let ready = !slot.prepared
                && slot.h.is_some()
                && slot.requests.is_some()
                && slot.prepares.len() >= quorum;
            (ready, slot.h)
        };
        if !ready {
            return;
        }
        let h = h.expect("checked");
        {
            let slot = self.slot(seq);
            slot.prepared = true;
            if slot.commit_sent {
                return;
            }
            slot.commit_sent = true;
        }
        ctx.charge_cpu_ns(self.cost.sign_request());
        let payload = vote_payload(b"comm", seq, view, &h, self.id);
        let signature = ClientSignature(self.my_key.sign(payload.as_bytes()));
        let msg = PbftMsg::Commit {
            seq,
            view,
            h,
            replica: self.id,
            signature,
        };
        self.broadcast(ctx, &msg);
        self.check_committed(ctx, seq);
    }

    fn handle_commit(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        seq: SeqNum,
        view: ViewNum,
        h: Digest,
        replica: ReplicaId,
        signature: ClientSignature,
    ) {
        if view != self.view || self.in_view_change {
            return;
        }
        ctx.charge_cpu_ns(self.cost.verify_request());
        let payload = vote_payload(b"comm", seq, view, &h, replica);
        if !self
            .keys
            .replica_keys(replica)
            .verify(payload.as_bytes(), &signature.0)
        {
            return;
        }
        {
            let slot = self.slot(seq);
            if slot.h.is_some() && slot.h != Some(h) {
                return;
            }
            slot.commits.insert(replica.get(), signature);
        }
        self.check_committed(ctx, seq);
    }

    fn check_committed(&mut self, ctx: &mut Context<'_, PbftMsg>, seq: SeqNum) {
        let quorum = self.config.commit_quorum();
        let commit_now = {
            let slot = self.slot(seq);
            !slot.committed
                && slot.prepared
                && slot.requests.is_some()
                && slot.commits.len() + usize::from(slot.commit_sent) >= quorum
        };
        if !commit_now {
            return;
        }
        self.slot(seq).committed = true;
        ctx.incr("committed_blocks", 1);
        self.try_execute(ctx);
        if self.is_primary() {
            self.maybe_propose(ctx);
        }
    }

    // ---------- execution, replies, checkpoints ----------

    fn try_execute(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        loop {
            let next = self.last_executed.next();
            let Some(slot) = self.slots.get(&next.get()) else {
                return;
            };
            if !slot.committed {
                return;
            }
            let requests = slot.requests.clone().expect("committed slot has requests");
            let ops: Vec<Vec<u8>> = requests.iter().map(|r| r.op.clone()).collect();
            let exec = self.service.execute_block(next, &ops);
            ctx.charge_cpu_ns(exec.cpu_cost_ns / EXECUTION_PARALLELISM);
            self.last_executed = next;
            self.vc_attempts = 0;
            for (l, request) in requests.iter().enumerate() {
                let key = (request.client.get(), request.timestamp);
                self.forwarded.remove(&key);
                if self
                    .client_table
                    .get(&key.0)
                    .is_none_or(|last| key.1 > last.timestamp)
                {
                    let last = LastReply {
                        timestamp: key.1,
                        seq: next,
                        result: exec.results[l].clone(),
                    };
                    self.client_table.insert(key.0, last);
                }
                let reply = self.make_reply(next, request, exec.results[l].clone());
                ctx.send(self.client_node(request.client), reply);
            }
            // Quadratic checkpoint protocol: broadcast a signed digest.
            if next.get() % self.config.checkpoint_period == 0 {
                ctx.charge_cpu_ns(self.cost.sign_request());
                let payload =
                    vote_payload(b"ckpt", next, ViewNum::ZERO, &exec.state_digest, self.id);
                let msg = PbftMsg::Checkpoint {
                    seq: next,
                    digest: exec.state_digest,
                    replica: self.id,
                    signature: ClientSignature(self.my_key.sign(payload.as_bytes())),
                };
                self.broadcast(ctx, &msg);
            }
        }
    }

    fn make_reply(&self, seq: SeqNum, request: &PbftRequest, result: Vec<u8>) -> PbftMsg {
        PbftMsg::Reply {
            seq,
            replica: self.id,
            client: request.client,
            timestamp: request.timestamp,
            result,
            signature: request.signature,
        }
    }

    fn handle_checkpoint(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        seq: SeqNum,
        digest: Digest,
        replica: ReplicaId,
        signature: ClientSignature,
    ) {
        if seq <= self.last_stable {
            return;
        }
        ctx.charge_cpu_ns(self.cost.verify_request());
        let payload = vote_payload(b"ckpt", seq, ViewNum::ZERO, &digest, replica);
        if !self
            .keys
            .replica_keys(replica)
            .verify(payload.as_bytes(), &signature.0)
        {
            return;
        }
        let votes = self.checkpoint_votes.entry(seq.get()).or_default();
        votes.insert(replica.get(), digest);
        let matching = votes.values().filter(|d| **d == digest).count();
        if matching >= self.config.commit_quorum() && self.last_executed >= seq {
            self.last_stable = seq;
            self.slots = self.slots.split_off(&(seq.get() + 1));
            self.checkpoint_votes = self.checkpoint_votes.split_off(&(seq.get() + 1));
            ctx.incr("checkpoints", 1);
        }
    }

    // ---------- view change ----------

    fn start_view_change(&mut self, ctx: &mut Context<'_, PbftMsg>, target: ViewNum) {
        if target <= self.view && self.in_view_change {
            return;
        }
        ctx.incr("view_changes_started", 1);
        self.in_view_change = true;
        self.view = target;
        self.vc_attempts = self.vc_attempts.saturating_add(1);
        self.pending.clear();
        self.proposed_table.clear();
        let prepared: Vec<PreparedProof> = self
            .slots
            .iter()
            .filter(|(seq, slot)| {
                **seq > self.last_stable.get() && slot.prepared && slot.requests.is_some()
            })
            .map(|(seq, slot)| PreparedProof {
                seq: SeqNum::new(*seq),
                view: slot.view.expect("prepared slot has view"),
                requests: slot.requests.clone().expect("checked"),
                votes: slot
                    .prepares
                    .iter()
                    .map(|(r, s)| (ReplicaId::new(*r), *s))
                    .collect(),
            })
            .collect();
        let vc = PbftViewChange {
            from: self.id,
            new_view: target,
            last_stable: self.last_stable,
            prepared,
        };
        self.broadcast(ctx, &PbftMsg::ViewChange(vc));
        let backoff = self
            .config
            .view_timeout
            .saturating_mul(1u64 << self.vc_attempts.min(6));
        ctx.set_timer(backoff, TIMER_VC_RETRY | (target.get() << 8));
    }

    fn handle_view_change(&mut self, ctx: &mut Context<'_, PbftMsg>, vc: PbftViewChange) {
        if vc.new_view <= self.view && !(self.in_view_change && vc.new_view == self.view) {
            return;
        }
        ctx.charge_cpu_ns(self.cost.verify_request() * (1 + vc.prepared.len() as u64));
        // Verify prepared proofs: 2f valid prepare votes per entry.
        for proof in &vc.prepared {
            let h = pbft_block_digest(proof.seq, proof.view, &proof.requests);
            let valid = proof
                .votes
                .iter()
                .filter(|(r, s)| {
                    let payload = vote_payload(b"prep", proof.seq, proof.view, &h, *r);
                    self.keys.replica_keys(*r).verify(payload.as_bytes(), &s.0)
                })
                .count();
            if valid < self.config.prepare_quorum() {
                return;
            }
        }
        let target = vc.new_view;
        self.vc_messages
            .entry(target.get())
            .or_default()
            .insert(vc.from.get(), vc);
        let count = self.vc_messages[&target.get()].len();
        if target > self.view && !self.in_view_change && count >= self.config.f + 1 {
            self.start_view_change(ctx, target);
        }
        self.try_form_new_view(ctx, target);
    }

    fn try_form_new_view(&mut self, ctx: &mut Context<'_, PbftMsg>, target: ViewNum) {
        if self.config.primary(target) != self.id {
            return;
        }
        if target < self.view || (target == self.view && !self.in_view_change) {
            return;
        }
        let Some(msgs) = self.vc_messages.get(&target.get()) else {
            return;
        };
        if msgs.len() < self.config.commit_quorum() {
            return;
        }
        let vcs: Vec<PbftViewChange> = msgs.values().cloned().collect();
        let pre_prepares = Self::select_new_view_blocks(&vcs);
        let msg = PbftMsg::NewView {
            view: target,
            view_changes: vcs,
            pre_prepares: pre_prepares.clone(),
        };
        self.broadcast(ctx, &msg);
        self.install_new_view(ctx, target, pre_prepares);
    }

    /// For each slot with a prepared proof, adopt the proof from the
    /// highest view; fill gaps with empty blocks.
    fn select_new_view_blocks(vcs: &[PbftViewChange]) -> Vec<(SeqNum, Vec<PbftRequest>)> {
        let mut best: BTreeMap<u64, (ViewNum, Vec<PbftRequest>)> = BTreeMap::new();
        let mut max_seq = 0u64;
        let stable = vcs.iter().map(|vc| vc.last_stable.get()).max().unwrap_or(0);
        for vc in vcs {
            for proof in &vc.prepared {
                max_seq = max_seq.max(proof.seq.get());
                let entry = best.entry(proof.seq.get());
                match entry {
                    std::collections::btree_map::Entry::Occupied(mut o) => {
                        if proof.view > o.get().0 {
                            o.insert((proof.view, proof.requests.clone()));
                        }
                    }
                    std::collections::btree_map::Entry::Vacant(v) => {
                        v.insert((proof.view, proof.requests.clone()));
                    }
                }
            }
        }
        let mut out = Vec::new();
        for seq in (stable + 1)..=max_seq {
            let requests = best.remove(&seq).map(|(_, r)| r).unwrap_or_default();
            out.push((SeqNum::new(seq), requests));
        }
        out
    }

    fn handle_new_view(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        from: NodeId,
        view: ViewNum,
        view_changes: Vec<PbftViewChange>,
        pre_prepares: Vec<(SeqNum, Vec<PbftRequest>)>,
    ) {
        if view < self.view || (view == self.view && !self.in_view_change) {
            return;
        }
        if from != self.config.primary(view).as_usize() {
            return;
        }
        let mut seen = std::collections::BTreeSet::new();
        let valid = view_changes
            .iter()
            .filter(|vc| vc.new_view == view && seen.insert(vc.from))
            .count();
        if valid < self.config.commit_quorum() {
            return;
        }
        ctx.charge_cpu_ns(self.cost.verify_request() * view_changes.len() as u64);
        // Check the primary's block selection against our own computation.
        let expected = Self::select_new_view_blocks(&view_changes);
        if expected != pre_prepares {
            return;
        }
        self.install_new_view(ctx, view, pre_prepares);
    }

    fn install_new_view(
        &mut self,
        ctx: &mut Context<'_, PbftMsg>,
        view: ViewNum,
        pre_prepares: Vec<(SeqNum, Vec<PbftRequest>)>,
    ) {
        ctx.incr("view_changes_completed", 1);
        self.view = view;
        self.in_view_change = false;
        self.vc_attempts = 0;
        self.vc_messages = self.vc_messages.split_off(&view.get());
        let mut max_seq = self.last_stable;
        for (seq, requests) in pre_prepares {
            max_seq = max_seq.max(seq);
            let committed = self
                .slots
                .get(&seq.get())
                .map(|s| s.committed)
                .unwrap_or(false);
            if committed || seq <= self.last_stable {
                continue;
            }
            let h = pbft_block_digest(seq, view, &requests);
            {
                let slot = self.slots.entry(seq.get()).or_default();
                *slot = Slot {
                    view: Some(view),
                    requests: Some(requests),
                    h: Some(h),
                    ..Slot::default()
                };
            }
            self.send_prepare(ctx, seq, view, h);
        }
        if self.is_primary() {
            self.next_proposal = SeqNum::new(
                self.next_proposal
                    .get()
                    .max(max_seq.get() + 1)
                    .max(self.last_stable.get() + 1),
            );
            self.maybe_propose(ctx);
        }
        self.arm_watchdog(ctx);
    }
}

impl Node<PbftMsg> for PbftReplica {
    sbft_sim::impl_node_any!();

    fn on_message(&mut self, from: NodeId, msg: PbftMsg, ctx: &mut Context<'_, PbftMsg>) {
        match msg {
            PbftMsg::Request(r) => self.handle_request(ctx, r),
            PbftMsg::PrePrepare {
                seq,
                view,
                requests,
            } => self.handle_pre_prepare(ctx, from, seq, view, requests),
            PbftMsg::Prepare {
                seq,
                view,
                h,
                replica,
                signature,
            } => self.handle_prepare(ctx, seq, view, h, replica, signature),
            PbftMsg::Commit {
                seq,
                view,
                h,
                replica,
                signature,
            } => self.handle_commit(ctx, seq, view, h, replica, signature),
            PbftMsg::Reply { .. } => {}
            PbftMsg::Checkpoint {
                seq,
                digest,
                replica,
                signature,
            } => self.handle_checkpoint(ctx, seq, digest, replica, signature),
            PbftMsg::ViewChange(vc) => self.handle_view_change(ctx, vc),
            PbftMsg::NewView {
                view,
                view_changes,
                pre_prepares,
            } => self.handle_new_view(ctx, from, view, view_changes, pre_prepares),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, PbftMsg>) {
        match token & 0xff {
            TIMER_BATCH => {
                self.batch_timer_set = false;
                if self.is_primary()
                    && !self.in_view_change
                    && !self.pending.is_empty()
                    && self.in_flight() < self.config.max_in_flight
                {
                    let take = self.pending.len().min(self.config.max_block_requests);
                    let requests: Vec<PbftRequest> = self.pending.drain(..take).collect();
                    let seq = self.next_proposal;
                    self.next_proposal = self.next_proposal.next();
                    let view = self.view;
                    self.broadcast(
                        ctx,
                        &PbftMsg::PrePrepare {
                            seq,
                            view,
                            requests,
                        },
                    );
                }
            }
            TIMER_WATCHDOG => {
                self.watchdog_set = false;
                let progressed =
                    self.last_executed > self.watchdog_mark.0 || self.view > self.watchdog_mark.1;
                if progressed || !self.has_outstanding_work() {
                    self.vc_attempts = 0;
                    if self.has_outstanding_work() {
                        self.arm_watchdog(ctx);
                    }
                } else {
                    self.start_view_change(ctx, self.view.next());
                }
            }
            TIMER_VC_RETRY => {
                let target = ViewNum::new(token >> 8);
                if self.in_view_change && self.view == target {
                    self.start_view_change(ctx, target.next());
                }
            }
            _ => {}
        }
    }
}
