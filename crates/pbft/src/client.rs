//! The PBFT client: closed loop, waits for `f+1` matching replies — the
//! per-request linear client cost SBFT's ingredient 3 removes.

use std::collections::HashMap;

use sbft_types::{ClientId, Digest, ReplicaId};

use sbft_core::client::RequestSource;
use sbft_crypto::{sha256, CryptoCostModel, KeyPair};
use sbft_sim::{Context, Node, NodeId, SimDuration, SimTime};
use sbft_statedb::RawOp;

use crate::keys::PbftKeys;
use crate::messages::{PbftMsg, PbftRequest};
use crate::replica::PbftConfig;

const RETRY_TOKEN: u64 = 1;

struct Outstanding {
    timestamp: u64,
    sent_at: SimTime,
    reply_digests: HashMap<ReplicaId, Digest>,
}

/// A closed-loop PBFT client.
pub struct PbftClient {
    config: PbftConfig,
    id: ClientId,
    keys: KeyPair,
    cost: CryptoCostModel,
    source: RequestSource,
    next: u64,
    current_op: Option<RawOp>,
    timestamp: u64,
    outstanding: Option<Outstanding>,
    primary_guess: usize,
    retry_timeout: SimDuration,
    /// Completed request count.
    pub completed: u64,
    /// Latencies of completed requests, milliseconds.
    pub latencies_ms: Vec<f64>,
}

impl PbftClient {
    /// Creates a client issuing requests from `source` sequentially.
    pub fn new(
        config: PbftConfig,
        id: ClientId,
        keys: &PbftKeys,
        source: RequestSource,
        retry_timeout: SimDuration,
        cost: CryptoCostModel,
    ) -> Self {
        PbftClient {
            keys: keys.client_keys(id),
            config,
            id,
            cost,
            source,
            next: 0,
            current_op: None,
            timestamp: 0,
            outstanding: None,
            primary_guess: 0,
            retry_timeout,
            completed: 0,
            latencies_ms: Vec::new(),
        }
    }

    fn send_next(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        let Some(op) = (self.source)(self.next) else {
            return;
        };
        self.current_op = Some(op.clone());
        self.next += 1;
        self.timestamp += 1;
        ctx.charge_cpu_ns(self.cost.sign_request());
        let request = PbftRequest::signed(self.id, self.timestamp, op, &self.keys);
        self.outstanding = Some(Outstanding {
            timestamp: self.timestamp,
            sent_at: ctx.now(),
            reply_digests: HashMap::new(),
        });
        ctx.send(self.primary_guess, PbftMsg::Request(request));
        ctx.set_timer(self.retry_timeout, RETRY_TOKEN);
    }
}

impl Node<PbftMsg> for PbftClient {
    sbft_sim::impl_node_any!();

    fn on_start(&mut self, ctx: &mut Context<'_, PbftMsg>) {
        self.send_next(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: PbftMsg, ctx: &mut Context<'_, PbftMsg>) {
        let PbftMsg::Reply {
            replica,
            client,
            timestamp,
            result,
            ..
        } = msg
        else {
            return;
        };
        if client != self.id {
            return;
        }
        // The client verifies each reply signature (f+1 of them — the
        // linear per-request client cost, §I ingredient 3).
        ctx.charge_cpu_ns(self.cost.verify_request());
        let needed = self.config.f + 1;
        let Some(outstanding) = &mut self.outstanding else {
            return;
        };
        if outstanding.timestamp != timestamp {
            return;
        }
        let digest = sha256(&result);
        outstanding.reply_digests.insert(replica, digest);
        let matching = outstanding
            .reply_digests
            .values()
            .filter(|d| **d == digest)
            .count();
        if matching >= needed {
            let latency = (ctx.now() - outstanding.sent_at).as_millis_f64();
            self.outstanding = None;
            self.latencies_ms.push(latency);
            self.completed += 1;
            ctx.record("latency_ms", latency);
            ctx.incr("client_completed", 1);
            self.send_next(ctx);
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, PbftMsg>) {
        if token != RETRY_TOKEN {
            return;
        }
        let Some(outstanding) = &self.outstanding else {
            return;
        };
        ctx.incr("client_retries", 1);
        ctx.charge_cpu_ns(self.cost.sign_request());
        let op = self.current_op.clone().unwrap_or_default();
        let request = PbftRequest::signed(self.id, outstanding.timestamp, op, &self.keys);
        self.primary_guess = (self.primary_guess + 1) % self.config.n();
        for r in 0..self.config.n() {
            ctx.send(r, PbftMsg::Request(request.clone()));
        }
        ctx.set_timer(self.retry_timeout, RETRY_TOKEN);
    }
}
