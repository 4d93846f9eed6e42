//! Checkpoints and garbage collection (§V-F).

use super::*;

impl ReplicaNode {
    pub(super) fn maybe_checkpoint(
        &mut self,
        ctx: &mut Ctx<'_>,
        seq: SeqNum,
        digest: Digest,
        pi: Signature,
    ) {
        if seq.get() < self.last_stable.get() + self.config.checkpoint_period {
            return;
        }
        if self.last_executed < seq {
            return;
        }
        let Some(slot) = self.slots.get(&seq.get()) else {
            return;
        };
        if slot.exec_digest != Some(digest) {
            // Our execution diverged from the certified digest — resync.
            self.request_state_transfer(ctx, self.id.as_usize());
            return;
        }
        let Some(exec) = self.engine.execution(seq) else {
            return;
        };
        let (state_root, results_root) = (exec.state_root, exec.results_root());
        // The state right after `seq`, not after the last executed block:
        // with blocks in flight those differ, and the certificate binds
        // `seq`'s roots.
        let Some(state) = self.engine.checkpoint_state(seq) else {
            return;
        };
        ctx.incr("checkpoints", 1);
        self.install_checkpoint(seq, digest, pi, (state_root, results_root), state);
        // Garbage-collect protocol state and the checkpointed blocks'
        // executions: only execute-acks read those, and a slot's acks end
        // with the slot (client retries are answered from the client
        // table).
        self.engine.garbage_collect(seq);
        self.slots = self.slots.split_off(&(seq.get() + 1));
        // Slots at or below the checkpoint can no longer combine: drop
        // their published digests and pre-verified share marks too.
        if let Some(map) = &self.shares {
            map.gc_below(seq);
        }
        if self.is_primary() && self.next_proposal <= seq {
            self.next_proposal = seq.next();
        }
    }

    /// Makes `state`, the state right after block `seq`, the stable
    /// checkpoint: π over `digest` certifies it, and `digest` binds
    /// `roots` (state root, results root). With a store attached the
    /// checkpoint is durable — a transferred one too, so a crash right
    /// after catching up does not repeat the whole transfer.
    pub(super) fn install_checkpoint(
        &mut self,
        seq: SeqNum,
        digest: Digest,
        pi: Signature,
        roots: (Digest, Digest),
        state: AuthKv,
    ) {
        if let Some(dur) = &mut self.durability {
            let cert = Some(pi.to_wire_bytes());
            let snapshot = Snapshot::of_checkpoint(seq, digest, roots.0, roots.1, cert, &state);
            dur.store_checkpoint(&snapshot);
        }
        self.ledger.install_checkpoint(Checkpoint {
            seq,
            state_digest: digest,
            state,
        });
        self.last_stable = seq;
        self.stable_cert = Some((digest, pi));
        self.stable_roots = Some(roots);
    }
}
