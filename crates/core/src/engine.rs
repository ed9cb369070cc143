//! The driver↔engine seam: [`Engine`] and [`EffectSink`].
//!
//! Every cluster member — honest [`crate::Node`], one of `dl-sim`'s faulty
//! members, or anything a test invents — presents the same four-method
//! surface to its driver: `submit_tx` / `handle` / `poll` push events
//! *in*, and every resulting effect is written *out* through a
//! caller-supplied [`EffectSink`]. Drivers hold cluster slots as
//! `Box<dyn Engine>` and never match on node kinds, and because the sink is
//! borrowed from the driver there is no per-event `Vec<NodeEffect>`
//! allocation on the hot path: a simulator routes `send` straight into its
//! link queues, a TCP transport routes it straight into per-peer outboxes.
//!
//! [`NodeEffect`] remains as the *reified* form of the effect vocabulary —
//! `Vec<NodeEffect>` implements [`EffectSink`], which is what tests and
//! small tools use via the [`EngineExt`] convenience methods.

use dl_wire::{Envelope, Epoch, NodeId, Tx};

use crate::node::{DeliveredBlock, NodeEffect, NodeStats, StatEvent};
use crate::records::StoreRecord;

/// Where an engine writes its effects.
///
/// `send` and `deliver` are the load-bearing outputs and must be handled;
/// `wake_at` (advisory poll deadline) and `stat` (observability) default to
/// no-ops because ignoring them is always safe — periodic-tick drivers need
/// no wake hints and not every driver aggregates stats.
pub trait EffectSink {
    /// Put `env` on the wire to `to`. Engines never send to themselves.
    fn send(&mut self, to: NodeId, env: Envelope);

    /// A block reached its position in the total order.
    fn deliver(&mut self, block: DeliveredBlock);

    /// Ask the driver to call [`Engine::poll`] no later than `at_ms` (on
    /// the driver's clock). Advisory: extra or duplicate polls are harmless.
    ///
    /// A hint at or before the current time means "poll me once everything
    /// that has arrived is handed over": the engine holds what it would
    /// batch across the entry points of one instant, and that poll sends
    /// it. A driver that polls before handing over the rest of the instant
    /// only batches less; one that never answers delays the held messages
    /// to the engine's next entry point at a later time.
    fn wake_at(&mut self, _at_ms: u64) {}

    /// An observability event; ignoring it is always safe.
    fn stat(&mut self, _event: StatEvent) {}

    /// Whether this driver persists [`StoreRecord`]s. Engines use this to
    /// skip building records (some clone chunk payloads or whole blocks)
    /// when nobody is listening.
    fn persists(&self) -> bool {
        false
    }

    /// A write-ahead record: append it to durable storage *before* flushing
    /// the sends that follow it in this effect stream. Only called when
    /// [`EffectSink::persists`] returns true. Ignoring it is safe for
    /// drivers that do not offer crash recovery.
    fn persist(&mut self, _record: StoreRecord) {}

    /// The retrieval for `(epoch, index)` was cancelled by `to`: any
    /// `ReturnChunk` for it still queued toward `to` is dead weight and may
    /// be dropped. Advisory — a driver without per-peer queues ignores it.
    /// (Signature pinned by the benchmark's forwarding sink,
    /// `dl-e2e/src/probe.rs`, until the benchmark is next thawed.)
    fn purge_returns(&mut self, _to: NodeId, _epoch: Epoch, _index: NodeId) {}
}

/// The reified-effect sink: collects everything as [`NodeEffect`] values.
/// This is the compatibility bridge for tests and examples; real drivers
/// implement [`EffectSink`] directly and skip the allocation.
impl EffectSink for Vec<NodeEffect> {
    fn send(&mut self, to: NodeId, env: Envelope) {
        self.push(NodeEffect::Send(to, env));
    }
    fn deliver(&mut self, block: DeliveredBlock) {
        self.push(NodeEffect::Deliver(block));
    }
    fn wake_at(&mut self, at_ms: u64) {
        self.push(NodeEffect::WakeAt(at_ms));
    }
    fn stat(&mut self, event: StatEvent) {
        self.push(NodeEffect::Stat(event));
    }
    fn persists(&self) -> bool {
        true
    }
    fn persist(&mut self, record: StoreRecord) {
        self.push(NodeEffect::Persist(record));
    }
    fn purge_returns(&mut self, to: NodeId, epoch: Epoch, index: NodeId) {
        self.push(NodeEffect::PurgeReturns { to, epoch, index });
    }
}

/// A cluster member, as seen by a driver.
///
/// The trait is object-safe on purpose: drivers hold `Box<dyn Engine>` (or
/// `Box<dyn Engine + Send>` across threads) so honest and Byzantine members
/// occupy slots interchangeably, with no dispatch enum to keep in sync.
pub trait Engine {
    /// This member's cluster identity.
    fn id(&self) -> NodeId;

    /// Entry point 1/3: a client submits a transaction at this node.
    fn submit_tx(&mut self, tx: Tx, now: u64, sink: &mut dyn EffectSink);

    /// Entry point 2/3: a peer's envelope arrived. `from` is the
    /// transport-authenticated sender.
    fn handle(&mut self, from: NodeId, env: Envelope, now: u64, sink: &mut dyn EffectSink);

    /// A burst of envelopes from one peer that arrived at the same
    /// instant (e.g. one transmission frame). Semantically identical to
    /// calling [`Engine::handle`] on each in order; engines may override
    /// it to pay their per-call fixed costs (state lookups, pipeline
    /// advancement) once per burst instead of once per envelope.
    fn handle_burst(
        &mut self,
        from: NodeId,
        envs: &mut Vec<Envelope>,
        now: u64,
        sink: &mut dyn EffectSink,
    ) {
        for env in envs.drain(..) {
            self.handle(from, env, now, sink);
        }
    }

    /// Entry point 3/3: the clock advanced.
    fn poll(&mut self, now: u64, sink: &mut dyn EffectSink);

    /// Engine counters, if this member keeps any. `None` for Byzantine
    /// members — a faulty node's self-reported numbers would be
    /// meaningless anyway.
    fn stats(&self) -> Option<NodeStats> {
        None
    }

    /// Rebuild pre-crash state from a replayed write-ahead log, before any
    /// other entry point is called. Engines without persistent state ignore
    /// it. Must be silent: no sends, no deliveries — the driver already
    /// knows everything in `records`.
    fn restore(&mut self, _records: &[StoreRecord]) {}
}

/// Convenience wrappers that collect effects into a `Vec<NodeEffect>`.
/// Useful in tests and one-off tools; drivers should pass their own sink.
pub trait EngineExt: Engine {
    fn submit_tx_vec(&mut self, tx: Tx, now: u64) -> Vec<NodeEffect> {
        let mut out = Vec::new();
        self.submit_tx(tx, now, &mut out);
        out
    }

    fn handle_vec(&mut self, from: NodeId, env: Envelope, now: u64) -> Vec<NodeEffect> {
        let mut out = Vec::new();
        self.handle(from, env, now, &mut out);
        out
    }

    fn poll_vec(&mut self, now: u64) -> Vec<NodeEffect> {
        let mut out = Vec::new();
        self.poll(now, &mut out);
        out
    }
}

impl<E: Engine + ?Sized> EngineExt for E {}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_wire::Epoch;

    /// A sink that counts calls, to pin down the default no-op behaviour
    /// and the Vec bridge.
    #[derive(Default)]
    struct Counting {
        sends: usize,
        delivers: usize,
    }

    impl EffectSink for Counting {
        fn send(&mut self, _to: NodeId, _env: Envelope) {
            self.sends += 1;
        }
        fn deliver(&mut self, _block: DeliveredBlock) {
            self.delivers += 1;
        }
    }

    fn epoch_delivered() -> StatEvent {
        StatEvent::EpochDelivered {
            epoch: Epoch(1),
            blocks: 2,
            decided_ms: 3,
            in_hand_ms: 4,
        }
    }

    #[test]
    fn vec_sink_reifies_every_effect() {
        let mut v: Vec<NodeEffect> = Vec::new();
        v.wake_at(42);
        v.stat(epoch_delivered());
        assert_eq!(
            v,
            vec![NodeEffect::WakeAt(42), NodeEffect::Stat(epoch_delivered())]
        );
    }

    #[test]
    fn default_wake_and_stat_are_noops() {
        let mut c = Counting::default();
        c.wake_at(1);
        c.stat(epoch_delivered());
        assert_eq!(c.sends, 0);
        assert_eq!(c.delivers, 0);
    }
}
