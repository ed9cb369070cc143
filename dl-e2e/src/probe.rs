//! Harness-side wrappers around the engine seam: the closed-loop client,
//! the delivery clock of the TCP workload, and — in traced runs only — the
//! spans and counts at the `Engine`/`EffectSink`/`BlockCoder` boundaries.
//! Nothing here lives in the system's own crates.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dl_core::{BlockCoder, DeliveredBlock, EffectSink, Engine, NodeStats, StatEvent, StoreRecord};
use dl_crypto::{Hash, MerkleProof};
use dl_vid::{Coder, EncodedBlock, Retrieved};
use dl_wire::block::TxPayload;
use dl_wire::{
    BaMsg, Block, ChunkPayload, Envelope, Epoch, NodeId, ProtoMsg, Tx, VidMsg, WireEncode,
};

use crate::trace::Tracer;

/// Closed-loop clients of one node: each delivered own transaction is
/// answered with a fresh submission, so a slow system receives less load.
pub struct ClosedLoop {
    /// Payload of every transaction this node's clients submit.
    pub payload: TxPayload,
    /// Sequence numbers below this were submitted by the harness up front.
    pub next_seq: u64,
    /// Transactions issued at this node so far (read by the checker).
    pub issued: Arc<AtomicU64>,
}

/// Every transaction one TCP node delivered, as `(origin, seq, µs on the
/// harness clock)`, in delivery order.
pub type Stamps = Arc<Mutex<Vec<(NodeId, u64, u64)>>>;

/// Envelope traffic classes the budget reports separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `Chunk`, `GotChunk`, `Ready` — the dispersal phase of VID.
    Dispersal,
    /// `RequestChunk`, `ReturnChunk`, `Cancel`.
    Retrieval,
    Ba,
    Sync,
}

impl Kind {
    pub fn of(env: &Envelope) -> Kind {
        match &env.payload {
            ProtoMsg::Vid(VidMsg::RequestChunk | VidMsg::ReturnChunk { .. } | VidMsg::Cancel) => {
                Kind::Retrieval
            }
            ProtoMsg::Vid(_) => Kind::Dispersal,
            ProtoMsg::Ba(_) => Kind::Ba,
            ProtoMsg::Sync(_) => Kind::Sync,
        }
    }
}

/// Counts taken where the work happens, one set per node.
#[derive(Clone, Debug, Default)]
pub struct Counts {
    /// Sent envelopes and wire bytes by kind.
    pub sent: BTreeMap<Kind, (u64, u64)>,
    pub received: u64,
    pub return_chunks_received: u64,
    /// Payload bytes of every non-empty block this node proposed.
    pub proposed_bytes: Vec<u64>,
    /// Highest round this node voted in, per BA instance `(epoch, index)`.
    pub ba_rounds: BTreeMap<(u64, u16), u16>,
    pub persisted_bytes: u64,
}

impl Counts {
    /// One cluster-wide set from the per-node ones.
    pub fn merged(all: &[Counts]) -> Counts {
        let mut out = Counts::default();
        for c in all {
            for (k, (msgs, bytes)) in &c.sent {
                let slot = out.sent.entry(*k).or_default();
                slot.0 += msgs;
                slot.1 += bytes;
            }
            out.received += c.received;
            out.return_chunks_received += c.return_chunks_received;
            out.proposed_bytes.extend(&c.proposed_bytes);
            out.persisted_bytes += c.persisted_bytes;
            for (k, r) in &c.ba_rounds {
                let slot = out.ba_rounds.entry(*k).or_default();
                *slot = (*slot).max(*r);
            }
        }
        out
    }
}

pub struct NodeTrace {
    pub tracer: Arc<Tracer>,
    pub counts: Arc<Mutex<Counts>>,
}

/// An [`Engine`] wrapper; every part is optional and an engine without any
/// runs unwrapped.
pub struct Probe<E> {
    inner: E,
    me: NodeId,
    clients: Option<ClosedLoop>,
    stamps: Option<(Instant, Stamps)>,
    trace: Option<NodeTrace>,
}

impl<E: Engine> Probe<E> {
    pub fn new(
        inner: E,
        clients: Option<ClosedLoop>,
        stamps: Option<(Instant, Stamps)>,
        trace: Option<NodeTrace>,
    ) -> Probe<E> {
        let me = inner.id();
        Probe {
            inner,
            me,
            clients,
            stamps,
            trace,
        }
    }

    fn note_received(&self, envs: &[Envelope]) {
        if let Some(trace) = &self.trace {
            let mut c = trace.counts.lock().expect("counts lock");
            c.received += envs.len() as u64;
            c.return_chunks_received += envs
                .iter()
                .filter(|e| matches!(e.payload, ProtoMsg::Vid(VidMsg::ReturnChunk { .. })))
                .count() as u64;
        }
    }

    /// Run one engine entry point under a span, with the sink wrapped, and
    /// then let the closed-loop clients answer what it delivered.
    fn call(
        &mut self,
        span: &'static str,
        epoch: u64,
        now: u64,
        sink: &mut dyn EffectSink,
        f: impl FnOnce(&mut E, &mut dyn EffectSink),
    ) {
        let _guard = self
            .trace
            .as_ref()
            .map(|t| t.tracer.span(span, Some(epoch)));
        let mut counts = self
            .trace
            .as_ref()
            .map(|t| t.counts.lock().expect("counts lock"));
        let mut probe_sink = ProbeSink {
            inner: sink,
            me: self.me,
            own_delivered: 0,
            stamps: self.stamps.as_ref(),
            counts: counts.as_deref_mut(),
        };
        f(&mut self.inner, &mut probe_sink);
        if let Some(clients) = self.clients.as_mut() {
            while probe_sink.own_delivered > 0 {
                probe_sink.own_delivered -= 1;
                let tx = Tx {
                    origin: self.me,
                    seq: clients.next_seq,
                    submit_ms: now,
                    payload: clients.payload.clone(),
                };
                clients.next_seq += 1;
                clients.issued.fetch_add(1, Ordering::Relaxed);
                self.inner.submit_tx(tx, now, &mut probe_sink);
            }
        }
    }
}

impl<E: Engine> Engine for Probe<E> {
    fn id(&self) -> NodeId {
        self.me
    }

    fn submit_tx(&mut self, tx: Tx, now: u64, sink: &mut dyn EffectSink) {
        self.call("core.submit", 0, now, sink, |e, s| e.submit_tx(tx, now, s));
    }

    fn handle(&mut self, from: NodeId, env: Envelope, now: u64, sink: &mut dyn EffectSink) {
        self.note_received(std::slice::from_ref(&env));
        // Same span as a burst: one envelope is a burst of one.
        self.call("core.handle_burst", env.epoch.0, now, sink, |e, s| {
            e.handle(from, env, now, s)
        });
    }

    fn handle_burst(
        &mut self,
        from: NodeId,
        envs: &mut Vec<Envelope>,
        now: u64,
        sink: &mut dyn EffectSink,
    ) {
        self.note_received(envs);
        let epoch = envs.first().map_or(0, |e| e.epoch.0);
        self.call("core.handle_burst", epoch, now, sink, |e, s| {
            e.handle_burst(from, envs, now, s)
        });
    }

    fn poll(&mut self, now: u64, sink: &mut dyn EffectSink) {
        self.call("core.poll", 0, now, sink, |e, s| e.poll(now, s));
    }

    fn stats(&self) -> Option<NodeStats> {
        self.inner.stats()
    }

    fn restore(&mut self, records: &[StoreRecord]) {
        self.inner.restore(records);
    }
}

struct ProbeSink<'a> {
    inner: &'a mut dyn EffectSink,
    me: NodeId,
    own_delivered: usize,
    stamps: Option<&'a (Instant, Stamps)>,
    counts: Option<&'a mut Counts>,
}

impl EffectSink for ProbeSink<'_> {
    fn send(&mut self, to: NodeId, env: Envelope) {
        if let Some(c) = self.counts.as_deref_mut() {
            let slot = c.sent.entry(Kind::of(&env)).or_default();
            slot.0 += 1;
            slot.1 += env.wire_size() as u64;
            if let ProtoMsg::Ba(BaMsg::BVal { round, .. } | BaMsg::Aux { round, .. }) = env.payload
            {
                let r = c.ba_rounds.entry((env.epoch.0, env.index.0)).or_default();
                *r = (*r).max(round);
            }
        }
        self.inner.send(to, env);
    }

    fn deliver(&mut self, block: DeliveredBlock) {
        if let Some(b) = &block.block {
            self.own_delivered += b.body.iter().filter(|tx| tx.origin == self.me).count();
            if let Some((clock, stamps)) = self.stamps {
                let at = clock.elapsed().as_micros() as u64;
                let mut stamps = stamps.lock().expect("stamps lock");
                stamps.extend(b.body.iter().map(|tx| (tx.origin, tx.seq, at)));
            }
        }
        self.inner.deliver(block);
    }

    fn wake_at(&mut self, at_ms: u64) {
        self.inner.wake_at(at_ms);
    }

    fn stat(&mut self, event: StatEvent) {
        if let (
            Some(c),
            StatEvent::Proposed {
                payload_bytes,
                empty: false,
                ..
            },
        ) = (self.counts.as_deref_mut(), &event)
        {
            c.proposed_bytes.push(*payload_bytes as u64);
        }
        self.inner.stat(event);
    }

    fn persists(&self) -> bool {
        self.inner.persists()
    }

    fn persist(&mut self, record: StoreRecord) {
        if let Some(c) = self.counts.as_deref_mut() {
            c.persisted_bytes += record.encoded_len() as u64;
        }
        self.inner.persist(record);
    }

    fn purge_returns(&mut self, to: NodeId, epoch: Epoch, index: NodeId) {
        self.inner.purge_returns(to, epoch, index);
    }
}

/// A [`BlockCoder`] that records a child span around each coder call. The
/// spans inherit the epoch of the engine span they run under.
#[derive(Clone)]
pub struct TracedCoder<C> {
    inner: C,
    tracer: Arc<Tracer>,
}

impl<C> TracedCoder<C> {
    pub fn new(inner: C, tracer: Arc<Tracer>) -> TracedCoder<C> {
        TracedCoder { inner, tracer }
    }
}

impl<C: Coder> Coder for TracedCoder<C> {
    type Block = C::Block;

    fn data_chunks(&self) -> usize {
        self.inner.data_chunks()
    }

    fn total_chunks(&self) -> usize {
        self.inner.total_chunks()
    }

    fn encode(&self, block: &C::Block) -> EncodedBlock {
        let _g = self.tracer.span("coder.encode", None);
        self.inner.encode(block)
    }

    fn verify(&self, root: &Hash, proof: &MerkleProof, payload: &ChunkPayload) -> bool {
        let _g = self.tracer.span("coder.verify", None);
        self.inner.verify(root, proof, payload)
    }

    fn decode(&self, root: &Hash, chunks: &[(u32, ChunkPayload)]) -> Retrieved<C::Block> {
        let _g = self.tracer.span("coder.decode", None);
        self.inner.decode(root, chunks)
    }
}

impl<C: BlockCoder> BlockCoder for TracedCoder<C> {
    fn pack(&self, block: &Block) -> C::Block {
        let _g = self.tracer.span("wire.pack", None);
        self.inner.pack(block)
    }

    fn unpack(&self, data: &C::Block) -> Option<Block> {
        let _g = self.tracer.span("wire.unpack", None);
        self.inner.unpack(data)
    }
}
