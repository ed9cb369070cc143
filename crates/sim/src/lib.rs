//! Discrete-event network driver for the DispersedLedger node engine.
//!
//! `dl-sim` runs a cluster of [`dl_core::Engine`]s over a simulated WAN:
//! every ordered pair of nodes is connected by a [`LinkSpec`] with its own
//! bandwidth and propagation latency, so the variable-bandwidth scenarios
//! of the paper's §6 evaluation (one slow node, asymmetric links, …) can be
//! reproduced deterministically and in virtual time.
//!
//! ## Link model
//!
//! Each directed link serializes *frames*. A frame carries everything of
//! the high class that is queued, whole, and then tops itself up with
//! `ReturnChunk` bulk to exactly one quantum — `FRAME_QUANTUM_MS`
//! milliseconds of the link's capacity *at that moment* — through the
//! shared [`SendQueue`]'s segment cursor (the cursor the real TCP transport
//! `dl-net` drains). It occupies the link for `bytes / bandwidth`
//! milliseconds and what it finished arrives `latency` milliseconds later;
//! an envelope arrives with the frame that carries its last byte. So the
//! §5 rule — dispersal and control strictly before retrieval bulk, bulk in
//! epoch order — holds per quantum, not per chunk: a vote that becomes
//! ready while a 25 kB chunk is on a 100 B/ms link waits for the end of the
//! current frame, not 250 ms for the end of the chunk, and a rate re-drawn
//! by [`Simulation::set_link`] governs the chunk's next frame. That is the
//! rule that lets a node keep *voting* (and steering its retrievals) at
//! full speed while it catches up on block downloads. Every segment after
//! an envelope's first costs one more frame header of link time, exactly
//! as `dl-net` writes one to the socket.
//!
//! A link is pumped once per frame: when a frame ends with backlog behind it,
//! and when an envelope lands on an empty queue. The pumps due at one
//! instant run from a single heap event, after every node event of that
//! instant and in `(from, to)` order. So a frame that starts at `t`
//! carries everything queued up to `t`, whichever of `t`'s events the heap
//! happened to pop first: a vote sent as a chunk's frame ends rides the
//! next frame, never one frame later. The same event first polls the nodes
//! that asked for a poll at the instant (`wake_at(now)`): an engine holds
//! its batchable broadcasts until then, so they ride the instant's frames.
//!
//! The quantum is in time, not bytes, so that no frame pays the
//! millisecond grid's round-up (the prototype this was sized with measured
//! 1200 B and 4 kB segments at 8.34 and 9.17 MB/s on `vbw-sat-dl`); on a
//! link slower than 100 B/ms it is the fewest whole milliseconds that
//! carry 100 bytes (`FRAME_BYTES_MIN`), so a continuation header — 2 bytes
//! on any segment of 16 B to 2 KiB — is at most 2 % of its segment. `dl-e2e`,
//! seed 1, 10 s, untraced — p50 / p95 in ms, goodput in MB/s — when the
//! quantum was chosen:
//!
//! | quantum | `vbw-rate-dl` p50 / p95 | `vbw-sat-dl` goodput · p50 / p95 |
//! |---|---|---|
//! | whole envelopes (before) | 759 / 1575 | 8.81 · 1703 / 2944 |
//! | **1 ms** | **556 / 1137** | 10.03 · 1435 / 2952 |
//! | 2 ms | 563 / 1127 | 10.09 · 1442 / 2842 |
//! | 4 ms | 575 / 1154 | 10.11 · 1445 / 2823 |
//!
//! The 1 ms frames cost wall clock: a `vbw-sat-dl` run took 59 s with whole
//! envelopes and 108 s with a heap event per frame (2 cores). Pumping an
//! instant's links from one heap event, with `dl-core`'s fuller pipelined
//! epochs, brought it to 64 s.
//!
//! ## Drivers and quiescence
//!
//! The simulator is an [`EffectSink`]: engine `send`s become link
//! transmissions, `wake_at` schedules an [`Engine::poll`] (one at or
//! before now runs as the instant ends, before its link pumps), and
//! `deliver`/`stat` are recorded into the [`SimReport`]. Cluster slots are
//! held uniformly as `Box<dyn Engine>` — honest members and the faulty
//! [`SimNodeKind`]s are interchangeable once built.
//! Because the engine is quiescent-by-design (an idle cluster emits
//! nothing), "the event heap drained" is exactly "the protocol finished all
//! outstanding work", which is what [`Simulation::run_until_quiescent`]
//! reports.

#![forbid(unsafe_code)]
// Replays identically from a seed: no hashed collections, no wall clock.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

mod adversary;
pub mod chaos;
pub mod fluid;

use std::cmp::Ordering;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::Arc;

use rand::Rng;

use dl_core::{
    DeliveredBlock, EffectSink, Engine, Node, NodeConfig, NodeStats, ProtocolVariant,
    RealBlockCoder, SendQueue, StatEvent, StoreRecord,
};
use dl_store::{ChainStore, MemoryStore};
use dl_wire::{ClusterConfig, Envelope, Epoch, NodeId, Tx, WireDecode, WireEncode};

use adversary::Adversary;
pub use chaos::{
    run_scenario, scenario_from_seed, Auditor, ChaosAction, ChaosOutcome, ChaosPlan, ChaosScenario,
    Partition, Violation,
};
pub use fluid::{BlockStore, FluidCoder};

/// Bandwidth and propagation delay of one directed link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkSpec {
    /// Propagation latency in milliseconds.
    pub latency_ms: u64,
    /// Bandwidth in bytes per millisecond (1250 = 10 Mbit/s).
    pub bytes_per_ms: u64,
}

impl LinkSpec {
    /// 10 Mbit/s with 20 ms one-way latency — a sane WAN default.
    pub const WAN: LinkSpec = LinkSpec {
        latency_ms: 20,
        bytes_per_ms: 1250,
    };

    /// Transmission time of `bytes` on this link, at least 1 ms per
    /// message so the event clock always advances.
    fn tx_ms(&self, bytes: usize) -> u64 {
        (bytes as u64).div_ceil(self.bytes_per_ms).max(1)
    }
}

/// What occupies a cluster slot: an honest [`Node`], or one of the five
/// faulty members of the private `adversary` module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimNodeKind {
    Honest,
    /// Crashed node: receives and sends nothing.
    Mute,
    /// Disperses a conflicting block to every peer each epoch and votes
    /// both ways in every BA.
    Equivocate,
    /// Withholds its dispersal chunks and votes until the last useful
    /// moment.
    DelayRelease,
    /// Disperses to two peers short of `N − f`: with its implied
    /// `GotChunk`, one acknowledgement short of any completing quorum.
    SelectiveSend,
    /// Disperses chunks whose Merkle proofs do not verify, and answers
    /// every chunk request with wrong bytes of the right length.
    GarbageChunks,
}

/// Simulation parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub cluster: ClusterConfig,
    pub variant: ProtocolVariant,
    /// Applied to every directed link; override per link with
    /// [`Simulation::set_link`].
    pub default_link: LinkSpec,
    /// Fluid mode: nodes run the [`FluidCoder`] (declared-length
    /// synthetic chunks, cluster-shared block store) instead of real
    /// Reed–Solomon + Merkle work. Same wire bytes, no chunk
    /// materialization — the way to simulate paper-scale block sizes and
    /// large clusters.
    pub fluid: bool,
}

impl SimConfig {
    /// A cluster of `n` nodes running `variant` over default WAN links.
    pub fn new(n: usize, variant: ProtocolVariant) -> SimConfig {
        SimConfig {
            cluster: ClusterConfig::new(n),
            variant,
            default_link: LinkSpec::WAN,
            fluid: false,
        }
    }

    /// Like [`SimConfig::new`] but in fluid mode.
    pub fn fluid(n: usize, variant: ProtocolVariant) -> SimConfig {
        SimConfig {
            fluid: true,
            ..SimConfig::new(n, variant)
        }
    }
}

/// Outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Virtual time when the run ended.
    pub now_ms: u64,
    /// Virtual time of the last event that moved the protocol: an envelope
    /// sent or arrived, a block delivered. A quiesced run also drains its
    /// advisory wake-ups (a Nagle delay, a retrieval's escalation deadline
    /// that its own completion beat), so `now_ms` can lie well past the
    /// moment the network went idle; this is that moment.
    pub last_activity_ms: u64,
    /// True if the event heap drained (all protocol work finished) before
    /// the deadline.
    pub quiesced: bool,
    /// Discrete events processed since the simulation was constructed —
    /// the denominator for per-event cost accounting. Submissions and
    /// polls count one each, and so does each link pump that runs: one per
    /// link and instant it is due at, so one per frame the link sends. An
    /// arrival burst counts one per delivered envelope (the unit of
    /// protocol work is the message, not the heap pop). Cumulative across
    /// resumed runs.
    pub events_processed: u64,
    /// Per node, every block it delivered, in delivery order. Byzantine
    /// slots stay empty. Shared with the simulation, so taking a report of
    /// a long run copies pointers, not blocks.
    pub delivered: Vec<Vec<Arc<DeliveredBlock>>>,
    /// Per node, the engine counters (None for Byzantine slots).
    pub stats: Vec<Option<NodeStats>>,
    /// Stat events in emission order: `(when, who, event)`.
    pub events: Vec<(u64, NodeId, StatEvent)>,
    /// Envelopes dropped from link queues by retrieval-cancel purge hints,
    /// partly-sent ones included.
    pub purged_envelopes: u64,
    /// Queued bytes reclaimed by retrieval-cancel purge hints (of a
    /// partly-sent chunk, the unsent remainder).
    pub purged_bytes: u64,
}

impl SimReport {
    /// The transaction ids node `i` delivered, in total-order position.
    pub fn tx_order(&self, node: usize) -> Vec<(NodeId, u64)> {
        self.delivered[node]
            .iter()
            .filter_map(|d| d.block.as_ref())
            .flat_map(|b| b.body.iter().map(Tx::id))
            .collect()
    }

    /// Where the confirmation latency of `node`'s own transactions went,
    /// from the stamps the engine already emits: each transaction is
    /// followed from `Tx::submit_ms` to the `Proposed` event of the block
    /// that carried it, to `decided_ms` and `in_hand_ms` of the epoch whose
    /// delivery put that block in the total order, to that
    /// `EpochDelivered` event. The four phases sum to the latency exactly.
    pub fn latency_phases(&self, node: usize) -> LatencyPhases {
        let mut proposed_at = BTreeMap::new();
        let mut phases = LatencyPhases::default();
        let mut blocks = self.delivered[node].iter();
        let own = self.events.iter().filter(|(_, who, _)| who.idx() == node);
        for (at, _, event) in own {
            let (count, decided_ms, in_hand_ms) = match *event {
                StatEvent::Proposed { epoch, .. } => {
                    proposed_at.insert(epoch, *at);
                    continue;
                }
                StatEvent::EpochDelivered {
                    blocks,
                    decided_ms,
                    in_hand_ms,
                    ..
                } => (blocks, decided_ms, in_hand_ms),
            };
            // The event closes the batch of `count` deliveries.
            for d in blocks.by_ref().take(count) {
                let Some(block) = d.block.as_ref().filter(|_| d.proposer.idx() == node) else {
                    continue;
                };
                let proposed = proposed_at.get(&d.epoch).copied().unwrap_or(0);
                for tx in &block.body {
                    // Stamps of a restored node can be 0; clamping keeps
                    // every phase non-negative and the sum exact.
                    let proposed = proposed.clamp(tx.submit_ms, *at);
                    let decided = decided_ms.clamp(proposed, *at);
                    let in_hand = in_hand_ms.clamp(decided, *at);
                    phases.txs += 1;
                    phases.submit_to_proposed_ms += proposed - tx.submit_ms;
                    phases.proposed_to_decided_ms += decided - proposed;
                    phases.decided_to_in_hand_ms += in_hand - decided;
                    phases.in_hand_to_delivered_ms += at - in_hand;
                }
            }
        }
        phases
    }
}

/// Total milliseconds a node's own delivered transactions spent in each
/// phase of confirmation ([`SimReport::latency_phases`]); divide by `txs`
/// for means, add field-wise across nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencyPhases {
    pub txs: u64,
    /// Waiting in the node's queue (Nagle, the propose gate, the window).
    pub submit_to_proposed_ms: u64,
    /// Dispersal and agreement: until the last BA of the delivering epoch.
    pub proposed_to_decided_ms: u64,
    /// Retrieval of that epoch's committed blocks, and its predecessors.
    pub decided_to_in_hand_ms: u64,
    /// Waiting for blocks the linking estimate names.
    pub in_hand_to_delivered_ms: u64,
}

struct Link {
    spec: LinkSpec,
    busy_until: u64,
    queue: SendQueue,
    /// Transmitted envelopes in flight, with their arrival times. Arrival
    /// times on one link are monotone (transmissions serialize and the
    /// latency is constant), so this is a plain FIFO — keeping the
    /// envelopes here instead of inside heap events keeps the global heap
    /// small and its entries a few words, which is what makes the event
    /// loop's per-event cost flat in cluster size (a 64-node cluster has
    /// tens of thousands of messages in flight at any instant).
    inflight: VecDeque<(u64, Envelope)>,
    /// Whether a heap event for this link's head arrival is outstanding.
    arrive_scheduled: bool,
}

/// Milliseconds of link capacity one frame carries of `ReturnChunk` bulk
/// before the high class is looked at again (the table in the crate docs).
const FRAME_QUANTUM_MS: u64 = 1;

/// No frame budget is smaller than this, so a continuation header (2 bytes
/// here) is never more than a fiftieth of its segment — and a link slower
/// than a header per millisecond still moves bulk.
const FRAME_BYTES_MIN: u64 = 100;

impl Link {
    /// Bytes of one frame: a whole number of milliseconds of the link's
    /// current capacity, so a full frame pays no round-up in
    /// [`LinkSpec::tx_ms`].
    fn frame_budget(&self) -> usize {
        let rate = self.spec.bytes_per_ms;
        (rate * FRAME_QUANTUM_MS.max(FRAME_BYTES_MIN.div_ceil(rate))) as usize
    }
}

enum EvKind {
    Submit {
        node: NodeId,
        /// Boxed so that every heap entry stays a few words.
        tx: Box<Tx>,
    },
    Poll {
        node: NodeId,
    },
    /// The head of the link's in-flight FIFO arrives.
    Arrive {
        from: NodeId,
        to: NodeId,
    },
    /// Poll the nodes that asked to be polled as this instant ends
    /// ([`Fabric::instant_polls`]), then pump every link due at it
    /// ([`Fabric::pumps`]).
    Pumps,
}

/// The tie-break key of [`EvKind::Pumps`]: above every node's, so an
/// instant's link pumps run after all of its node events.
const PUMPS_KEY: u16 = u16::MAX;

struct Ev {
    at: u64,
    /// Destination-affinity tie-break key: events at the same virtual time
    /// are concurrent, so any deterministic order is protocol-correct. We
    /// group them by the node whose state they touch — at N=64 a single
    /// millisecond carries thousands of arrivals, and processing each
    /// node's share as one burst keeps that node's epoch state cache-warm
    /// instead of hopping randomly across the whole cluster's. Link pumps
    /// come last ([`PUMPS_KEY`]).
    node_key: u16,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by (time, destination, insertion order) under std's
        // max-heap.
        (other.at, other.node_key, other.seq).cmp(&(self.at, self.node_key, self.seq))
    }
}

/// Everything of the simulation except the engines themselves: the link
/// fabric, the event heap and the recorded outcomes. Split out so a sink
/// borrowing the fabric can run alongside a mutably-borrowed engine.
struct Fabric {
    cfg: SimConfig,
    /// Row-major `n × n` directed links (the diagonal is unused: nodes
    /// loop their own traffic back internally).
    links: Vec<Link>,
    events: BinaryHeap<Ev>,
    /// Due link pumps, per instant: the indices into `links` to pump then.
    /// Each instant here has exactly one [`EvKind::Pumps`] heap event.
    pumps: BTreeMap<u64, Vec<u32>>,
    seq: u64,
    now: u64,
    last_activity: u64,
    events_processed: u64,
    scheduled_polls: BTreeSet<(u64, u16)>,
    /// Nodes that asked for a poll at or before the current instant, to
    /// run once its node events have: served by the instant's
    /// [`EvKind::Pumps`] event before its pumps, so no poll of this kind
    /// costs a heap entry.
    instant_polls: Vec<NodeId>,
    delivered: Vec<Vec<Arc<DeliveredBlock>>>,
    stat_events: Vec<(u64, NodeId, StatEvent)>,
    /// Per-node write-ahead logs (the simulated disks). `None` until the
    /// scenario opts a node in with [`Simulation::enable_store`]. Kept on
    /// the fabric, not the engine, so they survive [`Simulation::crash`].
    stores: Vec<Option<MemoryStore>>,
    purged_envelopes: u64,
    purged_bytes: u64,
    /// The installed fault schedule, if any (see [`Simulation::set_chaos`]).
    chaos: Option<chaos::ChaosState>,
}

impl Fabric {
    fn push_event(&mut self, at: u64, kind: EvKind) {
        let node_key = match &kind {
            EvKind::Submit { node, .. } | EvKind::Poll { node } => node.0,
            EvKind::Arrive { to, .. } => to.0,
            EvKind::Pumps => PUMPS_KEY,
        };
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Ev {
            at,
            node_key,
            seq,
            kind,
        });
    }

    /// Pump link `li` at `at`. One heap event per instant serves every link
    /// due then, so scheduling costs a map entry, not a heap entry.
    fn schedule_pump(&mut self, at: u64, li: usize) {
        match self.pumps.entry(at) {
            Entry::Occupied(mut due) => due.get_mut().push(li as u32),
            Entry::Vacant(slot) => {
                slot.insert(vec![li as u32]);
                self.push_event(at, EvKind::Pumps);
            }
        }
    }

    /// Poll `node` when the current instant's node events have run.
    fn poll_at_instant_end(&mut self, node: NodeId) {
        if self.instant_polls.contains(&node) {
            return;
        }
        self.instant_polls.push(node);
        if !self.pumps.contains_key(&self.now) {
            self.pumps.insert(self.now, Vec::new());
            self.push_event(self.now, EvKind::Pumps);
        }
    }

    /// Run the pumps due at `at`, in `(from, to)` order. The instant's node
    /// events have all run ([`PUMPS_KEY`]), so a frame that starts now
    /// carries everything queued up to now, whichever of them the heap
    /// popped first.
    fn run_pumps(&mut self, at: u64) {
        let mut due = self.pumps.remove(&at).unwrap_or_default();
        due.sort_unstable();
        due.dedup();
        self.events_processed += due.len() as u64;
        for li in due {
            self.pump_link(li as usize);
        }
    }

    /// Start the next transmission on link `li` if it is idle, and keep a
    /// pump due at the end of it while the link has backlog.
    ///
    /// Transmissions are *frames*: everything queued of the high class,
    /// then `ReturnChunk` bulk up to one quantum of link capacity
    /// ([`Link::frame_budget`]), goes out as a single transmission — the way
    /// a real transport coalesces small messages into segments and cuts
    /// large ones. Without framing, every sub-millisecond message would be
    /// charged the 1 ms event-grid minimum (a ~140× bandwidth distortion for
    /// a 9-byte BA vote on a 10 Mbit/s link) and would cost its own pair of
    /// heap events;
    /// with it, both the virtual byte accounting and the event count track
    /// the frame. Only a high-class envelope larger than the quantum (a
    /// dispersal `Chunk`) makes a frame longer than that.
    fn pump_link(&mut self, li: usize) {
        let n = self.cfg.cluster.n;
        let (from, to) = (NodeId((li / n) as u16), NodeId((li % n) as u16));
        let (arrive_at, next_pump) = pump_link_inner(
            &mut self.links[li],
            self.chaos.as_mut(),
            li,
            from,
            to,
            self.now,
        );
        if let Some(at) = arrive_at {
            self.push_event(at, EvKind::Arrive { from, to });
        }
        if let Some(at) = next_pump {
            self.schedule_pump(at, li);
        }
    }
}

/// Core of [`Fabric::pump_link`], split out so the link and the chaos
/// state borrow independently of the event heap. Mutates the link (and the
/// link's fault stream) and returns when its next frame arrives and when it
/// must be pumped again, if at all.
fn pump_link_inner(
    link: &mut Link,
    mut chaos: Option<&mut chaos::ChaosState>,
    li: usize,
    from: NodeId,
    to: NodeId,
    now: u64,
) -> (Option<u64>, Option<u64>) {
    // A severed link holds its queue — a partition is an outage, not loss —
    // and is busy until the earliest heal time. Envelopes already
    // transmitted still arrive, like packets on the wire when a cable is
    // cut.
    if let Some(heal) = chaos
        .as_ref()
        .and_then(|c| c.severed_until(from.idx(), to.idx(), now))
    {
        link.busy_until = link.busy_until.max(heal).max(now + 1);
    }
    if link.busy_until > now {
        // Severed: come back when the link is free, if it has backlog.
        return (None, (!link.queue.is_empty()).then_some(link.busy_until));
    }
    // Probabilistic faults only apply inside the plan's horizon, so every
    // scenario ends on a clean network.
    let mut faulty = chaos.take().filter(|c| c.plan.horizon_ms > now);
    // Fill the frame: the high class whole, bulk to the byte. Fault
    // decisions are per envelope, taken as its last segment leaves; the
    // link time of every segment is charged either way.
    let budget = link.frame_budget();
    let mut frame_bytes = 0usize;
    let start = link.inflight.len();
    while frame_bytes < budget {
        let Some(seg) = link.queue.pop_segment(budget - frame_bytes) else {
            break;
        };
        frame_bytes += seg.wire_bytes();
        let Some(env) = seg.env else { continue };
        if let Some(chaos::ChaosState {
            plan,
            link_rngs,
            dropped,
            duplicated,
        }) = faulty.as_deref_mut()
        {
            let rng = &mut link_rngs[li];
            if plan.drop > 0.0 && rng.gen_bool(plan.drop) {
                *dropped += 1;
                continue; // the bytes were charged; the payload is lost
            }
            if plan.duplicate > 0.0 && rng.gen_bool(plan.duplicate) {
                *duplicated += 1;
                link.inflight.push_back((0, env.clone()));
            }
        }
        link.inflight.push_back((0, env)); // arrival patched below
    }
    if frame_bytes == 0 {
        return (None, None);
    }
    let tx_ms = link.spec.tx_ms(frame_bytes);
    link.busy_until = now + tx_ms;
    let kept = link.inflight.len() - start;
    let mut events = (None, None);
    if kept > 0 {
        let mut arrive_at = now + tx_ms + link.spec.latency_ms;
        if let Some(chaos::ChaosState {
            plan, link_rngs, ..
        }) = faulty
        {
            let rng = &mut link_rngs[li];
            if plan.jitter_ms > 0 {
                arrive_at += rng.gen_range(0..plan.jitter_ms + 1);
            }
            if plan.reorder > 0.0 && kept > 1 && rng.gen_bool(plan.reorder) {
                // Fisher–Yates over the frame's slice of the FIFO: its
                // envelopes share one arrival instant, so shuffling
                // changes handling order without touching timing.
                for i in (1..kept).rev() {
                    let j = rng.gen_range(0..i + 1);
                    link.inflight.swap(start + i, start + j);
                }
            }
        }
        if start > 0 {
            // Arrival times in the FIFO must stay monotone (one Arrive
            // event serves the whole queue): jitter never lets a later
            // frame overtake the one ahead of it.
            arrive_at = arrive_at.max(link.inflight[start - 1].0);
        }
        for slot in link.inflight.iter_mut().skip(start) {
            slot.0 = arrive_at;
        }
        if !link.arrive_scheduled {
            link.arrive_scheduled = true;
            events.0 = Some(arrive_at);
        }
    }
    if !link.queue.is_empty() {
        events.1 = Some(link.busy_until);
    }
    events
}

impl Fabric {
    /// Queue `env` on the directed link's [`SendQueue`]. A link with
    /// backlog always has a pump due — when its transmission under way ends
    /// or, if it is idle, after the current instant's node events — so only
    /// an envelope pushed onto an empty queue schedules one.
    fn send(&mut self, from: NodeId, to: NodeId, env: Envelope) {
        assert_ne!(from, to, "nodes must loop self-traffic back internally");
        self.last_activity = self.now;
        let li = from.idx() * self.cfg.cluster.n + to.idx();
        let link = &mut self.links[li];
        let idle = link.queue.is_empty();
        link.queue.push(env);
        if idle {
            let at = link.busy_until.max(self.now);
            self.schedule_pump(at, li);
        }
    }
}

/// The per-engine-call effect sink: routes effects of the engine currently
/// holding the turn (`from`) into the fabric.
struct FabricSink<'a> {
    from: NodeId,
    fabric: &'a mut Fabric,
}

impl EffectSink for FabricSink<'_> {
    fn send(&mut self, to: NodeId, env: Envelope) {
        self.fabric.send(self.from, to, env);
    }

    fn deliver(&mut self, block: DeliveredBlock) {
        self.fabric.last_activity = self.fabric.now;
        self.fabric.delivered[self.from.idx()].push(Arc::new(block));
    }

    /// A hint at or before now is a poll at now, after the instant's node
    /// events and before its link pumps ([`PUMPS_KEY`]), so what the engine
    /// held for the instant rides its frames.
    fn wake_at(&mut self, at: u64) {
        if at <= self.fabric.now {
            return self.fabric.poll_at_instant_end(self.from);
        }
        if self.fabric.scheduled_polls.insert((at, self.from.0)) {
            self.fabric.push_event(at, EvKind::Poll { node: self.from });
        }
    }

    fn stat(&mut self, event: StatEvent) {
        self.fabric
            .stat_events
            .push((self.fabric.now, self.from, event));
    }

    fn persists(&self) -> bool {
        self.fabric.stores[self.from.idx()].is_some()
    }

    fn persist(&mut self, record: StoreRecord) {
        if let Some(store) = self.fabric.stores[self.from.idx()].as_mut() {
            store
                .append(&record.to_bytes())
                .expect("memory append is infallible");
        }
    }

    fn purge_returns(&mut self, to: NodeId, epoch: Epoch, index: NodeId) {
        let n = self.fabric.cfg.cluster.n;
        let link = &mut self.fabric.links[self.from.idx() * n + to.idx()];
        let (count, bytes) = link.queue.purge_returns(epoch, index);
        self.fabric.purged_envelopes += count as u64;
        self.fabric.purged_bytes += bytes as u64;
    }
}

/// A deterministic discrete-event run of one cluster.
pub struct Simulation {
    nodes: Vec<Box<dyn Engine>>,
    fabric: Fabric,
    /// Reusable buffer for one arrival burst (all envelopes of a frame).
    burst: Vec<Envelope>,
    /// The shared dispersal oracle in fluid mode.
    store: Option<BlockStore>,
}

/// Construct the engine occupying one slot, with the coder family the
/// simulation runs (fluid or real) — faulty members must use the same
/// coder as honest ones so their dispersals take the same wire shape.
fn build_engine(
    cluster: &ClusterConfig,
    variant: ProtocolVariant,
    store: Option<&BlockStore>,
    node: usize,
    kind: SimNodeKind,
) -> Box<dyn Engine> {
    fn boxed<C>(id: NodeId, cfg: NodeConfig, coder: C, kind: SimNodeKind) -> Box<dyn Engine>
    where
        C: dl_core::BlockCoder + 'static,
    {
        match kind {
            SimNodeKind::Honest => Box::new(Node::new(id, cfg, coder)),
            kind => Box::new(Adversary::new(id, cfg.cluster, coder, kind)),
        }
    }
    let id = NodeId(node as u16);
    let cfg = NodeConfig::new(cluster.clone(), variant);
    match store {
        Some(store) => boxed(id, cfg, FluidCoder::new(cluster, store.clone()), kind),
        None => boxed(id, cfg, RealBlockCoder::new(cluster), kind),
    }
}

impl Simulation {
    pub fn new(cfg: SimConfig) -> Simulation {
        let n = cfg.cluster.n;
        let store = cfg.fluid.then(BlockStore::new);
        let nodes = (0..n)
            .map(|i| {
                build_engine(
                    &cfg.cluster,
                    cfg.variant,
                    store.as_ref(),
                    i,
                    SimNodeKind::Honest,
                )
            })
            .collect();
        let links = (0..n * n)
            .map(|_| Link {
                spec: cfg.default_link,
                busy_until: 0,
                queue: SendQueue::new(),
                inflight: VecDeque::new(),
                arrive_scheduled: false,
            })
            .collect();
        Simulation {
            nodes,
            fabric: Fabric {
                cfg,
                links,
                events: BinaryHeap::new(),
                pumps: BTreeMap::new(),
                seq: 0,
                now: 0,
                last_activity: 0,
                events_processed: 0,
                scheduled_polls: BTreeSet::new(),
                instant_polls: Vec::new(),
                delivered: vec![Vec::new(); n],
                stat_events: Vec::new(),
                stores: vec![None; n],
                purged_envelopes: 0,
                purged_bytes: 0,
                chaos: None,
            },
            burst: Vec::new(),
            store,
        }
    }

    /// Replace the slot of `node` with a faulty member (using the same
    /// coder family — fluid or real — as the rest of the cluster). Call
    /// before the first `run_until_quiescent`.
    pub fn set_node_kind(&mut self, node: usize, kind: SimNodeKind) {
        let engine = build_engine(
            &self.fabric.cfg.cluster,
            self.fabric.cfg.variant,
            self.store.as_ref(),
            node,
            kind,
        );
        self.set_engine(node, engine);
    }

    /// Install an arbitrary engine into a cluster slot (custom faulty
    /// members, instrumented wrappers, …).
    pub fn set_engine(&mut self, node: usize, engine: Box<dyn Engine>) {
        assert_eq!(engine.id(), NodeId(node as u16), "engine id/slot mismatch");
        self.nodes[node] = engine;
    }

    /// Override one directed link.
    pub fn set_link(&mut self, from: usize, to: usize, spec: LinkSpec) {
        self.fabric.links[from * self.fabric.cfg.cluster.n + to].spec = spec;
    }

    /// Give `node` a different uplink to every peer (the paper's
    /// "one slow node" scenarios).
    pub fn set_uplink(&mut self, node: usize, spec: LinkSpec) {
        for to in 0..self.fabric.cfg.cluster.n {
            if to != node {
                self.set_link(node, to, spec);
            }
        }
    }

    /// Install a seed-driven fault schedule on the link fabric (see
    /// [`ChaosPlan`]). The same plan over the same scenario replays
    /// identically, message for message.
    pub fn set_chaos(&mut self, plan: ChaosPlan) {
        let n = self.fabric.cfg.cluster.n;
        self.fabric.chaos = Some(chaos::ChaosState::new(plan, n));
    }

    /// `(dropped, duplicated)` envelope counts injected by the chaos plan
    /// so far.
    pub fn chaos_counters(&self) -> (u64, u64) {
        self.fabric
            .chaos
            .as_ref()
            .map_or((0, 0), |c| (c.dropped, c.duplicated))
    }

    /// Give `node` a simulated disk: a [`MemoryStore`] write-ahead log that
    /// the engine's `Persist` effects append to and that survives
    /// [`Simulation::crash`] / [`Simulation::revive`].
    pub fn enable_store(&mut self, node: usize) {
        self.fabric.stores[node] = Some(MemoryStore::new());
    }

    /// Crash `node`: its slot goes mute (receives and sends nothing) and
    /// everything still queued on its uplinks is lost, the unsent remainder
    /// of a partly-sent chunk with it (a dead process does not finish a
    /// frame) — only the write-ahead log enabled with
    /// [`Simulation::enable_store`] survives. Envelopes already transmitted
    /// (in flight) still arrive, like packets on the wire at the instant a
    /// real process dies.
    pub fn crash(&mut self, node: usize) {
        self.set_node_kind(node, SimNodeKind::Mute);
        for to in 0..self.fabric.cfg.cluster.n {
            if to != node {
                let n = self.fabric.cfg.cluster.n;
                self.fabric.links[node * n + to].queue = SendQueue::new();
            }
        }
    }

    /// Restart a crashed `node`: build a fresh honest engine, replay its
    /// write-ahead log through [`Engine::restore`], and schedule its first
    /// poll — from there the catch-up sync protocol closes the gap to the
    /// cluster through ordinary retrieval traffic.
    pub fn revive(&mut self, node: usize) {
        let mut engine = build_engine(
            &self.fabric.cfg.cluster,
            self.fabric.cfg.variant,
            self.store.as_ref(),
            node,
            SimNodeKind::Honest,
        );
        if let Some(store) = &self.fabric.stores[node] {
            let records: Vec<StoreRecord> = store
                .replay()
                .expect("memory replay is infallible")
                .iter()
                .map(|raw| StoreRecord::from_bytes(raw).expect("log written by this run"))
                .collect();
            engine.restore(&records);
        }
        self.set_engine(node, engine);
        let at = self.fabric.now + 1;
        if self.fabric.scheduled_polls.insert((at, node as u16)) {
            self.fabric.push_event(
                at,
                EvKind::Poll {
                    node: NodeId(node as u16),
                },
            );
        }
    }

    /// Schedule a client transaction submission at `at_ms`.
    pub fn submit_at(&mut self, node: usize, at_ms: u64, tx: Tx) {
        self.fabric.push_event(
            at_ms,
            EvKind::Submit {
                node: NodeId(node as u16),
                tx: Box::new(tx),
            },
        );
    }

    /// Run until every event is processed or virtual time passes `max_ms`.
    /// Hitting the deadline leaves the pending events (including the one
    /// past the deadline) in place, so the run can be resumed with a later
    /// deadline.
    pub fn run_until_quiescent(&mut self, max_ms: u64) -> SimReport {
        let Simulation {
            nodes,
            fabric,
            burst,
            ..
        } = self;
        let mut quiesced = true;
        while let Some(ev) = fabric.events.peek() {
            if ev.at > max_ms {
                quiesced = false;
                break;
            }
            let ev = fabric.events.pop().expect("peeked above");
            fabric.now = fabric.now.max(ev.at);
            let now = fabric.now;
            match ev.kind {
                EvKind::Submit { node, tx } => {
                    fabric.events_processed += 1;
                    nodes[node.idx()].submit_tx(*tx, now, &mut FabricSink { from: node, fabric });
                }
                EvKind::Poll { node } => {
                    fabric.events_processed += 1;
                    fabric.scheduled_polls.remove(&(ev.at, node.0));
                    nodes[node.idx()].poll(now, &mut FabricSink { from: node, fabric });
                }
                EvKind::Arrive { from, to } => {
                    // Deliver every in-flight envelope that has arrived by
                    // now in one burst — a frame's messages share one
                    // arrival instant and one heap event. Each delivered
                    // envelope counts as a processed event (the unit of
                    // protocol work is the message, not the heap pop).
                    let link = &mut fabric.links[from.idx() * fabric.cfg.cluster.n + to.idx()];
                    while let Some(&(at, _)) = link.inflight.front() {
                        if at > now {
                            break;
                        }
                        let (_, env) = link.inflight.pop_front().expect("checked front");
                        burst.push(env);
                    }
                    let next_at = match link.inflight.front() {
                        Some(&(next_at, _)) => Some(next_at),
                        None => {
                            link.arrive_scheduled = false;
                            None
                        }
                    };
                    if let Some(next_at) = next_at {
                        // Flag stays true: exactly one arrival event
                        // remains outstanding for this link.
                        fabric.push_event(next_at, EvKind::Arrive { from, to });
                    }
                    fabric.events_processed += burst.len().max(1) as u64;
                    fabric.last_activity = now;
                    nodes[to.idx()].handle_burst(
                        from,
                        burst,
                        now,
                        &mut FabricSink { from: to, fabric },
                    );
                }
                EvKind::Pumps => {
                    for node in std::mem::take(&mut fabric.instant_polls) {
                        fabric.events_processed += 1;
                        nodes[node.idx()].poll(now, &mut FabricSink { from: node, fabric });
                    }
                    fabric.run_pumps(ev.at);
                }
            }
        }
        SimReport {
            now_ms: fabric.now,
            last_activity_ms: fabric.last_activity,
            quiesced,
            events_processed: fabric.events_processed,
            delivered: fabric.delivered.clone(),
            stats: nodes.iter().map(|n| n.stats()).collect(),
            events: fabric.stat_events.clone(),
            purged_envelopes: fabric.purged_envelopes,
            purged_bytes: fabric.purged_bytes,
        }
    }

    /// Virtual time of the last processed event.
    pub fn now_ms(&self) -> u64 {
        self.fabric.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_order_is_time_then_node_then_fifo() {
        let mut heap: BinaryHeap<Ev> = BinaryHeap::new();
        let ev = |at, node_key, seq| Ev {
            at,
            node_key,
            seq,
            kind: EvKind::Poll {
                node: NodeId(node_key),
            },
        };
        heap.push(ev(10, 0, 1));
        heap.push(ev(5, PUMPS_KEY, 3));
        heap.push(ev(5, 1, 2));
        heap.push(ev(5, 1, 4));
        heap.push(ev(5, 2, 0));
        let order: Vec<(u64, u16, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.at, e.node_key, e.seq))
            .collect();
        // Same-time events group by destination node (they are concurrent,
        // so this is just a deterministic tie-break), FIFO within a node;
        // the instant's link pumps come last, however old.
        assert_eq!(
            order,
            vec![
                (5, 1, 2),
                (5, 1, 4),
                (5, 2, 0),
                (5, PUMPS_KEY, 3),
                (10, 0, 1)
            ]
        );
    }

    #[test]
    fn transmission_time_charges_bytes() {
        let spec = LinkSpec {
            latency_ms: 5,
            bytes_per_ms: 100,
        };
        assert_eq!(spec.tx_ms(1), 1);
        assert_eq!(spec.tx_ms(100), 1);
        assert_eq!(spec.tx_ms(101), 2);
        assert_eq!(spec.tx_ms(1000), 10);
    }

    #[test]
    fn idle_cluster_quiesces_immediately() {
        let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
        let report = sim.run_until_quiescent(10_000);
        assert!(report.quiesced);
        assert_eq!(report.now_ms, 0);
        assert!(report.delivered.iter().all(Vec::is_empty));
    }

    #[test]
    fn deadline_preserves_pending_events_for_resume() {
        let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
        sim.submit_at(0, 0, Tx::synthetic(NodeId(0), 0, 0, 256));
        // Stop mid-protocol: the Nagle delay alone is 100 ms, so nothing
        // can have delivered yet and events must be pending.
        let partial = sim.run_until_quiescent(150);
        assert!(!partial.quiesced);
        assert_eq!(partial.stats[0].unwrap().txs_delivered, 0);
        // Resuming with a later deadline must finish the run: no event
        // (e.g. an in-flight chunk) was lost at the deadline.
        let full = sim.run_until_quiescent(120_000);
        assert!(full.quiesced, "resumed run did not finish");
        for i in 0..4 {
            assert_eq!(full.stats[i].unwrap().txs_delivered, 1, "node {i}");
        }
    }

    #[test]
    fn single_tx_roundtrip() {
        let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
        sim.submit_at(0, 0, Tx::synthetic(NodeId(0), 0, 0, 256));
        let report = sim.run_until_quiescent(120_000);
        assert!(report.quiesced, "simulation did not quiesce");
        for i in 0..4 {
            assert_eq!(report.stats[i].unwrap().txs_delivered, 1, "node {i}");
        }
        // Confirmation latency is sane: at least one network round trip
        // past the Nagle delay, and well under the deadline.
        let delivered_at = report.delivered[0]
            .iter()
            .find(|d| d.block.as_ref().is_some_and(|b| !b.body.is_empty()))
            .unwrap()
            .delivered_ms;
        assert!(delivered_at >= 100 + 2 * LinkSpec::WAN.latency_ms);
        assert!(delivered_at < 10_000, "took {delivered_at} ms");
    }
}
