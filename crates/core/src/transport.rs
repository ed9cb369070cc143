//! The §5 two-class prioritized [`SendQueue`] with its segment cursor.
//!
//! The paper's §5 send rule is a property of the *transport*, not of any
//! one driver: both the simulator's link model and the real TCP transport
//! (`dl-net`) drain a [`SendQueue`] per directed peer link through the one
//! [`SendQueue::pop_segment`], so the prioritization measured in virtual
//! time is the same code that runs on real sockets. The rule, as
//! implemented:
//!
//! * **High priority, one FIFO, handed out whole**: everything a node needs
//!   to take part in agreement (`Chunk`, `GotChunk`, `Ready`, BA and sync
//!   messages) *and* the retrieval control messages `RequestChunk` and
//!   `Cancel`.
//! * **Low priority, in epoch order, FIFO within an epoch, handed out in
//!   segments**: `ReturnChunk` — the bulk of a retrieval, and the only
//!   low-priority traffic. A driver asks for at most one quantum of it at
//!   a time and looks at the high class again before asking for more, so a
//!   vote never waits for more than a quantum of a chunk that is already on
//!   the wire. A partly-sent chunk stays at the head of its class until it
//!   is finished: anything of the high class overtakes it, no other
//!   `ReturnChunk` does, older epoch or not.
//!
//! The control messages are 4 bytes and steer the bulk: a `RequestChunk`
//! parked behind seconds of queued chunks starts its own chunk that much
//! later, and a `Cancel` (§6.3) parked there arrives after the chunk it was
//! meant to stop. Keeping them out of the bulk queue costs the
//! high-priority class nothing measurable and is what lets a retrieval be
//! steered at all (see `node::retrieval` for who is asked).
//!
//! Measured and left out: a third tier putting the ~20–60-byte control
//! messages ahead of dispersal `Chunk`s (and segmenting those too) bought
//! 3 % more goodput on `vbw-sat-dl` and took `vbw-sat-hb`'s wire bytes to
//! 4.4 % of a 5 % bound (README, "Priorities").

use std::collections::{BTreeMap, VecDeque};

use dl_wire::{
    frame_header_len, max_body_len, Envelope, Epoch, NodeId, ProtoMsg, TrafficClass, VidMsg,
    WireEncode,
};

/// One transmission unit of a [`SendQueue`]: a whole envelope, or a run of
/// bytes of the `ReturnChunk` at the head of the low class.
#[derive(Debug, PartialEq, Eq)]
pub struct Segment {
    /// Where this segment starts in the envelope's encoding
    /// ([`dl_wire::WireEncode::encode`]); 0 opens the envelope.
    pub offset: usize,
    /// Bytes of the encoding this segment carries.
    pub len: usize,
    /// The envelope, handed over with its last segment.
    pub env: Option<Envelope>,
}

impl Segment {
    /// What the segment occupies on a link: its bytes plus its frame
    /// header. A whole envelope's is its [`Envelope::wire_size`]; cutting
    /// one into `s` segments costs `s − 1` headers more.
    pub fn wire_bytes(&self) -> usize {
        framed(self.len)
    }
}

/// The per-link send queue: hands out high-priority envelopes first, then
/// `ReturnChunk`s in epoch order, FIFO within a class. Tracks queued wire
/// bytes so transports can apply byte-bounded backpressure.
///
/// Representation matters here: under retrieval backlog a single link can
/// queue hundreds of thousands of envelopes, and the old single
/// `BinaryHeap` paid an O(log n) sift over scattered ~130-byte entries on
/// every push *and* pop — the dominant superlinear cost in large-N
/// simulations. The §5 priority order is static (two classes, retrieval
/// keyed by epoch), so class-segregated FIFOs give the exact same drain
/// order with O(1) contiguous push/pop: a `VecDeque` for dispersal and one
/// `VecDeque` per active retrieval epoch (a handful at any time) in a
/// `BTreeMap`. Each entry carries its encoding's length, measured once at
/// [`SendQueue::push`]: the cursor reads it on every frame of a chunk.
#[derive(Default)]
pub struct SendQueue {
    dispersal: VecDeque<Queued>,
    retrieval: BTreeMap<u64, VecDeque<Queued>>,
    /// The segment cursor: the `ReturnChunk` being sent and how many bytes
    /// of its encoding have been handed out. Held outside its epoch bucket
    /// so that nothing pushed later sorts ahead of it.
    open: Option<(Queued, usize)>,
    len: usize,
    bytes: usize,
}

/// A queued envelope and the length of its encoding.
struct Queued {
    env: Envelope,
    body: usize,
}

/// Link bytes of a frame carrying `len` bytes of an encoding.
fn framed(len: usize) -> usize {
    len + frame_header_len(len)
}

impl SendQueue {
    pub fn new() -> SendQueue {
        SendQueue::default()
    }

    /// Queue `env` with its [`TrafficClass`] priority.
    pub fn push(&mut self, env: Envelope) {
        let body = env.encoded_len();
        self.bytes += framed(body);
        self.len += 1;
        let class = env.class();
        let queued = Queued { env, body };
        match class {
            TrafficClass::Dispersal => self.dispersal.push_back(queued),
            TrafficClass::Retrieval(epoch) => {
                self.retrieval.entry(epoch.0).or_default().push_back(queued)
            }
        }
    }

    /// The next thing to put on the link: the head of the high class,
    /// whole and whatever its size; otherwise as much of the head
    /// `ReturnChunk` as fits `max_bytes` of link (its [`Segment::wire_bytes`]
    /// never exceed it). `None` when nothing is queued — or when
    /// `max_bytes` has no room for a frame header and a byte of bulk, which
    /// [`SendQueue::is_empty`] tells apart.
    pub fn pop_segment(&mut self, max_bytes: usize) -> Option<Segment> {
        if let Some(Queued { env, body }) = self.dispersal.pop_front() {
            self.bytes -= framed(body);
            self.len -= 1;
            return Some(Segment {
                offset: 0,
                len: body,
                env: Some(env),
            });
        }
        let room = Some(max_body_len(max_bytes)).filter(|&r| r > 0)?;
        if self.open.is_none() {
            let mut entry = self.retrieval.first_entry()?;
            let queued = entry.get_mut().pop_front().expect("no empty buckets");
            if entry.get().is_empty() {
                entry.remove();
            }
            self.open = Some((queued, 0));
        }
        let (open, sent) = self.open.as_mut().expect("opened above");
        let offset = *sent;
        let left = open.body - offset;
        if left > room {
            *sent += room;
            self.bytes -= framed(left) - framed(left - room);
            return Some(Segment {
                offset,
                len: room,
                env: None,
            });
        }
        self.bytes -= framed(left);
        self.len -= 1;
        Some(Segment {
            offset,
            len: left,
            env: self.open.take().map(|(open, _)| open.env),
        })
    }

    /// Benchmark-only: `dl-e2e/src/layers.rs` (frozen) times the queue
    /// through this name. Drivers call [`SendQueue::pop_segment`].
    pub fn pop(&mut self) -> Option<Envelope> {
        self.pop_segment(usize::MAX).and_then(|seg| seg.env)
    }

    /// The partly-sent `ReturnChunk` the cursor stands in, if any — a
    /// driver that writes real bytes encodes it when its first segment is
    /// handed out.
    pub fn partly_sent(&self) -> Option<&Envelope> {
        self.open.as_ref().map(|(open, _)| &open.env)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total `wire_size` of everything queued (framing included); of a
    /// partly-sent chunk, what sending the rest in one segment would take.
    pub fn queued_bytes(&self) -> usize {
        self.bytes
    }

    /// Drop every queued `ReturnChunk` or `ReturnBare` for `(epoch, index)`
    /// — the receiver cancelled this retrieval, so the chunks are dead
    /// weight (§5's early cancellation, extended to the send queue) — the
    /// unsent remainder of a partly-sent one included. Returns
    /// `(envelopes, bytes)` purged.
    pub fn purge_returns(&mut self, epoch: Epoch, index: NodeId) -> (usize, usize) {
        let mut count = 0usize;
        let mut bytes = 0usize;
        if let Some((open, sent)) = &self.open {
            if open.env.epoch == epoch && open.env.index == index {
                count = 1;
                bytes = framed(open.body - sent);
                self.open = None;
            }
        }
        if let Some(bucket) = self.retrieval.get_mut(&epoch.0) {
            bucket.retain(|Queued { env, body }| {
                let dead = env.index == index
                    && matches!(
                        env.payload,
                        ProtoMsg::Vid(VidMsg::ReturnChunk { .. } | VidMsg::ReturnBare { .. })
                    );
                if dead {
                    count += 1;
                    bytes += framed(*body);
                }
                !dead
            });
            if bucket.is_empty() {
                self.retrieval.remove(&epoch.0);
            }
        }
        self.len -= count;
        self.bytes -= bytes;
        (count, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_crypto::Hash;
    use dl_wire::{Epoch, VidMsg, WireEncode};

    fn retrieval(e: u64) -> Envelope {
        return_chunk(e, 0)
    }

    fn request(e: u64) -> Envelope {
        Envelope::vid(Epoch(e), NodeId(0), VidMsg::RequestChunk)
    }

    fn dispersal(e: u64) -> Envelope {
        Envelope::vid(
            Epoch(e),
            NodeId(0),
            VidMsg::GotChunk {
                root: Hash::digest(b"r"),
            },
        )
    }

    fn return_chunk(e: u64, index: u16) -> Envelope {
        sized_return_chunk(e, index, 1000)
    }

    fn sized_return_chunk(e: u64, index: u16, len: u32) -> Envelope {
        Envelope::vid(
            Epoch(e),
            NodeId(index),
            VidMsg::ReturnChunk {
                root: Hash::digest(b"r"),
                proof: dl_crypto::MerkleProof {
                    index: 0,
                    leaf_count: 1,
                    path: Vec::new(),
                },
                payload: dl_wire::ChunkPayload::Synthetic { len },
            },
        )
    }

    /// Everything queued, each envelope in one piece.
    fn drain(q: &mut SendQueue) -> Vec<Envelope> {
        std::iter::from_fn(|| q.pop_segment(usize::MAX))
            .map(|seg| seg.env.expect("an unbounded segment finishes its envelope"))
            .collect()
    }

    #[test]
    fn hands_out_dispersal_first_then_retrieval_in_epoch_order() {
        let mut q = SendQueue::new();
        q.push(retrieval(7));
        q.push(retrieval(2));
        q.push(dispersal(9));
        q.push(dispersal(1));
        let order: Vec<TrafficClass> = drain(&mut q).iter().map(Envelope::class).collect();
        assert_eq!(
            order,
            vec![
                TrafficClass::Dispersal,
                TrafficClass::Dispersal,
                TrafficClass::Retrieval(Epoch(2)),
                TrafficClass::Retrieval(Epoch(7)),
            ]
        );
    }

    #[test]
    fn retrieval_control_overtakes_queued_chunks() {
        // A request and a cancel queued behind chunk bulk — of an earlier
        // epoch, even — leave first, in the order they were queued.
        let mut q = SendQueue::new();
        q.push(return_chunk(1, 3));
        q.push(return_chunk(2, 3));
        let cancel = Envelope::vid(Epoch(9), NodeId(0), VidMsg::Cancel);
        q.push(request(9));
        q.push(cancel.clone());
        assert_eq!(
            drain(&mut q),
            vec![request(9), cancel, return_chunk(1, 3), return_chunk(2, 3)]
        );
    }

    #[test]
    fn fifo_within_a_class() {
        let mut q = SendQueue::new();
        // Two dispersal messages for different epochs: insertion order wins,
        // not epoch (dispersal is one class).
        let a = dispersal(5);
        let b = dispersal(1);
        q.push(a.clone());
        q.push(b.clone());
        assert_eq!(drain(&mut q), vec![a, b]);
        assert_eq!(q.pop_segment(usize::MAX), None);
    }

    #[test]
    fn high_class_overtakes_a_half_sent_chunk_and_no_other_chunk_does() {
        let mut q = SendQueue::new();
        let chunk = return_chunk(5, 1);
        let body = chunk.encoded_len();
        q.push(chunk.clone());
        let first = q.pop_segment(400).expect("bulk queued");
        assert_eq!((first.offset, first.len, &first.env), (0, 398, &None));
        assert_eq!(first.wire_bytes(), 400);
        assert_eq!(q.partly_sent(), Some(&chunk));
        // Pushed while the chunk is half sent: a vote, and a chunk of an
        // *older* epoch, which would have sorted ahead of it in the bucket.
        q.push(dispersal(9));
        q.push(return_chunk(2, 1));
        let vote = q.pop_segment(400).expect("vote queued");
        assert_eq!(vote.env, Some(dispersal(9)));
        assert_eq!(vote.wire_bytes(), dispersal(9).wire_size());
        // The half-sent chunk resumes where it stopped and is handed over
        // with its last byte; only then the older epoch's.
        let second = q.pop_segment(400).expect("chunk resumes");
        assert_eq!((second.offset, second.len, &second.env), (398, 398, &None));
        let last = q.pop_segment(usize::MAX).expect("chunk finishes");
        assert_eq!((last.offset, last.len), (796, body - 796));
        assert_eq!(last.env, Some(chunk));
        assert_eq!(q.partly_sent(), None);
        assert_eq!(drain(&mut q), vec![return_chunk(2, 1)]);
    }

    #[test]
    fn a_budget_without_room_for_bulk_hands_out_the_high_class_only() {
        let mut q = SendQueue::new();
        q.push(return_chunk(1, 0));
        assert_eq!(q.pop_segment(1), None);
        assert!(!q.is_empty(), "the chunk is still queued");
        q.push(dispersal(1));
        assert_eq!(q.pop_segment(0).and_then(|s| s.env), Some(dispersal(1)));
        let seg = q.pop_segment(2).expect("one byte fits");
        assert_eq!((seg.offset, seg.len, seg.env), (0, 1, None));
    }

    #[test]
    fn purge_returns_drops_only_the_cancelled_retrieval() {
        let mut q = SendQueue::new();
        q.push(return_chunk(3, 1));
        q.push(return_chunk(3, 2)); // same epoch, different proposer: kept
        q.push(request(3)); // same retrieval, but not a ReturnChunk: kept
        q.push(return_chunk(4, 1)); // different epoch: kept
        q.push(dispersal(5));
        let before = q.queued_bytes();
        let victim_bytes = return_chunk(3, 1).wire_size();
        let (count, bytes) = q.purge_returns(Epoch(3), NodeId(1));
        assert_eq!((count, bytes), (1, victim_bytes));
        assert_eq!(q.len(), 4);
        assert_eq!(q.queued_bytes(), before - victim_bytes);
        // Untouched epoch with no matching bucket: a no-op.
        assert_eq!(q.purge_returns(Epoch(9), NodeId(1)), (0, 0));
        // Drain order still honors the class priorities.
        let classes: Vec<TrafficClass> = drain(&mut q).iter().map(Envelope::class).collect();
        assert_eq!(
            classes,
            vec![
                TrafficClass::Dispersal,
                TrafficClass::Dispersal,
                TrafficClass::Retrieval(Epoch(3)),
                TrafficClass::Retrieval(Epoch(4)),
            ]
        );
    }

    #[test]
    fn len_and_queued_bytes_stay_exact_through_partial_sends_and_purges() {
        let mut q = SendQueue::new();
        assert_eq!(q.queued_bytes(), 0);
        let vote = dispersal(1);
        let chunk = return_chunk(3, 1);
        q.push(vote.clone());
        q.push(chunk.clone());
        q.push(return_chunk(3, 1)); // a second copy, still in its bucket
        q.push(return_chunk(4, 2));
        let total = vote.wire_size() + 3 * chunk.wire_size();
        assert_eq!((q.len(), q.queued_bytes()), (4, total));
        q.pop_segment(100);
        assert_eq!((q.len(), q.queued_bytes()), (3, total - vote.wire_size()));
        // A partial send takes its bytes off the count and leaves the
        // envelope on it; what is left includes one header for the rest.
        let seg = q.pop_segment(100).expect("bulk queued");
        assert_eq!(seg.len, 100 - frame_header_len(98));
        let left = 3 * chunk.wire_size() - seg.len;
        assert_eq!((q.len(), q.queued_bytes()), (3, left));
        // The cancel takes the unsent remainder and the queued copy.
        let purged = q.purge_returns(Epoch(3), NodeId(1));
        assert_eq!(purged, (2, 2 * chunk.wire_size() - seg.len));
        assert_eq!((q.len(), q.queued_bytes()), (1, chunk.wire_size()));
        assert_eq!(q.partly_sent(), None);
        assert_eq!(drain(&mut q), vec![return_chunk(4, 2)]);
        assert_eq!((q.len(), q.queued_bytes()), (0, 0));
        assert!(q.is_empty());
    }

    /// Deterministic xorshift64*, as in `dl_wire::frame`'s tests.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }
    }

    /// The queue as it was before the cursor: whole envelopes, the high
    /// class FIFO, the low class by `(epoch, arrival)`.
    #[derive(Default)]
    struct WholeEnvelopeModel {
        high: VecDeque<Envelope>,
        low: Vec<(u64, u64, Envelope)>,
        pushed: u64,
    }

    impl WholeEnvelopeModel {
        fn push(&mut self, env: Envelope) {
            self.pushed += 1;
            match env.class() {
                TrafficClass::Dispersal => self.high.push_back(env),
                TrafficClass::Retrieval(e) => self.low.push((e.0, self.pushed, env)),
            }
        }
        fn pop(&mut self) -> Option<Envelope> {
            self.high.pop_front().or_else(|| {
                let at = (0..self.low.len()).min_by_key(|&i| (self.low[i].0, self.low[i].1))?;
                Some(self.low.remove(at).2)
            })
        }
        fn purge(&mut self, epoch: Epoch, index: NodeId) {
            self.low
                .retain(|(e, _, env)| !(*e == epoch.0 && env.index == index));
        }
    }

    /// One random step's input: a push of either class, a pop, or a purge.
    fn random_envelope(rng: &mut Rng, serial: u32) -> Envelope {
        let epoch = 1 + rng.below(4);
        match rng.below(3) {
            0 => dispersal(epoch),
            // The serial makes every chunk's encoding distinguishable.
            _ => sized_return_chunk(epoch, rng.below(3) as u16, 200 + serial),
        }
    }

    #[test]
    fn unbounded_segments_are_exactly_the_whole_envelope_order() {
        for seed in 1..50u64 {
            let mut rng = Rng(seed);
            let (mut q, mut model) = (SendQueue::new(), WholeEnvelopeModel::default());
            for step in 0..400 {
                match rng.below(10) {
                    0..=4 => {
                        let env = random_envelope(&mut rng, step);
                        q.push(env.clone());
                        model.push(env);
                    }
                    5..=8 => {
                        let got = q.pop_segment(usize::MAX).map(|seg| {
                            assert_eq!(seg.offset, 0);
                            seg.env.expect("whole")
                        });
                        assert_eq!(got, model.pop(), "seed {seed} step {step}");
                    }
                    _ => {
                        let (epoch, index) = (Epoch(1 + rng.below(4)), NodeId(rng.below(3) as u16));
                        q.purge_returns(epoch, index);
                        model.purge(epoch, index);
                    }
                }
                assert_eq!(q.len(), model.high.len() + model.low.len());
            }
        }
    }

    #[test]
    fn segments_of_an_envelope_concatenate_to_its_encoding_exactly_once() {
        for seed in 1..50u64 {
            let mut rng = Rng(seed);
            let mut q = SendQueue::new();
            // The queued bytes are always what sending everything left
            // would take, the rest of a partly-sent chunk in one segment;
            // every envelope handed over must be one that was pushed and
            // not yet seen (the serial in its length makes chunks unique).
            let mut pushed: Vec<Envelope> = Vec::new();
            let mut next_offset = 0usize;
            for step in 0..600 {
                match rng.below(10) {
                    0..=3 => {
                        let env = random_envelope(&mut rng, step);
                        pushed.push(env.clone());
                        q.push(env);
                    }
                    4..=8 => {
                        let max = rng.below(700) as usize;
                        let Some(seg) = q.pop_segment(max) else {
                            continue;
                        };
                        let high =
                            seg.env.as_ref().map(Envelope::class) == Some(TrafficClass::Dispersal);
                        if high {
                            assert_eq!(seg.offset, 0);
                        } else {
                            assert!(seg.len > 0 && seg.wire_bytes() <= max);
                            assert_eq!(seg.offset, next_offset, "seed {seed}");
                            next_offset += seg.len;
                        }
                        match seg.env {
                            Some(env) => {
                                assert_eq!(seg.offset + seg.len, env.encoded_len());
                                let at = pushed.iter().position(|p| *p == env);
                                pushed.remove(at.expect("handed over once"));
                                if !high {
                                    next_offset = 0;
                                }
                            }
                            None => {
                                let open = q.partly_sent().expect("cursor stands in it");
                                assert!(next_offset < open.encoded_len());
                            }
                        }
                    }
                    _ => {
                        let (epoch, index) = (Epoch(1 + rng.below(4)), NodeId(rng.below(3) as u16));
                        let was_open = q.partly_sent().cloned();
                        let queued = q.queued_bytes();
                        let (count, bytes) = q.purge_returns(epoch, index);
                        assert_eq!(queued - q.queued_bytes(), bytes);
                        let before = pushed.len();
                        pushed.retain(|p| {
                            p.class() != TrafficClass::Retrieval(epoch) || p.index != index
                        });
                        assert_eq!(before - pushed.len(), count, "seed {seed}");
                        if was_open.is_some() && q.partly_sent().is_none() {
                            next_offset = 0;
                        }
                    }
                }
                assert_eq!(q.len(), pushed.len(), "seed {seed} step {step}");
                let whole: usize = pushed.iter().map(Envelope::wire_size).sum();
                let sent = q.partly_sent().map_or(0, |open| {
                    open.wire_size() - framed(open.encoded_len() - next_offset)
                });
                assert_eq!(q.queued_bytes(), whole - sent, "seed {seed} step {step}");
            }
        }
    }
}
