//! Driver-agnostic transport pieces: the [`Transport`] seam and the §5
//! two-class prioritized [`SendQueue`].
//!
//! The paper's §5 send rule is a property of the *transport*, not of any
//! one driver: both the simulator's link model and the real TCP transport
//! (`dl-net`) drain a [`SendQueue`] per directed peer link, so the
//! prioritization measured in virtual time is the same code that runs on
//! real sockets. The rule, as implemented:
//!
//! * **High priority, one FIFO**: everything a node needs to take part in
//!   agreement (`Chunk`, `GotChunk`, `Ready`, BA and sync messages) *and*
//!   the retrieval control messages `RequestChunk` and `Cancel`.
//! * **Low priority, in epoch order, FIFO within an epoch**: `ReturnChunk`
//!   — the bulk of a retrieval, and the only low-priority traffic.
//!
//! The control messages are ~20 bytes and steer the bulk: a `RequestChunk`
//! parked behind seconds of queued chunks starts its own chunk that much
//! later, and a `Cancel` (§6.3) parked there arrives after the chunk it was
//! meant to stop. Keeping them out of the bulk queue costs the
//! high-priority class nothing measurable and is what lets a retrieval be
//! steered at all (see `node::retrieval` for who is asked).

use std::collections::{BTreeMap, VecDeque};

use dl_wire::{Envelope, Epoch, NodeId, ProtoMsg, TrafficClass, VidMsg};

/// A cluster's message fabric, as seen by a driver routing engine `send`
/// effects. Implemented by the simulator (envelopes enter a virtual link)
/// and by `dl-net` (envelopes enter a per-peer TCP outbox).
pub trait Transport {
    /// Queue `env` from `from` for delivery to `to`, honoring the §5
    /// priorities. `from != to`: engines loop self-traffic internally.
    fn send(&mut self, from: NodeId, to: NodeId, env: Envelope);
}

/// The per-link send queue: pops high-priority envelopes first, then
/// `ReturnChunk`s in epoch order, FIFO within a class. Tracks queued wire bytes so
/// transports can apply byte-bounded backpressure.
///
/// Representation matters here: under retrieval backlog a single link can
/// queue hundreds of thousands of envelopes, and the old single
/// `BinaryHeap` paid an O(log n) sift over scattered ~130-byte entries on
/// every push *and* pop — the dominant superlinear cost in large-N
/// simulations. The §5 priority order is static (two classes, retrieval
/// keyed by epoch), so class-segregated FIFOs give the exact same drain
/// order with O(1) contiguous push/pop: a `VecDeque` for dispersal and one
/// `VecDeque` per active retrieval epoch (a handful at any time) in a
/// `BTreeMap`.
#[derive(Default)]
pub struct SendQueue {
    dispersal: VecDeque<Envelope>,
    retrieval: BTreeMap<u64, VecDeque<Envelope>>,
    len: usize,
    bytes: usize,
}

impl SendQueue {
    pub fn new() -> SendQueue {
        SendQueue::default()
    }

    /// Queue `env` with its [`TrafficClass`] priority.
    pub fn push(&mut self, env: Envelope) {
        self.bytes += env.wire_size();
        self.len += 1;
        match env.class() {
            TrafficClass::Dispersal => self.dispersal.push_back(env),
            TrafficClass::Retrieval(epoch) => {
                self.retrieval.entry(epoch.0).or_default().push_back(env)
            }
        }
    }

    /// The highest-priority queued envelope, if any.
    pub fn pop(&mut self) -> Option<Envelope> {
        let env = match self.dispersal.pop_front() {
            Some(env) => env,
            None => {
                let mut entry = self.retrieval.first_entry()?;
                let env = entry.get_mut().pop_front().expect("no empty buckets");
                if entry.get().is_empty() {
                    entry.remove();
                }
                env
            }
        };
        self.bytes -= env.wire_size();
        self.len -= 1;
        Some(env)
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total `wire_size` of everything queued (framing included).
    pub fn queued_bytes(&self) -> usize {
        self.bytes
    }

    /// Drop every queued `ReturnChunk` for `(epoch, index)` — the receiver
    /// cancelled this retrieval, so the chunks are dead weight (§5's early
    /// cancellation, extended to the send queue). Returns
    /// `(envelopes, bytes)` purged.
    pub fn purge_returns(&mut self, epoch: Epoch, index: NodeId) -> (usize, usize) {
        let Some(bucket) = self.retrieval.get_mut(&epoch.0) else {
            return (0, 0);
        };
        let mut count = 0usize;
        let mut bytes = 0usize;
        bucket.retain(|env| {
            let dead = env.index == index
                && matches!(env.payload, ProtoMsg::Vid(VidMsg::ReturnChunk { .. }));
            if dead {
                count += 1;
                bytes += env.wire_size();
            }
            !dead
        });
        if bucket.is_empty() {
            self.retrieval.remove(&epoch.0);
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
    use dl_wire::{Epoch, VidMsg};

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

    #[test]
    fn pops_dispersal_first_then_retrieval_in_epoch_order() {
        let mut q = SendQueue::new();
        q.push(retrieval(7));
        q.push(retrieval(2));
        q.push(dispersal(9));
        q.push(dispersal(1));
        let order: Vec<TrafficClass> = std::iter::from_fn(|| q.pop())
            .map(|env| env.class())
            .collect();
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
        assert_eq!(q.pop(), Some(request(9)));
        assert_eq!(q.pop(), Some(cancel));
        assert_eq!(q.pop(), Some(return_chunk(1, 3)));
        assert_eq!(q.pop(), Some(return_chunk(2, 3)));
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
        assert_eq!(q.pop(), Some(a));
        assert_eq!(q.pop(), Some(b));
        assert_eq!(q.pop(), None);
    }

    fn return_chunk(e: u64, index: u16) -> Envelope {
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
                payload: dl_wire::ChunkPayload::Synthetic { len: 1000 },
            },
        )
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
        let classes: Vec<TrafficClass> = std::iter::from_fn(|| q.pop())
            .map(|env| env.class())
            .collect();
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
    fn byte_accounting_tracks_wire_size() {
        let mut q = SendQueue::new();
        assert_eq!(q.queued_bytes(), 0);
        let env = dispersal(1);
        let size = env.wire_size();
        q.push(env.clone());
        q.push(env);
        assert_eq!(q.queued_bytes(), 2 * size);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.queued_bytes(), size);
        q.pop();
        assert_eq!(q.queued_bytes(), 0);
        assert!(q.is_empty());
    }
}
