//! Per-peer outboxes: bounded, §5-prioritized queues between the engine
//! thread (producer) and one writer thread each (consumer), and the
//! backpressure / lossy / probation state machine described in the crate
//! docs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use dl_core::SendQueue;
use dl_wire::frame::{encode_segment, SegmentBuf};
use dl_wire::{Envelope, Epoch, NodeId};

use crate::node::Shared;

/// Bytes of `ReturnChunk` bulk a writer puts on its socket before it looks
/// at the high class again: small enough that a vote waits for one write,
/// not for a megabyte chunk; large enough that the 3-byte header of each
/// extra segment is noise (0.02 %).
pub(crate) const WRITE_QUANTUM: usize = 16 << 10;

/// A bounded, §5-prioritized outbox feeding one peer's writer thread.
pub(crate) struct Outbox {
    queue: Mutex<SendQueue>,
    cv: Condvar,
    max_bytes: usize,
    /// Set when the peer's writer thread exits for good (node shutdown).
    /// A dead peer's outbox drops instead of blocking: backpressure from
    /// a peer that will never drain again must not stall the engine —
    /// that is exactly the `f`-crash scenario the protocol tolerates.
    dead: AtomicBool,
    /// Set while the peer has been unreachable longer than the connect
    /// grace: traffic is dropped (not queued, not backpressured) until
    /// the writer reconnects. Unlike `dead`, this state is reversible —
    /// reconnect-after-drop clears it and queueing resumes.
    lossy: AtomicBool,
    /// Set from the first disconnect until the replacement connection has
    /// **proven** it drains (a full `write_timeout` of successful
    /// writes): while set, `push` still queues up to the bound but never
    /// blocks (drops at the bound instead). This preserves the PR 4
    /// invariant that an unhealthy peer cannot stall the engine — a
    /// frozen process whose kernel still accepts connections would
    /// otherwise re-earn backpressure with every successful dial.
    no_block: AtomicBool,
}

impl Outbox {
    pub(crate) fn new(max_bytes: usize) -> Outbox {
        Outbox {
            queue: Mutex::new(SendQueue::new()),
            cv: Condvar::new(),
            max_bytes,
            dead: AtomicBool::new(false),
            lossy: AtomicBool::new(false),
            no_block: AtomicBool::new(false),
        }
    }

    /// Enter/leave probation: queueing continues (bounded) but producers
    /// are never blocked until the writer proves the peer drains again.
    pub(crate) fn set_no_block(&self, no_block: bool) {
        self.no_block.store(no_block, Ordering::Relaxed);
        if no_block {
            self.cv.notify_all();
        }
    }

    /// Mark the peer unreachable-for-good: release any backpressured
    /// producer and discard what is queued, the rest of a partly-written
    /// chunk included (TCP teardown loses it anyway).
    pub(crate) fn mark_dead(&self) {
        self.dead.store(true, Ordering::Relaxed);
        *self.queue.lock().expect("outbox lock") = SendQueue::new();
        self.cv.notify_all();
    }

    /// Enter/leave the lossy (peer-down) state. Entering discards queued
    /// traffic and releases any backpressured producer; leaving resumes
    /// normal bounded queueing.
    pub(crate) fn set_lossy(&self, lossy: bool) {
        self.lossy.store(lossy, Ordering::Relaxed);
        if lossy {
            *self.queue.lock().expect("outbox lock") = SendQueue::new();
            self.cv.notify_all();
        }
    }

    /// Queue `env`, blocking while the outbox is over its byte bound
    /// (backpressure against a slow peer). Drops the envelope without
    /// blocking if the node is stopping, the peer is dead or down
    /// (lossy), or the peer is on reconnect probation (`no_block`) — only
    /// a connection that provably drains may stall the engine.
    pub(crate) fn push(&self, env: Envelope, stop: &AtomicBool) {
        let mut q = self.queue.lock().expect("outbox lock");
        while q.queued_bytes() >= self.max_bytes {
            if stop.load(Ordering::Relaxed)
                || self.dead.load(Ordering::Relaxed)
                || self.lossy.load(Ordering::Relaxed)
                || self.no_block.load(Ordering::Relaxed)
            {
                return;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(q, Duration::from_millis(100))
                .expect("outbox lock");
            q = guard;
        }
        if self.dead.load(Ordering::Relaxed) || self.lossy.load(Ordering::Relaxed) {
            return;
        }
        q.push(env);
        self.cv.notify_all();
    }

    /// Drop every queued returned chunk for the cancelled retrieval
    /// `(epoch, index)`. Freed bytes may release a backpressured producer.
    pub(crate) fn purge_returns(&self, epoch: Epoch, index: NodeId) {
        let (count, _) = self
            .queue
            .lock()
            .expect("outbox lock")
            .purge_returns(epoch, index);
        if count > 0 {
            self.cv.notify_all();
        }
    }

    /// The connection died: what it carried of a partly-written chunk died
    /// with the receiver's reassembly, so the rest must not follow on the
    /// next connection (whose reader would see a continuation with no
    /// start). Lost like any envelope caught mid-write — with any second
    /// answer to the same retrieval queued behind it, which is all
    /// `purge_returns` can name.
    pub(crate) fn abandon_partly_sent(&self) {
        let mut q = self.queue.lock().expect("outbox lock");
        if let Some((epoch, index)) = q.partly_sent().map(|env| (env.epoch, env.index)) {
            q.purge_returns(epoch, index);
        }
    }

    /// The next frame to write, in priority order: a whole high-class
    /// envelope, or at most [`WRITE_QUANTUM`] of the `ReturnChunk` being
    /// sent. Blocks until there is one or the node stops.
    pub(crate) fn next_frame(&self, stop: &AtomicBool) -> Option<SegmentBuf> {
        let mut q = self.queue.lock().expect("outbox lock");
        loop {
            if let Some(seg) = q.pop_segment(WRITE_QUANTUM) {
                // Space freed: release any backpressured producer.
                self.cv.notify_all();
                let env = seg.env.as_ref().or(q.partly_sent());
                let env = env.expect("a segment's envelope is handed over or still open");
                return Some(encode_segment(env, seg.offset, seg.len));
            }
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(q, Duration::from_millis(100))
                .expect("outbox lock");
            q = guard;
        }
    }
}

/// The per-peer outboxes of one node.
pub(crate) struct Outboxes {
    pub(crate) slots: Vec<Option<Arc<Outbox>>>,
    pub(crate) shared: Arc<Shared>,
}

impl Outboxes {
    /// Queue `env` from `from` for `to`, honoring the §5 priorities.
    pub(crate) fn send(&self, from: NodeId, to: NodeId, env: Envelope) {
        // Same contract the simulator asserts: engines loop self-traffic
        // internally, so a self-send is an engine bug — fail loudly in
        // debug instead of silently dropping (slots[me] is None).
        debug_assert_ne!(from, to, "engines must loop self-traffic back internally");
        if let Some(outbox) = self.slots[to.idx()].as_ref() {
            outbox.push(env, &self.shared.stop);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;

    #[test]
    fn dead_outbox_releases_a_blocked_producer_and_drops() {
        let outbox = Arc::new(Outbox::new(32));
        let stop = Arc::new(AtomicBool::new(false));
        let env = Envelope::vid(dl_wire::Epoch(1), NodeId(0), dl_wire::VidMsg::RequestChunk);
        while outbox.queue.lock().unwrap().queued_bytes() < 32 {
            outbox.push(env.clone(), &stop);
        }
        let full = Arc::clone(&outbox);
        let stop2 = Arc::clone(&stop);
        let env2 = env.clone();
        let blocked = std::thread::spawn(move || full.push(env2, &stop2));
        std::thread::sleep(Duration::from_millis(100));
        assert!(!blocked.is_finished(), "producer did not backpressure");
        // The peer dies: the producer must unblock and the queue drain.
        outbox.mark_dead();
        blocked.join().unwrap();
        assert!(outbox.queue.lock().unwrap().is_empty());
        // Further pushes drop silently instead of accumulating.
        outbox.push(env, &stop);
        assert!(outbox.queue.lock().unwrap().is_empty());
    }

    #[test]
    fn outbox_goes_lossy_while_down_and_recovers_on_reconnect() {
        // set_lossy(true) must release a blocked producer, drop the
        // queue, and refuse new traffic; set_lossy(false) restores
        // bounded queueing.
        let outbox = Arc::new(Outbox::new(32));
        let stop = Arc::new(AtomicBool::new(false));
        let env = Envelope::vid(dl_wire::Epoch(1), NodeId(0), dl_wire::VidMsg::RequestChunk);
        while outbox.queue.lock().unwrap().queued_bytes() < 32 {
            outbox.push(env.clone(), &stop);
        }
        let full = Arc::clone(&outbox);
        let stop2 = Arc::clone(&stop);
        let env2 = env.clone();
        let blocked = std::thread::spawn(move || full.push(env2, &stop2));
        std::thread::sleep(Duration::from_millis(100));
        assert!(!blocked.is_finished(), "producer did not backpressure");
        outbox.set_lossy(true);
        blocked.join().unwrap();
        assert!(outbox.queue.lock().unwrap().is_empty());
        outbox.push(env.clone(), &stop);
        assert!(outbox.queue.lock().unwrap().is_empty(), "lossy must drop");
        // Reconnected: queueing resumes.
        outbox.set_lossy(false);
        outbox.push(env, &stop);
        assert_eq!(outbox.queue.lock().unwrap().len(), 1);
    }

    #[test]
    fn probation_queues_but_never_blocks_a_producer() {
        // Between a disconnect and a proven reconnect the outbox must
        // keep queueing (bounded) without ever stalling the engine.
        let outbox = Arc::new(Outbox::new(64));
        let stop = Arc::new(AtomicBool::new(false));
        let env = Envelope::vid(dl_wire::Epoch(1), NodeId(0), dl_wire::VidMsg::RequestChunk);
        outbox.set_no_block(true);
        let t0 = Instant::now();
        for _ in 0..64 {
            outbox.push(env.clone(), &stop); // far past the 64-byte bound
        }
        assert!(
            t0.elapsed() < Duration::from_millis(90),
            "probation push blocked: {:?}",
            t0.elapsed()
        );
        // Queued up to the bound, overflow dropped — not unbounded.
        let bytes = outbox.queue.lock().unwrap().queued_bytes();
        assert!(bytes >= 64, "probation must still queue traffic");
        assert!(
            bytes < 64 + 2 * env.wire_size(),
            "probation overflow must drop, got {bytes} bytes"
        );
    }

    #[test]
    fn outbox_applies_backpressure_and_releases() {
        let outbox = Arc::new(Outbox::new(64)); // tiny bound
        let stop = Arc::new(AtomicBool::new(false));
        let env = Envelope::vid(dl_wire::Epoch(1), NodeId(0), dl_wire::VidMsg::RequestChunk);
        // Fill to the bound: 4-byte envelopes, bound 64.
        while outbox.queue.lock().unwrap().queued_bytes() < 64 {
            outbox.push(env.clone(), &stop);
        }
        let full = Arc::clone(&outbox);
        let stop2 = Arc::clone(&stop);
        let blocked = std::thread::spawn(move || {
            let t0 = Instant::now();
            full.push(
                Envelope::vid(dl_wire::Epoch(2), NodeId(0), dl_wire::VidMsg::RequestChunk),
                &stop2,
            );
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(150));
        // Drain one: the producer must unblock.
        assert!(outbox.next_frame(&stop).is_some());
        let waited = blocked.join().unwrap();
        assert!(
            waited >= Duration::from_millis(100),
            "producer did not block: {waited:?}"
        );
    }
}
