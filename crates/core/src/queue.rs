//! The transaction input queue with Nagle-style adaptive batching (§5 "Rate
//! control for block proposal").
//!
//! Transactions wait here until the node proposes: either because a delay
//! threshold elapsed since the last proposal, or because enough bytes
//! accumulated. Un-committed blocks (HoneyBadger without linking) are pushed
//! back to the *front*, preserving submission order.

use dl_wire::Tx;
use std::collections::VecDeque;

/// FIFO transaction queue tracking queued payload bytes.
#[derive(Debug, Default)]
pub(crate) struct InputQueue {
    txs: VecDeque<Tx>,
    bytes: usize,
}

impl InputQueue {
    pub fn new() -> InputQueue {
        InputQueue::default()
    }

    /// Enqueue a freshly submitted transaction.
    pub fn push(&mut self, tx: Tx) {
        self.bytes += tx.payload.len();
        self.txs.push_back(tx);
    }

    /// Re-enqueue the transactions of a dropped block at the front (oldest
    /// first), as §4.2 prescribes for un-committed proposals.
    pub fn push_front_batch(&mut self, txs: Vec<Tx>) {
        for tx in txs.into_iter().rev() {
            self.bytes += tx.payload.len();
            self.txs.push_front(tx);
        }
    }

    /// Drain everything for a new block proposal.
    pub fn drain_all(&mut self) -> Vec<Tx> {
        self.bytes = 0;
        self.txs.drain(..).collect()
    }

    /// Queued payload bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_wire::NodeId;

    fn tx(seq: u64, len: u32) -> Tx {
        Tx::synthetic(NodeId(0), seq, 0, len)
    }

    #[test]
    fn byte_accounting() {
        let mut q = InputQueue::new();
        q.push(tx(0, 100));
        q.push(tx(1, 50));
        assert_eq!(q.bytes(), 150);
        let drained = q.drain_all();
        assert_eq!(drained.len(), 2);
        assert_eq!(q.bytes(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn requeue_preserves_order() {
        let mut q = InputQueue::new();
        q.push(tx(2, 10)); // a tx that arrived after the dropped block
        q.push_front_batch(vec![tx(0, 10), tx(1, 10)]);
        let drained = q.drain_all();
        let seqs: Vec<u64> = drained.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn requeue_restores_byte_accounting() {
        let mut q = InputQueue::new();
        q.push(tx(3, 7));
        q.push_front_batch(vec![tx(0, 100), tx(1, 50)]);
        assert_eq!(q.bytes(), 157, "re-queued payload bytes must count");
        assert_eq!(q.drain_all().len(), 3);
    }

    #[test]
    fn empty_requeue_is_a_noop() {
        let mut q = InputQueue::new();
        q.push(tx(0, 5));
        q.push_front_batch(Vec::new());
        assert_eq!(q.bytes(), 5);
        assert_eq!(q.drain_all().len(), 1);
    }

    #[test]
    fn repeated_requeues_stack_oldest_first() {
        // Two dropped blocks re-queued in reverse drop order (newest first,
        // as the delivery pipeline resolves epochs in order) end up oldest
        // tx first.
        let mut q = InputQueue::new();
        q.push_front_batch(vec![tx(2, 1), tx(3, 1)]); // epoch e+1's block
        q.push_front_batch(vec![tx(0, 1), tx(1, 1)]); // epoch e's block
        let seqs: Vec<u64> = q.drain_all().iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn drain_on_empty_queue() {
        let mut q = InputQueue::new();
        assert!(q.drain_all().is_empty());
        assert_eq!(q.bytes(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn zero_length_payloads_count_in_len_not_bytes() {
        let mut q = InputQueue::new();
        q.push(tx(0, 0));
        q.push(tx(1, 0));
        assert_eq!(q.bytes(), 0);
        assert!(!q.is_empty());
        assert_eq!(q.drain_all().len(), 2);
    }
}
