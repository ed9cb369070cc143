//! AVID-M: Asynchronous Verifiable Information Dispersal with Merkle trees.
//!
//! This is the paper's §3 contribution, implemented exactly per Fig. 3
//! (dispersal) and Fig. 4 (retrieval) as sans-IO automata:
//!
//! * [`Disperser`] — the client side of `Disperse(B)`: erasure-code the
//!   block `(N−2f, N)`, build a Merkle tree over the chunks, send
//!   `Chunk(r, C_i, P_i)` to each server.
//! * [`VidServer`] — the server side: verify and store the local chunk,
//!   exchange `GotChunk`/`Ready`, trigger `Complete`, and answer retrieval
//!   requests (deferred until dispersal completes, per Fig. 4).
//! * [`Retriever`] — the client side of `Retrieve`: ask a caller-chosen
//!   subset of servers (everyone, after one escalation), collect `N−2f`
//!   proof-valid chunks under one root, decode, **re-encode and compare
//!   the root** — the key AVID-M idea that moves encoding verification
//!   from dispersal time to retrieval time. Inconsistent encodings surface
//!   as the canonical [`Retrieved::BadUploader`] value at *every* correct
//!   retriever.
//!
//! The block data path is abstracted behind the [`Coder`] trait so the
//! discrete-event simulator can run the identical control logic without
//! materializing gigabytes of chunk bytes ([`RealCoder`] does real
//! Reed–Solomon + Merkle work; `dl-sim` provides a fluid-mode coder).
//!
//! The four VID properties (§3.1: Termination, Agreement, Availability,
//! Correctness) are exercised by this crate's tests under crash and
//! equivocation faults, and by `dl-core`'s integration suites.

#![cfg_attr(not(test), forbid(unsafe_code))]
// Replays identically from a seed: no hashed collections, no wall clock.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// Parses hostile peers' messages: no panic path outside tests, `.expect`
// included.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use dl_crypto::{Hash, MerkleProof, MerkleTree};
use dl_erasure::{ReedSolomon, RsError};
use dl_wire::{ChunkPayload, NodeId, NodeSet, VidMsg};

/// Result of a retrieval. Per the paper's Correctness property, all correct
/// clients obtain the *same* value — either the dispersed block or the
/// distinguished `BAD_UPLOADER` marker when the disperser used an
/// inconsistent encoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Retrieved<B> {
    Block(B),
    BadUploader,
}

impl<B> Retrieved<B> {
    /// The block, if the dispersal was consistent.
    pub fn block(&self) -> Option<&B> {
        match self {
            Retrieved::Block(b) => Some(b),
            Retrieved::BadUploader => None,
        }
    }
}

/// Erasure coding + commitment backend for VID.
///
/// `encode` must be deterministic: retrieval's consistency check re-encodes
/// the decoded block and compares commitments.
pub trait Coder {
    /// The block type this coder disperses.
    type Block: Clone;

    /// Data chunks needed to reconstruct (`N − 2f`).
    fn data_chunks(&self) -> usize;

    /// Total chunks (`N`).
    fn total_chunks(&self) -> usize;

    /// Encode the block into `N` chunks committed under a root.
    fn encode(&self, block: &Self::Block) -> EncodedBlock;

    /// Verify that `payload` is chunk `proof.index` under `root`.
    fn verify(&self, root: &Hash, proof: &MerkleProof, payload: &ChunkPayload) -> bool;

    /// Decode from at least `data_chunks()` verified chunks (`(index,
    /// payload)` pairs, distinct indices, all under `root`), performing the
    /// re-encode consistency check.
    fn decode(&self, root: &Hash, chunks: &[(u32, ChunkPayload)]) -> Retrieved<Self::Block>;
}

/// A block encoded for dispersal: the Merkle root plus one `(payload,
/// proof)` pair per server.
#[derive(Clone, Debug)]
pub struct EncodedBlock {
    pub root: Hash,
    pub chunks: Vec<(ChunkPayload, MerkleProof)>,
}

/// The production coder: real Reed–Solomon over GF(2^8) plus a real Merkle
/// tree, dispersing opaque byte blocks.
///
/// Blocks are [`bytes::Bytes`]: encode writes the whole codeword into one
/// arena allocation and every chunk payload is a zero-copy window into it,
/// so the `N`-recipient dispersal fan-out shares a single buffer. Decode
/// likewise returns the payload as a window into the decoded frame. Both
/// run on the calling thread.
#[derive(Clone, Debug)]
pub struct RealCoder {
    rs: ReedSolomon,
}

impl RealCoder {
    /// Coder for a cluster of `n` nodes tolerating `f` faults.
    #[expect(
        clippy::expect_used,
        reason = "(n, f) that is not a BFT cluster is a start-up configuration \
                  error; nothing a peer sends reaches it"
    )]
    pub fn new(n: usize, f: usize) -> RealCoder {
        let rs = ReedSolomon::for_cluster(n, f).expect("valid cluster parameters");
        RealCoder { rs }
    }
}

impl Coder for RealCoder {
    type Block = bytes::Bytes;

    fn data_chunks(&self) -> usize {
        self.rs.data_chunks()
    }

    fn total_chunks(&self) -> usize {
        self.rs.total_chunks()
    }

    fn encode(&self, block: &bytes::Bytes) -> EncodedBlock {
        let coded = self.rs.encode_block_shared(block);
        let tree = MerkleTree::build(&coded.chunk_refs());
        let root = tree.root();
        let chunks = (0..coded.chunk_count())
            .map(|i| (ChunkPayload::Real(coded.chunk(i)), tree.prove(i as u32)))
            .collect();
        EncodedBlock { root, chunks }
    }

    fn verify(&self, root: &Hash, proof: &MerkleProof, payload: &ChunkPayload) -> bool {
        let ChunkPayload::Real(bytes) = payload else {
            return false; // synthetic chunks are never valid on a real coder
        };
        proof.leaf_count as usize == self.total_chunks() && proof.verify(root, bytes)
    }

    fn decode(&self, root: &Hash, chunks: &[(u32, ChunkPayload)]) -> Retrieved<bytes::Bytes> {
        let refs: Vec<(usize, &[u8])> = chunks
            .iter()
            .filter_map(|(i, p)| match p {
                ChunkPayload::Real(b) => Some((*i as usize, b.as_ref())),
                ChunkPayload::Synthetic { .. } => None,
            })
            .collect();
        let block = match self.rs.reconstruct_block_shared(&refs) {
            Ok(b) => b,
            // Chunks of unequal lengths, or a frame whose length field
            // lies, can only come from a bad disperser: each chunk was
            // proof-checked against the root already. A retriever that
            // draws `k` equal-length chunks of such a dispersal fails the
            // re-encode check below, so the value is the same everywhere.
            Err(RsError::BadFrame | RsError::MalformedChunks) => return Retrieved::BadUploader,
            #[expect(
                clippy::panic,
                reason = "the caller decodes only once it holds data_chunks() chunks"
            )]
            Err(e) => panic!("retriever invariant violated: {e}"),
        };
        // The AVID-M check (Fig. 4, step 2-4): re-encode and compare roots.
        let reencoded = self.rs.encode_block_shared(&block);
        let recomputed = MerkleTree::build(&reencoded.chunk_refs()).root();
        if recomputed == *root {
            Retrieved::Block(block)
        } else {
            Retrieved::BadUploader
        }
    }
}

/// Effects emitted by the VID automata for the driver to execute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VidEffect<B> {
    /// Send a message to one node.
    Send(NodeId, VidMsg),
    /// Send a message to every node (including the local one).
    Broadcast(VidMsg),
    /// Dispersal completed at this server with the given commitment
    /// (`ChunkRoot` of Fig. 3).
    Complete(Hash),
    /// Retrieval finished with this result.
    Retrieved(Retrieved<B>),
}

/// Client side of `Disperse(B)`: one-shot.
pub struct Disperser;

impl Disperser {
    /// Produce the chunk messages for all `N` servers (Fig. 3, client
    /// steps 1–3).
    pub fn disperse<C: Coder>(coder: &C, block: &C::Block) -> Vec<VidEffect<C::Block>> {
        let encoded = coder.encode(block);
        encoded
            .chunks
            .into_iter()
            .enumerate()
            .map(|(i, (payload, proof))| {
                VidEffect::Send(
                    NodeId(i as u16),
                    VidMsg::Chunk {
                        root: encoded.root,
                        proof,
                        payload,
                    },
                )
            })
            .collect()
    }
}

/// Server-side automaton for one VID instance (Fig. 3 handler + Fig. 4
/// server side).
pub struct VidServer<C: Coder> {
    me: NodeId,
    n: usize,
    f: usize,
    /// `MyChunk`/`MyProof`/`MyRoot` of Fig. 3.
    my_chunk: Option<(Hash, ChunkPayload, MerkleProof)>,
    got_chunk_sent: bool,
    /// Distinct senders of `GotChunk(r)`, per root.
    got_from: Vec<(Hash, NodeSet)>,
    /// Distinct senders of `Ready(r)`, per root.
    ready_from: Vec<(Hash, NodeSet)>,
    ready_sent: bool,
    /// `ChunkRoot`: set at Complete.
    complete_root: Option<Hash>,
    /// Retrieval requests deferred until we can serve them (Fig. 4: "defer
    /// responding if dispersal is not Complete or any variable is unset").
    pending_requests: Vec<NodeId>,
    _coder: std::marker::PhantomData<C>,
}

impl<C: Coder> VidServer<C> {
    pub fn new(me: NodeId, n: usize, f: usize) -> VidServer<C> {
        VidServer {
            me,
            n,
            f,
            my_chunk: None,
            got_chunk_sent: false,
            got_from: Vec::new(),
            ready_from: Vec::new(),
            ready_sent: false,
            complete_root: None,
            pending_requests: Vec::new(),
            _coder: std::marker::PhantomData,
        }
    }

    /// Whether dispersal has completed here.
    pub fn completed(&self) -> Option<Hash> {
        self.complete_root
    }

    /// The chunk this server stores, if any (root, payload, proof). The
    /// node persists the chunk the moment it is accepted, so a restarted
    /// server can keep serving retrievals for epochs it held before the
    /// crash.
    pub fn stored_chunk(&self) -> Option<&(Hash, ChunkPayload, MerkleProof)> {
        self.my_chunk.as_ref()
    }

    /// Rebuild pre-crash dispersal state from durable records.
    ///
    /// A restored chunk is marked as already announced (`GotChunk` went out
    /// with the original accept; re-broadcasting is pure duplicate
    /// traffic). A restored completion also restores `ready_sent`: a
    /// `Complete` implies `2f+1` `Ready`s were exchanged, ours among the
    /// possible contributors, and a duplicate `Ready` would be deduped
    /// anyway — staying quiet is the cheaper equivalent.
    pub fn restore(
        &mut self,
        chunk: Option<(Hash, ChunkPayload, MerkleProof)>,
        complete_root: Option<Hash>,
    ) {
        if let Some(chunk) = chunk {
            self.my_chunk = Some(chunk);
            self.got_chunk_sent = true;
        }
        if let Some(root) = complete_root {
            self.complete_root = Some(root);
            self.ready_sent = true;
        }
    }

    /// Handle a VID message from `from`. The caller (the DispersedLedger
    /// node) has already enforced that `Chunk` messages only come from the
    /// instance's designated disperser (§4.2 footnote 3).
    pub fn handle(&mut self, coder: &C, from: NodeId, msg: VidMsg) -> Vec<VidEffect<C::Block>> {
        let mut out = Vec::new();
        match msg {
            VidMsg::Chunk {
                root,
                proof,
                payload,
            } => self.on_chunk(coder, root, proof, payload, &mut out),
            VidMsg::GotChunk { root } => self.on_got_chunk(from, root, &mut out),
            VidMsg::Ready { root } => self.on_ready(from, root, &mut out),
            VidMsg::RequestChunk => self.on_request(from, &mut out),
            VidMsg::Cancel => {
                self.pending_requests.retain(|&n| n != from);
            }
            VidMsg::ReturnChunk { .. } => {
                // Server role never consumes ReturnChunk; the node routes
                // those to its Retriever. Ignore quietly.
            }
        }
        out
    }

    fn on_chunk(
        &mut self,
        coder: &C,
        root: Hash,
        proof: MerkleProof,
        payload: ChunkPayload,
        out: &mut Vec<VidEffect<C::Block>>,
    ) {
        // Fig. 3 server step 1: the chunk must be ours and prove membership.
        if proof.index != self.me.0 as u32 || !coder.verify(&root, &proof, &payload) {
            return;
        }
        // Step 2: first chunk wins. Stored detached from any shared
        // allocation: the proposer's loopback chunk is a window into the
        // whole-codeword dispersal arena, and `my_chunk` lives for the
        // epoch — keeping the window would pin `n·shard_len` bytes to
        // retain `shard_len` of them.
        if self.my_chunk.is_none() {
            let payload = match payload {
                ChunkPayload::Real(b) => ChunkPayload::Real(bytes::Bytes::copy_from_slice(&b)),
                synthetic => synthetic,
            };
            self.my_chunk = Some((root, payload, proof));
        }
        // Step 3: one GotChunk ever.
        if !self.got_chunk_sent {
            self.got_chunk_sent = true;
            out.push(VidEffect::Broadcast(VidMsg::GotChunk { root }));
        }
        self.flush_pending(out);
    }

    fn on_got_chunk(&mut self, from: NodeId, root: Hash, out: &mut Vec<VidEffect<C::Block>>) {
        let senders = entry(&mut self.got_from, root);
        if !senders.insert(from) {
            return;
        }
        if senders.len() >= self.n - self.f && !self.ready_sent {
            self.ready_sent = true;
            out.push(VidEffect::Broadcast(VidMsg::Ready { root }));
        }
    }

    fn on_ready(&mut self, from: NodeId, root: Hash, out: &mut Vec<VidEffect<C::Block>>) {
        let senders = entry(&mut self.ready_from, root);
        if !senders.insert(from) {
            return;
        }
        let count = senders.len();
        // Ready amplification (f+1) — Fig. 3 Ready handler step 2.
        if count >= self.f + 1 && !self.ready_sent {
            self.ready_sent = true;
            out.push(VidEffect::Broadcast(VidMsg::Ready { root }));
        }
        // Completion (2f+1) — step 3.
        if count >= 2 * self.f + 1 && self.complete_root.is_none() {
            self.complete_root = Some(root);
            out.push(VidEffect::Complete(root));
            self.flush_pending(out);
        }
    }

    fn on_request(&mut self, from: NodeId, out: &mut Vec<VidEffect<C::Block>>) {
        if !self.pending_requests.contains(&from) {
            self.pending_requests.push(from);
        }
        self.flush_pending(out);
    }

    /// Serve deferred requests once `MyRoot == ChunkRoot` holds (Fig. 4
    /// server side).
    fn flush_pending(&mut self, out: &mut Vec<VidEffect<C::Block>>) {
        let Some(complete_root) = self.complete_root else {
            return;
        };
        let Some((my_root, payload, proof)) = &self.my_chunk else {
            return;
        };
        if *my_root != complete_root {
            return; // our chunk is under a different root; we cannot serve
        }
        for to in self.pending_requests.drain(..) {
            out.push(VidEffect::Send(
                to,
                VidMsg::ReturnChunk {
                    root: complete_root,
                    proof: proof.clone(),
                    payload: payload.clone(),
                },
            ));
        }
    }
}

/// The value filed under `root` in a per-root list, created empty on first
/// use (a correct run has one root per instance, so a scan beats a map).
fn entry<T: Default>(list: &mut Vec<(Hash, T)>, root: Hash) -> &mut T {
    let pos = match list.iter().position(|(r, _)| *r == root) {
        Some(pos) => pos,
        None => {
            list.push((root, T::default()));
            list.len() - 1
        }
    };
    &mut list[pos].1
}

/// Client-side automaton for `Retrieve` (Fig. 4).
///
/// Any `N − 2f` proof-valid chunks under one root decode, so a retrieval
/// need not ask all `N` servers: [`Retriever::start_targeted`] asks a
/// caller-chosen subset, and [`Retriever::escalate`] asks every server that
/// has not answered — once — when the subset turns out to be too slow or
/// dishonest. The automaton tracks whom it asked and who has answered, so
/// the `Cancel` on decode (§6.3) goes only to peers that still owe a chunk.
pub struct Retriever<C: Coder> {
    n: usize,
    /// Verified chunks grouped by root: `(root, [(index, payload)])`.
    by_root: Vec<(Hash, Vec<(u32, ChunkPayload)>)>,
    result: Option<Retrieved<C::Block>>,
    /// Send `Cancel` once decoded (§6.3 optimization).
    early_cancel: bool,
    /// Servers the start asked (after escalation every server counts).
    targets: NodeSet,
    /// Asked servers that returned anything, valid or not.
    answered: NodeSet,
    /// Whether [`Retriever::escalate`] has run (it runs at most once).
    escalated: bool,
    _coder: std::marker::PhantomData<C>,
}

impl<C: Coder> Retriever<C> {
    /// Create and start a retrieval that asks all `n` servers.
    /// **Benchmark-only**: `dl-e2e/src/layers.rs` times a retrieval through
    /// it; the engine starts every retrieval with
    /// [`Retriever::start_targeted`] and reaches ask-everyone by
    /// [`Retriever::escalate`]. Goes when the benchmark is next thawed
    /// (ROADMAP direction 1(a)), and `early_cancel` with it.
    pub fn start(n: usize, early_cancel: bool) -> (Retriever<C>, Vec<VidEffect<C::Block>>) {
        let mut r = Retriever::idle(n, early_cancel);
        let effects = r.escalate();
        (r, effects)
    }

    /// Create and start a retrieval that asks only `targets`; `Cancel` on
    /// decode is always on. The retrieval completes as soon as `N − 2f` of
    /// them answer under one root; if they might not, the caller follows up
    /// with [`Retriever::escalate`].
    pub fn start_targeted(
        n: usize,
        targets: impl IntoIterator<Item = NodeId>,
    ) -> (Retriever<C>, Vec<VidEffect<C::Block>>) {
        let mut r = Retriever::idle(n, true);
        let effects = targets
            .into_iter()
            .filter(|to| to.idx() < n && r.targets.insert(*to))
            .map(|to| VidEffect::Send(to, VidMsg::RequestChunk))
            .collect();
        (r, effects)
    }

    fn idle(n: usize, early_cancel: bool) -> Retriever<C> {
        Retriever {
            n,
            by_root: Vec::new(),
            result: None,
            early_cancel,
            targets: NodeSet::new(),
            answered: NodeSet::new(),
            escalated: false,
            _coder: std::marker::PhantomData,
        }
    }

    /// Ask every server that has not answered, silent targets again (a
    /// request or its answer may have been lost). Effective at most once
    /// per retrieval, and never after it finished; returns the requests.
    pub fn escalate(&mut self) -> Vec<VidEffect<C::Block>> {
        if self.escalated || self.result.is_some() {
            return Vec::new();
        }
        self.escalated = true;
        self.awaited()
            .map(|to| VidEffect::Send(to, VidMsg::RequestChunk))
            .collect()
    }

    /// The retrieval result, once available.
    pub fn result(&self) -> Option<&Retrieved<C::Block>> {
        self.result.as_ref()
    }

    /// Whether this retrieval has asked (or started out asking) everyone.
    pub fn escalated(&self) -> bool {
        self.escalated
    }

    /// Whether `peer` was asked for its chunk and still owes an answer
    /// (false for everyone once the retrieval finished: decoding cancels
    /// what is outstanding).
    pub fn awaiting(&self, peer: NodeId) -> bool {
        self.result.is_none() && self.asked(peer) && !self.answered.contains(peer)
    }

    /// Whether a request to `peer` now repeats one: escalation ran and
    /// `peer` was among the start's targets.
    pub fn reasks(&self, peer: NodeId) -> bool {
        self.escalated && self.targets.contains(peer)
    }

    fn asked(&self, peer: NodeId) -> bool {
        peer.idx() < self.n && (self.escalated || self.targets.contains(peer))
    }

    /// Every peer for which [`Retriever::awaiting`] holds, in id order.
    pub fn awaited(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n as u16).map(NodeId).filter(|p| self.awaiting(*p))
    }

    /// Handle a `ReturnChunk` from server `from`.
    ///
    /// Evidence that an asked server is faulty — a chunk that fails
    /// verification, or one under a second root (correct servers all serve
    /// the one completed root) — escalates at once: the targeted subset can
    /// no longer be trusted to hold `N − 2f` good chunks.
    pub fn handle(&mut self, coder: &C, from: NodeId, msg: VidMsg) -> Vec<VidEffect<C::Block>> {
        let mut out = Vec::new();
        if self.result.is_some() {
            return out; // already done
        }
        let VidMsg::ReturnChunk {
            root,
            proof,
            payload,
        } = msg
        else {
            return out;
        };
        if !self.asked(from) {
            return out; // unsolicited: not evidence about anyone we rely on
        }
        self.answered.insert(from);
        // Fig. 4 client step 1: the i-th server must return the i-th chunk.
        if proof.index != from.0 as u32 || !coder.verify(&root, &proof, &payload) {
            return self.escalate();
        }
        let chunks = entry(&mut self.by_root, root);
        if chunks.iter().any(|(i, _)| *i == proof.index) {
            return out; // duplicate
        }
        chunks.push((proof.index, payload));
        if chunks.len() >= coder.data_chunks() {
            let result = coder.decode(&root, chunks);
            out.push(VidEffect::Retrieved(result.clone()));
            if self.early_cancel {
                out.extend(self.awaited().map(|p| VidEffect::Send(p, VidMsg::Cancel)));
            }
            self.result = Some(result);
        } else if self.by_root.len() > 1 {
            return self.escalate();
        }
        out
    }
}

#[cfg(test)]
mod tests;
