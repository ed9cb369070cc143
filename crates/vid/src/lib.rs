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
//! ## Bytes the receiver does not need
//!
//! Four rules leave out what a receiver already has:
//!
//! * **A proposer's `Chunk` is its `GotChunk`.** A server that verifies
//!   and stores `Chunk(r)` from the instance's proposer counts the
//!   proposer's `GotChunk(r)`, and the proposer broadcasts no `GotChunk`
//!   for its own instance. This mirrors a `Ready` being its sender's
//!   round-0 `BVal(1)` (`dl_ba`).
//! * **An instant's `GotChunk`s name one digest.** The node sends the
//!   `GotChunk`s of one epoch that its servers broadcast in one instant as
//!   one batch per peer, under the `got_digest` of each member's root
//!   (`dl_wire`). The receiver checks it against the roots of its own
//!   stored chunks when the batch's turn comes. A match counts as each
//!   member's `GotChunk` under the receiver's root. Otherwise — a member's
//!   chunk not in hand yet, or a root that differs — the receiver asks the
//!   sender with one [`VidMsg::RootsWanted`] batch, answered as below.
//! * **A `Ready` names its root only when the sender's `GotChunk` did
//!   not.** A server whose `Ready(r)` is for its stored chunk's root,
//!   restored or not, sends it as [`VidMsg::ReadyAsGot`], counted as `Ready`
//!   for the sender's `GotChunk` root. A receiver without that `GotChunk`
//!   asks with `RootsWanted`, which each of the sender's servers answers
//!   each peer once with its plain `GotChunk(r)` and, once its `Ready` is
//!   out, once with its plain `Ready(r)`.
//! * **A retrieval that knows the committed root takes bare chunks.** It
//!   knows it once its own server sent `Ready(r)` or completed
//!   ([`VidServer::committed_root`]). Servers answer its
//!   [`VidMsg::RequestChunk`] with the payload alone, and it decodes `k`
//!   of them, re-encodes and compares against `r`. A mismatch, or a decode
//!   error, makes it drop them and ask every server once more with
//!   [`VidMsg::RequestProven`]: the proven path above. A retrieval that
//!   does not know the root — a revived node fetching what it missed —
//!   takes the proven path from the start.
//!
//! **Safety of the root-less claims.** A matching digest means exactly
//! the members' `GotChunk`s under the receiver's own roots, by collision
//! resistance, and an honest sender digests only chunks it stored. The
//! claim a proposer's `Chunk` implies is one a Byzantine proposer could
//! always send to each receiver, under that receiver's root. A claim the
//! receiver cannot place — a digest that does not check, a `ReadyAsGot`
//! whose sender's `GotChunk` is not in hand — is asked for, never counted
//! or held, and the answer is a plain `GotChunk` or `Ready` the sender
//! could always send. So a Byzantine sender can claim nothing it could not
//! claim with plain messages, and a lost `GotChunk` costs an ask.
//!
//! **Safety of the optimistic path.** It outputs a block only if that
//! block's re-encoding matches `r`, and `r` is the only root that can
//! complete: a correct server sends `Ready` for one root, and every
//! correct `Ready` is for the root that gathered `N − f` `GotChunk`s or
//! `f + 1` `Ready`s. The proven path outputs the block whose re-encoding
//! matches `r` too, so by collision resistance the two outputs are the
//! same block. An inconsistent dispersal has no block whose re-encoding
//! matches its root, so the optimistic path never outputs anything for it;
//! every retriever falls back and reaches `BadUploader` as before. Lying
//! servers cost a fall-back, never a wrong block. The per-chunk proofs only
//! assign blame, which the happy path never needs.
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

    /// Decode from at least `data_chunks()` chunks (`(index, payload)`
    /// pairs, distinct indices: proof-checked under `root`, or bare ones
    /// this is the only check of), performing the re-encode consistency
    /// check against `root`.
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
        let mut refs: Vec<(usize, &[u8])> = Vec::with_capacity(chunks.len());
        for (i, p) in chunks {
            match p {
                ChunkPayload::Real(b) => refs.push((*i as usize, b.as_ref())),
                // Never proof-valid here, so only a bare chunk from a lying
                // server gets this far: not a codeword.
                ChunkPayload::Synthetic { .. } => return Retrieved::BadUploader,
            }
        }
        let block = match self.rs.reconstruct_block_shared(&refs) {
            Ok(b) => b,
            // Chunks of unequal lengths, or a frame whose length field
            // lies: proof-checked chunks show a bad disperser, and a
            // retriever that draws `k` equal-length chunks of such a
            // dispersal fails the re-encode check below, so the value is
            // the same everywhere. Bare chunks may show a lying server
            // instead; the retriever then asks again with proofs.
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
    /// Distinct senders of `GotChunk(r)`, per root.
    got_from: Vec<(Hash, NodeSet)>,
    /// Distinct senders of `Ready(r)`, per root.
    ready_from: Vec<(Hash, NodeSet)>,
    /// Peers a [`VidMsg::RootsWanted`] got our plain `GotChunk` and, once
    /// our `Ready` is out, our plain `Ready`: each once. Two sets, as an ask
    /// answered before our `Ready` left must not use up its answer.
    got_answered: NodeSet,
    ready_answered: NodeSet,
    /// The root of the `Ready` we sent (or, restored, the completed one).
    ready_root: Option<Hash>,
    /// `ChunkRoot`: set at Complete.
    complete_root: Option<Hash>,
    /// Retrieval requests deferred until we can serve them (Fig. 4: "defer
    /// responding if dispersal is not Complete or any variable is unset"),
    /// each with whether it asked for the proof.
    pending_requests: Vec<(NodeId, bool)>,
    _coder: std::marker::PhantomData<C>,
}

impl<C: Coder> VidServer<C> {
    pub fn new(me: NodeId, n: usize, f: usize) -> VidServer<C> {
        VidServer {
            me,
            n,
            f,
            my_chunk: None,
            got_from: Vec::new(),
            ready_from: Vec::new(),
            got_answered: NodeSet::new(),
            ready_answered: NodeSet::new(),
            ready_root: None,
            complete_root: None,
            pending_requests: Vec::new(),
            _coder: std::marker::PhantomData,
        }
    }

    /// Whether dispersal has completed here.
    pub fn completed(&self) -> Option<Hash> {
        self.complete_root
    }

    /// The root this server vouched for with its own `Ready`, or saw
    /// complete: the only root that can complete anywhere, so a retrieval
    /// that knows it may take bare chunks (see [`Retriever`]).
    pub fn committed_root(&self) -> Option<Hash> {
        self.complete_root.or(self.ready_root)
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
    /// A restored chunk's `GotChunk` went out with the original accept and
    /// is not sent again; its `Ready` is root-less like any other, and a
    /// peer the crash kept that `GotChunk` from asks with
    /// [`VidMsg::RootsWanted`]. A restored completion also restores our
    /// `Ready`: a `Complete` implies `2f+1` `Ready`s were exchanged, ours
    /// among the possible contributors, and a duplicate `Ready` would be
    /// deduped anyway — staying quiet is the cheaper equivalent.
    pub fn restore(
        &mut self,
        chunk: Option<(Hash, ChunkPayload, MerkleProof)>,
        complete_root: Option<Hash>,
    ) {
        if let Some(chunk) = chunk {
            self.my_chunk = Some(chunk);
        }
        if let Some(root) = complete_root {
            self.complete_root = Some(root);
            self.ready_root = Some(root);
        }
    }

    /// Handle a VID message from `from`. The caller (the DispersedLedger
    /// node) has already enforced that `Chunk` messages only come from the
    /// instance's designated disperser (§4.2 footnote 3), so a `Chunk`'s
    /// `from` is the proposer.
    pub fn handle(&mut self, coder: &C, from: NodeId, msg: VidMsg) -> Vec<VidEffect<C::Block>> {
        let mut out = Vec::new();
        match msg {
            VidMsg::Chunk {
                root,
                proof,
                payload,
            } => self.on_chunk(coder, from, root, proof, payload, &mut out),
            VidMsg::GotChunk { root } => self.on_got_chunk(from, root, &mut out),
            VidMsg::Ready { root } => self.on_ready(from, root, &mut out),
            VidMsg::ReadyAsGot => match self.got_root(from) {
                Some(root) => self.on_ready(from, root, &mut out),
                // Its `GotChunk` is not in hand: ask, and hold nothing.
                None => out.push(VidEffect::Send(from, VidMsg::RootsWanted)),
            },
            // What we could always send plainly, each once per peer: our
            // stored chunk's `GotChunk`, and our `Ready` once it is out.
            VidMsg::RootsWanted => {
                if let Some((root, ..)) = &self.my_chunk {
                    if self.got_answered.insert(from) {
                        out.push(VidEffect::Send(from, VidMsg::GotChunk { root: *root }));
                    }
                }
                if let Some(root) = self.ready_root {
                    if self.ready_answered.insert(from) {
                        out.push(VidEffect::Send(from, VidMsg::Ready { root }));
                    }
                }
            }
            VidMsg::RequestChunk => self.on_request(from, false, &mut out),
            VidMsg::RequestProven => self.on_request(from, true, &mut out),
            VidMsg::Cancel => {
                self.pending_requests.retain(|&(n, _)| n != from);
            }
            VidMsg::ReturnChunk { .. } | VidMsg::ReturnBare { .. } => {
                // Server role never consumes returned chunks; the node
                // routes those to its Retriever. Ignore quietly.
            }
        }
        out
    }

    fn on_chunk(
        &mut self,
        coder: &C,
        proposer: NodeId,
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
        // Step 3: one GotChunk ever, with it (a restored chunk's went out
        // before the crash). The proposer's own is implied by its chunks,
        // here and at every peer (crate docs).
        if self.my_chunk.is_none() {
            let payload = match payload {
                ChunkPayload::Real(b) => ChunkPayload::Real(bytes::Bytes::copy_from_slice(&b)),
                synthetic => synthetic,
            };
            self.my_chunk = Some((root, payload, proof));
            if proposer != self.me {
                out.push(VidEffect::Broadcast(VidMsg::GotChunk { root }));
            }
            self.on_got_chunk(proposer, root, out);
        }
        self.flush_pending(out);
    }

    /// The root of `from`'s `GotChunk`, if one arrived (the first root
    /// that lists it: a correct server sends one).
    fn got_root(&self, from: NodeId) -> Option<Hash> {
        self.got_from
            .iter()
            .find(|(_, senders)| senders.contains(from))
            .map(|(root, _)| *root)
    }

    fn on_got_chunk(&mut self, from: NodeId, root: Hash, out: &mut Vec<VidEffect<C::Block>>) {
        let senders = entry(&mut self.got_from, root);
        if senders.insert(from) && senders.len() >= self.n - self.f {
            self.send_ready(root, out);
        }
    }

    /// Broadcast our one `Ready`, for `root`, unless it went out already
    /// (Lemma B.3: never for a second root). It is root-less if `root` is
    /// our stored chunk's: our `GotChunk` named it, or its proposer's chunks
    /// did.
    fn send_ready(&mut self, root: Hash, out: &mut Vec<VidEffect<C::Block>>) {
        if self.ready_root.is_some() {
            return;
        }
        self.ready_root = Some(root);
        let stored = self.my_chunk.as_ref().map(|(r, ..)| *r);
        out.push(VidEffect::Broadcast(if stored == Some(root) {
            VidMsg::ReadyAsGot
        } else {
            VidMsg::Ready { root }
        }));
    }

    fn on_ready(&mut self, from: NodeId, root: Hash, out: &mut Vec<VidEffect<C::Block>>) {
        let senders = entry(&mut self.ready_from, root);
        if !senders.insert(from) {
            return;
        }
        let count = senders.len();
        // Ready amplification (f+1) — Fig. 3 Ready handler step 2.
        if count >= self.f + 1 {
            self.send_ready(root, out);
        }
        // Completion (2f+1) — step 3.
        if count >= 2 * self.f + 1 && self.complete_root.is_none() {
            self.complete_root = Some(root);
            out.push(VidEffect::Complete(root));
            self.flush_pending(out);
        }
    }

    /// A request, deferred until we can serve it; a proven request
    /// upgrades a pending bare one from the same peer.
    fn on_request(&mut self, from: NodeId, proven: bool, out: &mut Vec<VidEffect<C::Block>>) {
        match self.pending_requests.iter_mut().find(|(n, _)| *n == from) {
            Some((_, with_proof)) => *with_proof |= proven,
            None => self.pending_requests.push((from, proven)),
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
        for (to, proven) in self.pending_requests.drain(..) {
            let payload = payload.clone();
            let msg = if proven {
                VidMsg::ReturnChunk {
                    root: complete_root,
                    proof: proof.clone(),
                    payload,
                }
            } else {
                VidMsg::ReturnBare { payload }
            };
            out.push(VidEffect::Send(to, msg));
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
/// dishonest; [`Retriever::reask`] repeats that for the servers still
/// silent after it. The automaton tracks whom it asked and who has
/// answered, so the `Cancel` on decode (§6.3) goes only to peers that still
/// owe a chunk.
///
/// A retrieval started with the committed root is **optimistic**: it asks
/// with [`VidMsg::RequestChunk`], takes bare chunks ([`VidMsg::ReturnBare`],
/// index = sender) and, after `N − 2f` of them, decodes, re-encodes and
/// compares against that root. A match is the block. A mismatch or a
/// decode error cannot say whether the disperser or a server lied, so the
/// bare chunks are dropped and every server is asked once more, with
/// proofs ([`VidMsg::RequestProven`]). The proven path is the paper's, and
/// only it yields [`Retrieved::BadUploader`]. See the crate docs for why
/// the two paths agree.
pub struct Retriever<C: Coder> {
    n: usize,
    /// While optimistic: the committed root and the bare chunks `(index,
    /// payload)` gathered so far. `None` once the retrieval asks with
    /// proofs.
    optimistic: Option<(Hash, Vec<(u32, ChunkPayload)>)>,
    /// Verified chunks grouped by root: `(root, [(index, payload)])`.
    by_root: Vec<(Hash, Vec<(u32, ChunkPayload)>)>,
    result: Option<Retrieved<C::Block>>,
    /// Send `Cancel` once decoded (§6.3 optimization).
    early_cancel: bool,
    /// Servers the start asked (after escalation every server counts).
    targets: NodeSet,
    /// Asked servers that returned anything since they were last asked.
    answered: NodeSet,
    /// Peers the latest requests asked again while they still owed an
    /// answer to an earlier one.
    reasked: NodeSet,
    /// Whether every server has been asked ([`Retriever::escalate`], or the
    /// fall-back to proofs); it happens at most once.
    escalated: bool,
    _coder: std::marker::PhantomData<C>,
}

impl<C: Coder> Retriever<C> {
    /// Create and start a retrieval that asks all `n` servers, with proofs.
    /// **Benchmark-only**: `dl-e2e/src/layers.rs` times a retrieval through
    /// it; the engine starts every retrieval with
    /// [`Retriever::start_targeted`] and reaches ask-everyone by
    /// [`Retriever::escalate`]. Goes when the benchmark is next thawed
    /// (ROADMAP direction 2(a)), and `early_cancel` with it.
    pub fn start(n: usize, early_cancel: bool) -> (Retriever<C>, Vec<VidEffect<C::Block>>) {
        let mut r = Retriever::idle(n, None, early_cancel);
        let effects = r.escalate();
        (r, effects)
    }

    /// Create and start a retrieval that asks only `targets`; `Cancel` on
    /// decode is always on. With the committed `root` it is optimistic
    /// (bare chunks), without it proven. The retrieval completes as soon as
    /// `N − 2f` of them answer under one root; if they might not, the
    /// caller follows up with [`Retriever::escalate`].
    pub fn start_targeted(
        n: usize,
        root: Option<Hash>,
        targets: impl IntoIterator<Item = NodeId>,
    ) -> (Retriever<C>, Vec<VidEffect<C::Block>>) {
        let mut r = Retriever::idle(n, root, true);
        let ask = r.request();
        let effects = targets
            .into_iter()
            .filter(|to| to.idx() < n && r.targets.insert(*to))
            .map(|to| VidEffect::Send(to, ask.clone()))
            .collect();
        (r, effects)
    }

    fn idle(n: usize, root: Option<Hash>, early_cancel: bool) -> Retriever<C> {
        Retriever {
            n,
            optimistic: root.map(|root| (root, Vec::new())),
            by_root: Vec::new(),
            result: None,
            early_cancel,
            targets: NodeSet::new(),
            answered: NodeSet::new(),
            reasked: NodeSet::new(),
            escalated: false,
            _coder: std::marker::PhantomData,
        }
    }

    /// The request this retrieval sends: bare while optimistic.
    fn request(&self) -> VidMsg {
        match self.optimistic {
            Some(_) => VidMsg::RequestChunk,
            None => VidMsg::RequestProven,
        }
    }

    /// Ask every server that has not answered, silent targets again (a
    /// request or its answer may have been lost). Effective at most once
    /// per retrieval, and never after it finished; returns the requests.
    pub fn escalate(&mut self) -> Vec<VidEffect<C::Block>> {
        if self.escalated || self.result.is_some() {
            return Vec::new();
        }
        self.reasked = self.awaited().collect();
        self.escalated = true;
        self.ask_awaited()
    }

    /// Ask every server that still owes an answer once more: after
    /// escalation, a request or its answer may have been lost too. Only
    /// the caller's timer calls this — evidence never does, so a lying
    /// server cannot make a retrieval re-send. Nothing before escalation
    /// or after the retrieval finished; returns the requests.
    pub fn reask(&mut self) -> Vec<VidEffect<C::Block>> {
        if !self.escalated || self.result.is_some() {
            return Vec::new();
        }
        self.reasked = self.awaited().collect();
        self.ask_awaited()
    }

    fn ask_awaited(&self) -> Vec<VidEffect<C::Block>> {
        let ask = self.request();
        self.awaited()
            .map(|to| VidEffect::Send(to, ask.clone()))
            .collect()
    }

    /// The bare chunks failed the re-encoding check: drop them and ask
    /// every server once more, with proofs.
    fn fall_back(&mut self) -> Vec<VidEffect<C::Block>> {
        self.optimistic = None;
        self.reasked = self.awaited().collect();
        self.escalated = true;
        self.answered = NodeSet::new();
        (0..self.n as u16)
            .map(|to| VidEffect::Send(NodeId(to), VidMsg::RequestProven))
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

    /// Whether the latest request to `peer` repeats one it still owed an
    /// answer to: a silent target that escalation, or the fall-back to
    /// proofs, asked again.
    pub fn reasks(&self, peer: NodeId) -> bool {
        self.reasked.contains(peer)
    }

    fn asked(&self, peer: NodeId) -> bool {
        peer.idx() < self.n && (self.escalated || self.targets.contains(peer))
    }

    /// Every peer for which [`Retriever::awaiting`] holds, in id order.
    pub fn awaited(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n as u16).map(NodeId).filter(|p| self.awaiting(*p))
    }

    /// Handle a returned chunk from server `from`: a `ReturnBare` while
    /// optimistic, a `ReturnChunk` once proven. Either marks `from` as
    /// having answered; the other kind's payload (a late answer to a bare
    /// request, or an answer nobody asked for) is dropped.
    ///
    /// Evidence that an asked server is faulty — a proven chunk that fails
    /// verification, or one under a second root (correct servers all serve
    /// the one completed root) — escalates at once: the targeted subset can
    /// no longer be trusted to hold `N − 2f` good chunks.
    pub fn handle(&mut self, coder: &C, from: NodeId, msg: VidMsg) -> Vec<VidEffect<C::Block>> {
        let mut out = Vec::new();
        if self.result.is_some() || !self.asked(from) {
            // Done, or unsolicited: not evidence about anyone we rely on.
            return out;
        }
        let (root, proof, payload) = match msg {
            VidMsg::ReturnBare { payload } => {
                self.answered.insert(from);
                let Some((root, bare)) = self.optimistic.as_mut() else {
                    return out;
                };
                if bare.iter().any(|(i, _)| *i == from.0 as u32) {
                    return out; // duplicate
                }
                bare.push((from.0 as u32, payload));
                if bare.len() < coder.data_chunks() {
                    return out;
                }
                return match coder.decode(root, bare) {
                    Retrieved::Block(block) => self.finish(Retrieved::Block(block)),
                    Retrieved::BadUploader => self.fall_back(),
                };
            }
            VidMsg::ReturnChunk {
                root,
                proof,
                payload,
            } => (root, proof, payload),
            _ => return out,
        };
        self.answered.insert(from);
        if self.optimistic.is_some() {
            return out;
        }
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
            out = self.finish(result);
        } else if self.by_root.len() > 1 {
            return self.escalate();
        }
        out
    }

    /// Output `result`, cancelling the asked peers that still owe a chunk.
    fn finish(&mut self, result: Retrieved<C::Block>) -> Vec<VidEffect<C::Block>> {
        let mut out = vec![VidEffect::Retrieved(result.clone())];
        if self.early_cancel {
            out.extend(self.awaited().map(|p| VidEffect::Send(p, VidMsg::Cancel)));
        }
        self.result = Some(result);
        out
    }
}

#[cfg(test)]
mod tests;
