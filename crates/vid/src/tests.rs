//! AVID-M property tests: Termination, Agreement, Availability, Correctness
//! under crash faults, Byzantine dispersers and adversarial schedules.

use super::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// In-memory VID network: N servers, a message pool delivered in seeded
/// random order, plus any number of retrieval clients.
struct Net {
    n: usize,
    coder: RealCoder,
    servers: Vec<VidServer<RealCoder>>,
    /// Crashed servers drop all input and send nothing.
    crashed: Vec<bool>,
    /// (from, to, msg)
    pool: Vec<(NodeId, NodeId, VidMsg)>,
    completes: Vec<Option<Hash>>,
    retrievers: Vec<(NodeId, Retriever<RealCoder>)>,
    results: Vec<Option<Retrieved<bytes::Bytes>>>,
    rng: StdRng,
}

impl Net {
    fn new(n: usize, f: usize, seed: u64) -> Net {
        Net {
            n,
            coder: RealCoder::new(n, f),
            servers: (0..n)
                .map(|i| VidServer::new(NodeId(i as u16), n, f))
                .collect(),
            crashed: vec![false; n],
            pool: Vec::new(),
            completes: vec![None; n],
            retrievers: Vec::new(),
            results: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn disperse(&mut self, from: NodeId, block: &[u8]) {
        for eff in Disperser::disperse(&self.coder, &bytes::Bytes::copy_from_slice(block)) {
            if let VidEffect::Send(to, msg) = eff {
                self.pool.push((from, to, msg));
            }
        }
    }

    /// A Byzantine disperser: sends each server a chunk of a block of its
    /// own, `base` with the server's id appended, under that block's root
    /// (equivocation — no root reaches a second server).
    fn disperse_equivocating(&mut self, from: NodeId, base: &[u8]) {
        for i in 0..self.n {
            let block = [base, &[i as u8]].concat();
            let enc = self.coder.encode(&bytes::Bytes::from(block));
            let (root, (payload, proof)) = (enc.root, enc.chunks[i].clone());
            self.pool.push((
                from,
                NodeId(i as u16),
                VidMsg::Chunk {
                    root,
                    proof,
                    payload,
                },
            ));
        }
    }

    /// A Byzantine disperser that commits to *inconsistent* chunks: random
    /// garbage chunks under one Merkle root. Proofs are valid (the root
    /// really commits the garbage), but the chunks are not an RS codeword.
    fn disperse_inconsistent(&mut self, from: NodeId, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let garbage: Vec<Vec<u8>> = (0..self.n)
            .map(|_| (0..64).map(|_| rng.gen()).collect())
            .collect();
        self.disperse_chunks(from, &garbage);
    }

    /// A Byzantine disperser that commits to arbitrary chunks, one per
    /// server, under one honest Merkle root.
    fn disperse_chunks(&mut self, from: NodeId, chunks: &[Vec<u8>]) {
        let enc = commit(chunks);
        for (i, (payload, proof)) in enc.chunks.into_iter().enumerate() {
            self.pool.push((
                from,
                NodeId(i as u16),
                VidMsg::Chunk {
                    root: enc.root,
                    proof,
                    payload,
                },
            ));
        }
    }

    fn start_retrieval(&mut self, client: NodeId) {
        let started = Retriever::<RealCoder>::start(self.n, true);
        self.add_retrieval(client, started);
    }

    /// A retrieval that asks only `targets` (and whoever a later
    /// escalation adds), with proofs.
    fn start_targeted_retrieval(&mut self, client: NodeId, targets: &[u16]) {
        let targets = targets.iter().map(|&t| NodeId(t));
        let started = Retriever::<RealCoder>::start_targeted(self.n, None, targets);
        self.add_retrieval(client, started);
    }

    /// A retrieval that knows the committed `root`: it asks every server
    /// for bare chunks.
    fn start_optimistic_retrieval(&mut self, client: NodeId, root: Hash) {
        let targets = (0..self.n as u16).map(NodeId);
        let started = Retriever::<RealCoder>::start_targeted(self.n, Some(root), targets);
        self.add_retrieval(client, started);
    }

    fn add_retrieval(
        &mut self,
        client: NodeId,
        (r, effects): (Retriever<RealCoder>, Vec<VidEffect<bytes::Bytes>>),
    ) {
        self.retrievers.push((client, r));
        self.results.push(None);
        self.route_client_effects(self.retrievers.len() - 1, effects);
    }

    /// Retrievers only ever address single servers: requests, then cancels.
    fn route_client_effects(&mut self, pos: usize, effects: Vec<VidEffect<bytes::Bytes>>) {
        let client = self.retrievers[pos].0;
        for eff in effects {
            match eff {
                VidEffect::Retrieved(r) => {
                    assert!(self.results[pos].is_none());
                    self.results[pos] = Some(r);
                }
                VidEffect::Send(to, msg) => {
                    assert!(matches!(
                        msg,
                        VidMsg::RequestChunk | VidMsg::RequestProven | VidMsg::Cancel
                    ));
                    self.pool.push((client, to, msg));
                }
                VidEffect::Broadcast(_) | VidEffect::Complete(_) => {
                    unreachable!("retrievers neither broadcast nor complete")
                }
            }
        }
    }

    fn escalate(&mut self, pos: usize) {
        let effects = self.retrievers[pos].1.escalate();
        self.route_client_effects(pos, effects);
    }

    fn apply_server_effects(&mut self, server: usize, effects: Vec<VidEffect<bytes::Bytes>>) {
        for eff in effects {
            match eff {
                VidEffect::Send(to, msg) => {
                    self.pool.push((NodeId(server as u16), to, msg));
                }
                VidEffect::Broadcast(msg) => {
                    for to in 0..self.n {
                        self.pool
                            .push((NodeId(server as u16), NodeId(to as u16), msg.clone()));
                    }
                }
                VidEffect::Complete(root) => {
                    assert!(self.completes[server].is_none(), "double Complete");
                    self.completes[server] = Some(root);
                }
                VidEffect::Retrieved(_) => unreachable!("server cannot retrieve"),
            }
        }
    }

    /// Deliver everything (random order). Retrieval clients are identified
    /// by NodeIds ≥ n so server messages reach them.
    fn run(&mut self) {
        let mut steps = 0;
        while !self.pool.is_empty() {
            steps += 1;
            assert!(steps < 1_000_000, "runaway schedule");
            let idx = self.rng.gen_range(0..self.pool.len());
            let (from, to, msg) = self.pool.swap_remove(idx);
            if to.idx() < self.n {
                if self.crashed[to.idx()] {
                    continue;
                }
                let effects = self.servers[to.idx()].handle(&self.coder, from, msg);
                self.apply_server_effects(to.idx(), effects);
            } else {
                // A retrieval client.
                let pos = self
                    .retrievers
                    .iter()
                    .position(|(c, _)| *c == to)
                    .expect("unknown client");
                let effects = self.retrievers[pos].1.handle(&self.coder, from, msg);
                self.route_client_effects(pos, effects);
            }
        }
    }

    fn client_id(&self, i: usize) -> NodeId {
        NodeId((self.n + i) as u16)
    }
}

fn block(len: usize) -> bytes::Bytes {
    (0..len).map(|i| (i * 37 + 11) as u8).collect()
}

/// Arbitrary chunks under the honest Merkle root over them: every proof
/// verifies, whatever the chunks are.
fn commit(chunks: &[Vec<u8>]) -> EncodedBlock {
    let tree = dl_crypto::MerkleTree::build(chunks);
    let chunks = chunks
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let payload = dl_wire::ChunkPayload::Real(bytes::Bytes::from(c.clone()));
            (payload, tree.prove(i as u32))
        })
        .collect();
    EncodedBlock {
        root: tree.root(),
        chunks,
    }
}

/// The honest chunks of a block, except that chunk 1 is two bytes longer
/// than the rest: the chunks of *unequal lengths* a Byzantine disperser
/// can commit to. Every `k`-subset without chunk 1 still decodes.
fn unequal_chunks(coder: &RealCoder, len: usize) -> Vec<Vec<u8>> {
    let mut chunks: Vec<Vec<u8>> = coder
        .encode(&block(len))
        .chunks
        .iter()
        .map(|(payload, _)| match payload {
            dl_wire::ChunkPayload::Real(b) => b.to_vec(),
            dl_wire::ChunkPayload::Synthetic { .. } => panic!("real coder sends real payloads"),
        })
        .collect();
    chunks[1].extend_from_slice(&[0xAB, 0xCD]);
    chunks
}

#[test]
fn termination_all_correct() {
    for seed in 0..20 {
        let mut net = Net::new(4, 1, seed);
        net.disperse(NodeId(0), &block(1000));
        net.run();
        assert!(net.completes.iter().all(|c| c.is_some()), "seed {seed}");
        // Agreement on the root.
        let roots: Vec<_> = net.completes.iter().flatten().collect();
        assert!(roots.windows(2).all(|w| w[0] == w[1]));
    }
}

#[test]
fn termination_with_f_crashes() {
    for seed in 0..20 {
        let mut net = Net::new(7, 2, seed);
        net.crashed[1] = true;
        net.crashed[5] = true;
        net.disperse(NodeId(0), &block(5000));
        net.run();
        for i in 0..7 {
            if !net.crashed[i] {
                assert!(net.completes[i].is_some(), "server {i} seed {seed}");
            }
        }
    }
}

#[test]
fn retrieval_returns_dispersed_block() {
    for seed in 0..10 {
        let mut net = Net::new(4, 1, seed);
        let b = block(2500);
        net.disperse(NodeId(0), &b);
        let c = net.client_id(0);
        net.start_retrieval(c);
        net.run();
        assert_eq!(
            net.results[0],
            Some(Retrieved::Block(b.clone())),
            "seed {seed}"
        );
    }
}

#[test]
fn retrieval_succeeds_with_only_n_minus_2f_responders() {
    // Availability floor: f crashed + f more crash *after* dispersal; the
    // remaining N−2f chunks must reconstruct.
    for seed in 0..10 {
        let mut net = Net::new(7, 2, seed);
        let b = block(900);
        net.disperse(NodeId(0), &b);
        net.run();
        assert!(net.completes.iter().all(|c| c.is_some()));
        // Now 2f servers go dark before any retrieval.
        net.crashed[0] = true;
        net.crashed[1] = true;
        net.crashed[2] = true;
        net.crashed[3] = true;
        let c = net.client_id(0);
        net.start_retrieval(c);
        net.run();
        assert_eq!(
            net.results[0],
            Some(Retrieved::Block(b.clone())),
            "seed {seed}"
        );
    }
}

#[test]
fn equivocating_disperser_never_completes() {
    // No root can gather N−f GotChunks when each server holds a root of
    // its own: its holder and the proposer's implied claim are 2 < N−f = 3.
    // (Two roots of two servers each would complete: the proposer's chunk
    // is its `GotChunk`, so each root would gather 3.)
    for seed in 0..10 {
        let mut net = Net::new(4, 1, seed);
        net.disperse_equivocating(NodeId(0), &block(100));
        net.run();
        assert!(net.completes.iter().all(|c| c.is_none()), "seed {seed}");
    }
}

#[test]
fn inconsistent_encoding_yields_bad_uploader_for_every_client() {
    // Correctness under a malicious disperser: the dispersal *completes*
    // (chunks all verify against the root), but every retrieval returns the
    // canonical BadUploader value — and crucially, all clients agree.
    for seed in 0..10 {
        let mut net = Net::new(4, 1, seed);
        net.disperse_inconsistent(NodeId(0), seed);
        net.run();
        assert!(net.completes.iter().all(|c| c.is_some()), "seed {seed}");
        net.start_retrieval(net.client_id(0));
        net.start_retrieval(net.client_id(1));
        net.run();
        assert_eq!(net.results[0], Some(Retrieved::BadUploader), "seed {seed}");
        assert_eq!(net.results[1], Some(Retrieved::BadUploader), "seed {seed}");
    }
}

#[test]
fn unequal_length_chunks_decode_to_bad_uploader_for_every_subset() {
    // Correctness when the chunks under one root differ in length: whichever
    // `k` chunks a retriever draws, in whatever order, it must decode to the
    // same canonical value, never panic. A subset that spans the odd chunk
    // cannot be decoded at all; an equal-length one decodes, and its
    // re-encoding misses the committed root.
    for (n, f) in [(4, 1), (7, 2)] {
        let coder = RealCoder::new(n, f);
        let k = coder.data_chunks();
        let enc = commit(&unequal_chunks(&coder, 16));
        let lens: Vec<usize> = enc.chunks.iter().map(|(p, _)| p.len()).collect();
        assert!(lens[1] == lens[0] + 2 && lens[2..].iter().all(|&l| l == lens[0]));
        // Every ordered k-subset: the k base-n digits of `code`, distinct.
        let mut drawn = 0;
        for code in 0..n.pow(k as u32) {
            let subset: Vec<usize> = (0..k).map(|d| code / n.pow(d as u32) % n).collect();
            if (1..k).any(|a| subset[..a].contains(&subset[a])) {
                continue;
            }
            let chunks: Vec<(u32, dl_wire::ChunkPayload)> = subset
                .iter()
                .map(|&i| (i as u32, enc.chunks[i].0.clone()))
                .collect();
            assert_eq!(
                coder.decode(&enc.root, &chunks),
                Retrieved::BadUploader,
                "n={n} subset {subset:?}"
            );
            drawn += 1;
        }
        assert_eq!(drawn, (n - k + 1..=n).product::<usize>(), "n={n}");
    }
}

#[test]
fn unequal_length_chunks_yield_bad_uploader_for_every_client() {
    // The same dispersal through the full protocol: it completes (every
    // chunk proves membership), and every client, whichever chunks reach it
    // first, retrieves BadUploader.
    for seed in 0..10 {
        let mut net = Net::new(4, 1, seed);
        let chunks = unequal_chunks(&net.coder, 16);
        net.disperse_chunks(NodeId(0), &chunks);
        net.run();
        assert!(net.completes.iter().all(|c| c.is_some()), "seed {seed}");
        for c in 0..3 {
            net.start_retrieval(net.client_id(c));
        }
        net.run();
        for (c, result) in net.results.iter().enumerate() {
            assert_eq!(
                *result,
                Some(Retrieved::BadUploader),
                "seed {seed} client {c}"
            );
        }
    }
}

#[test]
fn multiple_clients_retrieve_same_block() {
    for seed in 0..10 {
        let mut net = Net::new(7, 2, seed);
        let b = block(10_000);
        net.disperse(NodeId(3), &b);
        for i in 0..3 {
            net.start_retrieval(net.client_id(i));
        }
        net.run();
        for i in 0..3 {
            assert_eq!(net.results[i], Some(Retrieved::Block(b.clone())));
        }
    }
}

#[test]
fn request_before_complete_is_deferred_not_dropped() {
    // Start retrieval before dispersal: Fig. 4 servers defer the response.
    let mut net = Net::new(4, 1, 42);
    let c = net.client_id(0);
    net.start_retrieval(c);
    net.run(); // requests land, get parked
    assert!(net.results[0].is_none());
    let b = block(321);
    net.disperse(NodeId(0), &b);
    net.run();
    assert_eq!(net.results[0], Some(Retrieved::Block(b)));
}

#[test]
fn forged_proofs_rejected() {
    let n = 4;
    let f = 1;
    let coder = RealCoder::new(n, f);
    let mut server: VidServer<RealCoder> = VidServer::new(NodeId(1), n, f);
    let enc = coder.encode(&block(64));
    // Wrong index: chunk 0's proof sent to server 1.
    let (payload, proof) = enc.chunks[0].clone();
    let effs = server.handle(
        &coder,
        NodeId(0),
        VidMsg::Chunk {
            root: enc.root,
            proof,
            payload,
        },
    );
    assert!(
        effs.is_empty(),
        "server must ignore a chunk that is not its own"
    );
    // Corrupted payload under a valid proof.
    let (payload, proof) = enc.chunks[1].clone();
    let bad_payload = match payload {
        dl_wire::ChunkPayload::Real(b) => {
            let mut v = b.to_vec();
            v[0] ^= 0xff;
            dl_wire::ChunkPayload::Real(bytes::Bytes::from(v))
        }
        _ => unreachable!(),
    };
    let effs = server.handle(
        &coder,
        NodeId(0),
        VidMsg::Chunk {
            root: enc.root,
            proof,
            payload: bad_payload,
        },
    );
    assert!(effs.is_empty());
    assert!(server.completed().is_none());
}

#[test]
fn duplicate_control_messages_ignored() {
    let n = 4;
    let f = 1;
    let coder = RealCoder::new(n, f);
    let mut server: VidServer<RealCoder> = VidServer::new(NodeId(0), n, f);
    let root = Hash::digest(b"some root");
    // The same GotChunk from the same sender three times counts once: no
    // Ready should fire from one sender's spam (needs N−f = 3 senders).
    for _ in 0..3 {
        let effs = server.handle(&coder, NodeId(2), VidMsg::GotChunk { root });
        assert!(effs.is_empty());
    }
    // Three distinct senders do trigger Ready.
    let _ = server.handle(&coder, NodeId(1), VidMsg::GotChunk { root });
    let effs = server.handle(&coder, NodeId(3), VidMsg::GotChunk { root });
    assert!(effs
        .iter()
        .any(|e| matches!(e, VidEffect::Broadcast(VidMsg::Ready { .. }))));
}

#[test]
fn ready_amplification_from_f_plus_one() {
    let n = 4;
    let f = 1;
    let coder = RealCoder::new(n, f);
    let mut server: VidServer<RealCoder> = VidServer::new(NodeId(0), n, f);
    let root = Hash::digest(b"r");
    let e1 = server.handle(&coder, NodeId(1), VidMsg::Ready { root });
    assert!(e1.is_empty());
    let e2 = server.handle(&coder, NodeId(2), VidMsg::Ready { root });
    assert!(e2
        .iter()
        .any(|e| matches!(e, VidEffect::Broadcast(VidMsg::Ready { .. }))));
    // 2f+1 = 3 Readys complete the dispersal even though we hold no chunk.
    let e3 = server.handle(&coder, NodeId(3), VidMsg::Ready { root });
    assert!(e3.contains(&VidEffect::Complete(root)));
}

#[test]
fn server_sends_one_ready_for_one_root_only() {
    // Lemma B.3 in implementation form: once Ready(r) is sent, Ready(r')
    // must never follow.
    let n = 4;
    let f = 1;
    let coder = RealCoder::new(n, f);
    let mut server: VidServer<RealCoder> = VidServer::new(NodeId(0), n, f);
    let r1 = Hash::digest(b"r1");
    let r2 = Hash::digest(b"r2");
    for i in 1..=3u16 {
        let _ = server.handle(&coder, NodeId(i), VidMsg::GotChunk { root: r1 });
    }
    // Now a (impossible for correct peers, but Byzantine-crafted) second
    // quorum for r2.
    let mut effects = Vec::new();
    for i in 1..=3u16 {
        effects.extend(server.handle(&coder, NodeId(i), VidMsg::GotChunk { root: r2 }));
    }
    assert!(
        !effects
            .iter()
            .any(|e| matches!(e, VidEffect::Broadcast(VidMsg::Ready { root }) if *root == r2)),
        "server must not send Ready for a second root"
    );
}

#[test]
fn cancel_clears_pending_request() {
    let n = 4;
    let f = 1;
    let coder = RealCoder::new(n, f);
    let mut server: VidServer<RealCoder> = VidServer::new(NodeId(1), n, f);
    let client = NodeId(9);
    let _ = server.handle(&coder, client, VidMsg::RequestChunk);
    let _ = server.handle(&coder, client, VidMsg::Cancel);
    // Complete the dispersal; the canceled request must not be served.
    let enc = coder.encode(&block(64));
    let (payload, proof) = enc.chunks[1].clone();
    let _ = server.handle(
        &coder,
        NodeId(0),
        VidMsg::Chunk {
            root: enc.root,
            proof,
            payload,
        },
    );
    let mut effects = Vec::new();
    for i in [0u16, 2, 3] {
        effects.extend(server.handle(&coder, NodeId(i), VidMsg::Ready { root: enc.root }));
    }
    assert!(
        !effects.iter().any(|e| matches!(
            e,
            VidEffect::Send(to, VidMsg::ReturnChunk { .. } | VidMsg::ReturnBare { .. })
                if *to == client
        )),
        "canceled request served anyway"
    );
}

#[test]
fn retriever_groups_by_root() {
    // A Byzantine server returns a chunk under a bogus root; it must not
    // count toward the honest root's quorum.
    let n = 4;
    let f = 1;
    let coder = RealCoder::new(n, f);
    let b = block(128);
    let enc = coder.encode(&b);
    let (mut retr, _) = Retriever::<RealCoder>::start(n, false);
    assert!(retr.escalate().is_empty(), "start already asked everyone");

    // Bogus root from server 0 (self-consistent Merkle tree over garbage).
    let garbage: Vec<Vec<u8>> = (0..n)
        .map(|i| vec![i as u8; enc.chunks[0].0.len()])
        .collect();
    let gt = dl_crypto::MerkleTree::build(&garbage);
    let effs = retr.handle(
        &coder,
        NodeId(0),
        VidMsg::ReturnChunk {
            root: gt.root(),
            proof: gt.prove(0),
            payload: dl_wire::ChunkPayload::Real(bytes::Bytes::from(garbage[0].clone())),
        },
    );
    assert!(effs.is_empty());

    // Honest chunks from servers 1 and 2 complete the k=2 quorum.
    for i in [1usize, 2] {
        let (payload, proof) = enc.chunks[i].clone();
        let effs = retr.handle(
            &coder,
            NodeId(i as u16),
            VidMsg::ReturnChunk {
                root: enc.root,
                proof,
                payload,
            },
        );
        if i == 2 {
            assert!(effs
                .iter()
                .any(|e| matches!(e, VidEffect::Retrieved(Retrieved::Block(got)) if *got == b)));
        }
    }
}

#[test]
fn dispersal_fan_out_shares_one_chunk_arena() {
    // A few stripes, and a codeword far past every cache.
    fan_out_shares_one_chunk_arena(5000);
    fan_out_shares_one_chunk_arena(600_000);
}

fn fan_out_shares_one_chunk_arena(len: usize) {
    // The data-plane fast path: the disperser's N chunk messages are
    // zero-copy windows into ONE codeword allocation — the fan-out costs
    // refcount bumps, not per-recipient buffer copies — and each server
    // still receives exactly the chunk bytes of the canonical encoding.
    let n = 7;
    let f = 2;
    let coder = RealCoder::new(n, f);
    let b = block(len);
    let effects = Disperser::disperse(&coder, &b);
    assert_eq!(effects.len(), n);

    let expected = dl_erasure::ReedSolomon::for_cluster(n, f)
        .unwrap()
        .encode_block_shared(&b);
    let mut base_ptr: Option<*const u8> = None;
    let mut shard_len = 0usize;
    for (i, eff) in effects.iter().enumerate() {
        let VidEffect::Send(to, VidMsg::Chunk { payload, .. }) = eff else {
            panic!("dispersal must be per-server chunk sends");
        };
        assert_eq!(to.idx(), i);
        let dl_wire::ChunkPayload::Real(bytes) = payload else {
            panic!("real coder sends real payloads");
        };
        // Identical bytes to what each peer must receive…
        assert_eq!(*bytes, *expected.chunk_bytes(i), "chunk {i} content");
        // …and every payload aliases the same contiguous arena.
        let base = *base_ptr.get_or_insert_with(|| {
            shard_len = bytes.len();
            bytes.as_ref().as_ptr()
        });
        assert_eq!(
            bytes.as_ref().as_ptr(),
            // SAFETY: pointer arithmetic only — the offset stays inside the
            // arena allocation (i < n, shard_len per chunk) and the result
            // is compared, never dereferenced.
            unsafe { base.add(i * shard_len) },
            "chunk {i} is not a view into the shared arena"
        );
        // Cloning the payload (what a driver does to retransmit) shares
        // storage instead of copying.
        let cloned = bytes.clone();
        assert_eq!(cloned.as_ref().as_ptr(), bytes.as_ref().as_ptr());
    }
}

#[test]
fn big_block_roundtrip_through_full_protocol() {
    let mut net = Net::new(16, 5, 3);
    let b = block(300_000);
    net.disperse(NodeId(7), &b);
    net.start_retrieval(net.client_id(0));
    net.run();
    assert_eq!(net.results[0], Some(Retrieved::Block(b)));
}

// ---- targeted retrieval: ask a subset, cancel the silent, escalate once ----

/// The `ReturnChunk` an honest server `i` sends for `enc`.
fn return_chunk(enc: &EncodedBlock, i: usize) -> VidMsg {
    let (payload, proof) = enc.chunks[i].clone();
    VidMsg::ReturnChunk {
        root: enc.root,
        proof,
        payload,
    }
}

fn requests(effects: &[VidEffect<bytes::Bytes>]) -> Vec<u16> {
    effects
        .iter()
        .map(|e| match e {
            VidEffect::Send(to, VidMsg::RequestProven) => to.0,
            other => panic!("expected only requests, got {other:?}"),
        })
        .collect()
}

fn cancels(effects: &[VidEffect<bytes::Bytes>]) -> Vec<u16> {
    effects
        .iter()
        .filter_map(|e| match e {
            VidEffect::Send(to, VidMsg::Cancel) => Some(to.0),
            _ => None,
        })
        .collect()
}

#[test]
fn targeted_start_asks_exactly_the_targets() {
    let targets = [NodeId(5), NodeId(1), NodeId(3)];
    let (retr, effects) = Retriever::<RealCoder>::start_targeted(7, None, targets);
    assert_eq!(requests(&effects), vec![5, 1, 3]);
    for p in 0..7u16 {
        assert_eq!(retr.awaiting(NodeId(p)), [1, 3, 5].contains(&p), "peer {p}");
    }
    // Duplicates and out-of-range ids are not asked (twice).
    let (_, effects) =
        Retriever::<RealCoder>::start_targeted(4, None, [NodeId(2), NodeId(2), NodeId(9)]);
    assert_eq!(requests(&effects), vec![2]);
}

#[test]
fn a_chunk_returned_twice_counts_once() {
    // k = 2: a server that repeats its chunk must not fill the quorum by
    // itself — two copies of one index decode nothing.
    let coder = RealCoder::new(4, 1);
    let b = block(128);
    let enc = coder.encode(&b);
    let (mut retr, _) = Retriever::<RealCoder>::start_targeted(4, None, [NodeId(1), NodeId(2)]);
    for _ in 0..2 {
        let effs = retr.handle(&coder, NodeId(1), return_chunk(&enc, 1));
        assert!(effs.is_empty(), "{effs:?}");
    }
    assert!(retr.result().is_none());
    let effs = retr.handle(&coder, NodeId(2), return_chunk(&enc, 2));
    assert_eq!(effs, [VidEffect::Retrieved(Retrieved::Block(b))]);
}

#[test]
fn targeted_retrieval_decodes_with_k_and_cancels_only_the_asked_and_silent() {
    // N = 7, f = 2, k = 3. Ask five servers; three answer.
    let (n, f) = (7, 2);
    let coder = RealCoder::new(n, f);
    let b = block(4000);
    let enc = coder.encode(&b);
    let (mut retr, _) = Retriever::<RealCoder>::start_targeted(n, None, (0..5).map(NodeId));
    assert!(retr
        .handle(&coder, NodeId(0), return_chunk(&enc, 0))
        .is_empty());
    // Unsolicited chunks neither count nor mark anyone as answered.
    assert!(retr
        .handle(&coder, NodeId(6), return_chunk(&enc, 6))
        .is_empty());
    assert!(retr
        .handle(&coder, NodeId(3), return_chunk(&enc, 3))
        .is_empty());
    assert!(retr.result().is_none(), "two chunks cannot decode at k = 3");
    let effects = retr.handle(&coder, NodeId(4), return_chunk(&enc, 4));
    assert_eq!(effects[0], VidEffect::Retrieved(Retrieved::Block(b)));
    // 1 and 2 were asked and stayed silent; 0, 3, 4 answered; 5 and 6 were
    // never asked.
    assert_eq!(cancels(&effects), vec![1, 2]);
    assert_eq!(effects.len(), 3);
    assert_eq!(retr.awaited().count(), 0, "decode releases everyone");
    assert!(
        retr.escalate().is_empty(),
        "nothing to escalate once decoded"
    );
}

#[test]
fn escalation_asks_each_remaining_peer_exactly_once() {
    // Every peer that has not answered is asked, the silent target 2 again
    // (its request or its answer may have been lost); 4 answered and is
    // left alone.
    let (n, f) = (7, 2);
    let coder = RealCoder::new(n, f);
    let enc = coder.encode(&block(900));
    let (mut retr, _) = Retriever::<RealCoder>::start_targeted(n, None, [NodeId(2), NodeId(4)]);
    assert!(retr
        .handle(&coder, NodeId(4), return_chunk(&enc, 4))
        .is_empty());
    assert!(!retr.reasks(NodeId(2)));
    assert_eq!(requests(&retr.escalate()), vec![0, 1, 2, 3, 5, 6]);
    assert!(retr.reasks(NodeId(2)) && !retr.reasks(NodeId(3)));
    assert!(retr.escalate().is_empty(), "a retrieval escalates once");
    assert_eq!(retr.awaited().count(), n - 1);
}

#[test]
fn reask_repeats_the_requests_still_owed_after_escalation() {
    let (n, f) = (7, 2);
    let coder = RealCoder::new(n, f);
    let b = block(900);
    let enc = coder.encode(&b);
    let (mut retr, _) = Retriever::<RealCoder>::start_targeted(n, None, [NodeId(2), NodeId(4)]);
    assert!(retr.reask().is_empty(), "no re-ask before escalation");
    assert!(retr
        .handle(&coder, NodeId(4), return_chunk(&enc, 4))
        .is_empty());
    retr.escalate();
    assert!(retr
        .handle(&coder, NodeId(0), return_chunk(&enc, 0))
        .is_empty());
    // The answers of 1, 2, 3, 5 and 6 were lost: each is asked again, and
    // every one of them is a repeat.
    assert_eq!(requests(&retr.reask()), vec![1, 2, 3, 5, 6]);
    assert!((1..4).chain(5..7).all(|p| retr.reasks(NodeId(p))));
    assert!(!retr.reasks(NodeId(0)) && !retr.reasks(NodeId(4)));
    let effects = retr.handle(&coder, NodeId(5), return_chunk(&enc, 5));
    assert_eq!(effects[0], VidEffect::Retrieved(Retrieved::Block(b)));
    assert!(retr.reask().is_empty(), "nothing to re-ask once decoded");
}

#[test]
fn bad_chunk_from_an_asked_peer_escalates_at_once() {
    let (n, f) = (7, 2);
    let coder = RealCoder::new(n, f);
    let enc = coder.encode(&block(900));

    // (a) A chunk that fails verification (server 1 replays server 2's):
    // everyone but the liar is asked, the silent targets again.
    let (mut retr, _) = Retriever::<RealCoder>::start_targeted(n, None, (0..4).map(NodeId));
    let effects = retr.handle(&coder, NodeId(1), return_chunk(&enc, 2));
    assert_eq!(requests(&effects), vec![0, 2, 3, 4, 5, 6]);
    assert!(!retr.awaiting(NodeId(1)), "the liar did answer");

    // (b) A proof-valid chunk under a second root.
    let other = coder.encode(&block(901));
    let (mut retr, _) = Retriever::<RealCoder>::start_targeted(n, None, (0..4).map(NodeId));
    assert!(retr
        .handle(&coder, NodeId(0), return_chunk(&enc, 0))
        .is_empty());
    let effects = retr.handle(&coder, NodeId(3), return_chunk(&other, 3));
    assert_eq!(requests(&effects), vec![1, 2, 4, 5, 6]);
    // The honest majority still decodes, and the escalated peers that did
    // not get to answer are cancelled with the rest.
    assert!(retr
        .handle(&coder, NodeId(5), return_chunk(&enc, 5))
        .is_empty());
    let effects = retr.handle(&coder, NodeId(6), return_chunk(&enc, 6));
    assert!(matches!(
        effects[0],
        VidEffect::Retrieved(Retrieved::Block(_))
    ));
    assert_eq!(cancels(&effects), vec![1, 2, 4]);

    // (c) The same evidence from a peer that was never asked is ignored.
    let (mut retr, _) = Retriever::<RealCoder>::start_targeted(n, None, (0..4).map(NodeId));
    assert!(retr
        .handle(&coder, NodeId(6), return_chunk(&enc, 2))
        .is_empty());
}

#[test]
fn targeted_retrieval_over_the_full_protocol_needs_escalation_only_when_starved() {
    // N = 7, f = 2, k = 3: servers 0 and 1 are down. Asking {2, 3, 4}
    // decodes outright; asking {0, 1, 2} stalls until escalation.
    let mut net = Net::new(7, 2, 11);
    let b = block(2000);
    net.disperse(NodeId(6), &b);
    net.crashed[0] = true;
    net.crashed[1] = true;
    net.run();
    let (lucky, starved) = (net.client_id(0), net.client_id(1));
    net.start_targeted_retrieval(lucky, &[2, 3, 4]);
    net.start_targeted_retrieval(starved, &[0, 1, 2]);
    net.run();
    assert_eq!(net.results[0], Some(Retrieved::Block(b.clone())));
    assert_eq!(net.results[1], None, "one live target cannot decode k = 3");
    net.escalate(1);
    net.run();
    assert_eq!(net.results[1], Some(Retrieved::Block(b)));
}

// ---- root-less Ready and optimistic (proof-free) retrieval ----

/// The bare chunk honest server `i` returns for `enc`.
fn bare_chunk(enc: &EncodedBlock, i: usize) -> VidMsg {
    VidMsg::ReturnBare {
        payload: enc.chunks[i].0.clone(),
    }
}

/// `enc`'s chunk `i` with its bytes inverted: wrong bytes, right length.
fn lying_chunk(enc: &EncodedBlock, i: usize) -> VidMsg {
    let dl_wire::ChunkPayload::Real(b) = &enc.chunks[i].0 else {
        panic!("real coder sends real payloads");
    };
    let payload = b.iter().map(|x| !x).collect();
    VidMsg::ReturnBare {
        payload: dl_wire::ChunkPayload::Real(payload),
    }
}

fn broadcasts(effects: &[VidEffect<bytes::Bytes>]) -> Vec<VidMsg> {
    effects
        .iter()
        .filter_map(|e| match e {
            VidEffect::Broadcast(m) => Some(m.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn a_ready_names_its_root_only_when_our_gotchunk_did_not() {
    let (n, f) = (4, 1);
    let coder = RealCoder::new(n, f);
    let enc = coder.encode(&block(64));
    let root = enc.root;
    // Server 1 holds its chunk and broadcast GotChunk(root): its Ready
    // leaves root-less.
    let mut holder: VidServer<RealCoder> = VidServer::new(NodeId(1), n, f);
    let (payload, proof) = enc.chunks[1].clone();
    let chunk = VidMsg::Chunk {
        root,
        proof,
        payload,
    };
    let effs = holder.handle(&coder, NodeId(0), chunk);
    assert_eq!(broadcasts(&effs), [VidMsg::GotChunk { root }]);
    let mut effs = Vec::new();
    for i in [0u16, 2, 3] {
        effs.extend(holder.handle(&coder, NodeId(i), VidMsg::GotChunk { root }));
    }
    assert_eq!(broadcasts(&effs), [VidMsg::ReadyAsGot]);
    assert_eq!(holder.committed_root(), Some(root));
    // Server 2 never got its chunk: its Ready (here by amplification)
    // must carry the root.
    let mut bystander: VidServer<RealCoder> = VidServer::new(NodeId(2), n, f);
    assert_eq!(bystander.committed_root(), None);
    let _ = bystander.handle(&coder, NodeId(0), VidMsg::Ready { root });
    let effs = bystander.handle(&coder, NodeId(1), VidMsg::Ready { root });
    assert_eq!(broadcasts(&effs), [VidMsg::Ready { root }]);
    assert_eq!(bystander.committed_root(), Some(root));
}

#[test]
fn a_proposers_chunk_is_its_gotchunk() {
    let (n, f) = (4, 1);
    let coder = RealCoder::new(n, f);
    let enc = coder.encode(&block(64));
    let root = enc.root;
    let chunk = |i: usize| {
        let (payload, proof) = enc.chunks[i].clone();
        VidMsg::Chunk {
            root,
            proof,
            payload,
        }
    };
    // The proposer stores its own chunk and broadcasts no `GotChunk`.
    let mut proposer: VidServer<RealCoder> = VidServer::new(NodeId(0), n, f);
    assert!(broadcasts(&proposer.handle(&coder, NodeId(0), chunk(0))).is_empty());
    assert_eq!(proposer.stored_chunk().map(|c| c.0), Some(root));
    // A peer counts the chunk as the proposer's `GotChunk`: with its own
    // and one more it has N − f = 3, and its `Ready` is root-less.
    let mut server: VidServer<RealCoder> = VidServer::new(NodeId(1), n, f);
    let effs = server.handle(&coder, NodeId(0), chunk(1));
    assert_eq!(broadcasts(&effs), [VidMsg::GotChunk { root }]);
    let _ = server.handle(&coder, NodeId(1), VidMsg::GotChunk { root });
    let effs = server.handle(&coder, NodeId(2), VidMsg::GotChunk { root });
    assert_eq!(broadcasts(&effs), [VidMsg::ReadyAsGot]);
    // The proposer's root-less `Ready` counts against its chunk's root,
    // with no separate `GotChunk`: its own and node 2's make 2f + 1.
    let _ = server.handle(&coder, NodeId(1), VidMsg::ReadyAsGot);
    let _ = server.handle(&coder, NodeId(0), VidMsg::ReadyAsGot);
    let effs = server.handle(&coder, NodeId(2), VidMsg::Ready { root });
    assert!(effs.contains(&VidEffect::Complete(root)), "{effs:?}");
}

#[test]
fn a_chunk_that_fails_its_proof_implies_no_gotchunk() {
    let (n, f) = (4, 1);
    let coder = RealCoder::new(n, f);
    let enc = coder.encode(&block(64));
    let (payload, proof) = enc.chunks[1].clone();
    let bogus = Hash::digest(b"bogus");
    let mut server: VidServer<RealCoder> = VidServer::new(NodeId(1), n, f);
    let garbage = VidMsg::Chunk {
        root: bogus,
        proof,
        payload,
    };
    assert!(server.handle(&coder, NodeId(0), garbage).is_empty());
    // Two `GotChunk(bogus)`s would reach N − f = 3 with an implied third.
    let _ = server.handle(&coder, NodeId(2), VidMsg::GotChunk { root: bogus });
    let effs = server.handle(&coder, NodeId(3), VidMsg::GotChunk { root: bogus });
    assert!(effs.is_empty(), "{effs:?}");
    assert_eq!(server.committed_root(), None);
}

/// Chunk `i` of `enc`, as its proposer sends it.
fn chunk_msg(enc: &EncodedBlock, i: usize) -> VidMsg {
    let (payload, proof) = enc.chunks[i].clone();
    VidMsg::Chunk {
        root: enc.root,
        proof,
        payload,
    }
}

#[test]
fn roots_wanted_is_answered_once_per_peer_with_a_chunk_and_once_with_a_ready() {
    let (n, f) = (4, 1);
    let coder = RealCoder::new(n, f);
    let enc = coder.encode(&block(64));
    let root = enc.root;
    let mut server: VidServer<RealCoder> = VidServer::new(NodeId(1), n, f);
    // No chunk and no `Ready` yet: nothing to name.
    assert!(server
        .handle(&coder, NodeId(2), VidMsg::RootsWanted)
        .is_empty());
    let _ = server.handle(&coder, NodeId(0), chunk_msg(&enc, 1));
    let ask_thrice = |server: &mut VidServer<RealCoder>| {
        let mut effs = Vec::new();
        for _ in 0..3 {
            for peer in [2, 3] {
                effs.extend(server.handle(&coder, NodeId(peer), VidMsg::RootsWanted));
            }
        }
        effs
    };
    assert_eq!(
        ask_thrice(&mut server),
        [2, 3].map(|p| VidEffect::Send(NodeId(p), VidMsg::GotChunk { root }))
    );
    // Our `Ready` goes out (the proposer's implied `GotChunk`, ours and
    // node 2's): asks now get it, plain, once per peer, and the `GotChunk`
    // half is not sent again.
    let _ = server.handle(&coder, NodeId(1), VidMsg::GotChunk { root });
    let effs = server.handle(&coder, NodeId(2), VidMsg::GotChunk { root });
    assert_eq!(broadcasts(&effs), [VidMsg::ReadyAsGot]);
    assert_eq!(
        ask_thrice(&mut server),
        [2, 3].map(|p| VidEffect::Send(NodeId(p), VidMsg::Ready { root }))
    );
}

#[test]
fn a_rootless_ready_before_its_gotchunk_counts_exactly_once() {
    let (n, f) = (4, 1);
    let coder = RealCoder::new(n, f);
    let root = Hash::digest(b"r");
    let mut server: VidServer<RealCoder> = VidServer::new(NodeId(0), n, f);
    // Node 1's root-less Ready overtakes its GotChunk, twice over: each
    // asks node 1 for its roots, and neither is held or counted.
    for _ in 0..2 {
        assert_eq!(
            server.handle(&coder, NodeId(1), VidMsg::ReadyAsGot),
            [VidEffect::Send(NodeId(1), VidMsg::RootsWanted)]
        );
    }
    // Node 2's arrives in order: one Ready, below the f + 1 = 2
    // amplification line.
    let _ = server.handle(&coder, NodeId(2), VidMsg::GotChunk { root });
    assert!(server
        .handle(&coder, NodeId(2), VidMsg::ReadyAsGot)
        .is_empty());
    // Node 1's GotChunk alone counts no Ready: nothing was held.
    assert!(server
        .handle(&coder, NodeId(1), VidMsg::GotChunk { root })
        .is_empty());
    // Its answered plain Ready does, reaching f + 1.
    let effs = server.handle(&coder, NodeId(1), VidMsg::Ready { root });
    assert_eq!(broadcasts(&effs), [VidMsg::Ready { root }]);
    // Once: neither a repeat of its GotChunk nor of its Ready, root-less
    // (now placed) or plain, adds a vote, so 2f + 1 = 3 needs a third
    // sender. (`dl-core` counts it once as a BA vote too.)
    let mut effs = server.handle(&coder, NodeId(1), VidMsg::GotChunk { root });
    effs.extend(server.handle(&coder, NodeId(1), VidMsg::ReadyAsGot));
    effs.extend(server.handle(&coder, NodeId(1), VidMsg::Ready { root }));
    assert!(effs.is_empty(), "{effs:?}");
    assert_eq!(server.completed(), None);
    let effs = server.handle(&coder, NodeId(3), VidMsg::Ready { root });
    assert!(effs.contains(&VidEffect::Complete(root)));
}

#[test]
fn a_readyasgot_that_overtakes_an_earlier_answer_still_counts() {
    let (n, f) = (4, 1);
    let coder = RealCoder::new(n, f);
    let enc = coder.encode(&block(64));
    let root = enc.root;
    // Node 1 holds proposer 3's chunk. Node 0, whose digest check failed,
    // asks it for its roots before node 1's Ready is out: the answer is
    // the `GotChunk` alone.
    let mut one: VidServer<RealCoder> = VidServer::new(NodeId(1), n, f);
    let _ = one.handle(&coder, NodeId(3), chunk_msg(&enc, 1));
    assert_eq!(
        one.handle(&coder, NodeId(0), VidMsg::RootsWanted),
        [VidEffect::Send(NodeId(0), VidMsg::GotChunk { root })]
    );
    let _ = one.handle(&coder, NodeId(1), VidMsg::GotChunk { root });
    let effs = one.handle(&coder, NodeId(2), VidMsg::GotChunk { root });
    assert_eq!(broadcasts(&effs), [VidMsg::ReadyAsGot]);
    // Node 1's `ReadyAsGot` overtakes that answer: node 0 asks again, and
    // gets the `Ready` the first answer could not carry.
    let mut zero: VidServer<RealCoder> = VidServer::new(NodeId(0), n, f);
    assert_eq!(
        zero.handle(&coder, NodeId(1), VidMsg::ReadyAsGot),
        [VidEffect::Send(NodeId(1), VidMsg::RootsWanted)]
    );
    let answer = one.handle(&coder, NodeId(0), VidMsg::RootsWanted);
    assert_eq!(answer, [VidEffect::Send(NodeId(0), VidMsg::Ready { root })]);
    assert!(one
        .handle(&coder, NodeId(0), VidMsg::RootsWanted)
        .is_empty());
    // It counts: with node 2's, f + 1 Readys amplify node 0's own.
    let _ = zero.handle(&coder, NodeId(2), VidMsg::Ready { root });
    let effs = zero.handle(&coder, NodeId(1), VidMsg::Ready { root });
    assert_eq!(broadcasts(&effs), [VidMsg::Ready { root }]);
    // The overtaken answer lands last and adds no second `Ready`.
    let effs = zero.handle(&coder, NodeId(1), VidMsg::GotChunk { root });
    assert!(effs.is_empty(), "{effs:?}");
    assert_eq!(zero.completed(), None);
}

#[test]
fn a_restored_server_sends_a_rootless_ready_and_a_peer_without_its_gotchunk_asks() {
    // The crash may have beaten the restored chunk's GotChunk to the wire:
    // a peer that never saw it asks, and completes on the answer.
    let (n, f) = (4, 1);
    let coder = RealCoder::new(n, f);
    let enc = coder.encode(&block(64));
    let root = enc.root;
    let (payload, proof) = enc.chunks[0].clone();
    let mut server: VidServer<RealCoder> = VidServer::new(NodeId(0), n, f);
    server.restore(Some((root, payload, proof)), None);
    let mut effs = Vec::new();
    for i in 1..=3u16 {
        effs.extend(server.handle(&coder, NodeId(i), VidMsg::GotChunk { root }));
    }
    assert_eq!(broadcasts(&effs), [VidMsg::ReadyAsGot]);
    let mut peer: VidServer<RealCoder> = VidServer::new(NodeId(2), n, f);
    assert_eq!(
        peer.handle(&coder, NodeId(0), VidMsg::ReadyAsGot),
        [VidEffect::Send(NodeId(0), VidMsg::RootsWanted)]
    );
    let answers = server.handle(&coder, NodeId(2), VidMsg::RootsWanted);
    assert_eq!(
        answers,
        [
            VidEffect::Send(NodeId(2), VidMsg::GotChunk { root }),
            VidEffect::Send(NodeId(2), VidMsg::Ready { root }),
        ]
    );
    for i in [1, 3] {
        let _ = peer.handle(&coder, NodeId(i), VidMsg::Ready { root });
    }
    let mut effs = Vec::new();
    for answer in answers {
        if let VidEffect::Send(_, msg) = answer {
            effs.extend(peer.handle(&coder, NodeId(0), msg));
        }
    }
    assert!(effs.contains(&VidEffect::Complete(root)), "{effs:?}");
}

#[test]
fn servers_answer_bare_requests_bare_and_proven_ones_with_the_proof() {
    let (n, f) = (4, 1);
    let coder = RealCoder::new(n, f);
    let enc = coder.encode(&block(64));
    let mut server: VidServer<RealCoder> = VidServer::new(NodeId(1), n, f);
    let (bare, proven, upgraded) = (NodeId(7), NodeId(8), NodeId(9));
    let _ = server.handle(&coder, bare, VidMsg::RequestChunk);
    let _ = server.handle(&coder, proven, VidMsg::RequestProven);
    // A proven request upgrades a pending bare one: one answer, proven.
    let _ = server.handle(&coder, upgraded, VidMsg::RequestChunk);
    let _ = server.handle(&coder, upgraded, VidMsg::RequestProven);
    let (payload, proof) = enc.chunks[1].clone();
    let chunk = VidMsg::Chunk {
        root: enc.root,
        proof,
        payload,
    };
    let _ = server.handle(&coder, NodeId(0), chunk);
    let mut effs = Vec::new();
    for i in [0u16, 2, 3] {
        effs.extend(server.handle(&coder, NodeId(i), VidMsg::Ready { root: enc.root }));
    }
    let sends: Vec<_> = effs
        .iter()
        .filter_map(|e| match e {
            VidEffect::Send(to, m) => Some((*to, m.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        sends,
        [
            (bare, bare_chunk(&enc, 1)),
            (proven, return_chunk(&enc, 1)),
            (upgraded, return_chunk(&enc, 1)),
        ]
    );
}

#[test]
fn a_retriever_without_a_root_asks_with_proofs() {
    let root = Hash::digest(b"r");
    let (_, effects) = Retriever::<RealCoder>::start_targeted(4, None, [NodeId(1)]);
    assert_eq!(effects, [VidEffect::Send(NodeId(1), VidMsg::RequestProven)]);
    let (_, effects) = Retriever::<RealCoder>::start(4, true);
    assert_eq!(requests(&effects), vec![0, 1, 2, 3]);
    // With the root, the ask is bare, and so is its escalation.
    let (mut retr, effects) = Retriever::<RealCoder>::start_targeted(4, Some(root), [NodeId(1)]);
    assert_eq!(effects, [VidEffect::Send(NodeId(1), VidMsg::RequestChunk)]);
    assert!(retr
        .escalate()
        .iter()
        .all(|e| matches!(e, VidEffect::Send(_, VidMsg::RequestChunk))));
    // Bare chunks are no use to a proven retrieval: dropped, though they
    // do count as answers.
    let coder = RealCoder::new(4, 1);
    let enc = coder.encode(&block(100));
    let (mut retr, _) = Retriever::<RealCoder>::start_targeted(4, None, (0..4).map(NodeId));
    for i in 0..4 {
        assert!(retr
            .handle(&coder, NodeId(i), bare_chunk(&enc, i as usize))
            .is_empty());
    }
    assert!(retr.result().is_none());
    assert_eq!(retr.awaited().count(), 0);
}

#[test]
fn optimistic_retrieval_decodes_bare_chunks_over_the_full_protocol() {
    for seed in 0..10 {
        let mut net = Net::new(7, 2, seed);
        let b = block(3000);
        net.disperse(NodeId(2), &b);
        net.run();
        let root = net.completes[0].expect("completed");
        net.start_optimistic_retrieval(net.client_id(0), root);
        net.run();
        assert_eq!(net.results[0], Some(Retrieved::Block(b)), "seed {seed}");
        assert!(!net.retrievers[0].1.escalated(), "seed {seed}: fell back");
    }
}

#[test]
fn a_lying_server_costs_a_fall_back_not_a_wrong_block() {
    // N = 7, f = 2, k = 3. Servers 0 and 1 answer with wrong bytes of the
    // right length; 2 is honest. The re-encoding misses the root, so the
    // retrieval asks everyone again, with proofs, and decodes from those.
    let (n, f) = (7, 2);
    let coder = RealCoder::new(n, f);
    let b = block(2000);
    let enc = coder.encode(&b);
    let (mut retr, _) =
        Retriever::<RealCoder>::start_targeted(n, Some(enc.root), (0..4).map(NodeId));
    assert!(retr
        .handle(&coder, NodeId(0), lying_chunk(&enc, 0))
        .is_empty());
    assert!(retr
        .handle(&coder, NodeId(2), bare_chunk(&enc, 2))
        .is_empty());
    let effects = retr.handle(&coder, NodeId(1), lying_chunk(&enc, 1));
    assert_eq!(requests(&effects), (0..n as u16).collect::<Vec<_>>());
    assert!(retr.escalated() && retr.result().is_none());
    // Server 3 owed its bare answer and was asked again; the three that
    // answered were asked afresh.
    assert!(retr.reasks(NodeId(3)) && !retr.reasks(NodeId(0)) && !retr.reasks(NodeId(4)));
    // A late bare answer is dropped; proven chunks decode.
    assert!(retr
        .handle(&coder, NodeId(3), bare_chunk(&enc, 3))
        .is_empty());
    for i in [4usize, 5] {
        assert!(retr
            .handle(&coder, NodeId(i as u16), return_chunk(&enc, i))
            .is_empty());
    }
    let effects = retr.handle(&coder, NodeId(6), return_chunk(&enc, 6));
    assert_eq!(effects[0], VidEffect::Retrieved(Retrieved::Block(b)));
    assert_eq!(cancels(&effects), vec![0, 1, 2]);
    // A synthetic payload is no codeword either, and never a panic.
    let (mut retr, _) =
        Retriever::<RealCoder>::start_targeted(n, Some(enc.root), (0..3).map(NodeId));
    let synthetic = VidMsg::ReturnBare {
        payload: dl_wire::ChunkPayload::Synthetic { len: 10 },
    };
    let _ = retr.handle(&coder, NodeId(0), synthetic);
    let _ = retr.handle(&coder, NodeId(1), bare_chunk(&enc, 1));
    let effects = retr.handle(&coder, NodeId(2), bare_chunk(&enc, 2));
    assert_eq!(requests(&effects).len(), n);
}

#[test]
fn inconsistent_encoding_yields_bad_uploader_through_mismatch_then_proofs() {
    // Every retriever knows the committed root and starts optimistic; the
    // bare chunks cannot re-encode to it, so each falls back, and the
    // proven path yields the same BadUploader at every retriever.
    for seed in 0..10 {
        let mut net = Net::new(4, 1, seed);
        if seed % 2 == 0 {
            net.disperse_inconsistent(NodeId(0), seed);
        } else {
            let chunks = unequal_chunks(&net.coder, 16);
            net.disperse_chunks(NodeId(0), &chunks);
        }
        net.run();
        let root = net.completes[1].expect("completes");
        for c in 0..3 {
            net.start_optimistic_retrieval(net.client_id(c), root);
        }
        net.run();
        for (c, (_, retr)) in net.retrievers.iter().enumerate() {
            assert_eq!(
                net.results[c],
                Some(Retrieved::BadUploader),
                "seed {seed} client {c}"
            );
            assert!(retr.escalated(), "seed {seed} client {c}: never fell back");
        }
    }
}
