//! Layer kernels timed directly through each crate's public API, at the
//! cluster size and block size the traced workload actually produced.
//! These are the numbers an optimisation of one layer moves first; the
//! README says which end-to-end metric each should then move.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use dl_ba::{Ba, BaEffect};
use dl_core::{SendQueue, StoreRecord};
use dl_crypto::{sha256, Hash, MerkleTree};
use dl_erasure::ReedSolomon;
use dl_pool::Pool;
use dl_store::{ChainStore, FileStore, MemoryStore};
use dl_vid::{Coder, Disperser, RealCoder, Retriever, VidEffect};
use dl_wire::frame::{encode_frame, FrameDecoder};
use dl_wire::{BaMsg, Envelope, Epoch, NodeId, VidMsg, WireEncode};

use crate::gen::Rng;

/// Seconds per call of `f`: one warm-up call, then at least `min_iters`
/// calls and `min_secs` of measurement.
pub fn time_it(mut f: impl FnMut(), min_secs: f64, min_iters: u32) -> f64 {
    f();
    let start = Instant::now();
    let mut iters = 0u32;
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if (iters >= min_iters && elapsed >= min_secs) || iters >= 1_000_000 {
            return elapsed / f64::from(iters);
        }
    }
}

/// Measurement budget per kernel.
const SECS: f64 = 0.04;
const ITERS: u32 = 3;

fn mbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

/// Every kernel metric, as `(name, value)`. `scratch` is a directory
/// inside the checkout for the file-backed store.
pub fn measure(
    n: usize,
    block_bytes: usize,
    seed: u64,
    scratch: &Path,
) -> Vec<(&'static str, f64)> {
    let f = (n - 1) / 3;
    let k = n - 2 * f;
    let mut block = vec![0u8; block_bytes.max(1)];
    Rng::derive(seed, 77).fill(&mut block);
    let pool = Pool::global();
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    // erasure + pool
    let rs = ReedSolomon::for_cluster(n, f).expect("valid cluster");
    let enc = time_it(
        || drop(black_box(rs.encode_block_shared(&block))),
        SECS,
        ITERS,
    );
    let enc_pooled = time_it(
        || drop(black_box(rs.encode_block_shared_pooled(&block, pool))),
        SECS,
        ITERS,
    );
    let coded = rs.encode_block_shared(&block);
    // Decode from the last k chunks: as many parity shards as the code has.
    let refs: Vec<(usize, &[u8])> = (n - k..n).map(|i| (i, coded.chunk_bytes(i))).collect();
    let dec = time_it(
        || {
            drop(black_box(
                rs.reconstruct_block_shared(&refs).expect("decodable"),
            ))
        },
        SECS,
        ITERS,
    );
    let dec_pooled = time_it(
        || {
            drop(black_box(
                rs.reconstruct_block_shared_pooled(&refs, pool)
                    .expect("decodable"),
            ))
        },
        SECS,
        ITERS,
    );
    out.push(("erasure.encode_mbps", mbps(block.len(), enc)));
    out.push(("erasure.encode_pooled_mbps", mbps(block.len(), enc_pooled)));
    out.push(("erasure.decode_mbps", mbps(block.len(), dec)));
    out.push(("erasure.decode_pooled_mbps", mbps(block.len(), dec_pooled)));
    let dispatch = time_it(
        || {
            pool.run(pool.threads().max(1) * 4, |i| {
                black_box(i);
            })
        },
        SECS,
        ITERS,
    );
    out.push(("pool.dispatch_us", dispatch * 1e6));
    out.push(("pool.encode_speedup", enc / enc_pooled));
    out.push(("pool.threads", pool.threads() as f64));

    // crypto
    let sha = time_it(
        || {
            black_box(sha256(&block));
        },
        SECS,
        ITERS,
    );
    out.push(("crypto.sha256_mbps", mbps(block.len(), sha)));
    let chunk_refs = coded.chunk_refs();
    let codeword: usize = chunk_refs.iter().map(|c| c.len()).sum();
    let build = time_it(
        || drop(black_box(MerkleTree::build(&chunk_refs))),
        SECS,
        ITERS,
    );
    out.push(("crypto.merkle_build_mbps", mbps(codeword, build)));
    let tree = MerkleTree::build(&chunk_refs);
    let (root, proof) = (tree.root(), tree.prove(1));
    let verify = time_it(
        || assert!(black_box(proof.verify(&root, chunk_refs[1]))),
        SECS,
        ITERS,
    );
    out.push(("crypto.merkle_verify_ns", verify * 1e9));

    // vid: one dispersal, and one retrieval fed exactly k chunks.
    let coder = RealCoder::new(n, f);
    let shared = Bytes::from(block.clone());
    let disperse = time_it(
        || drop(black_box(Disperser::disperse(&coder, &shared))),
        SECS,
        ITERS,
    );
    out.push(("vid.disperse_us", disperse * 1e6));
    let encoded = coder.encode(&shared);
    let returns: Vec<(NodeId, VidMsg)> = (n - k..n)
        .map(|i| {
            let (payload, proof) = encoded.chunks[i].clone();
            let msg = VidMsg::ReturnChunk {
                root: encoded.root,
                proof,
                payload,
            };
            (NodeId(i as u16), msg)
        })
        .collect();
    let retrieve = time_it(
        || {
            let (mut r, _) = Retriever::<RealCoder>::start(n, true);
            let mut done = false;
            for (from, msg) in &returns {
                let effects = r.handle(&coder, *from, msg.clone());
                done |= effects.iter().any(|e| matches!(e, VidEffect::Retrieved(_)));
            }
            assert!(done, "k chunks must decode");
        },
        SECS,
        ITERS,
    );
    out.push(("vid.retrieve_us", retrieve * 1e6));

    // ba: one instance per node, everyone inputs 1, flood to quiescence.
    let mut ba_msgs = 0u64;
    let ba = time_it(
        || {
            let salt = Hash::digest(b"dl-e2e ba kernel");
            let mut nodes: Vec<Ba> = (0..n).map(|_| Ba::new(n, f, salt)).collect();
            let mut wire: Vec<(NodeId, BaMsg)> = Vec::new();
            let push = |from: usize, effects: Vec<BaEffect>, wire: &mut Vec<(NodeId, BaMsg)>| {
                for e in effects {
                    if let BaEffect::Broadcast(m) = e {
                        wire.push((NodeId(from as u16), m));
                    }
                }
            };
            for (i, ba) in nodes.iter_mut().enumerate() {
                let effects = ba.input(true);
                push(i, effects, &mut wire);
            }
            ba_msgs = 0;
            while let Some((from, msg)) = wire.pop() {
                for (i, ba) in nodes.iter_mut().enumerate() {
                    ba_msgs += 1;
                    let effects = ba.handle(from, msg);
                    push(i, effects, &mut wire);
                }
            }
            assert!(nodes.iter().all(|b| b.decision() == Some(true)));
        },
        SECS,
        ITERS,
    );
    out.push(("ba.handle_ns_per_msg", ba * 1e9 / ba_msgs.max(1) as f64));

    // wire: the two envelopes that dominate bytes (chunk) and count (vote).
    let (payload, proof) = encoded.chunks[0].clone();
    let chunk_env = Envelope::vid(
        Epoch(7),
        NodeId(1),
        VidMsg::Chunk {
            root: encoded.root,
            proof: proof.clone(),
            payload: payload.clone(),
        },
    );
    let vote_env = Envelope::ba(
        Epoch(7),
        NodeId(1),
        BaMsg::BVal {
            round: 0,
            value: true,
        },
    );
    for (env, enc_name, dec_name) in [
        (
            &chunk_env,
            "wire.frame_encode_ns.chunk",
            "wire.frame_decode_ns.chunk",
        ),
        (
            &vote_env,
            "wire.frame_encode_ns.vote",
            "wire.frame_decode_ns.vote",
        ),
    ] {
        let e = time_it(|| drop(black_box(encode_frame(env))), SECS, ITERS);
        out.push((enc_name, e * 1e9));
        let framed = encode_frame(env).to_vec();
        let d = time_it(
            || {
                let mut dec = FrameDecoder::new();
                dec.extend(&framed);
                let got = dec.next_frame().expect("valid frame").expect("whole frame");
                drop(black_box(got));
            },
            SECS,
            ITERS,
        );
        out.push((dec_name, d * 1e9));
    }
    out.push(("wire.vote_wire_bytes", vote_env.wire_size() as f64));

    // net: the vectored zero-copy write path, into memory.
    let frame = encode_frame(&chunk_env);
    let mut sinkbuf: Vec<u8> = Vec::with_capacity(frame.len());
    let write = time_it(
        || {
            sinkbuf.clear();
            dl_net::write_segments(&mut sinkbuf, &frame).expect("write to memory");
        },
        SECS,
        ITERS,
    );
    out.push(("net.write_segments_mbps", mbps(frame.len(), write)));

    // core: the §5 two-class send queue, one push + one pop per op.
    let mixed: Vec<Envelope> = (0..64u64)
        .map(|i| match i % 4 {
            0 => Envelope::vid(Epoch(1 + i % 3), NodeId(2), VidMsg::RequestChunk),
            _ => vote_env.clone(),
        })
        .collect();
    let queue = time_it(
        || {
            let mut q = SendQueue::new();
            for env in &mixed {
                q.push(env.clone());
            }
            while let Some(env) = q.pop() {
                drop(black_box(env));
            }
        },
        SECS,
        ITERS,
    );
    out.push(("core.sendqueue_ns_per_op", queue * 1e9 / mixed.len() as f64));

    // store: a chunk record is what the WAL mostly holds.
    let record = StoreRecord::Chunk {
        epoch: Epoch(7),
        index: NodeId(1),
        root: encoded.root,
        proof,
        payload,
    }
    .to_bytes();
    let mut mem = MemoryStore::new();
    let append_mem = time_it(|| mem.append(&record).expect("memory append"), SECS, ITERS);
    out.push(("store.append_us.mem", append_mem * 1e6));
    let path = scratch.join("store-kernel.log");
    let _ = std::fs::remove_file(&path);
    let mut file = FileStore::open(&path).expect("open scratch log");
    let append_file = time_it(|| file.append(&record).expect("file append"), SECS, ITERS);
    out.push(("store.append_us.file", append_file * 1e6));
    // fsync cost depends on the sandbox's disk: few iterations, no claims.
    let sync_always = time_it(
        || {
            file.append(&record).expect("file append");
            file.sync().expect("fsync");
        },
        0.0,
        8,
    );
    out.push(("store.sync_us.always", sync_always * 1e6));
    // EpochBoundary: one fsync per epoch's worth of records (N chunks).
    let sync_epoch = time_it(
        || {
            for _ in 0..n {
                file.append(&record).expect("file append");
            }
            file.sync().expect("fsync");
        },
        0.0,
        4,
    );
    out.push(("store.sync_us.epoch", sync_epoch * 1e6 / n as f64));
    let log_bytes = file.log_bytes() as usize;
    let replay = time_it(
        || drop(black_box(file.replay().expect("replay"))),
        SECS,
        ITERS,
    );
    out.push(("store.replay_mbps", mbps(log_bytes, replay)));
    drop(file);
    let _ = std::fs::remove_file(&path);
    out
}
