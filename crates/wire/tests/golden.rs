//! The wire bytes, pinned. The simulator charges every link by these
//! encodings and `dl-net` writes them, so a codec change that moves one
//! byte or one length of this corpus must fail here first.

use bytes::Bytes;
use dl_crypto::merkle::expected_path_len;
use dl_crypto::{Hash, MerkleProof, Sha256};
use dl_wire::{
    encode_frame, encode_segment, frame_header_len, got_digest, BaMsg, Block, BlockHeader,
    ChunkPayload, Envelope, Epoch, NodeId, ProtoMsg, SyncMsg, Tx, VidMsg, WireDecode, WireEncode,
};

/// Appends `bytes`, which claim to be `len` long, to the pinned stream.
fn pin(h: &mut Sha256, len: usize, bytes: &[u8]) {
    assert_eq!(bytes.len(), len);
    h.update(&(len as u64).to_le_bytes());
    h.update(bytes);
}

fn proof(index: u32, leaf_count: u32) -> MerkleProof {
    MerkleProof {
        index,
        leaf_count,
        path: (0..expected_path_len(leaf_count))
            .map(|j| Hash::digest(&[j as u8]))
            .collect(),
    }
}

/// One envelope of every kind at `(epoch, index)`: votes in `round`,
/// chunks under `proof` with `len`-byte payloads, real and synthetic.
fn every_kind(epoch: u64, index: u16, round: u16, proof: MerkleProof, len: usize) -> Vec<Envelope> {
    let root = Hash::digest(b"root");
    let real = ChunkPayload::Real(Bytes::from(vec![9u8; len]));
    let synthetic = ChunkPayload::Synthetic { len: len as u32 };
    let (e, i) = (Epoch(epoch), NodeId(index));
    let mut envs: Vec<Envelope> = [
        VidMsg::Chunk {
            root,
            proof: proof.clone(),
            payload: real.clone(),
        },
        VidMsg::ReturnChunk {
            root,
            proof,
            payload: synthetic.clone(),
        },
        VidMsg::ReturnBare { payload: synthetic },
        VidMsg::ReturnBare { payload: real },
        VidMsg::GotChunk { root },
        VidMsg::Ready { root },
        VidMsg::ReadyAsGot,
        VidMsg::RequestChunk,
        VidMsg::RequestProven,
        VidMsg::Cancel,
    ]
    .into_iter()
    .map(|m| Envelope::vid(e, i, m))
    .collect();
    for value in [false, true] {
        envs.push(Envelope::ba(e, i, BaMsg::BVal { round, value }));
        envs.push(Envelope::ba(e, i, BaMsg::Aux { round, value }));
        envs.push(Envelope::ba(e, i, BaMsg::Term { value }));
    }
    envs.push(Envelope::sync(e, SyncMsg::Request));
    for bits in [0, 1, 8, 9, 130] {
        let committed = (0..bits).map(|j| j % 3 != 1).collect();
        envs.push(Envelope::sync(e, SyncMsg::Outcome { committed }));
    }
    envs
}

#[test]
fn the_wire_bytes_are_pinned() {
    // Every kind at the varint edges, flat and framed; a block of real and
    // synthetic transactions; a `ReturnChunk` cut in two at offsets 1, 64
    // and body − 1. Re-pinned when the frame header became one varint of
    // `len << 3 | tag` in place of `[u32 len][u8 tag]`: every frame and
    // segment moved, no envelope or block body did.
    let mut h = Sha256::new();
    let mut envs = Vec::new();
    for v in [0, 127, 128, 16_383, 16_384, u16::MAX as u64, u64::MAX] {
        let (index, round) = (v.min(u16::MAX as u64) as u16, (v / 2) as u16);
        envs.extend(every_kind(v, index, round, proof(0, 1), 0));
    }
    for (index, leaf_count) in [(1, 127), (127, 128), (128, 129)] {
        for len in [1, 64, 65, 127, 128, 16_384] {
            envs.extend(every_kind(16_384, 1, 1, proof(index, leaf_count), len));
        }
    }
    for env in &envs {
        pin(&mut h, env.encoded_len(), &env.to_bytes());
        pin(&mut h, env.wire_size(), &encode_frame(env).to_vec());
    }

    // Two real transactions, spelled in the codec they pin: no payload,
    // and 200 bytes after a two-byte seq and a six-byte timestamp.
    let mut real = vec![
        3, 0x80, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0, 0xC8, 0x01,
    ];
    real.extend_from_slice(&[0xA5; 200]);
    let block = Block {
        header: BlockHeader {
            epoch: Epoch(16_384),
            proposer: NodeId(128),
            v_array: vec![0, 127, 128, 16_383, 16_384, u64::MAX],
        },
        body: vec![
            Tx::from_bytes(&[0; 5]).expect("an empty real transaction"),
            Tx::from_bytes(&real).expect("a real transaction"),
            Tx::synthetic(NodeId(u16::MAX), u64::MAX, 127, 128),
            Tx::synthetic(NodeId(1), 2, 3, 0),
        ],
    };
    pin(&mut h, block.encoded_len(), &block.to_bytes());

    let ret = Envelope::vid(
        Epoch(300),
        NodeId(5),
        VidMsg::ReturnChunk {
            root: Hash::digest(b"root"),
            proof: proof(5, 16),
            payload: ChunkPayload::Real(Bytes::from((0..=255).collect::<Vec<u8>>())),
        },
    );
    let body = ret.encoded_len();
    for cut in [1, 64, body - 1] {
        for (offset, len) in [(0, cut), (cut, body - cut)] {
            let frame = encode_segment(&ret, offset, len).to_vec();
            pin(&mut h, len + frame_header_len(len), &frame);
        }
    }
    assert_eq!(
        Hash(h.finalize()).to_hex(),
        "4dd8ebc91bf06ab506e3ef107976be6e043fc5e29d8f81eea054155a407fd66c"
    );
}

#[test]
fn the_batch_bytes_are_pinned() {
    // Every batchable kind as a batch at its edges: one extra member, the
    // widest span, `index` 0, and the highest index a batch may start at.
    // Single envelopes keep the bytes pinned above.
    let mut h = Sha256::new();
    for epoch in [1, 128, u64::MAX] {
        for round in [0, 128] {
            // `GotChunk` batches, whose field is a digest, are pinned below.
            let kinds: Vec<_> = every_kind(epoch, 0, round, proof(0, 1), 0)
                .into_iter()
                .filter(|env| {
                    env.payload.batchable()
                        && !matches!(env.payload, ProtoMsg::Vid(VidMsg::GotChunk { .. }))
                })
                .collect();
            assert_eq!(
                kinds.len(),
                7,
                "BVal, Aux and Term of each value, ReadyAsGot"
            );
            for env in kinds {
                let span = Envelope::BATCH_SPAN;
                for (index, more) in [
                    (0, vec![1]),
                    (0, vec![span]),
                    (9, vec![10, 30, 9 + span]),
                    (255 - span, (256 - span..=255).collect()),
                    (254, vec![255]),
                ] {
                    let mut batch = Envelope::new(env.epoch, NodeId(index), env.payload.clone());
                    for m in more {
                        assert!(batch.add_member(NodeId(m)), "{m} joins {index}");
                    }
                    pin(&mut h, batch.encoded_len(), &batch.to_bytes());
                    pin(&mut h, batch.wire_size(), &encode_frame(&batch).to_vec());
                    assert_eq!(Envelope::from_bytes(&batch.to_bytes()), Ok(batch));
                }
            }
        }
    }
    assert_eq!(
        Hash(h.finalize()).to_hex(),
        "d6a146a7e151c58a487710fc405408a8a794540819cd61f569ca807469f65ad7"
    );
}

#[test]
fn the_got_chunk_and_roots_wanted_bytes_are_pinned() {
    // `RootsWanted` alone and as a batch, and `GotChunk` batches under the
    // digest of their members' roots, at the same edges as the batches
    // above; then the digest of one fixed member list.
    let mut h = Sha256::new();
    let root = |m: u16| Hash::digest(&m.to_le_bytes());
    for epoch in [1, 128, u64::MAX] {
        let span = Envelope::BATCH_SPAN;
        for (index, more) in [
            (0, vec![]),
            (0, vec![1]),
            (0, vec![span]),
            (9, vec![10, 30, 9 + span]),
            (255 - span, (256 - span..=255).collect()),
            (254, vec![255]),
        ] {
            let members: Vec<u16> = [&[index][..], &more].concat();
            let digest = got_digest(Epoch(epoch), members.iter().map(|&m| (NodeId(m), root(m))));
            for msg in [VidMsg::RootsWanted, VidMsg::GotChunk { root: digest }] {
                let mut env = Envelope::vid(Epoch(epoch), NodeId(index), msg);
                for &m in &more {
                    assert!(env.add_member(NodeId(m)), "{m} joins {index}");
                }
                pin(&mut h, env.encoded_len(), &env.to_bytes());
                pin(&mut h, env.wire_size(), &encode_frame(&env).to_vec());
                assert_eq!(Envelope::from_bytes(&env.to_bytes()), Ok(env));
            }
        }
    }
    let digest = got_digest(Epoch(7), (0..32).map(|m| (NodeId(m), root(m))));
    pin(&mut h, 32, &digest.0);
    assert_eq!(
        Hash(h.finalize()).to_hex(),
        "6075e68ad698b562595f60106e9c426e953dff55cdb7f988b85fd08cb5c7f3aa"
    );
}
