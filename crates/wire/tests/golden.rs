//! The wire bytes, pinned. The simulator charges every link by these
//! encodings and `dl-net` writes them, so a codec change that moves one
//! byte or one length of this corpus must fail here first.

use bytes::Bytes;
use dl_crypto::merkle::expected_path_len;
use dl_crypto::{Hash, MerkleProof, Sha256};
use dl_wire::{
    encode_frame, encode_segment, BaMsg, Block, BlockHeader, ChunkPayload, Envelope, Epoch, NodeId,
    SyncMsg, Tx, VidMsg, WireDecode, WireEncode,
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
    // and body − 1. The digest was taken before the encoders became one
    // field walk each.
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
            pin(&mut h, len + 5, &frame);
        }
    }
    assert_eq!(
        Hash(h.finalize()).to_hex(),
        "ad001933f87937dfa77deafec0c4e50e417d62bcb0a0346a54d8c3deafd62374"
    );
}
