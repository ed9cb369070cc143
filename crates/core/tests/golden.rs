//! The write-ahead log's bytes, pinned: a codec change that moves one byte
//! or one length of a record must fail here first.

use bytes::Bytes;
use dl_core::StoreRecord;
use dl_crypto::{Hash, MerkleProof, Sha256};
use dl_wire::{Block, BlockHeader, ChunkPayload, Epoch, NodeId, Tx, WireDecode, WireEncode};

#[test]
fn the_wal_bytes_are_pinned() {
    // Every record kind at the edges of its fixed-width fields, with real
    // and synthetic chunks and a block of both kinds of transaction. The
    // digest was taken before the encoders became one field walk each.
    let proof = MerkleProof {
        index: 200,
        leaf_count: 300,
        path: (0..9).map(|j| Hash::digest(&[j])).collect(),
    };
    let block = Block {
        header: BlockHeader {
            epoch: Epoch(128),
            proposer: NodeId(300),
            v_array: vec![0, 127, 128, u64::MAX],
        },
        body: vec![
            Tx::synthetic(NodeId(1), 7, 3, 64),
            Tx::from_bytes(&[2, 1, 0, 0, 3, 7, 8, 9]).expect("a real transaction"),
        ],
    };
    let mut records = Vec::new();
    for (epoch, index) in [(0, 0), (1 << 40, 300), (u64::MAX, u16::MAX)] {
        let (epoch, index) = (Epoch(epoch), NodeId(index));
        for payload in [
            ChunkPayload::Real(Bytes::from(vec![9u8; 100])),
            ChunkPayload::Synthetic { len: 130 },
        ] {
            records.push(StoreRecord::Chunk {
                epoch,
                index,
                root: Hash::digest(b"root"),
                proof: proof.clone(),
                payload,
            });
        }
        records.push(StoreRecord::Completed {
            epoch,
            index,
            root: Hash::digest(b"done"),
        });
        for nonempty in [false, true] {
            records.push(StoreRecord::Proposed {
                epoch,
                nonempty,
                payload_bytes: epoch.0 ^ 150_000,
            });
            records.push(StoreRecord::Decided {
                epoch,
                index,
                value: nonempty,
            });
        }
        for block in [Some(block.clone()), None] {
            records.push(StoreRecord::Delivered {
                epoch,
                proposer: index,
                via_link: block.is_none(),
                block,
            });
        }
        records.push(StoreRecord::EpochDelivered { epoch });
    }
    let mut h = Sha256::new();
    for rec in &records {
        let bytes = rec.to_bytes();
        assert_eq!(bytes.len(), rec.encoded_len());
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(&bytes);
    }
    assert_eq!(
        Hash(h.finalize()).to_hex(),
        "c82c970f4b79aa9890028fb6fb8aa43b1864c115bc5cee94cf6963a3fea5b2b1"
    );
}
