//! Communication-cost models for Fig. 2 of the paper: per-node download
//! during dispersal, AVID-M (measured and analytic) vs AVID-FP (analytic).
//!
//! AVID-FP (Hendricks–Ganger–Reiter, PODC'07) attaches a *fingerprinted
//! cross-checksum* of size `Nλ + (N−2f)γ` to **every** protocol message; a
//! node receives `O(N)` messages during dispersal, so the checksum overhead
//! grows quadratically in `N`. AVID-M replaces it with a single 32-byte
//! Merkle root per message. The paper's Fig. 2 plots per-node dispersal
//! download normalized by block size; the `fig2_dispersal_cost` bench
//! regenerates it from these models plus an empirical AVID-M run.

use crate::{Disperser, RealCoder, VidEffect, VidServer};
use dl_crypto::{Hash, MerkleProof};
use dl_wire::{ChunkPayload, Envelope, Epoch, NodeId, VidMsg, FRAME_OVERHEAD};

/// Security parameter λ: hash size in bytes (paper uses 32).
pub const LAMBDA: usize = 32;
/// Security parameter γ: fingerprint size in bytes (paper uses 16).
pub const GAMMA: usize = 16;

/// Analytic per-node dispersal download for AVID-FP, in bytes.
///
/// Chunk share `|B|/(N−2f)` plus `2N+1` messages (one chunk message, `N`
/// echo-equivalents, `N` ready-equivalents) each carrying the cross-checksum
/// `Nλ + (N−2f)γ` and a small fixed header.
pub fn avid_fp_per_node_bytes(n: usize, f: usize, block_len: usize) -> f64 {
    let k = n - 2 * f;
    let cross_checksum = n * LAMBDA + k * GAMMA;
    let header = LAMBDA + FRAME_OVERHEAD + 8; // root-sized id + framing + tags
    let msgs = 2 * n + 1;
    block_len as f64 / k as f64 + (msgs * (cross_checksum + header)) as f64
}

/// Analytic per-node dispersal download for AVID-M, in bytes.
///
/// One chunk message (`|B|/(N−2f)` data + Merkle proof) plus `2N` control
/// messages each carrying one 32-byte root. Both sizes are the codec's own
/// (`Envelope::wire_size`) for a representative envelope of each.
pub fn avid_m_per_node_bytes(n: usize, f: usize, block_len: usize) -> f64 {
    let k = n - 2 * f;
    let chunk = (block_len + 4).div_ceil(k);
    let root = Hash::ZERO;
    let proof = MerkleProof {
        index: (n / 2) as u32,
        leaf_count: n as u32,
        path: vec![root; dl_crypto::merkle::expected_path_len(n as u32)],
    };
    let payload = ChunkPayload::Synthetic { len: chunk as u32 };
    let size = |msg| Envelope::vid(Epoch(1), NodeId(0), msg).wire_size();
    let chunk_msg = size(VidMsg::Chunk {
        root,
        proof,
        payload,
    });
    let control_msg = size(VidMsg::GotChunk { root });
    chunk_msg as f64 + (2 * n * control_msg) as f64
}

/// Empirically measure AVID-M's per-node dispersal download by running one
/// full dispersal among `n` in-memory servers and counting the wire bytes
/// (including framing) each server receives. Returns the mean.
pub fn measure_avid_m_per_node_bytes(n: usize, f: usize, block_len: usize) -> f64 {
    let coder = RealCoder::new(n, f);
    let block: bytes::Bytes = (0..block_len).map(|i| (i % 251) as u8).collect();
    let mut servers: Vec<VidServer<RealCoder>> = (0..n)
        .map(|i| VidServer::new(NodeId(i as u16), n, f))
        .collect();
    let mut received = vec![0usize; n];

    // (from, to, msg) queue; FIFO delivery is fine for cost accounting.
    let mut queue: std::collections::VecDeque<(NodeId, NodeId, VidMsg)> =
        std::collections::VecDeque::new();
    for eff in Disperser::disperse(&coder, &block) {
        if let VidEffect::Send(to, msg) = eff {
            queue.push_back((NodeId(0), to, msg));
        }
    }
    while let Some((from, to, msg)) = queue.pop_front() {
        let env = Envelope::vid(Epoch(1), NodeId(0), msg.clone());
        received[to.idx()] += env.wire_size();
        for eff in servers[to.idx()].handle(&coder, from, msg) {
            match eff {
                VidEffect::Send(dst, m) => queue.push_back((to, dst, m)),
                VidEffect::Broadcast(m) => {
                    for dst in 0..n {
                        queue.push_back((to, NodeId(dst as u16), m.clone()));
                    }
                }
                VidEffect::Complete(_) | VidEffect::Retrieved(_) => {}
            }
        }
    }
    assert!(
        servers.iter().all(|s| s.completed().is_some()),
        "dispersal must complete for cost measurement"
    );
    received.iter().sum::<usize>() as f64 / n as f64
}

/// The theoretical lower bound: every node must hold a `1/(N−2f)` share
/// (paper §3.2 footnote 2).
pub fn lower_bound_per_node_bytes(n: usize, f: usize, block_len: usize) -> f64 {
    block_len as f64 / (n - 2 * f) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avid_m_beats_avid_fp_at_scale() {
        // The headline Fig. 2 relationship: at N=128 and |B|=1MB, AVID-M is
        // 1–2 orders of magnitude cheaper.
        let n = 128;
        let f = (n - 1) / 3;
        let b = 1 << 20;
        let m = avid_m_per_node_bytes(n, f, b);
        let fp = avid_fp_per_node_bytes(n, f, b);
        assert!(fp / m > 10.0, "expected >10x gap, got {}", fp / m);
    }

    #[test]
    fn avid_fp_exceeds_block_size_at_128_with_small_blocks() {
        // Paper: "At N > 40, |B| = 100 KB, every node needs to download more
        // than the full size of the block".
        let b = 100 * 1024;
        let n = 48;
        let f = (n - 1) / 3;
        assert!(avid_fp_per_node_bytes(n, f, b) > b as f64);
    }

    #[test]
    fn avid_m_close_to_lower_bound_for_large_blocks() {
        let n = 64;
        let f = (n - 1) / 3;
        let b = 4 << 20;
        let m = avid_m_per_node_bytes(n, f, b);
        let lb = lower_bound_per_node_bytes(n, f, b);
        assert!(m < 1.5 * lb, "AVID-M {m} should approach lower bound {lb}");
    }

    #[test]
    fn measured_tracks_analytic() {
        let n = 16;
        let f = 5;
        let b = 64 * 1024;
        let measured = measure_avid_m_per_node_bytes(n, f, b);
        let analytic = avid_m_per_node_bytes(n, f, b);
        // The model's sizes come from the codec, so the two agree to the
        // byte (12,377 each at N = 16, 64 KiB); the band only allows for
        // a representative chunk index of another varint width.
        let ratio = measured / analytic;
        assert!(
            (0.99..1.01).contains(&ratio),
            "measured {measured} vs analytic {analytic} (ratio {ratio})"
        );
    }
}
