//! Systematic Reed–Solomon codes and block-level helpers.
//!
//! The code is constructed exactly like `klauspost/reedsolomon` (used by the
//! paper's Go prototype): start from an `n×k` Vandermonde matrix, multiply by
//! the inverse of its top `k×k` square so the top becomes the identity. The
//! resulting encoding matrix `E` is systematic — chunk `i < k` is the `i`-th
//! data shard verbatim — and any `k` rows of `E` remain invertible, so any `k`
//! chunks reconstruct the data.
//!
//! ## The data-plane fast path
//!
//! Encode and decode are the bandwidth-critical operations of the whole
//! system (paper §3.3, §6.2), so they avoid per-call setup and per-shard
//! allocation entirely:
//!
//! * The constructor precomputes a [`gf256::MulTab`] for **every coefficient
//!   of the parity submatrix**, so no multiplication table is ever rebuilt at
//!   encode time.
//! * [`ReedSolomon::encode_block_shared`] writes the whole codeword into one
//!   arena allocation and walks it in cache-sized stripes, updating **all**
//!   parity rows while each data stripe is hot in L1/L2 (the klauspost
//!   stripe order). The returned [`CodedBlock`] hands out zero-copy
//!   [`Bytes`] views per chunk — an `N`-node dispersal fan-out shares one
//!   allocation instead of making `N` copies.
//! * Decode inverts the selected `k×k` submatrix once per distinct chunk
//!   subset and caches the inverted matrix (as `MulTab`s) keyed by the
//!   subset — retrieval repeatedly sees the same `k`-subset within an epoch,
//!   so subsequent decodes skip the Gauss–Jordan entirely.
//!   [`ReedSolomon::reconstruct_block_shared`] decodes into one contiguous
//!   frame buffer and returns the payload as a zero-copy window into it.
//!
//! Block framing: AVID-M disperses variable-length blocks, so encoding
//! prepends a 4-byte little-endian length and zero-pads to `k` equal shards.
//! Reconstruction reverses this. A malicious uploader can violate the
//! framing (bad length, nonzero padding); retrieval surfaces that as
//! [`RsError::BadFrame`] or via AVID-M's re-encode-and-compare root check.
//!
//! The engine encodes and decodes on its own thread, through
//! [`ReedSolomon::encode_block_shared`] and
//! [`ReedSolomon::reconstruct_block_shared`]. The two `_pooled` forms, and
//! with them this crate's `dl-pool` dependency and its two `SharedMut`
//! windows, are **benchmark-only**: `dl-e2e/src/layers.rs` times them
//! beside the serial forms, nothing else calls them, and they go when the
//! benchmark is next thawed (ROADMAP direction 2(a)).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use dl_pool::{Pool, SharedMut};

use crate::gf256::{self, MulTab};
use crate::matrix::Matrix;

/// Stripe width (bytes per shard per pass) for the striped encode/decode
/// loops. All `k` source stripes (`k · 4096 ≤ 1 MiB` even at `k = 256`)
/// stay cache-resident while every output row consumes them.
const STRIPE: usize = 4096;

/// Minimum output bytes (`rows · shard_len`) before the striped loops fan
/// out across a worker pool: below this, dispatch overhead beats the win.
const PAR_MIN_BYTES: usize = 128 * 1024;

/// Split `shard_len` into at most `threads · 4` stripe-aligned column
/// ranges (the parallel job decomposition; deterministic, output-disjoint).
fn column_ranges(shard_len: usize, threads: usize) -> Vec<(usize, usize)> {
    let stripes = shard_len.div_ceil(STRIPE);
    let jobs = stripes.min(threads.saturating_mul(4)).max(1);
    let stripes_per_job = stripes.div_ceil(jobs);
    let mut ranges = Vec::with_capacity(jobs);
    let mut pos = 0;
    while pos < shard_len {
        let end = (pos + stripes_per_job * STRIPE).min(shard_len);
        ranges.push((pos, end));
        pos = end;
    }
    ranges
}

/// Decoding plans cached per chunk-index subset; cleared wholesale if an
/// adversarial access pattern somehow produces more distinct subsets.
const DECODE_CACHE_CAP: usize = 256;

/// An inverted `k×k` decode submatrix, expanded to per-coefficient nibble
/// tables (row-major `k·k` entries).
type DecodePlan = Arc<Vec<MulTab>>;

/// Plans keyed by the exact ordered chunk-index subset, shared by clones.
type DecodeCache = Arc<Mutex<HashMap<Vec<u8>, DecodePlan>>>;

/// Errors from encoding/reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Parameters out of range (`k = 0`, `n > 256`, or `k > n`).
    BadParameters { k: usize, n: usize },
    /// Fewer than `k` distinct chunks supplied.
    NotEnoughChunks { have: usize, need: usize },
    /// Chunks disagree on length or a chunk index is out of range.
    MalformedChunks,
    /// The decoded frame is inconsistent (length field out of bounds).
    BadFrame,
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::BadParameters { k, n } => write!(f, "bad RS parameters k={k} n={n}"),
            RsError::NotEnoughChunks { have, need } => {
                write!(f, "need {need} chunks to reconstruct, have {have}")
            }
            RsError::MalformedChunks => write!(f, "malformed chunk set"),
            RsError::BadFrame => write!(f, "decoded frame has inconsistent length"),
        }
    }
}

impl std::error::Error for RsError {}

/// A whole codeword in one arena allocation: `n` chunks of `shard_len`
/// bytes, laid out contiguously by chunk index.
///
/// [`CodedBlock::chunk`] returns a zero-copy [`Bytes`] window, so handing
/// chunk `i` to recipient `i` across an `N`-node cluster costs `N` refcount
/// bumps, not `N` buffer copies.
#[derive(Clone, Debug)]
pub struct CodedBlock {
    arena: Bytes,
    shard_len: usize,
    n: usize,
}

impl CodedBlock {
    /// Total number of chunks (`n`).
    pub fn chunk_count(&self) -> usize {
        self.n
    }

    /// Bytes per chunk.
    pub fn shard_len(&self) -> usize {
        self.shard_len
    }

    /// Zero-copy view of chunk `i` (shares the arena allocation).
    pub fn chunk(&self, i: usize) -> Bytes {
        assert!(i < self.n, "chunk index out of range");
        self.arena
            .slice(i * self.shard_len..(i + 1) * self.shard_len)
    }

    /// Borrow chunk `i` as a slice.
    pub fn chunk_bytes(&self, i: usize) -> &[u8] {
        &self.arena[i * self.shard_len..(i + 1) * self.shard_len]
    }

    /// All chunks as borrowed slices, in index order (e.g. for building the
    /// Merkle commitment).
    pub fn chunk_refs(&self) -> Vec<&[u8]> {
        (0..self.n).map(|i| self.chunk_bytes(i)).collect()
    }
}

/// A systematic `(k, n)` Reed–Solomon code: `n` chunks, any `k` reconstruct.
///
/// In DispersedLedger terms `k = N − 2f` and `n = N` (paper §3.3 step 1).
///
/// Construction precomputes the parity-coefficient multiplication tables;
/// clones share the decode-plan cache.
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    k: usize,
    n: usize,
    /// `n×k` systematic encoding matrix (top `k×k` = identity).
    enc: Matrix,
    /// Nibble tables for the parity submatrix, row-major:
    /// `parity_tabs[(r − k) * k + c]` encodes `enc[r][c]` for `r ≥ k`.
    parity_tabs: Vec<MulTab>,
    /// Inverted-matrix plans keyed by the exact chunk-index subset.
    decode_cache: DecodeCache,
}

impl ReedSolomon {
    /// Build a code. `1 ≤ k ≤ n ≤ 256`.
    pub fn new(k: usize, n: usize) -> Result<ReedSolomon, RsError> {
        if k == 0 || k > n || n > 256 {
            return Err(RsError::BadParameters { k, n });
        }
        let vand = Matrix::vandermonde(n, k);
        let top = vand.submatrix(0, 0, k, k);
        let top_inv = top
            .invert()
            .expect("top square of a Vandermonde matrix is invertible");
        let enc = vand.mul(&top_inv);
        let parity_tabs = (k..n)
            .flat_map(|r| (0..k).map(move |c| (r, c)))
            .map(|(r, c)| MulTab::new(enc.get(r, c)))
            .collect();
        Ok(ReedSolomon {
            k,
            n,
            enc,
            parity_tabs,
            decode_cache: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// Convenience constructor with DispersedLedger parameters: `N` nodes
    /// tolerating `f` faults gives an `(N−2f, N)` code.
    pub fn for_cluster(n_nodes: usize, f: usize) -> Result<ReedSolomon, RsError> {
        if n_nodes < 3 * f + 1 {
            return Err(RsError::BadParameters {
                k: n_nodes.saturating_sub(2 * f),
                n: n_nodes,
            });
        }
        ReedSolomon::new(n_nodes - 2 * f, n_nodes)
    }

    /// Number of data chunks (`k`).
    pub fn data_chunks(&self) -> usize {
        self.k
    }

    /// Total number of chunks (`n`).
    pub fn total_chunks(&self) -> usize {
        self.n
    }

    /// Per-chunk length for a block of `block_len` bytes (4-byte frame header
    /// included, minimum 1).
    pub fn chunk_len(&self, block_len: usize) -> usize {
        (block_len + 4).div_ceil(self.k).max(1)
    }

    /// Number of decode plans currently cached (diagnostics/tests).
    pub fn cached_decode_plans(&self) -> usize {
        self.decode_cache.lock().expect("cache poisoned").len()
    }

    /// Encode a block into an arena-backed codeword — the dispersal fast
    /// path. One allocation for all `n` chunks; see [`CodedBlock`].
    pub fn encode_block_shared(&self, block: &[u8]) -> CodedBlock {
        self.encode_block_shared_pooled(block, &Pool::serial())
    }

    /// **Benchmark-only** (module docs): [`ReedSolomon::encode_block_shared`]
    /// with the parity stripes fanned out across `pool`.
    ///
    /// The column range `0..shard_len` is split into stripe-aligned jobs;
    /// each job runs the PR 3 cache-blocked loop over its own range,
    /// writing **disjoint** slices of the parity region — no locks on the
    /// hot path, and the output is byte-identical to the serial encode
    /// (GF(2^8) arithmetic has no order sensitivity and the decomposition
    /// only partitions the index space).
    pub fn encode_block_shared_pooled(&self, block: &[u8], pool: &Pool) -> CodedBlock {
        let shard_len = self.chunk_len(block.len());
        let mut arena = vec![0u8; self.n * shard_len];
        // Frame: length header, payload, zero padding — written straight
        // into the systematic region (chunks 0..k are the data itself).
        arena[..4].copy_from_slice(&(block.len() as u32).to_le_bytes());
        arena[4..4 + block.len()].copy_from_slice(block);

        let (data, parity) = arena.split_at_mut(self.k * shard_len);
        let parity_rows = self.n - self.k;
        let data: &[u8] = data;

        if pool.is_serial() || parity_rows * shard_len < PAR_MIN_BYTES {
            // Serial fast path: the exact PR 3 loop over direct borrows
            // (kept verbatim — the pooled form below is byte-identical
            // but the single-thread path must not pay for it).
            let mut pos = 0;
            while pos < shard_len {
                let end = (pos + STRIPE).min(shard_len);
                for r in 0..parity_rows {
                    let dst = &mut parity[r * shard_len + pos..r * shard_len + end];
                    for c in 0..self.k {
                        let src = &data[c * shard_len + pos..c * shard_len + end];
                        let tab = &self.parity_tabs[r * self.k + c];
                        if c == 0 {
                            gf256::mul_slice_tab(dst, src, tab);
                        } else {
                            gf256::mul_acc_slice_tab(dst, src, tab);
                        }
                    }
                }
                pos = end;
            }
        } else {
            let ranges = column_ranges(shard_len, pool.threads());
            let window = SharedMut::new(parity);
            pool.run(ranges.len(), |j| {
                let (from, to) = ranges[j];
                let mut pos = from;
                while pos < to {
                    let end = (pos + STRIPE).min(to);
                    for r in 0..parity_rows {
                        // SAFETY: jobs cover disjoint column ranges, so the
                        // per-row windows never overlap across jobs.
                        let dst =
                            unsafe { window.slice_mut(r * shard_len + pos..r * shard_len + end) };
                        for c in 0..self.k {
                            let src = &data[c * shard_len + pos..c * shard_len + end];
                            let tab = &self.parity_tabs[r * self.k + c];
                            if c == 0 {
                                gf256::mul_slice_tab(dst, src, tab);
                            } else {
                                gf256::mul_acc_slice_tab(dst, src, tab);
                            }
                        }
                    }
                    pos = end;
                }
            });
        }
        CodedBlock {
            arena: Bytes::from(arena),
            shard_len,
            n: self.n,
        }
    }

    /// The inverted-submatrix decode plan for one ordered chunk subset,
    /// served from the shared cache when the subset repeats.
    fn decode_plan(&self, indices: &[usize]) -> DecodePlan {
        let key: Vec<u8> = indices.iter().map(|&i| i as u8).collect();
        let mut cache = self.decode_cache.lock().expect("cache poisoned");
        if let Some(plan) = cache.get(&key) {
            return Arc::clone(plan);
        }
        let sub = self.enc.select_rows(indices);
        let dec = sub
            .invert()
            .expect("any k rows of a systematic Vandermonde-derived matrix are independent");
        let tabs: Vec<MulTab> = (0..self.k)
            .flat_map(|r| (0..self.k).map(move |c| (r, c)))
            .map(|(r, c)| MulTab::new(dec.get(r, c)))
            .collect();
        let plan = Arc::new(tabs);
        if cache.len() >= DECODE_CACHE_CAP {
            cache.clear();
        }
        cache.insert(key, Arc::clone(&plan));
        plan
    }

    /// Decode the contiguous `k · shard_len` frame (header + payload +
    /// padding) from any `k` distinct chunks, in one arena buffer.
    fn reconstruct_frame(
        &self,
        chunks: &[(usize, &[u8])],
        pool: &Pool,
    ) -> Result<Vec<u8>, RsError> {
        if chunks.len() < self.k {
            return Err(RsError::NotEnoughChunks {
                have: chunks.len(),
                need: self.k,
            });
        }
        let use_chunks = &chunks[..self.k];
        let shard_len = use_chunks[0].1.len();
        let mut seen = vec![false; self.n];
        for &(idx, bytes) in use_chunks {
            if idx >= self.n || bytes.len() != shard_len || seen[idx] {
                return Err(RsError::MalformedChunks);
            }
            seen[idx] = true;
        }

        let mut frame = vec![0u8; self.k * shard_len];

        // Fast path: all k chunks are data chunks already — pure placement.
        if use_chunks.iter().all(|&(idx, _)| idx < self.k) {
            for &(idx, bytes) in use_chunks {
                frame[idx * shard_len..(idx + 1) * shard_len].copy_from_slice(bytes);
            }
            return Ok(frame);
        }

        let indices: Vec<usize> = use_chunks.iter().map(|&(i, _)| i).collect();
        let plan = self.decode_plan(&indices);
        // Same stripe order as encode: every data row consumes the chunk
        // stripes while they are cache-hot. Rows whose chunk is already
        // present degrade to a copy via the identity-row MulTab fast
        // paths. The serial loop is kept on direct borrows (measurably
        // better codegen than the raw-pointer windows — see encode); the
        // pooled form fans stripe-aligned column ranges into disjoint
        // frame windows per job, byte-identical output.
        if pool.is_serial() || self.k * shard_len < PAR_MIN_BYTES {
            let mut pos = 0;
            while pos < shard_len {
                let end = (pos + STRIPE).min(shard_len);
                for r in 0..self.k {
                    let dst = &mut frame[r * shard_len + pos..r * shard_len + end];
                    for (c, &(_, bytes)) in use_chunks.iter().enumerate() {
                        let tab = &plan[r * self.k + c];
                        if c == 0 {
                            gf256::mul_slice_tab(dst, &bytes[pos..end], tab);
                        } else {
                            gf256::mul_acc_slice_tab(dst, &bytes[pos..end], tab);
                        }
                    }
                }
                pos = end;
            }
        } else {
            let ranges = column_ranges(shard_len, pool.threads());
            let window = SharedMut::new(&mut frame[..]);
            pool.run(ranges.len(), |j| {
                let (from, to) = ranges[j];
                let mut pos = from;
                while pos < to {
                    let end = (pos + STRIPE).min(to);
                    for r in 0..self.k {
                        // SAFETY: jobs cover disjoint column ranges, so the
                        // per-row windows never overlap across jobs.
                        let dst =
                            unsafe { window.slice_mut(r * shard_len + pos..r * shard_len + end) };
                        for (c, &(_, bytes)) in use_chunks.iter().enumerate() {
                            let tab = &plan[r * self.k + c];
                            if c == 0 {
                                gf256::mul_slice_tab(dst, &bytes[pos..end], tab);
                            } else {
                                gf256::mul_acc_slice_tab(dst, &bytes[pos..end], tab);
                            }
                        }
                    }
                    pos = end;
                }
            });
        }
        Ok(frame)
    }

    /// Reconstruct the original block (undoing the length framing) as a
    /// zero-copy window into the decoded frame: the decode writes one
    /// contiguous buffer and the payload is returned without re-copying.
    pub fn reconstruct_block_shared(&self, chunks: &[(usize, &[u8])]) -> Result<Bytes, RsError> {
        self.reconstruct_block_shared_pooled(chunks, &Pool::serial())
    }

    /// **Benchmark-only** (module docs):
    /// [`ReedSolomon::reconstruct_block_shared`] with the decode stripes
    /// fanned out across `pool` (byte-identical output).
    pub fn reconstruct_block_shared_pooled(
        &self,
        chunks: &[(usize, &[u8])],
        pool: &Pool,
    ) -> Result<Bytes, RsError> {
        let frame = self.reconstruct_frame(chunks, pool)?;
        let shard_len = frame.len() / self.k;
        if frame.len() < 4 {
            return Err(RsError::BadFrame);
        }
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        if 4 + len > frame.len() {
            return Err(RsError::BadFrame);
        }
        // The framing also requires shard_len to be the canonical size for
        // this payload length; otherwise re-encoding wouldn't reproduce the
        // same chunk array.
        if self.chunk_len(len) != shard_len {
            return Err(RsError::BadFrame);
        }
        Ok(Bytes::from(frame).slice(4..4 + len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    /// The pre-fast-path scalar implementation, kept as the correctness
    /// reference: per-byte log/exp multiplication straight off the encoding
    /// matrix, one owned vector per shard. The property tests assert the
    /// striped/table-driven arena encoder is byte-identical to this.
    mod scalar_ref {
        use crate::gf256;
        use crate::matrix::Matrix;

        pub fn encode_block(enc: &Matrix, k: usize, n: usize, block: &[u8]) -> Vec<Vec<u8>> {
            let shard_len = (block.len() + 4).div_ceil(k).max(1);
            let mut data = vec![0u8; k * shard_len];
            data[..4].copy_from_slice(&(block.len() as u32).to_le_bytes());
            data[4..4 + block.len()].copy_from_slice(block);
            let shards: Vec<&[u8]> = data.chunks(shard_len).collect();
            let mut out: Vec<Vec<u8>> = shards.iter().map(|s| s.to_vec()).collect();
            for r in k..n {
                let mut shard = vec![0u8; shard_len];
                for (c, src) in shards.iter().enumerate() {
                    let coef = enc.get(r, c);
                    for (d, s) in shard.iter_mut().zip(*src) {
                        *d ^= gf256::mul(coef, *s);
                    }
                }
                out.push(shard);
            }
            out
        }

        pub fn decode_data(enc: &Matrix, k: usize, chunks: &[(usize, &[u8])]) -> Vec<Vec<u8>> {
            let indices: Vec<usize> = chunks[..k].iter().map(|&(i, _)| i).collect();
            let dec = enc.select_rows(&indices).invert().expect("invertible");
            let len = chunks[0].1.len();
            (0..k)
                .map(|r| {
                    let mut shard = vec![0u8; len];
                    for (c, &(_, bytes)) in chunks[..k].iter().enumerate() {
                        let coef = dec.get(r, c);
                        for (d, s) in shard.iter_mut().zip(bytes) {
                            *d ^= gf256::mul(coef, *s);
                        }
                    }
                    shard
                })
                .collect()
        }
    }

    #[test]
    fn systematic_prefix() {
        let rs = ReedSolomon::new(3, 7).unwrap();
        let block = sample_block(100);
        let coded = rs.encode_block_shared(&block);
        assert_eq!(coded.chunk_count(), 7);
        // First k chunks concatenated = frame prefix.
        let frame = coded.chunk_refs()[..3].concat();
        assert_eq!(&frame[4..104], &block[..]);
        assert_eq!(u32::from_le_bytes(frame[..4].try_into().unwrap()), 100);
    }

    #[test]
    fn arena_encode_matches_scalar_reference() {
        // The tentpole property: the striped/table-driven/SIMD encoder is
        // byte-identical to the plain per-byte scalar construction, across
        // parameter corners (k=1, k=n, n=256) and block sizes (empty, tiny,
        // unaligned, bigger than one stripe).
        let params = [
            (1, 1),
            (1, 4),
            (2, 4),
            (3, 7),
            (5, 16),
            (85, 256),
            (256, 256),
        ];
        let sizes = [0usize, 1, 13, 100, 1000, STRIPE + 37];
        for &(k, n) in &params {
            let rs = ReedSolomon::new(k, n).unwrap();
            for &len in &sizes {
                let block = sample_block(len);
                let expect = scalar_ref::encode_block(&rs.enc, k, n, &block);
                let coded = rs.encode_block_shared(&block);
                assert_eq!(coded.chunk_count(), n);
                for (i, exp) in expect.iter().enumerate() {
                    assert_eq!(
                        coded.chunk_bytes(i),
                        &exp[..],
                        "k={k} n={n} len={len} chunk={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn arena_decode_matches_scalar_reference() {
        let rs = ReedSolomon::new(4, 10).unwrap();
        let block = sample_block(5000);
        let coded = rs.encode_block_shared(&block);
        // A mixed data/parity subset in scrambled order.
        let subset: Vec<(usize, &[u8])> = [7usize, 2, 9, 0]
            .iter()
            .map(|&i| (i, coded.chunk_bytes(i)))
            .collect();
        let expect = scalar_ref::decode_data(&rs.enc, 4, &subset).concat();
        assert_eq!(
            rs.reconstruct_frame(&subset, &Pool::serial()).unwrap(),
            expect
        );
        assert_eq!(rs.reconstruct_block_shared(&subset).unwrap(), block);
    }

    #[test]
    fn pooled_encode_is_byte_identical_for_every_bench_cluster_size() {
        // The tentpole determinism property: for every N the bench
        // measures, pooled encode output equals serial encode output
        // byte-for-byte, at sizes spanning the parallel threshold and
        // non-stripe-aligned shard lengths.
        let pool = Pool::new(4);
        for n in [4usize, 16, 64, 128] {
            let f = (n - 1) / 3;
            let rs = ReedSolomon::for_cluster(n, f).unwrap();
            for len in [0usize, 1000, 100_000, 1_048_576 + 37] {
                let block = sample_block(len);
                let serial = rs.encode_block_shared(&block);
                let pooled = rs.encode_block_shared_pooled(&block, &pool);
                assert_eq!(
                    serial.arena.as_ref(),
                    pooled.arena.as_ref(),
                    "n={n} len={len}"
                );
            }
        }
    }

    #[test]
    fn pooled_decode_is_byte_identical_for_every_bench_cluster_size() {
        let pool = Pool::new(3);
        for n in [4usize, 16, 64, 128] {
            let f = (n - 1) / 3;
            let rs = ReedSolomon::for_cluster(n, f).unwrap();
            let k = rs.data_chunks();
            let block = sample_block(300_000);
            let coded = rs.encode_block_shared(&block);
            // Parity-heavy subset (the worst case) in scrambled order.
            let subset: Vec<(usize, &[u8])> = (n - k..n)
                .rev()
                .map(|i| (i, coded.chunk_bytes(i)))
                .collect();
            let serial = rs.reconstruct_block_shared(&subset).unwrap();
            let pooled = rs.reconstruct_block_shared_pooled(&subset, &pool).unwrap();
            assert_eq!(serial.as_ref(), pooled.as_ref(), "n={n}");
            assert_eq!(serial.as_ref(), &block[..], "n={n} roundtrip");
        }
    }

    #[test]
    fn pooled_encode_from_global_pool_matches_serial() {
        // Whatever DL_POOL_THREADS says, the global pool must not change
        // a single byte of the codeword.
        let rs = ReedSolomon::new(5, 16).unwrap();
        let block = sample_block(700_000);
        let serial = rs.encode_block_shared(&block);
        let pooled = rs.encode_block_shared_pooled(&block, Pool::global());
        assert_eq!(serial.arena.as_ref(), pooled.arena.as_ref());
    }

    #[test]
    fn coded_block_views_share_one_arena() {
        // The fan-out property: all n chunk views alias one contiguous
        // allocation, laid out by chunk index.
        let rs = ReedSolomon::new(3, 9).unwrap();
        let coded = rs.encode_block_shared(&sample_block(999));
        let base = coded.chunk(0).as_ref().as_ptr();
        let shard_len = coded.shard_len();
        for i in 0..9 {
            let view = coded.chunk(i);
            assert_eq!(view.len(), shard_len);
            // SAFETY: in-bounds pointer arithmetic over the arena
            // allocation; the result is compared, never dereferenced.
            assert_eq!(view.as_ref().as_ptr(), unsafe { base.add(i * shard_len) });
        }
    }

    #[test]
    fn decode_plan_cache_hits_on_repeated_subset() {
        let rs = ReedSolomon::new(3, 7).unwrap();
        let block = sample_block(600);
        let coded = rs.encode_block_shared(&block);
        let subset: Vec<(usize, &[u8])> = [6usize, 1, 4]
            .iter()
            .map(|&i| (i, coded.chunk_bytes(i)))
            .collect();
        assert_eq!(rs.cached_decode_plans(), 0);
        for _ in 0..5 {
            assert_eq!(rs.reconstruct_block_shared(&subset).unwrap(), block);
        }
        // One distinct subset → one cached plan, shared by clones.
        assert_eq!(rs.cached_decode_plans(), 1);
        let clone = rs.clone();
        assert_eq!(clone.cached_decode_plans(), 1);
        // A different subset adds a second plan.
        let other: Vec<(usize, &[u8])> = [5usize, 2, 3]
            .iter()
            .map(|&i| (i, coded.chunk_bytes(i)))
            .collect();
        assert_eq!(clone.reconstruct_block_shared(&other).unwrap(), block);
        assert_eq!(rs.cached_decode_plans(), 2);
        // All-data subsets never touch the cache (pure placement).
        let data: Vec<(usize, &[u8])> = (0..3).map(|i| (i, coded.chunk_bytes(i))).collect();
        assert_eq!(rs.reconstruct_block_shared(&data).unwrap(), block);
        assert_eq!(rs.cached_decode_plans(), 2);
    }

    #[test]
    fn shared_reconstruct_is_zero_copy_window() {
        let rs = ReedSolomon::new(4, 10).unwrap();
        let block = sample_block(777);
        let coded = rs.encode_block_shared(&block);
        let subset: Vec<(usize, &[u8])> = (5..9).map(|i| (i, coded.chunk_bytes(i))).collect();
        let payload = rs.reconstruct_block_shared(&subset).unwrap();
        assert_eq!(&payload[..], &block[..]);
        // Cloning the returned window shares storage: no payload re-copy
        // anywhere downstream.
        let cloned = payload.clone();
        assert_eq!(cloned.as_ref().as_ptr(), payload.as_ref().as_ptr());
    }

    #[test]
    fn reconstruct_from_data_chunks() {
        let rs = ReedSolomon::new(4, 10).unwrap();
        let block = sample_block(1000);
        let coded = rs.encode_block_shared(&block);
        let subset: Vec<(usize, &[u8])> = (0..4).map(|i| (i, coded.chunk_bytes(i))).collect();
        assert_eq!(rs.reconstruct_block_shared(&subset).unwrap(), block);
    }

    #[test]
    fn reconstruct_from_parity_only() {
        let rs = ReedSolomon::new(4, 10).unwrap();
        let block = sample_block(777);
        let coded = rs.encode_block_shared(&block);
        let subset: Vec<(usize, &[u8])> = (6..10).map(|i| (i, coded.chunk_bytes(i))).collect();
        assert_eq!(rs.reconstruct_block_shared(&subset).unwrap(), block);
    }

    #[test]
    fn reconstruct_from_every_contiguous_window() {
        let rs = ReedSolomon::new(3, 9).unwrap();
        let block = sample_block(500);
        let coded = rs.encode_block_shared(&block);
        for start in 0..=6 {
            let subset: Vec<(usize, &[u8])> = (start..start + 3)
                .map(|i| (i, coded.chunk_bytes(i)))
                .collect();
            assert_eq!(
                rs.reconstruct_block_shared(&subset).unwrap(),
                block,
                "start={start}"
            );
        }
    }

    #[test]
    fn reencoding_reproduces_chunks() {
        // The property AVID-M's retrieval check relies on.
        let rs = ReedSolomon::new(5, 16).unwrap();
        let block = sample_block(12345);
        let coded = rs.encode_block_shared(&block);
        let subset: Vec<(usize, &[u8])> = [15, 3, 9, 0, 7]
            .iter()
            .map(|&i| (i, coded.chunk_bytes(i)))
            .collect();
        let decoded = rs.reconstruct_block_shared(&subset).unwrap();
        assert_eq!(rs.encode_block_shared(&decoded).arena, coded.arena);
    }

    #[test]
    fn empty_block() {
        let rs = ReedSolomon::new(4, 13).unwrap();
        let coded = rs.encode_block_shared(&[]);
        assert_eq!(coded.shard_len(), 1);
        let subset: Vec<(usize, &[u8])> = [2, 5, 11, 12]
            .iter()
            .map(|&i| (i, coded.chunk_bytes(i)))
            .collect();
        assert_eq!(
            rs.reconstruct_block_shared(&subset).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn not_enough_chunks() {
        let rs = ReedSolomon::new(4, 10).unwrap();
        let block = sample_block(64);
        let coded = rs.encode_block_shared(&block);
        let subset: Vec<(usize, &[u8])> = (0..3).map(|i| (i, coded.chunk_bytes(i))).collect();
        assert_eq!(
            rs.reconstruct_block_shared(&subset),
            Err(RsError::NotEnoughChunks { have: 3, need: 4 })
        );
    }

    #[test]
    fn duplicate_chunks_rejected() {
        let rs = ReedSolomon::new(2, 6).unwrap();
        let coded = rs.encode_block_shared(&sample_block(10));
        let subset = vec![(1usize, coded.chunk_bytes(1)), (1, coded.chunk_bytes(1))];
        assert_eq!(
            rs.reconstruct_block_shared(&subset),
            Err(RsError::MalformedChunks)
        );
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let rs = ReedSolomon::new(2, 6).unwrap();
        let coded = rs.encode_block_shared(&sample_block(10));
        let short = &coded.chunk_bytes(2)[..coded.shard_len() - 1];
        let subset = vec![(1usize, coded.chunk_bytes(1)), (2, short)];
        assert_eq!(
            rs.reconstruct_block_shared(&subset),
            Err(RsError::MalformedChunks)
        );
    }

    #[test]
    fn out_of_range_index_rejected() {
        let rs = ReedSolomon::new(2, 6).unwrap();
        let coded = rs.encode_block_shared(&sample_block(10));
        let subset = vec![(1usize, coded.chunk_bytes(1)), (6, coded.chunk_bytes(2))];
        assert_eq!(
            rs.reconstruct_block_shared(&subset),
            Err(RsError::MalformedChunks)
        );
    }

    #[test]
    fn zero_length_chunks_do_not_panic() {
        // A hostile peer can send equal-length *empty* chunks; decode must
        // fail gracefully, never panic.
        let rs = ReedSolomon::new(2, 6).unwrap();
        let subset: Vec<(usize, &[u8])> = vec![(0, &[][..]), (1, &[][..])];
        assert_eq!(rs.reconstruct_block_shared(&subset), Err(RsError::BadFrame));
    }

    #[test]
    fn garbage_chunks_yield_bad_frame_or_garbage() {
        // Inconsistent chunks (not a valid codeword) either trip the frame
        // check or decode to *something* — AVID-M's root comparison is what
        // catches the inconsistency; here we only require no panic.
        let rs = ReedSolomon::new(3, 7).unwrap();
        let garbage: Vec<Vec<u8>> = (0..3).map(|i| vec![0xEE ^ i as u8; 16]).collect();
        let subset: Vec<(usize, &[u8])> = garbage
            .iter()
            .enumerate()
            .map(|(i, c)| (i + 4, c.as_slice()))
            .collect();
        let _ = rs.reconstruct_block_shared(&subset);
    }

    #[test]
    fn bad_parameters() {
        assert!(ReedSolomon::new(0, 4).is_err());
        assert!(ReedSolomon::new(5, 4).is_err());
        assert!(ReedSolomon::new(10, 300).is_err());
        assert!(ReedSolomon::new(1, 1).is_ok());
        assert!(ReedSolomon::new(256, 256).is_ok());
    }

    #[test]
    fn cluster_constructor() {
        // N = 3f+1 → k = N−2f = f+1.
        let rs = ReedSolomon::for_cluster(4, 1).unwrap();
        assert_eq!(rs.data_chunks(), 2);
        assert_eq!(rs.total_chunks(), 4);
        let rs = ReedSolomon::for_cluster(16, 5).unwrap();
        assert_eq!(rs.data_chunks(), 6);
        assert!(ReedSolomon::for_cluster(3, 1).is_err());
    }

    #[test]
    fn chunk_len_math() {
        let rs = ReedSolomon::new(4, 10).unwrap();
        assert_eq!(rs.chunk_len(0), 1);
        assert_eq!(rs.chunk_len(12), 4); // 16/4
        assert_eq!(rs.chunk_len(13), 5); // 17/4 → 5
        assert_eq!(rs.chunk_len(100), 26);
    }

    #[test]
    fn large_cluster_roundtrip() {
        // N = 128, f = 42 → k = 44 (the paper's biggest evaluation size).
        let rs = ReedSolomon::for_cluster(128, 42).unwrap();
        let block = sample_block(10_000);
        let coded = rs.encode_block_shared(&block);
        // Take the *last* k chunks (all parity-heavy subset).
        let subset: Vec<(usize, &[u8])> =
            (128 - 44..128).map(|i| (i, coded.chunk_bytes(i))).collect();
        assert_eq!(rs.reconstruct_block_shared(&subset).unwrap(), block);
    }
}
