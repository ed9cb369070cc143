//! Reed–Solomon erasure coding over GF(2^8) for DispersedLedger.
//!
//! AVID-M (paper §3) encodes each proposed block with an `(N−2f, N)` erasure
//! code: `N` chunks total, any `N−2f` of which reconstruct the block. The
//! paper's Go prototype uses `klauspost/reedsolomon`; this crate is the
//! equivalent from-scratch construction — a *systematic* code built from a
//! Vandermonde matrix, so the first `k` chunks are the data itself and
//! re-encoding a decoded block deterministically reproduces the full chunk
//! array (which AVID-M's retrieval-time consistency check relies on).
//!
//! Layout:
//! * [`gf256`] — field arithmetic with compile-time log/exp tables.
//! * [`matrix`] — dense matrices over GF(2^8) with Gauss–Jordan inversion.
//! * [`rs`] — the [`ReedSolomon`] encoder/decoder and block helpers.

pub mod gf256;
pub mod matrix;
pub mod rs;

pub use rs::{ReedSolomon, RsError};
