//! Cryptographic substrate for DispersedLedger: SHA-256 and Merkle trees.
//!
//! AVID-M (§3 of the paper) commits to the array of erasure-coded chunks with a
//! Merkle root, and every chunk travels with a Merkle inclusion proof. This crate
//! provides those two primitives, implemented from scratch:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256, tested against the NIST vectors.
//! * [`merkle`] — binary Merkle trees over byte chunks with inclusion proofs.
//!
//! The 32-byte digest type [`Hash`] is used throughout the workspace as the
//! commitment `r` of the paper's Fig. 3/4 algorithms.

pub mod merkle;
pub mod sha256;

pub use merkle::{MerkleProof, MerkleTree};
pub use sha256::{sha256, Sha256};

/// A 32-byte SHA-256 digest.
///
/// Used as chunk-array commitments (the Merkle root `r` of AVID-M), block
/// digests, and the seed material for the common coin.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Hash(pub [u8; 32]);

impl Hash {
    /// The all-zero digest; used as a placeholder for "unset" commitments.
    pub const ZERO: Hash = Hash([0u8; 32]);

    /// Hash arbitrary bytes.
    pub fn digest(data: &[u8]) -> Hash {
        Hash(sha256(data))
    }

    /// Hash the concatenation of several byte strings without allocating.
    pub fn digest_parts(parts: &[&[u8]]) -> Hash {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        Hash(h.finalize())
    }

    /// Hex-encode the digest (lowercase).
    pub fn to_hex(&self) -> String {
        const TABLE: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push(TABLE[(b >> 4) as usize] as char);
            s.push(TABLE[(b & 0xf) as usize] as char);
        }
        s
    }

    /// First eight hex characters — handy for logs.
    pub fn short_hex(&self) -> String {
        self.to_hex()[..8].to_string()
    }
}

impl std::fmt::Debug for Hash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Hash({}…)", self.short_hex())
    }
}

impl std::fmt::Display for Hash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Hash {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Hash {
    fn from(b: [u8; 32]) -> Self {
        Hash(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_sha256() {
        assert_eq!(Hash::digest(b"abc").0, sha256(b"abc"));
    }

    #[test]
    fn digest_parts_equals_whole() {
        let whole = Hash::digest(b"hello world");
        let parts = Hash::digest_parts(&[b"hello", b" ", b"world"]);
        assert_eq!(whole, parts);
    }

    #[test]
    fn hex_roundtrip_shape() {
        let h = Hash::digest(b"x");
        let hex = h.to_hex();
        assert_eq!(hex.len(), 64);
        assert!(hex.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(h.short_hex().len(), 8);
    }

    #[test]
    fn zero_is_zero() {
        assert_eq!(Hash::ZERO.0, [0u8; 32]);
        assert_ne!(Hash::digest(b""), Hash::ZERO);
    }

    #[test]
    fn ordering_is_bytewise() {
        let a = Hash([0u8; 32]);
        let mut b = [0u8; 32];
        b[0] = 1;
        assert!(a < Hash(b));
    }
}
