//! Minimal binary codec: little-endian fixed-width integers, canonical
//! LEB128 varints, tagged varint-length-prefixed payloads.
//!
//! Two traits, [`WireEncode`] and [`WireDecode`], implemented for the
//! primitives the protocol needs. Decoding is strict: trailing bytes, short
//! buffers and out-of-range tags are errors, so a malformed message from a
//! Byzantine peer is rejected rather than misinterpreted.

use dl_crypto::merkle::expected_path_len;
use dl_crypto::{Hash, MerkleProof};

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the value was complete.
    UnexpectedEnd,
    /// An enum tag or field had an invalid value.
    InvalidValue(&'static str),
    /// A length prefix exceeded the sanity limit.
    LengthOverflow,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "unexpected end of buffer"),
            CodecError::InvalidValue(what) => write!(f, "invalid value for {what}"),
            CodecError::LengthOverflow => write!(f, "length prefix too large"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Transport code mixes codec failures with socket failures; mapping to
/// `InvalidData` (with the codec error as the source) lets it use `?`
/// uniformly in `io::Result` functions.
impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Upper bound on any single length-prefixed field (64 MiB). Blocks in the
/// paper's experiments top out around 12 MB; this bound stops a Byzantine
/// peer from making us allocate absurd buffers.
pub const MAX_FIELD_LEN: usize = 64 << 20;

/// Types that can be written to the wire.
pub trait WireEncode {
    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Exact number of bytes [`encode`](WireEncode::encode) appends.
    fn encoded_len(&self) -> usize;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        debug_assert_eq!(buf.len(), self.encoded_len());
        buf
    }
}

/// Types that can be read back from the wire.
pub trait WireDecode: Sized {
    /// Consume bytes from the front of `buf`.
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError>;

    /// Decode a complete buffer; trailing bytes are an error.
    fn from_bytes(mut buf: &[u8]) -> Result<Self, CodecError> {
        let v = Self::decode(&mut buf)?;
        if !buf.is_empty() {
            return Err(CodecError::InvalidValue("trailing bytes"));
        }
        Ok(v)
    }
}

// ---- primitive helpers ----

pub fn read_u8(buf: &mut &[u8]) -> Result<u8, CodecError> {
    let (&b, rest) = buf.split_first().ok_or(CodecError::UnexpectedEnd)?;
    *buf = rest;
    Ok(b)
}

pub fn read_bool(buf: &mut &[u8]) -> Result<bool, CodecError> {
    match read_u8(buf)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(CodecError::InvalidValue("bool")),
    }
}

macro_rules! read_int {
    ($name:ident, $ty:ty, $len:expr) => {
        pub fn $name(buf: &mut &[u8]) -> Result<$ty, CodecError> {
            let bytes = take(buf, $len)?;
            Ok(<$ty>::from_le_bytes(
                bytes.try_into().expect("took $len bytes"),
            ))
        }
    };
}

read_int!(read_u16, u16, 2);
read_int!(read_u32, u32, 4);
read_int!(read_u64, u64, 8);

/// The next `len` bytes of `buf`, borrowed. Callers bound `len` first
/// ([`read_len`]), so nothing is allocated for a length the buffer cannot
/// back.
pub fn take<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], CodecError> {
    if buf.len() < len {
        return Err(CodecError::UnexpectedEnd);
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

// ---- canonical LEB128 varints ----
//
// Epochs, indices, rounds, lengths and block fields go on the wire as
// varints, 7 bits a byte, low bits first. The fixed-width `WireEncode`
// impls for `u16`/`u32`/`u64` stay for the store's own record fields.

/// Bytes of the varint encoding of `v`.
pub fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Append the varint encoding of `v`.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Read a varint into a `T`. Only the canonical encoding is accepted: a
/// final zero byte after the first (overlong), bits past 64, or a value
/// `T` cannot hold are errors, so every value has exactly one encoding.
pub fn read_varint<T: TryFrom<u64>>(buf: &mut &[u8]) -> Result<T, CodecError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = read_u8(buf)?;
        // The tenth byte holds bit 63 alone.
        if shift == 63 && b > 1 {
            break;
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            if b == 0 && shift > 0 {
                return Err(CodecError::InvalidValue("overlong varint"));
            }
            return T::try_from(v).map_err(|_| CodecError::InvalidValue("varint overflow"));
        }
    }
    Err(CodecError::InvalidValue("varint overflow"))
}

/// A varint length or count, rejected past [`MAX_FIELD_LEN`] before
/// anything is allocated for it.
pub fn read_len(buf: &mut &[u8]) -> Result<usize, CodecError> {
    match read_varint::<u64>(buf)? {
        len if len > MAX_FIELD_LEN as u64 => Err(CodecError::LengthOverflow),
        len => Ok(len as usize),
    }
}

/// Head of a chunk or transaction payload of `len` bytes: `tag u8 · varint
/// len`, tag 0 for real bytes and 1 for a synthetic payload, whose bytes
/// are zeros.
pub fn put_payload_head(buf: &mut Vec<u8>, synthetic: bool, len: usize) {
    buf.push(synthetic as u8);
    put_varint(buf, len as u64);
}

/// Encoded size of a payload of `len` bytes, head included.
pub fn payload_len(len: usize) -> usize {
    1 + varint_len(len as u64) + len
}

/// Read a payload: whether it is synthetic, and its bytes. A synthetic
/// payload's bytes must be zeros.
pub fn read_payload<'a>(buf: &mut &'a [u8]) -> Result<(bool, &'a [u8]), CodecError> {
    let synthetic = match read_u8(buf)? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::InvalidValue("payload tag")),
    };
    let len = read_len(buf)?;
    let bytes = take(buf, len)?;
    if synthetic && bytes.iter().any(|&b| b != 0) {
        return Err(CodecError::InvalidValue("synthetic payload"));
    }
    Ok((synthetic, bytes))
}

impl WireEncode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

macro_rules! impl_int {
    ($ty:ty, $len:expr) => {
        impl WireEncode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn encoded_len(&self) -> usize {
                $len
            }
        }
    };
}

impl_int!(u16, 2);
impl_int!(u32, 4);
impl_int!(u64, 8);

impl WireDecode for bool {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        read_bool(buf)
    }
}
impl WireDecode for u16 {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        read_u16(buf)
    }
}
impl WireDecode for u32 {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        read_u32(buf)
    }
}
impl WireDecode for u64 {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        read_u64(buf)
    }
}

/// List: `varint count · items`.
impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(|i| i.encoded_len()).sum::<usize>()
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let len = read_len(buf)?;
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl WireEncode for Hash {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.0);
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl WireDecode for Hash {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(Hash(take(buf, 32)?.try_into().expect("took 32 bytes")))
    }
}

/// `varint index · varint leaf_count · path`. The path's length is implied
/// by the leaf count ([`expected_path_len`], which `verify` enforces), so a
/// proof with a path of any other length has no encoding that decodes back
/// to it.
impl WireEncode for MerkleProof {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_varint(buf, self.index.into());
        put_varint(buf, self.leaf_count.into());
        for h in &self.path {
            h.encode(buf);
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.index.into()) + varint_len(self.leaf_count.into()) + 32 * self.path.len()
    }
}

impl WireDecode for MerkleProof {
    fn decode(buf: &mut &[u8]) -> Result<Self, CodecError> {
        let index = read_varint(buf)?;
        let leaf_count = read_varint(buf)?;
        if index >= leaf_count {
            return Err(CodecError::InvalidValue("merkle proof index"));
        }
        let path = (0..expected_path_len(leaf_count))
            .map(|_| Hash::decode(buf))
            .collect::<Result<_, _>>()?;
        Ok(MerkleProof {
            index,
            leaf_count,
            path,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.encoded_len());
        let back = T::from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(true);
        roundtrip(false);
        roundtrip(0xBEEFu16);
        roundtrip(0xDEADBEEFu32);
        roundtrip(0x0123_4567_89AB_CDEFu64);
    }

    #[test]
    fn vec_roundtrip() {
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(Vec::<u32>::new());
    }

    #[test]
    fn hash_and_proof_roundtrip() {
        roundtrip(Hash::digest(b"x"));
        roundtrip(MerkleProof {
            index: 3,
            leaf_count: 16,
            path: vec![Hash::digest(b"a"); 4],
        });
    }

    #[test]
    fn short_buffer_is_error() {
        let h = Hash::digest(b"x");
        let bytes = h.to_bytes();
        assert_eq!(
            Hash::from_bytes(&bytes[..31]),
            Err(CodecError::UnexpectedEnd)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert!(u32::from_bytes(&bytes).is_err());
    }

    #[test]
    fn bad_bool_rejected() {
        assert_eq!(
            bool::from_bytes(&[2]),
            Err(CodecError::InvalidValue("bool"))
        );
    }

    #[test]
    fn huge_length_prefix_rejected() {
        // Rejected from the length alone: no bytes follow to back it.
        let mut buf = Vec::new();
        put_varint(&mut buf, MAX_FIELD_LEN as u64 + 1);
        assert_eq!(
            Vec::<u64>::from_bytes(&buf),
            Err(CodecError::LengthOverflow)
        );
        buf.clear();
        put_varint(&mut buf, MAX_FIELD_LEN as u64);
        assert_eq!(Vec::<u64>::from_bytes(&buf), Err(CodecError::UnexpectedEnd));
    }

    #[test]
    fn absurd_merkle_path_rejected() {
        // 16 leaves imply a path of 4: two hashes are too few, five too many.
        let proof = MerkleProof {
            index: 3,
            leaf_count: 16,
            path: vec![Hash::digest(b"a"); 4],
        };
        let bytes = proof.to_bytes();
        assert_eq!(bytes.len(), 2 + 4 * 32);
        assert_eq!(
            MerkleProof::from_bytes(&bytes[..2 + 2 * 32]),
            Err(CodecError::UnexpectedEnd)
        );
        let mut long = bytes.clone();
        long.extend_from_slice(&[0; 32]);
        assert!(MerkleProof::from_bytes(&long).is_err());
    }

    #[test]
    fn varints_are_canonical_and_sized_exactly() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "{v}");
            assert_eq!(read_varint::<u64>(&mut &buf[..]), Ok(v));
        }
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::MAX), 10);
        let overlong = Err(CodecError::InvalidValue("overlong varint"));
        assert_eq!(read_varint::<u64>(&mut &[0x80, 0x00][..]), overlong);
        assert_eq!(read_varint::<u64>(&mut &[0xff, 0x00][..]), overlong);
        let overflow = CodecError::InvalidValue("varint overflow");
        assert_eq!(
            read_varint::<u16>(&mut &[0x80, 0x80, 0x04][..]),
            Err(overflow.clone())
        );
        assert_eq!(
            read_varint::<u32>(&mut &[0xff, 0xff, 0xff, 0xff, 0x10][..]),
            Err(overflow.clone())
        );
        let mut past_64 = vec![0xff; 9];
        past_64.push(0x02);
        assert_eq!(read_varint::<u64>(&mut &past_64[..]), Err(overflow));
        assert_eq!(
            read_varint::<u64>(&mut &[0x80][..]),
            Err(CodecError::UnexpectedEnd)
        );
    }
}
