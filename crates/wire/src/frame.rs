//! The framed, zero-copy wire surface.
//!
//! A transport frame is a length-delimited envelope, or a length-delimited
//! run of one, behind a header of one canonical LEB128 varint:
//!
//! ```text
//! [ varint: len << 3 | tag ][ len bytes of an Envelope encoding ]
//! ```
//!
//! A body under 16 bytes (a vote, a `Term`, a request) pays one header
//! byte, one under 2 KiB two, a 25 kB chunk three, and no legal frame more
//! than [`MAX_FRAME_HEADER_LEN`]. Tags 0 and 1 carry a whole envelope and
//! name its [`TrafficClass`] (0 = dispersal, 1 = retrieval); the tag is a
//! pure function of the envelope, and strict decoding rejects frames where
//! the two disagree. `len` counts only the body, so such a frame occupies
//! exactly [`Envelope::wire_size`] bytes — the byte count the
//! discrete-event simulator charges for link time is the byte count
//! `dl-net` puts on a socket.
//!
//! Tags 2, 3 and 4 carry a retrieval-class envelope in *segments* — its
//! first bytes, more of them, its last — so that a sender draining a
//! `dl_core::SendQueue` can put high-class frames between two segments of
//! a `ReturnChunk` instead of behind the whole of it ([`encode_segment`]).
//! At most one envelope is open per stream; each segment after the first
//! costs one more header, which the simulator charges too. A sender
//! that drops the rest of an open envelope (its retrieval was cancelled)
//! just opens the next one: the receiver discards the unfinished
//! reassembly when a tag-1 or tag-2 frame arrives.
//!
//! ## Zero-copy encode
//!
//! [`encode_frame`] runs the envelope's one field walk
//! ([`WireEncode::encode_to`]) into a [`SegmentBuf`], the segment-keeping
//! [`Sink`]: small fields (header, tags, Merkle proofs) accumulate into
//! owned buffers, while each chunk payload is appended as a shared
//! [`Bytes`] segment — a refcount bump on the erasure coder's codeword
//! arena. A transport writes the segments with vectored IO
//! ([`SegmentBuf::io_slices`]), so a block's chunk travels from the encode
//! arena to the socket without ever being memcpy'd into a contiguous frame.
//! The same walk into a `Vec<u8>` is [`WireEncode::encode`], and into a
//! counter [`WireEncode::encoded_len`], so the three cannot disagree.
//!
//! ## Strict decode
//!
//! [`FrameDecoder`] reassembles frames from arbitrary TCP read boundaries
//! and rejects, with a typed [`FrameError`]: non-canonical or over-long
//! headers, oversized lengths and reassemblies (from the header, before
//! buffering, so a Byzantine peer cannot make us allocate), unknown tags,
//! a continuation with no envelope open, class tags inconsistent with the
//! decoded envelope (a segmented envelope is retrieval-class), and bodies
//! that fail the strict envelope codec (truncated, trailing bytes, bad
//! tags). Any error poisons the stream — framing is unrecoverable once
//! desynchronized, so transports must drop the connection.

use bytes::Bytes;

use crate::codec::{varint_len, CodecError, Sink, WireDecode, WireEncode, MAX_FIELD_LEN};
use crate::msg::{Envelope, TrafficClass};

/// Upper bound on a frame body. A body is one envelope: its largest field
/// is bounded by [`MAX_FIELD_LEN`], plus slack for the envelope/proof
/// metadata around it. Anything larger is rejected from the header alone.
pub const MAX_FRAME_BODY: usize = MAX_FIELD_LEN + (16 << 10);

/// Bytes of the longest legal frame header, that of a [`MAX_FRAME_BODY`]
/// body; a header varint still open after this many bytes is rejected.
pub const MAX_FRAME_HEADER_LEN: usize = 5;

/// Bytes of the header of a frame whose body is `body_len` bytes. Every
/// frame costs them, on a socket and in the simulator's link time.
pub fn frame_header_len(body_len: usize) -> usize {
    varint_len((body_len as u64) << 3)
}

/// The longest body whose frame, header included, fits in `frame_bytes`
/// (0 if none does). A body one byte longer can need a header one byte
/// longer, so the frame can fall a byte short of `frame_bytes`.
pub fn max_body_len(frame_bytes: usize) -> usize {
    let mut len = frame_bytes.saturating_sub(1);
    while len > 0 && frame_header_len(len) > frame_bytes - len {
        len -= 1;
    }
    len
}

/// Write the header of a frame with a `body_len`-byte body and `tag`.
fn put_header(out: &mut impl Sink, body_len: usize, tag: u8) {
    out.put_varint((body_len as u64) << 3 | u64::from(tag));
}

/// One segment of a segmented encoding.
enum SegPart<'a> {
    /// Bytes owned by the buffer (headers, tags, small fields).
    Owned(&'a [u8]),
    /// A shared window into someone else's allocation (chunk payloads).
    Shared(&'a Bytes),
}

impl<'a> SegPart<'a> {
    fn as_slice(&self) -> &'a [u8] {
        match self {
            SegPart::Owned(v) => v,
            SegPart::Shared(b) => b,
        }
    }
}

/// A segmented encode buffer: a sequence of byte segments that together
/// form one contiguous wire image, without forcing shared payloads to be
/// copied into place.
///
/// Writers append through its [`Sink`] impl: small fields into one owned
/// run, large shared payloads ([`Sink::put_shared`]) aside, each with the
/// offset in the owned run where it goes. Readers either walk
/// [`SegmentBuf::segments`] / [`SegmentBuf::io_slices`] (vectored IO) or
/// flatten with [`SegmentBuf::to_vec`].
#[derive(Default)]
pub struct SegmentBuf {
    owned: Vec<u8>,
    /// Shared payloads in wire order, each after `owned[..at]`.
    shared: Vec<(usize, Bytes)>,
}

impl SegmentBuf {
    /// Shared payloads at or below this size are copied into the owned run
    /// instead of becoming their own segment: a 2-element iovec for a
    /// 16-byte field costs more than the copy saves.
    pub const INLINE_COPY_MAX: usize = 64;

    pub fn new() -> SegmentBuf {
        SegmentBuf::default()
    }

    /// The owned runs and shared payloads in wire order; no owned run is
    /// empty.
    fn parts(&self) -> impl Iterator<Item = SegPart<'_>> {
        let mut from = 0;
        let ends = self.shared.iter().map(Some).chain([None]);
        ends.flat_map(move |shared| {
            let to = shared.map_or(self.owned.len(), |(at, _)| *at);
            let owned = (to > from).then(|| SegPart::Owned(&self.owned[from..to]));
            from = to;
            owned
                .into_iter()
                .chain(shared.map(|(_, b)| SegPart::Shared(b)))
        })
    }

    /// Total encoded length across all segments.
    pub fn len(&self) -> usize {
        self.owned.len() + self.shared.iter().map(|(_, b)| b.len()).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The segments, in wire order.
    pub fn segments(&self) -> impl Iterator<Item = &[u8]> {
        self.parts().map(|p| p.as_slice())
    }

    /// The shared (zero-copy) segments only — what a transport avoids
    /// copying, and what tests assert pointer identity on.
    pub fn shared_segments(&self) -> impl Iterator<Item = &Bytes> {
        self.shared.iter().map(|(_, b)| b)
    }

    /// Borrow the segments as an iovec for `Write::write_vectored`.
    pub fn io_slices(&self) -> Vec<std::io::IoSlice<'_>> {
        self.segments().map(std::io::IoSlice::new).collect()
    }

    /// Flatten into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len());
        for part in self.segments() {
            out.extend_from_slice(part);
        }
        out
    }

    /// Append bytes `skip..skip + len` of this buffer to `out`: shared
    /// payloads as sub-windows of the same allocation, owned bytes copied.
    fn put_window(&self, mut skip: usize, mut len: usize, out: &mut SegmentBuf) {
        for part in self.parts() {
            let size = part.as_slice().len();
            if skip >= size {
                skip -= size;
                continue;
            }
            let take = (size - skip).min(len);
            match part {
                SegPart::Owned(v) => out.put(&v[skip..skip + take]),
                SegPart::Shared(b) => out.put_shared(&b.slice(skip..skip + take)),
            }
            skip = 0;
            len -= take;
            if len == 0 {
                break;
            }
        }
    }
}

/// The segment-keeping sink.
impl Sink for SegmentBuf {
    fn put(&mut self, bytes: &[u8]) {
        self.owned.extend_from_slice(bytes);
    }
    fn put_zeros(&mut self, n: usize) {
        self.owned.put_zeros(n);
    }
    fn put_u8(&mut self, b: u8) {
        self.owned.push(b);
    }
    fn put_varint(&mut self, v: u64) {
        self.owned.put_varint(v);
    }
    /// A zero-copy segment (refcount bump, no byte copy), unless the
    /// payload is small enough that inlining wins.
    fn put_shared(&mut self, bytes: &Bytes) {
        if bytes.len() <= Self::INLINE_COPY_MAX {
            self.put(bytes);
        } else {
            self.shared.push((self.owned.len(), bytes.clone()));
        }
    }
}

/// The wire tag for a traffic class (the tag of a frame header).
fn class_tag(class: TrafficClass) -> u8 {
    match class {
        TrafficClass::Dispersal => TAG_DISPERSAL,
        TrafficClass::Retrieval(_) => TAG_RETRIEVAL,
    }
}

/// Frame `env` for the wire: header plus segmented body. The result is
/// exactly [`Envelope::wire_size`] bytes across its segments, with every
/// chunk payload a shared window (no copy of the encode arena).
pub fn encode_frame(env: &Envelope) -> SegmentBuf {
    let mut out = SegmentBuf::new();
    put_header(&mut out, env.encoded_len(), class_tag(env.class()));
    env.encode_to(&mut out);
    debug_assert_eq!(out.len(), env.wire_size());
    out
}

/// Tag of a frame that carries a whole dispersal-class envelope.
const TAG_DISPERSAL: u8 = 0;
/// Tag of a frame that carries a whole retrieval-class envelope.
const TAG_RETRIEVAL: u8 = 1;
/// Tag of the frame that opens a segmented envelope.
const TAG_BULK_START: u8 = 2;
/// Tag of a segment that neither opens nor finishes its envelope.
const TAG_BULK_MORE: u8 = 3;
/// Tag of the segment that carries an envelope's last byte.
const TAG_BULK_END: u8 = 4;

/// Bytes `offset..offset + len` of `env`'s encoding as a frame of their
/// own — what a transport writes for one `dl_core::Segment`. The whole
/// encoding is [`encode_frame`]; a proper part (of a retrieval-class
/// envelope: nothing else is ever cut) is a start, middle or end segment.
/// Chunk payload bytes stay windows into the encode arena.
pub fn encode_segment(env: &Envelope, offset: usize, len: usize) -> SegmentBuf {
    let mut body = SegmentBuf::new();
    env.encode_to(&mut body);
    debug_assert!(offset + len <= body.len());
    let tag = match (offset == 0, offset + len == body.len()) {
        (true, true) => return encode_frame(env),
        (true, false) => TAG_BULK_START,
        (false, false) => TAG_BULK_MORE,
        (false, true) => TAG_BULK_END,
    };
    let mut out = SegmentBuf::new();
    put_header(&mut out, len, tag);
    body.put_window(offset, len, &mut out);
    out
}

/// Why a frame was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The header's length — or, for a segment, the reassembly it would
    /// extend — exceeds [`MAX_FRAME_BODY`]; rejected before any of its
    /// bytes are buffered.
    Oversized { len: usize },
    /// The header varint is not canonical (a final zero byte after the
    /// first) or runs past [`MAX_FRAME_HEADER_LEN`] bytes.
    BadHeader,
    /// The tag is not a known one (0–4).
    BadClass(u8),
    /// The tag disagrees with the class derived from the decoded
    /// envelope (an honest sender can never produce this).
    ClassMismatch { tagged: u8, actual: u8 },
    /// A middle or end segment arrived with no envelope open.
    ContinuationWithoutStart,
    /// The body failed the strict envelope codec.
    Codec(CodecError),
    /// [`FrameDecoder::next_frame`] called again after a previous error:
    /// local misuse, not peer behaviour — framing cannot resynchronize.
    Poisoned,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(f, "envelope of {len} bytes exceeds {MAX_FRAME_BODY}")
            }
            FrameError::BadHeader => write!(f, "non-canonical or over-long frame header"),
            FrameError::BadClass(tag) => write!(f, "unknown traffic class tag {tag}"),
            FrameError::ClassMismatch { tagged, actual } => {
                write!(
                    f,
                    "frame tagged class {tagged} but envelope is class {actual}"
                )
            }
            FrameError::ContinuationWithoutStart => {
                write!(f, "continuation segment with no envelope open")
            }
            FrameError::Codec(_) => write!(f, "frame body failed strict decode"),
            FrameError::Poisoned => write!(f, "frame stream already poisoned by a prior error"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for FrameError {
    fn from(e: CodecError) -> FrameError {
        FrameError::Codec(e)
    }
}

impl From<FrameError> for std::io::Error {
    fn from(e: FrameError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Incremental frame reassembly from arbitrary read boundaries.
///
/// Feed raw socket bytes with [`FrameDecoder::extend`], then drain complete
/// envelopes with [`FrameDecoder::next_frame`] until it yields `Ok(None)`
/// (more bytes needed). Errors are terminal: once framing desynchronizes
/// there is no way to find the next boundary, so the decoder stays poisoned
/// and the transport must drop the connection.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames.
    consumed: usize,
    /// The segments received so far of the one envelope that may be open.
    open: Option<Vec<u8>>,
    poisoned: bool,
}

impl FrameDecoder {
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append raw bytes read off the wire.
    pub fn extend(&mut self, data: &[u8]) {
        // Reclaim consumed space before growing; amortized O(1) per byte.
        if self.consumed > 0 && (self.consumed >= self.buf.len() || self.consumed >= 64 * 1024) {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet consumed by a returned frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// The next complete envelope, `Ok(None)` if more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Envelope>, FrameError> {
        if self.poisoned {
            // One error response per call keeps misuse loud without
            // re-decoding garbage — and distinguishable from a Byzantine
            // peer's malformed bytes.
            return Err(FrameError::Poisoned);
        }
        match self.try_next() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn try_next(&mut self) -> Result<Option<Envelope>, FrameError> {
        // One frame per turn; a segment that leaves its envelope open
        // yields nothing, so look at the frame after it.
        loop {
            let avail = &self.buf[self.consumed..];
            let Some((header_len, body_len, tag)) = read_header(avail)? else {
                return Ok(None);
            };
            // Validate the tag as soon as it arrives: a bad one must not
            // make us buffer up to MAX_FRAME_BODY of garbage first.
            match (tag, &self.open) {
                (TAG_DISPERSAL | TAG_RETRIEVAL | TAG_BULK_START, _) => {}
                (TAG_BULK_MORE | TAG_BULK_END, Some(open)) => {
                    let len = open.len() + body_len;
                    if len > MAX_FRAME_BODY {
                        return Err(FrameError::Oversized { len });
                    }
                }
                (TAG_BULK_MORE | TAG_BULK_END, None) => {
                    return Err(FrameError::ContinuationWithoutStart)
                }
                _ => return Err(FrameError::BadClass(tag)),
            }
            if avail.len() < header_len + body_len {
                return Ok(None);
            }
            let body = &avail[header_len..header_len + body_len];
            let env = match tag {
                TAG_DISPERSAL => Some(Envelope::from_bytes(body)?),
                // The next bulk envelope opens: whatever was open, its
                // sender dropped the rest of.
                TAG_RETRIEVAL => {
                    self.open = None;
                    Some(Envelope::from_bytes(body)?)
                }
                TAG_BULK_START => {
                    self.open = Some(body.to_vec());
                    None
                }
                _ => {
                    let mut whole = self.open.take().expect("checked with the tag");
                    whole.extend_from_slice(body);
                    if tag == TAG_BULK_END {
                        Some(Envelope::from_bytes(&whole)?)
                    } else {
                        self.open = Some(whole);
                        None
                    }
                }
            };
            self.consumed += header_len + body_len;
            let Some(env) = env else { continue };
            // Only the retrieval class is ever cut into segments.
            let tagged = tag.min(TAG_RETRIEVAL);
            let actual = class_tag(env.class());
            if tagged != actual {
                return Err(FrameError::ClassMismatch { tagged, actual });
            }
            return Ok(Some(env));
        }
    }
}

/// The frame header at the front of `avail` as `(header bytes, body
/// length, tag)`, `None` until all of it has arrived. A length past
/// [`MAX_FRAME_BODY`] is rejected from the header alone — before waiting
/// for (or allocating room for) a body a Byzantine peer will never send.
fn read_header(avail: &[u8]) -> Result<Option<(usize, usize, u8)>, FrameError> {
    let mut v = 0u64;
    for (i, &b) in avail.iter().take(MAX_FRAME_HEADER_LEN).enumerate() {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b & 0x80 == 0 {
            if b == 0 && i > 0 {
                return Err(FrameError::BadHeader);
            }
            let len = (v >> 3) as usize;
            if len > MAX_FRAME_BODY {
                return Err(FrameError::Oversized { len });
            }
            return Ok(Some((i + 1, len, (v & 7) as u8)));
        }
    }
    if avail.len() >= MAX_FRAME_HEADER_LEN {
        return Err(FrameError::BadHeader);
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Epoch, NodeId};
    use crate::msg::{BaMsg, ChunkPayload, VidMsg};
    use dl_crypto::{Hash, MerkleProof};

    /// Deterministic xorshift64* so the fuzz-ish tests need no rand crate.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn proof() -> MerkleProof {
        MerkleProof {
            index: 1,
            leaf_count: 4,
            path: vec![Hash::digest(b"p"); 2],
        }
    }

    fn chunk_env(payload_len: usize) -> Envelope {
        Envelope::vid(
            Epoch(7),
            NodeId(2),
            VidMsg::Chunk {
                root: Hash::digest(b"root"),
                proof: proof(),
                payload: ChunkPayload::Real(Bytes::from(vec![0xAB; payload_len])),
            },
        )
    }

    fn ba_env() -> Envelope {
        Envelope::ba(
            Epoch(3),
            NodeId(0),
            BaMsg::BVal {
                round: 1,
                value: true,
            },
        )
    }

    /// A frame header with whatever length and tag it claims.
    fn header(tag: u8, len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        put_header(&mut out, len, tag);
        out
    }

    /// `body` behind a header claiming `len` bytes.
    fn framed(tag: u8, len: usize, body: &[u8]) -> Vec<u8> {
        [header(tag, len), body.to_vec()].concat()
    }

    fn retrieval_env() -> Envelope {
        Envelope::vid(
            Epoch(5),
            NodeId(1),
            VidMsg::ReturnChunk {
                root: Hash::digest(b"root"),
                proof: proof(),
                payload: ChunkPayload::Real(Bytes::from(vec![0xCD; 300])),
            },
        )
    }

    #[test]
    fn frame_roundtrips_and_matches_wire_size() {
        for env in [chunk_env(1000), ba_env(), retrieval_env()] {
            let frame = encode_frame(&env);
            assert_eq!(frame.len(), env.wire_size());
            let mut dec = FrameDecoder::new();
            dec.extend(&frame.to_vec());
            assert_eq!(dec.next_frame().unwrap(), Some(env));
            assert_eq!(dec.next_frame().unwrap(), None);
            assert_eq!(dec.pending(), 0);
        }
    }

    #[test]
    fn chunk_payload_is_a_shared_segment_not_a_copy() {
        let payload = Bytes::from(vec![0x5A; 4096]);
        let env = Envelope::vid(
            Epoch(1),
            NodeId(0),
            VidMsg::Chunk {
                root: Hash::digest(b"r"),
                proof: proof(),
                payload: ChunkPayload::Real(payload.clone()),
            },
        );
        let frame = encode_frame(&env);
        let shared: Vec<&Bytes> = frame.shared_segments().collect();
        assert_eq!(shared.len(), 1);
        // Pointer identity: the frame references the same allocation.
        assert_eq!(shared[0].as_ref().as_ptr(), payload.as_ref().as_ptr());
        assert_eq!(shared[0].len(), payload.len());
        // And the flattened bytes still equal the flat encode path.
        let body = env.to_bytes();
        let flat = framed(class_tag(env.class()), body.len(), &body);
        assert_eq!(frame.to_vec(), flat);
    }

    #[test]
    fn small_shared_payloads_are_inlined() {
        let mut buf = SegmentBuf::new();
        buf.put_shared(&Bytes::from(vec![1u8; SegmentBuf::INLINE_COPY_MAX]));
        assert_eq!(buf.shared_segments().count(), 0, "tiny payload not inlined");
        buf.put_shared(&Bytes::from(vec![2u8; SegmentBuf::INLINE_COPY_MAX + 1]));
        assert_eq!(buf.shared_segments().count(), 1);
        assert_eq!(buf.segments().count(), 2);
    }

    #[test]
    fn head_mut_after_shared_segment_starts_a_new_owned_part() {
        let mut buf = SegmentBuf::new();
        buf.put(b"head");
        buf.put_shared(&Bytes::from(vec![9u8; 100]));
        buf.put(b"tail");
        let parts: Vec<Vec<u8>> = buf.segments().map(<[u8]>::to_vec).collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], b"head");
        assert_eq!(parts[2], b"tail");
        assert_eq!(buf.len(), 4 + 100 + 4);
        assert_eq!(buf.io_slices().len(), 3);
    }

    #[test]
    fn every_truncation_point_reports_incomplete_not_error() {
        let env = chunk_env(300);
        let bytes = encode_frame(&env).to_vec();
        for cut in 0..bytes.len() {
            let mut dec = FrameDecoder::new();
            dec.extend(&bytes[..cut]);
            assert_eq!(
                dec.next_frame().expect("truncation is not an error"),
                None,
                "cut at {cut}"
            );
            // Feeding the rest completes the frame.
            dec.extend(&bytes[cut..]);
            assert_eq!(dec.next_frame().unwrap(), Some(env.clone()), "cut at {cut}");
        }
    }

    #[test]
    fn split_across_reads_reassembles_multiple_frames() {
        // Several frames of different classes and sizes, delivered in
        // pseudo-random read chunks like a TCP stream would.
        let envs = vec![ba_env(), chunk_env(2000), retrieval_env(), chunk_env(17)];
        let mut stream = Vec::new();
        for env in &envs {
            stream.extend_from_slice(&encode_frame(env).to_vec());
        }
        for seed in 1..20u64 {
            let mut rng = Rng(seed);
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut pos = 0;
            while pos < stream.len() {
                let take = (1 + rng.below(97)).min(stream.len() - pos);
                dec.extend(&stream[pos..pos + take]);
                pos += take;
                while let Some(env) = dec.next_frame().expect("honest stream") {
                    got.push(env);
                }
            }
            assert_eq!(got, envs, "seed {seed}");
        }
    }

    /// `env` cut at each of `cuts` (offsets into its encoding), one frame
    /// per piece.
    fn segment_frames(env: &Envelope, cuts: &[usize]) -> Vec<Vec<u8>> {
        segment_lens(env, cuts)
            .scan(0, |offset, len| {
                *offset += len;
                Some(encode_segment(env, *offset - len, len).to_vec())
            })
            .collect()
    }

    /// The lengths of the pieces [`segment_frames`] cuts.
    fn segment_lens<'a>(env: &Envelope, cuts: &'a [usize]) -> impl Iterator<Item = usize> + 'a {
        let edges = [0].into_iter().chain(cuts.iter().copied());
        let ends = cuts.iter().copied().chain([env.encoded_len()]);
        edges.zip(ends).map(|(from, to)| to - from)
    }

    #[test]
    fn a_chunk_cut_at_every_byte_boundary_reassembles_across_arbitrary_reads() {
        // Two segments at every cut, a vote between them (the reason the
        // cut exists), then three segments at a spread of cut pairs — all
        // dribbled to the decoder in pseudo-random read sizes.
        let (env, vote) = (retrieval_env(), ba_env());
        let body = env.encoded_len();
        let mut rng = Rng(7);
        let mut cut_sets: Vec<Vec<usize>> = (1..body).map(|cut| vec![cut]).collect();
        cut_sets.extend(
            (1..body - 1)
                .step_by(13)
                .map(|a| vec![a, a + 1 + rng.below(body - a - 1)]),
        );
        for cuts in cut_sets {
            let frames = segment_frames(&env, &cuts);
            assert_eq!(
                frames.iter().map(Vec::len).sum::<usize>(),
                body + segment_lens(&env, &cuts)
                    .map(frame_header_len)
                    .sum::<usize>(),
                "each segment costs a header of its own length"
            );
            let mut stream = frames[0].clone();
            stream.extend_from_slice(&encode_frame(&vote).to_vec());
            stream.extend(frames[1..].iter().flatten());
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut pos = 0;
            while pos < stream.len() {
                let take = (1 + rng.below(61)).min(stream.len() - pos);
                dec.extend(&stream[pos..pos + take]);
                pos += take;
                while let Some(env) = dec.next_frame().expect("honest stream") {
                    got.push(env);
                }
            }
            assert_eq!(got, vec![vote.clone(), env.clone()], "cuts {cuts:?}");
            assert_eq!(dec.pending(), 0);
        }
    }

    #[test]
    fn segment_payload_bytes_are_windows_not_copies() {
        let payload = Bytes::from(vec![0x5A; 4096]);
        let env = Envelope::vid(
            Epoch(1),
            NodeId(0),
            VidMsg::ReturnChunk {
                root: Hash::digest(b"r"),
                proof: proof(),
                payload: ChunkPayload::Real(payload.clone()),
            },
        );
        let head = env.encoded_len() - payload.len();
        let seg = encode_segment(&env, head + 1000, 2000);
        let shared: Vec<&Bytes> = seg.shared_segments().collect();
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].as_ref().as_ptr(), payload[1000..].as_ptr());
        assert_eq!(shared[0].len(), 2000);
        assert_eq!(seg.len(), frame_header_len(2000) + 2000);
        // The whole encoding as one "segment" is the plain frame.
        let whole = encode_segment(&env, 0, env.encoded_len());
        assert_eq!(whole.to_vec(), encode_frame(&env).to_vec());
    }

    #[test]
    fn an_unfinished_reassembly_is_discarded_when_the_next_bulk_envelope_opens() {
        // The sender purged the rest of `a` (its retrieval was cancelled)
        // and went on to `b`, whole or segmented: `b` arrives, `a` never.
        let a = retrieval_env();
        let mut b = retrieval_env();
        b.epoch = Epoch(6);
        let a_frames = segment_frames(&a, &[100]);
        for b_frames in [segment_frames(&b, &[]), segment_frames(&b, &[40, 200])] {
            let mut dec = FrameDecoder::new();
            dec.extend(&a_frames[0]);
            assert_eq!(dec.next_frame().unwrap(), None);
            dec.extend(&b_frames.concat());
            assert_eq!(dec.next_frame().unwrap(), Some(b.clone()));
            // `a`'s tail now has nothing to continue.
            dec.extend(&a_frames[1]);
            assert_eq!(dec.next_frame(), Err(FrameError::ContinuationWithoutStart));
        }
    }

    #[test]
    fn continuation_without_a_start_is_rejected_from_the_header_alone() {
        for tag in [TAG_BULK_MORE, TAG_BULK_END] {
            let mut dec = FrameDecoder::new();
            dec.extend(&header(tag, 1000));
            assert_eq!(dec.next_frame(), Err(FrameError::ContinuationWithoutStart));
            assert_eq!(dec.next_frame(), Err(FrameError::Poisoned));
        }
    }

    #[test]
    fn reassembly_past_max_frame_body_is_rejected_before_buffering() {
        // Each prefix is admissible by itself; the sum is not, and the
        // claimed bytes are never waited for.
        let mut dec = FrameDecoder::new();
        dec.extend(&segment_frames(&retrieval_env(), &[100])[0]);
        dec.extend(&header(TAG_BULK_MORE, MAX_FRAME_BODY - 50));
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Oversized {
                len: MAX_FRAME_BODY + 50
            })
        );
    }

    #[test]
    fn a_segmented_envelope_must_be_retrieval_class() {
        // A vote cut in two reassembles to a valid envelope of the wrong
        // class: nothing honest sends that.
        let mut dec = FrameDecoder::new();
        dec.extend(&segment_frames(&ba_env(), &[2]).concat());
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::ClassMismatch {
                tagged: 1,
                actual: 0
            })
        );
    }

    #[test]
    fn oversized_length_prefix_rejected_before_buffering() {
        let mut dec = FrameDecoder::new();
        let hdr = header(TAG_DISPERSAL, MAX_FRAME_BODY + 1);
        assert_eq!(hdr.len(), MAX_FRAME_HEADER_LEN);
        dec.extend(&hdr);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Oversized {
                len: MAX_FRAME_BODY + 1
            })
        );
        // The decoder stays poisoned: feeding valid bytes cannot revive it.
        dec.extend(&encode_frame(&ba_env()).to_vec());
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn non_canonical_and_over_long_headers_are_rejected() {
        // A vote's header padded to two bytes, and to the longest legal
        // header: the same value, but not its one encoding.
        let body = ba_env().to_bytes();
        let canonical = header(TAG_DISPERSAL, body.len());
        assert_eq!(canonical.len(), 1);
        for pad in 1..MAX_FRAME_HEADER_LEN {
            let mut padded = vec![canonical[0] | 0x80];
            padded.extend(std::iter::repeat_n(0x80, pad - 1));
            padded.push(0);
            let mut dec = FrameDecoder::new();
            dec.extend(&[padded, body.clone()].concat());
            assert_eq!(dec.next_frame(), Err(FrameError::BadHeader), "pad {pad}");
        }
        // A varint still open after the longest legal header is rejected
        // as soon as that many bytes are in, whatever would follow.
        let mut dec = FrameDecoder::new();
        dec.extend(&[0x80; MAX_FRAME_HEADER_LEN - 1]);
        assert_eq!(dec.next_frame(), Ok(None));
        dec.extend(&[0x80]);
        assert_eq!(dec.next_frame(), Err(FrameError::BadHeader));
    }

    #[test]
    fn header_lengths_follow_the_body() {
        assert_eq!(frame_header_len(MAX_FRAME_BODY), MAX_FRAME_HEADER_LEN);
        for (body, header) in [(0, 1), (15, 1), (16, 2), (2047, 2), (2048, 3), (25_000, 3)] {
            assert_eq!(frame_header_len(body), header, "{body}-byte body");
        }
        // The longest body of a frame budget is exact: one byte more and
        // the frame, header included, no longer fits.
        let fits = |body: usize, budget: usize| body + frame_header_len(body) <= budget;
        for budget in (0..5000).chain(262_100..262_200) {
            let body = max_body_len(budget);
            assert!(body == 0 || fits(body, budget), "{budget}");
            assert!(!fits(body + 1, budget), "{budget}");
        }
        assert!(max_body_len(usize::MAX) > MAX_FRAME_BODY);
    }

    #[test]
    fn corrupted_length_prefix_over_claims_then_fails_strict_decode() {
        // A length prefix claiming more than the body swallows the next
        // frame's bytes and must fail the strict envelope codec (trailing
        // bytes), not silently misparse.
        let body = ba_env().to_bytes();
        let mut bytes = framed(TAG_DISPERSAL, body.len() + 3, &body);
        bytes.extend_from_slice(&[0, 0, 0]); // the swallowed bytes
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert!(matches!(dec.next_frame(), Err(FrameError::Codec(_))));
    }

    #[test]
    fn corrupted_length_prefix_under_claims_fails() {
        let body = chunk_env(128).to_bytes();
        let mut dec = FrameDecoder::new();
        dec.extend(&framed(TAG_DISPERSAL, body.len() - 1, &body));
        assert!(matches!(dec.next_frame(), Err(FrameError::Codec(_))));
    }

    #[test]
    fn bad_class_tag_rejected_from_the_header_alone() {
        // Only the header has arrived: a bad class must be rejected now,
        // not after buffering the (large, claimed) body.
        let mut dec = FrameDecoder::new();
        dec.extend(&header(5, MAX_FRAME_BODY - 1));
        assert_eq!(dec.next_frame(), Err(FrameError::BadClass(5)));
    }

    #[test]
    fn bad_and_mismatched_class_tags_rejected() {
        let body = ba_env().to_bytes(); // dispersal class
        let mut dec = FrameDecoder::new();
        dec.extend(&framed(7, body.len(), &body));
        assert_eq!(dec.next_frame(), Err(FrameError::BadClass(7)));

        // A valid tag, but the wrong class for a BA message.
        let bytes = framed(TAG_RETRIEVAL, body.len(), &body);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::ClassMismatch {
                tagged: 1,
                actual: 0
            })
        );
    }

    #[test]
    fn random_corruption_never_panics_and_usually_errors() {
        let base = encode_frame(&chunk_env(256)).to_vec();
        let mut rng = Rng(42);
        for _ in 0..500 {
            let mut bytes = base.clone();
            let flips = 1 + rng.below(4);
            for _ in 0..flips {
                let at = rng.below(bytes.len());
                bytes[at] ^= (1 + rng.below(255)) as u8;
            }
            let mut dec = FrameDecoder::new();
            dec.extend(&bytes);
            // Must never panic; any Ok(Some) must at least be a
            // self-consistent envelope (decode is strict).
            if let Ok(Some(env)) = dec.next_frame() {
                let reframed = encode_frame(&env);
                assert_eq!(reframed.len(), env.wire_size());
            }
        }
    }

    #[test]
    fn random_bytes_never_panic_the_decoders() {
        // 100,000 seeded strings: bare bodies for the envelope and block
        // codecs, and the same bytes behind a header that claims exactly
        // their length, so the frame decoder reaches the body codec too.
        // Any envelope that does decode is canonical: it re-encodes to the
        // very bytes it came from.
        let mut rng = Rng(0x5eed);
        for i in 0..100_000 {
            let len = rng.below(if i % 10 == 0 { 400 } else { 48 });
            // Small bytes half the time, so kinds, tags and varints are
            // often in range.
            let small = rng.below(2) == 0;
            let body: Vec<u8> = (0..len)
                .map(|_| (rng.next() % if small { 16 } else { 256 }) as u8)
                .collect();
            if let Ok(env) = Envelope::from_bytes(&body) {
                assert_eq!(env.to_bytes(), body);
            }
            let _ = crate::Block::from_bytes(&body);
            let mut dec = FrameDecoder::new();
            dec.extend(&framed(rng.below(8) as u8, len, &body));
            let _ = dec.next_frame();
            let mut dec = FrameDecoder::new();
            dec.extend(&body);
            let _ = dec.next_frame();
        }
    }

    #[test]
    fn frame_at_exactly_max_field_len_roundtrips() {
        // The largest payload the codec admits: a chunk of exactly
        // MAX_FIELD_LEN bytes. The frame body exceeds MAX_FIELD_LEN (by the
        // envelope metadata) but stays under MAX_FRAME_BODY.
        let env = chunk_env(MAX_FIELD_LEN);
        assert!(env.encoded_len() > MAX_FIELD_LEN);
        assert!(env.encoded_len() <= MAX_FRAME_BODY);
        let frame = encode_frame(&env);
        assert_eq!(frame.len(), env.wire_size());
        // The giant payload must be a shared segment, not a copy.
        assert_eq!(
            frame.shared_segments().map(Bytes::len).sum::<usize>(),
            MAX_FIELD_LEN
        );
        let mut dec = FrameDecoder::new();
        // Feed in two halves to exercise reassembly at scale.
        let bytes = frame.to_vec();
        let mid = bytes.len() / 2;
        dec.extend(&bytes[..mid]);
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.extend(&bytes[mid..]);
        let back = dec.next_frame().unwrap().expect("complete");
        assert_eq!(back, env);
    }

    #[test]
    fn one_byte_over_max_field_len_is_rejected() {
        // A chunk payload one byte past MAX_FIELD_LEN fails the strict
        // codec (LengthOverflow) even though the frame length is accepted.
        let env = chunk_env(MAX_FIELD_LEN + 1);
        let frame = encode_frame(&env);
        let mut dec = FrameDecoder::new();
        dec.extend(&frame.to_vec());
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Codec(CodecError::LengthOverflow))
        );
    }

    #[test]
    fn frame_error_chains_to_codec_error() {
        use std::error::Error;
        let e = FrameError::Codec(CodecError::UnexpectedEnd);
        let src = e.source().expect("codec source");
        assert_eq!(src.to_string(), CodecError::UnexpectedEnd.to_string());
        let io: std::io::Error = e.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
        assert!(io.get_ref().is_some());
    }
}
