//! Shared protocol types and wire format for DispersedLedger.
//!
//! Everything that crosses a node boundary lives here: node/epoch identifiers,
//! the message taxonomy for AVID-M and Binary Agreement, the block format with
//! its inter-node-linking `V` array, and a hand-written binary codec.
//!
//! The codec is deliberately manual (no serde on the hot path). Each type
//! describes its encoding once, as one walk over its fields into a
//! [`Sink`] ([`WireEncode::encode_to`]), and three sinks run that walk: a
//! `Vec<u8>` writes the bytes, a [`SegmentBuf`] keeps them as segments
//! whose chunk payloads are shared windows (what `dl-net` writes), and a
//! counter adds up their length ([`WireEncode::encoded_len`]). The
//! discrete-event simulator charges network transfer time from that
//! count, so the byte counts reported by the benchmark harnesses are the
//! *exact* bytes the real TCP transport puts on the wire. Decoding is
//! hand-written per type and strict.

#![forbid(unsafe_code)]

pub mod block;
pub mod codec;
pub mod config;
pub mod frame;
pub mod msg;
pub mod nodeset;

pub use block::{Block, BlockBody, BlockHeader, Tx};
pub use codec::{CodecError, Sink, WireDecode, WireEncode};
pub use config::{ClusterConfig, Epoch, NodeId};
pub use frame::{
    encode_frame, encode_segment, FrameDecoder, FrameError, SegmentBuf, FRAME_HEADER_LEN,
    MAX_FRAME_BODY,
};
pub use msg::{BaMsg, ChunkPayload, Envelope, ProtoMsg, SyncMsg, TrafficClass, VidMsg};
pub use nodeset::NodeSet;
