//! Shared protocol types and wire format for DispersedLedger.
//!
//! Everything that crosses a node boundary lives here: node/epoch identifiers,
//! the message taxonomy for AVID-M and Binary Agreement, the block format with
//! its inter-node-linking `V` array, and a hand-written binary codec.
//!
//! The codec is deliberately manual (no serde on the hot path): the
//! discrete-event simulator charges network transfer time from
//! [`codec::WireEncode::encoded_len`], so the byte counts reported by the
//! benchmark harnesses are the *exact* bytes the real TCP transport
//! (`dl-net`) would put on the wire.

#![forbid(unsafe_code)]

pub mod block;
pub mod codec;
pub mod config;
pub mod frame;
pub mod msg;
pub mod nodeset;

pub use block::{Block, BlockBody, BlockHeader, Tx};
pub use codec::{CodecError, WireDecode, WireEncode};
pub use config::{ClusterConfig, Epoch, NodeId};
pub use frame::{
    encode_frame, encode_segment, FrameDecoder, FrameError, SegmentBuf, WireEncodeSegmented,
    FRAME_HEADER_LEN, MAX_FRAME_BODY,
};
pub use msg::{
    BaMsg, ChunkPayload, Envelope, ProtoMsg, SyncMsg, TrafficClass, VidMsg, FRAME_OVERHEAD,
};
pub use nodeset::NodeSet;
