//! `dl-net` — the real TCP transport for the DispersedLedger engine.
//!
//! Where `dl-sim` interprets engine effects in virtual time, `dl-net` runs
//! the *same* [`Engine`] over real sockets: one [`NetNode`] per cluster
//! member, one TCP connection per directed peer pair, frames from
//! `dl_wire::frame` on the wire. The roadmap's goal of a vectored-IO send
//! path is realized here: an outbound chunk is framed as a [`SegmentBuf`]
//! whose payload segment is a refcounted window into the erasure coder's
//! arena, and [`write_segments`] hands those segments to
//! `Write::write_vectored` — the chunk bytes are never copied between the
//! encode arena and the kernel.
//!
//! ## Threading model
//!
//! The runtime is plain `std` threads (this workspace builds hermetically
//! with no registry access, so no async runtime is available; the
//! structure — engine task, per-peer writer, per-connection reader — maps
//! 1:1 onto tokio tasks if one is ever vendored):
//!
//! * **engine thread** — owns the `Box<dyn Engine + Send>`, consumes an
//!   input queue of client transactions and decoded peer envelopes, and
//!   writes effects through a [`dl_core::EffectSink`] that routes `send`
//!   into per-peer outboxes. Wake hints and a coarse tick drive `poll`.
//! * **writer threads** (one per peer) — connect (with retry), then drain
//!   the peer's [`SendQueue`] outbox in the §5 priority order: everything
//!   before `ReturnChunk` bulk, `ReturnChunk`s in epoch order and one
//!   16 KiB write quantum per turn, so a vote queued behind a chunk waits
//!   for one write of it. This is the same queue, and the same segment
//!   cursor, the simulator's links drain. A connection that dies takes the
//!   rest of a partly-written chunk with it.
//! * **reader threads** (one per accepted connection) — reassemble frames
//!   and segments with [`FrameDecoder`] across arbitrary TCP read
//!   boundaries and feed envelopes to the engine thread. Any frame error
//!   drops the connection (framing is unrecoverable once desynchronized).
//!
//! ## Backpressure
//!
//! Each outbox is bounded in *wire bytes*. When a peer's TCP connection
//! (or the peer itself) is slower than the engine produces, the engine
//! thread blocks in `send` until the writer drains below the bound —
//! classic producer/consumer backpressure. This cannot deadlock: inbound
//! frames are queued without bounds toward the engine, so a peer's reader
//! always makes progress even while our engine waits for its writer. A
//! peer that is *down* rather than slow — dial attempts failing past the
//! `connect_timeout` grace, the connection dropped, or a socket that
//! accepted no bytes for a whole `write_timeout` (frozen process, silent
//! partition) — must never backpressure: its outbox turns **lossy**
//! (drops traffic instead of queueing), which is exactly the `f`-crash
//! loss the protocol tolerates. The writer keeps dialing with capped
//! exponential backoff (`reconnect_backoff_max`); a reconnected peer is
//! first on **probation** (queueing resumes but producers are never
//! blocked) and only re-earns backpressure after a full `write_timeout`
//! of successful drains — so a frozen process whose kernel still accepts
//! dials can never stall the engine more than once. A genuinely revived
//! peer resumes receiving traffic with no node restart.
//!
//! ## Trust model
//!
//! Peers self-identify with a 2-byte hello (their [`NodeId`]). That is the
//! right fidelity for reproducing the paper's experiments on localhost /
//! trusted hosts; an authenticated transport (TLS, Noise) would slot in at
//! the connection layer without touching the engine seam.
//!
//! [`Engine`]: dl_core::Engine
//! [`SendQueue`]: dl_core::SendQueue
//! [`SegmentBuf`]: dl_wire::frame::SegmentBuf
//! [`FrameDecoder`]: dl_wire::frame::FrameDecoder
//! [`NodeId`]: dl_wire::NodeId

#![forbid(unsafe_code)]
// No panic path outside tests and the `dl-node` binary. `.expect("…")`
// stays for two deliberate crash classes: a poisoned lock (another thread
// already panicked) and a failed WAL append or fsync (a node that cannot
// make its log durable must stop before it can un-say state).
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod cluster;
mod config;
mod node;
mod outbox;

pub use cluster::{run_restart_recovery, ClusterSpec, LocalCluster};
pub use config::NetConfig;
pub use node::{write_segments, NetNode};
