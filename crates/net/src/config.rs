//! Transport parameters of one node.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

use dl_store::FsyncPolicy;
use dl_wire::NodeId;

pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
pub(crate) const RECONNECT_BACKOFF_MAX: Duration = Duration::from_secs(2);
/// Per-peer outbox bound in wire bytes; `send` blocks above it.
pub(crate) const MAX_OUTBOX_BYTES: usize = 8 << 20;
/// Engine poll cadence in ms (wake hints can only shorten the wait).
pub(crate) const TICK_MS: u64 = 25;

/// Transport parameters of one node.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Our identity; indexes `peers`.
    pub me: NodeId,
    /// Listen address of every cluster member, by node id (our own entry
    /// is what peers dial; we bind it before spawning).
    pub peers: Vec<SocketAddr>,
    /// Grace period per disconnect during which outbound traffic keeps
    /// queueing (bounded) while the writer dials. A peer still down when
    /// it expires has its outbox switched to lossy (drop, don't block)
    /// until the writer reconnects.
    pub connect_timeout: Duration,
    /// Per-syscall socket write timeout. A connected peer that accepts no
    /// bytes for this long (frozen, silently partitioned) has its
    /// connection torn down so its outbox can never stall the engine; the
    /// writer then dials anew.
    pub write_timeout: Duration,
    /// Cap for the writer's exponential reconnect backoff (dial attempts
    /// start at 50 ms apart and double up to this).
    pub reconnect_backoff_max: Duration,
    /// Durable storage root. `Some(dir)` gives the node a write-ahead log
    /// at `dir/node<id>.log` (created if absent): every engine `Persist`
    /// effect is appended before the effects after it reach the wire, and
    /// on spawn an existing log is replayed through [`dl_core::Engine::restore`] so
    /// the node resumes from its durable horizon and catches up on missed
    /// epochs through retrieval. `None` (default) runs in-memory only.
    pub data_dir: Option<PathBuf>,
    /// When the write-ahead log fsyncs (ignored without `data_dir`).
    pub fsync: FsyncPolicy,
}

impl NetConfig {
    pub fn new(me: NodeId, peers: Vec<SocketAddr>) -> NetConfig {
        NetConfig {
            me,
            peers,
            connect_timeout: CONNECT_TIMEOUT,
            write_timeout: Duration::from_secs(30),
            reconnect_backoff_max: RECONNECT_BACKOFF_MAX,
            data_dir: None,
            fsync: FsyncPolicy::default(),
        }
    }
}
