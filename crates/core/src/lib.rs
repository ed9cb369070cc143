//! # DispersedLedger
//!
//! A from-scratch Rust implementation of **DispersedLedger** (Yang, Park,
//! Alizadeh, Kannan, Tse — NSDI 2022): an asynchronous BFT protocol that
//! decouples *agreement on data availability* from *block retrieval*, so that
//! nodes with temporarily low bandwidth do not throttle the rest of the
//! cluster.
//!
//! The crate provides the full node automaton ([`Node`]) plus the baselines
//! the paper evaluates against, selected by [`ProtocolVariant`]:
//!
//! | Variant | Votes after | Next epoch after | Inter-node linking |
//! |---|---|---|---|
//! | `Dl` | dispersal (`VID` Complete) | all BAs output | yes |
//! | `DlCoupled` | dispersal | all BAs output | yes (empty blocks while lagging) |
//! | `HoneyBadger` | full block retrieval | epoch delivered | no |
//! | `HoneyBadgerLink` | full block retrieval | epoch delivered | yes |
//!
//! The node is **sans-IO**: it consumes `(from, Envelope)` pairs plus a
//! millisecond clock and writes its effects into a driver-supplied
//! [`EffectSink`]. Drivers program against the [`Engine`] trait — honest
//! [`Node`]s and the simulator's faulty members occupy cluster slots
//! interchangeably as `Box<dyn Engine>`. Two drivers ship in this
//! workspace: `dl-sim` (discrete-event WAN emulation used by the paper's
//! benchmark reproductions) and `dl-net` (a real TCP mesh).
//!
//! ## Quick tour
//!
//! ```
//! use dl_core::{
//!     DeliveredBlock, EffectSink, Engine, Node, NodeConfig, ProtocolVariant, RealBlockCoder,
//! };
//! use dl_wire::{ClusterConfig, Envelope, NodeId, Tx};
//!
//! let cluster = ClusterConfig::new(4);
//! let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
//! let mut nodes: Vec<Box<dyn Engine>> = (0..4)
//!     .map(|i| {
//!         Box::new(Node::new(NodeId(i), cfg.clone(), RealBlockCoder::new(&cluster)))
//!             as Box<dyn Engine>
//!     })
//!     .collect();
//!
//! // A driver is an EffectSink: this one routes `send` onto an in-memory
//! // wire and counts deliveries. `wake_at`/`stat` default to no-ops.
//! struct Mesh {
//!     from: NodeId,
//!     wire: Vec<(NodeId, NodeId, Envelope)>,
//!     delivered: usize,
//! }
//! impl EffectSink for Mesh {
//!     fn send(&mut self, to: NodeId, env: Envelope) {
//!         self.wire.push((self.from, to, env));
//!     }
//!     fn deliver(&mut self, _block: DeliveredBlock) {
//!         self.delivered += 1;
//!     }
//! }
//!
//! // Submit a transaction at node 0 and run the message loop to quiescence.
//! let mut mesh = Mesh { from: NodeId(0), wire: Vec::new(), delivered: 0 };
//! let mut now = 0u64;
//! nodes[0].submit_tx(Tx::synthetic(NodeId(0), 0, 0, 100), now, &mut mesh);
//! for _ in 0..600 {
//!     now += 10;
//!     for i in 0..4usize {
//!         mesh.from = NodeId(i as u16);
//!         nodes[i].poll(now, &mut mesh);
//!     }
//!     while let Some((from, to, env)) = mesh.wire.pop() {
//!         mesh.from = to;
//!         nodes[to.idx()].handle(from, env, now, &mut mesh);
//!     }
//! }
//! assert!(nodes.iter().all(|n| n.stats().unwrap().txs_delivered == 1));
//! ```

#![forbid(unsafe_code)]
// Replays identically from a seed: no hashed collections, no wall clock.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// No panic path outside tests. `.expect("…")` stays: its message states a
// checked state-machine invariant (an epoch entry created earlier in the
// same call), and corrupted protocol state should crash, not limp.
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

mod coder;
mod engine;
mod linking;
mod node;
mod queue;
mod records;
mod transport;
mod variant;

pub use coder::{BlockCoder, RealBlockCoder};
pub use engine::{EffectSink, Engine, EngineExt};
pub use node::{DeliveredBlock, Node, NodeEffect, NodeStats, StatEvent};
pub use records::StoreRecord;
pub use transport::SendQueue;
pub use variant::{NodeConfig, ProtocolVariant};

/// Nagle delay threshold for block proposal (paper §5: 100 ms). It counts
/// from entry into the epoch, or, for DL and DL-Coupled, from the node's
/// own last proposal while the epoch is live or its queue pays for the
/// epoch (`node/dispersal.rs`, "The Nagle clock"). §5 gives the 100 ms;
/// which instant it counts from is an open question (ROADMAP direction 4).
const PROPOSE_DELAY_MS: u64 = 100;
/// Epochs of retrieval lag DL-Coupled tolerates before it proposes empty
/// blocks (`P` of §4.5; `P = 1` equals HoneyBadger's coupling).
const LAG_LIMIT: u64 = 1;
/// Default Nagle size threshold for block proposal (paper §5: 150 KB).
pub const DEFAULT_PROPOSE_SIZE: usize = 150 * 1000;
/// How far (in epochs) beyond our agreement frontier we accept messages.
const DEFAULT_EPOCH_LOOKAHEAD: u64 = 64;
