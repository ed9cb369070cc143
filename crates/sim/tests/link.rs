//! The link model, one directed link at a time: frames are a quantum of
//! the link's *current* capacity, so a vote overtakes a chunk that is
//! already on the wire, a re-drawn rate governs the chunk's next frame,
//! and a crash or a cancel takes the unsent remainder with it — all of it
//! one frame, and one pump, at a time, the frames that carry only the
//! middle of a chunk included.
//!
//! The cluster's slots 0 and 1 hold [`Probe`]s — an engine that sends what
//! the test scripts and logs what arrives — so every number below is a
//! property of `dl-sim`'s fabric and `dl_core::SendQueue`, not of the
//! protocol.

use std::cell::RefCell;
use std::rc::Rc;

use dl_core::{EffectSink, Engine, ProtocolVariant};
use dl_crypto::{Hash, MerkleProof};
use dl_sim::{LinkSpec, SimConfig, Simulation};
use dl_wire::{
    frame_header_len, max_body_len, ChunkPayload, Envelope, Epoch, NodeId, Tx, VidMsg, WireEncode,
};

const LATENCY_MS: u64 = 20;
/// The `vbw-*` workloads' floor: a 25 kB chunk holds this link for 250 ms.
const SLOW: LinkSpec = LinkSpec {
    latency_ms: LATENCY_MS,
    bytes_per_ms: 100,
};
/// Milliseconds of link a frame carries (`dl-sim`'s private quantum).
const Q_MS: u64 = 1;
/// Bytes of an envelope's encoding one full frame of `rate` carries.
fn frame_body(rate: u64) -> u64 {
    max_body_len((rate * Q_MS) as usize) as u64
}

/// The same of a full [`SLOW`] frame: 98 bytes behind a 2-byte header.
fn slow_frame_body() -> u64 {
    frame_body(SLOW.bytes_per_ms)
}

/// Bytes of `chunk(7)`'s encoding.
fn chunk_body() -> u64 {
    chunk(7).encoded_len() as u64
}

/// Frames of [`SLOW`] link the whole of `chunk(7)` takes alone.
fn chunk_frames() -> u64 {
    chunk_body().div_ceil(slow_frame_body())
}
const CHUNK_BYTES: u32 = 25_000;
const SENDER: usize = 0;
const RECEIVER: usize = 1;

type Log = Rc<RefCell<Vec<(u64, Envelope)>>>;

/// Sends to [`RECEIVER`] what the transactions submitted to it spell — the
/// payload length picks the action, `seq` the epoch — and logs arrivals.
struct Probe {
    id: NodeId,
    log: Log,
}

/// Script: a vote (any high-class envelope).
const VOTE: u32 = 0;
/// Script: the sender's engine cancels the chunk's retrieval.
const PURGE: u32 = 1;

fn chunk(epoch: u64) -> Envelope {
    Envelope::vid(
        Epoch(epoch),
        NodeId(SENDER as u16),
        VidMsg::ReturnChunk {
            root: Hash::digest(b"r"),
            proof: MerkleProof {
                index: 0,
                leaf_count: 1,
                path: Vec::new(),
            },
            payload: ChunkPayload::Synthetic { len: CHUNK_BYTES },
        },
    )
}

fn vote(epoch: u64) -> Envelope {
    Envelope::vid(Epoch(epoch), NodeId(SENDER as u16), VidMsg::RequestChunk)
}

impl Engine for Probe {
    fn id(&self) -> NodeId {
        self.id
    }

    fn submit_tx(&mut self, tx: Tx, _now: u64, sink: &mut dyn EffectSink) {
        let to = NodeId(RECEIVER as u16);
        match tx.payload.len() as u32 {
            VOTE => sink.send(to, vote(tx.seq)),
            PURGE => sink.purge_returns(to, Epoch(tx.seq), self.id),
            _ => sink.send(to, chunk(tx.seq)),
        }
    }

    fn handle(&mut self, _from: NodeId, env: Envelope, now: u64, _sink: &mut dyn EffectSink) {
        self.log.borrow_mut().push((now, env));
    }

    fn poll(&mut self, _now: u64, _sink: &mut dyn EffectSink) {}
}

/// A cluster whose 0 → 1 link is [`SLOW`], and the receiver's arrival log.
fn probed_link() -> (Simulation, Log) {
    let mut sim = Simulation::new(SimConfig::fluid(4, ProtocolVariant::Dl));
    let log = Log::default();
    for id in [SENDER, RECEIVER] {
        sim.set_engine(
            id,
            Box::new(Probe {
                id: NodeId(id as u16),
                log: Rc::clone(&log),
            }),
        );
    }
    sim.set_link(SENDER, RECEIVER, SLOW);
    (sim, log)
}

fn script(sim: &mut Simulation, at_ms: u64, epoch: u64, what: u32) {
    sim.submit_at(
        SENDER,
        at_ms,
        Tx::synthetic(NodeId(SENDER as u16), epoch, at_ms, what),
    );
}

#[test]
fn a_vote_pushed_behind_a_chunk_on_the_wire_arrives_within_a_quantum() {
    let (mut sim, log) = probed_link();
    script(&mut sim, 0, 7, CHUNK_BYTES);
    script(&mut sim, 1, 9, VOTE);
    let report = sim.run_until_quiescent(10_000);
    assert!(report.quiesced);
    let log = log.borrow();
    // The vote waits for the frame under way and rides the next one.
    assert_eq!(log[0].1, vote(9));
    assert!(
        log[0].0 <= 1 + LATENCY_MS + Q_MS + 1,
        "vote arrived at {} ms",
        log[0].0
    );
    // The chunk pays for the vote's frame share and one header per extra
    // segment, nothing else: 250 ms of link at 100 B/ms, plus those.
    assert_eq!(log[1].1, chunk(7));
    let whole = chunk(7).wire_size() as u64;
    let at_least = whole.div_ceil(SLOW.bytes_per_ms) + LATENCY_MS;
    assert!(
        (at_least..=at_least + at_least / 15).contains(&log[1].0),
        "chunk arrived at {} ms, whole-envelope time {at_least}",
        log[1].0
    );
    assert_eq!(log.len(), 2);
}

#[test]
fn a_vote_sent_as_a_frame_ends_rides_the_next_frame_whatever_the_heap_pops_first() {
    // The 1 ms frames of the chunk end at every whole millisecond, and all
    // but the first and the last carry only its middle. The vote is
    // scripted for `at` ms before the run — its submission is older than
    // the pump the frame ending at `at` would schedule — or after running
    // to `at − 1`, when it is younger. Either way the link's pumps run
    // after the instant's node events, so the frame that starts at `at`
    // carries it.
    let mut chunk_arrivals = Vec::new();
    for at in 1..chunk_frames() - 1 {
        for scripted_late in [false, true] {
            let (mut sim, log) = probed_link();
            script(&mut sim, 0, 7, CHUNK_BYTES);
            if scripted_late {
                sim.run_until_quiescent(at - 1);
            }
            script(&mut sim, at, 9, VOTE);
            assert!(sim.run_until_quiescent(10_000).quiesced);
            let log = log.borrow();
            assert_eq!(log[0], (at + Q_MS + LATENCY_MS, vote(9)), "vote at {at}");
            assert_eq!(log[1].1, chunk(7));
            chunk_arrivals.push(log[1].0);
        }
    }
    // The vote displaces the same bytes of chunk wherever it lands.
    chunk_arrivals.dedup();
    assert_eq!(chunk_arrivals.len(), 1, "{chunk_arrivals:?}");
}

#[test]
fn two_runs_of_one_seed_pump_the_same_schedule() {
    // A DL cluster whose uplinks are re-drawn every 100 ms from one seed,
    // run from outside in slices as `dl-e2e` does.
    let run = |seed: u64| {
        let mut sim = Simulation::new(SimConfig::fluid(7, ProtocolVariant::Dl));
        let mut x = seed;
        for s in 0..8u64 {
            for node in 0..7 {
                let at = 50 * s + 3 * node as u64;
                sim.submit_at(node, at, Tx::synthetic(NodeId(node as u16), s, at, 30_000));
            }
        }
        for slice in 0..20 {
            for node in 0..7 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let bytes_per_ms = 100 + x % 1900;
                sim.set_uplink(
                    node,
                    LinkSpec {
                        latency_ms: LATENCY_MS,
                        bytes_per_ms,
                    },
                );
            }
            sim.run_until_quiescent(100 * slice);
        }
        sim.run_until_quiescent(600_000)
    };
    let (a, b) = (run(1), run(1));
    assert!(a.quiesced);
    assert_eq!(a.tx_order(0).len(), 56, "lost transactions");
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.delivered, b.delivered);
    assert_eq!(a.events, b.events);
}

#[test]
fn a_rate_re_drawn_mid_chunk_governs_the_chunks_next_frame() {
    let fast = LinkSpec {
        latency_ms: LATENCY_MS,
        bytes_per_ms: 2000,
    };
    // Stopped at any frame of the chunk, as `dl-e2e` stops every
    // virtual second to re-draw the uplinks.
    for stop in [1, 2, 10, 37, 100, 200] {
        let (mut sim, log) = probed_link();
        script(&mut sim, 0, 7, CHUNK_BYTES);
        sim.run_until_quiescent(stop);
        sim.set_uplink(SENDER, fast);
        let report = sim.run_until_quiescent(10_000);
        assert!(report.quiesced);
        // Frames begun at 0..=stop ms carried 100 bytes each, header
        // included; the rest goes at 2000 a millisecond from the next
        // millisecond on. A chunk that held the link at its opening rate
        // would arrive at 276 ms.
        let left = chunk_body() - (stop + 1) * slow_frame_body();
        let fast_frames = left.div_ceil(frame_body(fast.bytes_per_ms));
        assert_eq!(
            *log.borrow(),
            vec![(stop + 1 + fast_frames * Q_MS + LATENCY_MS, chunk(7))],
            "re-drawn after {stop} ms"
        );
    }
}

#[test]
fn a_crash_takes_the_partly_sent_chunk_with_it() {
    let (mut sim, log) = probed_link();
    script(&mut sim, 0, 7, CHUNK_BYTES);
    // A vote that left before the crash is on the wire and still arrives.
    script(&mut sim, 5, 9, VOTE);
    sim.run_until_quiescent(10);
    sim.crash(SENDER);
    let report = sim.run_until_quiescent(10_000);
    assert!(report.quiesced, "a dead node's link kept pumping");
    assert_eq!(log.borrow().len(), 1, "the dead node finished its chunk");
    assert_eq!(log.borrow()[0].1, vote(9));
    assert!(report.last_activity_ms <= 10 + LATENCY_MS);
}

#[test]
fn a_cancel_purges_the_unsent_remainder_of_a_partly_sent_chunk() {
    for at in [1, 2, 10, 99, 200] {
        let (mut sim, log) = probed_link();
        script(&mut sim, 0, 7, CHUNK_BYTES);
        script(&mut sim, 0, 8, CHUNK_BYTES); // queued behind it, another retrieval
        script(&mut sim, at, 7, PURGE);
        let report = sim.run_until_quiescent(10_000);
        assert!(report.quiesced);
        // The frames begun before the cancel carried the chunk, the one
        // that starts with it does not: the rest, which would have gone
        // in one segment behind its own header, is reclaimed and reported,
        // and the link moves on.
        assert_eq!(report.purged_envelopes, 1);
        let left = (chunk_body() - at * slow_frame_body()) as usize;
        let rest = (left + frame_header_len(left)) as u64;
        assert_eq!(report.purged_bytes, rest, "cancelled at {at} ms");
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].1, chunk(8));
        assert!(log[0].0 <= at + 1 + chunk_frames() + LATENCY_MS + 1);
    }
}

#[test]
fn events_processed_counts_one_pump_per_frame() {
    // One submission, a pump per frame, one arrival — whether the run is
    // sliced or not.
    for slice in [10_000, 7, 1] {
        let (mut sim, log) = probed_link();
        script(&mut sim, 0, 7, CHUNK_BYTES);
        let mut report = sim.run_until_quiescent(0);
        let mut until = 0;
        while !report.quiesced {
            until += slice;
            report = sim.run_until_quiescent(until);
        }
        assert_eq!(report.events_processed, 1 + chunk_frames() + 1);
        assert_eq!(log.borrow()[0], (chunk_frames() + LATENCY_MS, chunk(7)));
    }
}
