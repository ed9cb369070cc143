//! The scenario `window.rs` and `retrieval.rs` both gate on: the paper's
//! heterogeneous-uplink setting at N = 16 in fluid mode. A quarter of the
//! nodes have fast uplinks, the rest step down to a ~6× slower tier, so
//! dispersal time per epoch is comparable to the BA latency it can hide
//! behind; every transaction is a full Nagle batch, submitted faster than
//! the gated schedule turns epochs over.

use dl_core::{ProtocolVariant, StatEvent};
use dl_sim::{LinkSpec, SimConfig, SimReport, Simulation};
use dl_wire::{NodeId, Tx};

pub const N: usize = 16;
pub const TXS_PER_NODE: u64 = 4;
/// Above the Nagle size threshold: every transaction is a block of its own.
pub const TX_BYTES: u32 = 160_000;

/// Run the scenario to quiescence and check that nothing was lost.
pub fn run_tiered_uplinks() -> SimReport {
    // Uplink tiers cycle fast → slow across the cluster (the paper's
    // "network resources vary over time and across nodes" setting, frozen
    // into a spatial gradient).
    const TIERS: [u64; 4] = [1250, 800, 400, 200];
    let mut sim = Simulation::new(SimConfig::fluid(N, ProtocolVariant::Dl));
    for node in 0..N {
        sim.set_uplink(
            node,
            LinkSpec {
                latency_ms: 20,
                bytes_per_ms: TIERS[node % 4],
            },
        );
    }
    for round in 0..TXS_PER_NODE {
        for node in 0..N {
            let at = round * 150 + node as u64 * 5;
            sim.submit_at(
                node,
                at,
                Tx::synthetic(NodeId(node as u16), round, at, TX_BYTES),
            );
        }
    }
    let report = sim.run_until_quiescent(600_000_000);
    assert!(report.quiesced, "run did not quiesce");
    for (i, stats) in report.stats.iter().enumerate() {
        assert_eq!(
            stats.expect("honest node has stats").txs_delivered,
            TXS_PER_NODE * N as u64,
            "transaction loss at node {i}"
        );
    }
    assert_linked_blocks_do_not_stall_the_frontier(&report);
    report
}

/// A fifth of this run's blocks miss their commit and are delivered by
/// linking. Each is fetched when its delivery becomes certain, so by the
/// time an estimate names it the block is in hand: delivery's own fetch is
/// the exception, and an epoch is delivered as soon as its committed blocks
/// are in hand and its predecessor is out.
fn assert_linked_blocks_do_not_stall_the_frontier(report: &SimReport) {
    let stats = report.stats.iter().flatten();
    let (linked, at_frontier) = stats.fold((0, 0), |(l, a), s| {
        (l + s.linked_deliveries, a + s.linked_fetches_at_frontier)
    });
    let mut previous = [0u64; N];
    let (mut waited, mut epochs) = (0u64, 0u64);
    for (at, who, event) in &report.events {
        if let StatEvent::EpochDelivered { in_hand_ms, .. } = event {
            waited += at - in_hand_ms.max(&previous[who.idx()]);
            epochs += 1;
            previous[who.idx()] = *at;
        }
    }
    let mean = waited as f64 / epochs as f64;
    eprintln!("linking: {at_frontier} of {linked} fetched at the frontier, {mean:.2} ms mean wait");
    assert!(linked > 0, "the scenario no longer links anything");
    assert!(20 * at_frontier <= linked, "{at_frontier} of {linked}");
    assert!(mean <= 5.0, "{mean:.2} ms from blocks in hand to delivery");
}
