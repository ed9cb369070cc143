//! The backlog-triggered dispersal window, end to end: on a
//! variable-bandwidth cluster it must buy throughput, and it must not be
//! something an engine's construction path can change.
//!
//! The gate runs the tiered-uplink scenario of `common` (shared with
//! `retrieval.rs`): every transaction is a full Nagle batch arriving
//! faster than the gated schedule turns epochs over, so every node has a
//! batch waiting while agreement for the block it just dispersed runs. The
//! metric is **virtual time-to-drain** of the fixed payload
//! (`last_activity_ms`: when the network went idle, every node having
//! delivered all 64 transactions). Epoch counts are not throughput, and
//! drain time is a pure function of the event schedule: deterministic
//! across machines, immune to box noise, so the bound below is a hard
//! regression gate, not a statistical hope.

mod common;

use dl_core::{Node, NodeConfig, ProtocolVariant, RealBlockCoder, StatEvent};
use dl_sim::{SimConfig, SimReport, Simulation};
use dl_wire::{ClusterConfig, NodeId, Tx};

/// The acceptance gate: the scenario drains in ≤ 2,094 virtual ms (the
/// measured 1994 plus 5 %). The strictly gated schedule took 4670; a fixed
/// four-epoch window opened on the Nagle delay took 3310; the backlog
/// trigger 2420 while linked blocks were fetched at the delivery frontier
/// and 2266 once they were fetched when their delivery is certain (`common`
/// gates that too); 1994 now that votes no longer wait behind a chunk that
/// is already on the wire (`link.rs`). It measures 2052: the coin's fixed
/// round-1 flip decides the slow tier's BAs 0 sooner, so more of its blocks
/// are linked over more epochs (2034 with a hashed round-1 coin).
#[test]
fn tiered_uplinks_drain_within_the_pipelined_budget() {
    if cfg!(debug_assertions) {
        // The N = 16 fluid run is wall-expensive unoptimized; the CI
        // release leg runs this for real.
        eprintln!("skipping window drain-time gate in debug build");
        return;
    }
    let drain = common::run_tiered_uplinks().last_activity_ms;
    eprintln!("window gate: network idle at {drain} ms");
    assert!(drain <= 2_094, "network idle at {drain} ms (≤ 2094)");
}

/// Bursts of full Nagle batches at every node of a 4-node WAN cluster, one
/// every 30 ms — less than a network round trip, let alone an epoch.
fn submit_bursts(sim: &mut Simulation, rounds: u64) {
    for round in 0..rounds {
        for node in 0..4 {
            let at = round * 30 + node as u64 * 5;
            sim.submit_at(
                node,
                at,
                Tx::synthetic(NodeId(node as u16), round, at, common::TX_BYTES),
            );
        }
    }
}

fn assert_all_delivered_in_one_order(report: &SimReport, expected: usize, what: &str) {
    assert!(report.quiesced, "{what} spun forever");
    let order0 = report.tx_order(0);
    assert_eq!(order0.len(), expected, "{what} stranded transactions");
    for i in 1..4 {
        assert_eq!(report.tx_order(i), order0, "{what}: node {i} diverged");
    }
}

/// DL-Coupled with window epochs open must still drain its queue. The
/// `empty_when_lagging` rule originally tested the *proposed* epoch
/// against the delivery frontier; the window runs ahead of the gate by
/// design, so over real WAN latency every window epoch counted as
/// "lagging", proposed empty, never drained the queue — and the queue's
/// proposal pressure spun empty epochs forever (livelock, caught by
/// driving the public API; the direct-mesh tests deliver instantly and
/// never lag). The rule is anchored to the gate. Cheap enough to run in
/// debug builds too.
#[test]
fn dl_coupled_window_drains_its_queue_over_wan_links() {
    let mut sim = Simulation::new(SimConfig::fluid(4, ProtocolVariant::DlCoupled));
    submit_bursts(&mut sim, 6);
    let report = sim.run_until_quiescent(600_000);
    assert_all_delivered_in_one_order(&report, 24, "DlCoupled under bursts");
    // The bursts did open window epochs: node 0 proposed an epoch before
    // the previous one's agreement can have finished anywhere.
    let proposals: Vec<(u64, u64)> = report
        .events
        .iter()
        .filter_map(|(at, who, ev)| match ev {
            StatEvent::Proposed { epoch, .. } if who.0 == 0 => Some((*at, epoch.0)),
            _ => None,
        })
        .collect();
    assert!(
        proposals
            .windows(2)
            .any(|w| w[1].0 - w[0].0 < 2 * dl_sim::LinkSpec::WAN.latency_ms),
        "node 0 never proposed two epochs inside one round trip: {proposals:?}"
    );
}

/// One configuration, however the engine was built: a run on the engines
/// `Simulation::new` makes and the same run with every slot replaced by
/// `Node::new(NodeConfig::new(..))` — the way `dl-e2e` builds its
/// closed-loop and traced engines — follow the same schedule.
#[test]
fn sim_built_and_hand_built_engines_follow_one_schedule() {
    let run = |hand_built: bool| {
        let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
        if hand_built {
            let cluster = ClusterConfig::new(4);
            for i in 0..4 {
                let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
                let node = Node::new(NodeId(i as u16), cfg, RealBlockCoder::new(&cluster));
                sim.set_engine(i, Box::new(node));
            }
        }
        submit_bursts(&mut sim, 3);
        sim.run_until_quiescent(600_000)
    };
    let (a, b) = (run(false), run(true));
    assert_all_delivered_in_one_order(&a, 12, "sim-built engines");
    for i in 0..4 {
        assert_eq!(a.tx_order(i), b.tx_order(i), "node {i}");
    }
    assert_eq!(a.last_activity_ms, b.last_activity_ms);
}
