//! Cluster-level integration tests: run 4–7 node clusters of every
//! [`ProtocolVariant`] over the discrete-event WAN to quiescence and check
//! the BFT service properties — every honest node delivers every submitted
//! transaction, in the same total order.

use dl_core::ProtocolVariant;
use dl_sim::{LinkSpec, SimConfig, SimNodeKind, Simulation};
use dl_wire::{NodeId, Tx};

const ALL_VARIANTS: [ProtocolVariant; 4] = [
    ProtocolVariant::Dl,
    ProtocolVariant::DlCoupled,
    ProtocolVariant::HoneyBadger,
    ProtocolVariant::HoneyBadgerLink,
];

/// Submit `per_node` transactions at each node in `submitters`, staggered
/// over the first second of virtual time.
fn submit_workload(sim: &mut Simulation, submitters: &[usize], per_node: u64) {
    for &i in submitters {
        for s in 0..per_node {
            sim.submit_at(
                i,
                40 * s + 10 * i as u64,
                Tx::synthetic(NodeId(i as u16), s, 0, 300),
            );
        }
    }
}

/// Assert every node in `honest` delivered exactly `expected` transactions
/// and that all delivery orders are identical (agreement + total order).
fn assert_total_order(report: &dl_sim::SimReport, honest: &[usize], expected: usize) {
    let reference = report.tx_order(honest[0]);
    assert_eq!(
        reference.len(),
        expected,
        "node {} delivered {} of {expected} txs",
        honest[0],
        reference.len()
    );
    // No duplicates: a tx id appears exactly once in the total order.
    let mut dedup = reference.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(
        dedup.len(),
        expected,
        "duplicate deliveries at node {}",
        honest[0]
    );
    for &i in &honest[1..] {
        assert_eq!(
            report.tx_order(i),
            reference,
            "node {i} diverged from node {}",
            honest[0]
        );
    }
}

#[test]
fn four_node_cluster_reaches_total_order_under_every_variant() {
    for variant in ALL_VARIANTS {
        let mut sim = Simulation::new(SimConfig::new(4, variant));
        submit_workload(&mut sim, &[0, 1, 2, 3], 3);
        let report = sim.run_until_quiescent(600_000);
        assert!(report.quiesced, "{variant:?}: did not quiesce");
        assert_total_order(&report, &[0, 1, 2, 3], 12);
        for i in 0..4 {
            let stats = report.stats[i].unwrap();
            assert_eq!(stats.txs_delivered, 12, "{variant:?} node {i}");
        }
    }
}

#[test]
fn dl_variant_tolerates_a_mute_node() {
    let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
    sim.set_node_kind(3, SimNodeKind::Mute);
    submit_workload(&mut sim, &[0, 1, 2], 3);
    let report = sim.run_until_quiescent(600_000);
    assert!(report.quiesced, "mute node broke liveness");
    assert_total_order(&report, &[0, 1, 2], 9);
}

#[test]
fn every_variant_tolerates_a_mute_node() {
    for variant in ALL_VARIANTS {
        let mut sim = Simulation::new(SimConfig::new(4, variant));
        sim.set_node_kind(1, SimNodeKind::Mute);
        submit_workload(&mut sim, &[0, 2], 2);
        let report = sim.run_until_quiescent(600_000);
        assert!(report.quiesced, "{variant:?}: mute node broke liveness");
        assert_total_order(&report, &[0, 2, 3], 4);
    }
}

#[test]
fn dl_variant_tolerates_an_equivocating_node() {
    let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
    sim.set_node_kind(2, SimNodeKind::Equivocate);
    submit_workload(&mut sim, &[0, 1, 3], 2);
    let report = sim.run_until_quiescent(600_000);
    assert!(report.quiesced, "equivocator broke liveness");
    assert_total_order(&report, &[0, 1, 3], 6);
    // The equivocator's split dispersals must never complete, so no slot of
    // its block is ever delivered — not even as a Byzantine `None` slot.
    for &i in &[0usize, 1, 3] {
        assert_eq!(
            report.stats[i].unwrap().malformed_blocks_delivered,
            0,
            "node {i}"
        );
        assert!(
            report.delivered[i].iter().all(|d| d.proposer != NodeId(2)),
            "node {i}"
        );
    }
}

#[test]
fn dl_tolerates_every_faulty_slot_kind() {
    const HONEST: [usize; 3] = [0, 1, 3];
    for kind in [
        SimNodeKind::Mute,
        SimNodeKind::Equivocate,
        SimNodeKind::DelayRelease,
        SimNodeKind::SelectiveSend,
        SimNodeKind::GarbageChunks,
    ] {
        let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
        sim.set_node_kind(2, kind);
        submit_workload(&mut sim, &HONEST, 2);
        let report = sim.run_until_quiescent(600_000);
        assert!(report.quiesced, "{kind:?} broke liveness");
        assert!(report.stats[2].is_none(), "{kind:?} slot reported stats");
        for i in HONEST {
            let stats = report.stats[i].unwrap();
            assert_eq!(stats.malformed_blocks_delivered, 0, "{kind:?} node {i}");
        }
        if kind == SimNodeKind::DelayRelease {
            // The withheld block is valid, so it may deliver (late) beside
            // the honest transactions, but in one order everywhere.
            let order = report.tx_order(0);
            for i in HONEST {
                assert_eq!(report.tx_order(i), order, "{kind:?} node {i}");
                for s in 0..2 {
                    let id = (NodeId(i as u16), s);
                    assert!(order.contains(&id), "{kind:?} lost {id:?}");
                }
            }
            continue;
        }
        // Every other kind's dispersal can never complete, so no slot of
        // its blocks is ever delivered, not even as an empty `None` slot.
        assert_total_order(&report, &HONEST, 6);
        for i in HONEST {
            let delivered = &report.delivered[i];
            assert!(
                delivered.iter().all(|d| d.proposer != NodeId(2)),
                "{kind:?} node {i}"
            );
        }
    }
}

#[test]
fn slow_uplink_does_not_block_the_cluster() {
    // One node with a 100x slower uplink: the paper's headline scenario.
    // The cluster must still commit and deliver everything submitted at the
    // fast nodes, and the slow node must eventually catch up too.
    let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
    sim.set_uplink(
        3,
        LinkSpec {
            latency_ms: 40,
            bytes_per_ms: 12,
        },
    );
    submit_workload(&mut sim, &[0, 1, 2], 3);
    let report = sim.run_until_quiescent(3_000_000);
    assert!(report.quiesced, "slow uplink broke liveness");
    assert_total_order(&report, &[0, 1, 2, 3], 9);
}

#[test]
fn seven_node_cluster_smoke() {
    let mut sim = Simulation::new(SimConfig::new(7, ProtocolVariant::Dl));
    submit_workload(&mut sim, &[0, 3, 5], 2);
    let report = sim.run_until_quiescent(600_000);
    assert!(report.quiesced);
    assert_total_order(&report, &[0, 1, 2, 3, 4, 5, 6], 6);
}

#[test]
fn fluid_mode_reproduces_the_real_coder_run_exactly() {
    // Fluid chunks occupy byte-identical wire sizes, so a fluid run is
    // not merely "similar" to the real-coder run — the event schedule is
    // the same and every node delivers the same orders at the same
    // virtual times.
    for variant in ALL_VARIANTS {
        let mut real = Simulation::new(SimConfig::new(4, variant));
        let mut fluid = Simulation::new(SimConfig::fluid(4, variant));
        submit_workload(&mut real, &[0, 1, 2, 3], 3);
        submit_workload(&mut fluid, &[0, 1, 2, 3], 3);
        let report_real = real.run_until_quiescent(600_000);
        let report_fluid = fluid.run_until_quiescent(600_000);
        assert!(report_fluid.quiesced, "{variant:?}: fluid did not quiesce");
        assert_eq!(
            report_fluid.now_ms, report_real.now_ms,
            "{variant:?}: fluid virtual time diverged"
        );
        for i in 0..4 {
            assert_eq!(
                report_fluid.tx_order(i),
                report_real.tx_order(i),
                "{variant:?}: node {i} order diverged"
            );
            assert_eq!(
                report_fluid.stats[i].unwrap().bytes_sent,
                report_real.stats[i].unwrap().bytes_sent,
                "{variant:?}: node {i} wire bytes diverged"
            );
        }
    }
}

#[test]
fn fluid_mode_tolerates_faulty_members() {
    // The fault machinery runs unchanged on the fluid coder: a mute node
    // and an equivocator in a 7-node fluid cluster.
    let mut sim = Simulation::new(SimConfig::fluid(7, ProtocolVariant::Dl));
    sim.set_node_kind(2, SimNodeKind::Mute);
    sim.set_node_kind(5, SimNodeKind::Equivocate);
    submit_workload(&mut sim, &[0, 1, 3], 2);
    let report = sim.run_until_quiescent(600_000);
    assert!(report.quiesced, "fluid cluster with faults did not quiesce");
    assert_total_order(&report, &[0, 1, 3, 4, 6], 6);
}

#[test]
fn fluid_mode_runs_paper_scale_blocks() {
    // The point of fluid mode: megabyte-class declared payloads through
    // a simulated WAN without materializing chunk bytes. 4 nodes, four
    // 256 KB transactions → ~1 MB of dispersed payload per epoch wave.
    let mut sim = Simulation::new(SimConfig::fluid(4, ProtocolVariant::Dl));
    for i in 0..4usize {
        sim.submit_at(i, 0, Tx::synthetic(NodeId(i as u16), 0, 0, 256 * 1000));
    }
    let report = sim.run_until_quiescent(60_000_000);
    assert!(report.quiesced, "paper-scale fluid run did not quiesce");
    assert_total_order(&report, &[0, 1, 2, 3], 4);
}

/// Regression anchor for the link-rescue liveness edge (found while
/// verifying PR 4, fixed in PR 6): an uplink so slow (≲ 6 bytes/ms at
/// default Nagle settings) that the straggler's dispersal misses its
/// epoch's BA commit *every* epoch used to make the link-rescue proposal
/// pressure self-sustaining — each rescue epoch proposed a fresh empty
/// block that also missed, so empty epochs continued forever and the
/// cluster never quiesced, even though every real transaction delivered.
/// The fix restricts rescue pressure to a node's *own non-empty*
/// undelivered proposals: an empty block carries nothing worth forcing an
/// extra epoch for, and a peer's non-empty stuck block is that proposer's
/// pressure to apply. The two-straggler case that needs every honest
/// dispersal for the `N−f` quorum is untouched — it rides on activity
/// pressure (peers' traffic keeps epochs alive), not on rescue pressure
/// (see `slow_uplink_does_not_block_the_cluster` above).
#[test]
fn link_rescue_liveness_edge_at_extreme_uplink_asymmetry() {
    let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
    // Slow enough that even an empty block's dispersal misses its epoch.
    sim.set_uplink(
        3,
        LinkSpec {
            latency_ms: 40,
            bytes_per_ms: 2,
        },
    );
    submit_workload(&mut sim, &[0, 1, 2], 3);
    let report = sim.run_until_quiescent(3_000_000);
    // All real transactions deliver at the fast nodes…
    for &i in &[0usize, 1, 2] {
        assert_eq!(
            report.tx_order(i).len(),
            9,
            "node {i} lost transactions (that would be a NEW bug)"
        );
    }
    // …and the cluster quiesces: rescue pressure dies out once nothing
    // non-empty of the node's own is stuck, so no self-sustaining empty
    // epochs.
    assert!(
        report.quiesced,
        "liveness edge regressed: empty rescue epochs kept the cluster alive forever"
    );
}

/// The simulator mirror of the restart-recovery acceptance scenario: a
/// store-backed node crashes after a quiesced prefix, the survivors commit
/// more epochs without it, and the revived node replays its write-ahead log
/// and closes the gap through retrieval-driven catch-up — ending with the
/// identical total order, no duplicate and no lost delivery.
#[test]
fn crashed_node_replays_its_log_and_rejoins_the_total_order() {
    let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
    for i in 0..4 {
        sim.enable_store(i);
    }
    submit_workload(&mut sim, &[0, 1, 2, 3], 2);
    let before = sim.run_until_quiescent(600_000);
    assert!(before.quiesced, "pre-crash run did not quiesce");
    assert_total_order(&before, &[0, 1, 2, 3], 8);

    sim.crash(3);
    let downed_at = sim.now_ms();
    for s in 0..2u64 {
        for &i in &[0usize, 1, 2] {
            sim.submit_at(
                i,
                downed_at + 40 * s + 10 * i as u64,
                Tx::synthetic(NodeId(i as u16), 100 + s, 0, 300),
            );
        }
    }
    let during = sim.run_until_quiescent(downed_at + 600_000);
    assert!(during.quiesced, "survivors did not quiesce");
    assert_total_order(&during, &[0, 1, 2], 14);
    assert_eq!(
        during.tx_order(3).len(),
        8,
        "the crashed slot must not deliver"
    );

    sim.revive(3);
    let revived_at = sim.now_ms();
    let report = sim.run_until_quiescent(revived_at + 600_000);
    assert!(report.quiesced, "catch-up never finished");
    // The revived node's delivery log continues exactly where the durable
    // horizon left it: same 14-tx total order as the survivors, nothing
    // re-delivered, nothing skipped.
    assert_total_order(&report, &[0, 1, 2, 3], 14);
    // Catch-up went through the retrieval path, not some side channel: the
    // fresh engine (stats reset at revive) fetched the missed blocks.
    assert!(
        report.stats[3].unwrap().retrievals_started > 0,
        "revived node delivered without retrieving"
    );
}

/// Satellite guard: a `Cancel` for a retrieval must purge the matching
/// `ReturnChunk`s still queued on the responder's uplink. One slow uplink
/// keeps its dispersal backlog draining for seconds, so the `ReturnChunk`
/// (retrieval class drains strictly after dispersal) is still queued when
/// the canceller — who decoded from the fast peers long ago — says stop.
#[test]
fn cancelled_retrievals_reclaim_queued_bytes() {
    let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
    sim.set_link(
        3,
        0,
        LinkSpec {
            latency_ms: 20,
            bytes_per_ms: 10,
        },
    );
    for s in 0..3u64 {
        sim.submit_at(3, 40 * s, Tx::synthetic(NodeId(3), s, 0, 20_000));
        sim.submit_at(1, 40 * s + 10, Tx::synthetic(NodeId(1), s, 0, 20_000));
    }
    let report = sim.run_until_quiescent(60_000_000);
    assert!(report.quiesced, "slow-uplink cancel run did not quiesce");
    assert!(
        report.purged_envelopes > 0,
        "no queued ReturnChunk was purged by a Cancel"
    );
    // The reclaimed bytes are chunk-sized, not header-sized: the purge
    // saved real transmission time on the starved link.
    assert!(
        report.purged_bytes >= 5_000,
        "purged only {} bytes",
        report.purged_bytes
    );
}

/// Satellite guard for the post-`Term` BA quiet rule: an instance that has
/// locally terminated must not initiate fresh `BVal` broadcasts when later
/// rounds open. Regressing that re-inflates every decided instance's
/// message count, which this message budget would catch — the bound has
/// headroom for schedule jitter but not for an extra broadcast wave per
/// instance.
#[test]
fn ba_message_budget_stays_flat_after_termination() {
    let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
    submit_workload(&mut sim, &[0, 1, 2, 3], 2);
    let report = sim.run_until_quiescent(600_000);
    assert!(report.quiesced);
    let total: u64 = (0..4).map(|i| report.stats[i].unwrap().msgs_sent).sum();
    // Deterministic schedule: the run currently sends 264 messages (a
    // batched envelope counts once per instance it names). One regressed
    // wave (4 nodes x 4 instances x 3 peers per extra round) adds ~100, so
    // 290 is ~10% headroom for benign drift and a hard fail for the
    // regression.
    assert!(
        total <= 290,
        "cluster sent {total} messages for an 8-tx run — BA quiet rule regressed?"
    );
}

#[test]
fn report_exposes_proposal_and_epoch_events() {
    let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
    sim.submit_at(0, 0, Tx::synthetic(NodeId(0), 0, 0, 128));
    let report = sim.run_until_quiescent(600_000);
    assert!(report.quiesced);
    use dl_core::StatEvent;
    assert!(report
        .events
        .iter()
        .any(|(_, who, e)| *who == NodeId(0)
            && matches!(e, StatEvent::Proposed { empty: false, .. })));
    assert!(report
        .events
        .iter()
        .any(|(_, _, e)| matches!(e, StatEvent::EpochDelivered { .. })));
}

#[test]
fn latency_phases_account_for_every_millisecond_of_a_nodes_own_transactions() {
    // A slow uplink at node 3 makes retrieval visible; staggered
    // submissions make the queueing phase visible.
    let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
    sim.set_uplink(
        3,
        LinkSpec {
            latency_ms: 20,
            bytes_per_ms: 50,
        },
    );
    for i in 0..4usize {
        for s in 0..6u64 {
            let at = 40 * s + 10 * i as u64;
            sim.submit_at(i, at, Tx::synthetic(NodeId(i as u16), s, at, 3_000));
        }
    }
    let report = sim.run_until_quiescent(600_000);
    assert!(report.quiesced);
    for node in 0..4 {
        let phases = report.latency_phases(node);
        // Only the node's own transactions, each once, and the four phases
        // sum to submit → deliver exactly.
        let own: Vec<u64> = report.delivered[node]
            .iter()
            .filter(|d| d.proposer.idx() == node)
            .flat_map(|d| {
                d.block
                    .iter()
                    .flat_map(|b| &b.body)
                    .map(|tx| d.delivered_ms - tx.submit_ms)
            })
            .collect();
        assert_eq!(phases.txs, 6, "node {node}");
        assert_eq!(phases.txs as usize, own.len());
        let total = phases.submit_to_proposed_ms
            + phases.proposed_to_decided_ms
            + phases.decided_to_in_hand_ms
            + phases.in_hand_to_delivered_ms;
        assert_eq!(total, own.iter().sum::<u64>(), "node {node}");
        // Nagle holds a 3 kB transaction back; agreement takes round trips.
        assert!(phases.submit_to_proposed_ms > 0);
        assert!(phases.proposed_to_decided_ms >= phases.txs * 4 * 20);
    }
}

#[test]
fn idle_peers_do_not_vote_out_the_one_loaded_nodes_block() {
    // One node has everything to say, the others nothing. Under
    // retrieve-then-vote the idle nodes' empty blocks finish first; if
    // they are proposed on the epoch's first message, `N − f` of them
    // commit while the loaded block is still being downloaded, ACS votes
    // it out, and plain HoneyBadger re-queues and re-proposes it for ever.
    for variant in ALL_VARIANTS {
        let mut sim = Simulation::new(SimConfig::fluid(4, variant));
        for s in 0..5u64 {
            sim.submit_at(0, s, Tx::synthetic(NodeId(0), s, s, 160_000));
        }
        let report = sim.run_until_quiescent(60_000);
        assert!(report.quiesced, "{variant:?}: the loaded node is starved");
        assert_total_order(&report, &[0, 1, 2, 3], 5);
        assert_eq!(report.stats[0].unwrap().txs_requeued, 0, "{variant:?}");
    }
}

/// The agreement-tail gate (release-only): `dl-e2e`'s `crash-revive-n7`
/// load — Poisson arrivals of 10 × 10 kB transactions a second at nodes
/// 0–5 for 10 s — on a fluid N = 7 cluster whose node 6 is mute. Node 6's
/// BA in every epoch gets 0 from the ACS zero-fill at every correct node,
/// and the epoch waits for it. Round 1's coin is 0, so that BA decides in
/// round 1, and the other BAs send `Aux(1)` the moment their dispersal
/// completes, a `Ready` being round 0's `BVal(1)`: proposed → decided
/// ([`SimReport::latency_phases`]) is 178.7 ms on the mean, and submit →
/// proposed 81.4 ms. Before the Nagle clock counted from the last proposal
/// (`dl_core`'s `node/dispersal.rs`) they were 180.8 and 136.7 ms. With a
/// fresh round-0 `BVal(1)` wave proposed → decided was 201.6 ms, and with
/// a hashed round-1 coin, which waited a geometric number of rounds,
/// 244.6 ms.
///
/// [`SimReport::latency_phases`]: dl_sim::SimReport::latency_phases
#[test]
fn a_mute_proposers_ba_does_not_hold_up_its_epoch() {
    if cfg!(debug_assertions) {
        eprintln!("skipping agreement-tail gate in debug build");
        return;
    }
    const N: usize = 7;
    let mut sim = Simulation::new(SimConfig::fluid(N, ProtocolVariant::Dl));
    sim.set_node_kind(N - 1, SimNodeKind::Mute);
    // xorshift64: exponential gaps with a 100 ms mean.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut submitted = 0;
    for node in 0..N - 1 {
        let (mut at, mut seq) = (11 * node as u64, 0);
        while at < 10_000 {
            sim.submit_at(
                node,
                at,
                Tx::synthetic(NodeId(node as u16), seq, at, 10_000),
            );
            (seq, submitted) = (seq + 1, submitted + 1);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            at += ((-u.ln() * 100.0) as u64).max(1);
        }
    }
    let report = sim.run_until_quiescent(600_000);
    assert!(report.quiesced);
    let (txs, proposed, decided) =
        (0..N - 1)
            .map(|i| report.latency_phases(i))
            .fold((0, 0, 0), |(t, p, d), ph| {
                (
                    t + ph.txs,
                    p + ph.submit_to_proposed_ms,
                    d + ph.proposed_to_decided_ms,
                )
            });
    assert_eq!(txs, submitted, "lost transactions");
    let (proposed, decided) = (proposed as f64 / txs as f64, decided as f64 / txs as f64);
    eprintln!("agreement-tail gate: {proposed:.1} ms submit → proposed, {decided:.1} ms proposed → decided");
    assert!(
        decided <= 195.0,
        "{decided:.1} ms from proposed to decided (≤ 195)"
    );
}

#[test]
fn a_lying_retrieval_server_costs_fall_backs_not_blocks() {
    // Real coder, N = 4: node 2 answers every chunk request with wrong
    // bytes of the right length. An optimistic retrieval that draws its
    // chunk fails the re-encoding check and asks everyone again with
    // proofs, where the lie is caught; every honest block still delivers,
    // and none as a malformed slot.
    const HONEST: [usize; 3] = [0, 1, 3];
    let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::Dl));
    sim.set_node_kind(2, SimNodeKind::GarbageChunks);
    submit_workload(&mut sim, &HONEST, 8);
    let report = sim.run_until_quiescent(600_000);
    assert!(report.quiesced);
    assert_total_order(&report, &HONEST, 24);
    let mut escalated = 0;
    for i in HONEST {
        let stats = report.stats[i].unwrap();
        assert_eq!(stats.malformed_blocks_delivered, 0, "node {i}");
        escalated += stats.retrievals_escalated;
    }
    assert!(escalated > 0, "the lying server was never drawn");
}

/// The control-byte gate (release-only): `dl-e2e`'s `control-n32` shape —
/// a fluid N = 32 DL cluster on [`LinkSpec::WAN`], 250-byte transactions
/// at 12 a second per node — for 2 virtual s. Nearly every message is a
/// vote, a `GotChunk`/`Ready` or a small chunk, so wire bytes per instance
/// message (Σ `bytes_sent` ÷ Σ `msgs_sent`, which counts each instance a
/// batched envelope names once) is what the envelope codec costs per
/// control message. It measures 7.980 over 1,517,760 messages, since an
/// instant's `GotChunk`s name one digest and a proposer's chunk is its
/// `GotChunk` (14.663 over 1,527,680 before); the gate is that plus 2 %
/// (CHANGES.md has the earlier codecs' figures).
#[test]
fn control_envelopes_cost_what_the_compact_codec_says() {
    if cfg!(debug_assertions) {
        eprintln!("skipping control-byte gate in debug build");
        return;
    }
    const N: usize = 32;
    let mut sim = Simulation::new(SimConfig::fluid(N, ProtocolVariant::Dl));
    for node in 0..N {
        for seq in 0..24u64 {
            let at = seq * 1000 / 12 + 2 * node as u64;
            sim.submit_at(node, at, Tx::synthetic(NodeId(node as u16), seq, at, 250));
        }
    }
    let report = sim.run_until_quiescent(2_000);
    let stats: Vec<_> = report.stats.iter().map(|s| s.expect("honest")).collect();
    let bytes: u64 = stats.iter().map(|s| s.bytes_sent).sum();
    let msgs: u64 = stats.iter().map(|s| s.msgs_sent).sum();
    let per_msg = bytes as f64 / msgs as f64;
    eprintln!("control-byte gate: {per_msg:.3} wire bytes per message ({msgs} messages)");
    assert!(
        per_msg <= 8.14,
        "{per_msg:.3} wire bytes per message (≤ 8.14)"
    );
}
