//! Seeded chaos scenarios: the fault fabric, the adversary suite and the
//! safety auditor, end to end. Every scenario here is a pure function of
//! its seed — a failure message names the seed, and re-running that seed
//! reproduces the run message for message.

use std::collections::HashSet;

use dl_core::StatEvent;
use dl_sim::{
    run_scenario, scenario_from_seed, Auditor, ChaosPlan, ChaosScenario, Partition, SimConfig,
    SimNodeKind, Simulation,
};
use dl_wire::NodeId;

/// The acceptance batch: 32 consecutive seeds cover all four variants and
/// all six adversary slots (None + the five Byzantine behaviours), over
/// drops, duplicates, reordering, jitter, partitions and crash storms, at
/// N ∈ {4, 7}. Safety must hold on every seed; scenarios that cannot lose
/// messages must additionally deliver every submitted transaction to every
/// honest node.
#[test]
fn chaos_batch_holds_safety_across_32_seeds() {
    let mut lossless_seen = 0u32;
    let mut adversaries_seen: HashSet<String> = HashSet::new();
    let mut loads_seen: HashSet<u32> = HashSet::new();
    let mut pipelined_seen = 0u32;
    for seed in 0..32u64 {
        let sc = scenario_from_seed(seed);
        adversaries_seen.insert(format!("{:?}", sc.adversary));
        loads_seen.insert(sc.tx_bytes);
        let out = run_scenario(&sc);
        assert!(
            out.report.quiesced,
            "seed {seed}: cluster failed to quiesce by {} ms",
            sc.max_ms
        );
        // Bursts arrive 40 ms apart and an epoch takes several 20 ms hops:
        // node 0 proposing two loaded blocks within 50 ms opened the second
        // epoch through the dispersal window.
        let loaded: Vec<u64> = out
            .report
            .events
            .iter()
            .filter_map(|(at, who, ev)| match ev {
                StatEvent::Proposed { empty: false, .. } if who.0 == 0 => Some(*at),
                _ => None,
            })
            .collect();
        pipelined_seen += u32::from(loaded.windows(2).any(|w| w[1] - w[0] < 50));
        assert!(
            out.violations.is_empty(),
            "seed {seed}: safety violated:\n{}",
            out.violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        if out.expected_txs.is_some() {
            lossless_seen += 1;
            for i in 0..sc.n {
                if sc.adversary.is_some() && i == sc.n - 1 {
                    continue;
                }
                let ids: HashSet<(NodeId, u64)> = out.report.delivered[i]
                    .iter()
                    .filter_map(|d| d.block.as_ref())
                    .flat_map(|b| b.body.iter().map(dl_wire::Tx::id))
                    .collect();
                for j in 0..sc.n {
                    if sc.adversary.is_some() && j == sc.n - 1 {
                        continue;
                    }
                    for k in 0..sc.txs_per_node {
                        assert!(
                            ids.contains(&(NodeId(j as u16), k)),
                            "seed {seed}: node {i} never delivered tx ({j}, {k})"
                        );
                    }
                }
            }
        }
    }
    assert!(
        lossless_seen > 0,
        "no lossless scenario in the batch: full-delivery path untested"
    );
    assert_eq!(
        adversaries_seen.len(),
        6,
        "32 seeds missed an adversary: {adversaries_seen:?}"
    );
    assert_eq!(
        loads_seen.len(),
        2,
        "32 seeds drew only one side of the dispersal window's trigger: {loads_seen:?}"
    );
    assert!(pipelined_seen > 0, "no seed opened a window epoch");
}

/// Seeds that spun instead of quiescing while a retrieval's escalation asked
/// only peers it had never asked: DL-Coupled clusters under loss, where a
/// dropped targeted `RequestChunk` (or its answer) left a node's delivery
/// waiting on a retrieval for good, and the lagging rule plus that node's
/// link-rescue pressure kept proposing empty epochs. 7809 spun with a fresh
/// round-0 `BVal(1)` wave per vote; 4597 and 11261 once a `Ready` counted
/// as that vote; 1825, 5725, 13601, 13705 and 13821 once the fetch also
/// left with our `Ready` (8097 too, in another build of that change).
/// Re-asking the silent targets quiesces all of them. 825 and 12221 spun
/// the same way when a partition swallowed every answer to a node's
/// escalation (825 once broadcasts were batched); the re-asks after
/// escalation quiesce them. CI's `dl-chaos` step runs them too.
const PINNED_SEEDS: [u64; 11] = [
    825, 1825, 4597, 5725, 7809, 8097, 11261, 12221, 13601, 13705, 13821,
];

#[test]
fn pinned_retrieval_stall_seeds_quiesce_and_audit_clean() {
    for seed in PINNED_SEEDS {
        let out = run_scenario(&scenario_from_seed(seed));
        assert!(out.report.quiesced, "seed {seed}: did not quiesce");
        assert!(
            out.violations.is_empty(),
            "seed {seed}: {:?}",
            out.violations
        );
    }
}

/// An injected violation must report its reproducing seed, and the report
/// must be deterministic: two fresh auditors over the same doctored run
/// produce byte-identical findings.
#[test]
fn violations_replay_deterministically_with_their_seed() {
    let sc = ChaosScenario {
        seed: 42,
        n: 4,
        variant: dl_core::ProtocolVariant::Dl,
        adversary: None,
        plan: ChaosPlan::quiet(42),
        actions: Vec::new(),
        txs_per_node: 2,
        tx_bytes: 120,
        max_ms: 600_000,
    };
    let out = run_scenario(&sc);
    assert!(out.violations.is_empty(), "clean run must audit clean");
    assert!(!out.report.delivered[0].is_empty());
    // Doctor node 0's log: misattribute its first delivery to a different
    // proposer — breaking prefix consistency and header validity at once.
    let mut doctored = out.report.clone();
    let honest_proposer = doctored.delivered[0][0].proposer;
    std::sync::Arc::make_mut(&mut doctored.delivered[0][0]).proposer =
        NodeId((honest_proposer.0 + 1) % 4);
    let findings: Vec<Vec<String>> = (0..2)
        .map(|_| {
            let mut auditor = Auditor::new(42, vec![true; 4]);
            auditor.audit(&doctored);
            auditor
                .into_violations()
                .iter()
                .map(ToString::to_string)
                .collect()
        })
        .collect();
    assert!(!findings[0].is_empty(), "doctored log audited clean");
    assert_eq!(findings[0], findings[1], "audit is not deterministic");
    for v in &findings[0] {
        assert!(v.contains("[seed 42]"), "finding lost its seed: {v}");
    }
}

/// A severed link is an outage, not loss: traffic pent up behind a
/// symmetric partition must all arrive after the heal, and the cluster —
/// lossless by construction — delivers everything.
#[test]
fn partition_heals_and_the_cluster_recovers() {
    let mut plan = ChaosPlan::quiet(7);
    plan.partitions.push(Partition {
        start_ms: 500,
        heal_ms: 1500,
        group: vec![0],
        symmetric: true,
    });
    let sc = ChaosScenario {
        seed: 7,
        n: 4,
        variant: dl_core::ProtocolVariant::Dl,
        adversary: None,
        plan,
        actions: Vec::new(),
        txs_per_node: 2,
        tx_bytes: 120,
        max_ms: 600_000,
    };
    assert!(sc.lossless());
    let out = run_scenario(&sc);
    assert!(out.report.quiesced);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    let total = out.expected_txs.expect("lossless scenario");
    for i in 0..4 {
        let stats = out.report.stats[i].as_ref().expect("honest stats");
        assert_eq!(stats.txs_delivered, total, "node {i} lost transactions");
    }
    assert_eq!(out.dropped, 0, "partition turned into loss");
}

/// Heavy loss may stall liveness (un-retransmitted BA votes) but must
/// never corrupt safety: the cluster quiesces with consistent logs.
#[test]
fn heavy_loss_never_breaks_safety() {
    let mut plan = ChaosPlan::quiet(3);
    plan.horizon_ms = 3_000;
    plan.drop = 0.15;
    let sc = ChaosScenario {
        seed: 3,
        n: 7,
        variant: dl_core::ProtocolVariant::HoneyBadgerLink,
        adversary: Some(SimNodeKind::Equivocate),
        plan,
        actions: Vec::new(),
        txs_per_node: 2,
        tx_bytes: 120,
        max_ms: 600_000,
    };
    let out = run_scenario(&sc);
    assert!(out.report.quiesced, "loss must stall quietly, not spin");
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert!(out.dropped > 0, "drop probability 0.15 dropped nothing");
}

/// The same seed drives the same fault schedule: two runs of one scenario
/// produce identical delivery logs, event counts and fault counters.
#[test]
fn chaos_runs_are_deterministic_per_seed() {
    let sc = scenario_from_seed(5);
    let a = run_scenario(&sc);
    let b = run_scenario(&sc);
    assert_eq!(a.dropped, b.dropped);
    assert_eq!(a.duplicated, b.duplicated);
    assert_eq!(a.report.now_ms, b.report.now_ms);
    assert_eq!(a.report.events_processed, b.report.events_processed);
    for i in 0..sc.n {
        let (da, db) = (&a.report.delivered[i], &b.report.delivered[i]);
        assert_eq!(da.len(), db.len(), "node {i} diverged across replays");
        for (x, y) in da.iter().zip(db) {
            assert_eq!(
                (x.epoch, x.proposer, &x.block),
                (y.epoch, y.proposer, &y.block)
            );
        }
    }
}

/// Chaos is off by default: a `Simulation` without `set_chaos` behaves as
/// the identity fabric (regression guard for the pump_link rewrite).
#[test]
fn chaos_free_simulation_reports_zero_fault_counters() {
    let mut sim = Simulation::new(SimConfig::new(4, dl_core::ProtocolVariant::Dl));
    sim.submit_at(0, 10, dl_wire::Tx::synthetic(NodeId(0), 0, 10, 120));
    let report = sim.run_until_quiescent(60_000);
    assert!(report.quiesced);
    assert_eq!(sim.chaos_counters(), (0, 0));
    for i in 0..4 {
        assert_eq!(
            report.stats[i].as_ref().unwrap().txs_delivered,
            1,
            "node {i}"
        );
    }
}

/// Loss-only seeds in 0..2000 (drops on, no crash storm) that leave an
/// honest node short of the cluster's transactions:
/// `[without an adversary, with one]`. A dropped BA vote or `Ready` is
/// never sent again, so such a seed quiesces stalled. A dropped `GotChunk`
/// is re-sent when its sender's `ReadyAsGot` finds it missing and asks
/// with `RootsWanted`, but a lost ask or answer is not. These counts may
/// only go down: a change that stalls fewer seeds lowers them, and nothing
/// may raise them.
const SHORT_LOSS_ONLY_SEEDS: [usize; 2] = [0, 251];

#[test]
fn loss_only_short_seeds_do_not_exceed_the_recorded_counts() {
    if cfg!(debug_assertions) {
        // 657 scenarios: the chaos CI leg runs this in release.
        eprintln!("skipping the loss-only liveness count in debug build");
        return;
    }
    // Indexed like `SHORT_LOSS_ONLY_SEEDS`.
    let mut short: [Vec<u64>; 2] = Default::default();
    let mut runs = [0usize; 2];
    for seed in 0..2000u64 {
        let sc = scenario_from_seed(seed);
        if sc.plan.drop == 0.0 || !sc.actions.is_empty() {
            continue;
        }
        let side = usize::from(sc.adversary.is_some());
        runs[side] += 1;
        let out = run_scenario(&sc);
        // The adversary, if any, holds the last slot.
        let honest = sc.n - side;
        let total = sc.txs_per_node * honest as u64;
        if (0..honest).any(|i| out.report.stats[i].as_ref().map_or(0, |s| s.txs_delivered) < total)
        {
            short[side].push(seed);
        }
    }
    for (side, what) in ["without an adversary", "with one"].iter().enumerate() {
        let seeds = &short[side];
        println!("short {what}: {} of {}: {seeds:?}", seeds.len(), runs[side]);
    }
    let [max_without, max_with] = SHORT_LOSS_ONLY_SEEDS;
    assert!(
        short[0].len() <= max_without && short[1].len() <= max_with,
        "loss-only seeds left an honest node short: {} without an adversary (at most \
         {max_without}), {} with one (at most {max_with}); seeds without: {:?}",
        short[0].len(),
        short[1].len(),
        short[0]
    );
}
