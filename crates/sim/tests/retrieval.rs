//! Targeted retrieval: the byte budget it buys, and the liveness it must
//! not cost.
//!
//! A retrieval asks its own server plus the `k − 1 + h` least-loaded peers
//! instead of all `N` (see `dl_core`'s `node::retrieval`). Two things have
//! to hold, and this file pins both:
//!
//! * **The gate** (release-only, like `window.rs`): on the N = 16 fluid
//!   tiered-uplink scenario it shares with `window.rs` (`common`), bytes
//!   on the wire per payload byte and virtual time-to-drain stay at the
//!   targeted level. Both are pure functions of the event schedule, so a
//!   miss is a scheduling regression, never runner noise.
//! * **Liveness by escalation** (cheap, runs in debug too): with the `f`
//!   peers a retrieval ranks first silent — mute, or Byzantine dispersers
//!   that never serve a chunk — every honest transaction is still
//!   delivered everywhere, the run quiesces, and it got there by
//!   escalating; with everyone honest on a uniform WAN, escalation stays a
//!   rarity.

mod common;

use dl_core::{NodeStats, ProtocolVariant};
use dl_sim::{SimConfig, SimNodeKind, SimReport, Simulation};
use dl_wire::{NodeId, Tx};

fn honest_stats(report: &SimReport) -> Vec<NodeStats> {
    report.stats.iter().flatten().copied().collect()
}

fn sum(stats: &[NodeStats], field: fn(&NodeStats) -> u64) -> u64 {
    stats.iter().map(field).sum()
}

/// Run an `n`-node fluid DL cluster whose nodes `1..=f` are `kind`, with
/// every honest node submitting `per_node` transactions.
///
/// The faulty ids are adjacent, so the rotations that start at or just
/// before id 1 rank all `f` of them first: with `h = 1` such a retrieval
/// is left `f − 1` chunks short of `k` and cannot finish without
/// escalating. Other retrievals start their rotation elsewhere, and once
/// the silent peers' debt shows in the ledger they are passed over — the
/// run mixes starved and lucky retrievals. (`dl-core`'s
/// `retrieval_survives_its_f_first_choices_crashing` crashes exactly the
/// first-ranked peers of one retrieval.)
fn run_with_silent_first_choices(n: usize, kind: SimNodeKind, per_node: u64) -> SimReport {
    let f = (n - 1) / 3;
    let mut sim = Simulation::new(SimConfig::fluid(n, ProtocolVariant::Dl));
    for node in 1..=f {
        sim.set_node_kind(node, kind);
    }
    for node in (0..n).filter(|i| !(1..=f).contains(i)) {
        for s in 0..per_node {
            let at = 40 * s + 10 * node as u64;
            sim.submit_at(node, at, Tx::synthetic(NodeId(node as u16), s, at, 2_000));
        }
    }
    sim.run_until_quiescent(600_000)
}

fn assert_live_through_escalation(n: usize, kind: SimNodeKind) {
    let f = (n - 1) / 3;
    let per_node = 2u64;
    let report = run_with_silent_first_choices(n, kind, per_node);
    assert!(report.quiesced, "N={n} {kind:?}: did not quiesce");
    let expected = (n - f) * per_node as usize;
    let honest: Vec<usize> = (0..n).filter(|i| !(1..=f).contains(i)).collect();
    let reference = report.tx_order(honest[0]);
    assert_eq!(reference.len(), expected, "N={n} {kind:?}: lost txs");
    for &i in &honest {
        assert_eq!(report.tx_order(i), reference, "N={n} {kind:?}: node {i}");
    }
    let stats = honest_stats(&report);
    assert_eq!(stats.len(), n - f, "faulty slots report no stats");
    let escalated = sum(&stats, |s| s.retrievals_escalated);
    let started = sum(&stats, |s| s.retrievals_started);
    assert!(
        escalated > 0,
        "N={n} {kind:?}: delivered without escalating"
    );
    assert!(
        escalated <= started,
        "N={n} {kind:?}: {escalated} escalations for {started} retrievals"
    );
}

#[test]
fn silent_first_choices_are_survived_by_escalation_at_n7() {
    for kind in [
        SimNodeKind::Mute,
        SimNodeKind::GarbageChunks,
        SimNodeKind::SelectiveSend,
    ] {
        assert_live_through_escalation(7, kind);
    }
}

#[test]
fn silent_first_choices_are_survived_by_escalation_at_n16() {
    for kind in [
        SimNodeKind::Mute,
        SimNodeKind::GarbageChunks,
        SimNodeKind::SelectiveSend,
    ] {
        assert_live_through_escalation(16, kind);
    }
}

/// Crashed peers must cost the first deadline, not every retrieval: decode
/// forgives the debt of the peers it cancels, so without the defaulted-
/// request ledger a dead peer looks idle again after each retrieval it
/// failed — at N = 16 with `f` peers down a quarter of all retrievals then
/// sat out a deadline, and the deadline, fed its own waits, chased itself
/// to a p95 of 8.7 s where ask-everyone takes 1.2 s (measured: 1.3 s now).
#[test]
fn dead_peers_do_not_make_every_retrieval_wait_out_a_deadline() {
    const N: usize = 16;
    const DOWN: usize = 5;
    let mut sim = Simulation::new(SimConfig::fluid(N, ProtocolVariant::Dl));
    for node in 1..=DOWN {
        sim.set_node_kind(node, SimNodeKind::Mute);
    }
    for node in (0..N).filter(|i| !(1..=DOWN).contains(i)) {
        for s in 0..20u64 {
            let at = 120 * s + 7 * node as u64;
            sim.submit_at(node, at, Tx::synthetic(NodeId(node as u16), s, at, 30_000));
        }
    }
    let report = sim.run_until_quiescent(600_000);
    assert!(report.quiesced);
    let slowest = report.delivered[0]
        .iter()
        .filter_map(|d| Some((d.delivered_ms, d.block.as_ref()?)))
        .flat_map(|(at, b)| b.body.iter().map(move |tx| at - tx.submit_ms))
        .max()
        .expect("node 0 delivered transactions");
    assert!(slowest < 3_000, "slowest confirmation took {slowest} ms");
    let stats = honest_stats(&report);
    assert!(stats
        .iter()
        .all(|s| s.txs_delivered == 20 * (N - DOWN) as u64));
    let started = sum(&stats, |s| s.retrievals_started);
    let escalated = sum(&stats, |s| s.retrievals_escalated);
    assert!(
        escalated * 5 < started,
        "{escalated} of {started} retrievals escalated with {DOWN} peers down"
    );
}

/// With every node honest on a uniform WAN the deadline is a backstop, not
/// a mechanism: under 1 % of retrievals may reach it.
#[test]
fn honest_uniform_wan_rarely_escalates() {
    const N: usize = 16;
    let mut sim = Simulation::new(SimConfig::fluid(N, ProtocolVariant::Dl));
    for node in 0..N {
        for s in 0..8u64 {
            let at = 120 * s + 7 * node as u64;
            sim.submit_at(node, at, Tx::synthetic(NodeId(node as u16), s, at, 30_000));
        }
    }
    let report = sim.run_until_quiescent(600_000);
    assert!(report.quiesced);
    let stats = honest_stats(&report);
    for (i, s) in stats.iter().enumerate() {
        assert_eq!(s.txs_delivered, 8 * N as u64, "node {i}");
    }
    let started = sum(&stats, |s| s.retrievals_started);
    let escalated = sum(&stats, |s| s.retrievals_escalated);
    assert!(
        started >= 1000,
        "workload too small to resolve 1 %: {started}"
    );
    assert!(
        escalated * 100 < started,
        "{escalated} of {started} retrievals escalated on an honest uniform WAN"
    );
    // Over-fetch is readable from the counters alone: requests ÷ retrievals
    // is k + h = 7 here (own server included) plus the rare escalation.
    let requests = sum(&stats, |s| s.chunk_requests_sent);
    assert!(requests >= 7 * started && requests < 8 * started);
}

/// The fetch-at-completion gate (release-only): `dl-e2e`'s `coded-n16`
/// load — N = 16 on a uniform WAN, Poisson arrivals of 6 × 25 kB
/// transactions a second per node for 10 s — in fluid mode. A DL node
/// fetches a block as soon as its dispersal completes here and the
/// proposer's completion prefix covers it, while its BA still runs, so
/// from the delivering epoch's last decision to its blocks in hand
/// ([`SimReport::latency_phases`]) a transaction waits 13.5 ms on the
/// mean. Fetching when a BA decided took 55.3 ms.
#[test]
fn blocks_are_in_hand_soon_after_their_epoch_decides() {
    if cfg!(debug_assertions) {
        eprintln!("skipping decided-to-in-hand gate in debug build");
        return;
    }
    const N: usize = 16;
    let mut sim = Simulation::new(SimConfig::fluid(N, ProtocolVariant::Dl));
    // xorshift64: exponential gaps with a 1000 / 6 ms mean.
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut submitted = 0;
    for node in 0..N {
        let (mut at, mut seq) = (11 * node as u64, 0);
        while at < 10_000 {
            sim.submit_at(
                node,
                at,
                Tx::synthetic(NodeId(node as u16), seq, at, 25_000),
            );
            (seq, submitted) = (seq + 1, submitted + 1);
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = ((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
            at += ((-u.ln() * 1000.0 / 6.0) as u64).max(1);
        }
    }
    let report = sim.run_until_quiescent(600_000);
    assert!(report.quiesced);
    let (txs, waited) = (0..N)
        .map(|i| report.latency_phases(i))
        .fold((0, 0), |(t, w), p| (t + p.txs, w + p.decided_to_in_hand_ms));
    assert_eq!(txs, submitted, "lost transactions");
    let mean = waited as f64 / txs as f64;
    eprintln!("fetch gate: {mean:.1} ms from decided to in hand");
    assert!(mean <= 25.0, "{mean:.1} ms from decided to in hand (≤ 25)");
}

/// The release gate, on the tiered-uplink scenario `window.rs` shares
/// (`common`): before targeted retrieval this run put ≈ 41 bytes on the
/// wire per payload byte and went idle at 7911 virtual ms. It measures
/// 19.8 bytes and 2052 ms. The bytes were 18.4 while chunks went out whole
/// (drain 2266): the faster schedule turns the same payload over in more,
/// smaller blocks (1920 retrievals for 1440) and its shorter RTO is
/// outlasted more often (78 escalations for 11), and `bytes_sent` counts
/// the 28 MB of answers a `Cancel` then purges unsent (13 MB before).
/// They were 18.6 (drain 2034) with a hashed round-1 coin: the slow
/// tier's BAs now decide 0 sooner, over more epochs.
#[test]
fn tiered_uplinks_stay_within_the_targeted_byte_and_drain_budget() {
    if cfg!(debug_assertions) {
        eprintln!("skipping retrieval byte/drain gate in debug build");
        return;
    }
    let report = common::run_tiered_uplinks();
    let stats = honest_stats(&report);
    let payload = common::TXS_PER_NODE * common::N as u64 * common::TX_BYTES as u64;
    let wire = sum(&stats, |s| s.bytes_sent) as f64 / payload as f64;
    let drain = report.last_activity_ms;
    eprintln!("retrieval gate: {wire:.1} wire bytes per payload byte, idle at {drain} ms");
    assert!(wire <= 24.0, "{wire:.1} wire bytes per payload byte (≤ 24)");
    assert!(
        drain as f64 <= 0.8 * 7911.0,
        "network idle at {drain} ms (≤ 0.8 × 7911)"
    );
}
