//! Pipelined-dissemination regression: on a variable-bandwidth cluster,
//! the epoch dispersal window must actually buy throughput.
//!
//! The scenario is the paper's heterogeneous-uplink setting at N = 16 in
//! fluid mode: a quarter of the nodes have fast uplinks, the rest step
//! down to a ~6× slower tier, so dispersal time per epoch is comparable
//! to the BA latency it can hide behind. With `k = 1` every node idles
//! its uplink while agreement for the epoch it just dispersed runs; with
//! `k = 4` dispersal of the next epochs overlaps that wait. The metric is
//! **virtual time-to-drain** of one fixed payload (`last_activity_ms`:
//! when the network went idle, every node having delivered all 64
//! transactions). Epoch counts are not
//! throughput — a wider window splits the same payload over more, emptier
//! epochs — and drain time is a pure function of the event schedule:
//! deterministic across machines, immune to box noise, so the 1.25× floor
//! below is a hard regression gate, not a statistical hope.

use dl_core::ProtocolVariant;
use dl_sim::{LinkSpec, SimConfig, Simulation};
use dl_wire::{NodeId, Tx};

const N: usize = 16;
const TXS_PER_NODE: u64 = 4;
/// Above the Nagle size threshold: every transaction proposes a block the
/// moment the window admits it, so the workload sustains epoch pressure.
const TX_BYTES: u32 = 160_000;

/// The variable-bandwidth grid: uplink tiers cycle fast → slow across the
/// cluster (the paper's "network resources vary over time and across
/// nodes" setting, frozen into a spatial gradient).
fn vary_uplinks(sim: &mut Simulation) {
    const TIERS: [u64; 4] = [1250, 800, 400, 200];
    for node in 0..N {
        sim.set_uplink(
            node,
            LinkSpec {
                latency_ms: 20,
                bytes_per_ms: TIERS[node % 4],
            },
        );
    }
}

/// Run the workload at window `k` and return the virtual ms it took to
/// deliver every transaction everywhere.
fn drain_ms(k: u64) -> u64 {
    let mut sim = Simulation::new(SimConfig::fluid(N, ProtocolVariant::Dl).with_window(k));
    vary_uplinks(&mut sim);
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
    assert!(report.quiesced, "window {k}: run did not quiesce");
    for (i, stats) in report.stats.iter().enumerate() {
        assert_eq!(
            stats.expect("honest node has stats").txs_delivered,
            TXS_PER_NODE * N as u64,
            "window {k}: transaction loss at node {i}"
        );
    }
    report.last_activity_ms
}

/// DL-Coupled under a pipelined window must still drain its queue. The
/// `empty_when_lagging` rule originally tested the *proposed* epoch
/// against the delivery frontier; with k > 1 the window runs ahead of
/// the gate by design, so over real WAN latency every window epoch
/// counted as "lagging", proposed empty, never drained the queue — and
/// the queue's proposal pressure spun empty epochs forever (livelock,
/// caught by driving the public API; the direct-mesh tests deliver
/// instantly and never lag). The rule is now anchored to the gate.
/// Cheap enough to run in debug builds too.
#[test]
fn dl_coupled_window_drains_its_queue_over_wan_links() {
    for k in [2u64, 4] {
        let mut sim = Simulation::new(SimConfig::new(4, ProtocolVariant::DlCoupled).with_window(k));
        for round in 0..3u64 {
            for node in 0..4 {
                let at = round * 150 + node as u64 * 5;
                sim.submit_at(node, at, Tx::synthetic(NodeId(node as u16), round, at, 400));
            }
        }
        let report = sim.run_until_quiescent(600_000);
        assert!(report.quiesced, "DlCoupled k={k} spun forever");
        let order0 = report.tx_order(0);
        assert_eq!(order0.len(), 12, "DlCoupled k={k} stranded transactions");
        for i in 1..4 {
            assert_eq!(report.tx_order(i), order0, "node {i} order diverged");
        }
    }
}

/// The acceptance gate for pipelined dissemination: `k = 4` must drain
/// the fixed payload at least 1.25× faster than `k = 1` on the
/// variable-bandwidth fluid cluster (measured: 4679 vs 3310 virtual ms,
/// 1.41×; 7911 vs 4261 before retrievals stopped asking every peer — the
/// over-fetch cost the gated schedule more than the pipelined one).
#[test]
fn window_of_four_beats_gated_dispersal_by_25_percent() {
    if cfg!(debug_assertions) {
        // The N = 16 fluid runs are wall-expensive unoptimized; the CI
        // release leg runs this for real.
        eprintln!("skipping window drain-time gate in debug build");
        return;
    }
    let ms_1 = drain_ms(1);
    let ms_4 = drain_ms(4);
    let speedup = ms_1 as f64 / ms_4 as f64;
    eprintln!("window sweep: k=1 drained in {ms_1} ms, k=4 in {ms_4} ms ({speedup:.2}x)");
    assert!(
        ms_1 as f64 >= ms_4 as f64 * 1.25,
        "pipelining regressed: k=1 drained in {ms_1} ms vs k=4 in {ms_4} ms \
         ({speedup:.2}x, need >= 1.25x)"
    );
}

/// Every pipelined window beats the gated schedule in virtual time on
/// this workload. (The sweep is deliberately *not* asserted monotone in
/// `k`: past the point where dispersal fully hides behind agreement, a
/// wider window just queues more concurrent epochs onto the same uplink
/// and can finish *later* — measured here, k = 8 trails k = 4 — which is
/// exactly the contention the in-flight byte cap exists to bound.)
#[test]
fn every_pipelined_window_beats_gated_dispersal() {
    if cfg!(debug_assertions) {
        eprintln!("skipping window sweep in debug build");
        return;
    }
    let baseline_ms = drain_ms(1);
    for k in [2u64, 4, 8] {
        let ms = drain_ms(k);
        assert!(
            ms < baseline_ms,
            "window {k} finished the workload no earlier than the gated schedule: \
             {ms} ms vs {baseline_ms} ms"
        );
    }
}
