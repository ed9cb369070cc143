//! Scaling regression: per-event wall cost must stay roughly flat in
//! cluster size.
//!
//! The N³ message volume of an epoch is protocol-inherent; what the event
//! loop owes us is that each message costs the same to *simulate* at
//! N = 64 as at N = 16. This pins the superlinearity class of bugs fixed
//! in PR 6 (linear per-epoch scans in the node, deep per-link binary
//! heaps, per-message heap events) using the `SimReport::events_processed`
//! counter.

use std::time::Instant;

use dl_core::ProtocolVariant;
use dl_sim::{SimConfig, Simulation};
use dl_wire::{NodeId, Tx};

/// Run a fixed fluid workload (8 staggered 50 KB transactions)
/// at cluster size `n` and return wall nanoseconds per processed event.
fn ns_per_event(n: usize) -> f64 {
    let mut sim = Simulation::new(SimConfig::fluid(n, ProtocolVariant::Dl));
    for i in 0..8usize {
        let node = i % n;
        sim.submit_at(
            node,
            (i as u64) * 150,
            Tx::synthetic(NodeId(node as u16), i as u64, (i as u64) * 150, 50_000),
        );
    }
    let start = Instant::now();
    let report = sim.run_until_quiescent(600_000_000);
    let wall = start.elapsed();
    assert!(report.quiesced, "N={n} fluid run did not quiesce");
    assert!(report.events_processed > 0, "N={n} processed no events");
    wall.as_nanos() as f64 / report.events_processed as f64
}

#[test]
fn per_event_cost_flat_within_2x_from_n16_to_n64() {
    if cfg!(debug_assertions) {
        // Wall-clock bounds are only meaningful on optimized builds; the
        // CI release leg runs this for real.
        eprintln!("skipping wall-clock scaling bound in debug build");
        return;
    }
    // Interleaved, best of three each: a neighbour that holds the core
    // through one run slows that run, not the fastest of three.
    let (mut base, mut big) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        base = base.min(ns_per_event(16));
        big = big.min(ns_per_event(64));
    }
    eprintln!("best of 3: N=16 {base:.0} ns/event, N=64 {big:.0} ns/event");
    // Generous 2× bound (the best-of-3 ratio measures 1.27–1.35 on 2
    // cores): catches a superlinearity relapse, tolerates box noise.
    assert!(
        big <= base * 2.0,
        "per-event cost grew superlinearly: N=16 {base:.0} ns/event, N=64 {big:.0} ns/event"
    );
}
