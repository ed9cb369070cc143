//! Deterministic chaos: seed-driven fault schedules for the link fabric,
//! a cluster-wide safety auditor, and the seeded scenario runner.
//!
//! Everything here is a pure function of a 64-bit seed. A [`ChaosPlan`]
//! describes *what* the network does to the protocol — partitions with heal
//! times, per-envelope loss and duplication, per-frame reordering and delay
//! jitter — and is consumed inside the fabric's `pump_link`, so the fault
//! schedule is part of the same deterministic event order as the protocol
//! itself: any failing seed replays exactly, message for message.
//!
//! [`scenario_from_seed`] widens that to whole scenarios: cluster size,
//! protocol variant, adversary behaviour (all five faulty
//! [`SimNodeKind`]s), crash/revive storms against the write-ahead logs,
//! and the client workload.
//! [`run_scenario`] executes one and cross-checks every honest node with the
//! [`Auditor`]; `cargo run -p dl-sim --bin dl-chaos` batches seeds and
//! prints the reproducing seed of any violation.
//!
//! ## The safety invariants
//!
//! The auditor enforces, over every honest node's delivery log:
//!
//! 1. **No equivocation** — a node never delivers two blocks for the same
//!    `(epoch, proposer)` slot.
//! 2. **Prefix consistency** — any two nodes' delivery logs agree pointwise
//!    on their common prefix (same slot, same block bytes): the total order
//!    is one order.
//! 3. **Validity** — every delivered block's header matches its slot and
//!    carries a well-formed `v_array`.
//! 4. **Restart consistency** — a node revived from its write-ahead log
//!    never contradicts what it delivered before the crash.
//!
//! Every scenario must quiesce: a lost retrieval request or chunk is
//! re-asked when the retrieval escalates and at the deadlines after it
//! (seeds 0..15000 all do). Full delivery is asserted only without loss
//! or crashes: a dropped binary-agreement vote is never retransmitted, so
//! an epoch can stall.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use dl_core::ProtocolVariant;
use dl_wire::{NodeId, Tx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{SimConfig, SimNodeKind, SimReport, Simulation};

/// One scheduled network partition over virtual time.
#[derive(Clone, Debug)]
pub struct Partition {
    /// First millisecond the cut is in force.
    pub start_ms: u64,
    /// The cut heals at this time (exclusive end).
    pub heal_ms: u64,
    /// Nodes on the minority side of the cut.
    pub group: Vec<usize>,
    /// Symmetric cuts sever both directions across the boundary;
    /// asymmetric cuts only block traffic *from* the group (the group
    /// still hears the rest of the cluster).
    pub symmetric: bool,
}

impl Partition {
    fn severs(&self, from: usize, to: usize, now: u64) -> bool {
        if now < self.start_ms || now >= self.heal_ms {
            return false;
        }
        let from_in = self.group.contains(&from);
        let to_in = self.group.contains(&to);
        if self.symmetric {
            from_in != to_in
        } else {
            from_in && !to_in
        }
    }
}

/// Seed-driven fault schedule for the link fabric.
///
/// Probabilistic faults (loss, duplication, reordering, jitter) apply to
/// transmissions starting before `horizon_ms`; after the horizon the
/// network is clean, so every scenario ends in a healed cluster and the
/// run can be judged at quiescence. Partitions follow their own explicit
/// start/heal times. A severed link *holds* its queue rather than dropping
/// it — partitions are outages, not loss — so healing restores exactly the
/// traffic that was pent up.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Seeds the per-link fault streams.
    pub seed: u64,
    /// Probabilistic faults stop at this virtual time.
    pub horizon_ms: u64,
    /// Per-envelope loss probability.
    pub drop: f64,
    /// Per-envelope duplication probability.
    pub duplicate: f64,
    /// Per-frame probability of shuffling the frame's delivery order.
    pub reorder: f64,
    /// Maximum extra per-frame propagation delay, drawn uniformly.
    pub jitter_ms: u64,
    /// Scheduled partitions.
    pub partitions: Vec<Partition>,
}

impl ChaosPlan {
    /// A plan that injects nothing — the identity fabric.
    pub fn quiet(seed: u64) -> ChaosPlan {
        ChaosPlan {
            seed,
            horizon_ms: 0,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            jitter_ms: 0,
            partitions: Vec::new(),
        }
    }

    /// True if the plan can lose messages outright (drops; partitions and
    /// the other faults are lossless).
    pub fn lossy(&self) -> bool {
        self.drop > 0.0
    }
}

/// The fabric-resident half of a [`ChaosPlan`]: the plan plus one
/// independent RNG stream per directed link, so fault decisions on one
/// link never perturb another's and the schedule is insensitive to event
/// interleaving across links.
pub(crate) struct ChaosState {
    pub(crate) plan: ChaosPlan,
    pub(crate) link_rngs: Vec<StdRng>,
    pub(crate) dropped: u64,
    pub(crate) duplicated: u64,
}

impl ChaosState {
    pub(crate) fn new(plan: ChaosPlan, n: usize) -> ChaosState {
        let link_rngs = (0..n * n)
            .map(|i| {
                // Distinct splitmix streams per link: consecutive seeds are
                // uncorrelated under splitmix64's output permutation.
                StdRng::seed_from_u64(plan.seed.wrapping_add(1 + i as u64))
            })
            .collect();
        ChaosState {
            plan,
            link_rngs,
            dropped: 0,
            duplicated: 0,
        }
    }

    /// If the directed link is severed at `now`, the earliest time a
    /// partition covering it heals (transmission retries then; another
    /// partition may still be in force and reschedules again).
    pub(crate) fn severed_until(&self, from: usize, to: usize, now: u64) -> Option<u64> {
        self.plan
            .partitions
            .iter()
            .filter(|p| p.severs(from, to, now))
            .map(|p| p.heal_ms)
            .min()
    }
}

/// A crash or revival applied between run segments of a scenario.
#[derive(Clone, Copy, Debug)]
pub enum ChaosAction {
    /// Crash `node` at `at_ms` (its uplink queues are lost; its
    /// write-ahead log survives).
    Crash { at_ms: u64, node: usize },
    /// Revive `node` at `at_ms` from its write-ahead log.
    Revive { at_ms: u64, node: usize },
}

impl ChaosAction {
    pub fn at_ms(&self) -> u64 {
        match self {
            ChaosAction::Crash { at_ms, .. } | ChaosAction::Revive { at_ms, .. } => *at_ms,
        }
    }
}

/// One fully-specified seeded scenario.
#[derive(Clone, Debug)]
pub struct ChaosScenario {
    pub seed: u64,
    pub n: usize,
    pub variant: ProtocolVariant,
    /// The adversary occupying slot `n - 1`, if any.
    pub adversary: Option<SimNodeKind>,
    pub plan: ChaosPlan,
    /// Crash/revive storm, sorted by time.
    pub actions: Vec<ChaosAction>,
    /// Transactions each honest node submits (before any crash fires).
    pub txs_per_node: u64,
    /// Size of each. The engine opens an epoch past its propose gate only
    /// when a full Nagle batch waits behind an outstanding proposal, so
    /// seeds draw either side of that trigger: a trickle far below
    /// `propose_size` (the gated schedule) or a burst of transactions each
    /// above it (the pipelined one) — both face every adversary, partition
    /// and crash storm.
    pub tx_bytes: u32,
    /// Deadline for the final run-to-quiescence segment.
    pub max_ms: u64,
}

impl ChaosScenario {
    /// Whether every submitted transaction must deliver everywhere: true
    /// when nothing in the scenario can lose protocol messages.
    pub fn lossless(&self) -> bool {
        !self.plan.lossy() && self.actions.is_empty()
    }

    /// Whether the cluster runs the fluid coder: when the transactions are
    /// full Nagle batches. Such a seed would put megabytes through
    /// Reed–Solomon and Merkle hashing (the batch ran 12× slower for it);
    /// the fluid coder puts the same bytes on the same links, and the real
    /// coder stays under every trickle seed.
    pub fn fluid(&self) -> bool {
        self.tx_bytes as usize >= dl_core::DEFAULT_PROPOSE_SIZE
    }
}

const VARIANTS: [ProtocolVariant; 4] = [
    ProtocolVariant::Dl,
    ProtocolVariant::DlCoupled,
    ProtocolVariant::HoneyBadger,
    ProtocolVariant::HoneyBadgerLink,
];

const ADVERSARIES: [Option<SimNodeKind>; 6] = [
    None,
    Some(SimNodeKind::Mute),
    Some(SimNodeKind::Equivocate),
    Some(SimNodeKind::DelayRelease),
    Some(SimNodeKind::SelectiveSend),
    Some(SimNodeKind::GarbageChunks),
];

/// Derive a complete scenario from one seed. Variants and adversaries
/// rotate on different periods so a contiguous seed range covers every
/// variant and every adversary; everything else (cluster size, fault mix,
/// partition and storm schedules) is drawn from the seeded RNG. 24
/// consecutive seeds cover the full adversary × variant product.
pub fn scenario_from_seed(seed: u64) -> ChaosScenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CE2_AD10_C4A0_5EED);
    let variant = VARIANTS[(seed % 4) as usize];
    let adversary = ADVERSARIES[((seed / 4) % 6) as usize];
    let n = if rng.gen_bool(0.5) { 4 } else { 7 };
    // One seed in three bursts: full Nagle batches, each proposed on arrival
    // with the next arriving behind it (see `ChaosScenario::tx_bytes`).
    let (txs_per_node, tx_bytes) = if rng.gen_range(0..3u32) == 0 {
        (3, 160_000)
    } else {
        (2, 120)
    };
    let horizon_ms = 4_000;
    let mut plan = ChaosPlan::quiet(seed);
    plan.horizon_ms = horizon_ms;
    if rng.gen_bool(0.5) {
        plan.drop = rng.gen_range(1..40u64) as f64 / 1000.0; // up to 4 %
    }
    plan.duplicate = rng.gen_range(0..50u64) as f64 / 1000.0;
    plan.reorder = rng.gen_range(0..300u64) as f64 / 1000.0;
    plan.jitter_ms = rng.gen_range(0..25u64);
    for _ in 0..rng.gen_range(0..3u32) {
        let start_ms = rng.gen_range(300..2500u64);
        let heal_ms = start_ms + rng.gen_range(100..900u64);
        let size = rng.gen_range(1..(n / 2) + 1);
        let mut pool: Vec<usize> = (0..n).collect();
        let mut group = Vec::with_capacity(size);
        for _ in 0..size {
            group.push(pool.swap_remove(rng.gen_range(0..pool.len())));
        }
        plan.partitions.push(Partition {
            start_ms,
            heal_ms,
            group,
            symmetric: rng.gen_bool(0.7),
        });
    }
    // Crash storm: stay inside the f-budget *jointly* with the adversary
    // slot so the cluster keeps ≥ n − f correct-and-up members, and only
    // crash honest nodes (their write-ahead logs are enabled; a storeless
    // revival would amnesia-equivocate). Everyone revives before the run
    // is judged.
    let f = (n - 1) / 3;
    let budget = f - usize::from(adversary.is_some());
    let mut actions = Vec::new();
    let mut candidates: Vec<usize> = (0..n - usize::from(adversary.is_some())).collect();
    let storms = if budget == 0 {
        0
    } else {
        rng.gen_range(0..budget as u32 + 1)
    };
    for _ in 0..storms {
        let node = candidates.swap_remove(rng.gen_range(0..candidates.len()));
        let crash_at = rng.gen_range(400..2000u64);
        let revive_at = crash_at + rng.gen_range(300..1200u64);
        actions.push(ChaosAction::Crash {
            at_ms: crash_at,
            node,
        });
        actions.push(ChaosAction::Revive {
            at_ms: revive_at,
            node,
        });
    }
    actions.sort_by_key(ChaosAction::at_ms);
    ChaosScenario {
        seed,
        n,
        variant,
        adversary,
        plan,
        actions,
        txs_per_node,
        tx_bytes,
        max_ms: 600_000,
    }
}

/// One safety-invariant violation, carrying its reproducing seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub seed: u64,
    pub node: usize,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "chaos violation [seed {}] node {}: {}",
            self.seed, self.node, self.detail
        )
    }
}

/// Cross-checks every honest node's delivery log against the safety
/// invariants (see the module docs for the list). Audit as often as you
/// like — the invariants hold at every instant, not just at quiescence —
/// and each distinct violation is recorded once.
pub struct Auditor {
    seed: u64,
    honest: Vec<bool>,
    cluster_n: usize,
    /// `(node, its delivery log at crash time)`, sharing the report's
    /// blocks.
    snapshots: Vec<(usize, Vec<Arc<dl_core::DeliveredBlock>>)>,
    seen: BTreeSet<String>,
    violations: Vec<Violation>,
}

impl Auditor {
    pub fn new(seed: u64, honest: Vec<bool>) -> Auditor {
        let cluster_n = honest.len();
        Auditor {
            seed,
            honest,
            cluster_n,
            snapshots: Vec::new(),
            seen: BTreeSet::new(),
            violations: Vec::new(),
        }
    }

    /// Record `node`'s delivery log at crash time; later audits check the
    /// revived node never contradicts it.
    pub fn note_crash(&mut self, node: usize, report: &SimReport) {
        self.snapshots.push((node, report.delivered[node].clone()));
    }

    fn record(&mut self, node: usize, detail: String) {
        if self.seen.insert(detail.clone()) {
            self.violations.push(Violation {
                seed: self.seed,
                node,
                detail,
            });
        }
    }

    /// Cross-check all honest nodes in `report`.
    pub fn audit(&mut self, report: &SimReport) {
        let honest: Vec<usize> = (0..self.honest.len()).filter(|&i| self.honest[i]).collect();
        // 1. No equivocation within one node's log, 3. validity.
        for &i in &honest {
            let mut slots: BTreeSet<(u64, u16)> = BTreeSet::new();
            for d in &report.delivered[i] {
                if !slots.insert((d.epoch.0, d.proposer.0)) {
                    self.record(
                        i,
                        format!(
                            "delivered slot (epoch {}, proposer {}) twice",
                            d.epoch.0, d.proposer.0
                        ),
                    );
                }
                if let Some(b) = &d.block {
                    if b.header.epoch != d.epoch
                        || b.header.proposer != d.proposer
                        || b.header.v_array.len() != self.cluster_n
                    {
                        self.record(
                            i,
                            format!(
                                "delivered a block whose header ({:?}, {:?}, v_array × {}) \
                                 does not match its slot (epoch {}, proposer {})",
                                b.header.epoch,
                                b.header.proposer,
                                b.header.v_array.len(),
                                d.epoch.0,
                                d.proposer.0
                            ),
                        );
                    }
                }
            }
        }
        // 2. Pairwise pointwise prefix consistency.
        for (ai, &i) in honest.iter().enumerate() {
            for &j in &honest[ai + 1..] {
                let a = &report.delivered[i];
                let b = &report.delivered[j];
                for k in 0..a.len().min(b.len()) {
                    let (x, y) = (&a[k], &b[k]);
                    if x.epoch != y.epoch || x.proposer != y.proposer || x.block != y.block {
                        self.record(
                            i,
                            format!(
                                "position {k} diverges from node {j}: \
                                 (epoch {}, proposer {}) vs (epoch {}, proposer {})",
                                x.epoch.0, x.proposer.0, y.epoch.0, y.proposer.0
                            ),
                        );
                        break; // one divergence per pair is enough signal
                    }
                }
            }
        }
        // 4. Restart consistency against crash-time snapshots.
        for s in 0..self.snapshots.len() {
            let (node, snap_len) = (self.snapshots[s].0, self.snapshots[s].1.len());
            let current_len = report.delivered[node].len();
            if snap_len > current_len {
                self.record(
                    node,
                    format!(
                        "lost deliveries across restart: {snap_len} before the crash, \
                         {current_len} after"
                    ),
                );
                continue;
            }
            let mut diverged = None;
            for k in 0..snap_len {
                let (x, y) = (&self.snapshots[s].1[k], &report.delivered[node][k]);
                if x.epoch != y.epoch || x.proposer != y.proposer || x.block != y.block {
                    diverged = Some(k);
                    break;
                }
            }
            if let Some(k) = diverged {
                self.record(
                    node,
                    format!("contradicts its pre-crash self at position {k}"),
                );
            }
        }
    }

    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    pub fn into_violations(self) -> Vec<Violation> {
        self.violations
    }
}

/// The judged outcome of one seeded scenario.
pub struct ChaosOutcome {
    pub report: SimReport,
    pub violations: Vec<Violation>,
    /// `Some(total submitted)` when the scenario is lossless and every
    /// honest node must therefore have delivered everything.
    pub expected_txs: Option<u64>,
    /// Envelopes the fault fabric discarded / cloned.
    pub dropped: u64,
    pub duplicated: u64,
}

/// Build, run and audit one scenario: install the adversary and the fault
/// plan, enable a write-ahead log on every honest node, submit the client
/// workload, interleave the crash/revive storm with run segments (auditing
/// at every boundary), and run the healed cluster to quiescence.
pub fn run_scenario(sc: &ChaosScenario) -> ChaosOutcome {
    let mut sim = Simulation::new(SimConfig {
        fluid: sc.fluid(),
        ..SimConfig::new(sc.n, sc.variant)
    });
    let honest: Vec<bool> = (0..sc.n)
        .map(|i| sc.adversary.is_none() || i != sc.n - 1)
        .collect();
    if let Some(kind) = sc.adversary {
        sim.set_node_kind(sc.n - 1, kind);
    }
    let mut submitted = 0u64;
    for (i, _) in honest.iter().enumerate().filter(|(_, h)| **h) {
        sim.enable_store(i);
        for k in 0..sc.txs_per_node {
            let at = 10 + 40 * k + 7 * i as u64;
            sim.submit_at(i, at, Tx::synthetic(NodeId(i as u16), k, at, sc.tx_bytes));
            submitted += 1;
        }
    }
    sim.set_chaos(sc.plan.clone());
    let mut auditor = Auditor::new(sc.seed, honest);
    for action in &sc.actions {
        let report = sim.run_until_quiescent(action.at_ms());
        auditor.audit(&report);
        match *action {
            ChaosAction::Crash { node, .. } => {
                auditor.note_crash(node, &report);
                sim.crash(node);
            }
            ChaosAction::Revive { node, .. } => sim.revive(node),
        }
    }
    let report = sim.run_until_quiescent(sc.max_ms);
    auditor.audit(&report);
    let (dropped, duplicated) = sim.chaos_counters();
    ChaosOutcome {
        report,
        violations: auditor.into_violations(),
        expected_txs: sc.lossless().then_some(submitted),
        dropped,
        duplicated,
    }
}
