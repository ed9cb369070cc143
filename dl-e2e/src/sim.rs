//! The virtual-time workloads: one `dl_sim::Simulation` per sub-seed,
//! driven from outside in slices so the harness can re-draw uplinks, crash
//! and revive nodes, and probe catch-up between slices.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use dl_core::{BlockCoder, Engine, Node, NodeConfig, NodeStats, ProtocolVariant, RealBlockCoder};
use dl_sim::{Auditor, BlockStore, FluidCoder, LinkSpec, SimConfig, SimReport, Simulation};
use dl_wire::block::TxPayload;
use dl_wire::{ClusterConfig, NodeId, Tx};

use crate::gen::{poisson_arrivals, GaussMarkov, Rng};
use crate::measure::{Sample, SETUP_REPS};
use crate::probe::{ClosedLoop, Counts, NodeTrace, Probe, TracedCoder};
use crate::stats::median;
use crate::trace::Tracer;

/// Uplink process of the `vbw-*` workloads, bytes per millisecond, re-drawn
/// every virtual second (mean 6.4 Mbit/s, swinging between 0.8 and 16).
pub const UPLINK: GaussMarkov = GaussMarkov {
    mean: 800.0,
    sigma: 400.0,
    alpha: 0.9,
    min: 100.0,
    max: 2000.0,
};

/// The `vbw-*` network is trace-driven: one bank of [`UPLINK`] traces, one
/// per node and [`BANK_SECS`] long, drawn once from [`BANK_SEED`] and
/// replayed cyclically. `--seed` picks the phase at which a run enters the
/// bank and which node gets which trace. A run that lasts a whole number
/// of cycles therefore meets the same network states on every seed, in a
/// different order — which is what lets goodput on a *varying* network
/// repeat within a few percent across seeds (fresh traces per seed swung
/// it by ±10 %, because α = 0.9 leaves only ~20 independent states per
/// node in 240 s).
pub const BANK_SECS: usize = 240;
const BANK_SEED: u64 = 0x444c_2d65_3265; // "DL-e2e"

/// Virtual time an open-loop run may take to deliver what is still in
/// flight when submissions stop; whatever is missing after it has failed.
pub const DRAIN_MS: u64 = 30_000;

/// Catch-up of a revived node is probed at this granularity.
const CATCHUP_PROBE_MS: u64 = 50;

#[derive(Clone, Copy, Debug)]
pub enum Net {
    /// Every link is `LinkSpec::WAN` for the whole run.
    Wan,
    /// Every node's uplink replays one trace of the bank, entered
    /// `offset_s` seconds in; `seed` deals the traces to the nodes.
    Varying { seed: u64, offset_s: u64 },
}

/// Where in the bank a run with this `--seed` starts.
pub fn bank_phase(seed: u64) -> u64 {
    Rng::derive(seed, 1000).next_u64() % BANK_SECS as u64
}

#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// `clients` per node, each with one outstanding transaction.
    Closed { clients: usize },
    /// Poisson arrivals at every node, `tx_per_sec` each, regardless of
    /// how the system keeps up.
    Open { tx_per_sec: f64 },
}

#[derive(Clone, Copy, Debug)]
pub struct Crash {
    pub node: usize,
    /// The node's clients stop this early, so nothing sits in its input
    /// queue when it dies (a crashed queue is lost by design).
    pub clients_stop_ms: u64,
    pub crash_ms: u64,
    pub revive_ms: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct Scenario {
    pub n: usize,
    pub variant: ProtocolVariant,
    /// Fluid coder (declared-length chunks) or the real RS + Merkle coder.
    pub fluid: bool,
    pub net: Net,
    pub load: Load,
    pub tx_bytes: u32,
    pub duration_ms: u64,
    pub warmup_ms: u64,
    pub crash: Option<Crash>,
}

/// What one simulated run produced.
pub struct Outcome {
    pub sample: Sample,
    /// Virtual ms from revival until the revived node has delivered what
    /// the survivors had at revival (0 without a crash).
    pub catchup_ms: f64,
    pub events: u64,
    pub stats: Vec<NodeStats>,
    /// Per node, bytes sent ÷ the capacity its uplink schedule offered.
    pub uplink_utilisation: Vec<f64>,
    pub counts: Vec<Counts>,
}

struct Prepared {
    sim: Simulation,
    /// Open loop: everything scheduled, per origin, indexed by seq.
    submitted: Vec<Vec<Tx>>,
    /// Closed loop: transactions issued per origin so far.
    issued: Vec<Arc<AtomicU64>>,
    /// Varying net: per node, its trace of the bank (bytes/ms per second).
    uplinks: Vec<Vec<u64>>,
    counts: Vec<Arc<Mutex<Counts>>>,
}

/// Real-coder payloads are windows into one seeded random pool per node
/// (zero-copy `Bytes` slices at seeded offsets): distinct, checkable bytes
/// without the set-up streaming tens of megabytes through memory.
const PAYLOAD_POOL_BYTES: usize = 1 << 16;

fn install<C>(
    sim: &mut Simulation,
    node: usize,
    cfg: &NodeConfig,
    coder: C,
    clients: Option<ClosedLoop>,
    trace: Option<NodeTrace>,
) where
    C: BlockCoder + 'static,
{
    let id = NodeId(node as u16);
    let engine: Box<dyn Engine> = match trace {
        Some(t) => {
            let coder = TracedCoder::new(coder, Arc::clone(&t.tracer));
            let node = Node::new(id, cfg.clone(), coder);
            Box::new(Probe::new(node, clients, None, Some(t)))
        }
        None => Box::new(Probe::new(
            Node::new(id, cfg.clone(), coder),
            clients,
            None,
            None,
        )),
    };
    sim.set_engine(node, engine);
}

/// Build the cluster and its engines and schedule the load — everything
/// before the timed run.
fn prepare(scn: &Scenario, seed: u64, tracer: Option<&Arc<Tracer>>) -> Prepared {
    let n = scn.n;
    let cfg = if scn.fluid {
        SimConfig::fluid(n, scn.variant)
    } else {
        SimConfig::new(n, scn.variant)
    };
    let cluster: ClusterConfig = cfg.cluster.clone();
    let node_cfg = NodeConfig::new(cluster.clone(), scn.variant);
    let mut sim = Simulation::new(cfg);

    let issued: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let counts: Vec<Arc<Mutex<Counts>>> = (0..n).map(|_| Arc::default()).collect();
    let closed = matches!(scn.load, Load::Closed { .. });
    if closed || tracer.is_some() {
        // Wrapped engines replace the simulator's own; in fluid mode they
        // must share one block store among themselves.
        let store = BlockStore::new();
        for i in 0..n {
            let clients = match scn.load {
                Load::Closed { clients } => Some(ClosedLoop {
                    payload: TxPayload::Synthetic { len: scn.tx_bytes },
                    next_seq: clients as u64,
                    issued: Arc::clone(&issued[i]),
                }),
                Load::Open { .. } => None,
            };
            let t = tracer.map(|t| NodeTrace {
                tracer: Arc::clone(t),
                counts: Arc::clone(&counts[i]),
            });
            if scn.fluid {
                let coder = FluidCoder::new(&cluster, store.clone());
                install(&mut sim, i, &node_cfg, coder, clients, t);
            } else {
                let coder = RealBlockCoder::new(&cluster);
                install(&mut sim, i, &node_cfg, coder, clients, t);
            }
        }
    }
    if scn.crash.is_some() {
        for i in 0..n {
            sim.enable_store(i);
        }
    }

    let uplinks: Vec<Vec<u64>> = match scn.net {
        Net::Wan => Vec::new(),
        Net::Varying { seed, .. } => {
            // Fisher–Yates: which node replays which trace of the bank.
            let mut rng = Rng::derive(seed, 1001);
            let mut owner: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                owner.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
            }
            owner
                .iter()
                .map(|&t| UPLINK.trace(&mut Rng::derive(BANK_SEED, t as u64), BANK_SECS))
                .collect()
        }
    };

    let mut submitted: Vec<Vec<Tx>> = vec![Vec::new(); n];
    for (i, mine) in submitted.iter_mut().enumerate() {
        let mut rng = Rng::derive(seed, i as u64);
        let origin = NodeId(i as u16);
        let pool = (!scn.fluid).then(|| {
            let mut buf = vec![0u8; PAYLOAD_POOL_BYTES + scn.tx_bytes as usize];
            rng.fill(&mut buf);
            Bytes::from(buf)
        });
        let times: Vec<u64> = match scn.load {
            Load::Closed { clients } => {
                issued[i].store(clients as u64, Ordering::Relaxed);
                vec![0; clients]
            }
            Load::Open { tx_per_sec } => {
                let until = match scn.crash {
                    Some(c) if c.node == i => c.clients_stop_ms,
                    _ => scn.duration_ms,
                };
                poisson_arrivals(&mut rng, tx_per_sec, until)
            }
        };
        for (seq, at) in times.into_iter().enumerate() {
            let tx = Tx {
                origin,
                seq: seq as u64,
                submit_ms: at,
                payload: match &pool {
                    None => TxPayload::Synthetic { len: scn.tx_bytes },
                    Some(pool) => {
                        let at = (rng.next_u64() % PAYLOAD_POOL_BYTES as u64) as usize;
                        TxPayload::Real(pool.slice(at..at + scn.tx_bytes as usize))
                    }
                },
            };
            sim.submit_at(i, at, tx.clone());
            mine.push(tx);
        }
    }
    Prepared {
        sim,
        submitted,
        issued,
        uplinks,
        counts,
    }
}

/// Second `sec` of the run on a net entered `offset_s` into the bank.
fn bank_at(trace: &[u64], net: Net, sec: u64) -> u64 {
    let Net::Varying { offset_s, .. } = net else {
        return LinkSpec::WAN.bytes_per_ms;
    };
    trace[((offset_s + sec) % BANK_SECS as u64) as usize]
}

fn set_uplinks(sim: &mut Simulation, uplinks: &[Vec<u64>], net: Net, sec: u64) {
    for (i, trace) in uplinks.iter().enumerate() {
        let bytes_per_ms = bank_at(trace, net, sec);
        sim.set_uplink(
            i,
            LinkSpec {
                latency_ms: LinkSpec::WAN.latency_ms,
                bytes_per_ms,
            },
        );
    }
}

/// Transactions in `node`'s delivery log — counted from the log, which
/// outlives a crash, rather than from the engine's counters, which do not.
fn txs_delivered(report: &SimReport, node: usize) -> u64 {
    report.delivered[node]
        .iter()
        .filter_map(|d| d.block.as_ref())
        .map(|b| b.body.len() as u64)
        .sum()
}

/// Run `scn` once with inputs drawn from `seed`.
pub fn run(scn: &Scenario, seed: u64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    // Set up several times and report the median; the last one runs.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let mut p = prepare(scn, seed, tracer);
        set_uplinks(&mut p.sim, &p.uplinks, scn.net, 0);
        setups.push(start.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let setup_s = median(&setups);
    let Prepared {
        mut sim,
        submitted,
        issued,
        uplinks,
        counts,
    } = prepared.expect("SETUP_REPS > 0");

    let n = scn.n;
    let mut auditor = Auditor::new(seed, vec![true; n]);
    let mut stops: BTreeSet<u64> = BTreeSet::from([scn.duration_ms]);
    if !uplinks.is_empty() {
        stops.extend((1..).map(|s| s * 1000).take_while(|&t| t < scn.duration_ms));
    }
    if let Some(c) = scn.crash {
        stops.extend([c.crash_ms, c.revive_ms]);
    }

    let wall_start = Instant::now();
    let root = tracer.map(|t| t.span("run", Some(0)));
    let mut catchup_ms = 0.0;
    let mut report = None;
    for &t in &stops {
        let mut r = sim.run_until_quiescent(t);
        if t % 1000 == 0 && t < scn.duration_ms {
            set_uplinks(&mut sim, &uplinks, scn.net, t / 1000);
        }
        match scn.crash {
            Some(c) if t == c.crash_ms => {
                auditor.note_crash(c.node, &r);
                sim.crash(c.node);
            }
            Some(c) if t == c.revive_ms => {
                let survivor = (0..n).find(|&i| i != c.node).expect("n >= 2");
                let target = txs_delivered(&r, survivor);
                sim.revive(c.node);
                let mut at = t;
                while at < scn.duration_ms {
                    at = (at + CATCHUP_PROBE_MS).min(scn.duration_ms);
                    r = sim.run_until_quiescent(at);
                    if txs_delivered(&r, c.node) >= target {
                        catchup_ms = (at - t) as f64;
                        break;
                    }
                }
            }
            _ => {}
        }
        report = Some(r);
    }
    let mut report = report.expect("at least one stop");
    if matches!(scn.load, Load::Open { .. }) {
        // Bounded drain, the uplinks still moving along the bank.
        let mut t = scn.duration_ms;
        while !report.quiesced && t < scn.duration_ms + DRAIN_MS {
            set_uplinks(&mut sim, &uplinks, scn.net, t / 1000);
            t = if uplinks.is_empty() {
                scn.duration_ms + DRAIN_MS
            } else {
                t + 1000
            };
            report = sim.run_until_quiescent(t);
        }
    }
    drop(root);
    let wall_s = wall_start.elapsed().as_secs_f64();

    // ---- measure --------------------------------------------------------
    let up: Vec<usize> = (0..n)
        .filter(|&i| scn.crash.is_none_or(|c| c.node != i))
        .collect();
    let window_s = (scn.duration_ms - scn.warmup_ms) as f64 / 1000.0;
    let mut latencies_ms = Vec::new();
    let mut goodput_mbps = Vec::new();
    for &i in &up {
        let mut bytes = 0u64;
        for d in &report.delivered[i] {
            let Some(b) = &d.block else { continue };
            let in_window = d.delivered_ms >= scn.warmup_ms && d.delivered_ms <= scn.duration_ms;
            for tx in &b.body {
                if in_window {
                    bytes += tx.payload.len() as u64;
                }
                if tx.origin.idx() == i && tx.submit_ms >= scn.warmup_ms {
                    latencies_ms.push((d.delivered_ms - tx.submit_ms) as f64);
                }
            }
        }
        goodput_mbps.push(bytes as f64 / 1e6 / window_s);
    }

    // ---- check ----------------------------------------------------------
    let mut violations = Vec::new();
    let mut payload_bytes = 0u64;
    let mut seen: BTreeSet<(u16, u64)> = BTreeSet::new();
    for d in &report.delivered[0] {
        for tx in d.block.iter().flat_map(|b| &b.body) {
            payload_bytes += tx.payload.len() as u64;
            let (origin, seq) = tx.id();
            if !seen.insert((origin.0, seq)) {
                violations.push(format!("tx {origin}/{seq} delivered twice"));
            }
            let known = match scn.load {
                Load::Open { .. } => submitted[origin.idx()].get(seq as usize) == Some(tx),
                Load::Closed { .. } => {
                    seq < issued[origin.idx()].load(Ordering::Relaxed)
                        && tx.payload.len() == scn.tx_bytes as usize
                }
            };
            if !known {
                violations.push(format!(
                    "tx {origin}/{seq} was never submitted as delivered"
                ));
            }
        }
    }
    auditor.audit(&report);
    violations.extend(
        auditor
            .violations()
            .iter()
            .map(|v| format!("node {}: {}", v.node, v.detail)),
    );
    let (attempted, failed) = match scn.load {
        Load::Open { .. } => {
            if !report.quiesced {
                violations.push(format!(
                    "still busy {DRAIN_MS} ms after the last submission"
                ));
            }
            let total: u64 = submitted.iter().map(|s| s.len() as u64).sum();
            let everywhere = (0..n).map(|i| txs_delivered(&report, i)).min().unwrap_or(0);
            (total, total.saturating_sub(everywhere))
        }
        Load::Closed { .. } => (latencies_ms.len() as u64, 0),
    };

    let stats: Vec<NodeStats> = report.stats.iter().map(|s| s.unwrap_or_default()).collect();
    let uplink_utilisation = (0..n)
        .map(|i| {
            let capacity: u64 = match uplinks.get(i) {
                None => LinkSpec::WAN.bytes_per_ms * report.now_ms,
                Some(trace) => (0..report.now_ms.div_ceil(1000))
                    .map(|s| bank_at(trace, scn.net, s) * 1000)
                    .sum(),
            };
            stats[i].bytes_sent as f64 / (capacity * (n as u64 - 1)) as f64
        })
        .collect();
    Outcome {
        sample: Sample {
            setup_s,
            wall_s,
            latencies_ms,
            goodput_mbps,
            wire_bytes: stats.iter().map(|s| s.bytes_sent).sum(),
            payload_bytes,
            attempted,
            failed,
            violations,
        },
        catchup_ms,
        events: report.events_processed,
        stats,
        uplink_utilisation,
        counts: counts
            .iter()
            .map(|c| c.lock().expect("counts lock").clone())
            .collect(),
    }
}
