//! The real-socket workload: `dl_net::NetNode`s over loopback TCP, loaded
//! by one generator thread on a fixed schedule (open loop) or by per-node
//! closed-loop clients. Loopback only: latency here is processing, thread
//! hand-offs and the `tick_ms` poll cadence, not a network.

use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use dl_core::{Engine, Node, NodeConfig, NodeStats, ProtocolVariant, RealBlockCoder};
use dl_net::{NetConfig, NetNode};
use dl_wire::block::TxPayload;
use dl_wire::{ClusterConfig, NodeId, Tx};

use crate::gen::Rng;
use crate::measure::{Sample, SETUP_REPS};
use crate::probe::{ClosedLoop, Counts, NodeTrace, Probe, Stamps, TracedCoder};
use crate::stats::median;
use crate::trace::Tracer;

#[derive(Clone, Copy, Debug)]
pub enum TcpLoad {
    /// One generator, fixed inter-arrival, round-robin over the nodes.
    Open { tx_per_sec: f64 },
    /// `clients` per node, each with one outstanding transaction.
    Closed { clients: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct TcpScenario {
    pub n: usize,
    pub tx_bytes: u32,
    pub load: TcpLoad,
    pub duration: Duration,
    pub warmup: Duration,
    /// Bound on waiting for in-flight transactions after the last
    /// submission; what is missing after it counts as failed.
    pub drain: Duration,
}

pub struct TcpOutcome {
    pub sample: Sample,
    /// The latency samples again, split by the second they were due in.
    pub latency_windows: Vec<Vec<f64>>,
    /// How late the generator ran at worst (open loop).
    pub gen_late_ms_max: f64,
    /// Process CPU time (user + system, all threads) over the timed run.
    pub cpu_s: f64,
    pub stats: Vec<NodeStats>,
    pub counts: Vec<Counts>,
}

struct Cluster {
    nodes: Vec<NetNode>,
    clock: Instant,
    stamps: Vec<Stamps>,
    issued: Vec<Arc<AtomicU64>>,
    counts: Vec<Arc<Mutex<Counts>>>,
}

/// Process CPU seconds so far, from `/proc/self/stat` (utime + stime in
/// clock ticks of 1/100 s — the Linux default the sandbox runs).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

fn spawn(scn: &TcpScenario, payload: &TxPayload, tracer: Option<&Arc<Tracer>>) -> Cluster {
    let n = scn.n;
    let cluster = ClusterConfig::new(n);
    // Bind every listener first: peers know all addresses up front.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback"))
        .collect();
    let peers: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener address"))
        .collect();
    let clock = Instant::now();
    let stamps: Vec<Stamps> = (0..n).map(|_| Arc::default()).collect();
    let issued: Vec<Arc<AtomicU64>> = (0..n).map(|_| Arc::default()).collect();
    let counts: Vec<Arc<Mutex<Counts>>> = (0..n).map(|_| Arc::default()).collect();
    let mut nodes = Vec::with_capacity(n);
    for (i, listener) in listeners.into_iter().enumerate() {
        let id = NodeId(i as u16);
        let node_cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
        let coder = RealBlockCoder::new(&cluster);
        let clients = match scn.load {
            TcpLoad::Closed { clients } => Some(ClosedLoop {
                payload: payload.clone(),
                next_seq: clients as u64,
                issued: Arc::clone(&issued[i]),
            }),
            TcpLoad::Open { .. } => None,
        };
        let stamps = Some((clock, Arc::clone(&stamps[i])));
        let engine: Box<dyn Engine + Send> = match tracer {
            Some(t) => {
                let node = Node::new(id, node_cfg, TracedCoder::new(coder, Arc::clone(t)));
                let trace = NodeTrace {
                    tracer: Arc::clone(t),
                    counts: Arc::clone(&counts[i]),
                };
                Box::new(Probe::new(node, clients, stamps, Some(trace)))
            }
            None => Box::new(Probe::new(
                Node::new(id, node_cfg, coder),
                clients,
                stamps,
                None,
            )),
        };
        let cfg = NetConfig::new(id, peers.clone());
        nodes.push(NetNode::spawn(engine, listener, cfg).expect("spawn node"));
    }
    // The cluster is built once every node holds its N−1 inbound and N−1
    // outbound connections (bounded: a node that cannot connect shows up
    // as undelivered transactions, not as a hang here).
    let deadline = Instant::now() + Duration::from_secs(5);
    while nodes.iter().any(|nd| nd.connection_count() < 2 * (n - 1)) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_micros(200));
    }
    Cluster {
        nodes,
        clock,
        stamps,
        issued,
        counts,
    }
}

fn shutdown(cluster: Cluster) {
    for node in cluster.nodes {
        node.shutdown();
    }
}

fn us(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// Run `scn` once. `seed` draws the payload bytes; the arrival schedule of
/// the open loop is fixed-interval and does not depend on it.
pub fn run(scn: &TcpScenario, seed: u64, tracer: Option<&Arc<Tracer>>) -> TcpOutcome {
    let n = scn.n;
    // Set up several times and report the median; the last cluster runs.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, cluster)) = built.take() {
            shutdown(cluster);
        }
        let setup_start = Instant::now();
        let mut buf = vec![0u8; scn.tx_bytes as usize];
        Rng::derive(seed, 0).fill(&mut buf);
        let payload = TxPayload::Real(Bytes::from(buf));
        let cluster = spawn(scn, &payload, tracer);
        setups.push(setup_start.elapsed().as_secs_f64());
        built = Some((payload, cluster));
    }
    let setup_s = median(&setups);
    let (payload, cluster) = built.expect("SETUP_REPS > 0");

    let cpu_start = process_cpu_s();
    let root = tracer.map(|t| t.span("run", Some(0)));
    let start = cluster.clock.elapsed();
    let mut due_us: Vec<Vec<u64>> = vec![Vec::new(); n];
    let mut gen_late_us = 0u64;
    let mut end = start + scn.duration;
    match scn.load {
        TcpLoad::Open { tx_per_sec } => {
            let total = (scn.duration.as_secs_f64() * tx_per_sec) as u64;
            for k in 0..total {
                let due = start + Duration::from_secs_f64(k as f64 / tx_per_sec);
                let now = cluster.clock.elapsed();
                if due > now {
                    std::thread::sleep(due - now);
                }
                gen_late_us = gen_late_us.max(us(cluster.clock.elapsed().saturating_sub(due)));
                let origin = (k % n as u64) as usize;
                let seq = due_us[origin].len() as u64;
                due_us[origin].push(us(due));
                cluster.nodes[origin].submit_tx(Tx {
                    origin: NodeId(origin as u16),
                    seq,
                    submit_ms: due.as_millis() as u64,
                    payload: payload.clone(),
                });
            }
            // Bounded drain: a stranded transaction is counted, not waited
            // for.
            let give_up = cluster.clock.elapsed() + scn.drain;
            loop {
                end = cluster.clock.elapsed();
                let done = cluster
                    .stamps
                    .iter()
                    .all(|s| s.lock().expect("stamps lock").len() as u64 >= total);
                if done || end >= give_up {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        TcpLoad::Closed { clients } => {
            for i in 0..n {
                cluster.issued[i].store(clients as u64, Ordering::Relaxed);
                for seq in 0..clients as u64 {
                    cluster.nodes[i].submit_tx(Tx {
                        origin: NodeId(i as u16),
                        seq,
                        submit_ms: 0,
                        payload: payload.clone(),
                    });
                }
            }
            std::thread::sleep(scn.duration);
        }
    }
    let wall_s = (end - start).as_secs_f64();
    let cpu_s = process_cpu_s() - cpu_start;
    drop(root);

    let delivered: Vec<_> = cluster.nodes.iter().map(NetNode::delivered).collect();
    let stats: Vec<NodeStats> = cluster
        .nodes
        .iter()
        .map(|nd| nd.stats().unwrap_or_default())
        .collect();
    let stamps: Vec<Vec<(NodeId, u64, u64)>> = cluster
        .stamps
        .iter()
        .map(|s| s.lock().expect("stamps lock").clone())
        .collect();
    let counts = cluster
        .counts
        .iter()
        .map(|c| c.lock().expect("counts lock").clone())
        .collect();
    let issued: Vec<u64> = cluster
        .issued
        .iter()
        .map(|i| i.load(Ordering::Relaxed))
        .collect();
    shutdown(cluster);

    // ---- measure --------------------------------------------------------
    let window = (us(start + scn.warmup), us(start + scn.duration));
    let mut latencies_ms = Vec::new();
    let mut latency_windows: Vec<Vec<f64>> = Vec::new();
    let mut goodput_mbps = Vec::new();
    for (i, log) in stamps.iter().enumerate() {
        let mut in_window = 0u64;
        for &(origin, seq, at) in log {
            if (window.0..=window.1).contains(&at) {
                in_window += 1;
            }
            // Timed from when the transaction was due, not when the
            // generator got round to sending it.
            let due = due_us[i].get(seq as usize).filter(|_| origin.idx() == i);
            if let Some(&due) = due {
                if due >= window.0 {
                    let ms = at.saturating_sub(due) as f64 / 1000.0;
                    latencies_ms.push(ms);
                    let second = ((due - window.0) / 1_000_000) as usize;
                    if latency_windows.len() <= second {
                        latency_windows.resize(second + 1, Vec::new());
                    }
                    latency_windows[second].push(ms);
                }
            }
        }
        let bytes = in_window * u64::from(scn.tx_bytes);
        goodput_mbps.push(bytes as f64 / 1e6 / (scn.duration - scn.warmup).as_secs_f64());
    }

    // ---- check ----------------------------------------------------------
    let mut violations = Vec::new();
    let orders: Vec<Vec<(NodeId, u64)>> = delivered
        .iter()
        .map(|log| {
            log.iter()
                .filter_map(|d| d.block.as_ref())
                .flat_map(|b| b.body.iter().map(Tx::id))
                .collect()
        })
        .collect();
    let shortest = orders.iter().map(Vec::len).min().unwrap_or(0);
    for (i, order) in orders.iter().enumerate().skip(1) {
        if order[..shortest] != orders[0][..shortest] {
            violations.push(format!("node {i}'s total order diverges from node 0's"));
        }
    }
    let mut payload_bytes = 0u64;
    let mut seen = BTreeSet::new();
    for tx in delivered[0]
        .iter()
        .filter_map(|d| d.block.as_ref())
        .flat_map(|b| &b.body)
    {
        payload_bytes += tx.payload.len() as u64;
        if !seen.insert(tx.id()) {
            violations.push(format!("tx {}/{} delivered twice", tx.origin, tx.seq));
        }
        let known = match scn.load {
            TcpLoad::Open { .. } => (tx.seq as usize) < due_us[tx.origin.idx()].len(),
            TcpLoad::Closed { .. } => tx.seq < issued[tx.origin.idx()],
        };
        if !known || tx.payload != payload {
            violations.push(format!(
                "tx {}/{} was never submitted as delivered",
                tx.origin, tx.seq
            ));
        }
    }
    let (attempted, failed) = match scn.load {
        TcpLoad::Open { .. } => {
            let total: u64 = due_us.iter().map(|d| d.len() as u64).sum();
            (total, total - (shortest as u64).min(total))
        }
        TcpLoad::Closed { .. } => (shortest as u64, 0),
    };
    TcpOutcome {
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
        latency_windows,
        gen_late_ms_max: gen_late_us as f64 / 1000.0,
        cpu_s,
        stats,
        counts,
    }
}
