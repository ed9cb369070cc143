//! An in-process localhost cluster: the one way to stand up, load, kill,
//! restart and check `n` honest [`NetNode`]s over real TCP. The `dl-node`
//! binary and the integration tests are its callers.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dl_core::{Node, NodeConfig, ProtocolVariant, RealBlockCoder};
use dl_store::FsyncPolicy;
use dl_wire::{ClusterConfig, NodeId, Tx};

use crate::config::{NetConfig, CONNECT_TIMEOUT, RECONNECT_BACKOFF_MAX};
use crate::node::NetNode;

/// How long [`LocalCluster::restart`] retries binding the member's old
/// address (a just-closed listener can linger briefly in the kernel).
const REBIND_BUDGET: Duration = Duration::from_secs(10);

/// What a [`LocalCluster`] runs. Everything not listed is the default of
/// [`NodeConfig::new`] / [`NetConfig::new`].
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Cluster size `N` (`f = ⌊(N−1)/3⌋`).
    pub n: usize,
    pub variant: ProtocolVariant,
    /// `Some((root, fsync))` gives node `i` a write-ahead log under
    /// `root/node<i>/`; `None` runs in memory only.
    pub store: Option<(PathBuf, FsyncPolicy)>,
    /// [`NetConfig::connect_timeout`] of every node.
    pub connect_timeout: Duration,
    /// [`NetConfig::reconnect_backoff_max`] of every node.
    pub reconnect_backoff_max: Duration,
}

impl ClusterSpec {
    pub fn new(n: usize, variant: ProtocolVariant) -> ClusterSpec {
        ClusterSpec {
            n,
            variant,
            store: None,
            connect_timeout: CONNECT_TIMEOUT,
            reconnect_backoff_max: RECONNECT_BACKOFF_MAX,
        }
    }
}

/// `n` full [`NetNode`]s wired over real TCP on ephemeral localhost ports.
pub struct LocalCluster {
    spec: ClusterSpec,
    peers: Vec<SocketAddr>,
    /// `None` while the member is killed.
    nodes: Vec<Option<NetNode>>,
}

impl LocalCluster {
    pub fn spawn(spec: &ClusterSpec) -> io::Result<LocalCluster> {
        // Bind every listener before spawning anything: peers know all
        // addresses up front and connects can simply retry until accept.
        let listeners: Vec<TcpListener> = (0..spec.n)
            .map(|_| TcpListener::bind(("127.0.0.1", 0)))
            .collect::<io::Result<_>>()?;
        let peers: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<io::Result<_>>()?;
        let mut cluster = LocalCluster {
            spec: spec.clone(),
            peers,
            nodes: Vec::with_capacity(spec.n),
        };
        for (i, listener) in listeners.into_iter().enumerate() {
            let node = cluster.spawn_node(i, listener)?;
            cluster.nodes.push(Some(node));
        }
        Ok(cluster)
    }

    fn spawn_node(&self, i: usize, listener: TcpListener) -> io::Result<NetNode> {
        let id = NodeId(i as u16);
        let cluster = ClusterConfig::new(self.spec.n);
        let node_cfg = NodeConfig::new(cluster.clone(), self.spec.variant);
        let mut cfg = NetConfig::new(id, self.peers.clone());
        cfg.connect_timeout = self.spec.connect_timeout;
        cfg.reconnect_backoff_max = self.spec.reconnect_backoff_max;
        if let Some((root, fsync)) = &self.spec.store {
            cfg.data_dir = Some(root.join(format!("node{i}")));
            cfg.fsync = *fsync;
        }
        let engine = Box::new(Node::new(id, node_cfg, RealBlockCoder::new(&cluster)));
        NetNode::spawn(engine, listener, cfg)
    }

    /// Member `i`. Panics while it is killed.
    pub fn node(&self, i: usize) -> &NetNode {
        self.nodes[i].as_ref().expect("node is killed")
    }

    /// The listen address of node `i` (e.g. to connect an adversarial
    /// client in tests).
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.peers[i]
    }

    /// Submit a transaction at one member.
    pub fn submit(&self, node: usize, tx: Tx) {
        self.node(node).submit_tx(tx);
    }

    /// Stop member `i`: threads joined, sockets closed, write-ahead log
    /// synced on the way out. Its address stays reserved in every peer
    /// list and its durable state stays under the data root.
    pub fn kill(&mut self, i: usize) {
        self.nodes[i].take().expect("node is killed").shutdown();
    }

    /// Bring killed member `i` back on the same address with the same
    /// data dir: with a store it replays its log and catches up through
    /// retrieval, without one it starts from a fresh engine.
    pub fn restart(&mut self, i: usize) -> io::Result<()> {
        assert!(self.nodes[i].is_none(), "restart of a live node");
        let deadline = Instant::now() + REBIND_BUDGET;
        let listener = loop {
            match TcpListener::bind(self.peers[i]) {
                Ok(l) => break l,
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        self.nodes[i] = Some(self.spawn_node(i, listener)?);
        Ok(())
    }

    /// Block until every live node has delivered `expected` transactions
    /// (a restarted node's replayed prefix counts), or `timeout` passes.
    /// Returns whether the cluster quiesced in time.
    pub fn wait_delivered(&self, expected: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self
                .nodes
                .iter()
                .flatten()
                .all(|nd| nd.txs_delivered() >= expected)
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// [`LocalCluster::wait_delivered`] with the stall spelled out.
    fn wait_or_stall(&self, expected: u64, timeout: Duration) -> Result<(), String> {
        if self.wait_delivered(expected, timeout) {
            return Ok(());
        }
        let counts: Vec<u64> = self
            .nodes
            .iter()
            .map(|nd| nd.as_ref().map_or(0, NetNode::txs_delivered))
            .collect();
        Err(format!(
            "did not quiesce within {timeout:?} (delivered {counts:?} of {expected})"
        ))
    }

    /// Per-node delivered transaction ids, in delivery order, of the live
    /// nodes.
    pub fn tx_orders(&self) -> Vec<Vec<(NodeId, u64)>> {
        self.nodes.iter().flatten().map(NetNode::tx_order).collect()
    }

    /// Agreement + total order: every live node delivered the same
    /// sequence, and no transaction twice.
    fn check_total_order(&self) -> Result<(), String> {
        let orders = self.tx_orders();
        let reference = &orders[0];
        let mut dedup = reference.clone();
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() != reference.len() {
            return Err("duplicate deliveries".into());
        }
        match orders.iter().position(|order| order != reference) {
            Some(i) => Err(format!("node {i} diverged from node 0")),
            None => Ok(()),
        }
    }

    /// Run the cluster to quiescence: submit `txs` transactions
    /// round-robin, wait for every node to deliver all of them, assert
    /// agreement + total order, shut down. Returns the wall-clock from
    /// first submission to quiescence. This is the `dl-node` binary's
    /// workload and the CI smoke check.
    pub fn run_to_quiescence(
        self,
        txs: u64,
        tx_bytes: u32,
        timeout: Duration,
    ) -> Result<Duration, String> {
        let started = Instant::now();
        for s in 0..txs {
            let node = (s % self.spec.n as u64) as usize;
            self.submit(node, Tx::synthetic(NodeId(node as u16), s, 0, tx_bytes));
        }
        let run = || {
            self.wait_or_stall(txs, timeout)?;
            let elapsed = started.elapsed();
            self.check_total_order()?;
            Ok(elapsed)
        };
        let result = run().map_err(|msg: String| format!("{:?}: {msg}", self.spec.variant));
        self.shutdown();
        result
    }

    pub fn shutdown(self) {
        for node in self.nodes.into_iter().flatten() {
            node.shutdown();
        }
    }
}

/// The restart-recovery acceptance scenario, end to end over real TCP:
/// spawn a 4-node store-backed cluster under `data_root`, deliver a first
/// wave, **kill** node 3, deliver a second wave among the survivors, then
/// **restart** node 3 on the same address with the same data dir — it
/// must replay its write-ahead log, catch up on the missed epochs through
/// retrieval, and end with a delivered prefix identical to the
/// survivors'. This is the `dl-node --restart-smoke` workload and the CI
/// restart-recovery check.
pub fn run_restart_recovery(
    data_root: &Path,
    fsync: FsyncPolicy,
    timeout: Duration,
) -> Result<Duration, String> {
    let started = Instant::now();
    let mut spec = ClusterSpec::new(4, ProtocolVariant::Dl);
    spec.store = Some((data_root.to_path_buf(), fsync));
    // Fast down-detection and re-dial so the kill/restart cycle fits a
    // smoke-test budget.
    spec.connect_timeout = Duration::from_secs(1);
    spec.reconnect_backoff_max = Duration::from_millis(250);
    let mut cluster = LocalCluster::spawn(&spec).map_err(|e| format!("spawn failed: {e}"))?;
    let result = kill_and_restart_node_3(&mut cluster, timeout);
    cluster.shutdown();
    result.map(|()| started.elapsed())
}

fn kill_and_restart_node_3(cluster: &mut LocalCluster, timeout: Duration) -> Result<(), String> {
    // Three transactions at the three members that stay up throughout.
    let wave = |cluster: &LocalCluster, seqs: std::ops::Range<u64>| {
        for s in seqs {
            let at = s as usize % 3;
            cluster.submit(at, Tx::synthetic(NodeId(at as u16), s, 0, 250));
        }
    };
    // Wave 1: all four members alive.
    wave(cluster, 0..3);
    cluster
        .wait_or_stall(3, timeout)
        .map_err(|e| format!("wave 1 {e}"))?;
    // Wave 2: the survivors commit epochs the dead member never saw.
    cluster.kill(3);
    wave(cluster, 10..13);
    cluster
        .wait_or_stall(6, timeout)
        .map_err(|e| format!("wave 2 {e}"))?;
    // The restarted node must reach the full 6-tx prefix: wave 1 out of
    // its replayed log, wave 2 through retrieval-driven catch-up.
    cluster
        .restart(3)
        .map_err(|e| format!("restart node 3: {e}"))?;
    cluster
        .wait_or_stall(6, timeout)
        .map_err(|e| format!("catch-up {e}"))?;
    cluster.check_total_order()
}
