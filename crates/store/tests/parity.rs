//! Backend parity: a node restored from the file-segment log must be
//! indistinguishable from one restored from the memory log, and a torn
//! file tail must degrade to a clean prefix of the same history.

use std::collections::VecDeque;

use dl_core::{
    Engine, EngineExt, Node, NodeConfig, NodeEffect, ProtocolVariant, RealBlockCoder, StoreRecord,
};
use dl_store::{ChainStore, DamageKind, FileStore, MemoryStore};
use dl_wire::{ClusterConfig, Envelope, NodeId, Tx, WireDecode, WireEncode};

/// Drive a 4-node DL cluster synchronously, appending every node's WAL
/// records to the supplied stores (one per node), and return the final
/// nodes. One transaction is submitted per round for three rounds, rotating
/// proposers, with 250 virtual ms per round — enough for at least one epoch
/// each.
fn run_cluster(stores: &mut [Vec<&mut dyn ChainStore>]) -> Vec<Node<RealBlockCoder>> {
    let cluster = ClusterConfig::new(4);
    let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    let mut nodes: Vec<Node<RealBlockCoder>> = (0..4)
        .map(|i| Node::new(NodeId(i), cfg.clone(), RealBlockCoder::new(&cluster)))
        .collect();
    let mut wire: VecDeque<(NodeId, NodeId, Envelope)> = VecDeque::new();
    let mut now = 0u64;
    let sink = |from: usize,
                effects: Vec<NodeEffect>,
                wire: &mut VecDeque<(NodeId, NodeId, Envelope)>,
                stores: &mut [Vec<&mut dyn ChainStore>]| {
        for eff in effects {
            match eff {
                NodeEffect::Send(to, env) => wire.push_back((NodeId(from as u16), to, env)),
                NodeEffect::Persist(rec) => {
                    let bytes = rec.to_bytes();
                    for store in stores[from].iter_mut() {
                        store.append(&bytes).expect("append");
                    }
                }
                _ => {}
            }
        }
    };
    for round in 0..3 {
        let i = (round % 4) as usize;
        let effs = nodes[i].submit_tx_vec(Tx::synthetic(NodeId(i as u16), round, now, 120), now);
        sink(i, effs, &mut wire, stores);
        for _ in 0..25 {
            now += 10;
            for (i, node) in nodes.iter_mut().enumerate() {
                let effs = node.poll_vec(now);
                sink(i, effs, &mut wire, stores);
            }
            while let Some((from, to, env)) = wire.pop_front() {
                let effs = nodes[to.idx()].handle_vec(from, env, now);
                sink(to.idx(), effs, &mut wire, stores);
            }
        }
    }
    nodes
}

fn decode_all(raw: &[Vec<u8>]) -> Vec<StoreRecord> {
    raw.iter()
        .map(|r| StoreRecord::from_bytes(r).expect("valid record"))
        .collect()
}

fn restored(records: &[StoreRecord]) -> Node<RealBlockCoder> {
    let cluster = ClusterConfig::new(4);
    let cfg = NodeConfig::new(cluster.clone(), ProtocolVariant::Dl);
    let mut node = Node::new(NodeId(3), cfg, RealBlockCoder::new(&cluster));
    node.restore(records);
    node
}

#[test]
fn memory_and_file_backends_replay_to_identical_node_state() {
    let dir = std::env::temp_dir().join(format!("dl-store-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut mem: Vec<MemoryStore> = (0..4).map(|_| MemoryStore::new()).collect();
    let mut file: Vec<FileStore> = (0..4)
        .map(|i| FileStore::open(dir.join(format!("node{i}.log"))).expect("open"))
        .collect();
    let originals = {
        let mut stores: Vec<Vec<&mut dyn ChainStore>> = Vec::new();
        for (m, f) in mem.iter_mut().zip(file.iter_mut()) {
            stores.push(vec![m as &mut dyn ChainStore, f as &mut dyn ChainStore]);
        }
        run_cluster(&mut stores)
    };
    assert!(
        originals[3].delivered_frontier().0 >= 1,
        "cluster made no progress"
    );
    for i in 0..4 {
        // Byte-level parity between the two backends, across a reopen.
        file[i].sync().expect("sync");
        let reopened = FileStore::open(dir.join(format!("node{i}.log"))).expect("reopen");
        let mem_raw = mem[i].replay().expect("memory replay");
        let file_raw = reopened.replay().expect("file replay");
        assert_eq!(mem_raw, file_raw, "node {i}: backends diverged");
        assert!(!mem_raw.is_empty(), "node {i}: nothing was persisted");
    }
    // Node-state parity: restoring from either log yields the same node.
    let from_mem = restored(&decode_all(&mem[3].replay().unwrap()));
    let from_file = restored(&decode_all(&file[3].replay().unwrap()));
    assert_eq!(
        from_mem.delivered_frontier(),
        from_file.delivered_frontier()
    );
    assert_eq!(
        from_mem.agreement_frontier(),
        from_file.agreement_frontier()
    );
    assert_eq!(
        from_mem.delivered_frontier(),
        originals[3].delivered_frontier(),
        "replay lost the durable horizon"
    );
    // Behavioral parity: the first poll after restart (which launches the
    // catch-up sync round) produces the identical effect stream.
    let mut a = from_mem;
    let mut b = from_file;
    let ea = a.poll_vec(5000);
    let eb = b.poll_vec(5000);
    assert_eq!(ea, eb, "restored nodes diverged on their first poll");
    assert!(
        ea.iter()
            .any(|e| matches!(e, NodeEffect::Send(_, env) if env.wire_size() < 64)),
        "restored node did not start catch-up sync"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_file_tail_degrades_to_a_clean_prefix() {
    let dir = std::env::temp_dir().join(format!("dl-store-torn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut mem: Vec<MemoryStore> = (0..4).map(|_| MemoryStore::new()).collect();
    let mut file: Vec<FileStore> = (0..4)
        .map(|i| FileStore::open(dir.join(format!("node{i}.log"))).expect("open"))
        .collect();
    {
        let mut stores: Vec<Vec<&mut dyn ChainStore>> = Vec::new();
        for (m, f) in mem.iter_mut().zip(file.iter_mut()) {
            stores.push(vec![m as &mut dyn ChainStore, f as &mut dyn ChainStore]);
        }
        run_cluster(&mut stores);
    }
    file[3].sync().expect("sync");
    drop(file);
    // Tear the tail mid-record, as a crash mid-write would.
    let path = dir.join("node3.log");
    let bytes = std::fs::read(&path).expect("read log");
    std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear");
    let reopened = FileStore::open(&path).expect("reopen torn log");
    let torn = reopened.replay().expect("replay torn");
    let full = mem[3].replay().expect("memory replay");
    assert_eq!(
        torn.len(),
        full.len() - 1,
        "exactly the torn record is lost"
    );
    assert_eq!(torn[..], full[..full.len() - 1], "prefix must be untouched");
    // The surviving prefix still decodes and restores cleanly.
    let node = restored(&decode_all(&torn));
    assert!(node.sync_active());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_log_corruption_stops_replay_at_the_first_bad_record() {
    let dir = std::env::temp_dir().join(format!("dl-store-midcrc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut mem: Vec<MemoryStore> = (0..4).map(|_| MemoryStore::new()).collect();
    let mut file: Vec<FileStore> = (0..4)
        .map(|i| FileStore::open(dir.join(format!("node{i}.log"))).expect("open"))
        .collect();
    {
        let mut stores: Vec<Vec<&mut dyn ChainStore>> = Vec::new();
        for (m, f) in mem.iter_mut().zip(file.iter_mut()) {
            stores.push(vec![m as &mut dyn ChainStore, f as &mut dyn ChainStore]);
        }
        run_cluster(&mut stores);
    }
    file[3].sync().expect("sync");
    drop(file);
    // Flip one bit of the CRC field of a record in the *middle* of the log.
    let full = mem[3].replay().unwrap();
    assert!(full.len() >= 4, "workload too small to have a middle");
    let bad_index = full.len() / 2;
    let bad_offset: u64 = full[..bad_index].iter().map(|r| 8 + r.len() as u64).sum();
    let path = dir.join("node3.log");
    let mut bytes = std::fs::read(&path).expect("read log");
    bytes[bad_offset as usize + 4] ^= 0x40;
    std::fs::write(&path, &bytes).expect("write corrupted log");
    // Replay stops at the first bad record — everything after it is
    // untrusted even though it checksums fine — and the damage is
    // surfaced as corruption, not mistaken for a crash's torn tail.
    let reopened = FileStore::open(&path).expect("reopen corrupt log");
    let survived = reopened.replay().expect("replay");
    assert_eq!(survived[..], full[..bad_index], "bad prefix");
    let damage = reopened.tail_damage().expect("corruption not reported");
    assert_eq!(damage.kind, DamageKind::Corruption);
    assert_eq!(damage.offset, bad_offset);
    assert_eq!(damage.lost_bytes, bytes.len() as u64 - bad_offset);
    // The surviving prefix still restores a usable node.
    let node = restored(&decode_all(&survived));
    assert!(node.sync_active());
    let _ = std::fs::remove_dir_all(&dir);
}
