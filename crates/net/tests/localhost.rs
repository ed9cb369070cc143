//! `dl-net` integration tests: real 4-node TCP clusters on localhost for
//! every [`ProtocolVariant`], the zero-copy guarantee of the framed send
//! path, and robustness against garbage-speaking peers.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dl_core::ProtocolVariant;
use dl_net::{ClusterSpec, LocalCluster};
use dl_vid::{RealCoder, VidEffect};
use dl_wire::frame::{encode_frame, encode_segment};
use dl_wire::{
    BaMsg, ChunkPayload, Envelope, Epoch, FrameDecoder, NodeId, ProtoMsg, SyncMsg, Tx, VidMsg,
    WireEncode, MAX_FRAME_BODY,
};

mod hostile;

const ALL_VARIANTS: [ProtocolVariant; 4] = [
    ProtocolVariant::Dl,
    ProtocolVariant::DlCoupled,
    ProtocolVariant::HoneyBadger,
    ProtocolVariant::HoneyBadgerLink,
];

const TIMEOUT: Duration = Duration::from_secs(60);

fn spawn(spec: &ClusterSpec) -> LocalCluster {
    LocalCluster::spawn(spec).expect("spawn")
}

/// Fast down-detection and re-dial, so a kill/restart cycle fits a test.
fn fast_redial(n: usize, variant: ProtocolVariant) -> ClusterSpec {
    let mut spec = ClusterSpec::new(n, variant);
    spec.connect_timeout = Duration::from_secs(1);
    spec.reconnect_backoff_max = Duration::from_millis(250);
    spec
}

#[test]
fn four_node_tcp_cluster_reaches_total_order_under_every_variant() {
    for variant in ALL_VARIANTS {
        // run_to_quiescence asserts quiescence, per-node delivery counts,
        // no duplicates, and identical total order across nodes.
        spawn(&ClusterSpec::new(4, variant))
            .run_to_quiescence(6, 300, TIMEOUT)
            .unwrap_or_else(|msg| panic!("{msg}"));
    }
}

#[test]
fn dispersal_fan_out_through_framing_shares_the_chunk_arena() {
    // The satellite guarantee: framing an N-recipient dispersal for the
    // dl-net send path performs zero copies of the chunk payloads — every
    // frame's payload segment is a window into the erasure coder's single
    // codeword arena.
    let n = 7usize;
    let coder = RealCoder::new(n, 2);
    let block = bytes::Bytes::from(vec![0xC3u8; 64 * 1024]);
    let effects = dl_vid::Disperser::disperse(&coder, &block);

    let mut chunk_ptrs: Vec<(usize, usize)> = Vec::new(); // (addr, len)
    for eff in &effects {
        let VidEffect::Send(to, msg) = eff else {
            continue;
        };
        let VidMsg::Chunk { payload, .. } = msg else {
            continue;
        };
        let ChunkPayload::Real(bytes) = payload else {
            panic!("real coder must emit real payloads");
        };
        let env = Envelope::vid(Epoch(1), NodeId(0), msg.clone());
        let frame = encode_frame(&env);
        let shared: Vec<&bytes::Bytes> = frame.shared_segments().collect();
        assert_eq!(shared.len(), 1, "chunk to {to} not a zero-copy segment");
        // Pointer identity: the frame segment IS the chunk window.
        assert_eq!(
            shared[0].as_ref().as_ptr(),
            bytes.as_ref().as_ptr(),
            "framing copied the chunk for {to}"
        );
        chunk_ptrs.push((bytes.as_ref().as_ptr() as usize, bytes.len()));
    }
    assert_eq!(chunk_ptrs.len(), n, "one chunk per recipient");

    // All chunks are windows into ONE arena: sorted by address they are
    // exactly contiguous (the encoder writes data + parity into a single
    // allocation and hands out adjacent slices).
    chunk_ptrs.sort_unstable();
    for w in chunk_ptrs.windows(2) {
        assert_eq!(
            w[0].0 + w[0].1,
            w[1].0,
            "chunks are not adjacent windows of one arena"
        );
    }
}

#[test]
fn cluster_survives_a_garbage_speaking_peer() {
    // A malicious client that completes the hello then spews bytes that are
    // not valid frames: the reader must drop the connection and the cluster
    // must still reach total order.
    let cluster = spawn(&ClusterSpec::new(4, ProtocolVariant::Dl));
    {
        let mut evil = TcpStream::connect(cluster.addr(0)).expect("connect");
        evil.write_all(&2u16.to_le_bytes()).expect("hello"); // claim to be node 2
        let garbage: Vec<u8> = (0..4096u32).map(|i| (i * 37 + 11) as u8).collect();
        evil.write_all(&garbage).expect("garbage");
        // Also a frame with an absurd length prefix on a second connection.
        let mut evil2 = TcpStream::connect(cluster.addr(1)).expect("connect");
        evil2.write_all(&3u16.to_le_bytes()).expect("hello");
        let bomb = hostile::raw_header(0, u32::MAX.into());
        evil2.write_all(&bomb).expect("bomb");
    }
    for s in 0..4u64 {
        cluster.submit(
            s as usize % 4,
            Tx::synthetic(NodeId(s as u16 % 4), s, 0, 200),
        );
    }
    assert!(
        cluster.wait_delivered(4, TIMEOUT),
        "cluster lost liveness after garbage peer"
    );
    let orders = cluster.tx_orders();
    assert!(
        orders.windows(2).all(|w| w[0] == w[1]),
        "orders diverged after garbage peer"
    );
    cluster.shutdown();
}

#[test]
fn a_peer_that_breaks_segment_framing_is_hung_up_on() {
    // Streams no honest writer produces, each a hello and a few dozen
    // bytes: the reader must drop the connection on the header that breaks
    // the rule, not wait for bytes that will never come.
    let cluster = spawn(&ClusterSpec::new(4, ProtocolVariant::Dl));
    let vote = Envelope::vid(Epoch(1), NodeId(0), VidMsg::RequestChunk).to_bytes();
    let (start, more, end) = (2, 3, 4);
    let padded = {
        // The vote's one-byte header, padded to two: the same value, not
        // its one encoding.
        let header = hostile::raw_header(0, vote.len() as u64);
        [&[header[0] | 0x80, 0][..], &vote].concat()
    };
    let attacks = [
        (
            "length past MAX_FRAME_BODY",
            hostile::raw_header(0, MAX_FRAME_BODY as u64 + 1),
        ),
        ("non-canonical header", padded),
        ("header longer than any legal one", vec![0x80; 5]),
        ("unknown tag", hostile::raw_frame(5, &vote)),
        (
            "continuation without a start",
            hostile::raw_frame(more, &vote[..2]),
        ),
        (
            // Each length is admissible, their sum is not.
            "reassembly past MAX_FRAME_BODY",
            [
                hostile::raw_frame(start, &vote[..2]),
                hostile::raw_header(more, MAX_FRAME_BODY as u64 - 1),
            ]
            .concat(),
        ),
        (
            // A vote cut in two: a valid envelope of the wrong class.
            "class byte disagrees",
            [
                hostile::raw_frame(start, &vote[..2]),
                hostile::raw_frame(end, &vote[2..]),
            ]
            .concat(),
        ),
    ];
    for (what, bytes) in &attacks {
        let dropped = hostile::dropped_after(cluster.addr(0), 2, bytes, Duration::from_secs(10));
        assert!(dropped.expect("attack io"), "{what}: connection kept");
    }
    // The control: a retrieval response nobody asked for, honestly cut in
    // three with a vote in between, is merely unusual — the engine ignores
    // it and the connection stays.
    let block = bytes::Bytes::from(vec![7u8; 1000]);
    let chunk = dl_vid::Disperser::disperse(&RealCoder::new(4, 1), &block)
        .into_iter()
        .find_map(|effect| match effect {
            VidEffect::Send(
                _,
                VidMsg::Chunk {
                    root,
                    proof,
                    payload,
                },
            ) => Some(VidMsg::ReturnChunk {
                root,
                proof,
                payload,
            }),
            _ => None,
        })
        .map(|msg| Envelope::vid(Epoch(1), NodeId(0), msg))
        .expect("a dispersal sends chunks");
    let body = chunk.encoded_len();
    let honest = [
        encode_segment(&chunk, 0, 100).to_vec(),
        hostile::raw_frame(0, &vote),
        encode_segment(&chunk, 100, 300).to_vec(),
        encode_segment(&chunk, 400, body - 400).to_vec(),
    ]
    .concat();
    let dropped = hostile::dropped_after(cluster.addr(0), 2, &honest, Duration::from_millis(500));
    assert!(!dropped.expect("io"), "honest segments: connection dropped");
    cluster.shutdown();
}

#[test]
fn seven_node_tcp_cluster_smoke() {
    spawn(&ClusterSpec::new(7, ProtocolVariant::Dl))
        .run_to_quiescence(7, 250, TIMEOUT)
        .unwrap_or_else(|msg| panic!("{msg}"));
}

#[test]
fn pipelined_window_cluster_reaches_total_order_over_tcp() {
    // The dispersal window over the real transport: every node is handed
    // three full Nagle batches back to back, so each opens epochs past its
    // gate, and the cluster must still reach agreement + identical total
    // order (the runner asserts both).
    spawn(&ClusterSpec::new(4, ProtocolVariant::Dl))
        .run_to_quiescence(12, 160_000, TIMEOUT)
        .unwrap_or_else(|msg| panic!("{msg}"));
}

#[test]
fn cluster_reconnects_to_a_killed_and_revived_peer() {
    // The reconnect-after-drop satellite, end to end: kill a cluster
    // member mid-run, keep the surviving trio delivering (f = 1), then
    // revive the member on the same address — the survivors' writers
    // must re-dial it on their own (no node restart), observable as
    // inbound connections at the revived node, while the trio keeps
    // making progress.
    use std::time::Instant;

    let mut cluster = spawn(&fast_redial(4, ProtocolVariant::Dl));

    let wait_trio = |cluster: &LocalCluster, expected: u64| {
        let trio = || (0..3).map(|i| cluster.node(i));
        let deadline = Instant::now() + TIMEOUT;
        while trio().any(|nd| nd.stats().is_none_or(|s| s.txs_delivered < expected)) {
            assert!(
                Instant::now() < deadline,
                "trio stalled at {:?} of {expected}",
                trio()
                    .map(|nd| nd.stats().map_or(0, |s| s.txs_delivered))
                    .collect::<Vec<_>>()
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    };

    // Wave 1: all four alive.
    for s in 0..3u64 {
        cluster.submit(s as usize, Tx::synthetic(NodeId(s as u16), s, 0, 250));
    }
    wait_trio(&cluster, 3);

    // Kill node 3. Its address stays reserved in every peer list.
    cluster.kill(3);

    // Wave 2 with the peer down: survivors deliver (f = 1 absorbs the
    // loss), and their writes to node 3 fail, putting its writers into
    // the re-dial loop.
    for s in 10..13u64 {
        cluster.submit(
            (s % 3) as usize,
            Tx::synthetic(NodeId((s % 3) as u16), s, 0, 250),
        );
    }
    wait_trio(&cluster, 6);

    // Revive node 3 on the same address with a fresh engine.
    cluster.restart(3).expect("respawn");
    let revived = cluster.node(3);

    // Wave 3 keeps traffic flowing so the survivors' backed-off writers
    // dial; the revived node must see connections (3 of its own outbound
    // writers + at least one inbound reader = a survivor reconnected).
    let deadline = Instant::now() + TIMEOUT;
    let mut s = 20u64;
    while revived.connection_count() < 4 {
        assert!(
            Instant::now() < deadline,
            "survivors never reconnected to the revived peer ({} conns)",
            revived.connection_count()
        );
        cluster.submit(
            (s % 3) as usize,
            Tx::synthetic(NodeId((s % 3) as u16), s, 0, 250),
        );
        s += 1;
        std::thread::sleep(Duration::from_millis(100));
    }
    // And the cluster still makes progress after the revival.
    let node0 = cluster.node(0);
    let delivered_now = node0.stats().map_or(0, |st| st.txs_delivered);
    node0.submit_tx(Tx::synthetic(NodeId(0), 999, 0, 250));
    let deadline = Instant::now() + TIMEOUT;
    while node0
        .stats()
        .is_none_or(|st| st.txs_delivered <= delivered_now)
    {
        assert!(
            Instant::now() < deadline,
            "cluster stopped delivering after peer revival"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    cluster.shutdown();
}

#[test]
fn killed_node_restarts_from_its_wal_and_catches_up() {
    // The tentpole acceptance scenario over real TCP, shared with the
    // `dl-node --restart-smoke` CI leg: a store-backed member is killed,
    // the survivors keep committing, and the member restarted on the same
    // address with the same data dir must replay its write-ahead log,
    // fetch the missed epochs through retrieval, and end with the
    // identical delivered prefix — run_restart_recovery asserts all of
    // that and fails loudly otherwise. `Never` leaves durability to the
    // clean-stop sync alone; the replayed prefix must be the same.
    use dl_store::FsyncPolicy;
    for fsync in [FsyncPolicy::Always, FsyncPolicy::Never] {
        let data_root =
            std::env::temp_dir().join(format!("dl-net-restart-{}-{fsync:?}", std::process::id()));
        let _ = std::fs::remove_dir_all(&data_root);
        let result = dl_net::run_restart_recovery(&data_root, fsync, TIMEOUT);
        let _ = std::fs::remove_dir_all(&data_root);
        result.unwrap_or_else(|msg| panic!("{fsync:?}: {msg}"));
    }
}

#[test]
fn cluster_tolerates_a_crashed_peer() {
    // Node 3 goes down before any traffic and never comes back. The three
    // live nodes' writers must give up on it (drop instead of queueing
    // once the connect grace expires) instead of stalling, and the f = 1
    // cluster must still deliver.
    let mut cluster = spawn(&fast_redial(4, ProtocolVariant::Dl)); // give up on node 3 fast
    cluster.kill(3);
    let nodes: Vec<_> = (0..3).map(|i| cluster.node(i)).collect();

    for s in 0..3u64 {
        nodes[s as usize].submit_tx(Tx::synthetic(NodeId(s as u16), s, 0, 250));
    }
    let deadline = std::time::Instant::now() + TIMEOUT;
    while nodes
        .iter()
        .any(|nd| nd.stats().is_none_or(|s| s.txs_delivered < 3))
    {
        assert!(
            std::time::Instant::now() < deadline,
            "live nodes stalled behind the crashed peer: {:?}",
            nodes
                .iter()
                .map(|nd| nd.stats().map_or(0, |s| s.txs_delivered))
                .collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let orders: Vec<_> = nodes.iter().map(|nd| nd.tx_order()).collect();
    assert!(orders.windows(2).all(|w| w[0] == w[1]), "orders diverged");
    cluster.shutdown();
}

#[test]
fn absurd_future_sync_outcomes_are_ignored() {
    // Protocol-level garbage: correctly framed `SyncMsg::Outcome` claims
    // for epochs a billion ahead of the cluster, plus vectors sized for the
    // wrong cluster. They decode fine, so they reach the engine — which
    // must drop them at the admit path without polluting any state.
    let cluster = spawn(&ClusterSpec::new(4, ProtocolVariant::Dl));
    for s in 0..2u64 {
        cluster.submit(s as usize, Tx::synthetic(NodeId(s as u16), s, 0, 200));
    }
    assert!(cluster.wait_delivered(2, TIMEOUT), "no baseline progress");
    let mut envs = Vec::new();
    for k in 0..8u64 {
        envs.push(Envelope::sync(
            Epoch(1_000_000_000 + k),
            SyncMsg::Outcome {
                committed: vec![true; 4],
            },
        ));
        envs.push(Envelope::sync(
            Epoch(1_000_000_000 + k),
            SyncMsg::Outcome {
                committed: vec![true; 7], // wrong cluster size
            },
        ));
    }
    // Claim to be node 3 so the frames reach the engine as peer traffic.
    hostile::send_envelopes(cluster.addr(0), 3, &envs).expect("send");
    // The cluster keeps delivering and stays consistent afterwards.
    for s in 2..4u64 {
        cluster.submit(s as usize, Tx::synthetic(NodeId(s as u16), s, 0, 200));
    }
    assert!(
        cluster.wait_delivered(4, TIMEOUT),
        "cluster lost liveness after absurd sync claims"
    );
    let orders = cluster.tx_orders();
    assert!(
        orders.windows(2).all(|w| w[0] == w[1]),
        "orders diverged after absurd sync claims"
    );
    cluster.shutdown();
}

#[test]
fn a_batch_naming_a_member_past_the_cluster_is_dropped() {
    // Batches that decode fine but name instances 4 and 48 of a 4-node
    // cluster: the engine's admit path drops each whole, and the cluster
    // keeps delivering.
    let cluster = spawn(&ClusterSpec::new(4, ProtocolVariant::Dl));
    cluster.submit(0, Tx::synthetic(NodeId(0), 0, 0, 200));
    assert!(cluster.wait_delivered(1, TIMEOUT), "no baseline progress");
    let mut envs = Vec::new();
    for (first, past) in [(0, 4), (3, 4), (2, 48)] {
        for msg in [
            ProtoMsg::Ba(BaMsg::Term { value: false }),
            ProtoMsg::Ba(BaMsg::BVal {
                round: 0,
                value: false,
            }),
            ProtoMsg::Vid(VidMsg::ReadyAsGot),
        ] {
            for epoch in 1..4 {
                let mut env = Envelope::new(Epoch(epoch), NodeId(first), msg.clone());
                assert!(env.add_member(NodeId(past)));
                envs.push(env);
            }
        }
    }
    for to in 0..3 {
        hostile::send_envelopes(cluster.addr(to), 3, &envs).expect("send");
    }
    for s in 1..4u64 {
        cluster.submit(s as usize, Tx::synthetic(NodeId(s as u16), s, 0, 200));
    }
    assert!(
        cluster.wait_delivered(4, TIMEOUT),
        "cluster lost liveness after batches past the cluster"
    );
    let orders = cluster.tx_orders();
    assert!(
        orders.windows(2).all(|w| w[0] == w[1]),
        "orders diverged after batches past the cluster"
    );
    cluster.shutdown();
}

/// Listen on `addr` in a killed node's place and log, per connection, the
/// sender its hello names and every envelope it sends after it.
fn eavesdrop(addr: std::net::SocketAddr) -> Arc<Mutex<Vec<(NodeId, Envelope)>>> {
    let deadline = Instant::now() + TIMEOUT;
    let listener = loop {
        match TcpListener::bind(addr) {
            Ok(l) => break l,
            Err(e) if Instant::now() >= deadline => panic!("rebind {addr}: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let log = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    std::thread::spawn(move || {
        for mut stream in listener.incoming().flatten() {
            let log = Arc::clone(&sink);
            std::thread::spawn(move || {
                let mut hello = [0u8; 2];
                if stream.read_exact(&mut hello).is_err() {
                    return;
                }
                let from = NodeId(u16::from_le_bytes(hello));
                let mut decoder = FrameDecoder::new();
                let mut buf = vec![0u8; 64 * 1024];
                while let Ok(k @ 1..) = stream.read(&mut buf) {
                    decoder.extend(&buf[..k]);
                    while let Ok(Some(env)) = decoder.next_frame() {
                        log.lock().expect("log lock").push((from, env));
                    }
                }
            });
        }
    });
    log
}

#[test]
fn a_wrong_digest_and_a_roots_wanted_flood_get_one_answer_per_instance() {
    // Node 3 is killed and its address taken over here, so what node 0
    // sends "node 3" is read back. Posing as node 3, we send node 0 a
    // `GotChunk` batch for epoch 1's instances 0–2 under a wrong digest,
    // then ask for their roots fifty times over.
    let mut cluster = spawn(&fast_redial(4, ProtocolVariant::Dl));
    cluster.kill(3);
    let heard = eavesdrop(cluster.addr(3));
    for s in 0..3u64 {
        cluster.submit(s as usize, Tx::synthetic(NodeId(s as u16), s, 0, 200));
    }
    assert!(cluster.wait_delivered(3, TIMEOUT), "no baseline progress");
    let from_0 = |want: &dyn Fn(&Envelope) -> bool| -> Vec<Envelope> {
        let log = heard.lock().expect("log lock");
        log.iter()
            .filter(|(from, env)| *from == NodeId(0) && want(env))
            .map(|(_, env)| env.clone())
            .collect()
    };
    // Node 0's writer has re-dialled us and delivered epoch-1 traffic.
    let deadline = Instant::now() + TIMEOUT;
    while from_0(&|env| env.epoch == Epoch(1)).is_empty() {
        assert!(
            Instant::now() < deadline,
            "node 0 never dialled node 3's address"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let members = |msg: VidMsg| {
        let mut env = Envelope::vid(Epoch(1), NodeId(0), msg);
        for m in [1, 2] {
            assert!(env.add_member(NodeId(m)));
        }
        env
    };
    // The digest of no member at all: never epoch 1's.
    let mut envs = vec![members(VidMsg::GotChunk {
        root: dl_wire::got_digest(Epoch(1), []),
    })];
    envs.extend((0..50).map(|_| members(VidMsg::RootsWanted)));
    hostile::send_envelopes(cluster.addr(0), 3, &envs).expect("send");
    // The wrong digest is answered with one `RootsWanted` for all three.
    let wanted = |env: &Envelope| matches!(env.payload, ProtoMsg::Vid(VidMsg::RootsWanted));
    let deadline = Instant::now() + TIMEOUT;
    while from_0(&wanted).is_empty() {
        assert!(
            Instant::now() < deadline,
            "no RootsWanted for a wrong digest"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // The cluster keeps delivering, and everything is in by then.
    for s in 0..3u64 {
        cluster.submit(s as usize, Tx::synthetic(NodeId(s as u16), s, 1, 200));
    }
    assert!(
        cluster.wait_delivered(6, TIMEOUT),
        "cluster lost liveness after a RootsWanted flood"
    );
    let orders = cluster.tx_orders();
    assert!(orders.windows(2).all(|w| w[0] == w[1]), "orders diverged");
    std::thread::sleep(Duration::from_millis(200));
    let asks = from_0(&wanted);
    assert_eq!(asks.len(), 1, "{asks:?}");
    assert_eq!(
        asks[0].members().map(|m| m.0).collect::<Vec<_>>(),
        [0, 1, 2]
    );
    // Each instance's root comes back once: node 0 broadcasts no
    // `GotChunk` for its own instance, and at most one more (alone, or in
    // a digest batch) for the others.
    for j in 0..3u16 {
        let plain = from_0(&|env| {
            env.epoch == Epoch(1)
                && env.index == NodeId(j)
                && !env.is_batch()
                && matches!(env.payload, ProtoMsg::Vid(VidMsg::GotChunk { .. }))
        });
        let most = if j == 0 { 1 } else { 2 };
        assert!(
            (1..=most).contains(&plain.len()),
            "instance {j}: {} plain GotChunks",
            plain.len()
        );
    }
    cluster.shutdown();
}

#[test]
fn cluster_survives_seeded_hostile_peers() {
    // Four seeded adversarial clients hammer every listener while an
    // honest workload flows: bad hellos, frame-desynchronizing garbage
    // floods, and slow-loris dribbles. Reproducible byte-for-byte from the
    // seeds.
    let cluster = spawn(&ClusterSpec::new(4, ProtocolVariant::Dl));
    let mut attackers = Vec::new();
    for (i, seed) in [11u64, 22, 33, 44].into_iter().enumerate() {
        let peer = hostile::HostilePeer {
            seed,
            // Half impersonate a live node id, half present junk ids the
            // hello check must reject outright.
            hello_as: (i % 2 == 0).then_some(2),
            bursts: 6,
            burst_bytes: 2048,
            stall: Duration::from_millis(if i == 3 { 40 } else { 0 }),
        };
        let addr = cluster.addr(i);
        attackers.push(std::thread::spawn(move || peer.run(addr)));
    }
    for s in 0..4u64 {
        cluster.submit(
            s as usize % 4,
            Tx::synthetic(NodeId(s as u16 % 4), s, 0, 200),
        );
    }
    assert!(
        cluster.wait_delivered(4, TIMEOUT),
        "cluster lost liveness under hostile peers"
    );
    for a in attackers {
        a.join().expect("attacker panicked").expect("attacker io");
    }
    let orders = cluster.tx_orders();
    assert!(
        orders.windows(2).all(|w| w[0] == w[1]),
        "orders diverged under hostile peers"
    );
    cluster.shutdown();
}
