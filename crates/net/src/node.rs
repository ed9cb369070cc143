//! One running cluster member: the engine thread, the listener with its
//! per-connection readers, and the per-peer writers (threading model in
//! the crate docs).

use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dl_core::{DeliveredBlock, EffectSink, Engine, NodeStats, StoreRecord};
use dl_store::{ChainStore, FileStore, FsyncPolicy};
use dl_wire::frame::{FrameDecoder, SegmentBuf};
use dl_wire::{Envelope, Epoch, NodeId, Tx, WireDecode, WireEncode};

use crate::config::{NetConfig, MAX_OUTBOX_BYTES, TICK_MS};
use crate::outbox::{Outbox, Outboxes};

/// Inputs serialized into the engine thread.
enum Input {
    Tx(Tx),
    Env { from: NodeId, env: Envelope },
}

/// State the engine thread shares with the handle and the IO threads.
#[derive(Default)]
pub(crate) struct Shared {
    pub(crate) stop: AtomicBool,
    delivered: Mutex<Vec<DeliveredBlock>>,
    /// Engine counter snapshot; `None` for engines that keep none
    /// (Byzantine members), mirroring [`Engine::stats`].
    stats: Mutex<Option<NodeStats>>,
    /// Streams registered for forced shutdown (unblocks reader/writer IO),
    /// keyed so each thread prunes its entry on exit — a flapping peer
    /// must not grow the registry (or leak fds) for the node's lifetime.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    next_conn_id: AtomicU64,
}

impl Shared {
    /// Register a stream for shutdown-time unblocking; the caller removes
    /// it with [`Shared::forget_conn`] when its IO loop exits.
    fn register_conn(&self, stream: &TcpStream) -> u64 {
        let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
        match stream.try_clone() {
            Ok(clone) => self.conns.lock().expect("conns lock").push((id, clone)),
            // Unregistrable (fd exhaustion): refuse the connection rather
            // than hold one that shutdown() could never unblock.
            Err(_) => {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        // Shutdown may already have swept the registry: close the stream
        // ourselves so a connection accepted mid-shutdown cannot strand
        // its reader in a blocking read forever.
        if self.stop.load(Ordering::Relaxed) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        id
    }

    fn forget_conn(&self, id: u64) {
        self.conns
            .lock()
            .expect("conns lock")
            .retain(|(cid, _)| *cid != id);
    }
}

/// The engine thread's effect sink: `send` goes to the peer outboxes,
/// `deliver` into the shared log, `wake_at` shortens the next poll (one at
/// or before now is served once the engine loop's drain is handed over), and
/// `persist` appends to the write-ahead log (when the node has one) —
/// before any later effect of the same engine call reaches a socket,
/// because the writers drain the outboxes asynchronously anyway.
struct NetSink {
    me: NodeId,
    outboxes: Outboxes,
    shared: Arc<Shared>,
    next_wake: Option<u64>,
    store: Option<FileStore>,
    fsync: FsyncPolicy,
}

impl EffectSink for NetSink {
    fn send(&mut self, to: NodeId, env: Envelope) {
        self.outboxes.send(self.me, to, env);
    }

    fn deliver(&mut self, block: DeliveredBlock) {
        self.shared
            .delivered
            .lock()
            .expect("delivered lock")
            .push(block);
    }

    fn wake_at(&mut self, at_ms: u64) {
        self.next_wake = Some(self.next_wake.map_or(at_ms, |w| w.min(at_ms)));
    }

    fn persists(&self) -> bool {
        self.store.is_some()
    }

    fn persist(&mut self, record: StoreRecord) {
        let Some(store) = self.store.as_mut() else {
            return;
        };
        // A WAL that stops accepting writes voids every durability claim
        // the node would go on making; dying loudly beats running on.
        store
            .append(&record.to_bytes())
            .expect("write-ahead log append failed");
        let sync_now = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EpochBoundary => record.is_epoch_boundary(),
            FsyncPolicy::Never => false,
        };
        if sync_now {
            store.sync().expect("write-ahead log fsync failed");
        }
    }

    fn purge_returns(&mut self, to: NodeId, epoch: Epoch, index: NodeId) {
        if let Some(outbox) = self.outboxes.slots[to.idx()].as_ref() {
            outbox.purge_returns(epoch, index);
        }
    }
}

/// Write all of `buf`'s segments with vectored IO, handling partial
/// writes. The shared payload segments go to the socket straight from the
/// encode arena — this is the zero-copy send path.
pub fn write_segments(w: &mut impl Write, buf: &SegmentBuf) -> io::Result<()> {
    let total = buf.len();
    let mut written = 0usize;
    while written < total {
        // Common case: one vectored write of the whole frame. After a
        // partial write, rebuild the iovec past what the last syscall
        // consumed (rare; re-walking the segment list is cheap).
        let slices: Vec<IoSlice<'_>> = if written == 0 {
            buf.io_slices()
        } else {
            let mut skip = written;
            buf.segments()
                .filter_map(|s| {
                    if skip >= s.len() {
                        skip -= s.len();
                        return None;
                    }
                    let slice = IoSlice::new(&s[skip..]);
                    skip = 0;
                    Some(slice)
                })
                .collect()
        };
        let n = match w.write_vectored(&slices) {
            Ok(n) => n,
            // EINTR is a retry, not a dead peer (std's write_all does the
            // same); anything else ends the connection.
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        written += n;
    }
    Ok(())
}

/// A running cluster member: engine thread + listener + per-peer writers.
pub struct NetNode {
    input: Sender<Input>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl NetNode {
    /// Spawn a node around `engine`. `listener` must already be bound to
    /// `cfg.peers[cfg.me]` (binding first is what makes port assignment
    /// race-free for in-process clusters).
    ///
    /// With `cfg.data_dir` set, the node's write-ahead log is opened (and
    /// its torn tail truncated) *before* any thread starts: an existing
    /// log is replayed through [`Engine::restore`], the delivered prefix
    /// is pre-filled into [`NetNode::delivered`], and the engine resumes
    /// from its durable horizon — fetching whatever it missed from peers
    /// through the retrieval-driven catch-up protocol.
    pub fn spawn(
        mut engine: Box<dyn Engine + Send>,
        listener: TcpListener,
        cfg: NetConfig,
    ) -> io::Result<NetNode> {
        assert_eq!(engine.id(), cfg.me, "engine identity/config mismatch");
        let n = cfg.peers.len();
        assert!(cfg.me.idx() < n, "node id out of range");
        let mut store = None;
        let mut replayed_delivered = Vec::new();
        if let Some(dir) = &cfg.data_dir {
            let file = FileStore::open(dir.join(format!("node{}.log", cfg.me.0)))?;
            let records: Vec<StoreRecord> = file
                .replay()?
                .iter()
                .map(|raw| {
                    StoreRecord::from_bytes(raw).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("undecodable write-ahead record: {e:?}"),
                        )
                    })
                })
                .collect::<io::Result<_>>()?;
            replayed_delivered = records
                .iter()
                .filter_map(|rec| match rec {
                    StoreRecord::Delivered {
                        epoch,
                        proposer,
                        via_link,
                        block,
                    } => Some(DeliveredBlock {
                        epoch: *epoch,
                        proposer: *proposer,
                        block: block.clone(),
                        via_link: *via_link,
                        // Delivered before this process's clock existed.
                        delivered_ms: 0,
                    }),
                    _ => None,
                })
                .collect();
            engine.restore(&records);
            store = Some(file);
        }
        let shared = Arc::new(Shared {
            delivered: Mutex::new(replayed_delivered),
            ..Shared::default()
        });
        let (input_tx, input_rx) = mpsc::channel::<Input>();
        let mut threads = Vec::new();

        // Per-peer writers, each with its own prioritized outbox.
        let mut slots: Vec<Option<Arc<Outbox>>> = (0..n).map(|_| None).collect();
        for (j, &addr) in cfg.peers.iter().enumerate() {
            if j == cfg.me.idx() {
                continue;
            }
            let outbox = Arc::new(Outbox::new(MAX_OUTBOX_BYTES));
            slots[j] = Some(Arc::clone(&outbox));
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            threads.push(std::thread::spawn(move || {
                writer_loop(addr, outbox, shared, &cfg);
            }));
        }

        // Listener: accepts peer connections and spawns a reader each.
        listener.set_nonblocking(true)?;
        {
            let shared = Arc::clone(&shared);
            let input_tx = input_tx.clone();
            threads.push(std::thread::spawn(move || {
                listen_loop(listener, n, shared, input_tx);
            }));
        }

        // The engine thread.
        {
            let sink = NetSink {
                me: cfg.me,
                outboxes: Outboxes {
                    slots,
                    shared: Arc::clone(&shared),
                },
                shared: Arc::clone(&shared),
                next_wake: None,
                store,
                fsync: cfg.fsync,
            };
            threads.push(std::thread::spawn(move || {
                engine_loop(engine, input_rx, sink);
            }));
        }

        Ok(NetNode {
            input: input_tx,
            shared,
            threads,
        })
    }

    /// Hand a client transaction to the engine.
    pub fn submit_tx(&self, tx: Tx) {
        let _ = self.input.send(Input::Tx(tx));
    }

    /// Snapshot of the engine counters (as of its last snapshot tick).
    /// `None` for engines that keep none (Byzantine members), matching
    /// [`Engine::stats`].
    pub fn stats(&self) -> Option<NodeStats> {
        *self.shared.stats.lock().expect("stats lock")
    }

    /// Number of live TCP connections (inbound readers + outbound
    /// writers) currently registered. Diagnostics — the reconnect tests
    /// use it to observe peers re-establishing links to a revived node.
    pub fn connection_count(&self) -> usize {
        self.shared.conns.lock().expect("conns lock").len()
    }

    /// Snapshot of everything delivered so far, in delivery order.
    pub fn delivered(&self) -> Vec<DeliveredBlock> {
        self.shared
            .delivered
            .lock()
            .expect("delivered lock")
            .clone()
    }

    /// Transactions delivered so far. Unlike [`NodeStats::txs_delivered`]
    /// this counts the prefix a restarted node replayed from its log.
    pub(crate) fn txs_delivered(&self) -> u64 {
        let delivered = self.shared.delivered.lock().expect("delivered lock");
        delivered
            .iter()
            .filter_map(|d| d.block.as_ref())
            .map(|b| b.tx_count() as u64)
            .sum()
    }

    /// Delivered transaction ids in total-order position.
    pub fn tx_order(&self) -> Vec<(NodeId, u64)> {
        self.delivered()
            .iter()
            .filter_map(|d| d.block.as_ref())
            .flat_map(|b| b.body.iter().map(Tx::id))
            .collect()
    }

    /// Stop all threads and join them. Outbound envelopes still queued are
    /// dropped (TCP teardown loses them anyway).
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        for (_, conn) in self.shared.conns.lock().expect("conns lock").iter() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn now_since(start: Instant) -> u64 {
    start.elapsed().as_millis() as u64
}

/// Most queued inputs one instant of [`engine_loop`] hands over.
const DRAIN_MAX: usize = 1024;

fn engine_loop(mut engine: Box<dyn Engine + Send>, input: Receiver<Input>, mut sink: NetSink) {
    let shared = Arc::clone(&sink.shared);
    let start = Instant::now();
    let mut last_snapshot = Instant::now();
    while !shared.stop.load(Ordering::Relaxed) {
        let now = now_since(start);
        let wait = sink
            .next_wake
            .map(|w| w.saturating_sub(now))
            .unwrap_or(TICK_MS)
            .clamp(1, TICK_MS);
        let received = input.recv_timeout(Duration::from_millis(wait));
        let now = now_since(start);
        // A wake deadline we just slept to is served by the processing
        // below (handle/poll both run the engine to a fixed point);
        // clearing it first avoids a redundant back-to-back poll.
        if sink.next_wake.is_some_and(|w| w <= now) {
            sink.next_wake = None;
        }
        match received {
            Ok(first) => {
                // One drain is one instant: everything queued behind the
                // first input is handed over at the same `now` before a due
                // wake poll runs, so the batches the engine holds for the
                // instant leave once (`EffectSink::wake_at`). Bounded, so a
                // flood cannot hold an instant open for ever: the rest
                // waits for the next turn of the loop.
                let queued = std::iter::from_fn(|| input.try_recv().ok());
                for item in std::iter::once(first).chain(queued).take(DRAIN_MAX) {
                    match item {
                        Input::Tx(tx) => engine.submit_tx(tx, now, &mut sink),
                        Input::Env { from, env } => engine.handle(from, env, now, &mut sink),
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => engine.poll(now, &mut sink),
            Err(RecvTimeoutError::Disconnected) => break,
        }
        // Wake hints already due: poll before sleeping again (each poll may
        // set a new hint, so loop until none is due).
        loop {
            let now = now_since(start);
            if sink.next_wake.is_none_or(|w| w > now) {
                break;
            }
            sink.next_wake = None;
            engine.poll(now, &mut sink);
        }
        // Snapshot counters on the tick cadence (elapsed time, so
        // sustained traffic cannot starve readers), not per event: readers
        // poll at ~25 ms anyway and the engine hot path should not pay a
        // lock + struct copy per envelope.
        if last_snapshot.elapsed() >= Duration::from_millis(TICK_MS) {
            last_snapshot = Instant::now();
            *shared.stats.lock().expect("stats lock") = engine.stats();
        }
    }
    // Final snapshot so late readers see the end state, and a clean-stop
    // fsync so a graceful shutdown never leaves an unsynced tail.
    *shared.stats.lock().expect("stats lock") = engine.stats();
    if let Some(store) = sink.store.as_mut() {
        store.sync().expect("write-ahead log fsync failed");
    }
}

fn listen_loop(listener: TcpListener, n: usize, shared: Arc<Shared>, input: Sender<Input>) {
    while !shared.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::Relaxed) {
                    break; // accepted in the middle of shutdown
                }
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                let conn_id = shared.register_conn(&stream);
                let input = input.clone();
                let shared = Arc::clone(&shared);
                // Readers are joined indirectly: shutdown() closes their
                // socket, which ends the loop; the thread then exits.
                std::thread::spawn(move || {
                    let _ = reader_loop(stream, n, input);
                    shared.forget_conn(conn_id);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            // Transient accept failures (ECONNABORTED from a peer RSTing
            // mid-handshake, EMFILE under fd pressure, EINTR) must not
            // kill inbound connectivity for the node's lifetime; back off
            // and keep accepting until told to stop.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Read frames off one inbound connection and feed them to the engine.
/// Returns on EOF, socket error, or the first frame error (a Byzantine or
/// desynchronized peer): framing cannot be re-synchronized, so the
/// connection is dropped. `?` works uniformly because frame and codec
/// errors convert into `io::Error`.
fn reader_loop(mut stream: TcpStream, n: usize, input: Sender<Input>) -> io::Result<()> {
    let mut hello = [0u8; 2];
    stream.read_exact(&mut hello)?;
    let from = NodeId(u16::from_le_bytes(hello));
    if from.idx() >= n {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "hello from out-of-range node id",
        ));
    }
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let k = stream.read(&mut buf)?;
        if k == 0 {
            return Ok(()); // peer closed
        }
        decoder.extend(&buf[..k]);
        while let Some(env) = decoder.next_frame()? {
            if input.send(Input::Env { from, env }).is_err() {
                return Ok(()); // engine gone: shutting down
            }
        }
    }
}

/// Sleep `dur` in small slices, returning early (false) if `stop` flips.
fn sleep_unless_stopped(dur: Duration, stop: &AtomicBool) -> bool {
    let deadline = Instant::now() + dur;
    while Instant::now() < deadline {
        if stop.load(Ordering::Relaxed) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25).min(deadline - Instant::now()));
    }
    !stop.load(Ordering::Relaxed)
}

/// Connect to `addr` (retrying while the peer boots), send our hello, then
/// drain the outbox in §5 priority order with vectored, zero-copy writes —
/// one frame per turn, `ReturnChunk` bulk a write quantum at a time, so a
/// vote queued behind a chunk waits for one write of it, not all of it.
///
/// A dropped connection does **not** retire the peer: the writer dials
/// again with capped exponential backoff, forever, until node shutdown.
/// Engine protection is two-tier. While the peer stays down past
/// `connect_timeout` the outbox is **lossy** (drop everything). From the
/// first disconnect until a replacement connection has drained
/// successfully for a whole `write_timeout`, the outbox is on
/// **probation** (`no_block`): traffic queues up to the bound but
/// producers are never blocked — so a frozen process whose kernel still
/// accepts dials (or an accept-then-reset peer) cannot re-earn
/// backpressure and stall the engine, preserving the PR 4 invariant.
/// The dial backoff likewise only resets after a successful write, not a
/// successful connect, so accept-then-fail peers see growing intervals.
/// A genuinely revived peer drains the queue, passes probation, and
/// resumes normal bounded backpressure with no node restart.
fn writer_loop(addr: SocketAddr, outbox: Arc<Outbox>, shared: Arc<Shared>, cfg: &NetConfig) {
    let mut backoff = Duration::from_millis(50);
    loop {
        // Dial phase. Traffic queues (bounded) during the grace period,
        // then the outbox goes lossy until the peer answers.
        let grace_deadline = Instant::now() + cfg.connect_timeout;
        let mut stream = loop {
            if shared.stop.load(Ordering::Relaxed) {
                outbox.mark_dead();
                return;
            }
            match TcpStream::connect_timeout(&addr, Duration::from_millis(250)) {
                Ok(s) => break s,
                Err(_) => {
                    if Instant::now() >= grace_deadline {
                        outbox.set_lossy(true);
                    }
                    if !sleep_unless_stopped(backoff, &shared.stop) {
                        outbox.mark_dead();
                        return;
                    }
                    backoff = (backoff * 2).min(cfg.reconnect_backoff_max);
                }
            }
        };
        outbox.set_lossy(false);
        let _ = stream.set_nodelay(true);
        // A peer that accepts no bytes for a whole write_timeout is
        // frozen or silently partitioned: the erroring write tears the
        // connection down and the dial phase takes over again.
        let _ = stream.set_write_timeout(Some(cfg.write_timeout));
        let conn_id = shared.register_conn(&stream);
        let mut run = || -> io::Result<()> {
            stream.write_all(&cfg.me.0.to_le_bytes())?;
            // Probation lifts only on *sustained* drains: a write_timeout
            // must separate the first and a later successful write on
            // this connection. Anchoring on the first write (not the
            // connect) means a long-idle connection cannot re-earn
            // backpressure off a single buffered write.
            let mut first_write_ok: Option<Instant> = None;
            while let Some(frame) = outbox.next_frame(&shared.stop) {
                write_segments(&mut stream, &frame)?;
                // The peer demonstrably drains: reset the dial backoff.
                backoff = Duration::from_millis(50);
                let now = Instant::now();
                let anchor = *first_write_ok.get_or_insert(now);
                if now.duration_since(anchor) >= cfg.write_timeout {
                    outbox.set_no_block(false);
                }
            }
            Ok(())
        };
        let _ = run();
        shared.forget_conn(conn_id);
        if shared.stop.load(Ordering::Relaxed) {
            // Clean stop: the outbox must never again block a producer.
            outbox.mark_dead();
            return;
        }
        // Connection died (the envelope being written, if any, is lost —
        // within the protocol's loss tolerance; queued envelopes survive
        // and go out on the next connection). Probation until the
        // replacement proves itself; then dial again with backoff.
        outbox.abandon_partly_sent();
        outbox.set_no_block(true);
        if !sleep_unless_stopped(backoff, &shared.stop) {
            outbox.mark_dead();
            return;
        }
        backoff = (backoff * 2).min(cfg.reconnect_backoff_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_wire::{Sink, VidMsg};

    #[test]
    fn write_segments_handles_partial_vectored_writes() {
        /// A writer that accepts at most 3 bytes per call, forcing the
        /// partial-write resume path through every segment boundary.
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let k = buf.len().min(3);
                self.0.extend_from_slice(&buf[..k]);
                Ok(k)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut buf = SegmentBuf::new();
        buf.put(b"header");
        buf.put_shared(&bytes::Bytes::from(vec![7u8; 200]));
        buf.put(b"tail");
        let mut sink = Dribble(Vec::new());
        write_segments(&mut sink, &buf).unwrap();
        assert_eq!(sink.0, buf.to_vec());
    }

    /// A real dispersal's chunk (k = 2: half of a 2 MB block), served back
    /// as a retrieval response.
    fn megabyte_return_chunk() -> Envelope {
        let block = bytes::Bytes::from((0..2 << 20).map(|i| i as u8).collect::<Vec<u8>>());
        dl_vid::Disperser::disperse(&dl_vid::RealCoder::new(4, 1), &block)
            .into_iter()
            .find_map(|effect| match effect {
                dl_vid::VidEffect::Send(
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
            .map(|msg| Envelope::vid(Epoch(3), NodeId(1), msg))
            .expect("a dispersal sends chunks")
    }

    #[test]
    fn a_partly_written_chunk_is_dropped_with_its_connection_or_its_peer() {
        let clears: [fn(&Outbox); 3] = [
            Outbox::abandon_partly_sent,
            |outbox| {
                outbox.set_lossy(true);
                outbox.set_lossy(false);
            },
            Outbox::mark_dead,
        ];
        for (i, clear) in clears.into_iter().enumerate() {
            let stop = AtomicBool::new(false);
            let outbox = Outbox::new(usize::MAX);
            outbox.push(megabyte_return_chunk(), &stop);
            outbox.next_frame(&stop).expect("the chunk's first segment");
            clear(&outbox);
            // Whoever reads the next connection has no reassembly open:
            // the rest of the chunk must not reach it. A dead peer's
            // outbox takes nothing at all.
            let vote = Envelope::vid(Epoch(4), NodeId(0), VidMsg::RequestChunk);
            outbox.push(vote.clone(), &stop);
            stop.store(true, Ordering::Relaxed);
            if i < 2 {
                let mut decoder = FrameDecoder::new();
                decoder.extend(&outbox.next_frame(&stop).expect("the vote").to_vec());
                assert_eq!(decoder.next_frame().expect("valid"), Some(vote));
            }
            assert!(outbox.next_frame(&stop).is_none(), "clear {i} left bulk");
        }
    }

    #[test]
    fn a_vote_queued_behind_a_megabyte_chunk_is_on_the_wire_within_one_write_quantum() {
        use crate::outbox::WRITE_QUANTUM;

        /// The socket: takes at most 1000 bytes per call and keeps them.
        struct Dribble(Vec<u8>);
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let k = buf.len().min(1000);
                self.0.extend_from_slice(&buf[..k]);
                Ok(k)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let stop = AtomicBool::new(false);
        let outbox = Outbox::new(usize::MAX);
        let mut wire = Dribble(Vec::new());
        let turn = |wire: &mut Dribble| {
            let frame = outbox.next_frame(&stop).expect("queued");
            write_segments(wire, &frame).expect("write to memory");
        };
        let chunk = megabyte_return_chunk();
        let vote = Envelope::vid(Epoch(4), NodeId(0), VidMsg::RequestChunk);
        // The chunk is being written when the vote is queued.
        outbox.push(chunk.clone(), &stop);
        turn(&mut wire);
        outbox.push(vote.clone(), &stop);
        turn(&mut wire);
        assert!(
            wire.0.len() <= WRITE_QUANTUM + vote.wire_size(),
            "{} bytes written before the vote was out",
            wire.0.len()
        );
        // The receiver has the vote now, and the chunk — intact — once its
        // ⌈1 MB / quantum⌉ segments are out.
        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire.0);
        assert_eq!(decoder.next_frame().expect("valid"), Some(vote));
        assert_eq!(decoder.next_frame().expect("valid"), None);
        let mut segments = 1;
        loop {
            wire.0.clear();
            turn(&mut wire);
            segments += 1;
            decoder.extend(&wire.0);
            if let Some(env) = decoder.next_frame().expect("valid") {
                assert_eq!(env, chunk);
                break;
            }
        }
        let room = dl_wire::max_body_len(WRITE_QUANTUM);
        assert_eq!(segments, chunk.encoded_len().div_ceil(room));
    }

    #[test]
    fn writer_reconnects_after_peer_drop_with_backoff() {
        // The satellite guarantee, tested at the writer-loop level with a
        // controlled listener: kill the accepted connection mid-run, and
        // the writer must dial again (new hello) and deliver envelopes
        // pushed while the peer was down (within the connect grace).
        use std::net::TcpListener;

        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let outbox = Arc::new(Outbox::new(1 << 20));
        let shared = Arc::new(Shared::default());
        let writer = {
            let outbox = Arc::clone(&outbox);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut cfg = NetConfig::new(NodeId(5), Vec::new());
                cfg.write_timeout = Duration::from_secs(10);
                cfg.reconnect_backoff_max = Duration::from_millis(200);
                writer_loop(addr, outbox, shared, &cfg)
            })
        };

        let read_hello_and_frame = |stream: &mut TcpStream, expect: &Envelope| {
            let mut hello = [0u8; 2];
            stream.read_exact(&mut hello).expect("hello");
            assert_eq!(u16::from_le_bytes(hello), 5, "hello must carry our id");
            let mut decoder = FrameDecoder::new();
            let mut buf = [0u8; 4096];
            loop {
                let k = stream.read(&mut buf).expect("read frame");
                assert!(k > 0, "peer closed before a frame arrived");
                decoder.extend(&buf[..k]);
                if let Some(env) = decoder.next_frame().expect("valid frame") {
                    assert_eq!(&env, expect);
                    return;
                }
            }
        };

        let env1 = Envelope::vid(dl_wire::Epoch(1), NodeId(0), dl_wire::VidMsg::RequestChunk);
        let env2 = Envelope::vid(dl_wire::Epoch(2), NodeId(0), dl_wire::VidMsg::RequestChunk);

        // First connection: receive hello + env1, then kill it.
        outbox.push(env1.clone(), &shared.stop);
        let (mut s1, _) = listener.accept().expect("first accept");
        read_hello_and_frame(&mut s1, &env1);
        drop(s1);

        // The writer only notices the dead socket on a *write* (the first
        // post-FIN write can even succeed into the kernel buffer), so keep
        // nudging traffic until the dial lands — what a live cluster's
        // constant protocol chatter does naturally.
        let pusher_stop = Arc::new(AtomicBool::new(false));
        let pusher = {
            let outbox = Arc::clone(&outbox);
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&pusher_stop);
            let env2 = env2.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    outbox.push(env2.clone(), &shared.stop);
                    std::thread::sleep(Duration::from_millis(25));
                }
            })
        };

        // The writer must reconnect on its own and resume the stream
        // (every queued frame is an env2 duplicate at this point).
        let (mut s2, _) = listener.accept().expect("no reconnect after drop");
        read_hello_and_frame(&mut s2, &env2);
        pusher_stop.store(true, Ordering::Relaxed);
        pusher.join().expect("pusher thread");

        shared.stop.store(true, Ordering::Relaxed);
        drop(s2);
        writer.join().expect("writer thread");
    }
}
