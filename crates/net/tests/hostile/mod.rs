//! Hostile-peer shims for transport hardening tests.
//!
//! A [`HostilePeer`] is a seed-driven adversarial TCP client: it dials a
//! real `dl-net` listener and feeds it garbage — an out-of-range hello,
//! random bytes that desynchronize the frame layer, stalls that hold a
//! reader hostage mid-frame. Everything it sends derives from a `StdRng`
//! seed, so a failing interaction replays exactly.
//!
//! The module exists to *attack our own listeners in tests*; it generates
//! no valid protocol traffic beyond the handshake. The defender's
//! contract, exercised in `crates/net/tests/localhost.rs`: a reader that
//! sees a bad hello or a poisoned [`dl_wire::frame::FrameDecoder`] drops
//! that connection and nothing else — honest traffic keeps flowing.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use dl_wire::frame::encode_frame;
use dl_wire::Envelope;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded adversarial client for one connection.
#[derive(Clone, Debug)]
pub struct HostilePeer {
    /// Seed for everything this peer emits.
    pub seed: u64,
    /// Hello to present: `Some(id)` sends a well-formed 2-byte hello
    /// (possibly a *valid* id, to poison an honest slot's connection),
    /// `None` sends a random out-of-range id the listener must reject.
    pub hello_as: Option<u16>,
    /// How many garbage bursts to write after the hello.
    pub bursts: usize,
    /// Bytes per burst.
    pub burst_bytes: usize,
    /// Pause between bursts — a slow-loris dribble if long, a flood if
    /// zero.
    pub stall: Duration,
}

impl HostilePeer {
    /// Run the attack against `addr` to completion. Returns `Ok` both when
    /// every byte was swallowed and when the listener cut us off early —
    /// from the attacker's side a dropped connection *is* the defense
    /// working, not an error worth distinguishing.
    pub fn run(&self, addr: SocketAddr) -> io::Result<()> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut stream = TcpStream::connect(addr)?;
        let hello = match self.hello_as {
            Some(id) => id.to_le_bytes(),
            // High byte 0xFF: far above any plausible cluster size.
            None => [rng.gen::<u8>(), 0xFF],
        };
        if stream.write_all(&hello).is_err() {
            return Ok(());
        }
        let mut burst = vec![0u8; self.burst_bytes];
        for _ in 0..self.bursts {
            for b in burst.iter_mut() {
                *b = rng.gen::<u8>();
            }
            if stream.write_all(&burst).is_err() || stream.flush().is_err() {
                return Ok(());
            }
            if !self.stall.is_zero() {
                std::thread::sleep(self.stall);
            }
        }
        Ok(())
    }
}

/// Dial `addr`, present a well-formed hello as node `hello_as`, and send
/// `envs` as correctly framed envelopes. The protocol-level counterpart to
/// [`HostilePeer`]: the frames decode fine, so they reach the engine's
/// admit path — used to test that *semantic* garbage (absurd sync claims,
/// wrong-cluster vectors) dies there instead of corrupting state.
pub fn send_envelopes(addr: SocketAddr, hello_as: u16, envs: &[Envelope]) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&hello_as.to_le_bytes())?;
    for env in envs {
        stream.write_all(&encode_frame(env).to_vec())?;
    }
    stream.flush()
}

/// A frame header as the wire has it — `[len][tag]` — whatever it claims:
/// the raw material of framing attacks.
pub fn raw_header(tag: u8, len: u32) -> Vec<u8> {
    let mut header = len.to_le_bytes().to_vec();
    header.push(tag);
    header
}

/// A header that tells the truth about the `body` that follows it.
pub fn raw_frame(tag: u8, body: &[u8]) -> Vec<u8> {
    [&raw_header(tag, body.len() as u32), body].concat()
}

/// Dial `addr` as node `hello_as`, write `bytes` as they are, and report
/// whether the listener then hung up (EOF or reset within `wait`) — what
/// it must do the moment framing is violated, and must not do to a stream
/// that is merely unusual.
pub fn dropped_after(
    addr: SocketAddr,
    hello_as: u16,
    bytes: &[u8],
    wait: Duration,
) -> io::Result<bool> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&hello_as.to_le_bytes())?;
    stream.write_all(bytes)?;
    stream.flush()?;
    stream.set_read_timeout(Some(wait))?;
    match stream.read(&mut [0u8; 1]) {
        // Listeners never write on an inbound connection.
        Ok(k) => Ok(k == 0),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Ok(false)
        }
        Err(_) => Ok(true),
    }
}
