//! Asynchronous binary Byzantine agreement (BA).
//!
//! DispersedLedger (like HoneyBadger) runs `N` BA instances per epoch to agree
//! on which dispersals to commit (paper §4.1). This crate implements the BA
//! protocol the paper cites — Mostéfaoui, Moumen, Raynal, *Signature-free
//! asynchronous Byzantine consensus with t < n/3 and O(n²) messages* (PODC
//! 2014) — as a deterministic, sans-IO automaton, plus:
//!
//! * a **common coin** ([`coin`]) derived from a shared seed by hashing
//!   (see module docs for the substitution rationale), and
//! * a **termination gadget** (`Term` messages): deciding nodes announce
//!   their decision; `f+1` matching announcements let a node decide
//!   directly, and `2f+1` let it stop participating. This is the standard
//!   practical fix for MMR14's "decide but keep running" behaviour.
//!
//! The automaton ([`Ba`]) consumes `(from, BaMsg)` pairs and emits
//! [`BaEffect`]s (broadcasts and the decision event). Drivers — the
//! DispersedLedger node, the simulator, the TCP transport — own delivery.
//!
//! ## Properties (paper §4.1)
//! * **Termination**: if all correct nodes `input`, every correct node
//!   eventually decides.
//! * **Agreement**: no two correct nodes decide differently.
//! * **Validity**: a decided value was input by at least one correct node.
//!
//! The test suite checks all three across randomized schedules and Byzantine
//! behaviours (mute, equivocating, value-flipping adversaries).
//!
//! ## Availability is the first vote
//!
//! DispersedLedger inputs 1 to `BA(j)` when `VID(j)` completes, on `2f+1`
//! `Ready`s, and AVID's `Ready` phase is round 0's BV-broadcast of 1: relay
//! at `f+1`, take the value at `2f+1`. So after [`Ba::vote_by_ready`] each
//! `Ready(j)` received, our own included, is fed to [`Ba::ready`] as its
//! sender's round-0 `BVal(1)`; the instance sends no round-0 `BVal(1)` and
//! ignores explicit ones. `1` enters `bin_values` at completion, one
//! message delay sooner. Round 0's `BVal(0)` (the ACS zero-fill) and later
//! rounds are unchanged.
//!
//! * **Agreement** is MMR14's: it rests only on one `Aux` per correct node
//!   per round and on a common coin, and neither changed.
//! * **Validity**, in ACS form: a decided 1 needs `2f+1` `Ready`s, so `f+1`
//!   correct ones, and AVID's amplification then completes the dispersal
//!   everywhere. BV-Obligation and BV-Uniformity follow the same way.
//! * **The relay case**: a correct node that sent `Ready` and later
//!   zero-fills 0 has sent a `BVal` for both values, which MMR14 allows.
//!   Only one root gathers correct `Ready`s; the same holds for a restarted
//!   observer whose post-restart `Ready` meets a pre-crash `BVal(0)`.

#![forbid(unsafe_code)]
// Replays identically from a seed: no hashed collections, no wall clock.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]
// Parses hostile peers' messages: no panic path outside tests, `.expect`
// included.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod coin;

use coin::CommonCoin;
use dl_wire::{BaMsg, NodeId, NodeSet};

/// Effects produced by the automaton for the driver to execute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaEffect {
    /// Send this message to every node (including ourselves — the driver
    /// must loop it back, matching the paper's "servers also send the
    /// message to themselves").
    Broadcast(BaMsg),
    /// The instance decided `value`. Emitted exactly once.
    Decide(bool),
}

/// Per-round bookkeeping.
#[derive(Clone, Debug, Default)]
struct RoundState {
    /// Nodes from which we received `BVal(v)`, per value.
    bval_from: [NodeSet; 2],
    /// Whether we broadcast `BVal(v)` ourselves, per value.
    bval_sent: [bool; 2],
    /// `bin_values` of MMR14: values backed by `2f+1` BVals.
    bin_values: [bool; 2],
    /// Nodes from which we received an `Aux`, per value (a node counts once;
    /// the first value it sends wins).
    aux_from: [NodeSet; 2],
    aux_seen: NodeSet,
    /// Whether we broadcast our `Aux` for this round.
    aux_sent: bool,
    /// Whether we already moved past this round.
    done: bool,
}

/// One instance of binary agreement.
///
/// ```
/// use dl_ba::{Ba, BaEffect};
/// use dl_crypto::Hash;
/// use dl_wire::NodeId;
///
/// let salt = Hash::digest(b"instance-1");
/// let mut nodes: Vec<Ba> = (0..4).map(|_| Ba::new(4, 1, salt)).collect();
/// let mut wire: Vec<(NodeId, dl_wire::BaMsg)> = Vec::new();
/// // Everyone inputs 1.
/// for (i, ba) in nodes.iter_mut().enumerate() {
///     for eff in ba.input(true) {
///         if let BaEffect::Broadcast(m) = eff { wire.push((NodeId(i as u16), m)); }
///     }
/// }
/// // Deliver everything until quiescent; all four decide `true`.
/// while let Some((from, msg)) = wire.pop() {
///     for (i, ba) in nodes.iter_mut().enumerate() {
///         for eff in ba.handle(from, msg) {
///             match eff {
///                 BaEffect::Broadcast(m) => wire.push((NodeId(i as u16), m)),
///                 BaEffect::Decide(v) => assert!(v),
///             }
///         }
///     }
/// }
/// assert!(nodes.iter().all(|ba| ba.decision() == Some(true)));
/// ```
#[derive(Clone, Debug)]
pub struct Ba {
    n: usize,
    f: usize,
    coin: CommonCoin,
    round: usize,
    est: Option<bool>,
    rounds: Vec<RoundState>,
    decided: Option<bool>,
    /// Nodes from which we received `Term(v)`, per value.
    term_from: [NodeSet; 2],
    term_sent: bool,
    /// Set once we have `2f+1` matching `Term`s; the automaton goes quiet.
    halted: bool,
    input_taken: bool,
    /// Observer mode (restart recovery): track state and allow `Term`
    /// amplification, but never send `BVal`/`Aux` — see [`Ba::observe_only`].
    observer: bool,
    /// Round 0's `BVal(1)` travels as VID `Ready`s — see [`Ba::vote_by_ready`].
    by_ready: bool,
}

impl Ba {
    /// New instance for a cluster of `n` nodes tolerating `f` faults.
    /// `salt` must be unique per instance and identical across nodes
    /// (DispersedLedger derives it from `(coin_seed, epoch, index)`).
    pub fn new(n: usize, f: usize, salt: dl_crypto::Hash) -> Ba {
        assert!(n >= 3 * f + 1, "BA requires n >= 3f+1");
        Ba {
            n,
            f,
            coin: CommonCoin::new(salt),
            round: 0,
            est: None,
            rounds: vec![RoundState::default()],
            decided: None,
            term_from: [NodeSet::new(), NodeSet::new()],
            term_sent: false,
            halted: false,
            input_taken: false,
            observer: false,
            by_ready: false,
        }
    }

    /// The decided value, if any.
    pub fn decision(&self) -> Option<bool> {
        self.decided
    }

    /// Whether `input` has been called.
    pub fn has_input(&self) -> bool {
        self.input_taken
    }

    /// Whether the instance has fully quiesced (decided and seen `2f+1`
    /// terminations) and can be garbage-collected.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current round (for diagnostics).
    pub fn round(&self) -> usize {
        self.round
    }

    /// Restore a decision recovered from a durable store or a peer-attested
    /// catch-up outcome. The instance behaves as if it had decided `v`
    /// normally except that it does **not** re-broadcast `Term`: a restarted
    /// node cannot tell which of its pre-crash messages were delivered, and
    /// peers that still need the outcome learn it through the catch-up sync
    /// protocol instead. Requires an undecided instance; it may already have
    /// taken input (e.g. the ACS zero-fill raced the catch-up reply) — the
    /// cluster-attested outcome simply supersedes the run in progress.
    pub fn restore_decided(&mut self, v: bool) {
        debug_assert!(self.decided.is_none());
        self.decided = Some(v);
        self.est = Some(v);
        self.term_sent = true;
        self.input_taken = true;
    }

    /// Put the instance in observer mode: it tracks rounds and may decide
    /// (from `f+1` `Term`s or round progress) but never broadcasts
    /// `BVal`/`Aux`. `Term` broadcasts stay enabled — a decision always
    /// derives from values at least one correct node committed to, so a
    /// `Term` cannot equivocate with anything sent before a crash, while a
    /// re-sent `Aux` could (the first-value-wins dedup at receivers makes a
    /// pre-crash `Aux(0)` / post-crash `Aux(1)` pair split the vote count).
    /// Restart recovery marks every BA instance below its pre-crash message
    /// horizon as an observer.
    pub fn observe_only(&mut self) {
        self.observer = true;
    }

    /// Take round 0's `BVal(1)` from the dispersal's `Ready`s ([`Ba::ready`];
    /// module docs). Call before any input.
    pub fn vote_by_ready(&mut self) {
        self.by_ready = true;
        self.rounds[0].bval_sent[1] = true;
    }

    /// `from`'s `Ready` for this instance's dispersal: its round-0 `BVal(1)`
    /// after [`Ba::vote_by_ready`], ignored otherwise.
    pub fn ready(&mut self, from: NodeId) -> Vec<BaEffect> {
        let mut out = Vec::new();
        if self.by_ready && !self.halted {
            self.on_bval(from, 0, true, &mut out);
            self.try_progress(&mut out);
        }
        out
    }

    /// Propose a value. Ignored if already input.
    pub fn input(&mut self, value: bool) -> Vec<BaEffect> {
        let mut out = Vec::new();
        if self.input_taken || self.halted {
            return out;
        }
        self.input_taken = true;
        self.est = Some(value);
        self.send_bval(self.round, value, &mut out);
        self.try_progress(&mut out);
        out
    }

    /// Feed a message from `from`. Duplicate and malformed messages are
    /// ignored (Byzantine nodes may send anything).
    pub fn handle(&mut self, from: NodeId, msg: BaMsg) -> Vec<BaEffect> {
        let mut out = Vec::new();
        if self.halted {
            return out;
        }
        match msg {
            // No correct node sends a round-0 `BVal(1)`: its `Ready` was it.
            BaMsg::BVal { round, value } if self.by_ready && round == 0 && value => {}
            BaMsg::BVal { round, value } => self.on_bval(from, round as usize, value, &mut out),
            BaMsg::Aux { round, value } => self.on_aux(from, round as usize, value, &mut out),
            BaMsg::Term { value } => self.on_term(from, value, &mut out),
        }
        self.try_progress(&mut out);
        out
    }

    fn round_mut(&mut self, r: usize) -> &mut RoundState {
        while self.rounds.len() <= r {
            self.rounds.push(RoundState::default());
        }
        &mut self.rounds[r]
    }

    fn send_bval(&mut self, r: usize, v: bool, out: &mut Vec<BaEffect>) {
        let observer = self.observer;
        let rs = self.round_mut(r);
        if !rs.bval_sent[v as usize] {
            rs.bval_sent[v as usize] = true;
            if !observer {
                out.push(BaEffect::Broadcast(BaMsg::BVal {
                    round: r as u16,
                    value: v,
                }));
            }
        }
    }

    fn on_bval(&mut self, from: NodeId, r: usize, v: bool, out: &mut Vec<BaEffect>) {
        if r > self.round + MAX_ROUND_LOOKAHEAD {
            return; // garbage round from a Byzantine peer
        }
        let f = self.f;
        let rs = self.round_mut(r);
        if !rs.bval_from[v as usize].insert(from) {
            return;
        }
        let count = rs.bval_from[v as usize].len();
        // f+1 echo rule: relay a value backed by at least one correct node.
        if count >= f + 1 {
            self.send_bval(r, v, out);
        }
        // 2f+1: the value enters bin_values.
        let rs = self.round_mut(r);
        if count >= 2 * f + 1 {
            rs.bin_values[v as usize] = true;
        }
    }

    fn on_aux(&mut self, from: NodeId, r: usize, v: bool, _out: &mut Vec<BaEffect>) {
        if r > self.round + MAX_ROUND_LOOKAHEAD {
            return;
        }
        let rs = self.round_mut(r);
        if !rs.aux_seen.insert(from) {
            return;
        }
        rs.aux_from[v as usize].insert(from);
    }

    fn on_term(&mut self, from: NodeId, v: bool, out: &mut Vec<BaEffect>) {
        if !self.term_from[v as usize].insert(from) {
            return;
        }
        let count = self.term_from[v as usize].len();
        // f+1 Terms: at least one correct node decided v — safe to decide.
        if count >= self.f + 1 {
            self.decide(v, out);
        }
        // 2f+1 Terms: enough deciders that everyone will learn v without our
        // help in future rounds; stop participating entirely.
        if count >= 2 * self.f + 1 {
            self.halted = true;
        }
    }

    fn decide(&mut self, v: bool, out: &mut Vec<BaEffect>) {
        if self.decided.is_none() {
            self.decided = Some(v);
            out.push(BaEffect::Decide(v));
        }
        // Announce regardless of how we decided (round logic or f+1 Terms).
        if !self.term_sent {
            self.term_sent = true;
            out.push(BaEffect::Broadcast(BaMsg::Term { value: v }));
        }
    }

    /// Drive the current round as far as the received messages allow. May
    /// advance multiple rounds (messages for future rounds are buffered in
    /// their `RoundState`s).
    fn try_progress(&mut self, out: &mut Vec<BaEffect>) {
        if !self.input_taken || self.halted {
            return;
        }
        loop {
            let r = self.round;
            // Re-broadcast our estimate's BVal on round entry (idempotent).
            // Once we sent `Term` our vote is redundant: every correct node
            // either decides from `f+1` Terms or finishes the round on the
            // `f+1` BVal echo and the retained Aux below, so suppressing the
            // initiation saves O(N) messages per decided instance per round
            // without stalling stragglers.
            if let Some(est) = self.est {
                if !self.term_sent {
                    self.send_bval(r, est, out);
                }
            }
            let rs = &self.rounds[r];
            // Step 2: once bin_values is non-empty, send Aux with one of its
            // values (the first that qualified).
            if !rs.aux_sent && (rs.bin_values[0] || rs.bin_values[1]) {
                let v = rs.bin_values[1];
                let observer = self.observer;
                let rs = self.round_mut(r);
                rs.aux_sent = true;
                if !observer {
                    out.push(BaEffect::Broadcast(BaMsg::Aux {
                        round: r as u16,
                        value: v,
                    }));
                }
            }
            // Step 3: wait for N−f Aux messages whose values are all in
            // bin_values.
            let rs = &self.rounds[r];
            if rs.done {
                return;
            }
            let in_bin = |v: bool| rs.bin_values[v as usize];
            let supported = [false, true]
                .into_iter()
                .filter(|&v| in_bin(v))
                .map(|v| rs.aux_from[v as usize].len())
                .sum::<usize>();
            if supported < self.n - self.f {
                return;
            }
            let view: Vec<bool> = [false, true]
                .into_iter()
                .filter(|&v| in_bin(v) && !rs.aux_from[v as usize].is_empty())
                .collect();
            if view.is_empty() {
                return;
            }
            // Step 4: flip the common coin and either decide or re-estimate.
            let c = self.coin.flip(r);
            let rs = self.round_mut(r);
            rs.done = true;
            if view.len() == 1 {
                let v = view[0];
                if v == c {
                    self.decide(v, out);
                    // Keep participating in later rounds until halted by the
                    // termination gadget; est stays at the decided value.
                }
                self.est = Some(v);
            } else {
                self.est = Some(c);
            }
            self.round += 1;
            self.round_mut(self.round); // materialize
        }
    }
}

/// Ignore BVal/Aux messages that claim a round absurdly far ahead of ours —
/// they can only come from Byzantine nodes and would otherwise let an
/// attacker grow our memory without bound.
const MAX_ROUND_LOOKAHEAD: usize = 64;

#[cfg(test)]
mod tests;
