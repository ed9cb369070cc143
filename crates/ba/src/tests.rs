//! Schedule-randomized tests for the BA automaton.
//!
//! The harness runs `N` automata over an in-memory message pool and delivers
//! messages in a seeded-random order, optionally duplicating deliveries and
//! injecting Byzantine traffic. Each test asserts the BFT properties
//! (Termination, Agreement, Validity) over many schedules.

use super::*;
use dl_crypto::Hash;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a node does in the harness.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Behavior {
    Honest,
    /// Crashed: participates in nothing.
    Mute,
    /// Sends conflicting BVal/Aux messages, never follows the protocol.
    Equivocate,
    /// Sends BVal/Aux for rounds far in the future (memory-exhaustion probe).
    FutureSpam,
}

struct Net {
    n: usize,
    nodes: Vec<Option<Ba>>, // None for Byzantine nodes
    behaviors: Vec<Behavior>,
    /// (from, to, msg)
    pool: Vec<(NodeId, NodeId, BaMsg)>,
    decisions: Vec<Option<bool>>,
    /// `Ba::round()` of each node when its `Decide` was applied: one past
    /// the deciding round, unless `f + 1` Terms decided it mid-round.
    decided_round: Vec<Option<usize>>,
    rng: StdRng,
    /// Probability (percent) that a delivered message is also re-delivered.
    dup_percent: u32,
}

impl Net {
    /// `salt` names the instance, and so its coin sequence; `seed` draws the
    /// delivery schedule.
    fn new(n: usize, f: usize, behaviors: Vec<Behavior>, salt: u64, seed: u64) -> Net {
        assert_eq!(behaviors.len(), n);
        let salt = Hash::digest_parts(&[b"ba-test-instance", &salt.to_le_bytes()]);
        let nodes = behaviors
            .iter()
            .map(|b| match b {
                Behavior::Honest => Some(Ba::new(n, f, salt)),
                _ => None,
            })
            .collect();
        Net {
            n,
            nodes,
            behaviors,
            pool: Vec::new(),
            decisions: vec![None; n],
            decided_round: vec![None; n],
            rng: StdRng::seed_from_u64(seed),
            dup_percent: 0,
        }
    }

    fn broadcast(&mut self, from: usize, msg: BaMsg) {
        for to in 0..self.n {
            self.pool
                .push((NodeId(from as u16), NodeId(to as u16), msg));
        }
    }

    fn apply_effects(&mut self, node: usize, effects: Vec<BaEffect>) {
        for eff in effects {
            match eff {
                BaEffect::Broadcast(m) => self.broadcast(node, m),
                BaEffect::Decide(v) => {
                    assert!(
                        self.decisions[node].is_none(),
                        "double decide at node {node}"
                    );
                    self.decisions[node] = Some(v);
                    self.decided_round[node] = self.nodes[node].as_ref().map(Ba::round);
                }
            }
        }
    }

    fn input_all(&mut self, inputs: &[bool]) {
        // Byzantine nodes inject their traffic "at input time".
        for (i, &input) in inputs.iter().enumerate() {
            match self.behaviors[i] {
                Behavior::Honest => {
                    let effects = self.nodes[i].as_mut().unwrap().input(input);
                    self.apply_effects(i, effects);
                }
                Behavior::Mute => {}
                Behavior::Equivocate => {
                    // Conflicting BVals: value depends on recipient parity,
                    // plus contradictory Aux for both values.
                    for to in 0..self.n {
                        let v = to % 2 == 0;
                        self.pool.push((
                            NodeId(i as u16),
                            NodeId(to as u16),
                            BaMsg::BVal { round: 0, value: v },
                        ));
                        self.pool.push((
                            NodeId(i as u16),
                            NodeId(to as u16),
                            BaMsg::Aux {
                                round: 0,
                                value: !v,
                            },
                        ));
                        self.pool.push((
                            NodeId(i as u16),
                            NodeId(to as u16),
                            BaMsg::Term { value: v },
                        ));
                    }
                }
                Behavior::FutureSpam => {
                    for to in 0..self.n {
                        for r in [500u16, 1000, 60000] {
                            self.pool.push((
                                NodeId(i as u16),
                                NodeId(to as u16),
                                BaMsg::BVal {
                                    round: r,
                                    value: true,
                                },
                            ));
                        }
                    }
                }
            }
        }
    }

    /// Deliver until quiescent. Returns false if the pool drained without
    /// all honest nodes deciding.
    fn run(&mut self) -> bool {
        let mut steps = 0usize;
        while !self.pool.is_empty() {
            steps += 1;
            assert!(steps < 2_000_000, "runaway schedule");
            let idx = self.rng.gen_range(0..self.pool.len());
            let (from, to, msg) = self.pool.swap_remove(idx);
            let duplicate = self.rng.gen_range(0..100) < self.dup_percent;
            if let Some(ba) = self.nodes[to.idx()].as_mut() {
                let effects = ba.handle(from, msg);
                self.apply_effects(to.idx(), effects);
                if duplicate {
                    let effects = self.nodes[to.idx()].as_mut().unwrap().handle(from, msg);
                    self.apply_effects(to.idx(), effects);
                }
            }
        }
        (0..self.n)
            .filter(|&i| self.behaviors[i] == Behavior::Honest)
            .all(|i| self.decisions[i].is_some())
    }

    fn check_agreement_validity(&self, inputs: &[bool]) {
        let honest: Vec<usize> = (0..self.n)
            .filter(|&i| self.behaviors[i] == Behavior::Honest)
            .collect();
        let decided: Vec<bool> = honest.iter().map(|&i| self.decisions[i].unwrap()).collect();
        // Agreement
        assert!(
            decided.windows(2).all(|w| w[0] == w[1]),
            "honest nodes disagree: {decided:?}"
        );
        // Validity: the decision was some honest node's input.
        let v = decided[0];
        assert!(
            honest.iter().any(|&i| inputs[i] == v),
            "decided {v} but no honest node input it (inputs {inputs:?})"
        );
    }
}

fn all_honest(n: usize) -> Vec<Behavior> {
    vec![Behavior::Honest; n]
}

#[test]
fn unanimous_one_decides_one_fast() {
    for seed in 0..30 {
        let mut net = Net::new(4, 1, all_honest(4), seed, seed);
        net.input_all(&[true; 4]);
        assert!(net.run(), "termination failed at seed {seed}");
        net.check_agreement_validity(&[true; 4]);
        assert!(net.decisions.iter().all(|d| *d == Some(true)));
        // Round 0's coin is 1, so unanimous-1 decides in round 0.
        for (i, r) in net.decided_round.iter().enumerate() {
            assert!(*r <= Some(1), "node {i} decided at round() {r:?}");
        }
    }
}

/// An absent proposer's BA: `f` nodes silent and every correct node
/// inputs 0 (the ACS zero-fill). Round 1's coin is 0, so every correct node
/// decides by then, whatever the salt; with a hashed round-1 coin about
/// half the salts would wait for a later round.
#[test]
fn unanimous_zero_with_f_mute_decides_by_round_one_for_every_salt() {
    let (n, f) = (16, 5);
    let mut behaviors = all_honest(n);
    for b in &mut behaviors[n - f..] {
        *b = Behavior::Mute;
    }
    let inputs = vec![false; n];
    for salt in 0..64 {
        let mut net = Net::new(n, f, behaviors.clone(), salt, salt);
        net.input_all(&inputs);
        assert!(net.run(), "salt {salt}");
        net.check_agreement_validity(&inputs);
        for i in 0..n - f {
            let r = net.decided_round[i];
            assert!(
                r <= Some(2),
                "salt {salt}: node {i} decided at round() {r:?}"
            );
        }
    }
}

#[test]
fn unanimous_zero_decides_zero() {
    for seed in 0..30 {
        let mut net = Net::new(4, 1, all_honest(4), seed, seed);
        net.input_all(&[false; 4]);
        assert!(net.run());
        net.check_agreement_validity(&[false; 4]);
        assert!(net.decisions.iter().all(|d| *d == Some(false)));
    }
}

#[test]
fn mixed_inputs_agree() {
    for seed in 0..50 {
        let inputs = [true, false, true, false];
        let mut net = Net::new(4, 1, all_honest(4), seed, seed);
        net.input_all(&inputs);
        assert!(net.run(), "seed {seed}");
        net.check_agreement_validity(&inputs);
    }
}

#[test]
fn mixed_inputs_larger_cluster() {
    for seed in 0..10 {
        let n = 7;
        let inputs: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let mut net = Net::new(n, 2, all_honest(n), seed, seed);
        net.input_all(&inputs);
        assert!(net.run(), "seed {seed}");
        net.check_agreement_validity(&inputs);
    }
}

#[test]
fn tolerates_f_crashed_nodes() {
    for seed in 0..30 {
        let mut behaviors = all_honest(4);
        behaviors[3] = Behavior::Mute;
        let inputs = [true, true, true, true];
        let mut net = Net::new(4, 1, behaviors, seed, seed);
        net.input_all(&inputs);
        assert!(net.run(), "crash-tolerance failed at seed {seed}");
        net.check_agreement_validity(&inputs);
    }
}

#[test]
fn tolerates_crashes_in_larger_cluster() {
    for seed in 0..10 {
        let n = 10;
        let f = 3;
        let mut behaviors = all_honest(n);
        behaviors[1] = Behavior::Mute;
        behaviors[4] = Behavior::Mute;
        behaviors[8] = Behavior::Mute;
        let inputs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let mut net = Net::new(n, f, behaviors, seed, seed);
        net.input_all(&inputs);
        assert!(net.run(), "seed {seed}");
        net.check_agreement_validity(&inputs);
    }
}

#[test]
fn tolerates_equivocators() {
    for (salt, seed) in salts_and_schedules(16, 16) {
        let mut behaviors = all_honest(4);
        behaviors[0] = Behavior::Equivocate;
        let inputs = [false, true, true, true];
        let mut net = Net::new(4, 1, behaviors, salt, seed);
        net.input_all(&inputs);
        assert!(
            net.run(),
            "equivocator broke liveness at salt {salt} seed {seed}"
        );
        net.check_agreement_validity(&inputs);
    }
}

#[test]
fn tolerates_equivocators_with_split_honest_inputs() {
    for (salt, seed) in salts_and_schedules(16, 16) {
        let n = 7;
        let mut behaviors = all_honest(n);
        behaviors[2] = Behavior::Equivocate;
        behaviors[5] = Behavior::Equivocate;
        let inputs: Vec<bool> = (0..n).map(|i| i < 3).collect();
        let mut net = Net::new(n, 2, behaviors, salt, seed);
        net.input_all(&inputs);
        assert!(net.run(), "salt {salt} seed {seed}");
        net.check_agreement_validity(&inputs);
    }
}

/// Every pairing of `salts` coin sequences with `schedules` delivery orders.
fn salts_and_schedules(salts: u64, schedules: u64) -> impl Iterator<Item = (u64, u64)> {
    (0..salts).flat_map(move |salt| (0..schedules).map(move |seed| (salt, seed)))
}

#[test]
fn future_round_spam_is_bounded() {
    let mut behaviors = all_honest(4);
    behaviors[2] = Behavior::FutureSpam;
    let inputs = [true, true, true, true];
    let mut net = Net::new(4, 1, behaviors, 7, 7);
    net.input_all(&inputs);
    assert!(net.run());
    net.check_agreement_validity(&inputs);
    // Spammed rounds beyond the lookahead cap must not allocate state.
    for ba in net.nodes.iter().flatten() {
        assert!(ba.rounds.len() <= MAX_ROUND_LOOKAHEAD + 2);
    }
}

#[test]
fn duplicate_deliveries_are_harmless() {
    for seed in 0..20 {
        let inputs = [true, false, false, true];
        let mut net = Net::new(4, 1, all_honest(4), seed, seed);
        net.dup_percent = 50;
        net.input_all(&inputs);
        assert!(net.run(), "seed {seed}");
        net.check_agreement_validity(&inputs);
    }
}

#[test]
fn double_input_ignored() {
    let salt = Hash::digest(b"i");
    let mut ba = Ba::new(4, 1, salt);
    let first = ba.input(true);
    assert!(!first.is_empty());
    assert!(ba.input(false).is_empty());
    assert!(ba.has_input());
}

#[test]
fn instance_halts_and_garbage_collects() {
    for seed in 0..10 {
        let mut net = Net::new(4, 1, all_honest(4), seed, seed);
        net.input_all(&[true; 4]);
        assert!(net.run());
        // After full delivery every honest node must have quiesced: decided
        // and received all 4 > 2f+1 Terms.
        for ba in net.nodes.iter().flatten() {
            assert!(ba.halted(), "node failed to halt (seed {seed})");
        }
    }
}

#[test]
fn no_effects_after_halt() {
    let mut net = Net::new(4, 1, all_honest(4), 3, 3);
    net.input_all(&[true; 4]);
    assert!(net.run());
    let ba = net.nodes[0].as_mut().unwrap();
    assert!(ba
        .handle(
            NodeId(1),
            BaMsg::BVal {
                round: 0,
                value: false
            }
        )
        .is_empty());
    assert!(ba.input(false).is_empty());
}

#[test]
fn term_amplification_decides_without_rounds() {
    // A node that missed the whole round protocol still decides from f+1
    // Terms, and halts at 2f+1.
    let salt = Hash::digest(b"ba-test-instance");
    let mut ba = Ba::new(4, 1, salt);
    let _ = ba.input(false);
    let e1 = ba.handle(NodeId(1), BaMsg::Term { value: true });
    assert!(e1.is_empty());
    let e2 = ba.handle(NodeId(2), BaMsg::Term { value: true });
    assert!(e2.contains(&BaEffect::Decide(true)));
    assert!(e2
        .iter()
        .any(|e| matches!(e, BaEffect::Broadcast(BaMsg::Term { value: true }))));
    assert!(!ba.halted());
    let _ = ba.handle(NodeId(3), BaMsg::Term { value: true });
    assert!(ba.halted());
}

#[test]
fn conflicting_terms_from_byzantine_minority_do_not_decide() {
    let salt = Hash::digest(b"ba-test-instance");
    let mut ba = Ba::new(7, 2, salt);
    let _ = ba.input(true);
    // f=2: two Terms for `false` (all Byzantine) must not trigger a decision.
    let _ = ba.handle(NodeId(1), BaMsg::Term { value: false });
    let e = ba.handle(NodeId(2), BaMsg::Term { value: false });
    assert!(!e.contains(&BaEffect::Decide(false)));
    assert_eq!(ba.decision(), None);
}

#[test]
fn many_seeds_agreement_fuzz() {
    // Broad fuzz over cluster sizes, inputs and schedules.
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..512 {
        let n = *[4usize, 5, 7, 10].get(rng.gen_range(0..4)).unwrap();
        let f = (n - 1) / 3;
        let inputs: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let (salt, seed) = (rng.gen(), rng.gen());
        let mut net = Net::new(n, f, all_honest(n), salt, seed);
        net.input_all(&inputs);
        assert!(net.run(), "n={n} salt={salt} seed={seed}");
        net.check_agreement_validity(&inputs);
    }
}

#[test]
fn decided_instance_stops_initiating_bvals_in_later_rounds() {
    // §6.3 volume lever: once a node announced Term, its round-entry BVal
    // is redundant (peers decide from f+1 Terms or the echo path). Decide
    // node 0 via Term amplification, then push it through round 0 — it
    // must not initiate a BVal for round 1.
    let salt = Hash::digest(b"ba-test-instance");
    let mut ba = Ba::new(4, 1, salt);
    let _ = ba.input(false);
    let _ = ba.handle(NodeId(1), BaMsg::Term { value: false });
    let e = ba.handle(NodeId(2), BaMsg::Term { value: false });
    assert!(e.contains(&BaEffect::Decide(false)));
    // Complete round 0 from the wire's perspective: 3 BVals make
    // bin_values, 3 Aux finish the round, the instance enters round 1.
    let mut effects = Vec::new();
    for from in 1..4u16 {
        effects.extend(ba.handle(
            NodeId(from),
            BaMsg::BVal {
                round: 0,
                value: false,
            },
        ));
        effects.extend(ba.handle(
            NodeId(from),
            BaMsg::Aux {
                round: 0,
                value: false,
            },
        ));
    }
    assert!(ba.round() >= 1, "round 0 did not complete");
    let later_bvals: Vec<&BaEffect> = effects
        .iter()
        .filter(|e| matches!(e, BaEffect::Broadcast(BaMsg::BVal { round, .. }) if *round >= 1))
        .collect();
    assert!(
        later_bvals.is_empty(),
        "decided node still initiates round>=1 BVals: {later_bvals:?}"
    );
}

#[test]
fn restore_decided_is_silent() {
    // A restarted node restoring a pre-crash decision must not re-announce
    // anything: peers that need the outcome use the catch-up sync path.
    let salt = Hash::digest(b"ba-test-instance");
    let mut ba = Ba::new(4, 1, salt);
    ba.restore_decided(true);
    assert_eq!(ba.decision(), Some(true));
    assert!(
        ba.has_input(),
        "restored instance must reject ACS zero-fill"
    );
    // Incoming traffic produces no broadcasts and no second Decide.
    let e = ba.handle(
        NodeId(1),
        BaMsg::BVal {
            round: 0,
            value: true,
        },
    );
    assert!(
        !e.iter().any(|x| matches!(x, BaEffect::Decide(_))),
        "restored instance re-decided"
    );
    // Term amplification still halts it for GC.
    for from in 1..4u16 {
        let _ = ba.handle(NodeId(from), BaMsg::Term { value: true });
    }
    assert!(ba.halted());
}

#[test]
fn observer_sends_terms_but_never_bval_or_aux() {
    let salt = Hash::digest(b"ba-test-instance");
    let mut ba = Ba::new(4, 1, salt);
    ba.observe_only();
    let mut effects = ba.input(true);
    // Drive the full round-0 pipeline at it: BVals (echo point), Aux
    // (round completion), then Terms (decision + halt).
    for from in 1..4u16 {
        effects.extend(ba.handle(
            NodeId(from),
            BaMsg::BVal {
                round: 0,
                value: true,
            },
        ));
    }
    for from in 1..4u16 {
        effects.extend(ba.handle(
            NodeId(from),
            BaMsg::Aux {
                round: 0,
                value: true,
            },
        ));
    }
    for eff in &effects {
        assert!(
            matches!(
                eff,
                BaEffect::Broadcast(BaMsg::Term { .. }) | BaEffect::Decide(_)
            ),
            "observer emitted non-Term traffic: {eff:?}"
        );
    }
}
