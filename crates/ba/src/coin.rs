//! The common coin.
//!
//! MMR14 BA assumes a *common coin*: a shared random bit per round that every
//! correct node computes identically and that the adversary cannot predict
//! before the round. Production deployments instantiate it with threshold
//! signatures (e.g. Boldyreva threshold BLS in HoneyBadger).
//!
//! **Substitution**: we derive the coin by hashing a shared seed with the
//! instance salt and round number. This gives every node the same
//! random-looking bit sequence, which is exactly what the protocol logic and
//! the performance evaluation need. The difference from a threshold coin is
//! that a *computationally unbounded or adaptive* adversary can precompute
//! flips and schedule messages against them; our evaluation model (like the
//! paper's prototype experiments) uses a static adversary, so the
//! distinction does not affect any measured result.
//!
//! **Schedule**: round 0 flips 1, round 1 flips 0, every later round flips
//! the hash. A round decides when all correct nodes hold the same estimate
//! and the coin matches it. DispersedLedger inputs 1 to a BA when a
//! dispersal completes, so in the common case every correct node proposes 1
//! and decides in round 0. An absent proposer's BA gets 0 from the ACS
//! zero-fill at every correct node; that estimate survives round 0 and
//! decides in round 1, where a hashed coin would leave it waiting a
//! geometric number of rounds — and the epoch waits for its slowest BA.
//!
//! Fixing flips is safe: MMR14's Agreement and Validity hold for any coin
//! value, provided every correct node sees the same one, which a fixed flip
//! guarantees. Only Termination needs the coin to be unpredictable, and the
//! hash from round 2 on keeps it. The hash coin is predictable by design
//! (above), so two fixed flips do not weaken the adversary model.

use dl_crypto::Hash;

/// Deterministic per-instance coin source.
#[derive(Clone, Debug)]
pub struct CommonCoin {
    salt: Hash,
}

impl CommonCoin {
    /// Coin for the instance identified by `salt`.
    pub fn new(salt: Hash) -> CommonCoin {
        CommonCoin { salt }
    }

    /// The shared coin value for `round`.
    pub fn flip(&self, round: usize) -> bool {
        match round {
            0 => true,
            1 => false,
            _ => {
                let h =
                    Hash::digest_parts(&[b"dl-coin", &self.salt.0, &(round as u64).to_le_bytes()]);
                h.0[0] & 1 == 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = CommonCoin::new(Hash::digest(b"x"));
        let b = CommonCoin::new(Hash::digest(b"x"));
        for r in 0..100 {
            assert_eq!(a.flip(r), b.flip(r));
        }
    }

    #[test]
    fn different_salts_differ() {
        let a = CommonCoin::new(Hash::digest(b"x"));
        let b = CommonCoin::new(Hash::digest(b"y"));
        let differing = (2..200).filter(|&r| a.flip(r) != b.flip(r)).count();
        assert!(
            differing > 50,
            "salts should decorrelate coins, got {differing}"
        );
    }

    #[test]
    fn fixed_prefix_then_hash() {
        for salt in [b"z", b"w"].map(|s| Hash::digest(s)) {
            let coin = CommonCoin::new(salt);
            assert!(coin.flip(0));
            assert!(!coin.flip(1));
            for r in 2..10u64 {
                let h = Hash::digest_parts(&[b"dl-coin", &salt.0, &r.to_le_bytes()]);
                assert_eq!(coin.flip(r as usize), h.0[0] & 1 == 1, "round {r}");
            }
        }
    }

    #[test]
    fn roughly_fair() {
        let coin = CommonCoin::new(Hash::digest(b"fairness"));
        let ones = (2..1002).filter(|&r| coin.flip(r)).count();
        assert!(
            (400..=600).contains(&ones),
            "coin badly biased: {ones}/1000"
        );
    }
}
