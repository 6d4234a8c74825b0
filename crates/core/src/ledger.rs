//! The per-peer vetting bookkeeping of one [`crate::SecureNode`].
//!
//! A node asks one question per vetted step — has this peer ever been
//! tested? — and counts the distinct peers the current round tested
//! and rejected. [`PeerLedger`] answers both from one record per peer
//! stamped with round numbers: a step costs one lookup, and closing a
//! round is O(1) and allocation-free.
//!
//! The records live in a flat open-addressing table with linear
//! probing, so a lookup touches one or two cache lines instead of the
//! cold leaves of a tree. Two properties keep it safe when the ids come
//! from the network (the daemon's client ids):
//!
//! * **No sentinel key.** An empty slot is one whose two round stamps
//!   are both zero; every stored record has a nonzero stamp, so every
//!   id — `usize::MAX` included — is a legal key.
//! * **Bounded probes.** A lookup inspects at most [`PROBE_LIMIT`]
//!   slots. A record whose window is full goes to an ordered overflow
//!   map, so ids chosen to collide under the hash cost O(log n) each,
//!   never a long probe chain.
//!
//! Records are never removed, so a window only ever fills up: a record
//! is in the overflow map exactly when its window in the current table
//! was full when it was stored, and a growth rehash re-places every
//! record. The table is a `Vec`, not a `HashMap`: nothing here has a
//! seeded hasher or an iteration order.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Most table slots one lookup inspects before it falls back to the
/// overflow map.
const PROBE_LIMIT: usize = 8;

/// Table length of the first allocation (a power of two).
const INITIAL_SLOTS: usize = 16;

/// Fibonacci-hashing multiplier (2⁶⁴ / φ, odd).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// The rounds in which one peer was last tested and last rejected
/// (`0`: never; rounds count from 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct PeerRounds {
    tested: u64,
    rejected: u64,
}

impl PeerRounds {
    /// No stamp at all: the mark of an empty table slot.
    fn is_blank(&self) -> bool {
        self.tested == 0 && self.rejected == 0
    }
}

/// One table slot: a peer id and its round stamps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Slot {
    peer: usize,
    rounds: PeerRounds,
}

/// Where a peer's record is, or would go.
enum Place {
    /// In table slot `i`.
    Found(usize),
    /// Absent; table slot `i` is free for it.
    Vacant(usize),
    /// The peer's window is full: its record is (or goes) in the
    /// overflow map.
    Overflow,
}

/// Per-peer vetting bookkeeping: which peers a node has ever tested
/// (the first-time reprieve) and how many distinct peers the current
/// round tested and rejected (the refresh rule).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct PeerLedger {
    /// Open-addressing table; empty or a power-of-two length.
    slots: Vec<Slot>,
    /// Records in `slots` plus records in `overflow`.
    len: usize,
    /// Records whose probe window was full.
    overflow: BTreeMap<usize, PeerRounds>,
    /// The current round, from 1.
    round: u64,
    /// Distinct peers tested in the current round.
    round_tested: usize,
    /// Distinct peers rejected in the current round.
    round_rejected: usize,
}

impl PeerLedger {
    pub(crate) fn new() -> Self {
        Self {
            slots: Vec::new(),
            len: 0,
            overflow: BTreeMap::new(),
            round: 1,
            round_tested: 0,
            round_rejected: 0,
        }
    }

    /// Record a test of `peer`; returns whether it is the first ever.
    pub(crate) fn test(&mut self, peer: usize) -> bool {
        let round = self.round;
        let (rounds, first_time) = self.record(peer);
        let counted = rounds.tested == round;
        rounds.tested = round;
        if !counted {
            self.round_tested += 1;
        }
        first_time
    }

    /// Record a rejection of `peer` (tested earlier in the same step).
    pub(crate) fn reject(&mut self, peer: usize) {
        let round = self.round;
        let (rounds, _) = self.record(peer);
        let counted = rounds.rejected == round;
        rounds.rejected = round;
        if !counted {
            self.round_rejected += 1;
        }
    }

    /// Close the round: `(distinct peers tested, distinct peers
    /// rejected)` in it.
    pub(crate) fn end_round(&mut self) -> (usize, usize) {
        let counts = (self.round_tested, self.round_rejected);
        self.round += 1;
        self.round_tested = 0;
        self.round_rejected = 0;
        counts
    }

    /// The home slot of `peer` in a table of `2^bits` slots: the top
    /// bits of a multiplicative hash.
    fn home(peer: usize, bits: u32) -> usize {
        ((peer as u64).wrapping_mul(MULTIPLIER) >> (64 - bits)) as usize
    }

    fn place(&self, peer: usize) -> Place {
        let len = self.slots.len();
        let start = Self::home(peer, len.trailing_zeros());
        for d in 0..PROBE_LIMIT.min(len) {
            let i = (start + d) & (len - 1);
            let slot = &self.slots[i];
            if slot.rounds.is_blank() {
                return Place::Vacant(i);
            }
            if slot.peer == peer {
                return Place::Found(i);
            }
        }
        Place::Overflow
    }

    /// The record of `peer`, created blank if absent (the caller stamps
    /// it before anything else can look), and whether it was created.
    fn record(&mut self, peer: usize) -> (&mut PeerRounds, bool) {
        // Grow at half load, so windows stay short and spills rare.
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        match self.place(peer) {
            Place::Found(i) => (&mut self.slots[i].rounds, false),
            Place::Vacant(i) => {
                self.len += 1;
                self.slots[i].peer = peer;
                (&mut self.slots[i].rounds, true)
            }
            Place::Overflow => {
                let mut created = false;
                let rounds = self.overflow.entry(peer).or_insert_with(|| {
                    created = true;
                    PeerRounds::default()
                });
                if created {
                    self.len += 1;
                }
                (rounds, created)
            }
        }
    }

    /// Double the table (or allocate the first one) and re-place every
    /// record, overflowed ones included.
    fn grow(&mut self) {
        let size = (2 * self.slots.len()).max(INITIAL_SLOTS);
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); size]);
        let spilled = std::mem::take(&mut self.overflow);
        let records = old
            .into_iter()
            .filter(|slot| !slot.rounds.is_blank())
            .chain(
                spilled
                    .into_iter()
                    .map(|(peer, rounds)| Slot { peer, rounds }),
            );
        for record in records {
            // Records are unique, so a re-placed one is never found.
            match self.place(record.peer) {
                Place::Found(i) | Place::Vacant(i) => self.slots[i] = record,
                Place::Overflow => {
                    self.overflow.insert(record.peer, record.rounds);
                }
            }
        }
    }

    /// Table slots a lookup of `peer` inspects: its distance from its
    /// home slot plus one, or the whole window when it spills.
    #[cfg(test)]
    fn probe_cost(&self, peer: usize) -> usize {
        let len = self.slots.len();
        let start = Self::home(peer, len.trailing_zeros());
        match self.place(peer) {
            Place::Found(i) | Place::Vacant(i) => ((i + len - start) & (len - 1)) + 1,
            Place::Overflow => PROBE_LIMIT,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `MULTIPLIER⁻¹ mod 2⁶⁴`, by Newton's iteration.
    fn inverse_multiplier() -> u64 {
        let mut inv = MULTIPLIER;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(MULTIPLIER.wrapping_mul(inv)));
        }
        assert_eq!(MULTIPLIER.wrapping_mul(inv), 1);
        inv
    }

    /// Ids whose hash agrees in its top `bits` bits with `home`: they
    /// share a home slot in every table of up to `2^bits` slots.
    fn colliding_ids(home: u64, bits: u32, salts: &[u64]) -> Vec<usize> {
        let inv = inverse_multiplier();
        let low_mask = (1u64 << (64 - bits)) - 1;
        salts
            .iter()
            .map(|&salt| (((home << (64 - bits)) | (salt & low_mask)).wrapping_mul(inv)) as usize)
            .collect()
    }

    #[test]
    fn colliding_ids_share_a_home_slot() {
        let ids = colliding_ids(5, 20, &[1, 2, 3, 99, 1 << 40]);
        for bits in 4..=20 {
            let homes: BTreeSet<usize> = ids.iter().map(|&id| PeerLedger::home(id, bits)).collect();
            assert_eq!(homes.len(), 1, "{bits}-bit table");
        }
    }

    #[test]
    fn extreme_ids_are_ordinary_keys() {
        let mut ledger = PeerLedger::new();
        for peer in [usize::MAX, 0, usize::MAX - 1, 1] {
            assert!(ledger.test(peer), "{peer} is new");
        }
        ledger.reject(usize::MAX);
        assert!(!ledger.test(usize::MAX));
        assert!(!ledger.test(0));
        assert_eq!(ledger.end_round(), (4, 1));
        assert!(!ledger.test(usize::MAX), "remembered across rounds");
        assert_eq!(ledger.end_round(), (1, 0));
    }

    proptest::proptest! {
        /// A flood of ids that all share one home slot, interleaved
        /// with ordinary ids: no lookup inspects more than
        /// `PROBE_LIMIT` slots, the surplus spills to the overflow map,
        /// and first-time flags and round counts stay exact.
        #[test]
        fn colliding_ids_keep_the_probe_bound(
            salts in proptest::collection::vec(0u64..u64::MAX, 40..200),
            home in 0u64..16,
            ordinary in proptest::collection::vec(0usize..5000, 0..100),
        ) {
            let flood = colliding_ids(home, 24, &salts);
            let mut ledger = PeerLedger::new();
            let mut seen = BTreeSet::new();
            let mut round_peers = BTreeSet::new();
            let ids = flood.iter().chain(&ordinary).chain(&flood);
            for (k, &peer) in ids.enumerate() {
                proptest::prop_assert_eq!(ledger.test(peer), seen.insert(peer));
                round_peers.insert(peer);
                if k % 7 == 0 {
                    let (tested, _) = ledger.end_round();
                    proptest::prop_assert_eq!(tested, round_peers.len());
                    round_peers.clear();
                }
            }
            for &peer in flood.iter().chain(&ordinary) {
                let probes = ledger.probe_cost(peer);
                proptest::prop_assert!(probes <= PROBE_LIMIT, "{} probes", probes);
            }
            let distinct_flood: BTreeSet<usize> = flood.iter().copied().collect();
            proptest::prop_assert!(
                ledger.overflow.len() + PROBE_LIMIT >= distinct_flood.len(),
                "all but one window's worth of the flood spills: {} of {}",
                ledger.overflow.len(),
                distinct_flood.len()
            );
            proptest::prop_assert_eq!(ledger.len, seen.len());
        }
    }
}
