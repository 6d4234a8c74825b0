//! A set of node ids with constant-time membership.
//!
//! Every adversary answers "is this node one of ours?" on every step of
//! a run, usually twice (peer and victim). [`NodeSet`] answers from a
//! dense bitmap — one bit per id up to the largest member — and keeps
//! the ids in ascending order beside it for iteration and serde, so it
//! serializes exactly as the `BTreeSet<usize>` it replaces.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Node ids in ascending order with a membership bitmap. Ids are
/// population indices: the bitmap costs one bit per id up to the
/// largest member.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    /// The members, ascending and distinct.
    ids: Vec<usize>,
    /// Bit `id % 64` of word `id / 64` is set for every member.
    bits: Vec<u64>,
}

impl NodeSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `node` is a member: one bitmap probe.
    pub fn contains(&self, node: usize) -> bool {
        self.bits
            .get(node / 64)
            .is_some_and(|word| word >> (node % 64) & 1 == 1)
    }

    /// Add `node`; returns whether it was new.
    pub fn insert(&mut self, node: usize) -> bool {
        if self.contains(node) {
            return false;
        }
        let word = node / 64;
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1 << (node % 64);
        let at = self.ids.partition_point(|&id| id < node);
        self.ids.insert(at, node);
        true
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ids.iter().copied()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

impl FromIterator<usize> for NodeSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut ids: Vec<usize> = iter.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let mut bits = vec![0u64; ids.last().map_or(0, |&max| max / 64 + 1)];
        for &id in &ids {
            bits[id / 64] |= 1 << (id % 64);
        }
        Self { ids, bits }
    }
}

impl Serialize for NodeSet {
    fn to_value(&self) -> serde::Value {
        self.ids.to_value()
    }
}

impl Deserialize for NodeSet {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        BTreeSet::<usize>::from_value(v).map(|ids| ids.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_stats::rng::SimRng;
    use rand::RngExt;

    /// Membership of every id from 0 to past the largest member, and
    /// of the largest ids there are, against the reference set.
    fn assert_same_members(set: &NodeSet, reference: &BTreeSet<usize>) {
        let max = reference.iter().next_back().copied().unwrap_or(0);
        for id in (0..max + 130).chain([usize::MAX - 1, usize::MAX]) {
            assert_eq!(set.contains(id), reference.contains(&id), "id {id}");
        }
        assert!(set.iter().eq(reference.iter().copied()));
        assert_eq!(set.len(), reference.len());
        assert_eq!(set.is_empty(), reference.is_empty());
    }

    #[test]
    fn membership_matches_a_btreeset() {
        let mut rng = SimRng::seed_from_u64(41);
        let mut cases: Vec<Vec<usize>> = vec![vec![], vec![0], vec![63], vec![64], vec![0, 1739]];
        for _ in 0..40 {
            let len = rng.random_range(0..50);
            let span = rng.random_range(1..3000);
            cases.push((0..len).map(|_| rng.random_range(0..span)).collect());
        }
        for ids in cases {
            let reference: BTreeSet<usize> = ids.iter().copied().collect();
            let collected: NodeSet = ids.iter().copied().collect();
            assert_same_members(&collected, &reference);
            let mut inserted = NodeSet::new();
            let mut seen = BTreeSet::new();
            for &id in &ids {
                assert_eq!(inserted.insert(id), seen.insert(id), "insert {id}");
            }
            assert_eq!(inserted, collected);
        }
    }

    #[test]
    fn json_bytes_equal_the_btreeset_encoding_and_round_trip() {
        let mut rng = SimRng::seed_from_u64(42);
        for len in [0, 1, 2, 17, 64] {
            let ids: Vec<usize> = (0..len).map(|_| rng.random_range(0..5000)).collect();
            let reference: BTreeSet<usize> = ids.iter().copied().collect();
            let set: NodeSet = ids.into_iter().collect();
            let json = serde_json::to_string(&set).expect("serialize");
            assert_eq!(json, serde_json::to_string(&reference).expect("serialize"));
            let back: NodeSet = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(back, set);
            assert_same_members(&back, &reference);
        }
    }
}
