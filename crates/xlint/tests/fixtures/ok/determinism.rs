//! Fixture: deterministic counterparts — ordered collections (one
//! behind a type alias), orderless folds over hash maps, an
//! order-restoring collect, and the waiver shape for a genuinely
//! wall-clock helper. Parsed, never compiled.

use std::collections::{BTreeMap, BTreeSet, HashMap};

type Seen = BTreeMap<String, u64>;

pub struct Snapshotter {
    seen: Seen,
    hot: HashMap<String, u64>,
}

impl Snapshotter {
    pub fn rows(&self) -> Vec<(String, u64)> {
        self.seen.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    pub fn total(&self) -> u64 {
        self.hot.values().sum::<u64>()
    }

    pub fn live(&self) -> usize {
        self.hot.iter().count()
    }

    pub fn busiest(&self) -> Option<u64> {
        self.hot.values().copied().max()
    }

    pub fn names(&self) -> BTreeSet<String> {
        self.hot.keys().cloned().collect::<BTreeSet<String>>()
    }

    pub fn lookup(&self, k: &str) -> Option<u64> {
        self.hot.get(k).copied()
    }

    pub fn wall_probe(&self) -> u64 {
        // xlint: allow(determinism) -- demonstrating the waiver shape for a reviewed wall-clock exception
        let _ = std::time::Instant::now();
        0
    }
}
