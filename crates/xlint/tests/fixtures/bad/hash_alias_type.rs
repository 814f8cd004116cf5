//! Fixture: a type alias of a hash map, and an alias of that alias,
//! iterate in hash order. Parsed by the tests, never compiled.

use std::collections::HashMap;

type Buckets = HashMap<&'static str, u64>;
type Causes = Buckets;

pub struct Meter {
    buckets: Buckets,
}

impl Meter {
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let mut out = Vec::new();
        for (cause, bytes) in &self.buckets {
            out.push((*cause, *bytes));
        }
        out
    }

    pub fn causes(&self) -> Vec<&'static str> {
        let seen = Causes::new();
        seen.keys().copied().collect()
    }
}
