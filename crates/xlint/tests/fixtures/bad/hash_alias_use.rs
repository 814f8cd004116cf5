//! Fixture: a hash map imported under an ordered map's name still
//! iterates in hash order. Parsed by the tests, never compiled.

use std::collections::HashMap as BTreeMap;

pub struct Ledger {
    bills: BTreeMap<String, u64>,
}

impl Ledger {
    pub fn rows(&self) -> Vec<(String, u64)> {
        self.bills.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }
}
