//! Fixture: every malformed-waiver shape once.

pub fn f() -> u32 {
    // xlint: allow(determinism)
    let a = 1;
    // xlint: allow(made-up-rule) -- because I said so
    let b = 2;
    // xlint: nothing to see here
    let c = 3;
    a + b + c
}
