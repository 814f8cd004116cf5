//! Fixture: well-formed waivers suppress determinism findings, in both
//! the own-line and the trailing form.

pub fn stamp() -> u64 {
    // xlint: allow(determinism) -- fixture: deliberate, reviewed wall-clock read
    let first = std::time::Instant::now();
    let second = std::time::SystemTime::now(); // xlint: allow(determinism) -- fixture: trailing waiver form
    elapsed(first, second)
}
