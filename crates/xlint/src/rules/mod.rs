//! The rule catalog. Each rule module exposes
//! `check(&SourceFile, &Config) -> Vec<Finding>`; waiver filtering
//! happens in [`crate::check_file`].

pub mod determinism;
pub mod drivers;
pub mod lockorder;
pub mod locks;
pub mod metrics;
pub mod panics;
pub mod stages;

/// Every rule id the analyzer can emit (used to validate waivers).
pub const RULES: &[&str] = &[
    "metric-prefix",
    "counter-suffix",
    "label-key",
    "stage-vocab",
    "hot-path-panic",
    "lock-across-dispatch",
    "lock-order",
    "determinism",
    "wire-schema",
    "driver-conformance",
    "waiver-syntax",
    "parse",
];
