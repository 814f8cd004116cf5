//! The rule catalog: the checks no compiler lint, type or test makes.
//! `determinism` runs per file (waiver filtering happens in
//! [`crate::check_file`]); `lock-order` runs over the whole workspace.

pub mod determinism;
pub mod lockorder;

/// Every rule id the analyzer can emit (used to validate waivers).
pub const RULES: &[&str] = &["determinism", "lock-order", "waiver-syntax", "parse"];
