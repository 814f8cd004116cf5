#![warn(missing_docs)]

//! # gridrm-bench — experiment support library
//!
//! The canonical simulated worlds the experiment harness
//! (`src/bin/experiments.rs`) builds its scenarios from, so every
//! experiment in `EXPERIMENTS.md` starts from the same seeded sites and
//! its counts are comparable across experiments and runs.

pub mod world;

pub use world::{grid_world, grid_world_with_wan, single_site_world, GridWorld, SiteWorld, SEED};
