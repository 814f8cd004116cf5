#![warn(missing_docs)]

//! # gridrm-benchmark — a replay benchmark whose numbers repeat
//!
//! One invocation runs one workload: a fixed, seeded sequence of wire
//! requests replayed a fixed number of times against a freshly built
//! `ServeWorld` → `GlobalLayer::wire_service()` → `TcpServer` on
//! loopback. Every request is timed in-process and over TCP; the
//! estimator is the position-wise minimum over replays
//! ([`estimator`]), counts come from the program's own counters and
//! must be identical in every replay ([`replay`]), and a separate
//! traced pass times each layer from outside through its public entry
//! points ([`probes`]). See the crate README for definitions.

pub mod alloc;
pub mod estimator;
pub mod host;
pub mod probes;
pub mod replay;
pub mod report;
pub mod workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;
