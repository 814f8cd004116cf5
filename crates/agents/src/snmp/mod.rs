//! A from-scratch SNMP implementation: OIDs, a compact TLV wire codec
//! ("BER-lite" — see DESIGN.md for the substitution note), a MIB-2 /
//! host-resources / UCD subset populated from the resource model, and an
//! agent with GET / GETNEXT / GETBULK plus threshold traps.

pub mod agent;
pub mod codec;
pub mod mib;
pub mod oid;

pub use agent::SnmpAgent;
pub use codec::{Pdu, SnmpMessage, SnmpValue};
pub use mib::oids;
pub use oid::Oid;
