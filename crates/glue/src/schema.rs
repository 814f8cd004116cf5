//! GLUE group and attribute definitions.

use gridrm_sqlparse::SqlType;
use serde::{Deserialize, Serialize};

/// One attribute of a GLUE group (a column of the logical table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeDef {
    /// Attribute name as clients see it (e.g. `Load1`).
    pub name: String,
    /// Value type.
    pub ty: SqlType,
    /// Measurement unit, when meaningful (e.g. `MHz`, `MB`, `%`).
    pub unit: Option<String>,
    /// Documentation string.
    pub description: String,
}

impl AttributeDef {
    /// Define an attribute.
    pub fn new(name: &str, ty: SqlType, unit: Option<&str>, description: &str) -> Self {
        AttributeDef {
            name: name.to_owned(),
            ty,
            unit: unit.map(str::to_owned),
            description: description.to_owned(),
        }
    }
}

/// A GLUE group — the logical table clients name in `FROM` clauses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupDef {
    /// Group name (e.g. `Processor`).
    pub name: String,
    /// Ordered attribute list; the order defines result-column order.
    pub attributes: Vec<AttributeDef>,
    /// Documentation string.
    pub description: String,
}

impl GroupDef {
    /// Find an attribute by name (case-insensitive).
    pub fn attribute(&self, name: &str) -> Option<&AttributeDef> {
        self.attributes
            .iter()
            .find(|a| a.name.eq_ignore_ascii_case(name))
    }

    /// Index of an attribute (case-insensitive).
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.attributes
            .iter()
            .position(|a| a.name.eq_ignore_ascii_case(name))
    }

    /// Attribute names in definition order.
    pub fn attribute_names(&self) -> Vec<&str> {
        self.attributes.iter().map(|a| a.name.as_str()).collect()
    }
}

/// A complete naming schema: a set of groups.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Schema {
    /// Schema name, e.g. `GLUE`.
    pub name: String,
    /// Schema version string, e.g. `1.1`.
    pub version: String,
    /// The groups.
    pub groups: Vec<GroupDef>,
}

impl Schema {
    /// Find a group by name (case-insensitive).
    pub fn group(&self, name: &str) -> Option<&GroupDef> {
        self.groups
            .iter()
            .find(|g| g.name.eq_ignore_ascii_case(name))
    }

    /// Add (or replace) a group definition. Used when extending the schema
    /// at runtime; the `SchemaManager` bumps its version on every change.
    pub fn upsert_group(&mut self, group: GroupDef) {
        match self
            .groups
            .iter_mut()
            .find(|g| g.name.eq_ignore_ascii_case(&group.name))
        {
            Some(slot) => *slot = group,
            None => self.groups.push(group),
        }
    }
}

/// The built-in GLUE schema GridRM-rs ships with.
///
/// Modelled on GLUE 1.x conceptual groups: host-level groups (Processor,
/// MainMemory, OperatingSystem, Disk, FileSystem, NetworkAdapter), the
/// pairwise NetworkElement group (what NWS measures), the site-level
/// ComputeElement/StorageElement groups, and the Event group used by the
/// Event Manager for normalised events.
pub fn builtin_schema() -> Schema {
    use SqlType::*;
    let g = |name: &str, description: &str, attrs: Vec<AttributeDef>| GroupDef {
        name: name.to_owned(),
        attributes: attrs,
        description: description.to_owned(),
    };
    let a = AttributeDef::new;
    Schema {
        name: "GLUE".to_owned(),
        version: "1.1".to_owned(),
        groups: vec![
            g(
                "Host",
                "Identity and liveness of a monitored host",
                vec![
                    a("Hostname", Str, None, "Fully qualified host name"),
                    a("SiteName", Str, None, "Grid site the host belongs to"),
                    a("UpTimeSec", Int, Some("s"), "Seconds since boot"),
                    a("BootTime", Timestamp, Some("ms"), "Boot time, epoch millis"),
                ],
            ),
            g(
                "Processor",
                "CPU identity and load of a host",
                vec![
                    a("Hostname", Str, None, "Host the processors belong to"),
                    a("NCpu", Int, None, "Number of logical CPUs"),
                    a("ClockMHz", Int, Some("MHz"), "Clock speed"),
                    a("Model", Str, None, "CPU model string"),
                    a("Vendor", Str, None, "CPU vendor"),
                    a("Load1", Float, None, "1-minute load average"),
                    a("Load5", Float, None, "5-minute load average"),
                    a("Load15", Float, None, "15-minute load average"),
                    a("CpuUser", Float, Some("%"), "User-mode CPU time share"),
                    a("CpuSystem", Float, Some("%"), "Kernel-mode CPU time share"),
                    a("CpuIdle", Float, Some("%"), "Idle CPU time share"),
                ],
            ),
            g(
                "MainMemory",
                "Physical and virtual memory of a host",
                vec![
                    a("Hostname", Str, None, "Host"),
                    a("RAMSizeMB", Int, Some("MB"), "Physical memory size"),
                    a("RAMAvailableMB", Int, Some("MB"), "Free physical memory"),
                    a("VirtualSizeMB", Int, Some("MB"), "Swap + RAM size"),
                    a("VirtualAvailableMB", Int, Some("MB"), "Free virtual memory"),
                ],
            ),
            g(
                "OperatingSystem",
                "Operating system identity",
                vec![
                    a("Hostname", Str, None, "Host"),
                    a("Name", Str, None, "OS name"),
                    a("Release", Str, None, "OS release"),
                    a("Version", Str, None, "OS version string"),
                ],
            ),
            g(
                "Disk",
                "Physical disk devices and their activity",
                vec![
                    a("Hostname", Str, None, "Host"),
                    a("Device", Str, None, "Device name, e.g. sda"),
                    a("SizeMB", Int, Some("MB"), "Raw capacity"),
                    a("ReadCount", Int, None, "Cumulative read operations"),
                    a("WriteCount", Int, None, "Cumulative write operations"),
                ],
            ),
            g(
                "FileSystem",
                "Mounted file systems",
                vec![
                    a("Hostname", Str, None, "Host"),
                    a("Name", Str, None, "Mount point"),
                    a("Root", Str, None, "Backing device"),
                    a("SizeMB", Int, Some("MB"), "Capacity"),
                    a("AvailableMB", Int, Some("MB"), "Free space"),
                    a("ReadOnly", Bool, None, "Mounted read-only?"),
                ],
            ),
            g(
                "NetworkAdapter",
                "Network interfaces and their counters",
                vec![
                    a("Hostname", Str, None, "Host"),
                    a("Name", Str, None, "Interface name, e.g. eth0"),
                    a("IPAddress", Str, None, "Primary IPv4 address"),
                    a("MTU", Int, Some("B"), "Maximum transmission unit"),
                    a("RxBytes", Int, Some("B"), "Cumulative bytes received"),
                    a("TxBytes", Int, Some("B"), "Cumulative bytes sent"),
                    a("Up", Bool, None, "Operational state"),
                ],
            ),
            g(
                "NetworkElement",
                "Pairwise end-to-end network performance (NWS-style)",
                vec![
                    a("SourceHost", Str, None, "Measurement source"),
                    a("DestHost", Str, None, "Measurement destination"),
                    a("BandwidthMbps", Float, Some("Mb/s"), "Measured bandwidth"),
                    a("LatencyMs", Float, Some("ms"), "Measured latency"),
                    a(
                        "ForecastBandwidthMbps",
                        Float,
                        Some("Mb/s"),
                        "Forecast bandwidth",
                    ),
                    a("ForecastLatencyMs", Float, Some("ms"), "Forecast latency"),
                    a("ForecastMethod", Str, None, "Winning forecaster name"),
                ],
            ),
            g(
                "ComputeElement",
                "Site-level batch/compute summary",
                vec![
                    a("CEId", Str, None, "Compute element identifier"),
                    a("SiteName", Str, None, "Owning site"),
                    a("TotalCpus", Int, None, "CPUs managed"),
                    a("FreeCpus", Int, None, "CPUs currently free"),
                    a("RunningJobs", Int, None, "Jobs running"),
                    a("WaitingJobs", Int, None, "Jobs queued"),
                    a("Status", Str, None, "Production status"),
                ],
            ),
            g(
                "StorageElement",
                "Site-level storage summary",
                vec![
                    a("SEId", Str, None, "Storage element identifier"),
                    a("SiteName", Str, None, "Owning site"),
                    a("TotalSizeGB", Int, Some("GB"), "Capacity"),
                    a("UsedSizeGB", Int, Some("GB"), "Used space"),
                    a("Type", Str, None, "disk / tape"),
                ],
            ),
            g(
                "Event",
                "Normalised GridRM events (traps, alerts, log events)",
                vec![
                    a("EventId", Int, None, "Gateway-assigned sequence number"),
                    a("SourceUrl", Str, None, "Data source URL that produced it"),
                    a("Hostname", Str, None, "Host concerned"),
                    a("Severity", Str, None, "info / warning / critical"),
                    a("Category", Str, None, "Event category, e.g. cpu.load"),
                    a("Message", Str, None, "Human-readable message"),
                    a("At", Timestamp, Some("ms"), "When the event occurred"),
                    a("Value", Float, None, "Associated numeric value, if any"),
                ],
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_has_core_groups() {
        let s = builtin_schema();
        for name in [
            "Host",
            "Processor",
            "MainMemory",
            "OperatingSystem",
            "Disk",
            "FileSystem",
            "NetworkAdapter",
            "NetworkElement",
            "ComputeElement",
            "StorageElement",
            "Event",
        ] {
            assert!(s.group(name).is_some(), "missing group {name}");
        }
    }

    #[test]
    fn group_lookup_case_insensitive() {
        let s = builtin_schema();
        assert!(s.group("processor").is_some());
        assert!(s.group("PROCESSOR").is_some());
        assert!(s.group("NoSuchGroup").is_none());
    }

    #[test]
    fn attribute_lookup() {
        let s = builtin_schema();
        let p = s.group("Processor").unwrap();
        assert_eq!(p.attribute("load1").unwrap().ty, SqlType::Float);
        assert_eq!(p.attribute_index("Hostname"), Some(0));
        assert!(p.attribute("Bogus").is_none());
    }

    #[test]
    fn units_present_where_meaningful() {
        let s = builtin_schema();
        let mm = s.group("MainMemory").unwrap();
        assert_eq!(
            mm.attribute("RAMSizeMB").unwrap().unit.as_deref(),
            Some("MB")
        );
    }

    #[test]
    fn upsert_replaces_or_adds() {
        let mut s = builtin_schema();
        let n = s.groups.len();
        let mut p = s.group("Processor").unwrap().clone();
        p.attributes.push(AttributeDef::new(
            "BogoMips",
            SqlType::Float,
            None,
            "extension attribute",
        ));
        s.upsert_group(p);
        assert_eq!(s.groups.len(), n);
        assert!(s
            .group("Processor")
            .unwrap()
            .attribute("BogoMips")
            .is_some());

        s.upsert_group(GroupDef {
            name: "Custom".into(),
            attributes: vec![],
            description: String::new(),
        });
        assert_eq!(s.groups.len(), n + 1);
    }

    #[test]
    fn attribute_names_ordered() {
        let s = builtin_schema();
        let names = s.group("NetworkElement").unwrap().attribute_names();
        assert_eq!(names[0], "SourceHost");
        assert_eq!(names[1], "DestHost");
    }
}
