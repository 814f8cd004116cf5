//! The bundled drivers' GLUE implementation metadata (§3.2.3): for each
//! driver, which GLUE attributes it can supply from which native keys, and
//! with which transforms. Registered with the gateway's `SchemaManager`
//! when the drivers are installed.
//!
//! Attributes deliberately left unmapped (e.g. `IPAddress` via SNMP, CPU
//! `Model` via Ganglia) exercise the paper's rule that untranslatable
//! values come back NULL.

use gridrm_agents::snmp::oids;
use gridrm_glue::{DriverMapping, FieldMapping, Transform};
use gridrm_sqlparse::SqlValue;
use std::collections::BTreeMap;

const KB_TO_MB: f64 = 1.0 / 1024.0;
const CENTI: f64 = 0.01;

fn scaled(key: &str, factor: f64) -> FieldMapping {
    FieldMapping::scaled(key, factor)
}

fn direct(key: &str) -> FieldMapping {
    FieldMapping::direct(key)
}

/// GLUE mapping for the JDBC-SNMP driver. Native keys are OID strings;
/// indexed (table) groups use the column *prefix* OID.
pub fn snmp_mapping() -> DriverMapping {
    let la1 = format!("{}.1", oids::LA_LOAD_INT);
    let la5 = format!("{}.2", oids::LA_LOAD_INT);
    let la15 = format!("{}.3", oids::LA_LOAD_INT);
    let mut up_table = BTreeMap::new();
    up_table.insert("1".to_owned(), SqlValue::Bool(true));
    up_table.insert("2".to_owned(), SqlValue::Bool(false));
    DriverMapping::new("jdbc-snmp")
        .with_group(
            "Host",
            [
                ("Hostname", direct(oids::SYS_NAME)),
                // sysUpTime is TimeTicks (centiseconds) → seconds.
                ("UpTimeSec", scaled(oids::SYS_UPTIME, CENTI)),
            ],
        )
        .with_group(
            "Processor",
            [
                ("Hostname", direct(oids::SYS_NAME)),
                ("NCpu", direct(oids::HR_NUM_CPU)),
                ("ClockMHz", direct(oids::CPU_MHZ)),
                ("Model", direct(oids::CPU_MODEL)),
                ("Vendor", direct(oids::CPU_VENDOR)),
                ("Load1", scaled(la1.as_str(), CENTI)),
                ("Load5", scaled(la5.as_str(), CENTI)),
                ("Load15", scaled(la15.as_str(), CENTI)),
                ("CpuUser", direct(oids::SS_CPU_USER)),
                ("CpuSystem", direct(oids::SS_CPU_SYSTEM)),
                ("CpuIdle", direct(oids::SS_CPU_IDLE)),
            ],
        )
        .with_group(
            "MainMemory",
            [
                ("Hostname", direct(oids::SYS_NAME)),
                ("RAMSizeMB", scaled(oids::HR_MEMORY_SIZE, KB_TO_MB)),
                ("RAMAvailableMB", scaled(oids::MEM_AVAIL_REAL, KB_TO_MB)),
                ("VirtualSizeMB", scaled(oids::MEM_TOTAL_SWAP, KB_TO_MB)),
                ("VirtualAvailableMB", scaled(oids::MEM_AVAIL_SWAP, KB_TO_MB)),
            ],
        )
        .with_group(
            "OperatingSystem",
            [
                ("Hostname", direct(oids::SYS_NAME)),
                // sysDescr carries the whole identity string; Release and
                // Version are not separately available → NULL (§3.2.3).
                ("Name", direct(oids::SYS_DESCR)),
            ],
        )
        .with_group(
            "NetworkAdapter",
            [
                ("Hostname", direct(oids::SYS_NAME)),
                ("Name", direct(oids::IF_DESCR)),
                ("MTU", direct(oids::IF_MTU)),
                ("RxBytes", direct(oids::IF_IN_OCTETS)),
                ("TxBytes", direct(oids::IF_OUT_OCTETS)),
                (
                    "Up",
                    FieldMapping {
                        native_key: oids::IF_OPER_STATUS.to_owned(),
                        transform: Transform::Enum { table: up_table },
                    },
                ),
            ],
        )
        .with_group(
            "FileSystem",
            [
                ("Hostname", direct(oids::SYS_NAME)),
                ("Name", direct(oids::HR_STORAGE_DESCR)),
                ("SizeMB", direct(oids::HR_STORAGE_SIZE)),
                // Synthesised by the driver from size - used.
                ("AvailableMB", direct("derived.hrStorageAvail")),
            ],
        )
        .with_group(
            "Disk",
            [
                ("Hostname", direct(oids::SYS_NAME)),
                ("Device", direct(oids::DISK_IO_DEVICE)),
                ("ReadCount", direct(oids::DISK_IO_READS)),
                ("WriteCount", direct(oids::DISK_IO_WRITES)),
            ],
        )
}

/// GLUE mapping for the JDBC-Ganglia driver. Native keys are gmond metric
/// names plus the synthetic `host.*` keys the driver extracts from HOST
/// element attributes.
pub fn ganglia_mapping() -> DriverMapping {
    DriverMapping::new("jdbc-ganglia")
        .with_group(
            "Host",
            [
                ("Hostname", direct("host.name")),
                ("UpTimeSec", direct("derived.uptime_sec")),
                ("BootTime", scaled("boottime", 1000.0)),
            ],
        )
        .with_group(
            "Processor",
            [
                ("Hostname", direct("host.name")),
                ("NCpu", direct("cpu_num")),
                ("ClockMHz", direct("cpu_speed")),
                ("Load1", direct("load_one")),
                ("Load5", direct("load_five")),
                ("Load15", direct("load_fifteen")),
                ("CpuUser", direct("cpu_user")),
                ("CpuSystem", direct("cpu_system")),
                ("CpuIdle", direct("cpu_idle")),
            ],
        )
        .with_group(
            "MainMemory",
            [
                ("Hostname", direct("host.name")),
                ("RAMSizeMB", scaled("mem_total", KB_TO_MB)),
                ("RAMAvailableMB", scaled("mem_free", KB_TO_MB)),
                ("VirtualSizeMB", scaled("swap_total", KB_TO_MB)),
                ("VirtualAvailableMB", scaled("swap_free", KB_TO_MB)),
            ],
        )
        .with_group(
            "OperatingSystem",
            [
                ("Hostname", direct("host.name")),
                ("Name", direct("os_name")),
                ("Release", direct("os_release")),
            ],
        )
        .with_group(
            "NetworkAdapter",
            [
                ("Hostname", direct("host.name")),
                ("IPAddress", direct("host.ip")),
                ("RxBytes", direct("bytes_in")),
                ("TxBytes", direct("bytes_out")),
            ],
        )
}

/// GLUE mapping for the JDBC-NWS driver (NetworkElement group).
pub fn nws_mapping() -> DriverMapping {
    DriverMapping::new("jdbc-nws").with_group(
        "NetworkElement",
        [
            ("SourceHost", direct("src")),
            ("DestHost", direct("dst")),
            ("BandwidthMbps", direct("bandwidthMbps")),
            ("LatencyMs", direct("latencyMs")),
            ("ForecastBandwidthMbps", direct("forecastBandwidthMbps")),
            ("ForecastLatencyMs", direct("forecastLatencyMs")),
            ("ForecastMethod", direct("forecastMethod")),
        ],
    )
}

/// GLUE mapping for the JDBC-NetLogger driver (Event group).
pub fn netlogger_mapping() -> DriverMapping {
    DriverMapping::new("jdbc-netlogger").with_group(
        "Event",
        [
            ("SourceUrl", direct("source_url")),
            ("Hostname", direct("host")),
            ("Severity", direct("level")),
            ("Category", direct("event")),
            ("Message", direct("line")),
            ("At", direct("at_ms")),
            ("Value", direct("value")),
        ],
    )
}

/// GLUE mapping for the JDBC-SCMS driver.
pub fn scms_mapping() -> DriverMapping {
    DriverMapping::new("jdbc-scms")
        .with_group(
            "Host",
            [
                ("Hostname", direct("host")),
                ("UpTimeSec", direct("uptime_sec")),
            ],
        )
        .with_group(
            "Processor",
            [
                ("Hostname", direct("host")),
                ("NCpu", direct("ncpu")),
                ("ClockMHz", direct("cpu_mhz")),
                ("Load1", direct("load1")),
                ("Load5", direct("load5")),
            ],
        )
        .with_group(
            "MainMemory",
            [
                ("Hostname", direct("host")),
                ("RAMSizeMB", direct("mem_total_mb")),
                ("RAMAvailableMB", direct("mem_free_mb")),
            ],
        )
        .with_group(
            "ComputeElement",
            [
                ("CEId", direct("ce_id")),
                ("SiteName", direct("site")),
                ("TotalCpus", direct("cpus_total")),
                ("FreeCpus", direct("cpus_free")),
                ("RunningJobs", direct("jobs_running")),
                ("WaitingJobs", direct("jobs_waiting")),
                ("Status", direct("status")),
            ],
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_mappings_name_their_driver() {
        assert_eq!(snmp_mapping().driver, "jdbc-snmp");
        assert_eq!(ganglia_mapping().driver, "jdbc-ganglia");
        assert_eq!(nws_mapping().driver, "jdbc-nws");
        assert_eq!(netlogger_mapping().driver, "jdbc-netlogger");
        assert_eq!(scms_mapping().driver, "jdbc-scms");
    }

    #[test]
    fn snmp_supports_processor_not_networkelement() {
        let m = snmp_mapping();
        assert!(m.group("Processor").is_some());
        assert!(m.group("FileSystem").is_some());
        assert!(m.group("NetworkElement").is_none());
    }

    #[test]
    fn mapping_attributes_exist_in_builtin_schema() {
        // Every mapped attribute must actually be a GLUE attribute of the
        // group it claims to implement.
        let schema = gridrm_glue::builtin_schema();
        for mapping in [
            snmp_mapping(),
            ganglia_mapping(),
            nws_mapping(),
            netlogger_mapping(),
            scms_mapping(),
        ] {
            for (group, fields) in &mapping.groups {
                let def = schema
                    .group(group)
                    .unwrap_or_else(|| panic!("{}: unknown group {group}", mapping.driver));
                for attr in fields.keys() {
                    assert!(
                        def.attribute(attr).is_some(),
                        "{}: {group}.{attr} not in GLUE",
                        mapping.driver
                    );
                }
            }
        }
    }

    #[test]
    fn load_uses_centi_scale() {
        let m = snmp_mapping();
        let fields = m.group("Processor").unwrap();
        let load1 = &fields["Load1"];
        assert!(matches!(
            load1.transform,
            Transform::Scale { factor } if (factor - 0.01).abs() < 1e-12
        ));
    }
}
