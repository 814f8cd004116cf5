//! The MIB subset served by the agent: MIB-2 system + interfaces,
//! HOST-RESOURCES, and UCD-SNMP load/memory/CPU — the objects the paper's
//! JDBC-SNMP driver needs to populate the GLUE host groups.
//!
//! Kept between requests: the sorted key set — which OIDs the host has —
//! a function of its NIC, filesystem, CPU and disk counts, which the
//! immutable `HostSpec` fixes. Read live: every value, from the snapshot
//! taken for the request and only for the OIDs it names, the way a real
//! snmpd reads /proc; the agent stays a stateless view of the resource
//! model.

use super::codec::SnmpValue;
use super::oid::Oid;
use gridrm_resmodel::HostSnapshot;
use std::sync::LazyLock;

/// Well-known OIDs (string form; parse with `.parse::<Oid>()`).
pub mod oids {
    /// sysDescr.0
    pub const SYS_DESCR: &str = "1.3.6.1.2.1.1.1.0";
    /// sysUpTime.0 (TimeTicks, centiseconds)
    pub const SYS_UPTIME: &str = "1.3.6.1.2.1.1.3.0";
    /// sysName.0
    pub const SYS_NAME: &str = "1.3.6.1.2.1.1.5.0";
    /// ifNumber.0
    pub const IF_NUMBER: &str = "1.3.6.1.2.1.2.1.0";
    /// ifDescr table column
    pub const IF_DESCR: &str = "1.3.6.1.2.1.2.2.1.2";
    /// ifMtu table column
    pub const IF_MTU: &str = "1.3.6.1.2.1.2.2.1.4";
    /// ifOperStatus table column (1 = up)
    pub const IF_OPER_STATUS: &str = "1.3.6.1.2.1.2.2.1.8";
    /// ifInOctets table column
    pub const IF_IN_OCTETS: &str = "1.3.6.1.2.1.2.2.1.10";
    /// ifOutOctets table column
    pub const IF_OUT_OCTETS: &str = "1.3.6.1.2.1.2.2.1.16";
    /// hrMemorySize.0 (KB)
    pub const HR_MEMORY_SIZE: &str = "1.3.6.1.2.1.25.2.2.0";
    /// hrStorageDescr column
    pub const HR_STORAGE_DESCR: &str = "1.3.6.1.2.1.25.2.3.1.3";
    /// hrStorageSize column (in allocation units; we use MB units)
    pub const HR_STORAGE_SIZE: &str = "1.3.6.1.2.1.25.2.3.1.5";
    /// hrStorageUsed column
    pub const HR_STORAGE_USED: &str = "1.3.6.1.2.1.25.2.3.1.6";
    /// hrProcessorLoad column (percent)
    pub const HR_PROCESSOR_LOAD: &str = "1.3.6.1.2.1.25.3.3.1.2";
    /// hrSystemNumUsers-adjacent: number of processors (we publish a scalar)
    pub const HR_NUM_CPU: &str = "1.3.6.1.2.1.25.3.3.2.0";
    /// UCD laLoadInt.{1,2,3} (load × 100)
    pub const LA_LOAD_INT: &str = "1.3.6.1.4.1.2021.10.1.5";
    /// UCD memAvailReal.0 (KB)
    pub const MEM_AVAIL_REAL: &str = "1.3.6.1.4.1.2021.4.6.0";
    /// UCD memTotalSwap.0 (KB)
    pub const MEM_TOTAL_SWAP: &str = "1.3.6.1.4.1.2021.4.3.0";
    /// UCD memAvailSwap.0 (KB)
    pub const MEM_AVAIL_SWAP: &str = "1.3.6.1.4.1.2021.4.4.0";
    /// UCD ssCpuUser.0 (percent)
    pub const SS_CPU_USER: &str = "1.3.6.1.4.1.2021.11.9.0";
    /// UCD ssCpuSystem.0 (percent)
    pub const SS_CPU_SYSTEM: &str = "1.3.6.1.4.1.2021.11.10.0";
    /// UCD ssCpuIdle.0 (percent)
    pub const SS_CPU_IDLE: &str = "1.3.6.1.4.1.2021.11.11.0";
    /// UCD diskIO device-name column (per device)
    pub const DISK_IO_DEVICE: &str = "1.3.6.1.4.1.2021.13.15.1.1.2";
    /// UCD diskIO reads column (per device)
    pub const DISK_IO_READS: &str = "1.3.6.1.4.1.2021.13.15.1.1.5";
    /// UCD diskIO writes column (per device)
    pub const DISK_IO_WRITES: &str = "1.3.6.1.4.1.2021.13.15.1.1.6";
    /// CPU clock MHz (vendor extension scalar)
    pub const CPU_MHZ: &str = "1.3.6.1.4.1.2021.100.1.0";
    /// CPU model (vendor extension scalar)
    pub const CPU_MODEL: &str = "1.3.6.1.4.1.2021.100.2.0";
    /// CPU vendor (vendor extension scalar)
    pub const CPU_VENDOR: &str = "1.3.6.1.4.1.2021.100.3.0";
    /// Enterprise trap: load threshold exceeded
    pub const TRAP_LOAD_HIGH: &str = "1.3.6.1.4.1.2021.251.1";
}

/// How an object's value is read from a snapshot, given which row of
/// its host table the object is (0 for a scalar).
type Read = fn(&HostSnapshot, usize) -> SnmpValue;

/// How many objects a column has: one, or one per row of a host table.
#[derive(Clone, Copy)]
enum Rows {
    Scalar,
    PerNic,
    PerFs,
    PerCpu,
    PerDisk,
    /// laLoadInt.{1,2,3}: the 1-, 5- and 15-minute averages.
    Loads,
}

impl Rows {
    fn count(self, snap: &HostSnapshot) -> usize {
        match self {
            Rows::Scalar => 1,
            Rows::PerNic => snap.nics.len(),
            Rows::PerFs => snap.filesystems.len(),
            Rows::PerCpu => snap.spec.ncpu as usize,
            Rows::PerDisk => snap.disks.len(),
            Rows::Loads => 3,
        }
    }
}

fn text(s: &str) -> SnmpValue {
    SnmpValue::OctetString(s.to_owned())
}

fn int(n: u64) -> SnmpValue {
    SnmpValue::Integer(n as i64)
}

fn rounded(x: f64) -> SnmpValue {
    SnmpValue::Integer(x.round() as i64)
}

/// Memory objects are reported in KB; the model counts MB.
fn kb(mb: u64) -> SnmpValue {
    int(mb * 1024)
}

/// Every object the agent serves, declared once: a scalar's OID or a
/// table column's prefix (parsed once per process), how many rows it
/// has, and how row `i` reads its value from the snapshot `s`.
static COLUMNS: LazyLock<Vec<(Oid, Rows, Read)>> = LazyLock::new(|| {
    use oids::*;
    use Rows::{Loads, PerCpu, PerDisk, PerFs, PerNic, Scalar};
    use SnmpValue::{Counter64, Integer, OctetString, TimeTicks};
    let columns: [(&str, Rows, Read); 28] = [
        (SYS_DESCR, Scalar, |s, _| {
            let (spec, os) = (&s.spec, &s.spec.os);
            OctetString(format!(
                "{} {} {} {}",
                os.name, spec.hostname, os.release, os.version
            ))
        }),
        (SYS_UPTIME, Scalar, |s, _| TimeTicks(s.uptime_sec * 100)),
        (SYS_NAME, Scalar, |s, _| text(&s.spec.hostname)),
        (IF_NUMBER, Scalar, |s, _| int(s.nics.len() as u64)),
        (IF_DESCR, PerNic, |s, i| text(&s.nics[i].name)),
        (IF_MTU, PerNic, |s, i| int(s.nics[i].mtu.into())),
        (IF_OPER_STATUS, PerNic, |s, i| {
            int(if s.nics[i].up { 1 } else { 2 })
        }),
        (IF_IN_OCTETS, PerNic, |s, i| Counter64(s.nics[i].rx_bytes)),
        (IF_OUT_OCTETS, PerNic, |s, i| Counter64(s.nics[i].tx_bytes)),
        (HR_MEMORY_SIZE, Scalar, |s, _| kb(s.spec.mem_mb)),
        (HR_STORAGE_DESCR, PerFs, |s, i| text(&s.filesystems[i].name)),
        (HR_STORAGE_SIZE, PerFs, |s, i| int(s.filesystems[i].size_mb)),
        (HR_STORAGE_USED, PerFs, |s, i| {
            int(s.filesystems[i].size_mb - s.filesystems[i].available_mb)
        }),
        // Every CPU reports the host's overall busy share.
        (HR_PROCESSOR_LOAD, PerCpu, |s, _| {
            Integer(((s.cpu_user + s.cpu_system).round() as i64).clamp(0, 100))
        }),
        (HR_NUM_CPU, Scalar, |s, _| int(s.spec.ncpu.into())),
        (LA_LOAD_INT, Loads, |s, i| {
            rounded([s.load1, s.load5, s.load15][i] * 100.0)
        }),
        (MEM_AVAIL_REAL, Scalar, |s, _| kb(s.mem_available_mb)),
        (MEM_TOTAL_SWAP, Scalar, |s, _| kb(s.spec.swap_mb)),
        (MEM_AVAIL_SWAP, Scalar, |s, _| kb(s.swap_available_mb)),
        (SS_CPU_USER, Scalar, |s, _| rounded(s.cpu_user)),
        (SS_CPU_SYSTEM, Scalar, |s, _| rounded(s.cpu_system)),
        (SS_CPU_IDLE, Scalar, |s, _| rounded(s.cpu_idle)),
        (DISK_IO_DEVICE, PerDisk, |s, i| text(&s.disks[i].device)),
        (DISK_IO_READS, PerDisk, |s, i| {
            Counter64(s.disks[i].read_count)
        }),
        (DISK_IO_WRITES, PerDisk, |s, i| {
            Counter64(s.disks[i].write_count)
        }),
        (CPU_MHZ, Scalar, |s, _| int(s.spec.clock_mhz.into())),
        (CPU_MODEL, Scalar, |s, _| text(&s.spec.cpu_model)),
        (CPU_VENDOR, Scalar, |s, _| text(&s.spec.cpu_vendor)),
    ];
    let parsed = columns.map(|(oid, rows, read)| (oid.parse().expect("static OID"), rows, read));
    parsed.into()
});

/// The sorted table of the objects one host shape has — each OID with
/// how to read its value, and from which row.
#[derive(Default)]
pub(crate) struct ObjectTable {
    /// NIC, filesystem, CPU and disk counts the keys were derived from;
    /// `None` until the first request.
    shape: Option<[usize; 4]>,
    objects: Vec<(Oid, Read, usize)>,
}

impl ObjectTable {
    /// The MIB of `snap`. The key set is built for `snap`'s shape on
    /// first use, rebuilt should a snapshot ever disagree with the shape
    /// it was built for, and otherwise left alone.
    pub(crate) fn mib<'a>(&'a mut self, snap: &'a HostSnapshot) -> Mib<'a> {
        let tables = [Rows::PerNic, Rows::PerFs, Rows::PerCpu, Rows::PerDisk];
        let shape = Some(tables.map(|rows| rows.count(snap)));
        if self.shape != shape {
            self.shape = shape;
            self.objects.clear();
            for &(ref oid, rows, read) in COLUMNS.iter() {
                for row in 0..rows.count(snap) {
                    // A scalar's OID is whole; table rows are indexed from 1.
                    let oid = match rows {
                        Rows::Scalar => oid.clone(),
                        _ => oid.child(row as u32 + 1),
                    };
                    self.objects.push((oid, read, row));
                }
            }
            self.objects.sort_by(|a, b| a.0.cmp(&b.0));
        }
        Mib {
            objects: &self.objects,
            snap,
        }
    }
}

/// An [`ObjectTable`] over a snapshot of the shape it holds the keys of:
/// what GET searches and GETNEXT/GETBULK walk.
pub(crate) struct Mib<'a> {
    objects: &'a [(Oid, Read, usize)],
    snap: &'a HostSnapshot,
}

impl Mib<'_> {
    /// `oid` bound to the value of the object it names, or to `Null` if
    /// it names none.
    pub(crate) fn get(&self, oid: Oid) -> (Oid, SnmpValue) {
        let value = match self.objects.binary_search_by(|(key, ..)| key.cmp(&oid)) {
            Ok(at) => (self.objects[at].1)(self.snap, self.objects[at].2),
            Err(_) => SnmpValue::Null,
        };
        (oid, value)
    }

    /// The objects after `oid` in OID order, each with its value.
    pub(crate) fn after(&self, oid: &Oid) -> impl Iterator<Item = (Oid, SnmpValue)> + '_ {
        let from = self.objects.partition_point(|(key, ..)| key <= oid);
        let bind = |(oid, read, row): &(Oid, Read, usize)| (oid.clone(), read(self.snap, *row));
        self.objects[from..].iter().map(bind)
    }
}

/// The reference the object table is tested against: the complete
/// sorted OID → value map of one snapshot, every OID parsed and every
/// value computed, as the agent used to build it for each request.
#[cfg(test)]
pub(crate) fn mib_for_host(snap: &HostSnapshot) -> std::collections::BTreeMap<Oid, SnmpValue> {
    use std::collections::BTreeMap;
    fn o(s: &str) -> Oid {
        s.parse().expect("static OID")
    }
    let mut m = BTreeMap::new();
    let spec = &snap.spec;
    m.insert(
        o(oids::SYS_DESCR),
        SnmpValue::OctetString(format!(
            "{} {} {} {}",
            spec.os.name, spec.hostname, spec.os.release, spec.os.version
        )),
    );
    m.insert(
        o(oids::SYS_UPTIME),
        SnmpValue::TimeTicks(snap.uptime_sec * 100),
    );
    m.insert(
        o(oids::SYS_NAME),
        SnmpValue::OctetString(spec.hostname.clone()),
    );

    // interfaces
    m.insert(
        o(oids::IF_NUMBER),
        SnmpValue::Integer(snap.nics.len() as i64),
    );
    for (i, nic) in snap.nics.iter().enumerate() {
        let idx = i as u32 + 1;
        m.insert(
            o(oids::IF_DESCR).child(idx),
            SnmpValue::OctetString(nic.name.clone()),
        );
        m.insert(
            o(oids::IF_MTU).child(idx),
            SnmpValue::Integer(nic.mtu as i64),
        );
        m.insert(
            o(oids::IF_OPER_STATUS).child(idx),
            SnmpValue::Integer(if nic.up { 1 } else { 2 }),
        );
        m.insert(
            o(oids::IF_IN_OCTETS).child(idx),
            SnmpValue::Counter64(nic.rx_bytes),
        );
        m.insert(
            o(oids::IF_OUT_OCTETS).child(idx),
            SnmpValue::Counter64(nic.tx_bytes),
        );
    }

    // host resources
    m.insert(
        o(oids::HR_MEMORY_SIZE),
        SnmpValue::Integer((spec.mem_mb * 1024) as i64),
    );
    m.insert(o(oids::HR_NUM_CPU), SnmpValue::Integer(spec.ncpu as i64));
    for (i, fsys) in snap.filesystems.iter().enumerate() {
        let idx = i as u32 + 1;
        m.insert(
            o(oids::HR_STORAGE_DESCR).child(idx),
            SnmpValue::OctetString(fsys.name.clone()),
        );
        m.insert(
            o(oids::HR_STORAGE_SIZE).child(idx),
            SnmpValue::Integer(fsys.size_mb as i64),
        );
        m.insert(
            o(oids::HR_STORAGE_USED).child(idx),
            SnmpValue::Integer((fsys.size_mb - fsys.available_mb) as i64),
        );
    }
    let per_cpu_load = ((snap.cpu_user + snap.cpu_system).round() as i64).clamp(0, 100);
    for cpu in 0..spec.ncpu {
        m.insert(
            o(oids::HR_PROCESSOR_LOAD).child(cpu + 1),
            SnmpValue::Integer(per_cpu_load),
        );
    }

    // UCD
    m.insert(
        o(oids::LA_LOAD_INT).child(1),
        SnmpValue::Integer((snap.load1 * 100.0).round() as i64),
    );
    m.insert(
        o(oids::LA_LOAD_INT).child(2),
        SnmpValue::Integer((snap.load5 * 100.0).round() as i64),
    );
    m.insert(
        o(oids::LA_LOAD_INT).child(3),
        SnmpValue::Integer((snap.load15 * 100.0).round() as i64),
    );
    m.insert(
        o(oids::MEM_AVAIL_REAL),
        SnmpValue::Integer((snap.mem_available_mb * 1024) as i64),
    );
    m.insert(
        o(oids::MEM_TOTAL_SWAP),
        SnmpValue::Integer((spec.swap_mb * 1024) as i64),
    );
    m.insert(
        o(oids::MEM_AVAIL_SWAP),
        SnmpValue::Integer((snap.swap_available_mb * 1024) as i64),
    );
    m.insert(
        o(oids::SS_CPU_USER),
        SnmpValue::Integer(snap.cpu_user.round() as i64),
    );
    m.insert(
        o(oids::SS_CPU_SYSTEM),
        SnmpValue::Integer(snap.cpu_system.round() as i64),
    );
    m.insert(
        o(oids::SS_CPU_IDLE),
        SnmpValue::Integer(snap.cpu_idle.round() as i64),
    );
    for (i, d) in snap.disks.iter().enumerate() {
        let idx = i as u32 + 1;
        m.insert(
            o(oids::DISK_IO_DEVICE).child(idx),
            SnmpValue::OctetString(d.device.clone()),
        );
        m.insert(
            o(oids::DISK_IO_READS).child(idx),
            SnmpValue::Counter64(d.read_count),
        );
        m.insert(
            o(oids::DISK_IO_WRITES).child(idx),
            SnmpValue::Counter64(d.write_count),
        );
    }
    m.insert(o(oids::CPU_MHZ), SnmpValue::Integer(spec.clock_mhz as i64));
    m.insert(
        o(oids::CPU_MODEL),
        SnmpValue::OctetString(spec.cpu_model.clone()),
    );
    m.insert(
        o(oids::CPU_VENDOR),
        SnmpValue::OctetString(spec.cpu_vendor.clone()),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_resmodel::{Host, HostSpec, OsSpec};

    fn snapshot() -> HostSnapshot {
        let spec = HostSpec {
            hostname: "node01.test".into(),
            site: "test".into(),
            ncpu: 2,
            clock_mhz: 2000,
            cpu_model: "Xeon".into(),
            cpu_vendor: "GenuineIntel".into(),
            mem_mb: 1024,
            swap_mb: 2048,
            os: OsSpec {
                name: "Linux".into(),
                release: "2.4.20".into(),
                version: "#1".into(),
            },
            disks: vec![("sda".into(), 40_000)],
            filesystems: vec![("/".into(), "sda1".into(), 38_000)],
            nics: vec![("eth0".into(), "10.0.0.1".into(), 1500)],
        };
        let mut h = Host::new(7, spec);
        h.advance_to(30_000);
        h.snapshot()
    }

    /// `oid`'s value in the MIB of `snap`, from a freshly built table.
    fn value(snap: &HostSnapshot, oid: &str) -> SnmpValue {
        ObjectTable::default().mib(snap).get(oid.parse().unwrap()).1
    }

    #[test]
    fn scalar_objects_present() {
        let snap = snapshot();
        assert_eq!(
            value(&snap, oids::SYS_NAME),
            SnmpValue::OctetString("node01.test".to_owned())
        );
        assert_eq!(value(&snap, oids::SYS_UPTIME), SnmpValue::TimeTicks(3000));
        assert_eq!(value(&snap, oids::HR_NUM_CPU), SnmpValue::Integer(2));
    }

    #[test]
    fn table_objects_indexed_from_one() {
        let snap = snapshot();
        let present =
            |column: &str, row: u32| value(&snap, &format!("{column}.{row}")) != SnmpValue::Null;
        assert!(present(oids::IF_DESCR, 1));
        assert!(!present(oids::IF_DESCR, 0));
        assert!(!present(oids::IF_DESCR, 2));
        assert!(present(oids::HR_PROCESSOR_LOAD, 1));
        assert!(present(oids::HR_PROCESSOR_LOAD, 2));
        assert!(!present(oids::HR_PROCESSOR_LOAD, 3));
    }

    #[test]
    fn load_is_centiload() {
        let snap = snapshot();
        assert_eq!(
            value(&snap, &format!("{}.1", oids::LA_LOAD_INT)),
            SnmpValue::Integer((snap.load1 * 100.0).round() as i64)
        );
    }

    #[test]
    fn table_is_sorted_for_getnext_and_matches_the_reference_map() {
        let snap = snapshot();
        let mut table = ObjectTable::default();
        let walked: Vec<(Oid, SnmpValue)> = table.mib(&snap).after(&Oid::default()).collect();
        assert!(walked.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(walked.len() > 25);
        assert!(walked.into_iter().eq(mib_for_host(&snap)));
    }

    #[test]
    fn memory_reported_in_kb() {
        assert_eq!(
            value(&snapshot(), oids::HR_MEMORY_SIZE),
            SnmpValue::Integer(1024 * 1024)
        );
    }
}
