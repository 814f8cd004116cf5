//! Host conditions: CPU pinning and the `/proc` readings that tell a
//! bad run (noisy neighbour) from a bad change.

use crate::estimator::{parse_steal_ticks, parse_vm_hwm_kib};

/// A `cpu_set_t`: 1024 CPU bits, as glibc lays it out.
#[derive(Clone, Copy)]
pub struct CpuMask([u64; 16]);

#[cfg(target_os = "linux")]
mod ffi {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

impl CpuMask {
    /// The calling thread's allowed CPUs (`None` when the kernel
    /// refuses or the platform has no affinity call).
    pub fn current() -> Option<CpuMask> {
        #[cfg(target_os = "linux")]
        {
            let mut mask = CpuMask([0; 16]);
            // SAFETY: `mask.0` is a live, writable buffer of exactly the
            // `size_of_val` bytes passed; pid 0 names the calling thread.
            let rc = unsafe {
                ffi::sched_getaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_mut_ptr())
            };
            (rc == 0).then_some(mask)
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// Restrict the calling thread (and every thread it spawns from
    /// now on) to this mask. Returns whether the kernel accepted it.
    pub fn apply(&self) -> bool {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: `self.0` is a live buffer of exactly the
            // `size_of_val` bytes passed and is only read.
            let rc = unsafe {
                ffi::sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr())
            };
            rc == 0
        }
        #[cfg(not(target_os = "linux"))]
        false
    }

    /// The mask holding only this mask's highest-numbered CPU (CPU 0
    /// takes most interrupts, so the last one is the quieter choice).
    pub fn last_cpu_only(&self) -> Option<CpuMask> {
        let (word, bits) = self.0.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let mut one = [0u64; 16];
        one[word] = 1 << (63 - bits.leading_zeros());
        Some(CpuMask(one))
    }

    /// CPUs in the mask.
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }
}

/// The outcome of pinning the harness to one CPU.
pub struct Pin {
    /// The affinity the process started with (restored for the
    /// two-client probe, which wants both CPUs).
    pub original: Option<CpuMask>,
    /// The single-CPU mask in force, when pinning worked.
    pub single: Option<CpuMask>,
}

impl Pin {
    /// Pin the calling thread — call before spawning any other thread,
    /// so every later thread inherits the mask. One client, one worker,
    /// one CPU: an unpinned cross-CPU wake-up on a 2-vCPU VM costs
    /// ~150 µs and flips RTT between 25 and 150 µs from run to run.
    pub fn to_one_cpu() -> Pin {
        let original = CpuMask::current();
        let single = original
            .and_then(|m| m.last_cpu_only())
            .filter(CpuMask::apply);
        Pin { original, single }
    }

    /// Whether the harness runs on exactly one CPU.
    pub fn pinned(&self) -> bool {
        self.single.is_some()
    }
}

/// Peak resident set of this process, MiB (`None` off Linux).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Steal ticks the whole machine has accumulated so far.
pub fn steal_ticks() -> Option<u64> {
    parse_steal_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// CPUs this process may run on, as the standard library sees them.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_only_picks_the_highest_bit() {
        let mut words = [0u64; 16];
        words[0] = 0b1011;
        words[1] = 0b0100;
        let one = CpuMask(words).last_cpu_only().expect("non-empty mask");
        assert_eq!(one.count(), 1);
        assert_eq!(one.0[1], 0b0100);
        assert!(CpuMask([0; 16]).last_cpu_only().is_none());
    }
}
