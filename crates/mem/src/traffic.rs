//! Per-kernel and cumulative memory-traffic accounting.
//!
//! Mirrors what the paper measures with Nsight Compute's Memory Workload
//! Analysis (per-kernel HBM / C2C / L1↔L2 traffic, Figs 10 and 12) and with
//! Nsight Systems (fault and migration counts).

/// Traffic and event counts for a single kernel launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelTraffic {
    /// Bytes read from local GPU memory (HBM3).
    pub hbm_read: u64,
    /// Bytes written to local GPU memory.
    pub hbm_write: u64,
    /// Bytes read remotely over NVLink-C2C (GPU reading CPU-resident data).
    pub c2c_read: u64,
    /// Bytes written remotely over NVLink-C2C.
    pub c2c_write: u64,
    /// Bytes exchanged between L1 and L2 (total data fed to the SMs; the
    /// paper uses this as the compute-side data-rate indicator, Fig 12).
    pub l1l2: u64,
    /// GPU replayable page faults serviced (managed memory).
    pub gpu_faults: u64,
    /// SMMU/ATS faults serviced by the OS (system memory GPU first touch).
    pub ats_faults: u64,
    /// GPU TLB misses.
    pub tlb_misses: u64,
    /// Pages migrated CPU→GPU during the kernel (any engine).
    pub pages_migrated_in: u64,
    /// Pages migrated/evicted GPU→CPU during the kernel.
    pub pages_migrated_out: u64,
    /// Bytes migrated CPU→GPU.
    pub bytes_migrated_in: u64,
    /// Bytes migrated GPU→CPU.
    pub bytes_migrated_out: u64,
    /// Access-counter notifications raised during the kernel.
    pub notifications: u64,
}

impl KernelTraffic {
    /// Adds another record into this one.
    pub fn merge(&mut self, other: &KernelTraffic) {
        self.hbm_read = self.hbm_read.saturating_add(other.hbm_read);
        self.hbm_write = self.hbm_write.saturating_add(other.hbm_write);
        self.c2c_read = self.c2c_read.saturating_add(other.c2c_read);
        self.c2c_write = self.c2c_write.saturating_add(other.c2c_write);
        self.l1l2 = self.l1l2.saturating_add(other.l1l2);
        self.gpu_faults = self.gpu_faults.saturating_add(other.gpu_faults);
        self.ats_faults = self.ats_faults.saturating_add(other.ats_faults);
        self.tlb_misses = self.tlb_misses.saturating_add(other.tlb_misses);
        self.pages_migrated_in = self
            .pages_migrated_in
            .saturating_add(other.pages_migrated_in);
        self.pages_migrated_out = self
            .pages_migrated_out
            .saturating_add(other.pages_migrated_out);
        self.bytes_migrated_in = self
            .bytes_migrated_in
            .saturating_add(other.bytes_migrated_in);
        self.bytes_migrated_out = self
            .bytes_migrated_out
            .saturating_add(other.bytes_migrated_out);
        self.notifications = self.notifications.saturating_add(other.notifications);
    }

    /// Total bytes the kernel pulled through the memory system.
    pub fn total_read(&self) -> u64 {
        self.hbm_read + self.c2c_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = KernelTraffic {
            hbm_read: 10,
            c2c_read: 5,
            gpu_faults: 1,
            ..Default::default()
        };
        let b = KernelTraffic {
            hbm_read: 3,
            c2c_read: 2,
            ats_faults: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.hbm_read, 13);
        assert_eq!(a.c2c_read, 7);
        assert_eq!(a.gpu_faults, 1);
        assert_eq!(a.ats_faults, 4);
        assert_eq!(a.total_read(), 20);
    }
}
