//! Simulation results.
//!
//! A [`SimReport`] captures everything the paper's figures are drawn from:
//! end-to-end execution time vs the ideal, the stall/overlap breakdown
//! (Fig. 12), per-kernel slowdowns (Fig. 13), migration traffic by channel
//! (Fig. 14), fault counts, and the write traffic feeding the SSD-lifetime
//! analysis (§7.7).

use crate::fault::FaultRecord;
use g10_time::Nanos;
use serde::{Deserialize, Serialize};

/// Incremental FNV-1a digest over `u64` words: the one shared fingerprint
/// helper behind [`SimReport::fingerprint`],
/// [`MultiReport::fingerprint`](crate::tenancy::MultiReport::fingerprint)
/// and the serve wire format (previously re-implemented per call site).
///
/// Words are folded in little-endian byte order, so the digest is stable
/// across platforms.
#[derive(Debug, Clone, Copy)]
pub struct ReportFingerprint(u64);

impl ReportFingerprint {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A digest primed with the FNV-1a offset basis.
    #[allow(clippy::new_without_default)]
    pub fn new() -> ReportFingerprint {
        ReportFingerprint(Self::FNV_OFFSET)
    }

    /// Folds one word into the digest.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::FNV_PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Migration traffic accumulated by direction (the quantities behind
/// Figure 14 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficStats {
    /// Bytes moved GPU → SSD (evictions to flash).
    pub gpu_to_ssd_bytes: u64,
    /// Bytes moved SSD → GPU (prefetches / faults from flash).
    pub ssd_to_gpu_bytes: u64,
    /// Bytes moved GPU → host (evictions to host DRAM).
    pub gpu_to_host_bytes: u64,
    /// Bytes moved host → GPU (prefetches / faults from host DRAM).
    pub host_to_gpu_bytes: u64,
}

impl TrafficStats {
    /// Total bytes that crossed the GPU-SSD path.
    pub fn ssd_total(&self) -> u64 {
        self.gpu_to_ssd_bytes + self.ssd_to_gpu_bytes
    }

    /// Total bytes that crossed the GPU-host path.
    pub fn host_total(&self) -> u64 {
        self.gpu_to_host_bytes + self.host_to_gpu_bytes
    }

    /// Total migration traffic in bytes.
    pub fn total(&self) -> u64 {
        self.ssd_total() + self.host_total()
    }

    /// Bytes written to the SSD (the quantity that wears the flash, §7.7).
    pub fn ssd_write_bytes(&self) -> u64 {
        self.gpu_to_ssd_bytes
    }
}

/// The outcome of replaying one training iteration under one memory policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// The model name (e.g. `"ResNet152"`).
    pub model: String,
    /// The batch size.
    pub batch: u64,
    /// The policy name (e.g. `"G10"`, `"Base UVM"`).
    pub policy: String,
    /// Total simulated time of the iteration.
    pub total_time: Nanos,
    /// The ideal (infinite-GPU-memory) iteration time.
    pub ideal_time: Nanos,
    /// Total time kernels spent stalled waiting for data or space.
    pub stall_time: Nanos,
    /// Per-kernel slowdowns (actual / ideal duration), in execution order.
    pub kernel_slowdowns: Vec<f64>,
    /// Migration traffic by channel and direction.
    pub traffic: TrafficStats,
    /// Number of far faults serviced.
    pub fault_count: u64,
    /// Planned prefetches issued.
    pub prefetches_issued: u64,
    /// Planned prefetches dropped because GPU memory had no room.
    pub prefetches_dropped: u64,
    /// Evictions issued (planned or capacity-driven).
    pub evictions_issued: u64,
    /// `true` if GPU memory was transiently oversubscribed (a kernel's
    /// working set could not be made to fit by evicting).
    pub oversubscribed: bool,
    /// `true` if some kernel's working set exceeds the GPU capacity, which
    /// makes the workload infeasible for designs that require the full
    /// working set to be explicitly resident (FlashNeuron, footnote 1).
    pub working_set_exceeds_gpu: bool,
    /// Set when this report came from a fallback re-run after the policy the
    /// caller asked for faulted
    /// ([`crate::fault::OnPolicyFault::FallbackTo`]): the quarantined
    /// policy, the step it faulted at, and the fault kind.  `None` for a
    /// clean run.
    pub policy_fault: Option<FaultRecord>,
}

impl SimReport {
    /// Deterministic FNV-1a digest over every numeric field of the report,
    /// in declaration order.
    ///
    /// This is the workspace's one canonical report fingerprint: the golden
    /// snapshots (`tests/golden_reports.rs`), the session/tenancy
    /// byte-identity pins and the serve wire format all compare this value,
    /// so two runs are byte-identical exactly when their fingerprints
    /// agree.  The `model` / `policy` display strings and the
    /// `policy_fault` annotation are deliberately excluded: the digest
    /// captures *simulation behaviour*, which must be comparable across a
    /// rename or a fallback re-run.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = ReportFingerprint::new();
        fp.push(self.batch);
        fp.push(self.total_time.as_nanos());
        fp.push(self.ideal_time.as_nanos());
        fp.push(self.stall_time.as_nanos());
        for slowdown in &self.kernel_slowdowns {
            fp.push(slowdown.to_bits());
        }
        fp.push(self.traffic.gpu_to_ssd_bytes);
        fp.push(self.traffic.ssd_to_gpu_bytes);
        fp.push(self.traffic.gpu_to_host_bytes);
        fp.push(self.traffic.host_to_gpu_bytes);
        fp.push(self.fault_count);
        fp.push(self.prefetches_issued);
        fp.push(self.prefetches_dropped);
        fp.push(self.evictions_issued);
        fp.push(self.oversubscribed as u64);
        fp.push(self.working_set_exceeds_gpu as u64);
        fp.finish()
    }

    /// Performance normalised to the ideal system (1.0 = ideal), the y-axis
    /// of Figure 11.
    pub fn normalized_performance(&self) -> f64 {
        if self.total_time.is_zero() {
            return 1.0;
        }
        self.ideal_time.as_secs_f64() / self.total_time.as_secs_f64()
    }

    /// Training throughput in samples per second (Figure 15).
    pub fn throughput(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        self.batch as f64 / self.total_time.as_secs_f64()
    }

    /// Fraction of the execution during which the GPU was stalled on data
    /// (Figure 12's "compute stall" component).
    pub fn stall_fraction(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        self.stall_time.as_secs_f64() / self.total_time.as_secs_f64()
    }

    /// Fraction of the execution during which computation (overlapped with
    /// any migrations) was making progress.
    pub fn overlap_fraction(&self) -> f64 {
        1.0 - self.stall_fraction()
    }

    /// Fraction of kernels whose slowdown exceeds the given threshold
    /// (Figure 13 reports the distribution; the paper quotes the share of
    /// kernels slower than ideal).
    pub fn fraction_of_kernels_slower_than(&self, threshold: f64) -> f64 {
        if self.kernel_slowdowns.is_empty() {
            return 0.0;
        }
        let slower = self
            .kernel_slowdowns
            .iter()
            .filter(|s| **s > threshold)
            .count();
        slower as f64 / self.kernel_slowdowns.len() as f64
    }

    /// Sorted copy of the per-kernel slowdowns (the CDF of Figure 13).
    pub fn slowdown_cdf(&self) -> Vec<f64> {
        let mut v = self.kernel_slowdowns.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    /// A quantile of the per-kernel slowdown distribution (`q` in `[0, 1]`).
    pub fn slowdown_quantile(&self, q: f64) -> f64 {
        let cdf = self.slowdown_cdf();
        if cdf.is_empty() {
            return 1.0;
        }
        let idx = ((cdf.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        cdf[idx]
    }

    /// Bytes written to the SSD during the iteration (wears the flash).
    pub fn ssd_write_bytes(&self) -> u64 {
        self.traffic.ssd_write_bytes()
    }

    /// One-line summary used by examples and the experiment harness.
    pub fn summary(&self) -> String {
        format!(
            "{:12} {:>14}  perf={:5.1}%  stall={:4.1}%  traffic: ssd={:6.1} GB host={:6.1} GB  faults={}",
            self.model,
            self.policy,
            self.normalized_performance() * 100.0,
            self.stall_fraction() * 100.0,
            self.traffic.ssd_total() as f64 / 1e9,
            self.traffic.host_total() as f64 / 1e9,
            self.fault_count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            model: "Test".to_string(),
            batch: 128,
            policy: "G10".to_string(),
            total_time: Nanos::from_secs(10),
            ideal_time: Nanos::from_secs(9),
            stall_time: Nanos::from_secs(1),
            kernel_slowdowns: vec![1.0, 1.0, 2.0, 4.0],
            traffic: TrafficStats {
                gpu_to_ssd_bytes: 100,
                ssd_to_gpu_bytes: 200,
                gpu_to_host_bytes: 300,
                host_to_gpu_bytes: 400,
            },
            fault_count: 5,
            prefetches_issued: 10,
            prefetches_dropped: 1,
            evictions_issued: 12,
            oversubscribed: false,
            working_set_exceeds_gpu: false,
            policy_fault: None,
        }
    }

    #[test]
    fn normalised_performance_and_throughput() {
        let r = report();
        assert!((r.normalized_performance() - 0.9).abs() < 1e-12);
        assert!((r.throughput() - 12.8).abs() < 1e-9);
        assert!((r.stall_fraction() - 0.1).abs() < 1e-12);
        assert!((r.overlap_fraction() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn slowdown_statistics() {
        let r = report();
        assert_eq!(r.fraction_of_kernels_slower_than(1.0), 0.5);
        assert_eq!(r.fraction_of_kernels_slower_than(10.0), 0.0);
        assert_eq!(r.slowdown_cdf(), vec![1.0, 1.0, 2.0, 4.0]);
        assert_eq!(r.slowdown_quantile(0.0), 1.0);
        assert_eq!(r.slowdown_quantile(1.0), 4.0);
    }

    #[test]
    fn traffic_helpers() {
        let r = report();
        assert_eq!(r.ssd_write_bytes(), 100);
        assert_eq!(r.traffic.total(), 1000);
        let s = r.summary();
        assert!(s.contains("G10"));
        assert!(s.contains("Test"));
    }

    #[test]
    fn fingerprint_tracks_behaviour_not_labels() {
        let r = report();
        let mut renamed = r.clone();
        renamed.model = "Other".to_string();
        renamed.policy = "Else".to_string();
        assert_eq!(r.fingerprint(), renamed.fingerprint());
        let mut different = r.clone();
        different.fault_count += 1;
        assert_ne!(r.fingerprint(), different.fingerprint());
        let mut slower = r.clone();
        slower.kernel_slowdowns[0] = 1.5;
        assert_ne!(r.fingerprint(), slower.fingerprint());
    }

    #[test]
    fn zero_time_edge_cases() {
        let mut r = report();
        r.total_time = Nanos::ZERO;
        assert_eq!(r.normalized_performance(), 1.0);
        assert_eq!(r.throughput(), 0.0);
        assert_eq!(r.stall_fraction(), 0.0);
        r.kernel_slowdowns.clear();
        assert_eq!(r.fraction_of_kernels_slower_than(1.0), 0.0);
        assert_eq!(r.slowdown_quantile(0.5), 1.0);
    }
}
