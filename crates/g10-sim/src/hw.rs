//! The simulated hardware the replay engine migrates tensors through.
//!
//! G10 puts GPU memory, host DRAM and flash into one address space and
//! moves whole tensors between them.  At tensor granularity the replay only
//! needs what such a migration occupies, built straight from
//! [`SystemConfig`] (Table 2):
//!
//! * two capacity pools, GPU HBM and host DRAM;
//! * four serially reusable bandwidth channels: each direction of the
//!   full-duplex PCIe link, and the SSD's read and write streams.  A flash
//!   transfer holds PCIe and an SSD stream and ends when the slower does; a
//!   host transfer holds PCIe and then pays the host DMA latency;
//! * the far-fault handler: unplanned fetches pay `fault_latency` per
//!   `fault_batch_bytes`, serialised on the host driver, before the data
//!   moves; designs on the classic UVM driver also pay a software overhead
//!   per `migration_batch_bytes` on every transfer;
//! * the traffic and fault counters behind Figure 14.
//!
//! Contention therefore shows up as queueing delay, i.e. as later
//! completion times and kernel stalls.  This is the engine's cost model
//! only: the planner still estimates migrations with its own formula,
//! [`SystemConfig::evict_time`] / [`SystemConfig::prefetch_time`] (latency
//! plus bytes over the slower of PCIe and SSD, no queueing), so a plan can
//! disagree with what the replay observes.

use crate::metrics::TrafficStats;
use g10_core::config::{Destination, SystemConfig};
use g10_time::Nanos;

/// A fixed-capacity memory pool with byte-granularity accounting.  It does
/// not track placement, only whether an allocation fits.
#[derive(Debug)]
pub(crate) struct MemoryPool {
    capacity_bytes: u64,
    used_bytes: u64,
}

impl MemoryPool {
    /// Creates an empty pool of the given capacity.
    pub(crate) fn new(capacity_bytes: u64) -> Self {
        MemoryPool {
            capacity_bytes,
            used_bytes: 0,
        }
    }

    /// Total capacity in bytes.
    pub(crate) fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently allocated.
    pub(crate) fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Bytes still available (zero when the pool is oversubscribed).
    pub(crate) fn free_bytes(&self) -> u64 {
        self.capacity_bytes.saturating_sub(self.used_bytes)
    }

    /// Returns `true` if an allocation of `bytes` would fit right now.
    pub(crate) fn fits(&self, bytes: u64) -> bool {
        bytes <= self.free_bytes()
    }

    /// Attempts to allocate `bytes`; returns `false` (and changes nothing)
    /// if the pool does not have room.
    pub(crate) fn try_allocate(&mut self, bytes: u64) -> bool {
        if !self.fits(bytes) {
            return false;
        }
        self.used_bytes += bytes;
        true
    }

    /// Allocates `bytes` even if it overshoots the capacity.  The engine
    /// uses this after a policy has already admitted the data, so
    /// oversubscription shows up as `used > capacity`, never clamped.
    pub(crate) fn force_allocate(&mut self, bytes: u64) {
        self.used_bytes += bytes;
    }

    /// Releases `bytes`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more bytes are freed than are allocated; in
    /// release builds the occupancy saturates at zero.
    pub(crate) fn free(&mut self, bytes: u64) {
        debug_assert!(
            bytes <= self.used_bytes,
            "freeing {bytes} bytes but only {} allocated",
            self.used_bytes
        );
        self.used_bytes = self.used_bytes.saturating_sub(bytes);
    }
}

/// One direction of a link, or one internal SSD stream: a transfer occupies
/// the channel for `latency + bytes / rate`, starting no earlier than the
/// channel is free.
#[derive(Debug)]
struct BandwidthChannel {
    bytes_per_sec: f64,
    latency: Nanos,
    busy_until: Nanos,
}

impl BandwidthChannel {
    fn new(bytes_per_sec: f64, latency: Nanos) -> Self {
        BandwidthChannel {
            bytes_per_sec,
            latency,
            busy_until: Nanos::ZERO,
        }
    }

    /// Reserves the channel for `bytes` starting no earlier than `earliest`;
    /// returns the completion time.
    fn transfer(&mut self, bytes: u64, earliest: Nanos) -> Nanos {
        let duration = self.latency + Nanos::transfer_time(bytes, self.bytes_per_sec);
        let end = earliest.max(self.busy_until).saturating_add(duration);
        self.busy_until = end;
        end
    }
}

/// Number of `batch_bytes` batches covering `bytes` (a zero batch size
/// counts single bytes).
fn batches(bytes: u64, batch_bytes: u64) -> u64 {
    bytes.div_ceil(batch_bytes.max(1))
}

/// The GPU / host / flash system one replay runs on.
#[derive(Debug)]
pub(crate) struct Hardware {
    /// GPU memory.  Residency is the engine's bookkeeping: transfers never
    /// change pool occupancy.
    pub(crate) gpu: MemoryPool,
    /// Host staging memory.
    pub(crate) host: MemoryPool,
    /// PCIe direction carrying data into the GPU.
    pcie_in: BandwidthChannel,
    /// PCIe direction carrying data out of the GPU.
    pcie_out: BandwidthChannel,
    ssd_read: BandwidthChannel,
    ssd_write: BandwidthChannel,
    host_latency: Nanos,
    fault_latency: Nanos,
    fault_batch_bytes: u64,
    migration_batch_bytes: u64,
    software_overhead_per_batch: Nanos,
    fault_handler_busy_until: Nanos,
    traffic: TrafficStats,
    fault_count: u64,
}

impl Hardware {
    /// Builds empty pools and idle channels for `config`, with a GPU of
    /// `gpu_capacity` bytes and `overhead_per_batch` charged per
    /// `migration_batch_bytes` of every transfer.
    pub(crate) fn new(config: &SystemConfig, gpu_capacity: u64, overhead_per_batch: Nanos) -> Self {
        Hardware {
            gpu: MemoryPool::new(gpu_capacity),
            host: MemoryPool::new(config.host_memory_bytes),
            pcie_in: BandwidthChannel::new(config.pcie_bytes_per_sec, Nanos::ZERO),
            pcie_out: BandwidthChannel::new(config.pcie_bytes_per_sec, Nanos::ZERO),
            ssd_read: BandwidthChannel::new(config.ssd_read_bytes_per_sec, config.ssd_read_latency),
            ssd_write: BandwidthChannel::new(
                config.ssd_write_bytes_per_sec,
                config.ssd_write_latency,
            ),
            host_latency: config.host_latency,
            fault_latency: config.fault_latency,
            fault_batch_bytes: config.fault_batch_bytes,
            migration_batch_bytes: config.migration_batch_bytes,
            software_overhead_per_batch: overhead_per_batch,
            fault_handler_busy_until: Nanos::ZERO,
            traffic: TrafficStats::default(),
            fault_count: 0,
        }
    }

    /// Traffic accumulated so far.
    pub(crate) fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    /// Number of far faults serviced so far.
    pub(crate) fn fault_count(&self) -> u64 {
        self.fault_count
    }

    fn software_overhead(&self, bytes: u64) -> Nanos {
        self.software_overhead_per_batch * batches(bytes, self.migration_batch_bytes)
    }

    /// Host handler time for `bytes` of unplanned migration.
    fn fault_handling_time(&self, bytes: u64) -> Nanos {
        self.fault_latency * batches(bytes, self.fault_batch_bytes)
    }

    /// Moves `bytes` out of the GPU `to` host or SSD as a planned eviction
    /// issued at `now`; returns the completion time.
    pub(crate) fn transfer_from_gpu(&mut self, bytes: u64, to: Destination, now: Nanos) -> Nanos {
        let start = now + self.software_overhead(bytes);
        let pcie_done = self.pcie_out.transfer(bytes, start);
        match to {
            Destination::Host => {
                self.traffic.gpu_to_host_bytes += bytes;
                pcie_done + self.host_latency
            }
            Destination::Ssd => {
                self.traffic.gpu_to_ssd_bytes += bytes;
                pcie_done.max(self.ssd_write.transfer(bytes, start))
            }
        }
    }

    /// Moves `bytes` into the GPU `from` host or SSD as a planned prefetch
    /// issued at `now`; returns the completion time.
    pub(crate) fn transfer_to_gpu(&mut self, bytes: u64, from: Destination, now: Nanos) -> Nanos {
        let start = now + self.software_overhead(bytes);
        let pcie_done = self.pcie_in.transfer(bytes, start);
        match from {
            Destination::Host => {
                self.traffic.host_to_gpu_bytes += bytes;
                pcie_done + self.host_latency
            }
            Destination::Ssd => {
                self.traffic.ssd_to_gpu_bytes += bytes;
                pcie_done.max(self.ssd_read.transfer(bytes, start))
            }
        }
    }

    /// Services an unplanned access at `now`: far-fault handling, serialised
    /// on the host driver, then the transfer into the GPU.  Returns the
    /// completion time.
    pub(crate) fn fault_in(&mut self, bytes: u64, from: Destination, now: Nanos) -> Nanos {
        let handler_done = now.max(self.fault_handler_busy_until) + self.fault_handling_time(bytes);
        self.fault_handler_busy_until = handler_done;
        self.fault_count += batches(bytes, self.fault_batch_bytes);
        self.transfer_to_gpu(bytes, from, handler_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hw_for(config: &SystemConfig) -> Hardware {
        Hardware::new(config, config.gpu_memory_bytes, Nanos::ZERO)
    }

    fn hw() -> Hardware {
        hw_for(&SystemConfig::table2())
    }

    #[test]
    fn ssd_prefetch_is_bounded_by_ssd_bandwidth() {
        let mut m = hw();
        let bytes = 32u64 << 30; // 32 GiB
        let done = m.transfer_to_gpu(bytes, Destination::Ssd, Nanos::ZERO);
        let expected = bytes as f64 / 3.2e9;
        let actual = done.as_secs_f64();
        assert!(
            (actual - expected).abs() / expected < 0.05,
            "expected ≈{expected:.2}s got {actual:.2}s"
        );
    }

    #[test]
    fn host_prefetch_is_bounded_by_pcie_bandwidth() {
        let mut m = hw();
        let bytes = 32u64 << 30;
        let done = m.transfer_to_gpu(bytes, Destination::Host, Nanos::ZERO);
        let expected = bytes as f64 / 15.754e9;
        assert!((done.as_secs_f64() - expected).abs() / expected < 0.05);
    }

    #[test]
    fn concurrent_ssd_and_host_traffic_share_the_pcie_link() {
        let mut m = hw();
        let bytes = 8u64 << 30;
        let a = m.transfer_to_gpu(bytes, Destination::Ssd, Nanos::ZERO);
        let b = m.transfer_to_gpu(bytes, Destination::Host, Nanos::ZERO);
        // The host transfer queues behind the flash transfer's PCIe usage,
        // so it cannot complete at its isolated time.
        let isolated = Nanos::transfer_time(bytes, 15.754e9);
        assert!(b > isolated);
        assert!(a > Nanos::ZERO);
        assert_eq!(m.traffic().total(), 2 * bytes);
    }

    #[test]
    fn evictions_and_prefetches_use_opposite_directions() {
        let mut m = hw();
        let bytes = 4u64 << 30;
        let out = m.transfer_from_gpu(bytes, Destination::Host, Nanos::ZERO);
        let inb = m.transfer_to_gpu(bytes, Destination::Host, Nanos::ZERO);
        // Full-duplex PCIe: neither waits for the other.
        let isolated = Nanos::transfer_time(bytes, 15.754e9) + Nanos::from_micros(5);
        assert_eq!(out, isolated);
        assert_eq!(inb, isolated);
        assert_eq!(m.traffic().gpu_to_host_bytes, bytes);
        assert_eq!(m.traffic().host_to_gpu_bytes, bytes);
    }

    #[test]
    fn faults_cost_handler_time_on_top_of_transfer() {
        let mut planned = hw();
        let mut faulted = hw();
        let bytes = 256u64 << 20;
        let planned_done = planned.transfer_to_gpu(bytes, Destination::Host, Nanos::ZERO);
        let fault_done = faulted.fault_in(bytes, Destination::Host, Nanos::ZERO);
        assert!(fault_done > planned_done);
        assert_eq!(
            fault_done - planned_done,
            faulted.fault_handling_time(bytes)
        );
        assert_eq!(faulted.fault_count(), bytes / (64 << 10));
    }

    #[test]
    fn fault_handler_is_serialised() {
        let mut m = hw();
        let first = m.fault_in(2 << 20, Destination::Host, Nanos::ZERO);
        let second = m.fault_in(2 << 20, Destination::Host, Nanos::ZERO);
        assert!(second > first);
    }

    #[test]
    fn software_overhead_applies_per_batch() {
        let config = SystemConfig::table2();
        let mut classic = Hardware::new(&config, config.gpu_memory_bytes, Nanos::from_micros(10));
        let mut extended = hw();
        let bytes = 64u64 << 20; // 32 batches of 2 MiB
        let classic_done = classic.transfer_to_gpu(bytes, Destination::Host, Nanos::ZERO);
        let extended_done = extended.transfer_to_gpu(bytes, Destination::Host, Nanos::ZERO);
        assert_eq!(classic_done - extended_done, Nanos::from_micros(10) * 32);
    }

    #[test]
    fn ssd_bandwidth_from_the_config_takes_effect() {
        let mut m = hw_for(&SystemConfig::table2().with_ssd_bandwidth(12.8e9));
        let bytes = 32u64 << 30;
        let done = m.transfer_to_gpu(bytes, Destination::Ssd, Nanos::ZERO);
        let expected = bytes as f64 / 12.8e9;
        assert!((done.as_secs_f64() - expected).abs() / expected < 0.1);
    }

    #[test]
    fn zero_bytes_cost_no_fault_time() {
        let m = hw();
        assert_eq!(batches(0, 64 << 10), 0);
        assert_eq!(m.fault_handling_time(0), Nanos::ZERO);
    }

    #[test]
    fn partial_batches_round_up() {
        assert_eq!(batches(1, 64 << 10), 1);
        assert_eq!(batches(64 << 10, 64 << 10), 1);
        assert_eq!(batches((64 << 10) + 1, 64 << 10), 2);
    }

    #[test]
    fn fault_handling_time_matches_table2() {
        // A 1 GiB tensor arriving entirely through faults costs 16384 x 45 us.
        assert_eq!(
            hw().fault_handling_time(1 << 30),
            Nanos::from_micros(45) * 16384
        );
    }

    #[test]
    fn degenerate_batch_size_does_not_divide_by_zero() {
        assert_eq!(batches(10, 0), 10);
    }

    #[test]
    fn channel_transfer_time_matches_rate() {
        let mut ch = BandwidthChannel::new(1e9, Nanos::ZERO);
        assert_eq!(ch.transfer(1_000_000_000, Nanos::ZERO), Nanos::from_secs(1));
    }

    #[test]
    fn back_to_back_channel_transfers_queue() {
        let mut ch = BandwidthChannel::new(1e9, Nanos::ZERO);
        ch.transfer(500_000_000, Nanos::ZERO);
        assert_eq!(ch.transfer(500_000_000, Nanos::ZERO), Nanos::from_secs(1));
    }

    #[test]
    fn channel_latency_is_added_per_transfer() {
        let mut ch = BandwidthChannel::new(1e9, Nanos::from_micros(20));
        assert_eq!(ch.transfer(0, Nanos::ZERO), Nanos::from_micros(20));
    }

    #[test]
    fn allocation_respects_capacity() {
        let mut pool = MemoryPool::new(100);
        assert!(pool.try_allocate(60));
        assert!(!pool.try_allocate(50));
        assert!(pool.try_allocate(40));
        assert_eq!(pool.free_bytes(), 0);
        assert!(pool.fits(0));
        assert!(!pool.fits(1));
    }

    #[test]
    fn free_restores_space() {
        let mut pool = MemoryPool::new(100);
        pool.try_allocate(80);
        pool.free(30);
        assert_eq!(pool.used_bytes(), 50);
        assert_eq!(pool.free_bytes(), 50);
    }

    #[test]
    fn force_allocate_tracks_oversubscription() {
        let mut pool = MemoryPool::new(100);
        pool.force_allocate(150);
        assert_eq!(pool.used_bytes(), 150);
        assert_eq!(pool.free_bytes(), 0);
        pool.free(150);
        assert_eq!(pool.free_bytes(), pool.capacity_bytes());
    }

    #[test]
    fn zero_capacity_pool_is_safe() {
        let mut pool = MemoryPool::new(0);
        assert!(!pool.try_allocate(1));
        assert!(pool.try_allocate(0));
    }

    /// One issued transfer: bytes, inbound (to the GPU) or outbound,
    /// host or SSD, gap since the previous issue, and whether an inbound
    /// transfer is a fault rather than a planned prefetch.
    type Op = (u64, bool, bool, u64, bool);

    fn op() -> impl Strategy<Value = Op> {
        (
            0u64..(256 << 20),
            0u64..2,
            0u64..2,
            0u64..2_000_000,
            0u64..2,
        )
            .prop_map(|(bytes, inbound, ssd, gap_ns, faulted)| {
                (bytes, inbound == 1, ssd == 1, gap_ns, faulted == 1)
            })
    }

    /// Replays `ops` on fresh hardware; returns every completion time and
    /// the final counters.
    fn replay(config: &SystemConfig, overhead: Nanos, ops: &[Op]) -> (Vec<Nanos>, Hardware) {
        let mut m = Hardware::new(config, config.gpu_memory_bytes, overhead);
        let mut now = Nanos::ZERO;
        let done = ops
            .iter()
            .map(|&(bytes, inbound, ssd, gap_ns, faulted)| {
                now += Nanos::from_nanos(gap_ns);
                let place = if ssd {
                    Destination::Ssd
                } else {
                    Destination::Host
                };
                match (inbound, faulted) {
                    (true, true) => m.fault_in(bytes, place, now),
                    (true, false) => m.transfer_to_gpu(bytes, place, now),
                    (false, _) => m.transfer_from_gpu(bytes, place, now),
                }
            })
            .collect();
        (done, m)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn more_bandwidth_never_delays_a_transfer_and_traffic_is_conserved(
            ops in proptest::collection::vec(op(), 1..40),
            pcie_scale in 1u64..5,
            read_scale in 1u64..5,
            write_scale in 1u64..5,
            overhead_us in 0u64..20,
        ) {
            let overhead = Nanos::from_micros(overhead_us);
            let base = SystemConfig::table2();
            let mut faster = base;
            faster.pcie_bytes_per_sec *= pcie_scale as f64;
            faster.ssd_read_bytes_per_sec *= read_scale as f64;
            faster.ssd_write_bytes_per_sec *= write_scale as f64;

            let (slow_done, slow) = replay(&base, overhead, &ops);
            let (fast_done, fast) = replay(&faster, overhead, &ops);
            for (i, (s, f)) in slow_done.iter().zip(&fast_done).enumerate() {
                prop_assert!(f <= s, "transfer {i} finished later with more bandwidth: {f} > {s}");
            }

            let issued = |inbound: bool, ssd: bool| -> u64 {
                ops.iter()
                    .filter(|o| o.1 == inbound && o.2 == ssd)
                    .map(|o| o.0)
                    .sum()
            };
            let expected = TrafficStats {
                gpu_to_ssd_bytes: issued(false, true),
                ssd_to_gpu_bytes: issued(true, true),
                gpu_to_host_bytes: issued(false, false),
                host_to_gpu_bytes: issued(true, false),
            };
            prop_assert_eq!(slow.traffic(), expected);
            prop_assert_eq!(fast.traffic(), expected);
            let faults: u64 = ops.iter()
                .filter(|o| o.1 && o.4)
                .map(|o| batches(o.0, base.fault_batch_bytes))
                .sum();
            prop_assert_eq!(slow.fault_count(), faults);
        }
    }
}
