//! Bandwidth-reservation timelines used during planning.
//!
//! While building the migration plan, the scheduler must know whether the
//! GPU–SSD or GPU–host channel still has room for another migration at a
//! given point in time ("if to_ssd_traffic is full during t_r to t_r + t_s",
//! Algorithm 1).  A [`BandwidthTimeline`] divides the iteration into
//! fixed-width bins, gives each bin `rate × bin_width` bytes of capacity and
//! lets the planner reserve bytes greedily from a start time forward.
//!
//! # Complexity
//!
//! A plan makes a few hundred reservations, but a long iteration spans
//! hundreds of thousands of 250 µs bins.  [`BandwidthTimeline`] therefore
//! stores each bin's used bytes and a next-unsaturated-bin skip pointer in
//! fixed-size pages of bins that are allocated on first write; a page that
//! was never written reads as empty.  With `b` bins, `p = b / 1024` pages,
//! `w` the bins a window or transfer spans and `o` the unsaturated bins
//! among them:
//!
//! | operation                                  | flat `Vec` | paged          |
//! |--------------------------------------------|------------|----------------|
//! | [`BandwidthTimeline::new`]                 | O(b)       | O(p)           |
//! | [`BandwidthTimeline::free_bytes_between`]  | O(w)       | O(o)           |
//! | [`BandwidthTimeline::is_saturated`]        | O(w)       | O(o)           |
//! | [`BandwidthTimeline::reserve`]             | O(w)       | O(t + α) ¹     |
//!
//! ¹ `t` is the number of bins the transfer actually *touches* (writes bytes
//!   into); fully saturated runs between them are skipped in amortised O(α)
//!   through the path-compressed skip pointers instead of being re-scanned.
//!   A run of bins one reservation fills is pointed past its end as it
//!   closes, so the next reservation starting inside it jumps it at once.
//!
//! Memory is one page (12 KiB) per 1024 bins a plan writes into, plus one
//! pointer per page.
//!
//! Every operation performs the flat implementation's `f64` operations in
//! the same order: `reserve` fills bins one at a time, and the window sums
//! add the same per-bin free bytes sequentially, leaving out only saturated
//! bins, whose free bytes are zero.  Completion times, free-byte sums and
//! saturation verdicts are therefore equal to the flat reference's, not
//! merely close.

use g10_dnn::Nanos;

/// The operations the eviction scheduler needs from a channel-reservation
/// ledger.  Implemented by the paged [`BandwidthTimeline`] (the default)
/// and the flat-`Vec` [`crate::naive::NaiveBandwidthTimeline`] reference.
pub trait BandwidthReservation {
    /// Creates a timeline covering `[0, horizon]` for a channel of
    /// `bytes_per_sec`, using bins of `bin_width`.
    fn with_rate(bytes_per_sec: f64, horizon: Nanos, bin_width: Nanos) -> Self;

    /// Number of bins in the timeline.
    fn bins(&self) -> usize;

    /// Total bytes reserved so far.
    fn total_reserved_bytes(&self) -> f64;

    /// Free capacity (bytes) between `start` and `end`.
    fn free_bytes_between(&self, start: Nanos, end: Nanos) -> f64;

    /// Returns `true` if a transfer of `bytes` starting at `start` cannot
    /// fit inside the window `[start, start + nominal_duration]`.
    fn is_saturated(&self, bytes: u64, start: Nanos, nominal_duration: Nanos) -> bool;

    /// Reserves `bytes` starting at `start`, filling bins greedily forward,
    /// and returns the time at which the last byte is transferred.
    fn reserve(&mut self, bytes: u64, start: Nanos) -> Nanos;

    /// Average utilisation of the channel over its whole horizon.
    fn utilization(&self) -> f64;
}

/// Bins per lazily allocated page of a [`BandwidthTimeline`].
const PAGE_BINS: usize = 1024;

/// The state of `PAGE_BINS` consecutive bins.
#[derive(Debug, Clone, PartialEq)]
struct Page {
    /// Bytes reserved in each bin.
    used: [f64; PAGE_BINS],
    /// `0` while the bin may still have capacity; once it saturates, a later
    /// bin such that every bin in between is saturated too (union-find with
    /// path compression).  No bin points at bin 0, so `0` is free to mean
    /// "open".
    skip: [u32; PAGE_BINS],
}

impl Page {
    fn empty() -> Box<Page> {
        Box::new(Page {
            used: [0.0; PAGE_BINS],
            skip: [0; PAGE_BINS],
        })
    }
}

/// A binned bandwidth-reservation timeline for one channel direction, with
/// per-bin state stored in pages that are allocated on first write.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthTimeline {
    bin_width: Nanos,
    bytes_per_bin: f64,
    bins: usize,
    /// `pages[p]` holds bins `p * PAGE_BINS ..`; `None` reads as all bins
    /// empty and open.
    pages: Vec<Option<Box<Page>>>,
    total_reserved: f64,
}

impl BandwidthTimeline {
    /// Creates a timeline covering `[0, horizon]` for a channel of
    /// `bytes_per_sec`, using bins of `bin_width`.
    ///
    /// # Panics
    ///
    /// Panics if the bin width is zero or the horizon spans `u32::MAX` bins
    /// or more.
    pub fn new(bytes_per_sec: f64, horizon: Nanos, bin_width: Nanos) -> Self {
        assert!(!bin_width.is_zero(), "bin width must be positive");
        let bins = (horizon.as_nanos() / bin_width.as_nanos() + 2) as usize;
        assert!(bins < u32::MAX as usize, "too many bins for skip pointers");
        BandwidthTimeline {
            bin_width,
            bytes_per_bin: bytes_per_sec * bin_width.as_secs_f64(),
            bins,
            pages: vec![None; bins.div_ceil(PAGE_BINS)],
            total_reserved: 0.0,
        }
    }

    /// Default bin width used by the planner (250 µs keeps even a
    /// multi-minute iteration under a million bins).
    pub fn default_bin_width() -> Nanos {
        Nanos::from_micros(250)
    }

    /// Number of bins in the timeline.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Total bytes reserved so far.
    pub fn total_reserved_bytes(&self) -> f64 {
        self.total_reserved
    }

    fn bin_of(&self, time: Nanos) -> usize {
        ((time.as_nanos() / self.bin_width.as_nanos()) as usize).min(self.bins - 1)
    }

    fn skip(&self, bin: usize) -> u32 {
        self.pages[bin / PAGE_BINS]
            .as_ref()
            .map_or(0, |page| page.skip[bin % PAGE_BINS])
    }

    /// First bin at or after `bin` that may still have free capacity
    /// (`bins()` if none), compressing the skip path on the way.
    fn find_free(&mut self, bin: usize) -> usize {
        let mut root = bin;
        while root < self.bins {
            match self.skip(root) {
                0 => break,
                next => root = next as usize,
            }
        }
        // Path compression: point every visited bin at the found root.  The
        // visited bins are saturated, so their pages exist.
        let mut b = bin;
        while b < root {
            let page = self.pages[b / PAGE_BINS]
                .as_mut()
                .expect("a saturated bin lives on an allocated page");
            let slot = &mut page.skip[b % PAGE_BINS];
            b = *slot as usize;
            *slot = root as u32;
        }
        root
    }

    /// Free capacity (bytes) between `start` and `end`: the sequential sum
    /// of the clamped free bytes of every unsaturated bin the window spans.
    pub fn free_bytes_between(&self, start: Nanos, end: Nanos) -> f64 {
        if end <= start {
            return 0.0;
        }
        let hi = self.bin_of(end);
        let empty_bin = self.bytes_per_bin.max(0.0);
        let mut sum = 0.0;
        let mut b = self.bin_of(start);
        while b <= hi {
            let page_end = ((b / PAGE_BINS + 1) * PAGE_BINS).min(hi + 1);
            match &self.pages[b / PAGE_BINS] {
                None => {
                    // One addition per bin, as in the flat scan: a product
                    // would round differently.
                    for _ in b..page_end {
                        sum += empty_bin;
                    }
                    b = page_end;
                }
                Some(page) => {
                    while b < page_end {
                        let i = b % PAGE_BINS;
                        match page.skip[i] {
                            0 => {
                                sum += (self.bytes_per_bin - page.used[i]).max(0.0);
                                b += 1;
                            }
                            next => b = next as usize,
                        }
                    }
                }
            }
        }
        sum
    }

    /// Returns `true` if a transfer of `bytes` starting at `start` cannot fit
    /// inside the window `[start, start + nominal_duration]` — the paper's
    /// "traffic is full" test.
    pub fn is_saturated(&self, bytes: u64, start: Nanos, nominal_duration: Nanos) -> bool {
        let end = start.saturating_add(nominal_duration);
        self.free_bytes_between(start, end) < bytes as f64
    }

    /// Reserves `bytes` starting at `start`, filling bins greedily forward,
    /// and returns the time at which the last byte is transferred.
    pub fn reserve(&mut self, bytes: u64, start: Nanos) -> Nanos {
        let mut remaining = bytes as f64;
        self.total_reserved += bytes as f64;
        let mut bin = self.bin_of(start);
        if remaining <= 0.0 {
            return self.end_of_bin(bin);
        }
        loop {
            bin = self.find_free(bin);
            if bin >= self.bins {
                // Past the planning horizon: everything fits notionally at
                // the very end.
                let last = self.bins - 1;
                let page = self.pages[last / PAGE_BINS].get_or_insert_with(Page::empty);
                page.used[last % PAGE_BINS] += remaining;
                return self.end_of_bin(last);
            }
            // Fill this page's open bins in one pass.  Bins `closed..bin`
            // are the run this pass filled to capacity; each run is pointed
            // at the bin after it in one write, so no later walk crosses it
            // bin by bin.
            let first = bin / PAGE_BINS * PAGE_BINS;
            let end = (first + PAGE_BINS).min(self.bins);
            let page = self.pages[bin / PAGE_BINS].get_or_insert_with(Page::empty);
            let mut closed = bin;
            while bin < end && page.skip[bin - first] == 0 {
                let used = &mut page.used[bin - first];
                let take = (self.bytes_per_bin - *used).max(0.0).min(remaining);
                *used += take;
                remaining -= take;
                let full = (self.bytes_per_bin - *used).max(0.0) <= 0.0;
                if !full {
                    page.skip[closed - first..bin - first].fill(bin as u32);
                    closed = bin + 1;
                }
                if remaining <= 0.0 {
                    page.skip[closed - first..=bin - first].fill(bin as u32 + 1);
                    return self.end_of_bin(bin);
                }
                bin += 1;
            }
            page.skip[closed - first..bin - first].fill(bin as u32);
        }
    }

    fn end_of_bin(&self, bin: usize) -> Nanos {
        Nanos::from_nanos((bin as u64 + 1) * self.bin_width.as_nanos())
    }

    /// Average utilisation of the channel over its whole horizon.
    pub fn utilization(&self) -> f64 {
        if self.bins == 0 || self.bytes_per_bin <= 0.0 {
            return 0.0;
        }
        let capacity = self.bytes_per_bin * self.bins as f64;
        (self.total_reserved / capacity).min(1.0)
    }

    /// Number of pages allocated so far.
    #[cfg(test)]
    fn allocated_pages(&self) -> usize {
        self.pages.iter().filter(|page| page.is_some()).count()
    }
}

impl BandwidthReservation for BandwidthTimeline {
    fn with_rate(bytes_per_sec: f64, horizon: Nanos, bin_width: Nanos) -> Self {
        BandwidthTimeline::new(bytes_per_sec, horizon, bin_width)
    }
    fn bins(&self) -> usize {
        BandwidthTimeline::bins(self)
    }
    fn total_reserved_bytes(&self) -> f64 {
        BandwidthTimeline::total_reserved_bytes(self)
    }
    fn free_bytes_between(&self, start: Nanos, end: Nanos) -> f64 {
        BandwidthTimeline::free_bytes_between(self, start, end)
    }
    fn is_saturated(&self, bytes: u64, start: Nanos, nominal_duration: Nanos) -> bool {
        BandwidthTimeline::is_saturated(self, bytes, start, nominal_duration)
    }
    fn reserve(&mut self, bytes: u64, start: Nanos) -> Nanos {
        BandwidthTimeline::reserve(self, bytes, start)
    }
    fn utilization(&self) -> f64 {
        BandwidthTimeline::utilization(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveBandwidthTimeline;

    fn timeline() -> BandwidthTimeline {
        // 1 GB/s over 10 ms with 1 ms bins → 1 MB per bin, 12 bins.
        BandwidthTimeline::new(1e9, Nanos::from_millis(10), Nanos::from_millis(1))
    }

    /// 1 GB/s with 1 µs bins → 1 kB per bin, `pages` pages of bins.
    fn paged(pages: u64) -> (BandwidthTimeline, NaiveBandwidthTimeline) {
        let horizon = Nanos::from_micros(pages * PAGE_BINS as u64 - 2);
        let bin = Nanos::from_micros(1);
        (
            BandwidthTimeline::new(1e9, horizon, bin),
            NaiveBandwidthTimeline::new(1e9, horizon, bin),
        )
    }

    #[test]
    fn reserve_fills_forward() {
        let mut t = timeline();
        let done = t.reserve(2_000_000, Nanos::ZERO);
        // 2 MB at 1 MB/bin → finishes at the end of the second bin.
        assert_eq!(done, Nanos::from_millis(2));
        let done2 = t.reserve(1_000_000, Nanos::ZERO);
        // The first two bins are full, so the next MB lands in bin 3.
        assert_eq!(done2, Nanos::from_millis(3));
    }

    #[test]
    fn saturation_test_matches_free_capacity() {
        let mut t = timeline();
        assert!(!t.is_saturated(1_000_000, Nanos::ZERO, Nanos::from_millis(1)));
        t.reserve(2_000_000, Nanos::ZERO);
        assert!(t.is_saturated(1_000_000, Nanos::ZERO, Nanos::from_millis(1)));
        assert!(!t.is_saturated(1_000_000, Nanos::from_millis(3), Nanos::from_millis(1)));
    }

    #[test]
    fn free_bytes_between_is_window_limited() {
        let t = timeline();
        let one_bin = t.free_bytes_between(Nanos::ZERO, Nanos::from_micros(500));
        assert!((one_bin - 1_000_000.0).abs() < 1.0);
        assert_eq!(
            t.free_bytes_between(Nanos::from_millis(5), Nanos::from_millis(5)),
            0.0
        );
    }

    #[test]
    fn overflow_past_horizon_still_completes() {
        let mut t = timeline();
        let done = t.reserve(1_000_000_000, Nanos::ZERO);
        assert_eq!(done, Nanos::from_millis(12));
        assert!(t.utilization() <= 1.0);
    }

    #[test]
    fn utilization_tracks_reservations() {
        let mut t = timeline();
        assert_eq!(t.utilization(), 0.0);
        t.reserve(6_000_000, Nanos::ZERO);
        assert!(t.utilization() > 0.4 && t.utilization() <= 1.0);
        assert!(t.total_reserved_bytes() > 0.0);
        assert_eq!(t.bins(), 12);
    }

    #[test]
    fn saturated_prefix_is_skipped_not_rescanned() {
        let mut t = timeline();
        // Saturate the first 10 bins.
        t.reserve(10_000_000, Nanos::ZERO);
        assert!((0..10).all(|b| t.skip(b) != 0));
        assert_eq!(t.skip(10), 0);
        // A reservation starting at zero must land in bin 11.
        let done = t.reserve(1_000_000, Nanos::ZERO);
        assert_eq!(done, Nanos::from_millis(11));
        // The skip pointers now jump over the saturated prefix.
        assert!(t.skip(0) >= 10);
        assert!(t.find_free(0) >= 10);
    }

    #[test]
    fn free_bytes_shrink_as_reservations_land() {
        let mut t = timeline();
        let before = t.free_bytes_between(Nanos::ZERO, Nanos::from_millis(10));
        t.reserve(3_000_000, Nanos::ZERO);
        let after = t.free_bytes_between(Nanos::ZERO, Nanos::from_millis(10));
        assert!((before - after - 3_000_000.0).abs() < 1.0);
    }

    #[test]
    fn long_horizon_allocates_only_the_pages_it_writes() {
        // SENet154 at batch 1024: a ~150 s iteration in 250 µs bins.
        let mut t = BandwidthTimeline::new(
            3.2e9,
            Nanos::from_secs(150),
            BandwidthTimeline::default_bin_width(),
        );
        assert_eq!(t.bins(), 600_002);
        assert_eq!(t.allocated_pages(), 0);
        // Bin 300,032 starts page 293.
        let start = Nanos::from_millis(75_008);
        assert!(!t.is_saturated(64 << 20, start, Nanos::from_millis(25)));
        // 64 MiB at 800 kB per bin fills 84 bins, all inside that page.
        let done = t.reserve(64 << 20, start);
        assert_eq!(done, start + Nanos::from_micros(84 * 250));
        assert_eq!(t.allocated_pages(), 1);
        // Reading the whole horizon allocates nothing.
        let free = t.free_bytes_between(Nanos::ZERO, Nanos::from_secs(150));
        assert!(free > 0.0);
        assert_eq!(t.allocated_pages(), 1);
    }

    #[test]
    fn reservation_straddling_a_page_boundary_matches_the_flat_ledger() {
        let (mut t, mut flat) = paged(3);
        // Starts four bins before the first page boundary and fills ten.
        let start = Nanos::from_micros(PAGE_BINS as u64 - 4);
        assert_eq!(t.reserve(10_000, start), flat.reserve(10_000, start));
        assert_eq!(t.allocated_pages(), 2);
        // A second transfer from the same start skips both saturated runs.
        assert_eq!(t.reserve(2_500, start), flat.reserve(2_500, start));
        let (lo, hi) = (Nanos::from_micros(1_000), Nanos::from_micros(1_100));
        assert_eq!(
            t.free_bytes_between(lo, hi),
            flat.free_bytes_between(lo, hi)
        );
        assert_eq!(
            t.is_saturated(90_000, lo, hi - lo),
            flat.is_saturated(90_000, lo, hi - lo)
        );
    }

    #[test]
    fn overflow_past_a_multi_page_horizon_still_completes() {
        let (mut t, mut flat) = paged(3);
        let start = Nanos::from_micros(100);
        let done = t.reserve(10_000_000, start);
        assert_eq!(done, flat.reserve(10_000_000, start));
        // Everything past the horizon lands in the last bin.
        assert_eq!(done, Nanos::from_micros(3 * PAGE_BINS as u64));
        assert_eq!(t.allocated_pages(), 3);
        assert_eq!(t.utilization(), flat.utilization());
        assert_eq!(t.utilization(), 1.0);
        // A later reservation from the same start overflows straight away.
        assert_eq!(t.reserve(1, start), flat.reserve(1, start));
        assert_eq!(t.reserve(1, start), done);
        assert_eq!(
            t.free_bytes_between(Nanos::ZERO, done),
            flat.free_bytes_between(Nanos::ZERO, done)
        );
    }
}
