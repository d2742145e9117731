//! Smart tensor eviction scheduling (Algorithm 1, §4.3), in two stages.
//!
//! **Selection** iteratively picks the inactive period with the best
//! benefit/cost ratio — the GPU memory-pressure area above the capacity
//! limit that evicting the tensor removes, divided by the round-trip
//! migration latency it costs — lowers the pressure curve by the period's
//! bytes, and repeats until the curve fits under the GPU capacity or no
//! beneficial candidate remains.  Its output is the accepted [`PeriodId`]
//! sequence ([`select_evictions`]).
//!
//! **Placement** walks the accepted periods in order and does everything
//! else: it chooses the SSD or host memory as the destination from SSD
//! channel saturation and host capacity, reserves bandwidth on the chosen
//! channel, tracks host occupancy, and emits the [`EvictionDecision`]s
//! ([`place_evictions`]).
//!
//! Selection reads only the pressure curve, the trace, the GPU capacity and
//! the *nominal* SSD round-trip cost.  The destination is chosen after a
//! period is accepted, and lowers the GPU pressure by the same bytes
//! whichever it is, so nothing placement does feeds back into selection.
//! Selection is therefore the same for every host-memory size and for all
//! three [`crate::scheduler::SchedulerVariant`]s, which lets a caller plan
//! it once and place it many times ([`selection_key`] names its inputs).
//! The one exception is host-only planning (`allow_ssd: false`, used by no
//! variant): there a period with no host room is skipped instead of
//! accepted, so [`schedule_evictions`] runs both stages interleaved, and
//! that is also the path every un-memoised caller takes.
//!
//! Because every eviction only ever *lowers* the pressure curve, candidate
//! benefits are non-increasing over the course of the search.  Selection
//! exploits this with a lazy-greedy (CELF-style) priority queue: a
//! candidate popped with a stale score is re-scored, and accepted
//! immediately if it still beats the next-best stale score — giving the same
//! selection order as re-sorting every iteration (as written in Algorithm 1)
//! at a fraction of the cost.

use crate::bandwidth::{BandwidthReservation, BandwidthTimeline};
use crate::config::{Destination, SystemConfig};
use crate::pressure::{MemoryTimeline, PressureTimeline};
use crate::vitality::{InactivePeriod, PeriodId, VitalityAnalysis};
use g10_dnn::graph::KernelId;
use g10_dnn::tensor::TensorId;
use g10_dnn::trace::KernelTrace;
use g10_dnn::Nanos;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::BinaryHeap;
use std::hash::Hasher;

/// Which eviction destinations the planner may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionOptions {
    /// Allow evicting to the SSD over the GPUDirect-Storage path.
    pub allow_ssd: bool,
    /// Allow evicting to host memory over PCIe.
    pub allow_host: bool,
}

impl EvictionOptions {
    /// Both destinations available (the full G10 design and G10-Host).
    pub fn both() -> Self {
        EvictionOptions {
            allow_ssd: true,
            allow_host: true,
        }
    }

    /// SSD only (the G10-GDS ablation).
    pub fn ssd_only() -> Self {
        EvictionOptions {
            allow_ssd: true,
            allow_host: false,
        }
    }

    /// The destination used for nominal cost estimates.
    fn nominal_destination(&self) -> Destination {
        if self.allow_ssd {
            Destination::Ssd
        } else {
            Destination::Host
        }
    }
}

/// One scheduled pre-eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionDecision {
    /// The inactive period being exploited.
    pub period: PeriodId,
    /// The tensor to evict.
    pub tensor: TensorId,
    /// Its size in bytes.
    pub bytes: u64,
    /// Where it goes.
    pub destination: Destination,
    /// The kernel after which the eviction is issued.
    pub evict_kernel: KernelId,
    /// When the eviction is issued in the ideal schedule.
    pub evict_start: Nanos,
    /// When the planner expects the eviction to complete, accounting for the
    /// bandwidth already reserved by earlier decisions.
    pub evict_complete: Nanos,
}

/// The full result of the eviction-scheduling pass.
///
/// Generic over the timeline implementations so the same algorithm runs on
/// the indexed structures (the default) and on the naive references in
/// [`crate::naive`] (equivalence tests, `bench_planner` baseline).
#[derive(Debug, Clone)]
pub struct EvictionSchedule<P = MemoryTimeline, B = BandwidthTimeline> {
    /// The scheduled evictions, in the order they were selected.
    pub decisions: Vec<EvictionDecision>,
    /// GPU memory pressure after applying every eviction.
    pub pressure: P,
    /// Host-memory occupancy created by host-destination evictions.
    pub host_occupancy: P,
    /// Reservation state of the GPU→SSD channel.
    pub to_ssd: B,
    /// Reservation state of the GPU→host channel.
    pub to_host: B,
}

impl<P: PressureTimeline, B> EvictionSchedule<P, B> {
    /// Bytes scheduled for eviction to the SSD.
    pub fn ssd_bytes(&self) -> u64 {
        self.decisions
            .iter()
            .filter(|d| d.destination == Destination::Ssd)
            .map(|d| d.bytes)
            .sum()
    }

    /// Bytes scheduled for eviction to host memory.
    pub fn host_bytes(&self) -> u64 {
        self.decisions
            .iter()
            .filter(|d| d.destination == Destination::Host)
            .map(|d| d.bytes)
            .sum()
    }

    /// The planned peak GPU memory pressure after the evictions.
    pub fn planned_peak_pressure(&self) -> u64 {
        self.pressure.max_value()
    }
}

#[derive(Debug, Clone, Copy)]
struct Candidate {
    score: f64,
    period: PeriodId,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.period == other.period
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then_with(|| self.period.index().cmp(&other.period.index()))
    }
}

/// Runs the smart eviction scheduling algorithm on the indexed timelines.
pub fn schedule_evictions(
    analysis: &VitalityAnalysis,
    trace: &KernelTrace,
    config: &SystemConfig,
    options: EvictionOptions,
) -> EvictionSchedule {
    schedule_evictions_with::<MemoryTimeline, BandwidthTimeline>(analysis, trace, config, options)
}

/// Runs the smart eviction scheduling algorithm on explicit timeline
/// implementations (see [`crate::naive`] for the reference pair): selection
/// and placement interleaved, each accepted period placed as soon as it is
/// picked.
pub fn schedule_evictions_with<P: PressureTimeline, B: BandwidthReservation>(
    analysis: &VitalityAnalysis,
    trace: &KernelTrace,
    config: &SystemConfig,
    options: EvictionOptions,
) -> EvictionSchedule<P, B> {
    schedule(analysis, trace, config, options, None)
}

/// The selection stage alone: the accepted periods, in acceptance order,
/// of SSD-capable planning (every [`crate::scheduler::SchedulerVariant`]).
///
/// The result depends only on the inputs [`selection_key`] fingerprints;
/// [`place_evictions`] turns it into the schedule [`schedule_evictions`]
/// would have produced for any host-memory size and variant.
pub fn select_evictions(
    analysis: &VitalityAnalysis,
    trace: &KernelTrace,
    config: &SystemConfig,
) -> Vec<PeriodId> {
    let durations = kernel_durations(trace);
    let mut pressure = MemoryTimeline::new(analysis.live_bytes(), &durations);
    let mut selection = Vec::new();
    select(
        analysis,
        trace.len(),
        config,
        EvictionOptions::ssd_only(),
        &mut pressure,
        |period, _| {
            selection.push(period.id);
            true
        },
    );
    selection
}

/// The placement stage alone: replays a [`select_evictions`] result in
/// order, choosing each period's destination and reserving its channel.
///
/// Equals [`schedule_evictions`] with `EvictionOptions { allow_ssd: true,
/// allow_host }` whenever `selection` came from the same analysis, trace and
/// [`selection_key`]-equal configuration.
pub fn place_evictions(
    analysis: &VitalityAnalysis,
    trace: &KernelTrace,
    config: &SystemConfig,
    allow_host: bool,
    selection: &[PeriodId],
) -> EvictionSchedule {
    let options = EvictionOptions {
        allow_ssd: true,
        allow_host,
    };
    schedule(analysis, trace, config, options, Some(selection))
}

/// A content fingerprint of everything [`select_evictions`] reads: the
/// kernel durations, the live-bytes curve, each period's bytes, length and
/// kernel ranges, and every [`SystemConfig`] field but the host-memory size
/// (via [`SystemConfig::cache_key`], so a new field joins the key
/// automatically).  Equal keys mean equal selections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SelectionKey {
    config: [u64; 12],
    content: u128,
}

/// Computes the [`SelectionKey`] of one planning problem.
pub fn selection_key(
    analysis: &VitalityAnalysis,
    trace: &KernelTrace,
    config: &SystemConfig,
) -> SelectionKey {
    // Two SipHash streams, one salted, give a 128-bit digest: collisions
    // would silently reuse a wrong selection, so 64 bits is not enough.
    let mut plain = DefaultHasher::new();
    let mut salted = DefaultHasher::new();
    salted.write_u64(0x9e37_79b9_7f4a_7c15);
    let mut push = |word: u64| {
        plain.write_u64(word);
        salted.write_u64(word);
    };
    let n_kernels = trace.len();
    push(n_kernels as u64);
    for k in 0..n_kernels {
        push(trace.duration(KernelId::new(k as u32)).as_nanos());
    }
    let live = analysis.live_bytes();
    push(live.len() as u64);
    live.iter().for_each(|&bytes| push(bytes));
    push(analysis.periods().len() as u64);
    for period in analysis.periods() {
        push(period.bytes);
        push(period.length().as_nanos());
        let ranges = period.ranges(n_kernels);
        push(ranges.as_slice().len() as u64);
        for &(start, end) in ranges.as_slice() {
            push(start as u64);
            push(end as u64);
        }
    }
    SelectionKey {
        config: config.with_host_memory(0).cache_key(),
        content: (u128::from(plain.finish()) << 64) | u128::from(salted.finish()),
    }
}

fn kernel_durations(trace: &KernelTrace) -> Vec<Nanos> {
    (0..trace.len())
        .map(|k| trace.duration(KernelId::new(k as u32)))
        .collect()
}

/// The one lazy-greedy selection loop.  Every winning candidate is offered
/// to `accept`; if it returns `true` the period's bytes come off `pressure`,
/// otherwise the candidate is dropped and pressure is left as it was.
fn select<P: PressureTimeline>(
    analysis: &VitalityAnalysis,
    n_kernels: usize,
    config: &SystemConfig,
    options: EvictionOptions,
    pressure: &mut P,
    mut accept: impl FnMut(&InactivePeriod, &[(usize, usize)]) -> bool,
) {
    if !options.allow_ssd && !options.allow_host {
        return;
    }
    let capacity = config.gpu_memory_bytes;
    let nominal_dest = options.nominal_destination();

    // Interior ranges are immutable per period: compute them once into an
    // arena instead of re-allocating a `Vec` per candidate evaluation.
    let ranges_arena = analysis.period_ranges(n_kernels);

    // Seed the lazy-greedy heap with every candidate whose inactive period is
    // long enough to cover the round-trip migration and whose eviction would
    // currently relieve pressure above the capacity limit.
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
    for period in analysis.periods() {
        let cost = config.migration_cost(period.bytes, nominal_dest);
        if period.length() <= cost {
            continue;
        }
        let ranges = ranges_arena[period.id.index()].as_slice();
        if ranges.is_empty() {
            continue;
        }
        let benefit = pressure.reduction_above(ranges, period.bytes, capacity);
        if benefit <= 0.0 {
            continue;
        }
        heap.push(Candidate {
            score: benefit / cost.as_secs_f64().max(1e-12),
            period: period.id,
        });
    }

    while pressure.max_value() > capacity {
        let Some(top) = heap.pop() else { break };
        let period = analysis.period(top.period);
        let ranges = ranges_arena[top.period.index()].as_slice();
        let cost = config
            .migration_cost(period.bytes, nominal_dest)
            .as_secs_f64()
            .max(1e-12);
        let fresh_benefit = pressure.reduction_above(ranges, period.bytes, capacity);
        let fresh_score = fresh_benefit / cost;
        if fresh_score <= 0.0 {
            // Benefits only shrink, so this candidate is permanently useless.
            continue;
        }
        if let Some(next) = heap.peek() {
            if fresh_score + 1e-12 < next.score {
                heap.push(Candidate {
                    score: fresh_score,
                    period: top.period,
                });
                continue;
            }
        }
        if accept(period, ranges) {
            pressure.add(ranges, -(period.bytes as i64));
        }
    }
}

/// Places every accepted period, in order: the periods `select` accepts
/// or, given a `selection`, those periods without running selection.
fn schedule<P: PressureTimeline, B: BandwidthReservation>(
    analysis: &VitalityAnalysis,
    trace: &KernelTrace,
    config: &SystemConfig,
    options: EvictionOptions,
    selection: Option<&[PeriodId]>,
) -> EvictionSchedule<P, B> {
    let durations = kernel_durations(trace);
    let mut pressure = P::from_values(analysis.live_bytes(), &durations);
    let mut host_occupancy = P::zeroed(&durations);
    let horizon = trace.total_duration();
    let bin = BandwidthTimeline::default_bin_width();
    let mut to_ssd = B::with_rate(config.evict_bytes_per_sec(Destination::Ssd), horizon, bin);
    let mut to_host = B::with_rate(config.evict_bytes_per_sec(Destination::Host), horizon, bin);
    let mut decisions = Vec::new();

    // Placement of one accepted period: pick the destination (Algorithm 1,
    // lines 7–17), reserve its channel and record the decision.  Returns
    // `false`, changing nothing, only when host-only planning has no host
    // room left for the period.
    let mut place = |period: &InactivePeriod, ranges: &[(usize, usize)]| {
        let t_r = period.start_time;
        let ssd_window = config.evict_time(period.bytes, Destination::Ssd);
        let host_fits = options.allow_host
            && host_occupancy.fits_extra(ranges, period.bytes, config.host_memory_bytes);
        let destination = if options.allow_ssd {
            if to_ssd.is_saturated(period.bytes, t_r, ssd_window) && host_fits {
                Destination::Host
            } else {
                Destination::Ssd
            }
        } else if host_fits {
            Destination::Host
        } else {
            return false;
        };

        let evict_complete = match destination {
            Destination::Ssd => to_ssd.reserve(period.bytes, t_r),
            Destination::Host => {
                host_occupancy.add(ranges, period.bytes as i64);
                to_host.reserve(period.bytes, t_r)
            }
        };
        decisions.push(EvictionDecision {
            period: period.id,
            tensor: period.tensor,
            bytes: period.bytes,
            destination,
            evict_kernel: period.start_kernel,
            evict_start: t_r,
            evict_complete,
        });
        true
    };

    match selection {
        None => select(analysis, trace.len(), config, options, &mut pressure, place),
        Some(selection) => {
            for &id in selection {
                let period = analysis.period(id);
                let ranges = period.ranges(trace.len());
                let placed = place(period, ranges.as_slice());
                debug_assert!(placed, "SSD-capable placement never skips a period");
                pressure.add(ranges.as_slice(), -(period.bytes as i64));
            }
        }
    }

    EvictionSchedule {
        decisions,
        pressure,
        host_occupancy,
        to_ssd,
        to_host,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g10_dnn::cost::GpuCostModel;
    use g10_dnn::models::{build_model, ModelKind};

    fn setup(gpu_bytes: u64) -> (VitalityAnalysis, KernelTrace, SystemConfig) {
        let graph = build_model(ModelKind::TinyCnn, 64);
        let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
        let analysis = VitalityAnalysis::analyze(&graph, &trace);
        let config = SystemConfig::table2().with_gpu_memory(gpu_bytes);
        (analysis, trace, config)
    }

    #[test]
    fn no_evictions_when_memory_is_plentiful() {
        let (analysis, trace, config) = setup(1 << 40);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        assert!(schedule.decisions.is_empty());
        assert_eq!(schedule.planned_peak_pressure(), analysis.peak_live_bytes());
    }

    #[test]
    fn evictions_reduce_peak_pressure_under_a_small_gpu() {
        let (analysis, trace, config) = setup(64 << 20);
        assert!(analysis.peak_live_bytes() > config.gpu_memory_bytes);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        assert!(!schedule.decisions.is_empty());
        assert!(schedule.planned_peak_pressure() < analysis.peak_live_bytes());
        // Every decision respects its period's timing.
        for d in &schedule.decisions {
            let p = analysis.period(d.period);
            assert_eq!(d.tensor, p.tensor);
            assert_eq!(d.evict_start, p.start_time);
            assert!(d.evict_complete >= d.evict_start);
        }
    }

    #[test]
    fn no_tensor_is_evicted_twice_in_the_same_period() {
        let (analysis, trace, config) = setup(64 << 20);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        let mut seen = std::collections::HashSet::new();
        for d in &schedule.decisions {
            assert!(seen.insert(d.period), "period scheduled twice");
        }
    }

    #[test]
    fn gds_only_never_uses_host_memory() {
        let (analysis, trace, config) = setup(64 << 20);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::ssd_only());
        assert!(!schedule.decisions.is_empty());
        assert_eq!(schedule.host_bytes(), 0);
        assert_eq!(schedule.host_occupancy.max_value(), 0);
    }

    #[test]
    fn host_traffic_appears_when_the_ssd_channel_saturates() {
        // Shrink the SSD bandwidth so the planner is forced to spill to host.
        let (analysis, trace, mut config) = setup(48 << 20);
        config = config.with_ssd_bandwidth(50e6);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        assert!(
            schedule.host_bytes() > 0,
            "a saturated SSD channel should push evictions to host memory"
        );
    }

    #[test]
    fn host_occupancy_respects_the_host_capacity() {
        let (analysis, trace, mut config) = setup(48 << 20);
        config = config.with_ssd_bandwidth(50e6).with_host_memory(32 << 20);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        assert!(schedule.host_occupancy.max_value() <= config.host_memory_bytes);
    }

    #[test]
    fn placing_the_selection_reproduces_the_interleaved_schedule() {
        let (analysis, trace, config) = setup(48 << 20);
        let config = config.with_ssd_bandwidth(50e6);
        let selection = select_evictions(&analysis, &trace, &config);
        for (host, allow_host) in [
            (0, true),
            (32 << 20, true),
            (1 << 30, true),
            (1 << 30, false),
        ] {
            let config = config.with_host_memory(host);
            let options = EvictionOptions {
                allow_ssd: true,
                allow_host,
            };
            let interleaved = schedule_evictions(&analysis, &trace, &config, options);
            let placed = place_evictions(&analysis, &trace, &config, allow_host, &selection);
            assert_eq!(placed.decisions, interleaved.decisions);
            assert_eq!(placed.pressure.values(), interleaved.pressure.values());
            assert_eq!(
                placed.host_occupancy.values(),
                interleaved.host_occupancy.values()
            );
            assert_eq!(
                selection_key(&analysis, &trace, &config),
                selection_key(&analysis, &trace, &config.with_host_memory(0))
            );
        }
    }

    #[test]
    fn decisions_prefer_long_beneficial_periods_first() {
        let (analysis, trace, config) = setup(64 << 20);
        let schedule = schedule_evictions(&analysis, &trace, &config, EvictionOptions::both());
        assert!(schedule.decisions.len() >= 2);
        // The first selected candidate must have at least as large an initial
        // benefit/cost score as the second (greedy order).
        let durations: Vec<Nanos> = (0..trace.len())
            .map(|k| trace.duration(KernelId::new(k as u32)))
            .collect();
        let fresh = MemoryTimeline::new(analysis.live_bytes(), &durations);
        let score = |d: &EvictionDecision| {
            let p = analysis.period(d.period);
            fresh.reduction_above(
                &p.interior_ranges(trace.len()),
                p.bytes,
                config.gpu_memory_bytes,
            ) / config
                .migration_cost(p.bytes, Destination::Ssd)
                .as_secs_f64()
        };
        assert!(score(&schedule.decisions[0]) + 1e-9 >= score(&schedule.decisions[1]));
    }
}
