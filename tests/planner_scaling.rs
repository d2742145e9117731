//! Planner scaling tests on the synthetic deep-GPT stress workload.
//!
//! The fast test checks that the indexed and naive planners agree
//! decision-for-decision on a mid-size stress graph.  The `#[ignore]`d tests
//! (release builds only) additionally measure wall time: the per-push
//! `grid-pin` CI job asserts a speedup floor at 2k kernels, and the
//! scheduled full-size job asserts the ≥ 10× speedup at 10k kernels that the
//! refactor was sized for.

use g10::core::bandwidth::{BandwidthReservation, BandwidthTimeline};
use g10::core::config::SystemConfig;
use g10::core::eviction::{schedule_evictions_with, EvictionDecision, EvictionOptions};
use g10::core::naive::{NaiveBandwidthTimeline, NaiveMemoryTimeline};
use g10::core::prefetch::{schedule_prefetches_with, PrefetchDecision};
use g10::core::pressure::{MemoryTimeline, PressureTimeline};
use g10::core::vitality::VitalityAnalysis;
use g10::dnn::cost::GpuCostModel;
use g10::dnn::models::stress::{build, StressGptConfig};
use g10::dnn::trace::KernelTrace;
use std::time::{Duration, Instant};

struct Case {
    trace: KernelTrace,
    analysis: VitalityAnalysis,
    config: SystemConfig,
    kernels: usize,
}

fn stress_case(batch: u64, target_kernels: usize) -> Case {
    let cfg = StressGptConfig::with_target_kernels(target_kernels);
    let graph = build(batch, &cfg);
    let trace = KernelTrace::profile(&graph, &GpuCostModel::a100());
    let analysis = VitalityAnalysis::analyze(&graph, &trace);
    let config = SystemConfig::table2().with_gpu_memory(analysis.peak_live_bytes() / 2);
    let kernels = graph.num_kernels();
    Case {
        trace,
        analysis,
        config,
        kernels,
    }
}

fn plan<P: PressureTimeline, B: BandwidthReservation>(
    case: &Case,
) -> (Vec<EvictionDecision>, Vec<PrefetchDecision>) {
    let mut schedule = schedule_evictions_with::<P, B>(
        &case.analysis,
        &case.trace,
        &case.config,
        EvictionOptions::both(),
    );
    let prefetches = schedule_prefetches_with(
        &case.analysis,
        &case.trace,
        &case.config,
        &schedule.decisions,
        &mut schedule.pressure,
    );
    (schedule.decisions, prefetches)
}

/// Exact plan identity between the timeline families.  Integer-valued
/// pressure queries, per-bin reservation arithmetic and the sequential
/// free-byte sums behind `is_saturated` are bit-identical by construction
/// (see the module docs of `g10_core::bandwidth`), so a failure here means a
/// real behavioural divergence.
fn assert_identical_plans(case: &Case) -> usize {
    let (ev_indexed, pf_indexed) = plan::<MemoryTimeline, BandwidthTimeline>(case);
    let (ev_naive, pf_naive) = plan::<NaiveMemoryTimeline, NaiveBandwidthTimeline>(case);
    assert_eq!(ev_indexed, ev_naive, "eviction schedules diverged");
    assert_eq!(pf_indexed, pf_naive, "prefetch schedules diverged");
    assert!(!ev_indexed.is_empty(), "stress case must force evictions");
    ev_indexed.len()
}

/// Best of three timed runs: the minimum is the least noisy estimate of
/// what the code actually costs.
fn min_of_3(f: impl Fn()) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .min()
        .expect("three timed runs")
}

#[test]
fn indexed_and_naive_planners_agree_at_mid_scale() {
    let case = stress_case(8, 700);
    let decisions = assert_identical_plans(&case);
    assert!(decisions > 50, "only {decisions} decisions planned");
}

#[test]
#[ignore = "10k-kernel planning; run with --release --ignored"]
fn indexed_planner_is_10x_faster_at_10k_kernels() {
    let case = stress_case(8, 10_000);
    assert!(case.kernels >= 9_500, "stress graph came up short");

    // Plan equality first (also warms both code paths).
    assert_identical_plans(&case);

    let start = Instant::now();
    let (ev, _) = plan::<MemoryTimeline, BandwidthTimeline>(&case);
    let indexed = start.elapsed();

    let start = Instant::now();
    let _ = plan::<NaiveMemoryTimeline, NaiveBandwidthTimeline>(&case);
    let naive = start.elapsed();

    let speedup = naive.as_secs_f64() / indexed.as_secs_f64().max(1e-9);
    eprintln!(
        "planner at {} kernels ({} evictions): naive {:.1} ms, indexed {:.1} ms, speedup {:.1}x",
        case.kernels,
        ev.len(),
        naive.as_secs_f64() * 1e3,
        indexed.as_secs_f64() * 1e3,
        speedup
    );
    assert!(
        speedup >= 10.0,
        "expected >= 10x planner speedup at 10k kernels, measured {speedup:.1}x"
    );
}

#[test]
#[ignore = "timed 2k-kernel planning; run with --release --include-ignored"]
fn indexed_planner_speedup_at_2k() {
    let case = stress_case(2, 2_000);

    // Plan equality first (also warms both code paths).
    assert_identical_plans(&case);

    let indexed = min_of_3(|| {
        std::hint::black_box(plan::<MemoryTimeline, BandwidthTimeline>(&case));
    });
    let naive = min_of_3(|| {
        std::hint::black_box(plan::<NaiveMemoryTimeline, NaiveBandwidthTimeline>(&case));
    });

    let speedup = naive.as_secs_f64() / indexed.as_secs_f64().max(1e-9);
    eprintln!(
        "planner at {} kernels: naive {:.1} ms, indexed {:.1} ms, speedup {:.1}x",
        case.kernels,
        naive.as_secs_f64() * 1e3,
        indexed.as_secs_f64() * 1e3,
        speedup
    );
    // 0.4 x the 8.28x recorded at this size when the floor was set,
    // rounded up to two decimals.
    assert!(
        speedup >= 3.32,
        "expected >= 3.32x planner speedup at 2k kernels, measured {speedup:.2}x"
    );
}
