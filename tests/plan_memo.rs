//! Plan once, place many: eviction selection is independent of host memory
//! and of the G10 variant, and the selection memo behind
//! `PolicyContext::plan` returns exactly the plan the un-memoised scheduler
//! builds — on a first call, on a repeat hit, and never from a stale entry.
//!
//! The memo and its counters are process-wide, so every test here holds
//! `MEMO_LOCK` and each test plans on its own GPU size: counter deltas are
//! then exact, and no test can be served a selection another one computed.

use g10::core::config::SystemConfig;
use g10::core::eviction::{schedule_evictions, select_evictions, EvictionOptions};
use g10::core::plan::MigrationPlan;
use g10::core::scheduler::{G10Scheduler, SchedulerVariant};
use g10::core::vitality::{PeriodId, VitalityAnalysis};
use g10::dnn::models::ModelKind;
use g10::dnn::trace::KernelTrace;
use g10::sim::{plan_selection_stats, PlanSelectionStats, PolicyContext, Workload};
use g10::time::Nanos;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock};

const MIB: u64 = 1 << 20;

static MEMO_LOCK: Mutex<()> = Mutex::new(());

fn memo_lock() -> MutexGuard<'static, ()> {
    MEMO_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn workload() -> &'static Workload {
    static WORKLOAD: OnceLock<Workload> = OnceLock::new();
    WORKLOAD.get_or_init(|| Workload::new(ModelKind::TinyCnn, 64))
}

/// The plan through the memo, and the counter delta it caused.
fn memoised(
    config: &SystemConfig,
    trace: &KernelTrace,
    variant: SchedulerVariant,
) -> (MigrationPlan, PlanSelectionStats) {
    let before = plan_selection_stats();
    let ctx = PolicyContext {
        workload: workload(),
        config,
        planning_trace: trace,
    };
    let plan = ctx.plan(variant);
    (plan, plan_selection_stats().since(&before))
}

/// The plan from the un-memoised scheduler.
fn direct(config: &SystemConfig, trace: &KernelTrace, variant: SchedulerVariant) -> MigrationPlan {
    let graph = &workload().graph;
    let analysis = VitalityAnalysis::analyze(graph, trace);
    G10Scheduler::new(*config, variant).plan_with_analysis(graph, trace, &analysis)
}

/// The accepted periods of the interleaved scheduler, in acceptance order.
fn interleaved_selection(config: &SystemConfig, variant: SchedulerVariant) -> Vec<PeriodId> {
    let w = workload();
    let analysis = VitalityAnalysis::analyze(&w.graph, &w.trace);
    let options = EvictionOptions {
        allow_ssd: true,
        allow_host: variant.allows_host(),
    };
    schedule_evictions(&analysis, &w.trace, config, options)
        .decisions
        .iter()
        .map(|d| d.period)
        .collect()
}

const COMPUTED: PlanSelectionStats = PlanSelectionStats {
    computed: 1,
    reused: 0,
};
const REUSED: PlanSelectionStats = PlanSelectionStats {
    computed: 0,
    reused: 1,
};

#[test]
fn selection_is_shared_across_host_sizes_and_variants() {
    let _guard = memo_lock();
    let w = workload();
    // A small GPU and a slow SSD so the planner spills to host memory.
    let base = SystemConfig::table2()
        .with_gpu_memory(48 * MIB)
        .with_ssd_bandwidth(50e6);
    let analysis = VitalityAnalysis::analyze(&w.graph, &w.trace);
    let selection = select_evictions(&analysis, &w.trace, &base);
    assert!(!selection.is_empty());

    let mut first = true;
    let mut host_evictions = Vec::new();
    for host in [0, 16 * MIB, 32 * MIB, 1 << 30] {
        let config = base.with_host_memory(host);
        for variant in SchedulerVariant::ALL {
            assert_eq!(
                interleaved_selection(&config, variant),
                selection,
                "{variant} with {host} B of host memory selected different periods"
            );
            let expected = direct(&config, &w.trace, variant);
            let (plan, delta) = memoised(&config, &w.trace, variant);
            assert_eq!(delta, if first { COMPUTED } else { REUSED });
            first = false;
            let (again, delta) = memoised(&config, &w.trace, variant);
            assert_eq!(delta, REUSED);
            for got in [&plan, &again] {
                assert!(
                    got.instructions().eq(expected.instructions()),
                    "{variant} with {host} B of host memory: memoised plan differs"
                );
                assert_eq!(*got, expected);
            }
            host_evictions.push(plan.planned_host_evict_bytes());
        }
    }
    // The sweep exercised placement: no host memory means no host spill,
    // a gigabyte of it means some.
    assert!(host_evictions[..3].iter().all(|&bytes| bytes == 0));
    assert!(host_evictions[host_evictions.len() - 1] > 0);
}

#[test]
fn every_non_host_input_computes_a_fresh_selection() {
    let _guard = memo_lock();
    let w = workload();
    let base = SystemConfig::table2().with_gpu_memory(56 * MIB);
    let variant = SchedulerVariant::Full;
    memoised(&base, &w.trace, variant);
    assert_eq!(
        memoised(&base.with_host_memory(8 * MIB), &w.trace, variant).1,
        REUSED
    );

    let mut ssd_read = base;
    ssd_read.ssd_read_bytes_per_sec /= 2.0;
    let mut ssd_write = base;
    ssd_write.ssd_write_bytes_per_sec /= 2.0;
    let mut read_latency = base;
    read_latency.ssd_read_latency += Nanos::from_micros(1);
    let mut write_latency = base;
    write_latency.ssd_write_latency += Nanos::from_micros(1);
    let changed = [
        ("GPU memory", base.with_gpu_memory(55 * MIB)),
        ("SSD read bandwidth", ssd_read),
        ("SSD write bandwidth", ssd_write),
        ("PCIe bandwidth", base.with_pcie_bandwidth(8e9)),
        ("SSD read latency", read_latency),
        ("SSD write latency", write_latency),
    ];
    for (what, config) in changed {
        let (plan, delta) = memoised(&config, &w.trace, variant);
        assert_eq!(delta, COMPUTED, "a changed {what} reused a selection");
        assert_eq!(plan, direct(&config, &w.trace, variant), "{what}");
    }

    let noisy = w.trace.with_noise(0.05, 7);
    let (plan, delta) = memoised(&base, &noisy, variant);
    assert_eq!(
        delta, COMPUTED,
        "a perturbed planning trace reused a selection"
    );
    assert_eq!(plan, direct(&base, &noisy, variant));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn memoised_plans_match_the_scheduler(
        host_mib in 0u64..=2048,
        ssd_mb_per_sec in 20u64..=12_800,
        pcie_gb_per_sec in 4u64..=32,
    ) {
        let _guard = memo_lock();
        let w = workload();
        let config = SystemConfig::table2()
            .with_gpu_memory(64 * MIB)
            .with_host_memory(host_mib * MIB)
            .with_ssd_bandwidth(ssd_mb_per_sec as f64 * 1e6)
            .with_pcie_bandwidth(pcie_gb_per_sec as f64 * 1e9);
        let selection = interleaved_selection(&config, SchedulerVariant::Gds);
        for variant in SchedulerVariant::ALL {
            prop_assert_eq!(interleaved_selection(&config, variant), selection.clone());
            let (plan, _) = memoised(&config, &w.trace, variant);
            prop_assert_eq!(plan, direct(&config, &w.trace, variant));
        }
    }
}
