//! Replay-engine scaling tests on the synthetic deep-GPT stress workload.
//!
//! The fast test checks that the indexed engine (incremental victim index,
//! ordered pending-free ledger) and the naive reference path (linear-scan
//! victim selection) produce *identical* `SimReport`s on a mid-size stress
//! replay across every eviction-heavy design.  The `#[ignore]`d tests
//! (release builds only) additionally measure wall time under
//! memory-constrained replay: the per-push `grid-pin` CI job asserts a
//! speedup floor for Base UVM at 2k kernels, and the scheduled full-size job
//! asserts the ≥ 5× speedup at 10k kernels under Base UVM and DeepUM+ that
//! the refactor was sized for.

use g10::core::config::SystemConfig;
use g10::core::vitality::VitalityAnalysis;
use g10::dnn::models::stress::StressGptConfig;
use g10::sim::{Experiment, PolicyKind, RuntimeOptions, SimReport, VictimSelection, Workload};
use std::time::{Duration, Instant};

/// Batch 2 keeps individual activations small, so the constrained GPU holds
/// *many* resident tensors — the regime where the naive per-victim scan is
/// most expensive relative to the shared fault/transfer modelling.
fn stress_workload(target_kernels: usize) -> Workload {
    Workload::stress(2, &StressGptConfig::with_target_kernels(target_kernels))
}

/// Half the peak live bytes: deep oversubscription, so the replay faults and
/// evicts continuously — the regime where victim selection dominates.
fn constrained_config(workload: &Workload) -> SystemConfig {
    let analysis = VitalityAnalysis::analyze(&workload.graph, &workload.trace);
    SystemConfig::table2().with_gpu_memory(analysis.peak_live_bytes() / 2)
}

fn replay(
    workload: &Workload,
    policy: PolicyKind,
    config: &SystemConfig,
    selection: VictimSelection,
) -> SimReport {
    Experiment::new(workload)
        .policy(policy)
        .config(*config)
        .options(RuntimeOptions {
            victim_selection: selection,
            ..RuntimeOptions::default()
        })
        .run()
        .expect("built-in policies resolve")
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
fn naive_and_indexed_replays_agree_at_mid_scale() {
    let workload = stress_workload(700);
    let config = constrained_config(&workload);
    for policy in [
        PolicyKind::BaseUvm,
        PolicyKind::DeepUmPlus,
        PolicyKind::FlashNeuron,
        PolicyKind::G10Full,
    ] {
        let indexed = replay(&workload, policy, &config, VictimSelection::Indexed);
        let naive = replay(&workload, policy, &config, VictimSelection::NaiveScan);
        assert_eq!(indexed, naive, "{policy}: engine paths diverged");
        assert!(
            indexed.evictions_issued > 0,
            "{policy}: stress case must force evictions"
        );
    }
}

#[test]
#[ignore = "10k-kernel replay; run with --release --ignored"]
fn indexed_replay_is_5x_faster_at_10k_kernels() {
    let workload = stress_workload(10_000);
    let kernels = workload.graph.num_kernels();
    assert!(kernels >= 9_500, "stress graph came up short: {kernels}");
    let config = constrained_config(&workload);

    for policy in [PolicyKind::BaseUvm, PolicyKind::DeepUmPlus] {
        // Equality first (also warms both code paths).
        let report = replay(&workload, policy, &config, VictimSelection::Indexed);
        let naive = replay(&workload, policy, &config, VictimSelection::NaiveScan);
        assert_eq!(report, naive, "{policy}: engine paths diverged");

        let timed = |selection| {
            min_of_3(|| {
                std::hint::black_box(replay(&workload, policy, &config, selection));
            })
        };
        let indexed_time = timed(VictimSelection::Indexed);
        let naive_time = timed(VictimSelection::NaiveScan);

        let speedup = naive_time.as_secs_f64() / indexed_time.as_secs_f64().max(1e-9);
        eprintln!(
            "replay at {} kernels under {} ({} evictions, {} faults): \
             naive {:.1} ms, indexed {:.1} ms, speedup {:.1}x",
            kernels,
            policy,
            report.evictions_issued,
            report.fault_count,
            naive_time.as_secs_f64() * 1e3,
            indexed_time.as_secs_f64() * 1e3,
            speedup
        );
        assert!(
            speedup >= 5.0,
            "expected >= 5x replay speedup at 10k kernels under {policy}, measured {speedup:.1}x"
        );
    }
}

#[test]
#[ignore = "timed 2k-kernel replay; run with --release --include-ignored"]
fn indexed_replay_speedup_at_2k() {
    let workload = stress_workload(2_000);
    let config = constrained_config(&workload);
    let policy = PolicyKind::BaseUvm;

    // Equality first (also warms both code paths).
    let indexed = replay(&workload, policy, &config, VictimSelection::Indexed);
    let naive = replay(&workload, policy, &config, VictimSelection::NaiveScan);
    assert_eq!(indexed, naive, "{policy}: engine paths diverged");

    let timed = |selection| {
        min_of_3(|| {
            std::hint::black_box(replay(&workload, policy, &config, selection));
        })
    };
    let indexed_time = timed(VictimSelection::Indexed);
    let naive_time = timed(VictimSelection::NaiveScan);

    let speedup = naive_time.as_secs_f64() / indexed_time.as_secs_f64().max(1e-9);
    eprintln!(
        "replay at {} kernels under {policy}: naive {:.1} ms, indexed {:.1} ms, speedup {:.1}x",
        workload.graph.num_kernels(),
        naive_time.as_secs_f64() * 1e3,
        indexed_time.as_secs_f64() * 1e3,
        speedup
    );
    // 0.4 x the 2.86x recorded at this size when the floor was set,
    // rounded up to two decimals.
    assert!(
        speedup >= 1.15,
        "expected >= 1.15x replay speedup at 2k kernels, measured {speedup:.2}x"
    );
}
