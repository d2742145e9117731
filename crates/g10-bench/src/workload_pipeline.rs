//! The workload build + analysis pipeline, in naive and indexed form.
//!
//! This module backs `bench_workload` and the `workload_scaling` test: it
//! reproduces everything one seven-policy experiment cell derives from the
//! dataflow graph *before any replay starts*, twice —
//!
//! * **naive** — the pre-index pipeline: every consumer re-derives the
//!   tensor→use-site adjacency with the retained reference
//!   ([`DnnGraph::tensor_use_sites`]: a fresh `HashSet` per kernel, a `Vec`
//!   per tensor) and deduplicates working sets with per-kernel `HashSet`s.
//!   That is one adjacency pass for the Figure-2 memory curves, one for the
//!   Figure-3/4 inactive periods, one per vitality analysis (the three G10
//!   scheduler variants plus FlashNeuron each analyze per cell), one per
//!   replay-engine construction (seven policies), plus the max-working-set
//!   scan — roughly eleven O(E) passes per cell.
//! * **indexed** — the current pipeline: the graph's shared
//!   [`g10_dnn::index::GraphIndex`] (built once at
//!   `GraphBuilder::finish`) feeds [`g10_dnn::stats`],
//!   [`g10_core::vitality::VitalityAnalysis`] and the engines' working-set
//!   arenas, so the same cell does no adjacency re-derivation at all.
//!
//! Both sides fold the analysis results into one FNV-1a fingerprint so
//! callers can assert the two families compute the same facts before
//! comparing wall time.  Both sides share the same (already optimised)
//! graph builder; since `finish` warms the index, the naive side inherits
//! ~2 % of build time for an index it never reads — noted here, and small
//! enough not to matter against the ≥5× assertions.

use g10_core::config::SystemConfig;
use g10_core::vitality::VitalityAnalysis;
use g10_dnn::graph::{DnnGraph, KernelId};
use g10_dnn::models::stress::StressGptConfig;
use g10_dnn::models::ModelKind;
use g10_dnn::trace::KernelTrace;
use g10_sim::{ReportFingerprint, Workload};
use std::collections::HashSet;

/// Number of vitality analyses one experiment cell performs (G10-GDS,
/// G10-Host, G10-Full and FlashNeuron each analyze the graph they plan on).
pub const VITALITY_PASSES_PER_CELL: usize = 4;

/// Number of replay engines one Figure-11 experiment cell constructs (the
/// Ideal run plus the six compared designs).
pub const ENGINE_PASSES_PER_CELL: usize = 7;

/// One workload cell to build and analyze.
pub struct WorkloadCase {
    /// Display label (`stress_10000`, `BERT_256`, …).
    pub label: String,
    kind: CaseKind,
}

enum CaseKind {
    Stress { target_kernels: usize },
    Model { model: ModelKind, batch: u64 },
}

impl WorkloadCase {
    /// The synthetic deep-GPT stress workload sized to ~`target_kernels`.
    pub fn stress(target_kernels: usize) -> Self {
        WorkloadCase {
            label: format!("stress_{target_kernels}"),
            kind: CaseKind::Stress { target_kernels },
        }
    }

    /// A paper model at the given batch size.
    pub fn model(model: ModelKind, batch: u64) -> Self {
        WorkloadCase {
            label: format!("{}_{batch}", model.name()),
            kind: CaseKind::Model { model, batch },
        }
    }
}

/// Builds the case's graph and profiled trace — the "build" half of the
/// pipeline (this includes the one-time `GraphIndex` construction that
/// `GraphBuilder::finish` performs).
pub fn build_workload(case: &WorkloadCase) -> (DnnGraph, KernelTrace) {
    let workload = match case.kind {
        CaseKind::Stress { target_kernels } => {
            Workload::stress(2, &StressGptConfig::with_target_kernels(target_kernels))
        }
        CaseKind::Model { model, batch } => Workload::new(model, batch),
    };
    (workload.graph, workload.trace)
}

/// The facts every analysis pass contributes to the fingerprint, expressed
/// identically by both derivation families.
struct AnalysisFacts {
    peak_active: u64,
    peak_live: u64,
    period_count: u64,
    period_total_ns: u64,
    lifetime_count: u64,
    engine_arena_len: u64,
    engine_last_use_sum: u64,
    max_working_set: u64,
    working_set_exceeds_gpu: bool,
}

impl AnalysisFacts {
    fn fingerprint(&self, vitality_peaks: &[u64]) -> u64 {
        let mut fp = ReportFingerprint::new();
        fp.push(self.peak_active);
        fp.push(self.peak_live);
        fp.push(self.period_count);
        fp.push(self.period_total_ns);
        fp.push(self.lifetime_count);
        fp.push(self.engine_arena_len);
        fp.push(self.engine_last_use_sum);
        fp.push(self.max_working_set);
        fp.push(self.working_set_exceeds_gpu as u64);
        for &peak in vitality_peaks {
            fp.push(peak);
        }
        fp.finish()
    }
}

/// The indexed pipeline: everything reads the graph's shared `GraphIndex`
/// through the real public entry points.
pub fn indexed_analysis_fingerprint(graph: &DnnGraph, trace: &KernelTrace) -> u64 {
    let gpu_capacity = SystemConfig::table2().gpu_memory_bytes;

    // Figures 2-4: characterisation queries.
    let mc = g10_dnn::stats::memory_consumption(graph);
    let periods = g10_dnn::stats::inactive_periods(graph, trace);

    // One vitality analysis per planning policy.
    let mut vitality_peaks = Vec::with_capacity(VITALITY_PASSES_PER_CELL);
    let mut lifetime_count = 0u64;
    for _ in 0..VITALITY_PASSES_PER_CELL {
        let analysis = VitalityAnalysis::analyze(graph, trace);
        lifetime_count = analysis.lifetimes().len() as u64;
        vitality_peaks.push(analysis.peak_live_bytes());
    }

    // Per-engine preparation: lifetimes and the working-set arena, straight
    // from the index.
    let index = graph.index();
    let mut engine_arena_len = 0u64;
    let mut engine_last_use_sum = 0u64;
    let mut working_set_exceeds_gpu = false;
    for _ in 0..ENGINE_PASSES_PER_CELL {
        let (flat, _offsets) = index.working_sets();
        engine_arena_len = flat.len() as u64;
        let mut last_use_sum = 0u64;
        for info in graph.tensors() {
            if let Some(last) = index.last_use(info.id()) {
                last_use_sum += last.index() as u64;
            }
        }
        engine_last_use_sum = last_use_sum;
        working_set_exceeds_gpu = index.max_kernel_working_set_bytes() > gpu_capacity;
    }

    AnalysisFacts {
        peak_active: mc.peak_active_bytes(),
        peak_live: mc.peak_live_bytes(),
        period_count: periods.len() as u64,
        period_total_ns: periods.iter().map(|p| p.length.as_nanos()).sum(),
        lifetime_count,
        engine_arena_len,
        engine_last_use_sum,
        max_working_set: graph.max_kernel_working_set_bytes(),
        working_set_exceeds_gpu,
    }
    .fingerprint(&vitality_peaks)
}

/// The naive liveness sweep shared by the pre-index consumers.
fn naive_live_bytes(graph: &DnnGraph, uses: &[Vec<KernelId>]) -> Vec<u64> {
    let n_kernels = graph.num_kernels();
    let mut delta = vec![0i64; n_kernels + 1];
    for tensor in graph.tensors() {
        let sites = &uses[tensor.id().index()];
        if sites.is_empty() {
            continue;
        }
        let (birth, death) = if tensor.is_global() {
            (0usize, n_kernels - 1)
        } else {
            (sites[0].index(), sites[sites.len() - 1].index())
        };
        delta[birth] += tensor.bytes() as i64;
        delta[death + 1] -= tensor.bytes() as i64;
    }
    let mut live = Vec::with_capacity(n_kernels);
    let mut running = 0i64;
    for d in delta.iter().take(n_kernels) {
        running += d;
        live.push(running.max(0) as u64);
    }
    live
}

/// Counts a tensor's inactive periods and their total length under the
/// given trace — the shape both the stats module and the vitality analyzer
/// derive per tensor.
fn naive_periods(graph: &DnnGraph, trace: &KernelTrace, uses: &[Vec<KernelId>]) -> (u64, u64) {
    let total = trace.total_duration();
    let mut count = 0u64;
    let mut length_ns = 0u64;
    for tensor in graph.tensors() {
        let sites = &uses[tensor.id().index()];
        if sites.is_empty() {
            continue;
        }
        for window in sites.windows(2) {
            let (prev, next) = (window[0], window[1]);
            if next.index() <= prev.index() + 1 {
                continue;
            }
            let start = trace.end_time(prev);
            let end = trace.start_time(next);
            if end <= start {
                continue;
            }
            count += 1;
            length_ns += (end - start).as_nanos();
        }
        if tensor.is_global() {
            let last = sites[sites.len() - 1];
            let first = sites[0];
            let start = trace.end_time(last);
            let end = total + trace.start_time(first);
            if end > start {
                count += 1;
                length_ns += (end - start).as_nanos();
            }
        }
    }
    (count, length_ns)
}

/// The naive pipeline: every consumer re-derives the adjacency with the
/// retained `tensor_use_sites` reference, exactly as the pre-index
/// consumers did.
pub fn naive_analysis_fingerprint(graph: &DnnGraph, trace: &KernelTrace) -> u64 {
    let gpu_capacity = SystemConfig::table2().gpu_memory_bytes;
    let n_kernels = graph.num_kernels();

    // Figure 2 (memory_consumption): one adjacency pass + the sweeps.
    let (peak_active, peak_live) = {
        let uses = graph.tensor_use_sites();
        let mut active = vec![0u64; n_kernels];
        for tensor in graph.tensors() {
            for site in &uses[tensor.id().index()] {
                active[site.index()] += tensor.bytes();
            }
        }
        let live = naive_live_bytes(graph, &uses);
        (
            active.iter().copied().max().unwrap_or(0),
            live.iter().copied().max().unwrap_or(0),
        )
    };

    // Figures 3-4 (inactive_periods): another adjacency pass.
    let (period_count, period_total_ns) = {
        let uses = graph.tensor_use_sites();
        naive_periods(graph, trace, &uses)
    };

    // One vitality analysis per planning policy: adjacency + lifetimes +
    // periods + liveness, per pass.
    let mut vitality_peaks = Vec::with_capacity(VITALITY_PASSES_PER_CELL);
    let mut lifetime_count = 0u64;
    for _ in 0..VITALITY_PASSES_PER_CELL {
        let uses = graph.tensor_use_sites();
        let mut lifetimes = 0u64;
        let mut uses_clones: Vec<Vec<KernelId>> = Vec::with_capacity(graph.num_tensors());
        for tensor in graph.tensors() {
            let sites = &uses[tensor.id().index()];
            if sites.is_empty() {
                continue;
            }
            lifetimes += 1;
            uses_clones.push(sites.clone());
        }
        let _ = naive_periods(graph, trace, &uses);
        let live = naive_live_bytes(graph, &uses);
        lifetime_count = lifetimes;
        vitality_peaks.push(live.iter().copied().max().unwrap_or(0));
        std::hint::black_box(uses_clones);
    }

    // Per-engine preparation: adjacency for last-use lookups plus the
    // epoch-flattened working-set arena and the capacity check.
    let mut engine_arena_len = 0u64;
    let mut engine_last_use_sum = 0u64;
    let mut working_set_exceeds_gpu = false;
    for _ in 0..ENGINE_PASSES_PER_CELL {
        let uses = graph.tensor_use_sites();
        let mut last_use_sum = 0u64;
        for tensor in graph.tensors() {
            if let Some(last) = uses[tensor.id().index()].last() {
                last_use_sum += last.index() as u64;
            }
        }
        engine_last_use_sum = last_use_sum;

        let mut flat = Vec::new();
        let mut offsets = Vec::with_capacity(n_kernels + 1);
        offsets.push(0);
        let mut seen_epoch = vec![u32::MAX; graph.num_tensors()];
        for (k, kernel) in graph.kernels().iter().enumerate() {
            for t in kernel.tensors() {
                let stamp = &mut seen_epoch[t.index()];
                if *stamp != k as u32 {
                    *stamp = k as u32;
                    flat.push(t);
                }
            }
            offsets.push(flat.len());
        }
        engine_arena_len = flat.len() as u64;
        working_set_exceeds_gpu = offsets.windows(2).any(|w| {
            let ws: u64 = flat[w[0]..w[1]]
                .iter()
                .map(|&t| graph.tensor(t).bytes())
                .sum();
            ws > gpu_capacity
        });
    }

    // The max-working-set scan: a per-kernel `HashSet`, as
    // `DnnGraph::max_kernel_working_set_bytes` did before the index.
    let mut max_working_set = 0u64;
    for kernel in graph.kernels() {
        let mut seen = HashSet::new();
        let mut bytes = 0u64;
        for t in kernel.tensors() {
            if seen.insert(t) {
                bytes += graph.tensor(t).bytes();
            }
        }
        max_working_set = max_working_set.max(bytes);
    }

    AnalysisFacts {
        peak_active,
        peak_live,
        period_count,
        period_total_ns,
        lifetime_count,
        engine_arena_len,
        engine_last_use_sum,
        max_working_set,
        working_set_exceeds_gpu,
    }
    .fingerprint(&vitality_peaks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_and_indexed_pipelines_agree_on_a_small_cell() {
        let (graph, trace) = build_workload(&WorkloadCase::model(ModelKind::TinyCnn, 8));
        assert_eq!(
            indexed_analysis_fingerprint(&graph, &trace),
            naive_analysis_fingerprint(&graph, &trace)
        );
    }

    #[test]
    fn stress_case_builds_near_its_target() {
        let case = WorkloadCase::stress(700);
        let (graph, trace) = build_workload(&case);
        assert!(graph.num_kernels() >= 600 && graph.num_kernels() <= 760);
        assert_eq!(trace.len(), graph.num_kernels());
        assert_eq!(case.label, "stress_700");
    }
}
