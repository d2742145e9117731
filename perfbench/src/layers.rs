//! The traced run: cells composed from each layer's public calls, with a
//! span around every call, and the per-layer metrics derived from them.
//!
//! A traced cell mirrors `Experiment::execute_once`: the provider adjusts
//! the runtime options, builds the policy (`sim.policy_build`, where G10
//! designs plan), and the replay engine runs it (`sim.replay`).  For G10
//! cells the planner's stages are then timed on the same inputs as probes
//! (`core.vitality`, `core.plan`, `core.evict`, `core.prefetch`), and every
//! report goes through a store save and load (`store.save`,
//! `store.load`).  Each composed report must be fingerprint-identical to
//! the reference run of the same cell, which proves the spans time the
//! same program.

use crate::cells::{cost_model, is_g10, Cell};
use crate::spans::Recorder;
use g10_bench::experiments::RunCacheStats;
use g10_bench::store::{RunKey, RunStore};
use g10_core::config::SystemConfig;
use g10_core::eviction::{schedule_evictions, EvictionOptions};
use g10_core::prefetch::schedule_prefetches;
use g10_core::scheduler::{G10Scheduler, SchedulerVariant};
use g10_core::vitality::VitalityAnalysis;
use g10_dnn::index::GraphIndex;
use g10_dnn::models::{build_model, ModelKind};
use g10_dnn::trace::KernelTrace;
use g10_sim::{PolicyContext, PolicyKind, ReplayEngine, RuntimeOptions, SimReport, Workload};
use std::time::{Duration, Instant};

/// The `figure_set()` drivers, in presentation order.
pub const FIGURES: [&str; 15] = [
    "table1", "table2", "fig2", "fig3", "fig4", "fig11", "fig12", "fig13", "fig14", "lifetime",
    "fig15", "fig16", "fig17", "fig18", "fig19",
];

/// Per-layer metric names, in the order `BENCHMARK.json` lists them.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "dnn.build_model.ms",
        "dnn.profile.ms",
        "dnn.graph_index.ms",
        "dnn.kernels",
        "dnn.tensors",
        "core.vitality.ms",
        "core.vitality.periods",
        "core.evict.ms",
        "core.evict.calls",
        "core.evict.accepted",
        "core.evict.accept_ratio",
        "core.evict.planned_gb",
        "core.prefetch.ms",
        "core.prefetch.count",
        "core.plan.ms",
        "sim.policy_build.ms",
        "sim.replay.ms",
        "sim.replay.kernels",
        "sim.replay.us_per_kernel",
        "sim.evictions",
        "sim.prefetches",
        "sim.prefetch_drop_ratio",
        "sim.faults",
        "sim.stall_frac",
        "sim.traffic_gb",
        "store.save.ms",
        "store.load.ms",
        "store.entry_kib",
        "csv.ms",
        "csv.kib",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    names.extend(FIGURES.iter().map(|f| format!("fig.{f}.ms")));
    names.extend(
        [
            "grid.cells_replayed",
            "grid.memory_hits",
            "grid.disk_hits",
            "trace.cells",
            "trace.overhead_pct",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    names
}

/// The store key the grid's run cache files a canonical cell under.
fn store_key(cell: &Cell) -> RunKey {
    RunKey {
        model: cell.model.name().to_string(),
        batch: cell.batch,
        policy: cell.policy.label().to_string(),
        config: cell.config.cache_key(),
    }
}

fn variant(policy: PolicyKind) -> SchedulerVariant {
    match policy {
        PolicyKind::G10Gds => SchedulerVariant::Gds,
        PolicyKind::G10Host => SchedulerVariant::Host,
        _ => SchedulerVariant::Full,
    }
}

/// Counts gathered at the layer boundaries of a traced run.
#[derive(Debug, Default)]
pub struct Counters {
    pub kernels: u64,
    pub tensors: u64,
    pub periods: u64,
    pub evict_calls: u64,
    pub accepted: u64,
    pub planned_bytes: u64,
    pub prefetch_count: u64,
    pub replay_kernels: u64,
    pub evictions: u64,
    pub prefetches: u64,
    pub prefetches_dropped: u64,
    pub faults: u64,
    pub stall_ns: u128,
    pub sim_ns: u128,
    pub traffic_bytes: u64,
    pub store_entries: u64,
    pub store_bytes: u64,
    pub csv_bytes: u64,
    pub grid: RunCacheStats,
    pub cells: u64,
    /// Host time of the composed cells (policy build + replay) and of the
    /// reference runs of the same cells: the tracing overhead.
    pub composed: Duration,
    pub reference: Duration,
    /// Cells whose composed report differs from the reference, or whose
    /// store round trip changed the report.
    pub mismatches: u64,
}

/// The trace of one run: spans plus counters.
#[derive(Debug, Default)]
pub struct Trace {
    pub rec: Recorder,
    pub counters: Counters,
}

impl Trace {
    /// Builds a workload from the graph-layer calls `Workload::new` makes,
    /// and times a separate `GraphIndex` build on the result
    /// (`GraphBuilder::finish` already built one inside `build_model`).
    pub fn workload(&mut self, model: ModelKind, batch: u64) -> Workload {
        let graph = self
            .rec
            .span("dnn.build_model", |_| build_model(model, batch));
        let trace = self.rec.span("dnn.profile", |_| {
            KernelTrace::profile(&graph, &cost_model(model))
        });
        let index = self
            .rec
            .span("dnn.graph_index", |_| GraphIndex::build(&graph));
        self.counters.kernels += index.num_kernels() as u64;
        self.counters.tensors += index.num_tensors() as u64;
        Workload {
            model,
            batch,
            graph,
            trace,
        }
    }

    /// Runs one cell composed from layer calls, then its stage probes and
    /// store round trip, and checks it against `reference`: the program's
    /// own run of the same cell, `None` if that run failed.  The report is
    /// saved to `probe_store` and loaded back from `load_from` (the grid's
    /// own store, which already holds the cell) or else from `probe_store`.
    pub fn cell(
        &mut self,
        id: usize,
        cell: &Cell,
        workload: &Workload,
        probe_store: &RunStore,
        load_from: Option<&RunStore>,
        reference: impl FnOnce() -> Option<SimReport>,
    ) {
        self.rec.set_cell(Some(id));
        let started = Instant::now();
        let report = self.rec.span("cell", |rec| compose(rec, cell, workload));
        self.counters.composed += started.elapsed();
        if is_g10(cell.policy) {
            self.stage_probes(cell, workload);
        }
        let key = store_key(cell);
        let saved = self
            .rec
            .span("store.save", |_| probe_store.save(&key, &report))
            .is_ok();
        let store = load_from.unwrap_or(probe_store);
        let loaded = self.rec.span("store.load", |_| store.load(&key));
        if let Ok(meta) = std::fs::metadata(probe_store.entry_path(&key)) {
            self.counters.store_entries += 1;
            self.counters.store_bytes += meta.len();
        }
        self.rec.set_cell(None);

        let started = Instant::now();
        let expected = reference();
        self.counters.reference += started.elapsed();
        let fingerprint = expected.map(|r| r.fingerprint());
        let same = |r: &SimReport| Some(r.fingerprint()) == fingerprint;
        if !saved || !same(&report) || !loaded.as_ref().is_some_and(same) {
            self.counters.mismatches += 1;
        }
        self.count(&report);
    }

    fn count(&mut self, report: &SimReport) {
        let c = &mut self.counters;
        c.cells += 1;
        c.replay_kernels += report.kernel_slowdowns.len() as u64;
        c.evictions += report.evictions_issued;
        c.prefetches += report.prefetches_issued;
        c.prefetches_dropped += report.prefetches_dropped;
        c.faults += report.fault_count;
        c.stall_ns += u128::from(report.stall_time.as_nanos());
        c.sim_ns += u128::from(report.total_time.as_nanos());
        c.traffic_bytes += report.traffic.total();
    }

    /// The G10 planner's stages on the cell's own inputs.
    fn stage_probes(&mut self, cell: &Cell, workload: &Workload) {
        let (graph, trace, config) = (&workload.graph, &workload.trace, &cell.config);
        let variant = variant(cell.policy);
        let analysis = self
            .rec
            .span("core.vitality", |_| VitalityAnalysis::analyze(graph, trace));
        self.rec.span("core.plan", |_| {
            G10Scheduler::new(*config, variant).plan_with_analysis(graph, trace, &analysis)
        });
        let options = EvictionOptions {
            allow_ssd: true,
            allow_host: variant.allows_host(),
        };
        let mut schedule = self.rec.span("core.evict", |_| {
            schedule_evictions(&analysis, trace, config, options)
        });
        let prefetches = self.rec.span("core.prefetch", |_| {
            schedule_prefetches(
                &analysis,
                trace,
                config,
                &schedule.decisions,
                &mut schedule.pressure,
            )
        });
        let c = &mut self.counters;
        c.periods += analysis.periods().len() as u64;
        c.evict_calls += 1;
        c.accepted += schedule.decisions.len() as u64;
        c.planned_bytes += schedule.decisions.iter().map(|d| d.bytes).sum::<u64>();
        c.prefetch_count += prefetches.len() as u64;
    }

    /// Every per-layer metric; `trace.overhead_pct` compares the composed
    /// cells with their reference runs (the grid fills it in from its own
    /// traced and untraced passes instead).
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let own = self.rec.self_ms();
        let ms = |name: &str| own.get(name).copied().unwrap_or(0.0);
        let c = &self.counters;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut values = vec![
            ms("dnn.build_model"),
            ms("dnn.profile"),
            ms("dnn.graph_index"),
            c.kernels as f64,
            c.tensors as f64,
            ms("core.vitality"),
            c.periods as f64,
            ms("core.evict"),
            c.evict_calls as f64,
            c.accepted as f64,
            ratio(c.accepted as f64, c.periods as f64),
            c.planned_bytes as f64 / 1e9,
            ms("core.prefetch"),
            c.prefetch_count as f64,
            ms("core.plan"),
            ms("sim.policy_build"),
            ms("sim.replay"),
            c.replay_kernels as f64,
            ratio(ms("sim.replay") * 1e3, c.replay_kernels as f64),
            c.evictions as f64,
            c.prefetches as f64,
            ratio(c.prefetches_dropped as f64, c.prefetches as f64),
            c.faults as f64,
            ratio(c.stall_ns as f64, c.sim_ns as f64),
            c.traffic_bytes as f64 / 1e9,
            ms("store.save"),
            ms("store.load"),
            ratio(c.store_bytes as f64 / 1024.0, c.store_entries as f64),
            ms("csv"),
            c.csv_bytes as f64 / 1024.0,
        ];
        values.extend(FIGURES.iter().map(|f| ms(&format!("fig.{f}"))));
        values.extend([
            c.grid.replayed as f64,
            c.grid.memory_hits as f64,
            c.grid.disk_hits as f64,
            c.cells as f64,
            ratio(
                (c.composed.as_secs_f64() - c.reference.as_secs_f64()) * 100.0,
                c.reference.as_secs_f64(),
            ),
        ]);
        per_layer_names().into_iter().zip(values).collect()
    }
}

/// The cell as `Experiment::execute_once` runs it, one span per layer
/// call.
fn compose(rec: &mut Recorder, cell: &Cell, workload: &Workload) -> SimReport {
    let provider = cell.policy.provider();
    let mut options = RuntimeOptions::default();
    provider.adjust_options(&mut options);
    let config: SystemConfig = cell.config;
    let ctx = PolicyContext {
        workload,
        config: &config,
        planning_trace: &workload.trace,
    };
    let policy = rec.span("sim.policy_build", |_| provider.build(&ctx));
    rec.span("sim.replay", |_| {
        ReplayEngine::new(&workload.graph, &workload.trace, &config, policy, options).run()
    })
}
