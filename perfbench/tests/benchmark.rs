//! The benchmark's own checks: the cell generator, and the metric names
//! `BENCHMARK.json` declares.

use g10_bench::experiments::figure_set;
use g10_bench::json::Json;
use g10_core::scheduler::{G10Scheduler, SchedulerVariant};
use g10_sim::PolicyKind;
use perfbench::cells::{build_workloads, generate, is_g10, Mix, Workloads};
use perfbench::layers::{per_layer_names, FIGURES};
use std::collections::HashSet;
use std::sync::OnceLock;

fn workloads() -> &'static Workloads {
    static WORKLOADS: OnceLock<Workloads> = OnceLock::new();
    WORKLOADS.get_or_init(build_workloads)
}

#[test]
fn generator_is_deterministic_and_seeded() {
    for mix in [Mix::G10, Mix::Uvm] {
        let first = generate(mix, 7, workloads());
        assert_eq!(first, generate(mix, 7, workloads()));
        assert_ne!(first, generate(mix, 8, workloads()));
        let keys = workloads().len() * mix.policies().len() * mix.per_combo();
        assert_eq!(first.len(), keys);
    }
}

#[test]
fn cells_are_distinct() {
    for mix in [Mix::G10, Mix::Uvm] {
        for seed in [0, 1, 2] {
            let cells = generate(mix, seed, workloads());
            let keys: HashSet<_> = cells.iter().map(|c| c.key()).collect();
            assert_eq!(keys.len(), cells.len(), "{mix:?} seed {seed}");
        }
    }
}

#[test]
fn every_g10_cell_is_oversubscribed() {
    for cell in generate(Mix::G10, 1, workloads()) {
        assert!(is_g10(cell.policy));
        let variant = match cell.policy {
            PolicyKind::G10Gds => SchedulerVariant::Gds,
            PolicyKind::G10Host => SchedulerVariant::Host,
            _ => SchedulerVariant::Full,
        };
        let workload = &workloads()[&(cell.model, cell.batch)];
        let plan = G10Scheduler::new(cell.config, variant).plan(&workload.graph, &workload.trace);
        assert!(plan.eviction_count() >= 1, "{cell:?} plans no eviction");
    }
}

#[test]
fn uvm_mix_runs_no_g10_design() {
    let cells = generate(Mix::Uvm, 1, workloads());
    assert!(cells.iter().all(|cell| !is_g10(cell.policy)));
    let policies: HashSet<_> = cells.iter().map(|cell| cell.policy).collect();
    assert_eq!(policies.len(), 4);
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, list: &str) -> Vec<String> {
    spec.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn metric_names_are_valid_and_within_limits() {
    let spec = benchmark_json();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    let mut seen = HashSet::new();
    for name in end_to_end.iter().chain(&per_layer) {
        assert!(name.len() <= 64, "{name}");
        assert!(
            name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "{name}"
        );
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
            "{name}"
        );
        assert!(seen.insert(name.clone()), "{name} is listed twice");
    }
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    assert_eq!(per_layer, per_layer_names(), "the traced run emits these");
}

#[test]
fn figure_spans_cover_the_figure_set() {
    let drivers: Vec<&str> = figure_set().into_iter().map(|(name, _)| name).collect();
    assert_eq!(drivers, FIGURES);
}
