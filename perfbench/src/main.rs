//! The benchmark's measuring process; `run.py` drives it.  Each subcommand
//! writes one JSON result file:
//!
//! ```text
//! perfbench cells --mix g10|uvm --seed N --seconds S --setup-reps R --result FILE
//! perfbench grid-setup --setup-reps R --result FILE
//! perfbench trace-cells --mix g10|uvm --seed N --store DIR --result FILE --spans FILE
//! perfbench trace-grid --cache-dir DIR --out DIR --store DIR --result FILE --spans FILE
//! ```

use g10_bench::experiments::{cached_run, figure_set, run_cache_stats, run_store, set_run_store};
use g10_bench::json::{obj, Json};
use g10_bench::output::write_csv;
use g10_bench::store::RunStore;
use g10_core::config::SystemConfig;
use g10_dnn::models::ModelKind;
use g10_sim::{Experiment, PolicyKind, ReportFingerprint, SimReport, Workload};
use perfbench::cells::{self, Cell, Mix};
use perfbench::layers::Trace;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Passes a cells run makes at the least, so every cell is checked for
/// run-to-run determinism.
const MIN_PASSES: usize = 2;

/// Cells of the seed-0 stream every cells run replays after timing and
/// compares against the fingerprint recorded in `expected.json`.
const REFERENCE_CELLS: usize = 12;

struct Args(HashMap<String, String>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut map = HashMap::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => {
                    map.insert(flag[2..].to_string(), value.clone());
                }
                _ => return Err(format!("expected `--flag value` pairs, got {pair:?}")),
            }
        }
        Ok(Args(map))
    }

    fn get(&self, flag: &str) -> Result<&str, String> {
        self.0
            .get(flag)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{flag}"))
    }

    fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        self.get(flag)?
            .parse()
            .map_err(|_| format!("--{flag} needs a number"))
    }

    fn mix(&self) -> Result<Mix, String> {
        let name = self.get("mix")?;
        Mix::parse(name).ok_or_else(|| format!("unknown --mix {name}"))
    }
}

fn hex(value: u64) -> Json {
    Json::Str(format!("{value:#018x}"))
}

fn nums(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::Num).collect())
}

/// What a correct report of `cell` must satisfy beyond determinism: it
/// ran the requested design without a fault, took no less than the ideal
/// time, and, for every design but Ideal, had to evict.
fn check(cell: &Cell, report: &SimReport) -> Result<(), String> {
    let evicts = cell.policy == PolicyKind::Ideal || report.evictions_issued > 0;
    if report.policy != cell.policy.label() || report.policy_fault.is_some() {
        Err(format!("{cell:?} ran as {}", report.policy))
    } else if report.total_time < report.ideal_time {
        Err(format!("{cell:?} finished before the ideal time"))
    } else if !evicts {
        Err(format!("{cell:?} is not oversubscribed"))
    } else {
        Ok(())
    }
}

fn run_cell(workload: &Workload, cell: &Cell) -> Result<SimReport, String> {
    Experiment::new(workload)
        .policy(cell.policy)
        .config(cell.config)
        .run()
        .map_err(|err| err.to_string())
}

/// The closed-loop single-cell workload: one client sends the seeded cell
/// stream through `Experiment::run`, one cell at a time, pass after pass,
/// until `--seconds` have elapsed.
fn cells_cmd(args: &Args) -> Result<Json, String> {
    let mix = args.mix()?;
    let seed: u64 = args.num("seed")?;
    let seconds: f64 = args.num("seconds")?;
    let setup_reps: usize = args.num("setup-reps")?;

    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..setup_reps.max(1) {
        drop(built.take());
        let started = Instant::now();
        let workloads = cells::build_workloads();
        let stream = cells::generate(mix, seed, &workloads);
        setup_s.push(started.elapsed().as_secs_f64());
        built = Some((workloads, stream));
    }
    let (workloads, stream) = built.expect("at least one set-up");

    let mut first_pass: Vec<Result<u64, String>> = Vec::new();
    let mut cell_ms = Vec::new();
    let mut pass_wall_s = Vec::new();
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let started = Instant::now();
    while pass_wall_s.len() < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        let pass_started = Instant::now();
        for (i, cell) in stream.iter().enumerate() {
            let workload = &workloads[&(cell.model, cell.batch)];
            let cell_started = Instant::now();
            let result = black_box(run_cell(workload, cell));
            cell_ms.push(cell_started.elapsed().as_secs_f64() * 1e3);
            let outcome = result.and_then(|report| {
                check(cell, &report)?;
                Ok(report.fingerprint())
            });
            let outcome = match first_pass.get(i) {
                None => {
                    first_pass.push(outcome.clone());
                    outcome
                }
                Some(Ok(first)) if outcome.as_ref().is_ok_and(|fp| fp != first) => {
                    Err(format!("{cell:?} is not deterministic"))
                }
                Some(_) => outcome,
            };
            if let Err(err) = outcome {
                failed += 1;
                if errors.len() < 5 {
                    errors.push(Json::Str(err));
                }
            }
        }
        pass_wall_s.push(pass_started.elapsed().as_secs_f64());
    }

    let mut stream_fp = ReportFingerprint::new();
    for fp in first_pass.iter().flatten() {
        stream_fp.push(*fp);
    }
    let mut reference_fp = ReportFingerprint::new();
    for cell in cells::generate(mix, 0, &workloads)
        .iter()
        .take(REFERENCE_CELLS)
    {
        match run_cell(&workloads[&(cell.model, cell.batch)], cell) {
            Ok(report) => reference_fp.push(report.fingerprint()),
            Err(err) => return Err(format!("reference cell {cell:?}: {err}")),
        }
    }
    Ok(obj(vec![
        ("setup_s", nums(setup_s)),
        ("pass_wall_s", nums(pass_wall_s)),
        ("cell_ms", nums(cell_ms)),
        ("cells_per_pass", Json::Num(stream.len() as f64)),
        ("failed", Json::Num(failed as f64)),
        ("errors", Json::Arr(errors)),
        ("stream_fingerprint", hex(stream_fp.finish())),
        ("reference_fingerprint", hex(reference_fp.finish())),
    ]))
}

/// The set-up of the `grid` workload, which starts from nothing: building
/// the five paper workloads `experiments table1` describes, timed in
/// process so that process start-up jitter stays out of it.
fn grid_setup_cmd(args: &Args) -> Result<Json, String> {
    let setup_reps: usize = args.num("setup-reps")?;
    let setup_s = (0..setup_reps.max(1)).map(|_| {
        let started = Instant::now();
        let workloads: Vec<Workload> = ModelKind::PAPER_MODELS
            .iter()
            .map(|&model| Workload::new(model, model.eval_batch()))
            .collect();
        let seconds = started.elapsed().as_secs_f64();
        drop(black_box(workloads));
        seconds
    });
    Ok(obj(vec![("setup_s", nums(setup_s))]))
}

fn metrics_json(trace: &Trace) -> Json {
    Json::Obj(
        trace
            .metrics()
            .into_iter()
            .map(|(name, value)| (name, Json::Num(value)))
            .collect(),
    )
}

/// One traced pass of the cell stream, composed layer by layer; each cell
/// is checked against `Experiment::run` on a workload built by
/// `Workload::new`.
fn trace_cells_cmd(args: &Args) -> Result<(Json, Trace), String> {
    let mix = args.mix()?;
    let seed: u64 = args.num("seed")?;
    let probe_store = RunStore::open(args.get("store")?).map_err(|e| e.to_string())?;
    let mut trace = Trace::default();
    let mut composed = HashMap::new();
    let mut reference = HashMap::new();
    for key @ (model, batch) in cells::workload_keys() {
        composed.insert(key, trace.workload(model, batch));
        reference.insert(key, Workload::new(model, batch));
    }
    let stream = cells::generate(mix, seed, &composed);
    for (id, cell) in stream.iter().enumerate() {
        let key = (cell.model, cell.batch);
        trace.cell(id, cell, &composed[&key], &probe_store, None, || {
            run_cell(&reference[&key], cell).ok()
        });
    }
    let result = obj(vec![
        ("metrics", metrics_json(&trace)),
        ("attempted", Json::Num(stream.len() as f64)),
        ("failed", Json::Num(trace.counters.mismatches as f64)),
    ]);
    Ok((result, trace))
}

/// One traced `experiments all` pass: a span around each `figure_set()`
/// driver and each CSV write, cache counters from `run_cache_stats()`.
/// After the pass, the Figure 11 cells are composed layer by layer and
/// checked against the pass's own reports.
fn trace_grid_cmd(args: &Args) -> Result<(Json, Trace), String> {
    let out = Path::new(args.get("out")?);
    let store = RunStore::open(args.get("cache-dir")?).map_err(|e| e.to_string())?;
    let probe_store = RunStore::open(args.get("store")?).map_err(|e| e.to_string())?;
    set_run_store(Some(store));
    let mut trace = Trace::default();
    let mut write_errors = Vec::new();

    let before = run_cache_stats();
    let started = Instant::now();
    for (name, driver) in figure_set() {
        trace.rec.span(format!("fig.{name}"), |rec| {
            let tables = driver();
            for (i, table) in tables.iter().enumerate() {
                let file = match tables.len() {
                    1 => name.to_string(),
                    _ => format!("{name}_{i}"),
                };
                black_box(table.render());
                if let Err(err) = rec.span("csv", |_| write_csv(table, out, &file)) {
                    write_errors.push(format!("{file}.csv: {err}"));
                }
            }
        });
    }
    let pass_ended = Instant::now();
    let pass_wall_s = (pass_ended - started).as_secs_f64();
    trace.counters.grid = run_cache_stats().since(&before);
    for entry in std::fs::read_dir(out).map_err(|e| e.to_string())? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        trace.counters.csv_bytes += meta.len();
    }

    let store = run_store().expect("installed above");
    let config = SystemConfig::table2();
    let mut policies = vec![PolicyKind::Ideal];
    policies.extend(PolicyKind::FIGURE11);
    let mut id = 0;
    for model in ModelKind::PAPER_MODELS {
        let batch = model.eval_batch();
        let workload = trace.workload(model, batch);
        for &policy in &policies {
            let cell = Cell {
                model,
                batch,
                policy,
                config,
            };
            trace.cell(id, &cell, &workload, &probe_store, Some(&store), || {
                Some((*cached_run(model, batch, policy, &config)).clone())
            });
            id += 1;
        }
    }
    if let Some(err) = write_errors.first() {
        return Err(err.clone());
    }
    let result = obj(vec![
        ("metrics", metrics_json(&trace)),
        ("pass_wall_s", Json::Num(pass_wall_s)),
        // What the process did after the pass, so the caller can compare
        // its wall time with an untraced pass's.
        ("post_pass_s", Json::Num(pass_ended.elapsed().as_secs_f64())),
        ("attempted", Json::Num(1.0 + id as f64)),
        ("failed", Json::Num(trace.counters.mismatches as f64)),
    ]);
    Ok((result, trace))
}

fn write(path: &str, json: &Json) -> Result<(), String> {
    std::fs::write(path, json.render()).map_err(|err| format!("{path}: {err}"))
}

fn run(argv: &[String]) -> Result<(), String> {
    let (command, rest) = argv.split_first().ok_or("no command given")?;
    let args = Args::parse(rest)?;
    let (result, trace) = match command.as_str() {
        "cells" => (cells_cmd(&args)?, None),
        "grid-setup" => (grid_setup_cmd(&args)?, None),
        "trace-cells" => trace_cells_cmd(&args).map(|(r, t)| (r, Some(t)))?,
        "trace-grid" => trace_grid_cmd(&args).map(|(r, t)| (r, Some(t)))?,
        other => return Err(format!("unknown command {other}")),
    };
    if let Some(trace) = trace {
        write(args.get("spans")?, &trace.rec.to_json())?;
    }
    write(args.get("result")?, &result)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
