#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

BENCHMARK.json (at the repository root) lists the workloads and metrics;
perfbench/NOTES.md says what each one measures.  The script first builds
the `experiments` binary and the `perfbench` measuring binary from source
into $CARGO_TARGET_DIR (default `.bench_build`), then measures for about
--seconds seconds.  The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 it carries the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  The exit code is 0 only when
every output check passed.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

# A grid pass must finish in this many seconds or it counts as failed.
PASS_TIMEOUT_S = 60
# Set-up repetitions whose median is `setup_s`.
SETUP_REPS = {"grid": 25, "cells-uvm": 25}
# Fewest timed passes of a grid workload, however long they take.
MIN_GRID_PASSES = 3
SUMMARY = re.compile(
    r"simulation cells: (\d+) replayed, (\d+) memory hits, (\d+) disk hits"
)


class Failure(Exception):
    """The benchmark could not run at all (no result is printed)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def fnv1a(chunks):
    value = 0xCBF29CE484222325
    for chunk in chunks:
        for byte in chunk:
            value = ((value ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{value:#018x}"


def csv_fingerprint(out_dir):
    """FNV-1a over every CSV of a grid pass, in file-name order: each file
    contributes its name, a zero byte and its bytes."""
    files = sorted(out_dir.glob("*.csv"))
    chunks = []
    for path in files:
        chunks += [path.name.encode(), b"\0", path.read_bytes()]
    return len(files), fnv1a(chunks)


def run_process(cmd, log_path, timeout=PASS_TIMEOUT_S):
    """Runs `cmd` to completion; returns (exit code, wall seconds, peak RSS
    in MiB) with the RSS of that process alone."""
    with open(log_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def sim_metrics(fig11_csv):
    """Figure 11's row: the geomean over the five paper models of G10
    normalised to Ideal, and of G10 over the best prior design."""
    lines = fig11_csv.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    g10 = [float(r["G10"]) for r in rows]
    best = [max(float(r[k]) for k in ("Base UVM", "FlashNeuron", "DeepUM+")) for r in rows]
    return {
        "sim.g10_norm_perf": statistics.geometric_mean(g10),
        "sim.g10_speedup": statistics.geometric_mean([g / b for g, b in zip(g10, best)]),
    }


class Bench:
    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.expected = json.loads((BENCH / "expected.json").read_text())
        self.dir = WORK / f"{workload}-{os.getpid()}"
        self.errors = []
        self.counter = 0

    # -- building -------------------------------------------------------

    def build(self):
        if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
            raise Failure("the repository sources are not beside perfbench/")
        target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        target = target if target.is_absolute() else ROOT / target
        env = dict(os.environ, CARGO_TARGET_DIR=str(target))
        for cmd in (
            ["cargo", "build", "--release", "--offline", "-p", "g10-bench", "--bin", "experiments"],
            ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ):
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise Failure(f"build failed: {' '.join(cmd)}")
        self.experiments = str(target / "release" / "experiments")
        self.perfbench = str(target / "release" / "perfbench")

    def fresh(self, name):
        """A new, empty directory under this run's work directory."""
        self.counter += 1
        path = self.dir / f"{name}-{self.counter}"
        path.mkdir(parents=True)
        return path

    def fail(self, message):
        self.errors.append(message)
        log(f"check failed: {message}")

    # -- grid workloads -------------------------------------------------

    def grid_pass(self, cache_dir, expect, trace_to=None):
        """One `experiments all` pass in a fresh process (or, with
        `trace_to`, one traced pass of the perfbench binary).  Returns
        (ok, wall seconds, peak RSS MiB, out dir, lookups, traced result);
        a traced pass's wall leaves out what the process did after it."""
        out = self.fresh("out")
        log_path = out.parent / f"{out.name}.log"
        if trace_to is None:
            cmd = [self.experiments, "all", "--cache-dir", str(cache_dir), "--out", str(out)]
        else:
            result = self.dir / f"trace-{self.counter}.json"
            cmd = [self.perfbench, "trace-grid", "--cache-dir", str(cache_dir),
                   "--out", str(out), "--store", str(self.fresh("probe-store")),
                   "--result", str(result), "--spans", str(trace_to)]
        code, wall, rss = run_process(cmd, log_path)
        ok = code == 0
        if not ok:
            self.fail(f"grid pass exited with {code}; see {log_path}")
        traced = json.loads(result.read_text()) if ok and trace_to else None
        if traced is not None:
            wall -= traced["post_pass_s"]
            m = traced["metrics"]
            counts = [int(m["grid.cells_replayed"]), int(m["grid.memory_hits"]),
                      int(m["grid.disk_hits"])]
        else:
            match = SUMMARY.search(log_path.read_text(errors="replace"))
            counts = [int(g) for g in match.groups()] if match else None
        if ok and counts != expect:
            ok = False
            self.fail(f"grid cache counters {counts}, expected {expect}")
        grid = self.expected["grid"]
        files, fingerprint = csv_fingerprint(out)
        if ok and (files, fingerprint) != (grid["csvs"], grid["csv_fnv"]):
            ok = False
            self.fail(f"grid CSVs {files} files, fingerprint {fingerprint}; "
                      f"expected {grid['csvs']}, {grid['csv_fnv']}")
        return ok, wall, rss, out, sum(counts or [0]), traced

    def grid(self):
        expect = self.expected["grid"]["cold"]
        # `grid` starts from nothing; its set-up is building the five paper
        # workloads, timed inside `perfbench`.
        result = self.dir / "setup.json"
        code, _, _ = run_process(
            [self.perfbench, "grid-setup", "--setup-reps", str(SETUP_REPS[self.workload]),
             "--result", str(result)],
            self.dir / "setup.log")
        setup_failed = int(code != 0)
        if setup_failed:
            self.fail(f"perfbench grid-setup exited with {code}; see {self.dir / 'setup.log'}")
            setup_s = []
        else:
            setup_s = json.loads(result.read_text())["setup_s"]

        passes = []
        started = time.perf_counter()
        while len(passes) < MIN_GRID_PASSES or time.perf_counter() - started < self.seconds:
            cache = self.fresh("cache")
            ok, wall, rss, out, lookups, _ = self.grid_pass(cache, expect)
            passes.append((ok, wall, rss, lookups))
            if len(passes) == 1:
                fig11 = out / "fig11.csv"
                sims = sim_metrics(fig11) if fig11.is_file() else None
            else:
                shutil.rmtree(out)
            shutil.rmtree(cache)
        good = [p for p in passes if p[0]]
        failed = len(passes) - len(good) + setup_failed
        log(f"{self.workload}: {len(passes)} passes, {failed} failed")
        if not good or sims is None or not setup_s:
            return len(passes), failed, None
        per_cell_ms = [wall * 1e3 / lookups for _, wall, _, lookups in good]
        metrics = {
            "wall_s": statistics.median(p[1] for p in good),
            "cell_ms_p50": statistics.median(per_cell_ms),
            "cell_ms_p90": p90(per_cell_ms),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mib": statistics.median(p[2] for p in good),
            **sims,
        }
        return len(passes), failed, metrics

    def grid_traced(self):
        expect = self.expected["grid"]["cold"]
        spans = WORK / f"spans-{self.workload}.json"
        ok, untraced_wall, *_ = self.grid_pass(self.fresh("cache"), expect)
        failed = int(not ok)
        ok, traced_wall, _, _, _, traced = self.grid_pass(self.fresh("cache"), expect, trace_to=spans)
        if traced is None:
            return 2, failed + 1, None
        failed += traced["failed"] + (not ok)
        metrics = traced["metrics"]
        metrics["trace.overhead_pct"] = (traced_wall - untraced_wall) * 100.0 / untraced_wall
        return 1 + traced["attempted"], failed, metrics

    # -- cells workloads ------------------------------------------------

    def cells(self, mix):
        result = self.dir / "cells.json"
        code, _, rss = run_process(
            [self.perfbench, "cells", "--mix", mix, "--seed", str(self.seed),
             "--seconds", str(self.seconds), "--setup-reps", str(SETUP_REPS[self.workload]),
             "--result", str(result)],
            self.dir / "cells.log", timeout=self.seconds + 120)
        if code != 0:
            self.fail(f"perfbench cells exited with {code}; see {self.dir / 'cells.log'}")
            return 1, 1, None
        data = json.loads(result.read_text())
        for error in data["errors"]:
            self.fail(error)
        expected = self.expected["cells"][mix]
        if data["reference_fingerprint"] != expected:
            self.fail(f"{mix} reference cells fingerprint {data['reference_fingerprint']}, "
                      f"expected {expected}")
        samples, per_pass = data["cell_ms"], int(data["cells_per_pass"])
        passes = len(data["pass_wall_s"])
        # The simulator is deterministic: a cell's repeats differ only by
        # host noise, so each distinct cell contributes its best repeat, and
        # a pass is the sum of those.
        best = [min(samples[i::per_pass]) for i in range(per_pass)]
        log(f"{self.workload}: {per_pass} distinct cells x {passes} passes = "
            f"{len(samples)} samples; percentiles over the {per_pass} per-cell bests; "
            f"stream fingerprint {data['stream_fingerprint']}")
        out = self.fresh("fig11")
        code, _, _ = run_process(
            [self.experiments, "fig11", "--no-cache", "--out", str(out)], self.dir / "fig11.log")
        if code != 0:
            self.fail("experiments fig11 failed")
            return len(samples), int(data["failed"]) + 1, None
        metrics = {
            "wall_s": sum(best) / 1e3,
            "cell_ms_p50": statistics.median(best),
            "cell_ms_p90": p90(best),
            "setup_s": statistics.median(data["setup_s"]),
            "peak_rss_mib": rss,
            **sim_metrics(out / "fig11.csv"),
        }
        return len(samples), int(data["failed"]), metrics

    def cells_traced(self, mix):
        result = self.dir / "trace.json"
        spans = WORK / f"spans-{self.workload}.json"
        code, _, _ = run_process(
            [self.perfbench, "trace-cells", "--mix", mix, "--seed", str(self.seed),
             "--store", str(self.fresh("probe-store")), "--result", str(result),
             "--spans", str(spans)],
            self.dir / "trace.log", timeout=170)
        if code != 0:
            self.fail(f"perfbench trace-cells exited with {code}")
            return 1, 1, None
        data = json.loads(result.read_text())
        if data["failed"]:
            self.fail(f"{data['failed']} traced cells differ from Experiment::run")
        return int(data["attempted"]), int(data["failed"]), data["metrics"]

    # -- entry point ----------------------------------------------------

    def run(self, trace):
        self.dir.mkdir(parents=True, exist_ok=True)
        try:
            name = self.workload
            if name == "grid":
                outcome = self.grid_traced() if trace else self.grid()
            else:
                mix = name.split("-")[1]
                outcome = self.cells_traced(mix) if trace else self.cells(mix)
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
        attempted, failed, values = outcome
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        if values is None:
            values = {}
            self.fail("no metrics were measured")
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            self.fail(f"metrics not measured: {missing}")
        metrics = {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted
        }
        failed = max(failed, 1 if self.errors else 0)
        return {
            "correct": not self.errors,
            "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": metrics,
        }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        bench = Bench(args.workload, args.seed, args.seconds)
        names = [w["name"] for w in bench.spec["workloads"]]
        if args.workload not in names:
            raise Failure(f"unknown workload {args.workload}; expected one of {names}")
        bench.build()
        result = bench.run(args.trace == 1)
    except (Failure, OSError, KeyError, ValueError) as err:
        log(f"perfbench: {err}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
