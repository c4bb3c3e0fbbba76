"""Benchmark of the dicke-overlap CLI: end-to-end runs and a traced replay.

    python3 perfbench/run.py --workload zero_t --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Run from a source checkout; the package is imported from ``src/``.  Each run
generates the workload's commands from ``--seed`` (``workloads.py``) and:

1. repeats pass pairs until ``--seconds`` are used up: every command once
   with ``--threads 1`` and once at the CLI default parallelism, each in a
   fresh process, alternating which pass goes first;
2. times a fresh interpreter that imports ``dicke_overlap.cli`` and builds
   the first command's config (``setup_s``) ``SETUP_FIRST`` times at the
   start and once before every pass pair, so the samples spread over the
   run like the passes do;
3. checks every command run with ``gate.py`` (exit code, byte-identical
   serial and parallel CSVs, reference values or invariants);
4. with ``--trace 1``, also replays every command serially under
   ``traced_cli.py`` and derives the per-layer metrics from its spans.

The child environment drops OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS, so the commands run as a user's would with library
defaults, whatever the caller's shell sets.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (one
operation is one command run) and the ``end_to_end`` metrics of
BENCHMARK.json (``--trace 0``) or its ``per_layer`` metrics (``--trace
1``).  Host facts, raw samples and any failures go to
``perfbench/out/<workload>-seed<seed>/result.json``; the spans of the traced
replay go next to it.  ``failed_frac`` is printed with the other
end-to-end metrics; the JSON carries it as ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import host
from workloads import DEFAULT_SEED, WORKLOADS, commands

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_FIRST = 2
RUN_LIMIT_S = 170.0  # every process still running this long after the start is killed
CLI = "import sys; from dicke_overlap.cli import main; sys.exit(main())"
SETUP = "import sys; from dicke_overlap import cli; cli.build_config(None, sys.argv[1:])"

# per-layer metric -> span names whose durations it sums (ms)
SPAN_TOTALS = {
    "zerotemp.ground_state_ms": ("zerotemp.effective_ground_state",),
    "zerotemp.overlap_ms": ("zerotemp.overlap_zero_t",),
    "zerotemp.moments_ms": ("zerotemp.collective_moments_zero_t",),
    "zerotemp.purity_ms": ("zerotemp.reduced_atom_purity",),
    "separable.from_jz_ms": ("separable.from_jz",),
    "thermal.matched_a_ms": ("thermal.matched_a",),
    "thermal.overlap_ms": ("thermal.overlap_finite_t",),
    "thermal.moments_ms": ("thermal.thermal_moments",),
    "numerics.log_integral_ms": ("numerics.log_integral",),
    "core.critical_temperature_ms": ("core.critical_temperature",),
    "witness.evaluate_ms": ("witness.evaluate", "witness.evaluate_finite_n"),
    "oracle.ground_ms": ("oracle.exact_ground_state",),
    "oracle.thermal_ms": ("oracle.exact_thermal_state",),
    "oracle.split_ms": ("oracle.split_overlap",),
    "oracle.overlap_ms": ("oracle.exact_overlap",),
    "oracle.moments_ms": ("oracle.exact_moments",),
}


@dataclass
class Proc:
    """One finished child process: wall time, CPU of its tree, peak RSS, exit code."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def child_env():
    """The caller's environment without BLAS thread settings, importing from ``src/``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Starts children in fresh sessions and kills them past the run limit."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.kill_at = time.monotonic() + RUN_LIMIT_S
        self.env = child_env()

    def spawn(self, argv, log_name):
        remaining = self.kill_at - time.monotonic()
        if remaining <= 0:
            return Proc(0.0, 0.0, 0.0, -signal.SIGKILL)
        with open(self.out_dir / f"{log_name}.stderr", "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
            )
            timer = threading.Timer(remaining, os.killpg, (child.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        # wait4 accounts the child and every descendant it reaped (pool workers)
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    child.returncode)


def _quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, seconds):
        self.started = time.monotonic()
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.commands = commands(workload, seed)
        self.out_dir = BENCH_DIR / "out" / f"{workload}-seed{seed}"
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.runner = Runner(self.out_dir)
        self.references = {
            c.name: (BENCH_DIR / "reference" / workload / f"{c.name}.csv").read_text()
            for c in self.commands
        }
        self.attempted = 0
        self.failures = []
        self.samples = {"setup_s": [], "wall_s": [], "serial_wall_s": [], "cpu_s": [],
                        "peak_rss_mb": []}
        self.command_walls = {}
        self.serial_csv = {}

    def _fail(self, what, problems):
        self.failures.append({"run": what, "problems": problems[:20]})

    def _command_run(self, command, tag):
        csv_path = self.out_dir / f"{command.name}.{tag}.csv"
        argv = ["-c", CLI, *command.args, "--out", str(csv_path)]
        if tag == "serial":
            argv += ["--threads", "1"]
        csv_path.unlink(missing_ok=True)
        proc = self.runner.spawn(argv, f"{command.name}.{tag}")
        text = csv_path.read_text() if proc.code == 0 and csv_path.exists() else None
        return proc, text

    def _check(self, command, tag, proc, text, other_text):
        self.attempted += 1
        if proc.code != 0:
            problems = [f"exit code {proc.code}"]
        elif text is None:
            problems = ["no CSV written"]
        else:
            problems = gate.check_csv(text, self.references[command.name],
                                      compare_values=self.seed == DEFAULT_SEED)
            if other_text is not None and text != other_text:
                problems.append("CSV differs from the other thread setting's CSV")
        if problems:
            self._fail(f"{command.name} {tag}", problems)

    def setup_pass(self):
        sets = self.commands[0].sets()
        proc = self.runner.spawn(["-c", SETUP, *sets], "setup")
        if proc.code != 0:
            raise RuntimeError(f"importing dicke_overlap.cli failed (exit code {proc.code}), "
                               f"see {self.out_dir / 'setup.stderr'}")
        self.samples["setup_s"].append(proc.wall_s)

    def pass_pair(self, serial_first):
        order = ("serial", "parallel") if serial_first else ("parallel", "serial")
        procs, texts = {}, {}
        self.setup_pass()
        for tag in order:
            for c in self.commands:
                procs[c.name, tag], texts[c.name, tag] = self._command_run(c, tag)
        for c in self.commands:
            serial, parallel = texts[c.name, "serial"], texts[c.name, "parallel"]
            self._check(c, "serial", procs[c.name, "serial"], serial, parallel)
            self._check(c, "parallel", procs[c.name, "parallel"], parallel, serial)
            self.serial_csv[c.name] = serial
        for (name, tag), proc in procs.items():
            self.command_walls.setdefault(f"{name}.{tag}", []).append(proc.wall_s)
        parallel = [procs[c.name, "parallel"] for c in self.commands]
        self.samples["serial_wall_s"].append(sum(procs[c.name, "serial"].wall_s
                                                 for c in self.commands))
        self.samples["wall_s"].append(sum(p.wall_s for p in parallel))
        self.samples["cpu_s"].append(sum(p.cpu_s for p in parallel))
        self.samples["peak_rss_mb"].append(max(p.rss_mb for p in procs.values()))

    def measure(self, traced):
        """End-to-end metrics; with ``traced``, leaves time for the replay."""
        deadline = self.started + self.seconds
        for _ in range(SETUP_FIRST):
            self.setup_pass()
        pairs = 0
        while True:
            pair_start = time.monotonic()
            self.pass_pair(serial_first=pairs % 2 == 0)
            pairs += 1
            now = time.monotonic()
            replay = 1.5 * self.samples["serial_wall_s"][-1] if traced else 0.0
            if now + (now - pair_start) + replay > deadline:
                break
        return {name: statistics.median(values) for name, values in self.samples.items()}

    def trace(self, end_to_end):
        """Traced serial replay of every command; returns the per-layer metrics."""
        traces, traced_s = [], 0.0
        for c in self.commands:
            trace_path = self.out_dir / f"{c.name}.trace.json"
            csv_path = self.out_dir / f"{c.name}.traced.csv"
            proc = self.runner.spawn(
                [str(BENCH_DIR / "traced_cli.py"), str(trace_path), "--",
                 *c.args, "--out", str(csv_path)], f"{c.name}.traced")
            self.attempted += 1
            if proc.code != 0:
                self._fail(f"{c.name} traced", [f"exit code {proc.code}"])
                continue
            trace = json.loads(trace_path.read_text())
            problems = []
            if csv_path.read_text() != self.serial_csv.get(c.name):
                problems.append("traced CSV differs from the untraced --threads 1 CSV")
            if trace["oracle_cache_hits"]:
                problems.append(f"{trace['oracle_cache_hits']} oracle cache hits in spans")
            if problems:
                self._fail(f"{c.name} traced", problems)
            traces.append(trace)
            traced_s += proc.wall_s - trace["post_s"]
        return layer_metrics(traces, end_to_end, traced_s)


def layer_metrics(traces, end_to_end, traced_s):
    """Per-layer metrics from the traced replay's spans and counters."""
    totals = dict.fromkeys(SPAN_TOTALS, 0.0)
    rows, row_self, row_children, ground_calls = [], 0.0, 0.0, []
    layer_ms, row_detail = {}, []
    for trace in traces:
        spans = trace["spans"]
        durations = [(s["end_ns"] - s["start_ns"]) / 1e6 for s in spans]
        child_ms = [0.0] * len(spans)
        for span, ms in zip(spans, durations):
            if span["parent"] is not None:
                child_ms[span["parent"]] += ms
        for i, (span, ms) in enumerate(zip(spans, durations)):
            name = span["name"]
            for metric, names in SPAN_TOTALS.items():
                if name in names:
                    totals[metric] += ms
            if name == "zerotemp.effective_ground_state":
                ground_calls.append(ms)
            if name.startswith("cli._") and name.endswith("_row"):
                rows.append(ms)
                row_self += ms - child_ms[i]
                row_children += child_ms[i]
                row_detail.append({"point": span["point"], "worker": name, "ms": ms,
                                   "self_ms": ms - child_ms[i]})
            parent = span["parent"]
            if parent is not None and spans[parent]["name"].startswith("cli._"):
                layer = name.split(".", 1)[0]
                layer_ms[layer] = layer_ms.get(layer, 0.0) + ms
    solves = [s for t in traces for s in t["solves"]]
    evals = [e for t in traces for e in t["log_integral_evals"]]
    physical = [d for t in traces for d in t["physical_dims"]]
    metrics = {
        "cli.rows": len(rows),
        "cli.row_p50_ms": _quantile(rows, 0.5) if rows else 0.0,
        "cli.row_p90_ms": _quantile(rows, 0.9) if rows else 0.0,
        "cli.row_self_ms": row_self,
        "cli.attributed_frac": row_children / sum(rows) if rows else 0.0,
        "cli.parallel_speedup": end_to_end["serial_wall_s"] / end_to_end["wall_s"],
        "cli.serial_wall_s": end_to_end["serial_wall_s"],
        "cli.wall_s": end_to_end["wall_s"],
        "trace.overhead_s": traced_s - end_to_end["serial_wall_s"],
        **totals,
        "zerotemp.ground_state_p90_ms": _quantile(ground_calls, 0.9) if ground_calls else 0.0,
        "zerotemp.ground_state_calls": len(solves),
        "zerotemp.solved_dim": sum(dim for dim, _ in solves),
        "zerotemp.escalated_frac": (
            sum(1 for _, escalated in solves if escalated) / len(solves) if solves else 0.0
        ),
        "zerotemp.physical_dim_max": max(physical, default=0),
        "numerics.evals_per_integral": statistics.median(evals) if evals else 0,
        "oracle.dense_bytes": sum(8 * d * d for t in traces for d in t["dense_dims"]),
    }
    total_layer = sum(layer_ms.values())
    shares = {k: v / total_layer for k, v in sorted(layer_ms.items())} if total_layer else {}
    return metrics, {"layer_share": shares, "rows": row_detail}


def _print_table(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units.get(name, '')}")


def run_workload(workload, seed, seconds, trace, units):
    ticks = host.cpu_ticks()
    run = Run(workload, seed, seconds)
    facts = host.machine_facts(ROOT)
    lib = subprocess.run([sys.executable, str(BENCH_DIR / "host.py")], env=run.runner.env,
                         capture_output=True, text=True, check=False)
    facts.update(json.loads(lib.stdout) if lib.returncode == 0 else {"library_facts": None})
    end_to_end = run.measure(traced=trace)
    per_layer, detail = run.trace(end_to_end) if trace else ({}, {})
    shares = detail.get("layer_share", {})
    facts["steal_share"] = host.steal_share(ticks, host.cpu_ticks())
    end_to_end["failed_frac"] = len(run.failures) / run.attempted
    print(f"workload {workload} seed {seed}: {len(run.samples['wall_s'])} pass pairs, "
          f"{run.attempted} command runs, {len(run.failures)} failed")
    print("host " + json.dumps(facts, sort_keys=True))
    _print_table("end-to-end (medians over pass pairs)", end_to_end, units)
    if trace:
        _print_table("per-layer (traced serial replay)", per_layer, units)
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        print("layer share of row time: " + ", ".join(f"{k} {v:.1%}" for k, v in ranked))
    for failure in run.failures:
        print(f"FAILED {failure['run']}: {'; '.join(failure['problems'][:3])}")
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": facts, "commands": [list(c.args) for c in run.commands],
        "samples": run.samples, "command_walls": run.command_walls,
        "end_to_end": end_to_end, "per_layer": per_layer, **detail,
        "attempted": run.attempted, "failures": run.failures,
    }
    (run.out_dir / "result.json").write_text(json.dumps(result, indent=1))
    return run, end_to_end, per_layer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dicke_overlap" / "cli.py").is_file():
        print(f"error: no dicke_overlap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    groups = ["per_layer"] if args.trace else ["end_to_end"]
    if args.workload == "all" and args.trace:
        groups.insert(0, "end_to_end")
    names = [m["name"] for group in groups for m in spec[group]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_frac"] = "ratio"
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        run, end_to_end, per_layer = run_workload(workload, args.seed, seconds, args.trace, units)
        attempted += run.attempted
        failed += len(run.failures)
        values = {**end_to_end, **per_layer}
        prefix = f"{workload}." if args.workload == "all" else ""
        for name in names:
            metrics[prefix + name] = {"value": values[name], "unit": units[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
