"""Benchmark of `crprime run <suite> --format json`, one fresh interpreter per run.

    python3 bench/run.py --workload moser|conformal|sphere|all --seed N \
        --seconds S --trace 0|1

bench/ sits at the root of a source checkout; crprime is imported from its
src/, so nothing needs installing.
A run repeats whole rounds until S seconds have passed, one crprime process
at a time.  Every report is checked (checks.py) and every repetition must
give the same report bytes.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0: end-to-end metrics, medians over the rounds.  A round is one
  full run plus SETUP_PROBES runs that stop where set-up ends.
--trace 1: per-layer metrics from runs with the wrappers of tracing.py
  (at least two, so that every count is seen to repeat), and one untraced
  run to measure the tracing overhead against.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from child import RECORD_PREFIX  # noqa: E402

WORKLOADS = ("moser", "conformal", "sphere", "all")
SETUP_PROBES = 2
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150

# Workloads whose work depends on thread timing.  `run all` runs the suites
# in a thread pool, and two of them sometimes both build the shared flat
# model (heisenberg.flat_model checks and fills its cache without a lock),
# so its counts may differ between traced runs; the least is reported.
RACY_WORKLOADS = ("all",)

# Raw samples and spans of each run.
OUT_DIR = os.path.join(ROOT, ".bench_out")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))

# Modules whose import time is reported: crprime's own (self time) and numpy
# (cumulative, with its submodules).
SETUP_MODULES = ("crprime", "crprime.gauss", "crprime.poly", "crprime.series", "crprime.expr",
                 "crprime.forms", "crprime.structure", "crprime.report", "crprime.moser",
                 "crprime.heisenberg", "crprime.sphere", "crprime.cli", "numpy")

_IMPORT_LINE = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \|\s*(\S+)\s*$")


class Run:
    """One finished child process and what was measured around it."""

    def __init__(self, returncode, stdout, stderr, wall_s, cpu_s, peak_rss_mb, spawned):
        self.returncode = returncode
        self.stdout = stdout
        self.stderr = stderr.decode(errors="replace")
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_rss_mb = peak_rss_mb
        self.record = None
        for line in self.stderr.splitlines():
            if line.startswith(RECORD_PREFIX):
                self.record = json.loads(line[len(RECORD_PREFIX):])
        end = (self.record or {}).get("setup_end")
        self.setup_s = None if end is None else end - spawned


def spawn(mode, workload, seed, python_flags=()) -> Run:
    """Run bench/child.py once; wall, CPU and peak RSS are taken from outside."""
    cmd = [sys.executable, *python_flags, os.path.join(HERE, "child.py"), mode, "--",
           "run", workload, "--format", "json", "--seed", str(seed)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        # wait4, not Popen.wait, so that the rusage is this child's alone
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - spawned
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return Run(proc.returncode, out, err[0], wall, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024, spawned)


def _completed(run) -> bool:
    """Did the child get through the CLI?  A crash, kill or missing record is a failed operation."""
    return run.returncode in (0, 1) and run.record is not None


class Tally:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.attempted = self.failed = 0
        self.problems = []
        self.outputs = []

    def add(self, run, what):
        self.attempted += 1
        if not _completed(run):
            self.failed += 1
            tail = run.stderr.strip().splitlines()[-1:] or ["no output"]
            print(f"{what}: failed with exit code {run.returncode}: {tail[0]}", file=sys.stderr)
            return False
        found = checks.check_report(run.stdout, run.returncode, self.workload, self.seed)
        self.problems += [f"{what}: {p}" for p in found]
        self.outputs.append(run.stdout)
        return True

    def add_probe(self, probe):
        self.attempted += 1
        if probe.returncode == 0 and probe.setup_s is not None:
            return True
        self.failed += 1
        print(f"set-up probe failed with exit code {probe.returncode}", file=sys.stderr)
        return False

    def finish(self):
        if self.outputs:
            self.problems += checks.check_same(self.outputs)
        for p in self.problems:
            print("check failed:", p, file=sys.stderr)
        return not self.problems


def untraced(workload, seed, seconds, tally) -> tuple:
    samples = {name: [] for name, _ in END_TO_END}
    deadline = time.monotonic() + seconds
    while True:
        run = spawn("plain", workload, seed)
        if tally.add(run, f"round {len(samples['wall_s'])}"):
            for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
                samples[name].append(getattr(run, name))
        for _ in range(SETUP_PROBES):
            probe = spawn("setup", workload, seed)
            if tally.add_probe(probe):
                samples["setup_s"].append(probe.setup_s)
        if time.monotonic() >= deadline:
            break
    metrics = {}
    for name, unit in END_TO_END:
        vals = samples[name]
        if not vals:
            continue
        metrics[name] = {"value": statistics.median(vals), "unit": unit}
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        print(f"{workload}: {name} median {metrics[name]['value']:.4f} {unit} "
              f"(q1 {q[0]:.4f}, q3 {q[2]:.4f}, n={len(vals)})")
    return metrics, samples


def import_times(stderr: str) -> dict:
    """setup.import_s.<module> from the -X importtime lines of one run."""
    out = {}
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(3) in SETUP_MODULES and m.group(3) not in out:
            us = int(m.group(2) if m.group(3) == "numpy" else m.group(1))
            out[m.group(3)] = us / 1e6
    return {f"setup.import_s.{mod}": out.get(mod, 0.0) for mod in SETUP_MODULES}


def layer_metrics(snap: dict, stderr: str) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    counts, incl, self_s, cpu = (snap[k] for k in ("counts", "incl", "self", "cpu"))
    out = {}
    gil = 0.0
    for suite in tracing.SUITES:
        span = "cli.suite." + suite
        out[f"cli.suite_s.{suite}"] = (incl.get(span, 0.0), "s")
        out[f"cli.suite_cpu_s.{suite}"] = (cpu.get(span, 0.0), "s")
        gil += incl.get(span, 0.0) - cpu.get(span, 0.0)
    out["cli.gil_wait_s"] = (gil, "s")
    out["report.emit_s"] = (incl.get("report.emit", 0.0), "s")
    spans = [n for n, _, _ in tracing.LAYER_SPANS if n != "report.emit"]
    for name in [*spans, *tracing.INNER_SPANS]:
        out[f"{name}.calls"] = (counts.get(name, 0), "count")
        out[f"{name}.s"] = (incl.get(name, 0.0), "s")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name, _, _ in tracing.COUNTERS:
        out[f"{name}.calls"] = (counts.get(name, 0), "count")
    for name in tracing.EXTRA_COUNTS:
        out[name] = (counts.get(name, 0), "count")
    tried = counts.get("poly.divide_exact", 0)
    out["poly.divide_exact.hit_share"] = (
        counts.get("poly.divide_exact.hits", 0) / tried if tried else 0.0, "ratio")
    for name, v in import_times(stderr).items():
        out[name] = (v, "s")
    return out


def traced(workload, seed, seconds, tally) -> tuple:
    deadline = time.monotonic() + seconds
    plain = spawn("plain", workload, seed)
    tally.add(plain, "untraced run")
    runs = []
    while len(runs) < MIN_TRACED or time.monotonic() < deadline:
        run = spawn("trace", workload, seed, python_flags=("-X", "importtime"))
        if not tally.add(run, f"traced run {len(runs)}"):
            break
        runs.append(run)
    raw = {"untraced_wall_s": plain.wall_s,
           "traced": [{"wall_s": r.wall_s, "spans": r.record["trace"]} for r in runs]}
    if not runs:
        return {}, raw
    per_run = [layer_metrics(r.record["trace"], r.stderr) for r in runs]
    metrics = {}
    for name, (_, unit) in per_run[0].items():
        vals = [m[name][0] for m in per_run]
        if unit in ("count", "ratio"):
            if len(set(vals)) > 1:
                msg = f"count {name} differs between traced runs: {vals}"
                if workload in RACY_WORKLOADS:
                    print("warning:", msg, file=sys.stderr)
                else:
                    tally.problems.append(msg)
            metrics[name] = {"value": min(vals), "unit": unit}
        else:
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
    traced_wall = statistics.median(r.wall_s for r in runs)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain.wall_s, "unit": "s"}
    print(f"{workload}: traced wall {traced_wall:.3f} s over {len(runs)} runs, "
          f"untraced {plain.wall_s:.3f} s")
    return metrics, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "crprime", "cli.py")):
        print(f"error: {ROOT} is not a crprime checkout (no src/crprime/cli.py)",
              file=sys.stderr)
        return 2
    problems = checks.selftest()
    for p in problems:
        print("check self-test failed:", p, file=sys.stderr)

    tally = Tally(args.workload, args.seed)
    measure = traced if args.trace else untraced
    metrics, raw = measure(args.workload, args.seed, args.seconds, tally)
    correct = tally.finish() and not problems
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump({"args": vars(args), "raw": raw, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
