"""psl2kit benchmark: three CLI workloads, end-to-end metrics, and a traced
per-layer run.

Usage (from the repository root):

    python3 benchmarks/run.py --workload classify-gens --seed 1 --seconds 40 --trace 0

Load model: one client in a closed loop.  Each pass runs the workload's
whole job list in a fresh interpreter (``passrun.py``), one job after the
other through ``psl2kit.cli.main([...])`` with ``--format json --out``.
A run is ``--seconds // PASS_SECONDS[workload]`` passes (at least one):
as many as fill ``--seconds`` on the reference machine.  The count does not
depend on how fast the code under test is, so every commit does the same
work per run and each job gets the same number of tries.  No threads; at
most one child process at a time.

``--trace 0`` reports the end-to-end metrics: job latencies as each job's
best over all its runs, set-up time as a median over fresh interpreters.
Jobs a workload marks with a repeat count (the short psl2-simplicity jobs)
run that many times in each of these passes.  ``--trace 1`` runs one
untraced and one traced pass of the same jobs, each job once, and reports
the per-layer metrics of the traced one, with the tracing overhead.
Every job's output is checked by its oracle; the last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Why each workload exists and the layer -> end-to-end map
are in RATIONALE.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 12  # fresh interpreters timing set-up alone, besides one per pass
# Seconds one pass takes on the reference machine (RATIONALE.md).
PASS_SECONDS = {"search-sweep": 7, "classify-gens": 13, "psl2-simplicity": 13}
HARD_LIMIT_S = 170.0  # a run ends within 180 s
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# Modules each workload must reach; the others it bypasses.
LAYERS_RUN = {
    "search-sweep": {"fields", "projline", "groups", "verify", "search", "cli"},
    "classify-gens": {"fields", "projline", "groups", "verify", "cli"},
    "psl2-simplicity": {"fields", "projline", "groups", "psl2", "verify", "cli"},
}


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.jobs = workloads.build_jobs(workload, seed)
        self.oracles = oracles.Oracles(ROOT, self.jobs)
        self.work = work
        self.deadline = deadline
        # Children compile bytecode into the run's own cache, so set-up time
        # does not depend on the caller's PYTHONDONTWRITEBYTECODE or on stale
        # __pycache__ directories.
        self.env = dict(os.environ, PYTHONPYCACHEPREFIX=str(work / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = 0
        self.failures: list[str] = []
        self.attempted = 0

    def _child(self, spec_path: str, cwd: Path) -> dict:
        result = cwd / "result.json"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next pass")
        cmd = [sys.executable, str(HERE / "passrun.py"), str(ROOT / "src"), spec_path, str(result)]
        with open(cwd / "child.log", "wb") as log:
            try:
                proc = subprocess.run(cmd, cwd=cwd, env=self.env, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=remaining)
            except subprocess.TimeoutExpired:
                raise BenchError("a pass did not finish within the run's time limit") from None
        if proc.returncode != 0:
            tail = (cwd / "child.log").read_text(errors="replace")[-2000:]
            raise BenchError(f"pass process exited with {proc.returncode}:\n{tail}")
        with open(result, encoding="ascii") as handle:
            return json.load(handle)

    def _dir(self) -> Path:
        self.count += 1
        path = self.work / f"{self.count:03d}"
        path.mkdir()
        return path

    def setup_probe(self) -> float:
        return self._child("-", self._dir())["setup_s"]

    def run_pass(self, trace: bool, repeat: bool = False) -> dict:
        cwd = self._dir()
        for job in self.jobs:
            for name, text in job["files"].items():
                (cwd / name).write_text(text, encoding="ascii")
        runs = schedule(self.jobs, repeat)
        spec = {
            "trace": trace,
            "spans": str(cwd / "spans.bin"),
            "jobs": [{"argv": self.jobs[k]["argv"], "out": out} for k, out in runs],
        }
        (cwd / "spec.json").write_text(json.dumps(spec), encoding="ascii")
        result = self._child(str(cwd / "spec.json"), cwd)
        samples = [[] for _ in self.jobs]
        for (k, out), code, error, latency in zip(runs, result["exit"], result["error"],
                                                 result["latency_s"]):
            job = self.jobs[k]
            self.attempted += 1
            problem = error or self.oracles.check(job, code, cwd / out)
            if problem:
                self.failures.append(f"{job['id']}: {problem}")
            samples[k].append(latency)
        result["samples"] = samples
        if trace:
            result["trace"] = tracing.load(spec["spans"])
        return result


def schedule(jobs: list[dict], repeat: bool) -> list[tuple[int, str]]:
    """(job index, report file) for each run of a pass, in order.

    Without ``repeat`` each job runs once.  With it, the pass runs the job
    list in rounds: round r runs, in the seeded order, the jobs whose repeat
    count exceeds r.  End-to-end passes repeat; the traced run's two passes
    do not, so that their counts and walls are those of one job list.
    """
    rounds = max(job["repeat"] for job in jobs) if repeat else 1
    return [(k, f"{job['id']}.r{r}.out.json") for r in range(rounds)
            for k, job in enumerate(jobs) if r < job["repeat"]]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def end_to_end(runner: Runner, workload: str, seconds: float) -> tuple[dict, dict, list[str]]:
    runner.setup_probe()  # compiles the bytecode cache; not counted
    count = max(1, int(seconds // PASS_SECONDS[workload]))
    # Probes go before, between and after the passes, so that their median
    # samples the same stretch of host speed as the passes do.
    per_gap = math.ceil(SETUP_PROBES / (count + 1))
    setups, passes = [], []
    for gap in range(count + 1):
        setups += [runner.setup_probe() for _ in range(per_gap)]
        if gap < count:
            passes.append(runner.run_pass(trace=False, repeat=True))
    setups += [p["setup_s"] for p in passes]
    # Each job at its fastest over all its runs: the host has slow phases (up
    # to 2x, lasting 1-20 s) that a median over passes still catches.
    best = [min(min(p["samples"][k]) for p in passes) for k in range(len(runner.jobs))]
    tries = sorted({len(passes) * job["repeat"] for job in runner.jobs})
    n = len(best)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(best),
        "job_p50_s": statistics.median(best),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    # Printed, not gated: on search-sweep and psl2-simplicity it is one
    # multi-second job, whose best moves with the host by more than 0.25
    # between runs (RATIONALE.md).
    info = {"job_p90_s": percentile(best, 0.90)}
    notes = [
        f"passes={len(passes)} jobs/pass={n}",
        f"setup_s: median of {len(setups)} fresh interpreters",
        f"job latency: each job's best of its {' or '.join(map(str, tries))} runs "
        f"over {len(passes)} passes; wall_s is their sum",
        f"job_p50_s (median), job_p90_s (nearest rank): over {n} jobs, "
        f"{n - math.ceil(0.9 * n)} above p90; job_p90_s and fail_ratio are printed only",
        "peak_rss_mb: median over passes of the pass process's ru_maxrss",
    ]
    return values, info, notes


def per_layer(runner: Runner, workload: str) -> tuple[dict, list[str]]:
    untraced = runner.run_pass(trace=False)
    traced = runner.run_pass(trace=True)
    values = tracing.layer_metrics(traced["trace"])
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = untraced["wall_s"]
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))["per_layer"]
    declared_names = {m["name"] for m in declared}
    listed = {name for name, _, _ in tracing.LAYER_METRICS}
    missing = (declared_names | listed) - set(values)
    unknown = set(values) - (declared_names & listed)
    if missing or unknown:
        raise BenchError(f"per-layer names out of step: missing {sorted(missing)}, "
                         f"not declared {sorted(unknown)}")
    seen = tracing.layers_seen(traced["trace"])
    absent = LAYERS_RUN[workload] - seen
    if absent:
        raise BenchError(f"layers {sorted(absent)} recorded nothing on {workload}")
    notes = [
        f"layers run: {', '.join(m for m in tracing.LAYERS if m in seen)}",
        f"layers bypassed: {', '.join(m for m in tracing.LAYERS if m not in seen) or 'none'}",
        "*_s layer metrics are self times; waiting time: none (one single-threaded "
        "process, no queues), so no wait metrics are reported",
        f"search.useful_ratio = search.groups_found / search.closures_full "
        f"= {values['search.groups_found']} / {values['search.closures_full']}",
        f"tracing overhead: {values['trace.overhead_s']:.3f} s "
        f"({values['trace.wall_s']:.3f} traced - {values['trace.untraced_wall_s']:.3f} untraced)",
    ]
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the pass child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "psl2kit" / "cli.py").is_file():
        print(f"benchmark: no psl2kit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / ".work"))
    try:
        runner = Runner(args.workload, args.seed, work, deadline)
        if args.trace:
            values, notes = per_layer(runner, args.workload)
            info = {}
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        else:
            values, info, notes = end_to_end(runner, args.workload, args.seconds)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:  # another run's directory is still there
            pass

    failed = len(runner.failures)
    print(f"# psl2kit benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g}")
    for note in notes:
        print(f"# {note}")
    for problem in runner.failures[:20]:
        print(f"# FAILED {problem}")
    width = max(map(len, values))
    for name, value in values.items():
        print(f"{name:<{width}}  {value:.6g} {units[name]}")
    for name, value in info.items():
        print(f"{name:<{width}}  {value:.6g} s (printed only; not in the result line)")
    print(f"{'fail_ratio':<{width}}  {failed / runner.attempted:.6g} ratio "
          f"({failed}/{runner.attempted} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
