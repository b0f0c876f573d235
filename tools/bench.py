"""Benchmark rows of psl2kit, written to one JSON file.

    python3 tools/bench.py --out BENCH_1.json

Each row is a median and interquartile range (IQR) over repeats:

- ``certify_simplicity(q).reverify()`` in-process, q = 13 to 4096, with
  the field built once before the repeats;
- ``Mat2.mul`` and ``Field.add``, ``Field.mul``, ``Field.neg`` per call,
  timed over a fixed list of seeded operands;
- one whole process of ``psl2 --q 1024 --check simplicity``: wall time,
  the child's own ``ru_maxrss`` and the report's bytes;
- the three ``benchmarks/run.py`` workloads, each run as a subprocess with
  ``--trace 0`` on seeds 1..WORKLOAD_RUNS, summarised per metric.

The file also records the host, the Python version and the commit
(``git rev-parse HEAD``, and whether the tree had local changes).  Only
the standard library and the package's public names are used, and nothing
is imported from ``benchmarks/``, so a copy of this file placed in an
older checkout's ``tools/`` measures that checkout.  Compare two files
only when they were written back to back on one host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from psl2kit.fields import field_of_order  # noqa: E402
from psl2kit.psl2 import Mat2, certify_simplicity  # noqa: E402

CERTIFICATE_ORDERS = (13, 256, 1024, 2187, 4096)
CERTIFICATE_REPEATS = 10
OP_REPEATS = 100
OPERANDS = 2000  # calls per repeat of a per-call row
WORKLOADS = ("search-sweep", "classify-gens", "psl2-simplicity")
WORKLOAD_RUNS = 10


def summary(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(samples)}


def certificate_rows() -> list[dict]:
    rows = []
    for q in CERTIFICATE_ORDERS:
        field_of_order(q)
        samples = []
        for _ in range(CERTIFICATE_REPEATS):
            start = time.perf_counter()
            ok = certify_simplicity(q).reverify()
            samples.append(time.perf_counter() - start)
            if not ok:
                raise SystemExit(f"bench: the certificate at q = {q} did not reverify")
        rows.append({"row": f"certify_simplicity({q}).reverify()", "unit": "s",
                     **summary(samples)})
    return rows


def op_rows() -> list[dict]:
    """Seconds per call of each operation over a fixed operand list.  The
    repeats go round all the rows in turn, so a slow stretch of the host
    falls on every row alike."""
    rng = random.Random(0)
    cases = []
    for q in (13, 8, 9):
        f = field_of_order(q)
        pairs = [
            (Mat2(f, *(rng.randrange(q) for _ in range(4))),
             Mat2(f, *(rng.randrange(q) for _ in range(4))))
            for _ in range(OPERANDS)
        ]
        cases.append((f"Mat2.mul GF({q})", Mat2.mul, pairs))
    for q in (13, 9, 2187):
        f = field_of_order(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(OPERANDS)]
        cases += [(f"Field.add GF({q})", f.add, pairs), (f"Field.mul GF({q})", f.mul, pairs),
                  (f"Field.neg GF({q})", f.neg, [(x,) for x, _ in pairs])]
    samples = {row: [] for row, _, _ in cases}
    for _ in range(OP_REPEATS):
        for row, call, operands in cases:
            start = time.perf_counter()
            for args in operands:
                call(*args)
            samples[row].append((time.perf_counter() - start) / len(operands))
    return [{"row": row, "unit": "s/call", **summary(samples[row])} for row, _, _ in cases]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def process_row(argv: list[str]) -> dict:
    """One whole process: wall time, its own peak RSS and its stdout bytes."""
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "psl2kit", *argv], cwd=ROOT,
                                 env=_env(), stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        size = out.seek(0, os.SEEK_END)
    return {"row": "psl2kit " + " ".join(argv), "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024, "report_bytes": size,
            "exit_code": child.returncode}


def workload_rows() -> list[dict]:
    rows = []
    for workload in WORKLOADS:
        metrics: dict[str, list[float]] = {}
        failed = 0
        for seed in range(1, WORKLOAD_RUNS + 1):
            done = subprocess.run(
                [sys.executable, "benchmarks/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", "40", "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
        for name, samples in metrics.items():
            rows.append({"row": f"{workload} {name}", **summary(samples)})
        rows.append({"row": f"{workload} failed_jobs", "total": failed})
    return rows


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "system": platform.platform(),
            "python": platform.python_implementation() + " " + platform.python_version()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    status = _git("status", "--porcelain")
    record = {
        "host": host(),
        "commit": _git("rev-parse", "HEAD"),
        "local_changes": None if status is None else bool(status),
        "certificate": certificate_rows(),
        "operations": op_rows(),
        "processes": [process_row(["psl2", "--q", "1024", "--check", "simplicity"])],
        "workloads": workload_rows(),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
