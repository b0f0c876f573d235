"""Self-tests of the benchmark's own code: seeded inputs, the group orders
the classify-gens generator claims, the output oracles, and the self-time
arithmetic of the tracer.

Run: python3 benchmarks/selftest.py   (or: python -m pytest benchmarks/selftest.py)
"""

from __future__ import annotations

import json
import sys
from collections import Counter
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import percentile, schedule  # noqa: E402


def test_same_seed_same_jobs_other_seed_other_jobs():
    for name in workloads.WORKLOADS:
        first = workloads.canonical(workloads.build_jobs(name, 7))
        assert first == workloads.canonical(workloads.build_jobs(name, 7)), name
        assert first != workloads.canonical(workloads.build_jobs(name, 8)), name


def _parse_cycles(text: str, p: int) -> tuple[int, ...]:
    images = list(range(p + 1))
    for chunk in text.replace(")", "").split("(")[1:]:
        pts = [p if tok == "inf" else int(tok) for tok in chunk.split()]
        for cur, nxt in zip(pts, pts[1:] + pts[:1]):
            images[cur] = nxt
    return tuple(images)


def test_classify_files_have_their_labelled_order():
    checked = 0
    for seed in (1, 2):
        for job in workloads.build_jobs("classify-gens", seed):
            expect = job["expect"]
            if expect["p"] > 13:
                continue
            (text,) = job["files"].values()
            lines = text.split("\n")
            assert lines[0] == f"p={expect['p']}"
            gens = [_parse_cycles(line, expect["p"]) for line in lines[1:] if line]
            assert workloads.bfs_order(gens) == expect["order"], job["id"]
            checked += 1
    assert checked > 100


def test_classify_mix():
    jobs = workloads.build_jobs("classify-gens", 1)
    groups = [job["expect"]["group"] for job in jobs]
    assert len(jobs) == workloads.CLASSIFY_JOBS
    assert groups.count("psl2") == 210
    assert groups.count("exceptional-3") + groups.count("exceptional-5") == 45
    assert groups.count("pgl2") + groups.count("affine") == 45


def test_oracle_rejects_a_wrong_verdict_or_exit_code():
    job = workloads.build_jobs("classify-gens", 1)[0]
    check = oracles.Oracles(HERE.parent, [job]).check
    expect = job["expect"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        out.write_text(json.dumps({"verdict": expect["verdict"]}))
        assert check(job, expect["exit"], out) is None
        assert check(job, 3, out) is not None
        out.write_text(json.dumps({"verdict": "b" if expect["verdict"] == "a" else "a"}))
        assert check(job, expect["exit"], out) is not None


def test_self_times_on_a_synthetic_span_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 8];
    # 4 [12, 13] is a second root.
    start = [0.0, 1.0, 5.0, 6.0, 12.0]
    end = [10.0, 4.0, 9.0, 8.0, 13.0]
    parent = [-1, 0, 0, 2, -1]
    assert tracing.self_times(start, end, parent) == [3.0, 3.0, 2.0, 2.0, 1.0]


def test_layer_metrics_on_a_synthetic_trace():
    names = ["cli.main", "search.run", "groups.closure", "groups.chain_build"]
    trace = {
        "names": names,
        # cli.main > search.run > three closures and one chain build;
        # a fourth closure sits outside the search.
        "name": [0, 1, 2, 2, 2, 3, 2],
        "start": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0],
        "end": [10.0, 7.0, 2.5, 3.5, 4.5, 6.0, 9.0],
        "parent": [-1, 0, 1, 1, 1, 1, 0],
        "job": [0] * 7,
        "counters": {name: 0 for name in tracing.COUNTERS} | {"search.groups_found": 1},
        "closures": [[2, -1, 60], [3, 60, 60], [4, 60, 60], [6, 12, 60]],
    }
    out = tracing.layer_metrics(trace)
    assert out["cli.self_s"] == 10.0 - 6.0 - 1.0
    assert out["search.run_s"] == 6.0 - 1.5 - 1.0
    assert out["groups.closure_s"] == 2.5
    assert out["groups.closure_calls"] == 4
    assert out["groups.chain_build_calls"] == 1
    assert out["search.closures"] == 3
    assert out["search.closures_full"] == 2
    assert out["search.useful_ratio"] == 0.5
    assert out["trace.spans"] == 7
    assert tracing.layers_seen(trace) == {"cli", "search", "groups"}


def test_short_jobs_repeat_in_end_to_end_passes_only():
    jobs = workloads.build_jobs("psl2-simplicity", 1)
    once = {f"simplicity-{q}" for q in (8, 9, 11, 13)}
    assert {job["id"] for job in jobs if job["repeat"] == 1} == once
    runs = schedule(jobs, repeat=True)
    counts = Counter(k for k, _ in runs)
    assert all(counts[k] == job["repeat"] for k, job in enumerate(jobs))
    assert [k for k, _ in runs[: len(jobs)]] == list(range(len(jobs)))
    assert len({out for _, out in runs}) == len(runs)
    assert [k for k, _ in schedule(jobs, repeat=False)] == list(range(len(jobs)))
    for name in ("search-sweep", "classify-gens"):
        jobs = workloads.build_jobs(name, 1)
        assert len(schedule(jobs, repeat=True)) == len(jobs), name


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.9) == 90
    assert percentile(values[:7], 0.9) == 7
    assert percentile([3.0], 0.9) == 3.0


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _, _ in tracing.LAYER_METRICS]
    layer_names = set(tracing.SELF_TIME.values()) | set(tracing.SPAN_COUNT.values())
    assert layer_names | set(tracing.COUNTERS) <= {m for m, _, _ in tracing.LAYER_METRICS}


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} self-tests passed")
