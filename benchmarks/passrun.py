"""One pass of a workload in a fresh interpreter.

Usage: passrun.py SRC SPEC RESULT

SRC is the directory holding the psl2kit package.  The pass first times
``import psl2kit.cli`` plus ``build_parser()``, then, if SPEC is not ``-``,
runs SPEC's jobs one after another through ``psl2kit.cli.main`` in the
current directory and writes timings, exit codes and peak RSS to RESULT as
JSON.  With ``"trace": true`` in SPEC the layer wrappers are installed after
the set-up timing and the spans are written to SPEC's ``spans`` path.
"""

import sys
import time

# Only sys and time are loaded before the set-up timing: every other module
# psl2kit pulls in (json, argparse, ...) is paid for inside it, as it is for
# a user's fresh ``psl2kit`` process.


def setup(src: str):
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import psl2kit.cli as cli

    cli.build_parser()
    return cli, time.perf_counter() - t0


def run(cli, spec: dict) -> dict:
    import os
    import resource
    import traceback

    rec = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        rec = tracing.Recorder()
        tracing.install(rec)
    latency, exits, errors = [], [], []
    clock = time.perf_counter
    wall_start = clock()
    for i, job in enumerate(spec["jobs"]):
        if rec is not None:
            rec.job_id = i
        argv = job["argv"] + ["--format", "json", "--out", job["out"]]
        error = None
        t = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a job that raises is a failed job, not a failed pass
            code = None
            error = traceback.format_exc(limit=3)
        latency.append(clock() - t)
        exits.append(code)
        errors.append(error)
    wall_s = clock() - wall_start
    if rec is not None:
        rec.dump(spec["spans"])
    return {
        "wall_s": wall_s,
        "latency_s": latency,
        "exit": exits,
        "error": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main() -> None:
    src, spec_path, result_path = sys.argv[1:4]
    cli, setup_s = setup(src)
    import json

    result = {"setup_s": setup_s}
    if spec_path != "-":
        with open(spec_path, encoding="ascii") as handle:
            result.update(run(cli, json.load(handle)))
    with open(result_path, "w", encoding="ascii") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
