"""Byte-identity sweep of the command line.

Runs each command of ``commands()`` in a fresh interpreter, once with
``--format json`` and once with ``--format text``, and prints one line per
run: the SHA-256 of its exit code, stdout and stderr, two spaces, and its
argv.  A change that promises identical reports is checked by running the
sweep at both commits and comparing the two outputs with ``diff``:

    python3 tools/sweep.py > after.txt

There are 408 runs, 204 commands in both formats; the sweep took about
25-28 s on 2 vCPU with CPython 3.11.7.  To sweep another checkout, run a
copy of this file placed in its ``tools/``.  Commands run from the
repository root with ``src`` on the path, at most two at a time; golden
paths are relative to the root, so the output does not depend on where
the checkout lives.  Only the standard library is used.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
WORKERS = 2


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % f for f in range(2, int(n**0.5) + 1))


def _is_prime_power(q: int) -> bool:
    """Whether q is a power of its least prime factor f."""
    f = next(f for f in range(2, q + 1) if q % f == 0)
    while q % f == 0:
        q //= f
    return q == 1


def commands() -> list[list[str]]:
    """Every swept argv, without ``--format``."""
    out = [["corollary", "--p", str(p)] for p in range(5, 140) if _is_prime(p)]
    out += [
        ["psl2", "--q", str(q), "--check", check]
        for q in range(4, 257)
        if _is_prime_power(q)
        for check in ("simplicity", "order")
    ]
    # the simplicity certificate and its report past 256 points, in prime,
    # even and odd extension fields
    out += [
        ["psl2", "--q", str(q), "--check", "simplicity"] for q in (257, 512, 625, 729, 1024)
    ]
    out += [["exceptional", "--variant", "3"], ["exceptional", "--variant", "5"], ["p3"]]
    # a generator file names its prime: classify_p<P>.gens
    out += [
        ["classify", "--p", path.stem.removeprefix("classify_p"),
         "--group", str(path.relative_to(ROOT))]
        for path in sorted(GOLDEN.glob("classify_p*.gens"))
    ]
    out += [
        ["classify", "--p", str(p), "--group", "psl2"]
        for p in [*filter(_is_prime, range(5, 44)), 257]
    ]
    out += [["classify", "--p", "7", "--group", f"exceptional:{v}"] for v in (3, 5)]
    # a search golden names its command: search_p<P>_<mode>.json
    out += [
        ["search", "--p", p, "--mode", mode]
        for path in sorted(GOLDEN.glob("search_p*.json"))
        for p, mode in [path.stem.removeprefix("search_p").split("_")]
    ]
    return out


def run(argv: list[str]) -> str:
    """The sweep line of one run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "psl2kit", *argv], cwd=ROOT, env=env, capture_output=True
    )
    digest = hashlib.sha256(repr((done.returncode, done.stdout, done.stderr)).encode())
    return f"{digest.hexdigest()}  {' '.join(argv)}"


def main() -> None:
    runs = [argv + ["--format", fmt] for argv in commands() for fmt in ("json", "text")]
    with ThreadPoolExecutor(WORKERS) as pool:
        for line in pool.map(run, runs):
            print(line, flush=True)


if __name__ == "__main__":
    main()
