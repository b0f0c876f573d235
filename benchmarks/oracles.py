"""Output oracles: each job's exit code and JSON report against what its
generator expects.  A job that fails its oracle counts in ``fail_ratio``;
nothing is dropped or retried.
"""

from __future__ import annotations

import json
from pathlib import Path


class Oracles:
    """Checks job outputs; reference data is read once, before any pass
    runs, so none of it falls inside a timed region."""

    def __init__(self, root: Path, jobs: list[dict]):
        self.goldens = {}
        for job in jobs:
            expect = job["expect"]
            if expect["kind"] == "golden":
                # read-only: the goldens are the test suite's reference outputs
                with open(root / expect["golden"], encoding="ascii") as handle:
                    self.goldens[expect["golden"]] = json.load(handle)

    def check(self, job: dict, code, out_path: Path) -> str | None:
        """None if the job's output is right, else the reason it is not."""
        expect = job["expect"]
        want_exit = expect.get("exit", 0)
        if code != want_exit:
            return f"exit code {code}, expected {want_exit}"
        try:
            with open(out_path, encoding="ascii") as handle:
                out = json.load(handle)
        except (OSError, ValueError) as exc:
            return f"no readable report: {exc}"
        problems = getattr(self, "_" + expect["kind"])(expect, out)
        return "; ".join(problems) or None

    def _golden(self, expect, out):
        golden = self.goldens[expect["golden"]]
        problems = [f"{key} differs from {expect['golden']}"
                    for key in sorted(golden) if out.get(key) != golden[key]]
        if out.get("matches_prediction") is not True:
            problems.append("matches_prediction is not true")
        return problems

    def _simplicity(self, expect, out):
        q = expect["q"]
        problems = [f"{key} is not true" for key in
                    ("pass", "certificate_reverified", "methods_agree") if out.get(key) is not True]
        if out.get("simple") != (q > 3):
            problems.append(f"simple is {out.get('simple')} at q={q}")
        return problems

    def _corollary(self, expect, out):
        problems = self._check(expect, out)
        checks = out.get("checks") or [{}]
        if checks[0].get("witness", {}).get("sylow_count") != expect["p"] + 1:
            problems.append("sylow_count is not p+1")
        return problems

    def _check(self, expect, out):
        checks = out.get("checks") or [{}]
        return [] if checks[0].get("pass") is True else ["check did not pass"]

    def _classify(self, expect, out):
        if out.get("verdict") != expect["verdict"]:
            return [f"verdict {out.get('verdict')!r}, expected {expect['verdict']!r}"]
        return []

