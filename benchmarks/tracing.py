"""Out-of-program tracing of psl2kit's seven modules, and the per-layer
metrics derived from the spans.

``install`` wraps public functions and methods of ``fields``, ``projline``,
``groups``, ``psl2``, ``verify``, ``search`` and ``cli`` from here, without
touching the package source.  Functions are rebound in every psl2kit module
that holds them, which covers names bound by ``from ... import`` (such as
``search.closure_images`` or ``cli.constrained_search``); methods are
replaced on their class, which every importer shares.

Boundaries that run a bounded number of times record spans (name, start,
end, parent span, job id) into column arrays kept in memory until the pass
ends.  The innermost hot paths -- ``compose_images``, ``invert_images``,
``Field.add``, ``Field.mul`` and ``Mat2.mul``, millions of calls -- only
count, which still slows them; the traced-minus-untraced wall time is
reported as the tracing overhead.

The process is single-threaded and has no queues, so no layer ever waits:
there are no waiting-time metrics.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from functools import wraps

# Per-layer metrics in output order: (name, unit, better).  BENCHMARK.json
# lists the same names; the coverage check in run.py holds the three equal.
LAYER_METRICS = (
    ("groups.chain_build_s", "s", "lower"),
    ("groups.chain_build_calls", "count", "lower"),
    ("groups.chain_build_gens", "count", "lower"),
    ("groups.sift_s", "s", "lower"),
    ("groups.sift_calls", "count", "lower"),
    ("groups.enumerate_s", "s", "lower"),
    ("groups.stabilizer_s", "s", "lower"),
    ("groups.conjugacy_s", "s", "lower"),
    ("groups.normal_closure_s", "s", "lower"),
    ("groups.normal_closure_calls", "count", "lower"),
    ("groups.is_simple_s", "s", "lower"),
    ("groups.sylow_s", "s", "lower"),
    ("groups.closure_s", "s", "lower"),
    ("groups.closure_calls", "count", "lower"),
    ("groups.closure_aborted", "count", "lower"),
    ("groups.closure_elements", "count", "lower"),
    ("projline.compose_calls", "count", "lower"),
    ("projline.invert_calls", "count", "lower"),
    ("fields.add_calls.prime", "count", "lower"),
    ("fields.add_calls.ext", "count", "lower"),
    ("fields.mul_calls.prime", "count", "lower"),
    ("fields.mul_calls.ext", "count", "lower"),
    ("psl2.sl2_group_s", "s", "lower"),
    ("psl2.certify_s", "s", "lower"),
    ("psl2.reverify_s", "s", "lower"),
    ("psl2.mat_closure_s", "s", "lower"),
    ("psl2.mat_closure_calls", "count", "lower"),
    ("psl2.mat_mul_calls", "count", "lower"),
    ("verify.classify_s", "s", "lower"),
    ("verify.classify_calls", "count", "lower"),
    ("verify.corollary_s", "s", "lower"),
    ("verify.exceptional_s", "s", "lower"),
    ("verify.p3_s", "s", "lower"),
    ("search.run_s", "s", "lower"),
    ("search.candidates", "count", "lower"),
    ("search.closures", "count", "lower"),
    ("search.closures_full", "count", "lower"),
    ("search.groups_found", "count", "higher"),
    ("search.useful_ratio", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)

# Span name -> the per-layer self-time metric it feeds.
SELF_TIME = {
    "groups.chain_build": "groups.chain_build_s",
    "groups.sift": "groups.sift_s",
    "groups.enumerate": "groups.enumerate_s",
    "groups.stabilizer": "groups.stabilizer_s",
    "groups.conjugacy": "groups.conjugacy_s",
    "groups.normal_closure": "groups.normal_closure_s",
    "groups.is_simple": "groups.is_simple_s",
    "groups.sylow": "groups.sylow_s",
    "groups.closure": "groups.closure_s",
    "psl2.sl2_group": "psl2.sl2_group_s",
    "psl2.certify": "psl2.certify_s",
    "psl2.reverify": "psl2.reverify_s",
    "psl2.mat_closure": "psl2.mat_closure_s",
    "verify.classify": "verify.classify_s",
    "verify.corollary": "verify.corollary_s",
    "verify.exceptional": "verify.exceptional_s",
    "verify.p3": "verify.p3_s",
    "search.run": "search.run_s",
    "cli.main": "cli.self_s",
    "cli.parse": "cli.parse_s",
}

# Span name -> the metric counting its spans.
SPAN_COUNT = {
    "groups.chain_build": "groups.chain_build_calls",
    "groups.sift": "groups.sift_calls",
    "groups.normal_closure": "groups.normal_closure_calls",
    "groups.closure": "groups.closure_calls",
    "psl2.mat_closure": "psl2.mat_closure_calls",
    "verify.classify": "verify.classify_calls",
}

# Counters incremented by wrappers, reported under their own names.
COUNTERS = (
    "groups.chain_build_gens",
    "groups.closure_aborted",
    "groups.closure_elements",
    "projline.compose_calls",
    "projline.invert_calls",
    "fields.add_calls.prime",
    "fields.add_calls.ext",
    "fields.mul_calls.prime",
    "fields.mul_calls.ext",
    "psl2.mat_mul_calls",
    "search.candidates",
    "search.groups_found",
)

LAYERS = ("fields", "projline", "groups", "psl2", "verify", "search", "cli")


class Recorder:
    """Spans in column arrays, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.counters = {name: [0] for name in COUNTERS}  # one-item cells
        # closure span index -> (elements returned or -1 if aborted, limit or -1)
        self.closures: dict[int, tuple[int, int]] = {}
        self.job_id = -1
        self._stack = [-1]

    def open(self, name: str) -> int:
        key = self._ids.get(name)
        if key is None:
            key = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(key)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def dump(self, path: str) -> None:
        """Write the spans out: a JSON header line, then the raw columns."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "counters": {name: cell[0] for name, cell in self.counters.items()},
            "closures": [[i, n, lim] for i, (n, lim) in self.closures.items()],
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode("ascii") + b"\n")
            for column in (self.name, self.start, self.end, self.parent, self.job):
                column.tofile(handle)


def load(path: str) -> dict:
    """Read a dump back: the header's fields plus the five span columns."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        n = header["spans"]
        columns = []
        for code in ("H", "d", "d", "q", "q"):
            column = array(code)
            column.fromfile(handle, n)
            columns.append(column)
    header["name"], header["start"], header["end"], header["parent"], header["job"] = columns
    return header


# --- installing the wrappers ---------------------------------------------


def _spanned(rec: Recorder, name: str, fn, after=None):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if after is not None:
            after(idx, args, kwargs, result)
        return result

    return wrapper


def _rebind(modules, original, replacement) -> int:
    """Replace a function in every module namespace that holds it."""
    hits = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def install(rec: Recorder) -> None:
    """Wrap psl2kit's layer boundaries so that they report into ``rec``."""
    from psl2kit import cli, fields, groups, projline, psl2, search, verify

    modules = [module for name, module in sys.modules.items()
               if name == "psl2kit" or name.startswith("psl2kit.")]
    cells = rec.counters

    def rebind(original, replacement):
        if _rebind(modules, original, replacement) == 0:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere")

    # projline: image-tuple composition and inversion (counts only)
    orig_compose, orig_invert = projline.compose_images, projline.invert_images
    compose_n, invert_n = cells["projline.compose_calls"], cells["projline.invert_calls"]

    def compose_images(a, b):
        compose_n[0] += 1
        return orig_compose(a, b)

    def invert_images(a):
        invert_n[0] += 1
        return orig_invert(a)

    rebind(orig_compose, compose_images)
    rebind(orig_invert, invert_images)

    # fields: arithmetic, split by prime and extension fields (counts only)
    Field = fields.Field
    orig_add, orig_mul = Field.add, Field.mul
    add_n = (cells["fields.add_calls.prime"], cells["fields.add_calls.ext"])
    mul_n = (cells["fields.mul_calls.prime"], cells["fields.mul_calls.ext"])

    def add(self, x, y):
        add_n[self.degree > 1][0] += 1
        return orig_add(self, x, y)

    def mul(self, x, y):
        mul_n[self.degree > 1][0] += 1
        return orig_mul(self, x, y)

    Field.add, Field.mul = add, mul

    # groups: the stabilizer chain and the queries built on it
    PermGroup = groups.PermGroup
    orig_init = PermGroup.__init__

    def init(self, generators, **kwargs):
        generators = list(generators)
        cells["groups.chain_build_gens"][0] += len(generators)
        orig_init(self, generators, **kwargs)

    PermGroup.__init__ = _spanned(rec, "groups.chain_build", init)
    for attr, name in (
        ("contains", "groups.sift"),
        ("element_images", "groups.enumerate"),
        ("elements", "groups.enumerate"),
        ("element_set", "groups.enumerate"),
        ("point_stabilizer", "groups.stabilizer"),
        ("is_doubly_transitive", "groups.stabilizer"),
        ("conjugacy_classes", "groups.conjugacy"),
        ("conjugacy_class_of", "groups.conjugacy"),
        ("normal_closure", "groups.normal_closure"),
        ("is_simple", "groups.is_simple"),
        ("sylow_subgroups", "groups.sylow"),
        ("sylow_count", "groups.sylow"),
    ):
        setattr(PermGroup, attr, _spanned(rec, name, getattr(PermGroup, attr)))

    def after_closure(idx, args, kwargs, result):
        limit = kwargs.get("limit", args[1] if len(args) > 1 else None)
        if result is None:
            cells["groups.closure_aborted"][0] += 1
        else:
            cells["groups.closure_elements"][0] += len(result)
        rec.closures[idx] = (-1 if result is None else len(result), -1 if limit is None else limit)

    rebind(groups.closure_images,
           _spanned(rec, "groups.closure", groups.closure_images, after_closure))

    # psl2: matrix groups and the simplicity certificate
    rebind(psl2.sl2_group, _spanned(rec, "psl2.sl2_group", psl2.sl2_group))
    rebind(psl2.certify_simplicity, _spanned(rec, "psl2.certify", psl2.certify_simplicity))
    rebind(psl2.mat_closure, _spanned(rec, "psl2.mat_closure", psl2.mat_closure))
    certificate = psl2.SimplicityCertificate
    certificate.reverify = _spanned(rec, "psl2.reverify", certificate.reverify)
    orig_mat_mul = psl2.Mat2.mul
    mat_mul_n = cells["psl2.mat_mul_calls"]

    def mat_mul(self, other):
        mat_mul_n[0] += 1
        return orig_mat_mul(self, other)

    psl2.Mat2.mul = mat_mul

    # verify: the lemma chain and the standalone checks
    rebind(verify.classify, _spanned(rec, "verify.classify", verify.classify))
    rebind(verify.corollary_check, _spanned(rec, "verify.corollary", verify.corollary_check))
    rebind(verify.exceptional_report,
           _spanned(rec, "verify.exceptional", verify.exceptional_report))
    rebind(verify.p3_case_check, _spanned(rec, "verify.p3", verify.p3_case_check))

    # search: the whole run; candidates and groups come from its outcome
    def after_search(idx, args, kwargs, outcome):
        cells["search.candidates"][0] += outcome.candidates_examined
        cells["search.groups_found"][0] += len(outcome.groups)

    rebind(search.constrained_search,
           _spanned(rec, "search.run", search.constrained_search, after_search))
    rebind(search.full_search, _spanned(rec, "search.run", search.full_search, after_search))

    # cli: one span per job, and the generators-file parser
    rebind(cli.load_generators_file,
           _spanned(rec, "cli.parse", cli.load_generators_file))
    rebind(cli.main, _spanned(rec, "cli.main", cli.main))


# --- deriving the per-layer metrics ------------------------------------


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = {}
    for idx, up in enumerate(parent):
        if up >= 0:
            children.setdefault(up, []).append(idx)
    out = []
    for idx in range(len(start)):
        lo, hi = start[idx], end[idx]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(idx, ()), key=start.__getitem__):
            c_lo, c_hi = max(start[c], reach), min(end[c], hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out.append(hi - lo - covered)
    return out


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from its dumped spans."""
    names = trace["names"]
    name_of = [names[k] for k in trace["name"]]
    selfs = self_times(trace["start"], trace["end"], trace["parent"])
    out: dict[str, float] = {metric: 0 for metric, _, _ in LAYER_METRICS}
    for metric in SELF_TIME.values():
        out[metric] = 0.0
    for name, own in zip(name_of, selfs):
        if name in SELF_TIME:
            out[SELF_TIME[name]] += own
        if name in SPAN_COUNT:
            out[SPAN_COUNT[name]] += 1
    out.update(trace["counters"])

    parent = trace["parent"]

    def under_search(idx):
        idx = parent[idx]
        while idx >= 0:
            if name_of[idx] == "search.run":
                return True
            idx = parent[idx]
        return False

    for idx, size, limit in trace["closures"]:
        if under_search(idx):
            out["search.closures"] += 1
            if size >= 0 and size == limit:
                out["search.closures_full"] += 1
    full = out["search.closures_full"]
    out["search.useful_ratio"] = out["search.groups_found"] / full if full else 0.0
    out["trace.spans"] = len(name_of)
    return out


def layers_seen(trace: dict) -> set[str]:
    """Modules with at least one span or count in the pass."""
    seen = {trace["names"][k].split(".")[0] for k in set(trace["name"])}
    seen.update(name.split(".")[0] for name, value in trace["counters"].items() if value)
    return seen
