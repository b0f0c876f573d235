"""Seeded job lists for the three benchmark workloads.

A job is plain data: an id, the CLI arguments after ``psl2kit``, the files
the job reads (name -> text, written into the pass's working directory),
the expectation its output oracle checks, and how many times an end-to-end
pass runs it.  Nothing here imports psl2kit: the generator files are built
with the small permutation helpers below, so the inputs do not depend on
the code under test.

Permutations act on Z/p + {inf}; point p stands for inf.  They are image
tuples composed in function order, (a * b)(x) = a(b(x)), as in psl2kit.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("search-sweep", "classify-gens", "psl2-simplicity")

# The searches with a golden report in tests/golden.  p=17 is left out: a
# single 20-30 s job made every run one pass long and its job_p50_s too
# noisy to gate (see RATIONALE.md).
SEARCH_CONSTRAINED_PRIMES = (5, 7, 11, 13)
SEARCH_FULL_PRIMES = (5, 7)

CLASSIFY_JOBS = 300
CLASSIFY_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
# The two involutions that, with z+1 and 2z, generate the order-168 groups
# at p=7 with a normal subgroup of order 8 (variants 3 and 5 of the paper).
EXCEPTIONAL_INVOLUTIONS = {
    3: ((0, 7), (1, 3), (2, 6), (4, 5)),
    5: ((0, 7), (1, 5), (2, 3), (4, 6)),
}

SIMPLICITY_FIELDS = (4, 5, 7, 8, 9, 11, 13)
COROLLARY_PRIMES = (5, 7, 11, 13)
# psl2-simplicity jobs that take well under a second (all but the simplicity
# checks at q >= 8 and q = 11) run this many times per end-to-end pass, so
# that the median job's latency is a best over many tries, not over three.
SHORT_REPEATS = 4


# --- permutation helpers on Z/p + {inf} -----------------------------------


def compose(a, b):
    """Apply b first, then a."""
    return tuple(a[x] for x in b)


def inverse(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def moebius(p, a, b, c, d):
    """Images of z -> (az+b)/(cz+d) over Z/p, with point p as infinity."""
    images = []
    for z in range(p):
        den = (c * z + d) % p
        images.append(p if den == 0 else (a * z + b) * pow(den, p - 2, p) % p)
    images.append(p if c % p == 0 else a * pow(c, p - 2, p) % p)
    return tuple(images)


def from_cycles(p, cycles):
    images = list(range(p + 1))
    for cycle in cycles:
        for cur, nxt in zip(cycle, cycle[1:] + cycle[:1]):
            images[cur] = nxt
    return tuple(images)


def cycle_text(images):
    """Canonical cycle notation, spelling point len-1 as inf."""
    inf = len(images) - 1
    seen = set()
    parts = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cycle = [start]
        seen.add(start)
        cur = images[start]
        while cur != start:
            seen.add(cur)
            cycle.append(cur)
            cur = images[cur]
        parts.append("(" + " ".join("inf" if x == inf else str(x) for x in cycle) + ")")
    return "".join(parts) or "()"


def bfs_order(gens):
    """Order of the group the image tuples generate, by plain BFS closure."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    queue = [ident]
    for x in queue:
        for g in gens:
            y = compose(g, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen)


def _primitive_root(p):
    return next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1)


# --- job construction ----------------------------------------------------


def _job(job_id, argv, expect, files=None, repeat=1):
    return {"id": job_id, "argv": argv, "files": files or {}, "expect": expect, "repeat": repeat}


def _search_jobs(rng):
    jobs = []
    modes = [(p, "constrained") for p in SEARCH_CONSTRAINED_PRIMES]
    modes += [(p, "full") for p in SEARCH_FULL_PRIMES]
    for p, mode in modes:
        expect = {"kind": "golden", "golden": f"tests/golden/search_p{p}_{mode}.json"}
        jobs.append(_job(f"search-{mode}-{p}", ["search", "--p", str(p), "--mode", mode], expect))
    rng.shuffle(jobs)
    return jobs


def _psl2_jobs(rng):
    short = SHORT_REPEATS
    jobs = [
        _job(f"simplicity-{q}", ["psl2", "--q", str(q), "--check", "simplicity"],
             {"kind": "simplicity", "q": q}, repeat=short if q < 8 else 1)
        for q in SIMPLICITY_FIELDS
    ]
    jobs += [
        _job(f"corollary-{p}", ["corollary", "--p", str(p)], {"kind": "corollary", "p": p},
             repeat=short)
        for p in COROLLARY_PRIMES
    ]
    jobs += [
        _job(f"exceptional-{v}", ["exceptional", "--variant", str(v)], {"kind": "check"},
             repeat=short)
        for v in (3, 5)
    ]
    jobs.append(_job("p3", ["p3"], {"kind": "check"}, repeat=short))
    rng.shuffle(jobs)
    return jobs


def _random_words(rng, p, gens, count):
    letters = list(gens) + [inverse(g) for g in gens]
    words = []
    for _ in range(count):
        word = tuple(range(p + 1))
        for _ in range(rng.randint(2, 6)):
            word = compose(rng.choice(letters), word)
        words.append(word)
    return words


def _conjugate_all(gens, m):
    m_inv = inverse(m)
    return [compose(m, compose(g, m_inv)) for g in gens]


def _random_affine(rng, p):
    return moebius(p, rng.randrange(1, p), rng.randrange(p), 0, 1)


def classify_mix() -> list[tuple[str, int, int]]:
    """The (group, p, extra words) strata of a classify-gens pass.  Only the
    conjugating maps, the words themselves and the job order are drawn from
    the seed, so passes of different seeds cost about the same."""
    n_psl2 = CLASSIFY_JOBS * 70 // 100
    n_exceptional = CLASSIFY_JOBS * 15 // 100
    n_fail = CLASSIFY_JOBS - n_psl2 - n_exceptional
    primes = CLASSIFY_PRIMES
    mix = [("psl2", primes[i % len(primes)]) for i in range(n_psl2)]
    mix += [(f"exceptional-{(3, 5)[i % 2]}", 7) for i in range(n_exceptional)]
    mix += [(("pgl2", "affine")[i % 2], primes[i % len(primes)]) for i in range(n_fail)]
    # 0-6 extra words, cycled on a period (7) prime to the primes' period (9)
    return [(group, p, i % 7) for i, (group, p) in enumerate(mix)]


def classify_group(rng, group, p, words):
    """Generator images and label of one classify-gens input.

    The label holds the expected exit code, verdict and group order.
    """
    if group == "psl2":
        gens = _conjugate_all([moebius(p, 1, 1, 0, 1), moebius(p, 0, p - 1, 1, 0)],
                              _random_affine(rng, p))
        label = {"group": "psl2", "exit": 0, "verdict": "a", "order": (p**3 - p) // 2}
    elif group.startswith("exceptional"):
        variant = int(group.split("-")[1])
        base = [moebius(7, 1, 1, 0, 1), moebius(7, 2, 0, 0, 1),
                from_cycles(7, EXCEPTIONAL_INVOLUTIONS[variant])]
        # a random element z -> az+b of <z+1, 2z> (a a square), which lies in the group
        gens = _conjugate_all(base, moebius(7, rng.choice((1, 2, 4)), rng.randrange(7), 0, 1))
        label = {"group": group, "exit": 0, "verdict": "b", "order": 168}
    else:
        g = _primitive_root(p)
        if group == "pgl2":  # PSL(2,p) plus a non-square scaling: twice too large
            base = [moebius(p, 1, 1, 0, 1), moebius(p, 0, p - 1, 1, 0), moebius(p, g, 0, 0, 1)]
            order = p**3 - p
        else:  # the affine group fixes inf: intransitive
            base = [moebius(p, 1, 1, 0, 1), moebius(p, g, 0, 0, 1)]
            order = p * (p - 1)
        gens = _conjugate_all(base, _random_affine(rng, p))
        label = {"group": group, "exit": 2, "verdict": "hypotheses-failed", "order": order}
    gens += _random_words(rng, p, gens, words)
    return gens, label


def _classify_jobs(rng):
    mix = classify_mix()
    rng.shuffle(mix)
    jobs = []
    for i, (group, p, words) in enumerate(mix):
        gens, label = classify_group(rng, group, p, words)
        name = f"g{i:04d}.gens"
        text = "\n".join([f"p={p}"] + [cycle_text(g) for g in gens]) + "\n"
        jobs.append(_job(f"classify-{i:04d}", ["classify", "--p", str(p), "--group", name],
                         dict(label, kind="classify", p=p), {name: text}))
    return jobs


_BUILDERS = {
    "search-sweep": _search_jobs,
    "classify-gens": _classify_jobs,
    "psl2-simplicity": _psl2_jobs,
}


def build_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's job list; the same seed gives the same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def canonical(jobs: list[dict]) -> bytes:
    return json.dumps(jobs, sort_keys=True, separators=(",", ":")).encode("ascii")
