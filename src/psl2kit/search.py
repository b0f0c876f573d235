"""Brute-force rediscovery of the classification dichotomy.

Any transitive group of order (p^3-p)/2 on Z/p + {inf} containing the
translations is generated by the translations, the square scalings, and
any single element swapping 0 and inf: the swap makes the generated
subgroup transitive, its stabilizer of inf already holds the p*(p-1)/2
translation-scaling maps, so the subgroup has order at least
(p+1)*p*(p-1)/2 and must be the whole group.  The search therefore
enumerates candidate swaps, closes each candidate generating set, and
keeps exactly the closures of the right order.  The same argument lets
each found group be rebuilt as a stabilizer chain from those three
generators (the first swap that produced it); the chain's order is
cross-checked against the closure's size.

Two candidate spaces are provided.  The constrained space uses the derived
shape of a swap -- c*z^n on squares, d*z^n on non-squares, with n odd and
(p-1)/2 dividing n^2-1.  The full space tries every bijection exchanging
0 and inf, with arbitrary action on the units; it is feasible for
p in {5, 7} and exists to confirm that the constrained shape loses
nothing.  Each found group is re-checked against the hypotheses and
classified, and the swap-free base subgroup is re-verified to have order
p*(p-1)/2 so the order argument above is honest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass

from .fields import is_prime, primitive_root, quadratic_classes
from .groups import PermGroup, closure_images
from .projline import Permutation, ProjLine
from .verify import classify

MAX_SEARCH_PRIME = 31
FULL_SEARCH_PRIMES = (5, 7)


class PTooLarge(ValueError):
    pass


class SearchInvariantError(RuntimeError):
    pass


@dataclass(frozen=True)
class FoundGroup:
    element_set_sha256: str
    order: int
    verdict: str
    contains_neg_reciprocal: bool

    def to_json_dict(self) -> dict:
        return {
            "element_set_sha256": self.element_set_sha256,
            "order": self.order,
            "verdict": self.verdict,
            "contains_neg_reciprocal": self.contains_neg_reciprocal,
        }


@dataclass(frozen=True)
class SearchOutcome:
    p: int
    mode: str  # "full" | "constrained"
    candidates_examined: int
    base_subgroup_order: int
    groups: tuple[FoundGroup, ...]
    elapsed_seconds: float  # informational; excluded from serialized output

    def to_json_dict(self) -> dict:
        # elapsed time stays out so identical runs serialize identically
        return {
            "p": self.p,
            "mode": self.mode,
            "candidates_examined": self.candidates_examined,
            "base_subgroup_order": self.base_subgroup_order,
            "groups": [g.to_json_dict() for g in self.groups],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def element_set_hash(images_set) -> str:
    """Canonical digest of a group's element set: sorted image tuples,
    comma-joined, semicolon-separated."""
    blob = ";".join(",".join(map(str, img)) for img in sorted(images_set))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _base_generators(line: ProjLine, p: int) -> list[Permutation]:
    square_gen = pow(primitive_root(p), 2, p)
    return [line.translation(1), line.scaling(square_gen)]


def _run_search(p: int, mode: str, swap_candidates) -> SearchOutcome:
    start = time.perf_counter()
    line = ProjLine.over_prime(p)
    target = (p**3 - p) // 2
    base = _base_generators(line, p)
    base_images = [g.images for g in base]

    base_closure = closure_images(base_images)
    base_order = len(base_closure)
    if base_order != p * (p - 1) // 2:
        raise SearchInvariantError(f"base subgroup has order {base_order}")

    examined = 0
    # digest -> (first swap that produced the group, its element set)
    found: dict[str, tuple[tuple[int, ...], frozenset]] = {}
    for swap_images in swap_candidates:
        examined += 1
        if swap_images is None:
            continue
        closure = closure_images(base_images + [swap_images], limit=target)
        if closure is None or len(closure) != target:
            continue
        digest = element_set_hash(closure)
        if digest not in found:
            found[digest] = (swap_images, closure)

    neg_recip = line.neg_reciprocal().images
    groups = []
    for digest in sorted(found):
        swap_images, closure = found[digest]
        group = PermGroup(base + [Permutation(line, swap_images)])
        if group.order() != len(closure):
            raise SearchInvariantError(
                f"chain order {group.order()} disagrees with closure size {len(closure)}"
            )
        report = classify(group, p)
        if not report.checks[0].passed:
            raise SearchInvariantError("found group fails the hypotheses")
        groups.append(
            FoundGroup(
                element_set_sha256=digest,
                order=len(closure),
                verdict=report.verdict,
                contains_neg_reciprocal=neg_recip in closure,
            )
        )
    return SearchOutcome(
        p=p,
        mode=mode,
        candidates_examined=examined,
        base_subgroup_order=base_order,
        groups=tuple(groups),
        elapsed_seconds=time.perf_counter() - start,
    )


def _constrained_candidates(p: int):
    """Swap maps c*z^n on squares, d*z^n on non-squares, lexicographic in
    (n, c, d).  Non-bijective combinations yield None but still count as
    examined candidates."""
    quad = quadratic_classes(p)
    half = (p - 1) // 2
    inf = p
    exponents = [
        n for n in range(1, p - 1, 2) if (n * n - 1) % half == 0
    ]
    for n in exponents:
        square_powers = {z: pow(z, n, p) for z in range(1, p)}
        for c in range(1, p):
            for d in range(1, p):
                images = [0] * (p + 1)
                images[0] = inf
                images[inf] = 0
                seen = set()
                ok = True
                for z in range(1, p):
                    scale = c if quad.is_square(z) else d
                    y = scale * square_powers[z] % p
                    if y == 0 or y in seen:
                        ok = False
                        break
                    seen.add(y)
                    images[z] = y
                yield tuple(images) if ok else None


def _full_candidates(p: int):
    """Every bijection with 0 and inf exchanged, lexicographic over the
    arrangements of the units."""
    inf = p
    units = range(1, p)
    for arrangement in itertools.permutations(units):
        images = [0] * (p + 1)
        images[0] = inf
        images[inf] = 0
        for z, y in zip(units, arrangement):
            images[z] = y
        yield tuple(images)


def constrained_search(p: int) -> SearchOutcome:
    """Search the derived swap shapes for groups meeting the hypotheses."""
    if not is_prime(p) or p == 2:
        raise PTooLarge(f"{p} is not an odd prime")
    if p > MAX_SEARCH_PRIME:
        raise PTooLarge(f"constrained search is capped at p={MAX_SEARCH_PRIME}")
    return _run_search(p, "constrained", _constrained_candidates(p))


def full_search(p: int) -> SearchOutcome:
    """Search every 0/inf-exchanging bijection; feasible for p in {5, 7}."""
    if p not in FULL_SEARCH_PRIMES:
        raise PTooLarge(f"full search runs only for p in {FULL_SEARCH_PRIMES}")
    return _run_search(p, "full", _full_candidates(p))


def expected_group_count(p: int) -> int:
    """What the classification dichotomy predicts the search will find."""
    return 3 if p == 7 else 1
