"""Brute-force rediscovery of the classification dichotomy.

Any transitive group of order (p^3-p)/2 on Z/p + {inf} containing the
translations is generated by the translations, the square scalings, and
any single element swapping 0 and inf: the swap makes the generated
subgroup transitive, its stabilizer of inf already holds the p*(p-1)/2
translation-scaling maps, so the subgroup has order at least
(p+1)*p*(p-1)/2 and must be the whole group.  The search therefore
enumerates candidate swaps and decides each one in at most three steps.
First a Lagrange test: s, s*sigma (sigma the square-generator scaling)
and s*(z+k) for k = 1..p-1 all lie in the group s generates with the
base, so if the order of any of them does not divide (p^3-p)/2 that
group cannot have order (p^3-p)/2, and s is rejected after p+1 element
orders, with no chain built.  A swap that lies in a group already found
regenerates that group, so one sift into each found group settles it as
a duplicate; such a swap always passes the Lagrange test.  Otherwise the
three generators are built into a stabilizer chain capped at (p^3-p)/2:
the chain gives up as soon as its partial order passes the cap, and a
complete chain of exactly that order is a new group.  Each new group is
then closed once by frontier multiplication, independently of the chain:
the closure must have the chain's order, and it supplies the element-set
hash and the membership of z -> -1/z.

Two candidate spaces are provided.  The constrained space uses the derived
shape of a swap -- c*z^n on squares, d*z^n on non-squares, with n odd and
(p-1)/2 dividing n^2-1.  The full space tries every bijection exchanging
0 and inf, with arbitrary action on the units; it is feasible for
p in {3, 5, 7} and exists to confirm that the constrained shape loses
nothing.  Each found group is re-checked against the hypotheses and
classified, and the swap-free base subgroup is re-verified to have order
p*(p-1)/2 so the order argument above is honest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from collections import namedtuple

from .fields import (
    MAX_FULL_SEARCH_PRIME,
    MAX_SEARCH_PRIME,
    NotOddPrime,
    check_cap,
    is_prime,
    quadratic_classes,
)
from .groups import OrderLimitExceeded, PermGroup, closure_images
from .projline import Permutation, ProjLine, compose_images
from .verify import classify


class SearchInvariantError(RuntimeError):
    pass


# how a candidate swap is decided
NEW, DUPLICATE, REJECTED = "new", "duplicate", "rejected"


class FoundGroup(namedtuple(
    "FoundGroup", "element_set_sha256 order verdict contains_neg_reciprocal"
)):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "element_set_sha256": self.element_set_sha256,
            "order": self.order,
            "verdict": self.verdict,
            "contains_neg_reciprocal": self.contains_neg_reciprocal,
        }


class SearchOutcome(namedtuple("SearchOutcome", (
    "p mode candidates_examined base_subgroup_order groups elapsed_seconds"
))):
    """``mode`` is "full" or "constrained"; ``elapsed_seconds`` is
    informational and left out of the serialized output."""

    __slots__ = ()

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
    return [line.translation(1), line.scaling(quadratic_classes(p).square_generator)]


def _lagrange_shifts(base_images: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The square-generator scaling, then z+k for k = 1..p-1, from the base
    generators z+1 and that scaling."""
    translation, scaling = base_images
    shifts = [scaling]
    power = translation
    for _ in range(len(translation) - 2):
        shifts.append(power)
        power = compose_images(translation, power)
    return shifts


def _fails_lagrange(
    swap_images: tuple[int, ...], shifts: list[tuple[int, ...]], target: int
) -> bool:
    """Whether s or some s*w, w in ``shifts``, has an order not dividing
    ``target``.  Each of them lies in the group s generates with the base,
    so by Lagrange that group then cannot have order ``target``."""
    words = itertools.chain((swap_images,), (compose_images(swap_images, w) for w in shifts))
    return any(target % Permutation(w).order() for w in words)


def _decide_candidates(base: list[Permutation], target: int, swap_candidates):
    """Decide each candidate swap in turn, yielding (decision, found):
    ``found`` is (chain, closure) for a NEW group and None otherwise.
    Non-bijective candidates arrive as None and are REJECTED, and so are
    swaps that fail the Lagrange test, before any sift or chain."""
    base_images = [g.images for g in base]
    shifts = _lagrange_shifts(base_images)
    groups: list[PermGroup] = []
    for swap_images in swap_candidates:
        if swap_images is None or _fails_lagrange(swap_images, shifts, target):
            yield REJECTED, None
            continue
        swap = Permutation(swap_images)
        if any(group.contains(swap) for group in groups):
            yield DUPLICATE, None
            continue
        try:
            group = PermGroup(base + [swap], order_limit=target)
        except OrderLimitExceeded:
            yield REJECTED, None
            continue
        if group.order() != target:
            yield REJECTED, None
            continue
        closure = closure_images(base_images + [swap_images], limit=target)
        if closure is None or len(closure) != group.order():
            size = "more than the limit" if closure is None else len(closure)
            raise SearchInvariantError(
                f"chain order {group.order()} disagrees with closure size {size}"
            )
        groups.append(group)
        yield NEW, (group, closure)


def _run_search(p: int, mode: str, swap_candidates) -> SearchOutcome:
    """Decide every candidate the lazy ``swap_candidates`` yields; the odd
    prime check runs here, after each mode's cap."""
    if not is_prime(p) or p == 2:
        raise NotOddPrime(f"{p} is not an odd prime")
    start = time.perf_counter()
    line = ProjLine.over_prime(p)
    target = (p**3 - p) // 2
    base = _base_generators(line, p)

    base_closure = closure_images([g.images for g in base])
    base_order = len(base_closure)
    if base_order != p * (p - 1) // 2:
        raise SearchInvariantError(f"base subgroup has order {base_order}")

    examined = 0
    found: dict[str, tuple[PermGroup, frozenset]] = {}
    for decision, new in _decide_candidates(base, target, swap_candidates):
        examined += 1
        if decision == NEW:
            found[element_set_hash(new[1])] = new

    neg_recip = line.neg_reciprocal().images
    groups = []
    for digest in sorted(found):
        group, closure = found[digest]
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
    check_cap("search prime", p, "search cap", MAX_SEARCH_PRIME)
    return _run_search(p, "constrained", _constrained_candidates(p))


def full_search(p: int) -> SearchOutcome:
    """Search every 0/inf-exchanging bijection; feasible for p in {3, 5, 7}."""
    check_cap("full search prime", p, "full search cap", MAX_FULL_SEARCH_PRIME)
    return _run_search(p, "full", _full_candidates(p))


def expected_group_count(p: int) -> int:
    """What the classification dichotomy predicts the search will find."""
    return 3 if p == 7 else 1
