"""Brute-force rediscovery of the classification dichotomy.

Any transitive group of order (p^3-p)/2 on Z/p + {inf} containing the
translations is generated by the base B -- the translations and square
scalings, of order p*(p-1)/2, generated by z+1 and the square-generator
scaling sigma -- and any single element s swapping 0 and inf.  G = <B, s>
is transitive, since s joins inf to the orbit Z/p of B, so
|G| = (p+1)*|G_inf| with B <= G_inf, and |G| = (p^3-p)/2 exactly when
G_inf = B.  The search enumerates candidate swaps and decides that by
Schreier's lemma (Seress, *Permutation Group Algorithms*, 2003, section
4.1): with the transversal u_inf = 1 and u_x = (z+x)*s, which maps inf to
x, G_inf is generated by the u_{g(x)}^-1 * g * u_x over x on the line and
g in {s, z+1, sigma}.  Only p + 1 of those 3(p+1) generators can lie
outside B:

- z+1 gives 1 at each finite x, as (z-x-1)*(z+1)*(z+x) = 1, and z+1 at inf;
- sigma gives s^-1*sigma*s at each finite x, as sigma(z+x) - sigma(x) =
  sigma(z), and sigma at inf;
- s gives 1 at inf, s^2 at 0, and s^-1*(z-s(x))*s*(z+x)*s at each unit x.

So G_inf = B exactly when s^2, s^-1*sigma*s and the p - 1 unit words lie
in B.  The search tests them in that order by lookup in B's element set,
closed once per search.  Once s^2 is in B, a word s^-1*w is in B exactly
when s*w = s^2 * s^-1*w is, so each later word is tested as s*w and no
inverse is formed.  Most failing swaps fail at s^2 or s^-1*sigma*s.

A swap that passes those two and lies in a group G already found is a
duplicate: it regenerates G, because <B, s> <= G is transitive and its
stabilizer of inf lies between B and G_inf = B, so <B, s> has G's order.
That takes one lookup in each found group's element set, and no unit
word.  Any other swap that passes every word is a new group: its three
generators are built into a stabilizer chain, whose order must be
(p^3-p)/2, and closed once, independently of both: the closure must have
the chain's order, and it supplies the element-set hash and the
membership of z -> -1/z.

Two candidate spaces are provided.  The constrained space uses the derived
shape of a swap -- c*z^n on squares, d*z^n on non-squares, with n odd and
(p-1)/2 dividing n^2-1.  The full space tries every bijection exchanging
0 and inf, with arbitrary action on the units; it is feasible up to
p = 11, (p-1)! candidates, and exists to confirm that the constrained
shape loses nothing.  Each found group is re-checked against the hypotheses and
classified, and the swap-free base subgroup is re-verified by closure to
have order p*(p-1)/2, before any candidate, so the order argument above
is honest.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import namedtuple
from operator import itemgetter

from .fields import (
    MAX_FULL_SEARCH_PRIME,
    MAX_SEARCH_PRIME,
    NotOddPrime,
    check_cap,
    is_prime,
    quadratic_classes,
)
from .groups import PermGroup, closure_images
from .projline import ProjLine, compose_images, identity_images
from .psl2 import psl2_expected_order
from .verify import classify


class SearchInvariantError(RuntimeError):
    pass


# how a candidate swap is decided
NEW, DUPLICATE, REJECTED = "new", "duplicate", "rejected"


FoundGroup = namedtuple(
    "FoundGroup", "element_set_sha256 order verdict contains_neg_reciprocal"
)


class SearchOutcome(namedtuple(
    "SearchOutcome", "p mode candidates_examined base_subgroup_order groups"
)):
    """``mode`` is "full" or "constrained"."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "groups": [g._asdict() for g in self.groups]}


def element_set_hash(images_set) -> str:
    """Canonical digest of a group's element set: sorted image tuples,
    comma-joined, semicolon-separated.  Each tuple is joined from the
    points' strings, made once, by one gather."""
    images = sorted(images_set)
    names = tuple(map(str, range(len(images[0])))) if images else ()
    blob = ";".join(",".join(itemgetter(*img)(names)) for img in images)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def _base_generators(line: ProjLine, p: int) -> list[tuple[int, ...]]:
    return [line.translation(1), line.scaling(quadratic_classes(p).square_generator)]


def _unit_words(swap, shifts):
    """s^2 * u_{s(x)}^-1 * s * u_x = s*(z-s(x))*s*(z+x)*s for each unit x, in
    order, with ``shifts[k]`` = z+k: once s^2 lies in B, each lies in B
    exactly when the Schreier generator of s at x does (module docstring).
    Lazy, so a test that stops at the first word outside B builds no more."""
    for x in range(1, len(shifts)):
        word = compose_images(swap, compose_images(shifts[x], swap))
        yield compose_images(swap, compose_images(shifts[-swap[x]], word))


def _decide_candidates(base: list[tuple[int, ...]], base_elements, target: int, swap_candidates):
    """Decide each candidate swap in turn, yielding (decision, found):
    ``found`` is (chain, closure) for a NEW group and None otherwise;
    ``base`` is z+1 and sigma, and ``base_elements`` the group B they
    generate.  Non-bijective candidates arrive as None and are REJECTED.
    A swap is tested by the Schreier generators of G_inf that can lie
    outside B, in the module docstring's order: s^2, then s^-1*sigma*s as
    s*sigma*s, then the unit words.  One outside B rejects it.  A swap
    whose first two lie in B is a DUPLICATE when a found group holds it,
    before any unit word is built."""
    translation, sigma = base
    shifts = [identity_images(len(translation))]  # z+k = (z+1)^k, k = 0..p-1
    for _ in range(len(translation) - 2):
        shifts.append(compose_images(translation, shifts[-1]))
    closures: list[frozenset] = []
    for swap in swap_candidates:
        if (
            swap is None
            or compose_images(swap, swap) not in base_elements
            or compose_images(swap, compose_images(sigma, swap)) not in base_elements
        ):
            yield REJECTED, None
            continue
        if any(swap in closure for closure in closures):
            yield DUPLICATE, None
            continue
        if not all(word in base_elements for word in _unit_words(swap, shifts)):
            yield REJECTED, None
            continue
        group = PermGroup(base + [swap])
        if group.order() != target:
            # the Schreier test proved |G| = (p+1) * |base| (module docstring)
            raise SearchInvariantError(f"complete chain has order {group.order()}, not {target}")
        closure = closure_images(base + [swap], limit=target)
        if closure is None or len(closure) != group.order():
            size = "more than the limit" if closure is None else len(closure)
            raise SearchInvariantError(
                f"chain order {group.order()} disagrees with closure size {size}"
            )
        closures.append(closure)
        yield NEW, (group, closure)


def _run_search(p: int, mode: str, swap_candidates) -> SearchOutcome:
    """Decide every candidate the lazy ``swap_candidates`` yields; the odd
    prime check runs here, after each mode's cap."""
    if not is_prime(p) or p == 2:
        raise NotOddPrime(f"{p} is not an odd prime")
    line = ProjLine.over_prime(p)
    target = psl2_expected_order(p)
    base = _base_generators(line, p)

    base_closure = closure_images(base)
    base_order = len(base_closure)
    if base_order != p * (p - 1) // 2:
        raise SearchInvariantError(f"base subgroup has order {base_order}")

    examined = 0
    found: dict[str, tuple[PermGroup, frozenset]] = {}
    for decision, new in _decide_candidates(base, base_closure, target, swap_candidates):
        examined += 1
        if decision == NEW:
            found[element_set_hash(new[1])] = new

    neg_recip = line.neg_reciprocal()
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
    )


def _constrained_candidates(p: int):
    """Swap maps c*z^n on squares, d*z^n on non-squares, lexicographic in
    (n, c, d).  Non-bijective combinations yield None but still count as
    examined candidates."""
    half = (p - 1) // 2
    units = range(1, p)
    squares = set(quadratic_classes(p).squares)
    square_mask = [z in squares for z in units]
    exponents = [
        n for n in range(1, p - 1, 2) if (n * n - 1) % half == 0
    ]
    for n in exponents:
        powers = [pow(z, n, p) for z in units]
        for c in units:
            for d in units:
                row = [(c if square else d) * w % p for square, w in zip(square_mask, powers)]
                yield (p, *row, 0) if len(set(row)) == p - 1 else None


def _full_candidates(p: int):
    """Every bijection with 0 and inf exchanged, lexicographic over the
    arrangements of the units."""
    for arrangement in itertools.permutations(range(1, p)):
        yield (p, *arrangement, 0)


def constrained_search(p: int) -> SearchOutcome:
    """Search the derived swap shapes for groups meeting the hypotheses."""
    check_cap("search prime", p, "search cap", MAX_SEARCH_PRIME)
    return _run_search(p, "constrained", _constrained_candidates(p))


def full_search(p: int) -> SearchOutcome:
    """Search every 0/inf-exchanging bijection; feasible up to p = 11."""
    check_cap("full search prime", p, "full search cap", MAX_FULL_SEARCH_PRIME)
    return _run_search(p, "full", _full_candidates(p))


def expected_group_count(p: int) -> int:
    """What the classification dichotomy predicts the search will find."""
    return 3 if p == 7 else 1
