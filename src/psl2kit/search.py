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
g in {s, z+1, sigma}, so G_inf = B exactly when each of them sifts through
B's chain, built once per search.  At x = 0 they are s^2, 1 and
s^-1*sigma*s; in both candidate spaces at every prime they allow, a
failing swap is rejected at x = 0 or 1, with no chain built for it.  A
swap that passes and lies in a group already found regenerates that
group, so one sift into each found group settles it as a duplicate.  Any
other is a new group: its three generators are built into a stabilizer
chain, whose order must be (p^3-p)/2, and closed once by frontier
multiplication, independently of both: the closure must have the chain's
order, and it supplies the element-set hash and the membership of
z -> -1/z.

Two candidate spaces are provided.  The constrained space uses the derived
shape of a swap -- c*z^n on squares, d*z^n on non-squares, with n odd and
(p-1)/2 dividing n^2-1.  The full space tries every bijection exchanging
0 and inf, with arbitrary action on the units; it is feasible for
p in {3, 5, 7} and exists to confirm that the constrained shape loses
nothing.  Each found group is re-checked against the hypotheses and
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
from .projline import ProjLine, compose_images, identity_images, invert_images
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


def _stabilizer_is_base(base_group: PermGroup, swap, base, shifts) -> bool:
    """Whether every Schreier generator u_{g(x)}^-1 * g * u_x of G_inf,
    G = <base, s>, lies in ``base_group``, for x on the line, u_inf = 1,
    u_x = (z+x)*s and ``shifts[k]`` = z+k.  g runs over s first, whose
    generator at x = 0 is s^2, then z+1 and sigma; the test stops at the
    first generator outside the base.  See the module docstring."""
    inf = len(swap) - 1
    ident = identity_images(inf + 1)
    swap_inv = invert_images(swap)
    coset_inverses = {inf: ident}  # y -> u_y^-1 = s^-1 * (z-y)
    gens = [swap, *base]
    for x in range(inf + 1):
        u = ident if x == inf else compose_images(shifts[x], swap)
        for g in gens:
            y = g[x]
            u_inv = coset_inverses.get(y)
            if u_inv is None:
                u_inv = coset_inverses[y] = compose_images(swap_inv, shifts[-y])
            h = compose_images(u_inv, compose_images(g, u))
            if h != ident and not base_group.contains(h):
                return False
    return True


def _decide_candidates(base: list[tuple[int, ...]], target: int, swap_candidates):
    """Decide each candidate swap in turn, yielding (decision, found):
    ``found`` is (chain, closure) for a NEW group and None otherwise;
    ``base`` is z+1 and sigma.  Non-bijective candidates arrive as None and
    are REJECTED, and so are swaps whose stabilizer of inf is not the base
    group, before any sift into a found group or chain."""
    base_group = PermGroup(base)
    shifts = [identity_images(len(base[0]))]  # z+k = (z+1)^k, k = 0..p-1
    for _ in range(len(base[0]) - 2):
        shifts.append(compose_images(base[0], shifts[-1]))
    groups: list[PermGroup] = []
    for swap in swap_candidates:
        if swap is None or not _stabilizer_is_base(base_group, swap, base, shifts):
            yield REJECTED, None
            continue
        if any(group.contains(swap) for group in groups):
            yield DUPLICATE, None
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
        groups.append(group)
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
    for decision, new in _decide_candidates(base, target, swap_candidates):
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
