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

The search runs on ``bytes`` from candidate to digest: p + 1 <= 256, so
each permutation is a ``bytes`` of its images.  ``bytes.translate`` takes
a table of exactly 256 bytes, so a permutation's table is its images
padded with the fixed points p + 1 .. 255, and ``x.translate(table_b)`` is
the product b*x (x first), one C-level pass.  The tables of z+k and sigma
are built once per search, one per candidate for s.  B's element set and
each found group's closure are sets of ``bytes`` from
``groups.closure_images``, the one closure routine, and only a found
group's chain turns its three generators into image tuples.  That chain
is built with the order the Schreier test proved, (p^3-p)/2, and stops
there (``groups``, known-order termination).  Its order must still be
(p^3-p)/2, and the closure must still have its order.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import namedtuple

from .fields import (
    MAX_FULL_SEARCH_PRIME,
    MAX_SEARCH_PRIME,
    NotOddPrime,
    check_cap,
    is_prime,
    quadratic_classes,
)
from .groups import PermGroup, closure_images
from .projline import ProjLine
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


# the decimal digits of the point names 0..255, hundreds, tens and ones;
# NUL marks a digit a name does not have.  Built from a few byte strings,
# so that importing the module stays cheap.
_TEN_OF_EACH = b"".join(bytes([d]) * 10 for d in b"0123456789")  # tens of 0..99
_HUNDREDS = bytes(100) + b"1" * 100 + b"2" * 56
_TENS = (bytes(10) + _TEN_OF_EACH[10:] + _TEN_OF_EACH * 2)[:256]
_ONES = (b"0123456789" * 26)[:256]


def element_set_hash(images_set) -> str:
    """Canonical digest of a group's element set on up to 256 points, given
    as image tuples or ``bytes``: the SHA-256 of the sorted elements' point
    names, comma-joined, semicolon-separated.  Sorted ``bytes`` order is
    sorted tuple order at equal length.  The text is built for all elements
    at once: the concatenated elements are translated into their hundreds,
    tens and ones digit columns, which are interleaved with the separators
    by slice assignment, and the NULs of missing digits are dropped."""
    elements = sorted(images_set)
    n = len(elements[0]) if elements else 0
    if elements and not isinstance(elements[0], bytes):
        elements = list(map(bytes, elements))
    flat = b"".join(elements)
    text = bytearray(4 * len(flat))
    text[0::4] = flat.translate(_HUNDREDS)
    text[1::4] = flat.translate(_TENS)
    text[2::4] = flat.translate(_ONES)
    text[3::4] = (b"," * (n - 1) + b";") * len(elements)
    return hashlib.sha256(text[:-1].translate(None, b"\0")).hexdigest()


def _base_generators(line: ProjLine, p: int) -> list[bytes]:
    return [
        bytes(line.translation(1)),
        bytes(line.scaling(quadratic_classes(p).square_generator)),
    ]


def _unit_words(swap: bytes, table: bytes, shifts: list[bytes]):
    """s^2 * u_{s(x)}^-1 * s * u_x = s*(z-s(x))*s*(z+x)*s for each unit x, in
    order, with ``table`` the swap's and ``shifts[k]`` the table of z+k:
    once s^2 lies in B, each lies in B exactly when the Schreier generator
    of s at x does (module docstring).  Lazy, so a test that stops at the
    first word outside B builds no more."""
    for x in range(1, len(shifts)):
        word = swap.translate(shifts[x]).translate(table)
        yield word.translate(shifts[-swap[x]]).translate(table)


def _decide_candidates(base: list[bytes], base_elements, target: int, swap_candidates):
    """Decide each candidate swap in turn, yielding (decision, found):
    ``found`` is (chain, closure) for a NEW group and None otherwise;
    ``base`` is z+1 and sigma, and ``base_elements`` the group B they
    generate, all as ``bytes``.  Non-bijective candidates arrive as None
    and are REJECTED.  A swap is tested by the Schreier generators of G_inf
    that can lie outside B, in the module docstring's order: s^2, then
    s^-1*sigma*s as s*sigma*s, then the unit words.  One outside B rejects
    it.  A swap whose first two lie in B is a DUPLICATE when a found group
    holds it, before any unit word is built."""
    translation, sigma = base
    pad = bytes(range(len(translation), 256))
    shifts = [bytes(range(256))]  # the tables of z+k = (z+1)^k, k = 0..p-1
    for _ in range(len(translation) - 2):
        shifts.append(shifts[-1].translate(translation + pad))
    sigma_table = sigma + pad
    closures: list[frozenset] = []
    for swap in swap_candidates:
        if swap is None:
            yield REJECTED, None
            continue
        table = swap + pad
        if (
            swap.translate(table) not in base_elements
            or swap.translate(sigma_table).translate(table) not in base_elements
        ):
            yield REJECTED, None
            continue
        if any(swap in closure for closure in closures):
            yield DUPLICATE, None
            continue
        if not all(word in base_elements for word in _unit_words(swap, table, shifts)):
            yield REJECTED, None
            continue
        gens = [*base, swap]
        # the Schreier test proved |<B, s>| = (p+1) * |B| = target (module
        # docstring), so the chain may stop there
        group = PermGroup(gens, order=target)
        if group.order() != target:
            raise SearchInvariantError(f"complete chain has order {group.order()}, not {target}")
        closure = closure_images(gens, limit=target)
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

    neg_recip = bytes(line.neg_reciprocal())
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
    (n, c, d), as ``bytes``.  Non-bijective combinations yield None but
    still count as examined candidates.

    Per exponent one ``bytes`` holds z^n at each unit z, offset by p on
    the non-squares, so one ``translate`` through a table of c*x for x < p
    and d*x for the next p values makes the units' row for (c, d)."""
    half = (p - 1) // 2
    squares = set(quadratic_classes(p).squares)
    exponents = [
        n for n in range(1, p - 1, 2) if (n * n - 1) % half == 0
    ]
    head, tail = bytes([p]), bytes([0])  # 0 -> inf, inf -> 0
    scaled = [bytes(c * x % p for x in range(p)) for c in range(p)]
    padded = [row + bytes(256 - 2 * p) for row in scaled]
    for n in exponents:
        powers = bytes(pow(z, n, p) + (0 if z in squares else p) for z in range(1, p))
        for c in range(1, p):
            for d in range(1, p):
                row = powers.translate(scaled[c] + padded[d])
                yield head + row + tail if len(set(row)) == p - 1 else None


def _full_candidates(p: int):
    """Every bijection with 0 and inf exchanged, lexicographic over the
    arrangements of the units, as ``bytes``."""
    head, tail = bytes([p]), bytes([0])
    for arrangement in itertools.permutations(range(1, p)):
        yield head + bytes(arrangement) + tail


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
