"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math
from functools import lru_cache

import pytest

from psl2kit import psl2
from psl2kit.fields import Field, field_of_order
from psl2kit.groups import PermGroup, orbit
from psl2kit.projline import ProjLine
from psl2kit.psl2 import Mat2, SL2Group, _row_map, psl2_perm_group, sl2_generators
from psl2kit.verify import build_exceptional


def brute_closure(gen_images):
    """Dict-based product closure, written independently of the library's
    frontier closure: the order oracle for the stabilizer chain."""
    n = len(gen_images[0])
    identity = tuple(range(n))
    elements = {identity}
    pending = [identity]
    while pending:
        current = pending.pop()
        for g in gen_images:
            product = tuple(current[g[i]] for i in range(n))
            if product not in elements:
                elements.add(product)
                pending.append(product)
    return elements


def reference_is_simple(group) -> bool:
    """Simplicity by class enumeration on plain tuple sets: a nontrivial
    group is simple when each nonidentity conjugacy class generates all of
    it.  The elements, each class (its closure under conjugation by the
    generators) and the subgroup a class generates come from
    ``brute_closure`` and set arithmetic, never from the chain, its class
    scan or its normal closures.  Enumerates the group, so keep it small."""
    gens = group.generators
    n = len(gens[0])
    identity = tuple(range(n))
    elements = brute_closure(gens)
    if len(elements) <= 1:
        return False
    conjugators = []
    for g in gens:
        g_inv = [0] * n
        for i, j in enumerate(g):
            g_inv[j] = i
        conjugators.append((g, g_inv))
    seen = {identity}
    for x in elements:
        if x in seen:
            continue
        cls, pending = {x}, [x]
        while pending:
            y = pending.pop()
            for g, g_inv in conjugators:
                conjugate = tuple(g[y[g_inv[i]]] for i in range(n))
                if conjugate not in cls:
                    cls.add(conjugate)
                    pending.append(conjugate)
        seen |= cls
        # the subgroup the class generates, closed again only when a member
        # falls outside it
        class_gens, generated = [], {identity}
        for c in cls:
            if c not in generated:
                class_gens.append(c)
                generated = brute_closure(class_gens)
        if len(generated) != len(elements):
            return False
    return True


# --- permutation oracles on image tuples --------------------------------------
# Built on ``reference_cycles`` alone; none calls into psl2kit, which
# tests/test_source.py checks.


def reference_cycles(images) -> tuple[tuple[int, ...], ...]:
    """Nontrivial cycles of an image tuple, each starting at its smallest
    member, ordered by smallest member."""
    seen = set()
    out = []
    for start in range(len(images)):
        if start in seen or images[start] == start:
            continue
        cycle = [start]
        cur = images[start]
        while cur != start:
            cycle.append(cur)
            cur = images[cur]
        seen.update(cycle)
        out.append(tuple(cycle))
    return tuple(out)


def reference_cycle_notation(images) -> str:
    """Canonical cycle notation assembled from ``reference_cycles``, point
    by point, with the last point named "inf"."""
    inf = len(images) - 1
    text = "".join(
        "(" + " ".join("inf" if pt == inf else str(pt) for pt in c) + ")"
        for c in reference_cycles(images)
    )
    return text or "()"


def reference_fixed_points(images) -> frozenset[int]:
    """The points no cycle of ``reference_cycles`` moves."""
    moved = {pt for c in reference_cycles(images) for pt in c}
    return frozenset(range(len(images))) - moved


def reference_order(images) -> int:
    """The lcm of the lengths of ``reference_cycles``."""
    return math.lcm(1, *map(len, reference_cycles(images)))


def sl2_matrices(field: Field) -> tuple[Mat2, ...]:
    """All determinant-one matrices, sorted by entry tuple."""
    f = field
    out = []
    for a in f.elements():
        if a == 0:
            # -bc = 1, d free
            for b in f.units():
                c = f.neg(f.inv(b))
                for d in f.elements():
                    out.append(Mat2(f, 0, b, c, d))
        else:
            a_inv = f.inv(a)
            for b in f.elements():
                for c in f.elements():
                    d = f.mul(a_inv, f.add(1, f.mul(b, c)))
                    out.append(Mat2(f, a, b, c, d))
    out.sort(key=Mat2.entries)
    return tuple(out)


def mat_neg(m: Mat2) -> Mat2:
    """-m, entry by entry."""
    f = m.field
    return Mat2(f, f.neg(m.a), f.neg(m.b), f.neg(m.c), f.neg(m.d))


def is_scalar(m: Mat2) -> bool:
    """Whether m is a scalar matrix: zero off the diagonal, equal on it."""
    return m.b == 0 and m.c == 0 and m.a == m.d


def brute_multiplicative_order(field: Field, x: int) -> int:
    """The least n >= 1 with x^n = 1 in the field, by multiplying x in one
    factor at a time; x must be a unit."""
    n, power = 1, x
    while power != 1:
        power = field.mul(power, x)
        n += 1
    return n


def twist_case(p: int, swap) -> str:
    """The paper's case for a pair-swapping element: p = 1 mod 4, or for
    p = 3 mod 4 the main case (swap(1) = -1) or the special one."""
    if p % 4 == 1:
        return "p1mod4"
    return "p3mod4-main" if swap[1] == p - 1 else "p3mod4-special"


def symmetric_group(line):
    """The full symmetric group on the line's points."""
    n = line.size
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return PermGroup([swap, cycle])


@lru_cache(maxsize=None)
def line_over(p: int) -> ProjLine:
    return ProjLine.over_prime(p)


@lru_cache(maxsize=None)
def psl2_cached(q: int) -> PermGroup:
    return psl2_perm_group(q)


@lru_cache(maxsize=None)
def exceptional_cached(variant: int) -> PermGroup:
    return build_exceptional(variant)


@lru_cache(maxsize=None)
def regular8_cached() -> PermGroup:
    """The normal subgroup of order 8 in exceptional:3, the closure of one
    fixed-point-free involution: regular on the 8 points, so transitive but
    not 2-transitive."""
    group = exceptional_cached(3)
    involution = next(
        e for e in group.elements() if reference_order(e) == 2 and not reference_fixed_points(e)
    )
    return group.normal_closure([involution])


@pytest.fixture
def line7() -> ProjLine:
    return line_over(7)


@pytest.fixture
def line5() -> ProjLine:
    return line_over(5)


# --- the enumerating simplicity oracle ---------------------------------------
# SL(2,q) as a set of packed codes, its conjugacy classes as orbits, and
# normal closures re-closed under shear conjugation: the path the closed-form
# certificate in ``psl2`` replaced, kept as an oracle that shares none of its
# steps.  Closures go through ``psl2.mat_closure``, looked up on the module,
# so a test can spy on them.


class SeedsOutsideSL2(ValueError):
    pass


class OnlyScalars(ValueError):
    pass


class DecompositionFails(RuntimeError):
    pass


class NotInClosure(RuntimeError):
    pass


def entries_of(code: int, q: int) -> tuple[int, int, int, int]:
    """Unpack ``Mat2.code``."""
    top, bottom = divmod(code, q * q)
    return divmod(top, q) + divmod(bottom, q)


@lru_cache(maxsize=4)
def sl2_oracle(q: int) -> SL2Group:
    """SL(2,q) as codes for any prime power q, past the enumeration cap; the
    last few are kept, each holds q**3 - q codes once built."""
    return SL2Group(field_of_order(q))


@lru_cache(maxsize=None)
def conjugation(field: Field):
    """``_conjugation(field)``, built once per field."""
    return _conjugation(field)


def _conjugation(field: Field):
    """The maps x -> g*x*g^-1 on codes, one per shear generator g, and the
    action that applies one.

    x*g^-1 is g^-1's row map.  g*y is (y^T * g^T)^T, and transposing a code
    swaps its b and c digits."""
    q = field.order
    qq = q * q

    def act(x: int, maps: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
        right, left = maps
        y = right[x // qq] * qq + right[x % qq]
        y += (y // q % q - y // qq % q) * (qq - q)  # transpose
        z = left[y // qq] * qq + left[y % qq]
        return z + (z // q % q - z // qq % q) * (qq - q)  # transpose back

    maps = [
        (_row_map(g.inverse()), _row_map(Mat2(field, g.a, g.c, g.b, g.d)))
        for g in sl2_generators(field)
    ]
    return maps, act


def matrix_normal_closure(sl2: SL2Group, seeds) -> frozenset[int]:
    """Codes of the smallest normal subgroup of SL(2,q) containing the seed
    matrices, which must lie in SL(2,q).

    A closure holding more than half of SL(2,q) is SL(2,q) by Lagrange, so
    each closure stops there and ``sl2.codes`` itself is returned."""
    f = sl2.field
    gens = list(dict.fromkeys(seeds))
    if not all(g.field == f and g.code in sl2.codes for g in gens):
        raise SeedsOutsideSL2("a seed lies outside SL(2,q)")
    half = len(sl2.codes) // 2
    maps, act = conjugation(f)
    closure = psl2.mat_closure(gens, half, row_map=sl2.row_map)
    while closure is not None:
        added = False
        for m in maps:
            for x in [g.code for g in gens]:
                t = act(x, m)
                if t not in closure:
                    gens.append(Mat2(f, *entries_of(t, f.order)))
                    closure = psl2.mat_closure(gens, half, row_map=sl2.row_map)
                    if closure is None:
                        return sl2.codes
                    added = True
        if not added:
            return closure
    return sl2.codes


def _verify_normal(sl2: SL2Group, subgroup: frozenset[int]) -> bool:
    """Whether the code set is closed under conjugation by SL(2,q); a set
    equal to ``sl2.codes`` needs no conjugation loop."""
    if subgroup == sl2.codes:
        return True
    maps, act = conjugation(sl2.field)
    return all(act(x, m) in subgroup for m in maps for x in subgroup)


@lru_cache(maxsize=4)
def corner_witness(sl2: SL2Group) -> Mat2:
    """``find_nonzero_corner_witness`` of all of SL(2,q), built once."""
    return _smallest_corner(sl2.field, sl2.codes)


def find_nonzero_corner_witness(sl2: SL2Group, subgroup: frozenset[int]) -> Mat2:
    """The member with the smallest code among those with nonzero upper-right
    entry, in a normal subgroup given by codes.

    A set closed under conjugation that holds a non-scalar x = (a b; c d)
    with b = 0 also holds one with b != 0: w*x*w^-1 = (d -c; -b a) for
    w = (0 -1; 1 0) if c != 0, and conjugating by the unit upper shear gives
    upper-right entry d - a != 0 if c = 0.  So a normal subgroup without such
    a member is central."""
    if subgroup is sl2.codes:
        return corner_witness(sl2)
    if not _verify_normal(sl2, subgroup):
        raise ValueError("subgroup is not normal in SL(2,q)")
    return _smallest_corner(sl2.field, subgroup)


def _smallest_corner(field: Field, codes) -> Mat2:
    q = field.order
    corner = min((x for x in codes if x // (q * q) % q), default=None)
    if corner is None:
        raise OnlyScalars("subgroup is central")
    return Mat2(field, *entries_of(corner, q))


def factor_with_lower_shear(sl2: SL2Group, target: Mat2, subgroup) -> tuple[Mat2, Mat2]:
    """Write target = u * B with u lower unitriangular and B in the subgroup,
    given by codes."""
    f = sl2.field
    for r in f.elements():
        u = Mat2(f, 1, 0, r, 1)
        candidate = Mat2(f, 1, 0, f.neg(r), 1).mul(target)  # u^-1 * target
        if candidate.code in subgroup:
            return u, candidate
    raise DecompositionFails(f"{target} does not factor through the normal subgroup")


def conjugacy_classes(sl2: SL2Group) -> list[tuple[Mat2, frozenset[int]]]:
    """Each conjugacy class of SL(2,q) as its smallest member and its codes,
    smallest first."""
    f = sl2.field
    maps, act = conjugation(f)
    seen: set[int] = set()
    classes = []
    for x in sorted(sl2.codes):
        if x not in seen:
            members = orbit([x], maps, act)
            seen |= members
            classes.append((Mat2(f, *entries_of(x, f.order)), members))
    return classes


def matrix_conjugacy_representatives(sl2: SL2Group) -> tuple[Mat2, ...]:
    """One representative per conjugacy class of SL(2,q), smallest first."""
    return tuple(rep for rep, _ in conjugacy_classes(sl2))


def reference_certificate(q: int) -> dict:
    """The simplicity report, in ``SimplicityCertificate.to_json_dict`` form,
    by enumeration: for each non-scalar class its normal closure, a member
    with nonzero upper-right entry, diag(a, 1/a) factored through the
    closure, and that factor's commutators with the lower shears, each
    checked to lie in the closure.  The evidence is derived once per
    distinct closure."""
    sl2 = sl2_oracle(q)
    f = sl2.field
    lower_shears = [(Mat2(f, 1, 0, r, 1), Mat2(f, 1, 0, f.neg(r), 1)) for r in f.elements()]
    lower_codes = frozenset(m.code for m, _ in lower_shears)
    upper_codes = frozenset(Mat2(f, 1, r, 0, 1).code for r in f.elements())
    a = next(x for x in f.elements() if x not in (0, 1, f.neg(1)))
    diagonal = Mat2(f, a, 0, 0, f.inv(a))

    def evidence(closure: frozenset[int]) -> dict:
        witness = find_nonzero_corner_witness(sl2, closure)
        u, B = factor_with_lower_shear(sl2, diagonal, closure)
        commutators = set()
        for shear, shear_inv in lower_shears:
            comm = shear.mul(B).mul(shear_inv).mul(B.inverse())
            if comm.code not in closure:
                raise NotInClosure(f"commutator {comm} is not in the normal closure")
            commutators.add(comm.code)
        return {
            "nonzero_corner_witness": list(witness.entries()),
            "diagonal_entry": a,
            "unitriangular": list(u.entries()),
            "closure_member": list(B.entries()),
            "closure_order": len(closure),
            "commutators_cover_shears": commutators == lower_codes,
        }

    derived: dict[frozenset[int], dict] = {}
    classes = []
    for rep, _ in conjugacy_classes(sl2):
        if is_scalar(rep):
            continue
        closure = matrix_normal_closure(sl2, [rep])
        if closure not in derived:
            derived[closure] = evidence(closure)
        classes.append({"representative": list(rep.entries()), **derived[closure]})
    verdict = bool(classes) and all(
        closure == sl2.codes and lower_codes | upper_codes <= closure
        and report["commutators_cover_shears"]
        for closure, report in derived.items()
    )
    return {"q": q, "group_order": len(sl2.codes), "verdict": verdict, "classes": classes}


def reference_product(x: Mat2, y: Mat2) -> Mat2:
    """x*y entry by entry through the validated field operations, not the
    tables ``Mat2.mul`` reads."""
    f = x.field
    return Mat2(
        f,
        f.add(f.mul(x.a, y.a), f.mul(x.b, y.c)),
        f.add(f.mul(x.a, y.b), f.mul(x.b, y.d)),
        f.add(f.mul(x.c, y.a), f.mul(x.d, y.c)),
        f.add(f.mul(x.c, y.b), f.mul(x.d, y.d)),
    )


def reference_inverse(x: Mat2) -> Mat2:
    """The inverse of a determinant-one matrix, its adjugate."""
    f = x.field
    return Mat2(f, x.d, f.neg(x.b), f.neg(x.c), x.a)


def replay_word(rep: Mat2, word, conjugator: Mat2) -> Mat2:
    """conjugator * X * conjugator^-1 for X = rep commuted with each matrix of
    the word in turn, X -> X*g*X^-1*g^-1, by ``reference_product``; every
    matrix must have determinant 1."""
    mul, inv = reference_product, reference_inverse
    x = rep
    for g in word:
        x = mul(mul(mul(x, g), inv(x)), inv(g))
    return mul(mul(conjugator, x), inv(conjugator))
