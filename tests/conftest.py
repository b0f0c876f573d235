"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

from functools import lru_cache

import pytest

from psl2kit.fields import Field
from psl2kit.groups import PermGroup
from psl2kit.projline import ProjLine
from psl2kit.psl2 import Mat2, psl2_perm_group
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
    """Simplicity by class enumeration: a nontrivial group is simple when
    the normal closure of every nonidentity class representative is the
    whole group.  Enumerates the group, so it keeps the enumeration cap."""
    if group.order() <= 1:
        return False
    for cls in group.conjugacy_classes():
        if cls.representative.is_identity():
            continue
        if group.normal_closure([cls.representative]).order() != group.order():
            return False
    return True


def reference_cycle_notation(perm) -> str:
    """Canonical cycle notation assembled from ``cycles()`` and
    ``point_name``, point by point."""
    name = perm.line.point_name
    text = "".join("(" + " ".join(name(pt) for pt in c) + ")" for c in perm.cycles())
    return text or "()"


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


def untransport(labeling, point_map):
    """Carry a self-map of the 8 projective points back to GF(8), through
    the inverse of the labeling's ``to_point``."""
    from_point = [0] * 8
    for e, pt in enumerate(labeling.to_point):
        from_point[pt] = e
    images = [0] * 8
    for pt in range(8):
        images[from_point[pt]] = from_point[point_map[pt]]
    return tuple(images)


def twist_case(p: int, swap) -> str:
    """The paper's case for a pair-swapping element: p = 1 mod 4, or for
    p = 3 mod 4 the main case (swap(1) = -1) or the special one."""
    if p % 4 == 1:
        return "p1mod4"
    return "p3mod4-main" if swap(1) == p - 1 else "p3mod4-special"


def symmetric_group(line):
    """The full symmetric group on the line's points."""
    n = line.size
    swap = line.perm((1, 0) + tuple(range(2, n)))
    cycle = line.perm(tuple(range(1, n)) + (0,))
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
    involution = next(e for e in group.elements() if e.order() == 2 and not e.fixed_points())
    return group.normal_closure([involution])


@pytest.fixture
def line7() -> ProjLine:
    return line_over(7)


@pytest.fixture
def line5() -> ProjLine:
    return line_over(5)
