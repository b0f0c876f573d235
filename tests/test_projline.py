import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2kit.fields import Field, field_of_order
from psl2kit.projline import (
    DomainMismatch,
    NonUnitDeterminant,
    NotABijection,
    OverlappingCycles,
    ParseError,
    ProjLine,
    UnknownPoint,
    WrongLength,
    ZeroScaling,
    compose_images,
)
from psl2kit.psl2 import Mat2

from conftest import mat_neg, reference_cycle_notation, sl2_matrices


def test_perm_from_images(line7, line5):
    identity = line5.perm(range(6))
    assert identity.is_identity()
    involution = line7.perm((7, 3, 6, 1, 5, 4, 2, 0))
    assert involution.cycle_notation() == "(0 inf)(1 3)(2 6)(4 5)"
    with pytest.raises(NotABijection):
        line7.perm((0, 0, 2, 3, 4, 5, 6, 7))
    with pytest.raises(WrongLength):
        line7.perm((0, 1, 2))


def test_from_cycles(line7):
    lam = line7.from_cycles("(0 inf)(1 5)(2 3)(4 6)")
    assert lam(0) == line7.infinity and lam(1) == 5 and lam(4) == 6
    seven_cycle = line7.from_cycles("(0 1 2 3 4 5 6)")
    assert seven_cycle == line7.translation(1)
    assert line7.from_cycles("").is_identity()
    assert line7.from_cycles("()").is_identity()


def test_from_cycles_errors(line7):
    with pytest.raises(ParseError):
        line7.from_cycles("(0 1")
    with pytest.raises(ParseError):
        line7.from_cycles("0 1")
    with pytest.raises(ParseError):
        line7.from_cycles("(0 x)")
    with pytest.raises(OverlappingCycles):
        line7.from_cycles("(0 1)(1 2)")
    with pytest.raises(UnknownPoint):
        line7.from_cycles("(0 9)")


def test_compose_convention(line7):
    a = line7.translation(1)
    b = line7.translation(2)
    assert a * b == line7.translation(3)
    s = line7.neg_reciprocal()
    assert (s * s).is_identity()
    for x in line7.points():
        assert (a * s)(x) == a(s(x))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_compose_images_short_degrees(n):
    # itemgetter takes no empty index list and returns a bare item for one
    # index, so the kernel must still give a tuple at these degrees
    for a in permutations(range(n)):
        for b in permutations(range(n)):
            out = compose_images(a, b)
            assert type(out) is tuple
            assert out == tuple(a[i] for i in b)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(min_value=0, max_value=40))
def test_compose_images_matches_pointwise(data, n):
    a = tuple(data.draw(st.permutations(range(n))))
    b = tuple(data.draw(st.permutations(range(n))))
    out = compose_images(a, b)
    assert type(out) is tuple
    assert out == tuple(a[i] for i in b)


def test_inverse(line5, line7):
    cycle = line5.from_cycles("(0 1 2 3 4)")
    assert cycle.inverse() == line5.from_cycles("(0 4 3 2 1)")
    for perm in (line7.translation(3), line7.neg_reciprocal(), line7.scaling(5)):
        assert (perm * perm.inverse()).is_identity()


def test_domain_mismatch(line5, line7):
    with pytest.raises(DomainMismatch):
        line5.translation(1) * line7.translation(1)


def test_cycle_decomposition_examples(line5, line7):
    line13 = ProjLine.over_prime(13)
    negation = line13.scaling(12)
    assert negation.fixed_points() == frozenset({0, line13.infinity})
    neg_recip5 = line5.neg_reciprocal()
    assert neg_recip5.cycles() == ((0, 5), (1, 4))
    assert neg_recip5.fixed_points() == frozenset({2, 3})
    assert neg_recip5.order() == 2
    identity = line7.identity()
    assert len(identity.fixed_points()) == 8
    assert identity.order() == 1
    assert identity.cycle_notation() == "()"


def test_cycles_canonical_form(line7):
    perm = line7.from_cycles("(4 5)(2 6)(0 inf)(1 3)")
    assert perm.cycle_notation() == "(0 inf)(1 3)(2 6)(4 5)"
    for cycle in perm.cycles():
        assert cycle[0] == min(cycle)
    starts = [c[0] for c in perm.cycles()]
    assert starts == sorted(starts)


@settings(max_examples=200, deadline=None)
@given(images=st.permutations(tuple(range(8))))
def test_cycle_notation_round_trip(images):
    line = ProjLine.over_prime(7)
    perm = line.perm(images)
    assert line.from_cycles(perm.cycle_notation()) == perm


@settings(max_examples=300, deadline=None)
@given(data=st.data(), q=st.sampled_from([2, 3, 4, 5, 7, 9, 11, 13]))
def test_cycle_notation_and_order_match_cycles(data, q):
    # lines over GF(p), GF(4) and GF(9)
    line = ProjLine(field_of_order(q))
    perm = line.perm(data.draw(st.permutations(tuple(range(line.size)))))
    assert perm.cycle_notation() == reference_cycle_notation(perm)
    assert perm.order() == math.lcm(*(len(c) for c in perm.cycles()), 1)
    assert line.point_names == tuple(
        "inf" if pt == line.infinity else str(pt) for pt in line.points()
    )


def test_identity_notation_and_order():
    for q in (2, 4, 7, 9):
        identity = ProjLine(field_of_order(q)).identity()
        assert identity.cycle_notation() == reference_cycle_notation(identity) == "()"
        assert identity.order() == 1


def test_moebius_examples(line7):
    f = line7.field
    translation = line7.moebius(1, 1, 0, 1)
    assert translation == line7.translation(1)
    inv = line7.moebius(0, 6, 1, 0)
    # oracle: evaluate -1/z at every point
    images = []
    for z in range(7):
        images.append(line7.infinity if z == 0 else (-pow(z, 5, 7)) % 7)
    images.append(0)
    assert inv.images == tuple(images)
    assert inv.cycle_notation() == "(0 inf)(1 6)(2 3)(4 5)"
    scaling = line7.moebius(2, 0, 0, f.inv(2))
    assert scaling == line7.scaling(4)  # projective action scales by a^2


def test_moebius_determinant_enforced(line7):
    with pytest.raises(NonUnitDeterminant):
        line7.moebius(1, 0, 0, 2)
    with pytest.raises(NonUnitDeterminant):
        line7.moebius(1, 1, 1, 1)


def test_moebius_kernel_is_center(line7):
    rng = random.Random(11)
    for _ in range(50):
        m = _random_sl2_map(line7.field, rng)
        assert line7.moebius(*m.entries()) == line7.moebius(*mat_neg(m).entries())


def _random_sl2_map(field, rng) -> Mat2:
    while True:
        a, b, c = (rng.randrange(field.order) for _ in range(3))
        if a != 0:
            d = field.div(field.add(1, field.mul(b, c)), a)
            return Mat2(field, a, b, c, d)
        if b != 0:
            c = field.neg(field.inv(b))
            return Mat2(field, a, b, c, rng.randrange(field.order))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
def test_moebius_homomorphism_random_pairs(p):
    line = ProjLine.over_prime(p)
    rng = random.Random(p)
    for _ in range(100):
        m1 = _random_sl2_map(line.field, rng)
        m2 = _random_sl2_map(line.field, rng)
        assert m1.det == m2.det == 1
        assert line.moebius(*m1.mul(m2).entries()) == (
            line.moebius(*m1.entries()) * line.moebius(*m2.entries())
        )


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19])
def test_nonidentity_moebius_fixes_at_most_two_points(p):
    line = ProjLine.over_prime(p)
    for mat in sl2_matrices(line.field):
        perm = line.moebius(mat.a, mat.b, mat.c, mat.d)
        if not perm.is_identity():
            assert len(perm.fixed_points()) <= 2


def test_translation_scaling(line7):
    assert line7.translation(1).cycle_notation() == "(0 1 2 3 4 5 6)"
    assert line7.translation(1)(line7.infinity) == line7.infinity
    assert line7.scaling(1).is_identity()
    assert line7.scaling(3).order() == 6  # 3 generates the units mod 7
    assert line7.scaling(2).fixed_points() == frozenset({0, line7.infinity})
    with pytest.raises(ZeroScaling):
        line7.scaling(0)
    with pytest.raises(ZeroScaling):
        line7.scaling(7)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19])
def test_group_axioms_random_triples(p):
    line = ProjLine.over_prime(p)
    rng = random.Random(100 + p)
    points = list(line.points())
    perms = []
    for _ in range(30):
        images = points[:]
        rng.shuffle(images)
        perms.append(line.perm(images))
    identity = line.identity()
    for _ in range(1000):
        a, b, c = (rng.choice(perms) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * identity == a == identity * a
        assert (a * a.inverse()).is_identity()


def test_extension_field_line():
    line9 = ProjLine(field_of_order(9))
    assert line9.field == Field(3, 2)
    assert line9.size == 10
    t = line9.translation(1)
    assert t.order() == 3  # additive order of 1 in characteristic 3
    s = line9.neg_reciprocal()
    assert (s * s).is_identity()
