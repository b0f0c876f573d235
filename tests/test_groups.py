import random
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import psl2kit
from psl2kit.fields import (
    CapExceeded, Field, NotPrime, distinct_prime_factors, field_of_order, is_prime, primitive_root
)
from psl2kit.groups import (
    DEFAULT_ENUMERATION_CAP,
    OrderBoundExceeded,
    PermGroup,
    PrimeDoesNotDivideOrder,
    SeedNotInGroup,
    _conjugate,
    _conjugator,
    closure_images,
    orbit,
)
from psl2kit.projline import (
    DomainMismatch,
    NotABijection,
    ProjLine,
    compose_images,
    identity_images,
    invert_images,
    perm_order,
)
from psl2kit.psl2 import psl2_expected_order, psl2_perm_group

from conftest import (
    brute_closure,
    exceptional_cached,
    line_over,
    psl2_cached,
    reference_fixed_points,
    reference_is_simple,
    regular8_cached,
    symmetric_group,
)


def _point_orbit(group, point):
    """The orbit of ``point`` under the group's generators, by breadth-first
    search, without the chain."""
    return orbit([point], group.generators, lambda x, g: g[x])


def _conjugate_by(g, x):
    """g * x * g^-1."""
    return compose_images(compose_images(g, x), invert_images(g))


def test_build_group_examples(line7):
    assert PermGroup([line7.translation(1)]).order() == 7
    assert psl2_cached(7).order() == 168
    assert PermGroup([line7.translation(1), line7.scaling(3)]).order() == 42


def test_order_against_closure_oracle(line7, line5):
    catalog = [
        psl2_cached(5),
        psl2_cached(7),
        psl2_cached(11),
        psl2_cached(13),
        psl2_cached(3),
        exceptional_cached(3),
        exceptional_cached(5),
        PermGroup([line7.translation(1), line7.scaling(3)]),
        PermGroup([identity_images(line5.size)]),
        PermGroup([line7.translation(1)]),
        symmetric_group(line5),
        psl2_cached(7).point_stabilizer(line7.infinity),
        # the second level's orbit grows after that level was closed once, so
        # its old generators must be re-tested on the new orbit points
        PermGroup([(0, 4, 2, 3, 1, 5), (3, 4, 2, 5, 1, 0), (0, 1, 3, 2, 4, 5)]),
    ]
    for group in catalog:
        if group.order() > 5000:
            continue
        oracle = brute_closure(group.generators)
        assert group.order() == len(oracle)
        assert group.element_set() == frozenset(oracle)


def test_library_closure_matches_oracle(line7):
    gens = psl2_cached(7).generators
    assert closure_images(gens) == frozenset(brute_closure(gens))
    assert closure_images(gens, limit=167) is None
    assert closure_images(gens, limit=168) is not None


def _cycle_on(n):
    """The n-cycle z -> z+1 mod n on the points 0..n-1."""
    return tuple((i + 1) % n for i in range(n))


@pytest.mark.parametrize(
    "gens",
    [
        psl2_cached(13).generators,
        [_cycle_on(256)],
        [_cycle_on(257)],
        [ProjLine.over_prime(257).translation(1)],
        [bytes(g) for g in psl2_cached(13).generators],
        [bytes(_cycle_on(256))],
    ],
    ids=["psl2-13", "cycle-256", "cycle-257", "translations-gf257", "psl2-13-bytes",
         "cycle-256-bytes"],
)
def test_closure_on_both_sides_of_256_points(gens):
    # up to 256 points the closure grows on bytes, past them on image tuples:
    # both stop one element past the limit and return elements of the
    # generators' type, bytes for bytes and image tuples for tuples
    oracle = frozenset(map(type(gens[0]), brute_closure(list(gens))))
    assert closure_images(gens) == oracle
    assert closure_images(gens, limit=len(oracle)) == oracle
    assert closure_images(gens, limit=len(oracle) - 1) is None


def test_deterministic_rebuild(line7):
    a = PermGroup([line7.translation(1), line7.neg_reciprocal()])
    b = PermGroup([line7.translation(1), line7.neg_reciprocal()])
    assert a.base == b.base
    assert a.elements() == b.elements()


def test_membership(line7):
    group = psl2_cached(7)
    rng = random.Random(7)
    gens = group.generators
    for _ in range(1000):
        word = [rng.choice(gens) for _ in range(rng.randrange(1, 12))]
        product = word[0]
        for w in word[1:]:
            product = compose_images(product, w)
        assert group.contains(product)
    points = list(range(line7.size))
    element_set = group.element_set()
    rejected = 0
    while rejected < 1000:
        images = points[:]
        rng.shuffle(images)
        if tuple(images) not in element_set:
            assert not group.contains(tuple(images))
            rejected += 1


def test_membership_examples(line7):
    group = psl2_cached(7)
    assert group.contains(line7.from_cycles("(0 inf)(1 6)(2 3)(4 5)"))
    assert not group.contains(line7.from_cycles("(0 inf)(1 3)(2 6)(4 5)"))
    assert PermGroup([identity_images(line7.size)]).order() == 1


def test_elements_sorted_and_capped(line5):
    group = psl2_cached(5)
    elems = group.elements()
    assert len(elems) == 60
    assert list(elems) == sorted(elems)
    assert len(set(elems)) == 60
    # <z+1, -1/z> at p = 37 is PSL(2,37), past the one enumeration cap
    line37 = line_over(37)
    big = PermGroup([line37.translation(1), line37.neg_reciprocal()])
    with pytest.raises(CapExceeded, match="^order 25308 exceeds enumeration cap 20000$"):
        big.elements()
    assert DEFAULT_ENUMERATION_CAP == 20000


def test_chain_degree_capped():
    # 8209 is the first prime whose line has more points than the degree cap
    line = line_over(8209)
    with pytest.raises(CapExceeded, match="^degree 8210 exceeds degree cap 8192$"):
        PermGroup([line.translation(1)])


def test_conjugacy_class_capped():
    # S_12 on the 12 points of the p = 11 line: its 12-cycles form a class
    # of 11! elements, its transpositions one of 66
    line11 = line_over(11)
    group = symmetric_group(line11)
    cycle = tuple(range(1, 12)) + (0,)
    with pytest.raises(CapExceeded, match="^conjugacy class size 20001 exceeds enumeration cap 20000$"):
        group.conjugacy_class_of(cycle)
    swap = (1, 0) + tuple(range(2, 12))
    members = group.conjugacy_class_of(swap)
    assert len(members) == 66 and swap in members


def test_orbits_and_transitivity(line7):
    translations = PermGroup([line7.translation(1)])
    assert not translations.is_transitive()
    assert _point_orbit(translations, 0) == frozenset(range(7))
    assert _point_orbit(translations, line7.infinity) == frozenset({line7.infinity})
    assert psl2_cached(7).is_doubly_transitive()
    assert exceptional_cached(3).is_doubly_transitive()
    assert not translations.is_doubly_transitive()


def _transitivity_by_definition(group):
    """Both properties from their definitions: the orbit of 0 under G, and
    the orbit of 1 under the separately built stabilizer of 0."""
    transitive = len(_point_orbit(group, 0)) == group.degree
    doubly = transitive and len(_point_orbit(group.point_stabilizer(0), 1)) == group.degree - 1
    return transitive, doubly


def _stabilizer_of_3_based_at_3():
    # fixes its first base point, and is transitive on the other 7 points
    return PermGroup(psl2_cached(7).point_stabilizer(3).generators, base_prefix=(3,))


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: PermGroup([identity_images(8)]), (False, False)),
        (lambda: PermGroup([line_over(7).translation(1)]), (False, False)),
        (lambda: PermGroup([line_over(7).from_cycles("(0 1 2 3 4 5 6 inf)")]), (True, False)),
        (lambda: psl2_cached(7), (True, True)),
        (lambda: exceptional_cached(3), (True, True)),
        (lambda: exceptional_cached(5), (True, True)),
        (lambda: symmetric_group(line_over(5)), (True, True)),
        (lambda: PermGroup(psl2_cached(7).generators, base_prefix=(3,)), (True, True)),
        (lambda: PermGroup(psl2_cached(7).generators, base_prefix=(3, 3)), (True, True)),
        (
            lambda: PermGroup(
                [line_over(7).from_cycles("(0 1 2 3 4 5 6 inf)")], base_prefix=(3,)
            ),
            (True, False),
        ),
        (_stabilizer_of_3_based_at_3, (False, False)),
    ],
    ids=[
        "identity", "translations", "8-cycle", "psl2-7", "exceptional-3",
        "exceptional-5", "S6", "psl2-7-base-3", "psl2-7-base-3-3",
        "8-cycle-base-3", "stabilizer-base-3",
    ],
)
def test_transitivity_named_cases(build, expected):
    group = build()
    assert (group.is_transitive(), group.is_doubly_transitive()) == expected
    assert _transitivity_by_definition(group) == expected


def test_transitivity_builds_no_group(monkeypatch):
    group = psl2_cached(7)
    built = []
    init = PermGroup.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", spy)
    assert group.is_transitive() and group.is_doubly_transitive()
    assert built == []
    # 0 leads the group's own base, so the stabilizer is read off its chain
    # and wrapped in one new group; 3 needs a re-based chain first
    group.point_stabilizer(0)
    assert len(built) == 1
    group.point_stabilizer(3)
    assert len(built) == 3


def test_point_stabilizer(line7):
    group = psl2_cached(7)
    stab = group.point_stabilizer(line7.infinity)
    assert stab.order() == 21
    assert all(g[line7.infinity] == line7.infinity for g in stab.generators)
    assert all(group.contains(g) for g in stab.generators)
    trivial = PermGroup([line7.translation(1)]).point_stabilizer(0)
    assert trivial.order() == 1
    for pt in group.base:
        assert group.order() == len(_point_orbit(group, pt)) * group.point_stabilizer(pt).order()


def test_conjugacy_classes_psl2_5():
    group = psl2_cached(5)
    classes = group.conjugacy_classes()
    assert sorted(c.size for c in classes) == [1, 12, 12, 15, 20]
    assert sum(c.size for c in classes) == 60
    # independent oracle: conjugate each element by every element
    elems = group.elements()
    seen = set()
    sizes = []
    for e in elems:
        if e in seen:
            continue
        conjugates = {_conjugate_by(g, e) for g in elems}
        seen.update(conjugates)
        sizes.append(len(conjugates))
    assert sorted(sizes) == [1, 12, 12, 15, 20]
    for cls in classes:
        assert group.order() % cls.size == 0


def test_conjugacy_classes_trivial(line7):
    trivial = PermGroup([identity_images(line7.size)])
    classes = trivial.conjugacy_classes()
    assert len(classes) == 1 and classes[0].size == 1


def test_involution_class_size_psl2_7(line7):
    group = psl2_cached(7)
    involution = line7.neg_reciprocal()
    assert len(group.conjugacy_class_of(involution)) == 21
    with pytest.raises(SeedNotInGroup, match=r"^\(0 inf\)\(1 3\)\(2 6\)\(4 5\) is not in the group$"):
        group.conjugacy_class_of(line7.from_cycles("(0 inf)(1 3)(2 6)(4 5)"))
    sizes = sorted(c.size for c in group.conjugacy_classes())
    assert sizes == [1, 21, 24, 24, 42, 56]


def test_normal_closure(line7):
    group = psl2_cached(7)
    for cls in group.conjugacy_classes():
        if cls.representative != identity_images(line7.size):
            closure = group.normal_closure([cls.representative])
            assert closure.order() == 168
    exceptional = exceptional_cached(3)
    fpf = next(
        e for e in exceptional.elements() if perm_order(e) == 2 and not reference_fixed_points(e)
    )
    closure = exceptional.normal_closure([fpf])
    assert closure.order() == 8
    assert exceptional.is_normal(closure)
    trivial = PermGroup([identity_images(line7.size)])
    assert group.is_normal(trivial)
    with pytest.raises(SeedNotInGroup, match=r"^\(0 inf\)\(1 3\)\(2 6\)\(4 5\) is not in the group$"):
        group.normal_closure([line7.from_cycles("(4 5)(0 inf)(1 3)(2 6)")])


def test_is_normal_rejects_noncontained(line7):
    group = PermGroup([line7.translation(1)])
    outside = PermGroup([line7.neg_reciprocal()])
    with pytest.raises(SeedNotInGroup, match="^subgroup is not contained in the group$"):
        group.is_normal(outside)


def _reference_normal_closure_generators(group, seeds):
    """The product loop: g * s * g^-1 for each generator g (outer) and each
    of the last round's new generators s (inner), keeping those outside the
    closure so far; returns the generating sequence."""
    gens = [s for s in dict.fromkeys(seeds) if s != identity_images(len(s))]
    frontier = gens
    while frontier:
        closure = PermGroup(gens)
        new = [_conjugate_by(g, s) for g in group.generators for s in frontier]
        frontier = [t for t in dict.fromkeys(new) if not closure.contains(t)]
        gens += frontier
    return gens


@st.composite
def groups_with_seeds(draw):
    """A group from 1-3 generators, any permutations of the 6-point line or
    elements of PSL(2,7) on the 8-point one (small enough to conjugate by
    every element), and 1-3 seeds drawn from it."""
    if draw(st.booleans()):
        line = line_over(5)
        perms = st.permutations(range(line.size)).map(tuple)
    else:
        perms = st.sampled_from(psl2_cached(7).elements())
    group = PermGroup(draw(st.lists(perms, min_size=1, max_size=3)))
    seeds = draw(st.lists(st.sampled_from(group.elements()), min_size=1, max_size=3))
    return group, seeds


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_with_seeds())
def test_normal_closure_and_is_normal_against_brute_force(data):
    group, seeds = data
    elems = group.elements()
    closure = group.normal_closure(seeds)
    conjugates = [_conjugate_by(g, s) for g in elems for s in seeds]
    assert closure.element_set() == frozenset(brute_closure(conjugates))
    if closure.order() > 1:
        assert list(closure.generators) == _reference_normal_closure_generators(group, seeds)
    assert group.is_normal(closure)
    sub = PermGroup(seeds)
    members = sub.element_set()
    by_definition = all(
        _conjugate_by(g, h) in members for g in elems for h in sub.elements()
    )
    assert group.is_normal(sub) == by_definition


def test_is_simple(line7):
    assert psl2_cached(5).is_simple()
    assert not exceptional_cached(3).is_simple()
    assert PermGroup([line7.translation(1)]).is_simple()  # order 7, prime
    assert not psl2_cached(3).is_simple()
    assert not PermGroup([identity_images(line7.size)]).is_simple()


def _psl2_prime(p, *extra):
    """<z+1, -1/z> over GF(p), with the scalings by ``extra`` added."""
    line = line_over(p)
    return PermGroup([line.translation(1), line.neg_reciprocal()] + [line.scaling(a) for a in extra])


def _psl2_5_without_translations():
    """PSL(2,5) conjugated by the transposition (0 1): still 2-transitive
    and perfect, but it holds no translation, so Iwasawa's test cannot
    decide it."""
    swap = (1, 0, 2, 3, 4, 5)
    conj = _conjugator(swap, swap)
    return PermGroup(_conjugate(g, conj) for g in psl2_cached(5).generators)


def _simplicity_catalog():
    groups = [psl2_cached(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    groups += [exceptional_cached(3), exceptional_cached(5), regular8_cached()]
    # AGL(3,2), of order 1344: perfect, 2-transitive and holding z+1, but
    # z+1 is not normal in the point stabilizer GL(3,2), and the order-8
    # subgroup is normal
    groups.append(PermGroup(exceptional_cached(3).generators + psl2_cached(7).generators))
    for p in (5, 7):
        line = line_over(p)
        groups.append(PermGroup([line.translation(1), line.scaling(primitive_root(p))]))  # affine
        groups.append(_psl2_prime(p, primitive_root(p)))  # PGL(2,p)
    line7 = line_over(7)
    groups.append(PermGroup([line7.translation(1)]))
    groups.append(PermGroup([identity_images(line7.size)]))
    groups.append(_psl2_5_without_translations())
    return groups


def test_is_simple_agrees_with_class_scan():
    for group in _simplicity_catalog():
        assert group.is_simple() == reference_is_simple(group), group.generators


@st.composite
def small_generator_sets(draw):
    """1-3 generators: any permutations of the 6-point line, or elements of
    PSL(2,7), PGL(2,7) or exceptional:3 on the 8-point one, so that the
    class scan stays under the enumeration cap."""
    if draw(st.booleans()):
        line = line_over(5)
        perms = st.permutations(range(line.size)).map(tuple)
    else:
        source = draw(st.sampled_from(("psl2", "pgl2", "exceptional")))
        ambient = {
            "psl2": psl2_cached(7),
            "pgl2": _psl2_prime(7, primitive_root(7)),
            "exceptional": exceptional_cached(3),
        }[source]
        perms = st.sampled_from(ambient.elements())
    return PermGroup(draw(st.lists(perms, min_size=1, max_size=3)))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_generator_sets())
def test_is_simple_agrees_with_class_scan_on_random_groups(group):
    assert group.is_simple() == reference_is_simple(group)


def test_is_simple_scans_no_classes(monkeypatch):
    calls = []
    scan = PermGroup.conjugacy_classes

    def spy(self):
        calls.append(self.order())
        return scan(self)

    monkeypatch.setattr(PermGroup, "conjugacy_classes", spy)
    for q in (4, 5, 7, 8, 9, 11, 13):
        assert psl2_cached(q).is_simple()
    for variant in (3, 5):
        assert not exceptional_cached(variant).is_simple()
    assert calls == []
    # without translations the criterion cannot decide, and the scan runs
    assert _psl2_5_without_translations().is_simple()
    assert calls == [60]


def test_is_simple_decides_abelian_groups_by_their_order(monkeypatch):
    # an abelian group is simple exactly when its order is prime, and
    # is_simple reads that off the order, with no class scan
    def refuse(self):
        pytest.fail("an abelian group reached the class scan")

    monkeypatch.setattr(PermGroup, "conjugacy_classes", refuse)
    for p in (101, 211, 401):
        cycle = tuple(range(1, p)) + (0,)
        assert PermGroup([cycle]).is_simple()
    # C2^15 on 30 points: 32768 elements, past the enumeration cap
    swaps = [tuple(j ^ 1 if j // 2 == i else j for j in range(30)) for i in range(15)]
    c2_15 = PermGroup(swaps)
    assert c2_15.order() == 2**15 > DEFAULT_ENUMERATION_CAP
    assert not c2_15.is_simple()
    c2_c3 = PermGroup([(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)])
    assert c2_c3.order() == 6 and not c2_c3.is_simple()


def test_is_simple_past_the_enumeration_cap():
    for p in (37, 101):
        group = _psl2_prime(p)
        assert group.order() > DEFAULT_ENUMERATION_CAP
        assert group.is_simple()
        pgl2 = _psl2_prime(p, primitive_root(p))
        assert pgl2.derived_subgroup().order() == group.order()
        assert not pgl2.is_simple()


def _basis_translations(line):
    return [line.translation(line.field.p**i) for i in range(line.field.degree)]


@lru_cache(maxsize=None)
def _pgaml2(q):
    """PGammaL(2,q): the basis translations, the scaling by a primitive
    element, the Frobenius z -> z^p and -1/z."""
    field = field_of_order(q)
    line = ProjLine(field)
    frobenius = (*(field.pow(z, field.p) for z in field.elements()), line.infinity)
    extra = [line.scaling(field.primitive_element()), frobenius, line.neg_reciprocal()]
    return PermGroup(_basis_translations(line) + extra)


@pytest.mark.parametrize("q, order", [(4, 120), (8, 1512), (9, 1440)])
def test_iwasawa_fails_when_the_two_point_stabilizer_is_nonabelian(q, order):
    # 2-transitive, holding T and normalizing it in the stabilizer of inf,
    # but the stabilizer of 0 and inf, a semidirect product of the scalings
    # and the Frobenius, is nonabelian: the condition that stands in for
    # "the normal closure of T is G" fails
    group = _pgaml2(q)
    assert group.order() == order and group.is_doubly_transitive()
    line = group.line
    assert all(group.contains(line.translation(a)) for a in range(q))
    assert not group._iwasawa_holds()
    assert group.derived_subgroup().order() < order and not group.is_simple()


def test_iwasawa_holds_says_nothing_without_perfectness():
    # the order-168 groups meet every condition the criterion reads off the
    # chain; is_simple refutes them by their derived subgroup of order 56
    for variant in (3, 5):
        group = exceptional_cached(variant)
        assert group._iwasawa_holds()
        assert group.derived_subgroup().order() == 56 and not group.is_simple()


def test_is_simple_runs_one_normal_closure_on_psl2(monkeypatch):
    # the derived subgroup's: Iwasawa's criterion reads G's chain alone
    calls = []
    closure = PermGroup.normal_closure
    monkeypatch.setattr(
        PermGroup, "normal_closure", lambda self, seeds: calls.append(1) or closure(self, seeds)
    )
    for q in range(4, 65):
        if len(distinct_prime_factors(q)) == 1:
            calls.clear()
            assert psl2_perm_group(q).is_simple()
            assert calls == [1], q


@st.composite
def groups_over_translations(draw):
    """The translations of GF(8) or GF(9) and 1-2 elements of PGammaL(2,q):
    at most 1512 elements, so the class scan stays under the cap."""
    q = draw(st.sampled_from((8, 9)))
    extra = draw(st.lists(st.sampled_from(_pgaml2(q).elements()), min_size=1, max_size=2))
    return PermGroup(_basis_translations(ProjLine(field_of_order(q))) + extra)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(groups_over_translations())
def test_is_simple_agrees_with_class_scan_over_translations(group):
    assert group.is_simple() == reference_is_simple(group)


def test_derived_subgroup_against_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    groups = _simplicity_catalog() + [_psl2_prime(37), _psl2_prime(37, primitive_root(37))]
    for group in groups:
        oracle = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g)) for g in group.generators]
        )
        derived = group.derived_subgroup().order()
        assert derived == oracle.derived_subgroup().order()
        assert (derived == group.order()) == oracle.is_perfect


def test_sylow_counts(line7):
    assert psl2_cached(7).sylow_count(7) == 8
    assert psl2_cached(5).sylow_count(5) == 6
    assert PermGroup([line7.translation(1)]).sylow_count(7) == 1
    with pytest.raises(PrimeDoesNotDivideOrder):
        psl2_cached(7).sylow_count(11)


def test_sylow_counts_congruence():
    for q, ell in [(5, 2), (5, 3), (5, 5), (7, 2), (7, 3), (7, 7), (11, 11), (13, 13)]:
        group = psl2_cached(q)
        count = group.sylow_count(ell)
        assert count % ell == 1 % ell
        order = group.order()
        power = 1
        while order % ell == 0:
            order //= ell
            power *= ell
        assert (group.order() // power) % count == 0


def test_sylow_general_case_normal_subgroup():
    # the exceptional group's Sylow 2-subgroup is its normal order-8 subgroup
    assert exceptional_cached(3).sylow_count(2) == 1
    assert psl2_cached(3).sylow_count(2) == 1  # V4 inside A4


def test_sylow_two_subgroups_psl2_7_against_pair_closure(line7):
    group = psl2_cached(7)
    count = group.sylow_count(2)
    # oracle: every dihedral order-8 subgroup is generated by two elements
    two_elements = [e for e in group.elements() if perm_order(e) in (2, 4)]
    subgroups = set()
    for x in two_elements:
        for y in two_elements:
            closed = closure_images([x, y], limit=8)
            if closed is not None and len(closed) == 8:
                subgroups.add(closed)
    assert count == len(subgroups) == 21


def test_sylow_subgroup_structure(line7):
    group = psl2_cached(7)
    subgroups = group.sylow_subgroups(7)
    assert len(subgroups) == 8
    powers = closure_images([line7.translation(1)])
    assert frozenset(powers) in set(subgroups)


def test_fixed_point_bound():
    for p in (5, 7, 11, 13):
        group = psl2_cached(p)
        for e in group.elements():
            if e != group._ident:
                assert len(reference_fixed_points(e)) <= 2
    rng = random.Random(17)
    for p in (17, 19):
        group = psl2_cached(p)
        gens = group.generators
        for _ in range(300):
            product = gens[0]
            for _ in range(rng.randrange(1, 40)):
                product = compose_images(product, rng.choice(gens))
            if product != group._ident:
                assert len(reference_fixed_points(product)) <= 2
        # exact pass: the orders stay under the enumeration cap
        for e in group.elements():
            if e != group._ident:
                assert len(reference_fixed_points(e)) <= 2


@pytest.mark.parametrize(
    "build,arg",
    [(psl2_cached, 7), (exceptional_cached, 3), (exceptional_cached, 5)],
    ids=["psl2-7", "exceptional-3", "exceptional-5"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_conjugate_is_g_x_g_inverse(build, arg, data):
    elements = build(arg).elements()
    g = data.draw(st.sampled_from(elements))
    x = data.draw(st.sampled_from(elements))
    g_inv = invert_images(g)
    out = _conjugate(x, _conjugator(g, g_inv))
    assert out == compose_images(compose_images(g, x), g_inv)
    assert out == tuple(g[x[g_inv[i]]] for i in range(len(out)))


def test_generators_must_share_line(line5, line7):
    with pytest.raises(DomainMismatch):
        PermGroup([line5.translation(1), line7.translation(1)])
    with pytest.raises(ValueError):
        PermGroup([])


def test_generators_of_two_degrees_raise():
    with pytest.raises(DomainMismatch):
        PermGroup([(1, 2, 0), (1, 0)])
    with pytest.raises(DomainMismatch):
        PermGroup([(1, 2, 0)]).contains((1, 0, 2, 3))


def test_degree_zero_generator_raises():
    with pytest.raises(NotABijection, match="n = 0"):
        PermGroup([()])


def test_non_bijective_generator_raises_before_any_chain():
    # unchecked, this generator's chain never closes and grew past 5.8 GB, so
    # a regression must fail in a child with capped memory and a timeout
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from psl2kit.groups import PermGroup\n"
        "from psl2kit.projline import NotABijection\n"
        "try:\n"
        "    PermGroup([(1, 1, 0)])\n"
        "except NotABijection as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(psl2kit.__file__).parent.parent)
    child = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "a generator is not a permutation of n >= 1 points, n = 3\n"


@st.composite
def image_tuples(draw):
    """1 to 3 generators on n <= 7 points: permutations, or any tuples over
    0..n-1, which are mostly not bijections."""
    n = draw(st.integers(1, 7))
    drawn = st.one_of(
        st.permutations(range(n)).map(tuple),
        st.tuples(*[st.integers(0, n - 1)] * n),
    )
    return draw(st.lists(drawn, min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(image_tuples())
def test_generators_are_checked_to_be_bijections(gens):
    points = list(range(len(gens[0])))
    if all(sorted(g) == points for g in gens):
        assert PermGroup(gens).order() == len(closure_images(gens))
    else:
        # unchecked, such a chain may never close: fail at once if one starts
        with patch.object(PermGroup, "_extend", side_effect=AssertionError("chain started")):
            with pytest.raises(NotABijection):
                PermGroup(gens)


# --- groups on n points that no projective line labels ---------------------


def _gl32():
    """GL(3,2) on the 7 nonzero vectors of GF(2)^3, vector v as point v - 1,
    generated by the coordinate cycle e1 -> e2 -> e3 -> e1 and the
    transvection e2 -> e1 + e2.  A matrix is its columns, the images of
    e1 = 1, e2 = 2 and e3 = 4."""

    def matrix(columns):
        def image(v):
            out = 0
            for bit, column in enumerate(columns):
                if v >> bit & 1:
                    out ^= column
            return out

        return tuple(image(v) - 1 for v in range(1, 8))

    return PermGroup([matrix((2, 4, 1)), matrix((1, 3, 4))])


def _alternating5():
    return PermGroup([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])


def _symmetric7():
    return PermGroup([(1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6)])


def test_gl32_on_seven_points_is_simple_through_the_class_scan(monkeypatch):
    calls = []
    scan = PermGroup.conjugacy_classes
    monkeypatch.setattr(PermGroup, "conjugacy_classes", lambda self: calls.append(1) or scan(self))
    group = _gl32()
    assert group.degree == 7 and group.base[:2] == (0, 6)
    assert group.order() == 168
    assert group.is_doubly_transitive()
    with pytest.raises(NotPrime):
        group.line  # 6 is not a prime power, so no line labels the points
    assert group.is_simple()
    assert calls == [1]
    assert reference_is_simple(group)


def test_alternating_and_symmetric_groups_on_n_points():
    a5 = _alternating5()
    assert a5.order() == 60 and a5.is_doubly_transitive()
    assert a5.is_simple() and reference_is_simple(a5)
    s7 = _symmetric7()
    assert s7.order() == 5040 and s7.is_doubly_transitive()
    assert s7.derived_subgroup().order() == 2520
    assert not s7.is_simple()


def test_groups_on_n_points_against_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    for group in (_gl32(), _alternating5(), _symmetric7()):
        oracle = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g)) for g in group.generators]
        )
        assert group.order() == oracle.order()
        assert group.is_transitive() == oracle.is_transitive()
        assert group.is_doubly_transitive() == (oracle.transitivity_degree >= 2)
        assert group.derived_subgroup().order() == oracle.derived_subgroup().order()


def test_line_of_a_group_over_another_modulus_is_the_default_line():
    # the translations by the additive basis are digit-wise, the same for
    # every modulus, so the default line proves this PSL(2,9) simple too
    line = ProjLine(Field(3, 2, (2, 1, 1)))
    group = PermGroup([line.translation(1), line.translation(3), line.neg_reciprocal()])
    assert group.line.field == field_of_order(9) != line.field
    assert [group.line.translation(a) for a in (1, 3)] == [line.translation(a) for a in (1, 3)]
    assert group.order() == 360 and group._iwasawa_holds()


def _cyclic_sylows(group, ell):
    """Direct definition for a prime dividing the order exactly once: the
    cyclic subgroups generated by the elements of order ell."""
    subgroups = set()
    for e in group.elements():
        if perm_order(e) == ell:
            members = [identity_images(group.degree)]
            cur = e
            for _ in range(ell - 1):
                members.append(cur)
                cur = compose_images(cur, e)
            subgroups.add(frozenset(members))
    return sorted(subgroups, key=sorted)


@pytest.mark.parametrize(
    "build,arg",
    [(psl2_cached, q) for q in (3, 4, 5, 7, 8, 9, 11, 13)]
    + [(exceptional_cached, 3), (exceptional_cached, 5)],
    ids=[f"psl2-{q}" for q in (3, 4, 5, 7, 8, 9, 11, 13)] + ["exceptional-3", "exceptional-5"],
)
def test_sylow_subgroups_against_sympy(build, arg):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    group = build(arg)
    oracle = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g)) for g in group.generators]
    )
    elements = list(oracle.elements)
    for ell in distinct_prime_factors(group.order()):
        sylow = list(oracle.sylow_subgroup(ell).elements)
        # every Sylow subgroup is a conjugate of sympy's, by sympy's products
        conjugates = {
            frozenset(tuple((~g * x * g).array_form) for x in sylow) for g in elements
        }
        assert set(group.sylow_subgroups(ell)) == conjugates


@pytest.mark.parametrize(
    "build,arg",
    [(psl2_cached, 5), (psl2_cached, 7), (psl2_cached, 11), (psl2_cached, 13),
     (exceptional_cached, 3), (exceptional_cached, 5)],
    ids=["psl2-5", "psl2-7", "psl2-11", "psl2-13", "exceptional-3", "exceptional-5"],
)
def test_sylow_subgroups_match_cyclic_definition(build, arg):
    group = build(arg)
    n = group.order()
    once = [ell for ell in range(2, n + 1) if is_prime(ell) and n % ell == 0 and n % (ell * ell)]
    assert once
    for ell in once:
        assert list(group.sylow_subgroups(ell)) == _cyclic_sylows(group, ell)


@st.composite
def random_generators(draw):
    """1-4 random permutations of the 6-point (p=5) or 8-point (p=7) line."""
    line = line_over(draw(st.sampled_from((5, 7))))
    gens = draw(st.lists(st.permutations(range(line.size)), min_size=1, max_size=4))
    non_members = draw(st.lists(st.permutations(range(line.size)), max_size=5))
    return [tuple(g) for g in gens], [tuple(x) for x in non_members]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_generators())
def test_chain_against_brute_closure(data):
    gens, others = data
    group = PermGroup(gens)
    oracle = brute_closure(gens)
    assert group.order() == len(oracle)
    assert all(group.contains(img) for img in oracle)
    for img in others:
        assert group.contains(img) == (img in oracle)
    assert group.point_stabilizer(0).order() * len(_point_orbit(group, 0)) == group.order()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_generators())
def test_transitivity_against_definitions(data):
    gens, _ = data
    group = PermGroup(gens)
    assert (group.is_transitive(), group.is_doubly_transitive()) == (
        _transitivity_by_definition(group)
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_generators(), st.data())
def test_closure_limit_against_brute_closure(data, draws):
    gens, _ = data
    size = len(brute_closure(gens))
    limit = draws.draw(
        st.one_of(st.integers(0, size + 2), st.sampled_from((size - 1, size, size + 1)))
    )
    closure = closure_images(gens, limit=limit)
    assert (closure is None) == (limit < size)
    if closure is not None:
        assert closure == frozenset(brute_closure(gens))



def chain_levels(group):
    """Everything a chain holds per level: base point, strong generators,
    and the transversal's points and entries in discovery order."""
    return [
        (level.point, level.gens, list(level.transversal.items()))
        for level in group._levels
    ]


def random_moebius(field, rng):
    """A uniformly drawn matrix of SL(2,q) as its map on the line."""
    while True:
        a, b, c = (rng.randrange(field.order) for _ in range(3))
        if a:
            # ad - bc = 1
            return ProjLine(field).moebius(a, b, c, field.div(field.add(1, field.mul(b, c)), a))
        if b:
            d = rng.randrange(field.order)
            return ProjLine(field).moebius(0, b, field.neg(field.inv(b)), d)


PRIME_POWERS_TO_32 = [q for q in range(2, 33) if len(distinct_prime_factors(q)) == 1]


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from(PRIME_POWERS_TO_32),
    count=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_chain_stopped_at_the_order_bound_is_the_full_chain(q, count, seed):
    # a subset of PSL(2,q)'s Moebius maps generates a subgroup of it, so
    # |PSL(2,q)| is a proven bound: the chain that stops there has the full
    # chain's base, strong generators, transversals, order and membership.
    # A rebased chain stops at the order of the complete chain it rebases,
    # and equals the full build on a random base prefix
    field = field_of_order(q)
    rng = random.Random(seed)
    gens = [random_moebius(field, rng) for _ in range(count)]
    bounded = PermGroup(gens, order=psl2_expected_order(q))
    full = PermGroup(gens)
    prefix = tuple(rng.sample(range(q + 1), rng.randint(1, 3)))
    rebased = bounded.rebased(prefix)
    # a prefix the base already starts with rebases to the chain itself
    rebuilt = full if rebased is bounded else PermGroup(gens, base_prefix=prefix)
    members = [compose_images(rng.choice(gens), rng.choice(gens)) for _ in range(10)]
    strangers = [tuple(rng.sample(range(q + 1), q + 1)) for _ in range(10)]
    for stopped, whole in ((bounded, full), (rebased, rebuilt)):
        assert stopped.base == whole.base
        assert chain_levels(stopped) == chain_levels(whole)
        assert stopped.order() == whole.order()
        for perm in members + strangers:
            assert stopped.contains(perm) == whole.contains(perm)
        assert all(stopped.contains(perm) for perm in members)


@pytest.mark.parametrize("q", [7, 16, 27, 31])
def test_chain_stops_once_the_orbit_product_reaches_the_bound(monkeypatch, q):
    # PSL(2,q)'s chain reaches its order long before every Schreier
    # generator is sifted: the stopped build sifts fewer
    field = field_of_order(q)
    line = ProjLine(field)
    gens = [line.translation(field.p**i) for i in range(field.degree)] + [line.neg_reciprocal()]
    sifts = []
    real = PermGroup._sift_images

    def counting(self, img, start=0):
        sifts.append(start)
        return real(self, img, start)

    monkeypatch.setattr(PermGroup, "_sift_images", counting)
    bounded = PermGroup(gens, order=psl2_expected_order(q))
    stopped = len(sifts)
    full = PermGroup(gens)
    assert stopped < len(sifts) - stopped
    assert chain_levels(bounded) == chain_levels(full)


def test_an_order_bound_the_orbit_product_jumps_past_raises(line7):
    # PSL(2,7) has orbit lengths at most 8, so no orbit product is the
    # prime 167: the product passes 167 without equalling it
    gens = [line7.translation(1), line7.neg_reciprocal()]
    with pytest.raises(OrderBoundExceeded, match="exceeds the proven order 167"):
        PermGroup(gens, order=167)


@pytest.mark.parametrize("bound", [169, 336, 10**9])
def test_an_order_bound_above_the_order_builds_the_full_chain(line7, bound):
    gens = [line7.translation(1), line7.neg_reciprocal()]
    assert chain_levels(PermGroup(gens, order=bound)) == chain_levels(PermGroup(gens))


def test_a_group_below_its_bound_is_built_in_full(line7):
    # the translations and scalings never reach |PSL(2,7)| = 168
    gens = [line7.translation(1), line7.scaling(2)]
    bounded = PermGroup(gens, order=168)
    assert bounded.order() == 21
    assert chain_levels(bounded) == chain_levels(PermGroup(gens))


def test_generators_after_the_bound_are_inserted_as_in_a_full_build():
    # z+1, z/(z+1), 4z and -1/z fill every orbit of PSL(2,11)'s chain as
    # they are inserted; the fifth generator is still a strong generator
    line = ProjLine.over_prime(11)
    gens = [line.translation(1), line.moebius(1, 0, 1, 1), line.scaling(4),
            line.neg_reciprocal(), compose_images(line.translation(1), line.neg_reciprocal())]
    closes = []
    real = PermGroup._close_chain
    with patch.object(PermGroup, "_close_chain", lambda self: closes.append(1) or real(self)):
        bounded = PermGroup(gens, order=660)
        assert closes == []
        full = PermGroup(gens)
    assert chain_levels(bounded) == chain_levels(full)
    assert sum(len(level.gens) for level in bounded._levels) == 5


@pytest.mark.parametrize("q", [4, 7, 9, 16, 25])
def test_normal_closure_stopped_at_the_group_order_is_the_full_closure(q):
    # a normal closure takes its group's order as its bound; built without
    # it, the closure's chain is the same
    group = psl2_cached(q)
    line = group.line
    seeds_list = [[line.translation(1)], [line.neg_reciprocal()], [group.generators[-1]]]
    bounded = [group.normal_closure(seeds) for seeds in seeds_list]
    real = PermGroup.__init__

    def unbounded(self, generators, *, base_prefix=None, order=None):
        real(self, generators, base_prefix=base_prefix)

    with patch.object(PermGroup, "__init__", unbounded):
        full = [group.normal_closure(seeds) for seeds in seeds_list]
        derived_full = group.derived_subgroup()
    assert [chain_levels(g) for g in bounded] == [chain_levels(g) for g in full]
    assert chain_levels(group.derived_subgroup()) == chain_levels(derived_full)
    assert group.derived_subgroup().order() == group.order()


def test_bytes_generators_build_the_tuple_chain(line7):
    # a chain keeps image tuples, whichever sequence type its generators come in
    gens = [line7.translation(1), line7.neg_reciprocal()]
    group = PermGroup([bytes(g) for g in gens], order=168)
    assert group.generators == tuple(gens)
    assert chain_levels(group) == chain_levels(PermGroup(gens))
    assert PermGroup([bytes(line7.translation(1)), bytes(range(8))]).order() == 7
