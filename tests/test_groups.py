import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from psl2kit.fields import CapExceeded, Field, NotPrime, field_of_order, is_prime, primitive_root
from psl2kit.groups import (
    DEFAULT_ENUMERATION_CAP,
    OrderLimitExceeded,
    PermGroup,
    PrimeDoesNotDivideOrder,
    SeedNotInGroup,
    SylowGrowthFails,
    _conjugate,
    _conjugator,
    closure_images,
)
from psl2kit.projline import DomainMismatch, Permutation, ProjLine, compose_images

from conftest import (
    brute_closure,
    exceptional_cached,
    line_over,
    psl2_cached,
    reference_is_simple,
    regular8_cached,
    symmetric_group,
)


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
        PermGroup([line5.identity()]),
        PermGroup([line7.translation(1)]),
        symmetric_group(line5),
        psl2_cached(7).point_stabilizer(line7.infinity),
        # the second level's orbit grows after that level was closed once, so
        # its old generators must be re-tested on the new orbit points
        PermGroup(
            [
                line5.perm((0, 4, 2, 3, 1, 5)),
                line5.perm((3, 4, 2, 5, 1, 0)),
                line5.perm((0, 1, 3, 2, 4, 5)),
            ]
        ),
    ]
    for group in catalog:
        if group.order() > 5000:
            continue
        oracle = brute_closure([g.images for g in group.generators])
        assert group.order() == len(oracle)
        assert group.element_set() == frozenset(oracle)


def test_library_closure_matches_oracle(line7):
    gens = [g.images for g in psl2_cached(7).generators]
    assert closure_images(gens) == frozenset(brute_closure(gens))
    assert closure_images(gens, limit=167) is None
    assert closure_images(gens, limit=168) is not None


def test_deterministic_rebuild(line7):
    a = PermGroup([line7.translation(1), line7.neg_reciprocal()])
    b = PermGroup([line7.translation(1), line7.neg_reciprocal()])
    assert a.base == b.base
    assert [e.images for e in a.elements()] == [e.images for e in b.elements()]


def test_membership(line7):
    group = psl2_cached(7)
    rng = random.Random(7)
    gens = group.generators
    for _ in range(1000):
        word = [rng.choice(gens) for _ in range(rng.randrange(1, 12))]
        product = word[0]
        for w in word[1:]:
            product = product * w
        assert group.contains(product)
    points = list(line7.points())
    element_set = group.element_set()
    rejected = 0
    while rejected < 1000:
        images = points[:]
        rng.shuffle(images)
        if tuple(images) not in element_set:
            assert not group.contains(line7.perm(images))
            rejected += 1


def test_membership_examples(line7):
    group = psl2_cached(7)
    assert group.contains(line7.from_cycles("(0 inf)(1 6)(2 3)(4 5)"))
    assert not group.contains(line7.from_cycles("(0 inf)(1 3)(2 6)(4 5)"))
    assert PermGroup([line7.identity()]).order() == 1


def test_elements_sorted_and_capped(line5):
    group = psl2_cached(5)
    elems = group.elements()
    assert len(elems) == 60
    images = [e.images for e in elems]
    assert images == sorted(images)
    assert len(set(images)) == 60
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
    cycle = line11.perm(tuple(range(1, 12)) + (0,))
    with pytest.raises(CapExceeded, match="^conjugacy class size 20001 exceeds enumeration cap 20000$"):
        group.conjugacy_class_of(cycle)
    swap = line11.perm((1, 0) + tuple(range(2, 12)))
    members = group.conjugacy_class_of(swap)
    assert len(members) == 66 and swap.images in members


def test_orbits_and_transitivity(line7):
    translations = PermGroup([line7.translation(1)])
    assert not translations.is_transitive()
    assert translations.orbit(0) == frozenset(range(7))
    assert translations.orbit(line7.infinity) == frozenset({line7.infinity})
    assert psl2_cached(7).is_doubly_transitive()
    assert exceptional_cached(3).is_doubly_transitive()
    assert not translations.is_doubly_transitive()


def _transitivity_by_definition(group):
    """Both properties from their definitions: the orbit of 0 under G, and
    the orbit of 1 under the separately built stabilizer of 0."""
    transitive = len(group.orbit(0)) == group.degree
    doubly = transitive and len(group.point_stabilizer(0).orbit(1)) == group.degree - 1
    return transitive, doubly


def _stabilizer_of_3_based_at_3():
    # fixes its first base point, and is transitive on the other 7 points
    return PermGroup(psl2_cached(7).point_stabilizer(3).generators, base_prefix=(3,))


@pytest.mark.parametrize(
    "build,expected",
    [
        (lambda: PermGroup([line_over(7).identity()]), (False, False)),
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
    assert all(g(line7.infinity) == line7.infinity for g in stab.generators)
    assert all(group.contains(g) for g in stab.generators)
    trivial = PermGroup([line7.translation(1)]).point_stabilizer(0)
    assert trivial.order() == 1
    for pt in group.base:
        assert group.order() == len(group.orbit(pt)) * group.point_stabilizer(pt).order()


def test_conjugacy_classes_psl2_5():
    group = psl2_cached(5)
    classes = group.conjugacy_classes()
    assert sorted(c.size for c in classes) == [1, 12, 12, 15, 20]
    assert sum(c.size for c in classes) == 60
    # independent oracle: conjugate each element by every element
    elems = [e.images for e in group.elements()]
    elem_perms = group.elements()
    seen = set()
    sizes = []
    for e in elem_perms:
        if e.images in seen:
            continue
        orbit = {(g * e * g.inverse()).images for g in elem_perms}
        seen.update(orbit)
        sizes.append(len(orbit))
    assert sorted(sizes) == [1, 12, 12, 15, 20]
    for cls in classes:
        assert group.order() % cls.size == 0


def test_conjugacy_classes_trivial(line7):
    trivial = PermGroup([line7.identity()])
    classes = trivial.conjugacy_classes()
    assert len(classes) == 1 and classes[0].size == 1


def test_involution_class_size_psl2_7(line7):
    group = psl2_cached(7)
    involution = line7.neg_reciprocal()
    assert len(group.conjugacy_class_of(involution)) == 21
    sizes = sorted(c.size for c in group.conjugacy_classes())
    assert sizes == [1, 21, 24, 24, 42, 56]


def test_normal_closure(line7):
    group = psl2_cached(7)
    for cls in group.conjugacy_classes():
        if not cls.representative.is_identity():
            closure = group.normal_closure([cls.representative])
            assert closure.order() == 168
    exceptional = exceptional_cached(3)
    fpf = next(
        e for e in exceptional.elements() if e.order() == 2 and not e.fixed_points()
    )
    closure = exceptional.normal_closure([fpf])
    assert closure.order() == 8
    assert exceptional.is_normal(closure)
    trivial = PermGroup([line7.identity()])
    assert group.is_normal(trivial)
    with pytest.raises(SeedNotInGroup):
        group.normal_closure([line7.from_cycles("(0 inf)(1 3)(2 6)(4 5)")])


def test_is_normal_rejects_noncontained(line7):
    group = PermGroup([line7.translation(1)])
    outside = PermGroup([line7.neg_reciprocal()])
    with pytest.raises(SeedNotInGroup):
        group.is_normal(outside)


def _reference_normal_closure_generators(group, seeds):
    """The Permutation-product loop: g * s * g^-1 for each generator g (outer)
    and each of the last round's new generators s (inner), keeping those
    outside the closure so far; returns the generating sequence as images."""
    gens = [s.images for s in dict.fromkeys(seeds) if not s.is_identity()]
    frontier = gens
    while frontier:
        closure = PermGroup([Permutation(img) for img in gens])
        new = [
            (g * Permutation(s) * g.inverse()).images
            for g in group.generators
            for s in frontier
        ]
        frontier = [
            t for t in dict.fromkeys(new) if not closure.contains(Permutation(t))
        ]
        gens += frontier
    return gens


@st.composite
def groups_with_seeds(draw):
    """A group from 1-3 generators, any permutations of the 6-point line or
    elements of PSL(2,7) on the 8-point one (small enough to conjugate by
    every element), and 1-3 seeds drawn from it."""
    if draw(st.booleans()):
        line = line_over(5)
        perms = st.permutations(range(line.size)).map(lambda img: line.perm(tuple(img)))
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
    conjugates = [(g * s * g.inverse()).images for g in elems for s in seeds]
    assert closure.element_set() == frozenset(brute_closure(conjugates))
    if closure.order() > 1:
        assert [g.images for g in closure.generators] == (
            _reference_normal_closure_generators(group, seeds)
        )
    assert group.is_normal(closure)
    sub = PermGroup(seeds)
    members = sub.element_set()
    by_definition = all(
        (g * h * g.inverse()).images in members for g in elems for h in sub.elements()
    )
    assert group.is_normal(sub) == by_definition


def test_is_simple(line7):
    assert psl2_cached(5).is_simple()
    assert not exceptional_cached(3).is_simple()
    assert PermGroup([line7.translation(1)]).is_simple()  # order 7, prime
    assert not psl2_cached(3).is_simple()
    assert not PermGroup([line7.identity()]).is_simple()


def _psl2_prime(p, *extra):
    """<z+1, -1/z> over GF(p), with the scalings by ``extra`` added."""
    line = line_over(p)
    return PermGroup([line.translation(1), line.neg_reciprocal()] + [line.scaling(a) for a in extra])


def _psl2_5_without_translations():
    """PSL(2,5) conjugated by the transposition (0 1): still 2-transitive
    and perfect, but it holds no translation, so Iwasawa's test cannot
    decide it."""
    line = line_over(5)
    swap = (1, 0, 2, 3, 4, 5)
    conj = _conjugator(swap, swap)
    return PermGroup(line.perm(_conjugate(g.images, conj)) for g in psl2_cached(5).generators)


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
    groups.append(PermGroup([line7.identity()]))
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
        perms = st.permutations(range(line.size)).map(lambda img: line.perm(tuple(img)))
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


def test_is_simple_past_the_enumeration_cap():
    for p in (37, 101):
        group = _psl2_prime(p)
        assert group.order() > DEFAULT_ENUMERATION_CAP
        assert group.is_simple()
        pgl2 = _psl2_prime(p, primitive_root(p))
        assert pgl2.derived_subgroup().order() == group.order()
        assert not pgl2.is_simple()


def test_derived_subgroup_against_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    groups = _simplicity_catalog() + [_psl2_prime(37), _psl2_prime(37, primitive_root(37))]
    for group in groups:
        oracle = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(g.images)) for g in group.generators]
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
    two_elements = [
        e.images for e in group.elements() if e.order() in (2, 4)
    ]
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
    translation_subgroup = {
        frozenset(s.images for s in sub) for sub in subgroups
    }
    powers = closure_images([line7.translation(1).images])
    assert frozenset(powers) in translation_subgroup


def test_fixed_point_bound():
    for p in (5, 7, 11, 13):
        group = psl2_cached(p)
        for e in group.elements():
            if not e.is_identity():
                assert len(e.fixed_points()) <= 2
    rng = random.Random(17)
    for p in (17, 19):
        group = psl2_cached(p)
        gens = group.generators
        for _ in range(300):
            product = gens[0]
            for _ in range(rng.randrange(1, 40)):
                product = product * rng.choice(gens)
            if not product.is_identity():
                assert len(product.fixed_points()) <= 2
        # exact pass: the orders stay under the enumeration cap
        for e in group.elements():
            if not e.is_identity():
                assert len(e.fixed_points()) <= 2


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
    g_inv = g.inverse()
    out = _conjugate(x.images, _conjugator(g.images, g_inv.images))
    assert out == (g * x * g_inv).images
    assert out == tuple(g(x(g_inv(i))) for i in range(len(out)))


def test_generators_must_share_line(line5, line7):
    with pytest.raises(DomainMismatch):
        PermGroup([line5.translation(1), line7.translation(1)])
    with pytest.raises(ValueError):
        PermGroup([])


def test_generators_of_two_degrees_raise():
    with pytest.raises(DomainMismatch):
        PermGroup([Permutation((1, 2, 0)), Permutation((1, 0))])
    with pytest.raises(DomainMismatch):
        PermGroup([Permutation((1, 2, 0))]).contains(Permutation((1, 0, 2, 3)))
    with pytest.raises(DomainMismatch):
        Permutation((1, 0)) * Permutation((1, 2, 0))


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

        return Permutation(tuple(image(v) - 1 for v in range(1, 8)))

    return PermGroup([matrix((2, 4, 1)), matrix((1, 3, 4))])


def _alternating5():
    return PermGroup([Permutation((1, 2, 3, 4, 0)), Permutation((1, 2, 0, 3, 4))])


def _symmetric7():
    return PermGroup([Permutation((1, 2, 3, 4, 5, 6, 0)), Permutation((1, 0, 2, 3, 4, 5, 6))])


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
            [combinatorics.Permutation(list(g.images)) for g in group.generators]
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
        if e.order() == ell:
            members = [group.line.identity().images]
            cur = e.images
            for _ in range(ell - 1):
                members.append(cur)
                cur = compose_images(cur, e.images)
            subgroups.add(frozenset(members))
    return sorted(subgroups, key=sorted)


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
        found = [frozenset(x.images for x in s) for s in group.sylow_subgroups(ell)]
        assert found == _cyclic_sylows(group, ell)


def test_sylow_growth_without_seed_raises(monkeypatch):
    # no element reports order 2, so the growth has nothing to start from
    monkeypatch.setattr(Permutation, "order", lambda self: 1)
    with pytest.raises(SylowGrowthFails):
        psl2_cached(7).sylow_subgroups(2)


@st.composite
def random_generators(draw):
    """1-4 random permutations of the 6-point (p=5) or 8-point (p=7) line."""
    line = line_over(draw(st.sampled_from((5, 7))))
    gens = draw(st.lists(st.permutations(range(line.size)), min_size=1, max_size=4))
    non_members = draw(st.lists(st.permutations(range(line.size)), max_size=5))
    return line, [tuple(g) for g in gens], [tuple(x) for x in non_members]


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_generators())
def test_chain_against_brute_closure(data):
    line, gens, others = data
    group = PermGroup([line.perm(g) for g in gens])
    oracle = brute_closure(gens)
    assert group.order() == len(oracle)
    assert all(group.contains(Permutation(img)) for img in oracle)
    for img in others:
        assert group.contains(Permutation(img)) == (img in oracle)
    assert group.point_stabilizer(0).order() * len(group.orbit(0)) == group.order()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_generators())
def test_transitivity_against_definitions(data):
    line, gens, _ = data
    group = PermGroup([line.perm(g) for g in gens])
    assert (group.is_transitive(), group.is_doubly_transitive()) == (
        _transitivity_by_definition(group)
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_generators(), st.data())
def test_order_limit_raises_iff_closure_exceeds(data, draws):
    line, gens, _ = data
    perms = [line.perm(g) for g in gens]
    order = PermGroup(perms).order()
    limit = draws.draw(
        st.one_of(st.integers(1, order + 2), st.sampled_from((order - 1, order, order + 1)))
        .filter(lambda n: n >= 1)
    )
    closure = closure_images(gens, limit=limit)
    try:
        group = PermGroup(perms, order_limit=limit)
    except OrderLimitExceeded:
        assert closure is None
    else:
        assert closure is not None
        assert group.order() == order == len(closure)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_generators(), st.data())
def test_closure_limit_against_brute_closure(data, draws):
    _, gens, _ = data
    size = len(brute_closure(gens))
    limit = draws.draw(
        st.one_of(st.integers(0, size + 2), st.sampled_from((size - 1, size, size + 1)))
    )
    closure = closure_images(gens, limit=limit)
    assert (closure is None) == (limit < size)
    if closure is not None:
        assert closure == frozenset(brute_closure(gens))


def test_order_limit_examples(line7, line5):
    psl = psl2_cached(7)
    capped = PermGroup(psl.generators, order_limit=psl.order())
    assert capped.base == psl.base and capped.order() == psl.order() == 168
    with pytest.raises(OrderLimitExceeded):
        PermGroup(psl.generators, order_limit=167)
    # the translations alone reach 7 points; the limit is on the order, not the orbit
    assert PermGroup([line7.translation(1)], order_limit=7).order() == 7
    # S6: here the order bound first passes 480 when closing re-extends an
    # orbit, not when an insertion grows one
    s6 = [line5.perm(g) for g in ((4, 1, 3, 2, 5, 0), (3, 2, 4, 5, 0, 1), (4, 1, 0, 2, 5, 3))]
    assert PermGroup(s6).order() == 720
    with pytest.raises(OrderLimitExceeded):
        PermGroup(s6, order_limit=480)
