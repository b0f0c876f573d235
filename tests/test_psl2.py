import copy
import functools
import itertools
import json
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psl2kit.fields import (
    DEFAULT_ENUMERATION_CAP,
    MAX_FIELD_ORDER,
    CapExceeded,
    Field,
    IndexOutOfRange,
    NotPrime,
    distinct_prime_factors,
    field_of_order,
    is_prime,
)
from psl2kit import groups
from psl2kit.groups import PermGroup, orbit
from psl2kit.projline import DomainMismatch, ProjLine
from psl2kit import psl2
from psl2kit.psl2 import (
    FieldTooSmall,
    Mat2,
    ProofStepFails,
    class_representatives,
    mat_closure,
    mat_identity,
    certify_simplicity,
    psl2_expected_order,
    psl2_perm_group,
    sl2_generators,
    sl2_group,
)

import conftest
from conftest import (
    DecompositionFails,
    NotInClosure,
    OnlyScalars,
    SeedsOutsideSL2,
    entries_of,
    factor_with_lower_shear,
    find_nonzero_corner_witness,
    mat_neg,
    matrix_conjugacy_representatives,
    matrix_normal_closure,
    psl2_cached,
    reference_certificate,
    reference_is_simple,
    replay_word,
    sl2_matrices,
    sl2_oracle,
)


def _codes(matrices) -> frozenset[int]:
    return frozenset(m.code for m in matrices)


def test_mat2_algebra():
    f = Field(7)
    m = Mat2(f, 2, 3, 1, 2)
    assert m.det == 1
    assert m.mul(m.inverse()) == mat_identity(f)
    assert m.inverse().entries() == (2, 4, 6, 2)
    assert not m.is_scalar()
    assert Mat2(f, 3, 0, 0, 3).is_scalar()
    assert mat_neg(m).entries() == (5, 4, 6, 5)


KERNEL_ORDERS = (4, 5, 7, 8, 9, 11, 13)


def _reference_mul(f, x, y):
    """The product entry by entry through the validated field operations."""
    return (
        f.add(f.mul(x.a, y.a), f.mul(x.b, y.c)),
        f.add(f.mul(x.a, y.b), f.mul(x.b, y.d)),
        f.add(f.mul(x.c, y.a), f.mul(x.d, y.c)),
        f.add(f.mul(x.c, y.b), f.mul(x.d, y.d)),
    )


def _reference_det(f, a, b, c, d):
    return f.add(f.mul(a, d), f.neg(f.mul(b, c)))


@pytest.mark.parametrize("q", KERNEL_ORDERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mat2_kernel_matches_field_operations(q, data):
    f = field_of_order(q)
    entries = st.tuples(*[st.integers(0, q - 1)] * 4)
    x, y = Mat2(f, *data.draw(entries)), Mat2(f, *data.draw(entries))
    assert x.det == _reference_det(f, *x.entries())
    product = x.mul(y)
    assert product.entries() == _reference_mul(f, x, y)
    assert product.det == _reference_det(f, *product.entries())
    assert product == Mat2(f, *_reference_mul(f, x, y))
    if x.det != 0:
        inverse = x.inverse()
        assert _reference_mul(f, x, inverse) == (1, 0, 0, 1)
        assert _reference_mul(f, inverse, x) == (1, 0, 0, 1)


def test_mat2_equal_over_equal_distinct_fields():
    for make in (lambda: Field(13), lambda: Field(3, 2)):
        f, g = make(), make()
        assert f is not g and f == g
        x, y = Mat2(f, 2, 3, 1, 2), Mat2(g, 2, 3, 1, 2)
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1
        assert x.mul(y) == y.mul(x) == Mat2(f, *_reference_mul(f, x, y))
    assert Mat2(Field(5), 1, 1, 0, 1) != Mat2(Field(7), 1, 1, 0, 1)


def test_mat2_is_immutable():
    m = Mat2(Field(7), 2, 3, 1, 2)
    for name in ("a", "det", "field", "other"):
        with pytest.raises(AttributeError):
            setattr(m, name, 1)
        with pytest.raises(AttributeError):
            delattr(m, name)
    assert m.entries() == (2, 3, 1, 2) and m.det == 1
    assert copy.deepcopy(m) == m and pickle.loads(pickle.dumps(m)) == m


def test_mat2_cross_field_product_raises():
    x, y = Mat2(Field(5), 1, 1, 0, 1), Mat2(Field(7), 1, 1, 0, 1)
    with pytest.raises(DomainMismatch):
        x.mul(y)
    with pytest.raises(DomainMismatch):
        y.mul(x)


def test_mat2_entry_out_of_range_raises():
    f = Field(5)
    for entries in ((5, 0, 0, 1), (1, -1, 0, 1), (1, 0, 7, 1), (1, 0, 0, 25)):
        with pytest.raises(IndexOutOfRange):
            Mat2(f, *entries)
    # every out-of-range entry in every position, the others in range: the
    # constructor's one chained comparison must cover all four, and so must
    # _replace, which builds through the constructor
    for f in (Field(5), field_of_order(8), field_of_order(9)):
        for bad in (-1, f.order, f.order + 1):
            for i, name in enumerate("abcd"):
                entries = [1, 0, 0, 1]
                entries[i] = bad
                with pytest.raises(IndexOutOfRange):
                    Mat2(f, *entries)
                with pytest.raises(IndexOutOfRange):
                    mat_identity(f)._replace(**{name: bad})
    m = Mat2(Field(5), 1, 2, 3, 0)
    with pytest.raises(AttributeError):
        m.a = 0
    assert m._replace(d=4) == Mat2(Field(5), 1, 2, 3, 4)


def test_sl2_matrix_counts():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        field = field_of_order(q)
        mats = sl2_matrices(field)
        assert len(mats) == q**3 - q
        assert len(set(mats)) == len(mats)
        assert all(m.det == 1 for m in mats)
        assert list(mats) == sorted(mats, key=Mat2.entries)


# the prime powers whose PSL(2,q) fits the enumeration cap
MATRIX_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31)


def test_sl2_generators_generate():
    # 32 is the next prime power
    assert psl2_expected_order(MATRIX_ORDERS[-1]) <= DEFAULT_ENUMERATION_CAP
    assert psl2_expected_order(32) > DEFAULT_ENUMERATION_CAP
    for q in MATRIX_ORDERS:
        assert sl2_group(q).codes == _codes(sl2_matrices(field_of_order(q)))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((4, 5, 7)), st.data())
def test_mat_closure_limit(q, draws):
    field = field_of_order(q)
    size = len(sl2_matrices(field))
    limit = draws.draw(
        st.one_of(st.integers(0, size + 2), st.sampled_from((size - 1, size, size + 1)))
    )
    closure = mat_closure(sl2_generators(field), limit)
    assert (closure is None) == (limit < size)


def test_mat2_code_keeps_entry_order():
    for q in (2, 4, 5, 7):
        f = field_of_order(q)
        codes = [Mat2(f, *e).code for e in itertools.product(range(q), repeat=4)]
        assert codes == list(range(q**4))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((4, 5, 7, 8, 9)), st.data())
def test_mat_closure_matches_matrix_orbit(q, draws):
    """Closures of 1-3 arbitrary matrices, singular and det != 1 ones
    included, against the orbit of the identity under ``Mat2.mul``."""
    f = field_of_order(q)
    entries = st.tuples(*[st.integers(0, q - 1)] * 4)
    gens = [Mat2(f, *e) for e in draws.draw(st.lists(entries, min_size=1, max_size=3))]
    reference = frozenset(m.code for m in orbit([mat_identity(f)], gens, Mat2.mul))
    assert mat_closure(gens) == reference
    size = len(reference)
    limit = draws.draw(
        st.one_of(st.integers(0, size + 2), st.sampled_from((size - 1, size, size + 1)))
    )
    closure = mat_closure(gens, limit)
    assert (closure is None) == (size > limit)
    assert closure is None or closure == reference


def test_sl2_group_examples():
    data = sl2_group(7)
    assert len(data.codes) == 336
    assert len(sl2_group(8).codes) == 504
    assert len(sl2_group(2).codes) == 6
    # a matrix group holds its field only: no projective line is built
    assert data._fields == ("field",)
    with pytest.raises(CapExceeded):
        sl2_group(32)


def test_moebius_image_homomorphism():
    line = ProjLine(field_of_order(5))
    mats = sl2_matrices(line.field)[:20]
    for a in mats:
        for b in mats:
            assert line.moebius(*a.mul(b).entries()) == (
                line.moebius(*a.entries()) * line.moebius(*b.entries())
            )


def test_psl2_orders():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        assert psl2_cached(q).order() == psl2_expected_order(q)
    for p in (17, 19):
        assert psl2_cached(p).order() == (p**3 - p) // 2
    assert psl2_expected_order(8) == 504
    assert psl2_expected_order(4) == 60
    assert psl2_expected_order(3) == 12


def test_psl2_unsupported_orders():
    # every prime power is a chain of generators, past the enumeration cap;
    # only the degree cap and non-prime-powers refuse
    assert psl2_perm_group(37).order() == psl2_expected_order(37)
    assert psl2_perm_group(32).order() == psl2_expected_order(32)
    with pytest.raises(NotPrime):
        psl2_perm_group(12)
    with pytest.raises(CapExceeded):
        psl2_perm_group(8192)  # degree 8193


@pytest.mark.parametrize("q", [32, 64, 81, 125])
def test_psl2_orders_past_the_enumeration_cap(q):
    group = psl2_perm_group(q)
    assert group.order() == psl2_expected_order(q) > DEFAULT_ENUMERATION_CAP
    assert len(group.generators) == field_of_order(q).degree + 1


def test_is_simple_past_the_enumeration_cap_for_even_q(monkeypatch):
    # Iwasawa's criterion decides PSL(2,32) and PSL(2,64) from the chain,
    # with no class scan
    def no_scan(self):
        raise AssertionError("conjugacy_classes called")

    monkeypatch.setattr(PermGroup, "conjugacy_classes", no_scan)
    for q in (32, 64):
        assert psl2_perm_group(q).is_simple()


@pytest.mark.parametrize("build", [psl2_perm_group, sl2_group])
def test_built_exactly_within_the_enumeration_cap(build):
    """SL(2,q) is refused with CapExceeded exactly when PSL(2,q) is larger
    than the enumeration cap, so it admits exactly the prime powers q <= 31.
    PSL(2,q) on the line is a chain of generators, which the cap does not
    bound: every prime power q < 65 builds, with the expected order."""
    built = []
    for q in range(2, 65):
        over = psl2_expected_order(q) > DEFAULT_ENUMERATION_CAP
        try:
            group = build(q)
        except CapExceeded:
            assert over and build is sl2_group, q
            continue
        except NotPrime:  # q is not a prime power; sl2_group checks the cap first
            assert not (over and build is sl2_group), q
            continue
        if build is psl2_perm_group:
            assert group.order() == psl2_expected_order(q), q
        else:
            assert not over, q
        built.append(q)
    prime_powers = tuple(
        q for q in range(2, 65)
        if sum(1 for p in range(2, q + 1) if q % p == 0 and is_prime(p)) == 1
    )
    expected = MATRIX_ORDERS if build is sl2_group else prime_powers
    assert tuple(built) == expected


def test_conjugation_built_once_per_group(monkeypatch):
    """The oracle builds each field's shear conjugation maps once, however
    many classes and closures use them."""
    calls = []
    build = conftest._conjugation
    monkeypatch.setattr(conftest, "_conjugation", lambda field: calls.append(field) or build(field))
    conftest.conjugation.cache_clear()
    try:
        for q in (4, 5, 9):
            assert reference_certificate(q)["verdict"]
            assert reference_certificate(q)["verdict"]
    finally:
        conftest.conjugation.cache_clear()
    assert [f.order for f in calls] == [4, 5, 9]


def test_shear_subgroups_generate():
    for q in (4, 5, 7):
        field = field_of_order(q)
        lower = [Mat2(field, 1, 0, r, 1) for r in field.elements()]
        upper = [Mat2(field, 1, r, 0, 1) for r in field.elements()]
        assert len(set(lower)) == q and len(set(upper)) == q
        assert mat_closure(lower + upper) == _codes(sl2_matrices(field))


def test_find_nonzero_corner_witness():
    data = sl2_group(5)
    everything = _codes(sl2_matrices(data.field))
    witness = find_nonzero_corner_witness(data, everything)
    assert witness.b != 0 and witness.code in everything
    shear = Mat2(data.field, 1, 1, 0, 1)
    closure = matrix_normal_closure(data, [shear])
    assert find_nonzero_corner_witness(data, closure).b != 0
    center = _codes([mat_identity(data.field), mat_neg(mat_identity(data.field))])
    with pytest.raises(OnlyScalars):
        find_nonzero_corner_witness(data, center)


def test_find_nonzero_corner_witness_from_diagonal_only_subgroup():
    # a diagonal seed: its normal closure is all of SL(2,7), so the witness
    # is that closure's smallest member with b != 0 (no normal subgroup has
    # b = 0 in every non-scalar member; see the orbit test below)
    data = sl2_group(7)
    closure = matrix_normal_closure(data, [Mat2(data.field, 3, 0, 0, 5)])
    witness = find_nonzero_corner_witness(data, closure)
    assert witness.b != 0


def test_verify_normal_rejects_upper_triangular_subgroup():
    data = sl2_group(5)
    upper = _codes(m for m in sl2_matrices(data.field) if m.c == 0)
    assert len(upper) == 20 and upper == mat_closure(
        [Mat2(data.field, 2, 0, 0, 3), Mat2(data.field, 1, 1, 0, 1)]
    )
    assert not conftest._verify_normal(data, upper)
    with pytest.raises(ValueError, match="not normal"):
        find_nonzero_corner_witness(data, upper)
    assert conftest._verify_normal(data, data.codes)


def test_verify_normal_checks_a_full_size_set_outside_sl2():
    """|SL(2,5)| matrices, one of determinant 2: the size alone is no proof."""
    data = sl2_group(5)
    f = data.field
    swapped = data.codes - {Mat2(f, 1, 1, 0, 1).code} | {Mat2(f, 2, 0, 0, 1).code}
    assert len(swapped) == len(sl2_matrices(f))
    assert not conftest._verify_normal(data, swapped)


def test_factor_with_lower_shear():
    data = sl2_group(5)
    everything = _codes(sl2_matrices(data.field))
    inside = Mat2(data.field, 2, 3, 3, 0)
    u, B = factor_with_lower_shear(data, inside, everything)
    assert u.mul(B) == inside
    assert u.entries() == (1, 0, 0, 1) and B == inside
    diagonal = Mat2(data.field, 2, 0, 0, 3)
    u, B = factor_with_lower_shear(data, diagonal, everything)
    assert u.mul(B) == diagonal
    assert (u.a, u.b, u.d) == (1, 0, 1)
    assert B.b == 0  # shape (a 0; ra d)
    with pytest.raises(DecompositionFails):
        factor_with_lower_shear(
            data, diagonal, _codes([mat_identity(data.field)])
        )


def test_factor_with_lower_shear_exhaustive_q7():
    data = sl2_group(7)
    shear = Mat2(data.field, 1, 1, 0, 1)
    closure = matrix_normal_closure(data, [shear])
    for target in sl2_matrices(data.field):
        u, B = factor_with_lower_shear(data, target, closure)
        assert u.mul(B) == target and B.code in closure


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((4, 5, 7, 8, 9)), st.data())
def test_conjugation_on_codes_matches_matrices(q, draws):
    """Any matrix, singular and det != 1 ones included, conjugated by each
    shear generator."""
    f = field_of_order(q)
    x = Mat2(f, *draws.draw(st.tuples(*[st.integers(0, q - 1)] * 4)))
    maps, act = conftest._conjugation(f)
    for g, m in zip(sl2_generators(f), maps, strict=True):
        assert act(x.code, m) == g.mul(x).mul(g.inverse()).code


def _reference_class_representatives(field) -> tuple[Mat2, ...]:
    """Every matrix of SL(2,q) conjugated through ``Mat2.mul`` by each shear."""
    pairs = [(g, g.inverse()) for g in sl2_generators(field)]
    seen: set[Mat2] = set()
    reps = []
    for m in sl2_matrices(field):
        if m not in seen:
            seen.update(orbit([m], pairs, lambda x, pair: pair[0].mul(x).mul(pair[1])))
            reps.append(m)
    return tuple(reps)


def test_matrix_conjugacy_representatives():
    for q in KERNEL_ORDERS:
        data = sl2_group(q)
        reps = matrix_conjugacy_representatives(data)
        assert reps == _reference_class_representatives(data.field)
        # SL2(q) has q+4 classes for odd q, q+1 for even q
        assert len(reps) == (q + 4 if q % 2 else q + 1)
        scalars = [r for r in reps if r.is_scalar()]
        assert len(scalars) == (2 if q % 2 else 1)


def test_certify_builds_fewer_matrices_than_the_group(monkeypatch):
    built = 0
    new = Mat2.__new__

    def counting_new(cls, *args):
        nonlocal built
        built += 1
        return new(cls, *args)

    monkeypatch.setattr(Mat2, "__new__", counting_new)
    assert certify_simplicity(13).verdict
    assert 0 < built < 13**3 - 13


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_certificates_verify(q):
    certificate = certify_simplicity(q)
    assert certificate.verdict
    assert certificate.group_order == q**3 - q
    assert certificate.reverify()
    # the target's sweep is every lower shear, and w carries it to every
    # upper shear, so each closure is SL(2,q)
    f = certificate.target.field
    w = certificate.witness
    assert set(certificate.target_sweep) == {Mat2(f, 1, 0, r, 1) for r in f.elements()}
    assert {w.mul(c).mul(w.inverse()) for c in certificate.target_sweep} == {
        Mat2(f, 1, r, 0, 1) for r in f.elements()
    }
    for report in certificate.to_json_dict()["classes"]:
        assert report["closure_order"] == q**3 - q


def test_certificate_bounds():
    with pytest.raises(FieldTooSmall):
        certify_simplicity(3)
    with pytest.raises(FieldTooSmall):
        certify_simplicity(2)
    # the products run on GF(q)'s own add and mul, so only the field cap bounds q
    assert MAX_FIELD_ORDER == 65536
    with pytest.raises(CapExceeded, match="field order 65537 exceeds field cap 65536"):
        certify_simplicity(65537)
    assert certify_simplicity(257).reverify()
    # q = 3 cross-check: the permutation group is genuinely not simple
    assert not psl2_cached(3).is_simple()


def test_certificate_agrees_with_brute_force():
    for q in (4, 5, 7, 9):
        certificate = certify_simplicity(q)
        assert certificate.verdict == psl2_cached(q).is_simple()
        assert certificate.verdict == reference_is_simple(psl2_cached(q))
    for q in (2, 3):
        assert not psl2_cached(q).is_simple()
        assert not reference_is_simple(psl2_cached(q))


def test_reverify_rejects_wrong_group_order():
    certificate = certify_simplicity(5)
    tampered = certificate._replace(group_order=7)
    assert certificate.reverify()
    assert not tampered.reverify()
    # the report's closure order is the certificate's group order
    assert {c["closure_order"] for c in tampered.to_json_dict()["classes"]} == {7}


def test_reverify_rejects_forged_representatives():
    certificate = certify_simplicity(7)
    f = certificate.entries[0].representative.field
    identity = mat_identity(f)

    def forged(*reps):
        entries = tuple(
            e._replace(representative=r)
            for e, r in zip(certificate.entries, itertools.cycle(reps))
        )
        return certificate._replace(entries=entries)

    assert len(certificate.entries) == 9 and certificate.reverify()
    assert not forged(identity).reverify()  # all nine the identity
    assert not forged(mat_neg(identity)).reverify()  # a scalar
    first = certificate.entries[0].representative
    assert not forged(*[e.representative for e in certificate.entries[:-1]], first).reverify()
    for stranger in (Mat2(f, 2, 0, 0, 1), Mat2(Field(5), 1, 1, 0, 1)):  # det 2; over GF(5)
        reps = [e.representative for e in certificate.entries]
        reps[3] = stranger
        assert not forged(*reps).reverify()


def test_reverify_counts_the_classes():
    # q + 2 non-scalar classes for odd q, q for even q
    for q, count in ((7, 9), (8, 8), (9, 11)):
        certificate = certify_simplicity(q)
        assert len(certificate.entries) == count and certificate.reverify()
        for kept in (1, count - 1):
            cut = certificate._replace(entries=certificate.entries[:kept])
            assert not cut.reverify()
        doubled = certificate._replace(entries=certificate.entries * 2)
        assert not doubled.reverify()


def test_reverify_rejects_a_diagonal_entry_outside_the_field():
    certificate = certify_simplicity(7)
    for a in (50, 7, -1, 0, 1, 6):  # outside GF(7), then 0, 1 and -1
        assert certificate._replace(diagonal_entry=a).reverify() is False


def test_reverify_rejects_foreign_and_singular_matrices():
    certificate = certify_simplicity(7)
    f = certificate.target.field
    zero, foreign = Mat2(f, 0, 0, 0, 0), Mat2(Field(5), 1, 0, 1, 1)
    sweep = certificate.diagonal_sweep
    for changes in (
        {"target": Mat2(Field(5), 2, 0, 0, 3)},
        {"witness": Mat2(Field(5), 0, 1, 4, 0)},
        {"witness": zero},
        {"diagonal_sweep": (zero, *sweep[1:])},
        {"diagonal_sweep": (foreign, *sweep[1:])},
        {"diagonal_sweep": sweep[:-1]},
        {"diagonal_sweep": (*sweep, sweep[0])},
        {"target_sweep": certificate.target_sweep[:-1]},
        {"target_sweep": (*certificate.target_sweep, certificate.target_sweep[0])},
    ):
        assert certificate._replace(**changes).reverify() is False


def test_reverify_rejects_a_witness_or_word_that_misses():
    certificate = certify_simplicity(7)
    identity = mat_identity(certificate.target.field)
    # the identity carries the lower shears to themselves, not to the upper
    assert certificate._replace(witness=identity).reverify() is False
    # a word of the identity ends at the identity, not at the target
    last = certificate.entries[-1]
    entries = certificate.entries[:-1] + (last._replace(word=(identity,)),)
    assert certificate._replace(entries=entries).reverify() is False


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31])
def test_genuine_certificates_reverify_to_q31(q):
    certificate = certify_simplicity(q)
    assert certificate.verdict and certificate.reverify()
    reps = [e.representative for e in certificate.entries]
    assert len(set(reps)) == len(reps) and not any(r.is_scalar() for r in reps)


def test_certificate_json_round_trip():
    certificate = certify_simplicity(5)
    blob = json.dumps(certificate.to_json_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["q"] == 5 and parsed["verdict"] is True
    assert len(parsed["classes"]) == len(certificate.entries)
    assert all(c["commutators_cover_shears"] for c in parsed["classes"])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_sl2_perm_group_built_from_shears(q):
    # the basis translations and -1/z generate exactly the Moebius images of
    # SL(2,q), checked against every matrix
    group = psl2_perm_group(q)
    field = group.line.field
    assert len(group.generators) == field.degree + 1
    images = {group.line.moebius(*m.entries()).images for m in sl2_matrices(field)}
    assert group.element_set() == images


def test_normal_closure_of_seeds_outside_sl2_raises():
    data = sl2_group(5)
    f = data.field
    diagonal = Mat2(f, 2, 0, 0, 1)  # determinant 2
    # the seeds alone already generate more than SL(2,5)
    with pytest.raises(SeedsOutsideSL2):
        matrix_normal_closure(
            data, [diagonal, Mat2(f, 1, 1, 0, 1), Mat2(f, 1, 0, 1, 1)]
        )
    # the seed's own closure fits; its conjugates outgrow SL(2,5)
    assert len(mat_closure([diagonal])) <= len(data.codes)
    with pytest.raises(SeedsOutsideSL2):
        matrix_normal_closure(data, [diagonal])


def test_corner_witness_outside_subgroup_raises(monkeypatch):
    """With the normality test patched away, a set without a b != 0 member is
    reported central; that is exact for the normal subgroups the witness is
    asked of (see ``test_conjugation_orbits_of_nonscalars_hold_a_nonzero_corner``)."""
    data = sl2_group(5)
    f = data.field
    not_normal = _codes([mat_identity(f), Mat2(f, 2, 0, 0, 3)])
    monkeypatch.setattr(conftest, "_verify_normal", lambda sl2, subgroup: True)
    with pytest.raises(OnlyScalars):
        find_nonzero_corner_witness(data, not_normal)
    # lower triangular: members with c != 0 but none with b != 0
    lower = mat_closure([Mat2(f, 2, 0, 0, 3), Mat2(f, 1, 0, 1, 1)])
    with pytest.raises(OnlyScalars):
        find_nonzero_corner_witness(data, lower)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_conjugation_orbits_of_nonscalars_hold_a_nonzero_corner(q):
    """Over all q^4 matrices: an SL(2,q)-conjugacy orbit with a non-scalar
    member holds one with b != 0, so a normal set without one is central."""
    f = field_of_order(q)
    maps, act = conftest._conjugation(f)
    seen: set[int] = set()
    for x in range(q**4):
        if x in seen:
            continue
        members = orbit([x], maps, act)
        seen |= members
        entries = [entries_of(y, q) for y in members]
        if any(not (b == 0 == c and a == d) for a, b, c, d in entries):
            assert any(b for _, b, _, _ in entries)


def _reference_matrix_normal_closure(sl2, seeds, close):
    """The ``Mat2`` loop: conjugate each generator by each shear through
    ``Mat2.mul``, re-closing after every new conjugate; returns the closure
    and the generator list of every ``close`` call."""
    limit = len(sl2.codes)
    gens = list(dict.fromkeys(seeds))
    calls = [list(gens)]
    closure = close(gens, limit)
    while True:
        added = False
        for g in sl2_generators(sl2.field):
            g_inv = g.inverse()
            for s in list(gens):
                t = g.mul(s).mul(g_inv)
                if t.code not in closure:
                    gens.append(t)
                    calls.append(list(gens))
                    closure = close(gens, limit)
                    added = True
        if not added:
            return closure, calls


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_matrix_normal_closure_matches_the_matrix_loop(monkeypatch, q):
    """Same closure, and the same generators closed in the same order, so the
    number of ``mat_closure`` calls is unchanged too."""
    data = sl2_group(q)
    f = data.field
    close = psl2.mat_closure
    calls = []

    def spy(gens, limit=None, **kwargs):
        calls.append(list(gens))
        return close(gens, limit, **kwargs)

    monkeypatch.setattr(psl2, "mat_closure", spy)
    a = next(x for x in f.elements() if x not in (0, 1, f.neg(1)))
    seed_sets = [[rep] for rep in matrix_conjugacy_representatives(data)]
    seed_sets.append([Mat2(f, a, 0, 0, f.inv(a)), Mat2(f, 1, 1, 0, 1)])  # not normal
    for seeds in seed_sets:
        calls.clear()
        closure = matrix_normal_closure(data, seeds)
        assert (closure, calls) == _reference_matrix_normal_closure(data, seeds, close)


def _seed_families(f):
    """Seeds that generate proper subgroups: a diagonal, a Borel pair, one
    shear, and the scalars, whose normal closure is central."""
    a = f.primitive_element()
    diagonal = Mat2(f, a, 0, 0, f.inv(a))
    shear = Mat2(f, 1, 1, 0, 1)
    identity = mat_identity(f)
    return [[diagonal], [diagonal, shear], [shear], [identity], [identity, mat_neg(identity)]]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((2, 3, 4, 5, 7, 8, 9)), st.data())
def test_matrix_normal_closure_matches_an_unlimited_reference(q, draws):
    """The Lagrange exit changes neither the closure nor the generators
    closed: the reference re-closes every time without any limit.  Over
    SL(2,2) and SL(2,3) some normal closures are proper and not central."""
    data = sl2_group(q)
    f = data.field
    members = sorted(data.codes)
    drawn = draws.draw(st.lists(st.sampled_from(members), min_size=1, max_size=3))
    family = draws.draw(st.sampled_from(_seed_families(f)))
    seeds = draws.draw(st.sampled_from(
        [family, [Mat2(f, *entries_of(x, q)) for x in drawn]]
    ))
    close = psl2.mat_closure
    calls = []

    def spy(gens, limit=None, **kwargs):
        calls.append(list(gens))
        return close(gens, limit, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(psl2, "mat_closure", spy)
        closure = matrix_normal_closure(data, seeds)
    reference = _reference_matrix_normal_closure(data, seeds, lambda gens, limit: close(gens))
    assert (closure, calls) == reference


def test_normal_closures_of_sl2_3():
    """SL(2,3) has the normal subgroup Q8 of order 8, at most half of 24, so
    the Lagrange exit does not cut it short."""
    data = sl2_group(3)
    f = data.field
    assert len(matrix_normal_closure(data, [Mat2(f, 0, 1, 2, 0)])) == 8
    assert matrix_normal_closure(data, [Mat2(f, 1, 1, 0, 1)]) is data.codes


def test_certify_closures_stop_at_half_of_sl2(monkeypatch):
    """No closure of the oracle's normal closures runs past half of SL(2,13)
    plus the one code that shows it."""
    data = sl2_oracle(13)
    half = len(data.codes) // 2  # SL(2,13) itself is built before the spy
    close = psl2.mat_closure
    seen = []

    def spy(gens, limit=None, **kwargs):
        closure = close(gens, limit, **kwargs)
        seen.append(limit + 1 if closure is None else len(closure))
        return closure

    monkeypatch.setattr(psl2, "mat_closure", spy)
    assert reference_certificate(13)["verdict"]
    assert seen and max(seen) <= half + 1


def test_row_maps_built_once_per_group(monkeypatch):
    """Every matrix an oracle closure is generated from gets its row map
    built once per group, however many closures it joins."""
    data = sl2_group(11)
    conftest.conjugation(data.field)  # the conjugation's own maps, built before the spy
    built = []
    build = psl2._row_map
    monkeypatch.setattr(psl2, "_row_map", lambda g: built.append(g.code) or build(g))
    monkeypatch.setattr(conftest, "sl2_oracle", lambda q: data)
    assert reference_certificate(11)["verdict"]
    assert built and len(built) == len(set(built))
    assert all(data.row_map(g) is data.row_map(g) for g in sl2_generators(data.field))
    with pytest.raises(DomainMismatch):
        data.row_map(Mat2(Field(7), 1, 1, 0, 1))


def test_corner_witness_of_sl2_is_cached_and_exact():
    for q in (4, 5, 9):
        data = sl2_group(q)
        witness = find_nonzero_corner_witness(data, data.codes)
        assert witness is find_nonzero_corner_witness(data, data.codes)
        assert witness.entries() == (0, 1, data.field.neg(1), 0)
        # an equal set that is not ``data.codes`` takes the uncached path
        assert find_nonzero_corner_witness(data, frozenset(data.codes)) == witness


@pytest.mark.parametrize("q", [4, 5, 8])
def test_certify_builds_no_permutation_group(monkeypatch, q):
    built = 0
    init = PermGroup.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting_init)
    assert certify_simplicity(q).verdict
    assert built == 0


def test_commutator_outside_closure_raises(monkeypatch):
    """The oracle checks each commutator of its sweep against the closure."""
    data = sl2_oracle(5)
    f = data.field
    missing = Mat2(f, 1, 0, 1, 1)
    monkeypatch.setattr(
        conftest, "matrix_normal_closure", lambda sl2, seeds: sl2.codes - {missing.code}
    )
    monkeypatch.setattr(
        conftest, "find_nonzero_corner_witness", lambda sl2, closure: Mat2(f, 1, 1, 0, 1)
    )
    with pytest.raises(NotInClosure):
        reference_certificate(5)


def test_a_word_that_misses_the_target_raises(monkeypatch):
    monkeypatch.setattr(psl2, "_diagonalizer", lambda x, m: mat_identity(x.field))
    with pytest.raises(ProofStepFails, match="misses"):
        certify_simplicity(7)


SHORTCUT_ORDERS = (4, 5, 7, 8, 9, 11, 13)


@pytest.mark.parametrize("q", SHORTCUT_ORDERS)
def test_certificate_equals_one_built_without_proved_classes(q):
    """The closed-form report equals the oracle's, built by enumerating
    SL(2,q), each class's normal closure run out to the Lagrange exit."""
    certificate = certify_simplicity(q)
    reference = reference_certificate(q)
    assert certificate.to_json_dict() == reference
    assert json.dumps(certificate.to_json_dict(), sort_keys=True) == json.dumps(
        reference, sort_keys=True
    )


@pytest.mark.parametrize("q", SHORTCUT_ORDERS)
def test_every_class_closure_is_sl2(q):
    """The oracle's normal closure of each closed-form representative."""
    data = sl2_oracle(q)
    reps = class_representatives(data.field)
    assert len(reps) == (q + 2 if q % 2 else q)
    for rep in reps:
        assert matrix_normal_closure(data, [rep]) is data.codes


def _raise(*args, **kwargs):
    raise AssertionError("the closed-form certificate enumerated")


def test_certify_runs_no_closure_and_one_sweep(monkeypatch):
    """At q = 13 no closure, orbit or SL(2,q) is built; the entries hold no
    shared evidence, each sweep is formed once, and the whole proof takes
    O(q) matrix products, as many to build as ``reverify`` takes to replay."""
    products = 0
    mul = Mat2.mul

    def counting_mul(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    for name in ("mat_closure", "sl2_group", "orbit"):
        monkeypatch.setattr(psl2, name, _raise)
    monkeypatch.setattr(groups, "orbit", _raise)
    monkeypatch.setattr(Mat2, "mul", counting_mul)
    certificate = certify_simplicity(13)
    assert certificate.verdict and len(certificate.entries) == 15
    assert psl2.ClosureCertificate._fields == ("representative", "word", "conjugator")
    assert len(certificate.target_sweep) == len(certificate.diagonal_sweep) == 13
    # three products per commutator of the two sweeps, two per conjugate by w,
    # and five per class: its commutator with D and the check that h takes it to E
    assert products == 3 * 13 + 2 * 13 + 3 * 13 + 5 * 15
    products = 0
    assert certificate.reverify()
    assert products == 3 * 13 + 2 * 13 + 3 * 13 + 5 * 15


def test_reverify_checks_each_commutator_of_both_sweeps():
    """Each sweep is compared commutator by commutator with the sweep of its
    diagonal, the target or diag(a, 1/a), which ``reverify`` builds from the
    diagonal entry; a forgery that still covers the lower shears must read
    False."""
    certificate = certify_simplicity(7)
    assert certificate.reverify()
    for name in ("target_sweep", "diagonal_sweep"):
        sweep = getattr(certificate, name)
        # one commutator replaced by another's
        forged = list(sweep)
        forged[2] = sweep[3]
        assert certificate._replace(**{name: tuple(forged)}).reverify() is False
        # two swapped, so the commutators still cover the lower shears
        forged = list(sweep)
        forged[2], forged[3] = sweep[3], sweep[2]
        assert certificate._replace(**{name: tuple(forged)}).reverify() is False
    # another diagonal entry with the old sweep (a*a differs, so the sweep does)
    a = next(x for x in (2, 3, 4, 5) if x != certificate.diagonal_entry)
    assert certificate._replace(diagonal_entry=a).reverify() is False


PRIME_POWERS_TO_64 = tuple(q for q in range(4, 65) if len(distinct_prime_factors(q)) == 1)


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_closed_form_classes_and_words_match_the_oracle(q):
    """The closed-form representatives are the oracle's smallest class
    members, in order, and each class's word, replayed by the oracle's own
    arithmetic, ends at the certificate's target."""
    data = psl2.SL2Group(field_of_order(q))  # not cached: SL(2,64) holds 262080 codes
    oracle = [rep for rep in matrix_conjugacy_representatives(data) if not rep.is_scalar()]
    reps = class_representatives(data.field)
    assert list(reps) == oracle
    certificate = certify_simplicity(q)
    assert [e.representative for e in certificate.entries] == oracle
    for entry in certificate.entries:
        assert all(g.det == 1 for g in (*entry.word, entry.conjugator))
        assert replay_word(entry.representative, entry.word, entry.conjugator) == certificate.target


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS_TO_64 if q <= 16] + [2, 3])
def test_three_shear_factorization(q):
    """Every (a b; c d) in SL(2,q) with c != 0 is U_x * L_c * U_y for
    x = (a - 1)/c and y = (d - 1)/c; with c = 0, (a b; c d) * L_1 has c != 0,
    so the shears generate SL(2,q)."""
    f = field_of_order(q)

    def upper(x):
        return Mat2(f, 1, x, 0, 1)

    def three_shears(m):
        x, y = (f.div(f.sub(e, 1), m.c) for e in (m.a, m.d))
        return upper(x).mul(Mat2(f, 1, 0, m.c, 1)).mul(upper(y))

    for m in sl2_matrices(f):
        if m.c:
            assert three_shears(m) == m
        else:
            moved = m.mul(Mat2(f, 1, 0, 1, 1))
            assert moved.c and three_shears(moved).mul(Mat2(f, 1, 0, f.neg(1), 1)) == m


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31])
def test_certify_and_reverify_build_no_group(monkeypatch, q):
    for name in ("mat_closure", "sl2_group", "orbit"):
        monkeypatch.setattr(psl2, name, _raise)
    monkeypatch.setattr(groups, "orbit", _raise)
    certificate = certify_simplicity(q)
    assert certificate.verdict and certificate.reverify()


@pytest.mark.parametrize(
    "q,source,kept",
    [
        (6, 5, 6),  # not a prime power; a q = 5 certificate cut to 6 entries
        (12, 13, 12),
        (3, 5, 5),
        (2, 5, 2),
        (0, 5, 7),
        (-5, 5, 7),
        (257, 5, 7),  # a prime within the field cap; 7 entries, not 259
        (65537, 5, 7),  # past the field cap, q > MAX_FIELD_ORDER
        (65536, 4, 4),
    ],
)
def test_reverify_reads_false_for_a_q_it_cannot_check(q, source, kept):
    """A genuine certificate given another q, with that q's group order and
    entry count where they can be met: False, never an error."""
    certificate = certify_simplicity(source)
    forged = certificate._replace(
        q=q, group_order=q**3 - q, entries=certificate.entries[:kept]
    )
    assert forged.reverify() is False


FORGERY_ORDERS = (4, 5, 7, 8, 9, 13)


@functools.lru_cache(maxsize=None)
def _genuine(q):
    return certify_simplicity(q)


def _with_entry(certificate, i, entry):
    entries = list(certificate.entries)
    entries[i] = entry
    return certificate._replace(entries=tuple(entries))


def _sl2_element(f, draws):
    """A product of drawn shears: any element of SL(2,q) is one."""
    m = mat_identity(f)
    for lower, r in draws.draw(st.lists(st.tuples(st.booleans(), st.integers(0, f.order - 1)),
                                        min_size=1, max_size=4)):
        m = m.mul(Mat2(f, 1, 0, r, 1) if lower else Mat2(f, 1, r, 0, 1))
    return m


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FORGERY_ORDERS), st.data())
def test_reverify_rejects_forgeries(q, draws):
    certificate = _genuine(q)
    assert certificate.reverify()
    f = certificate.target.field
    entries = certificate.entries
    n = len(entries)
    i = draws.draw(st.integers(0, n - 1), label="entry")
    kind = draws.draw(st.sampled_from(
        ["word", "conjugate", "same class", "dropped", "target", "root",
         "witness", "diagonal entry", "diagonal sweep"]
    ))
    if kind == "word":
        entry = entries[i]
        matrices = [*entry.word, entry.conjugator]
        j = draws.draw(st.integers(0, len(matrices) - 1))
        mutated = Mat2(f, *draws.draw(st.tuples(*[st.integers(0, q - 1)] * 4)))
        assume(mutated != matrices[j])
        matrices[j] = mutated
        # a mutation that still replays to the target is still a proof
        assume(any(g.det != 1 for g in matrices) or replay_word(
            entry.representative, matrices[:-1], matrices[-1]) != certificate.target)
        forged = _with_entry(certificate, i, entry._replace(
            word=tuple(matrices[:-1]), conjugator=matrices[-1]))
    elif kind == "conjugate":
        j = draws.draw(st.integers(0, n - 1).filter(lambda j: j != i))
        g = _sl2_element(f, draws)
        rep = g.mul(entries[j].representative).mul(g.inverse())
        forged = _with_entry(certificate, i, entries[i]._replace(representative=rep))
    elif kind == "same class":
        j = draws.draw(st.integers(0, n - 1).filter(lambda j: j != i))
        forged = _with_entry(certificate, i, entries[j])
    elif kind == "dropped":
        forged = certificate._replace(entries=entries[:i] + entries[i + 1:])
    elif kind == "target":
        m = draws.draw(st.integers(1, q - 1).filter(lambda m: m != certificate.target.a))
        target = Mat2(f, m, 0, 0, f.inv(m))
        sweep = tuple(
            s.mul(target).mul(s.inverse()).mul(target.inverse())
            for s in (Mat2(f, 1, 0, r, 1) for r in f.elements())
        )
        forged = certificate._replace(target=target, target_sweep=sweep)
    elif kind == "witness":
        w = _sl2_element(f, draws)
        upper = {Mat2(f, 1, r, 0, 1) for r in f.elements()}
        assume({w.mul(c).mul(w.inverse()) for c in certificate.target_sweep} != upper)
        forged = certificate._replace(witness=w)
    elif kind == "diagonal entry":
        # diag(a, 1/a)'s sweep depends on a*a only, so -a would be no forgery
        a = certificate.diagonal_entry
        other = draws.draw(st.integers(-q, 2 * q).filter(
            lambda x: x not in f.elements() or f.mul(x, x) != f.mul(a, a)))
        forged = certificate._replace(diagonal_entry=other)
    elif kind == "diagonal sweep":
        sweep = list(certificate.diagonal_sweep)
        j = draws.draw(st.integers(0, q - 1))
        if draws.draw(st.booleans(), label="drawn matrix"):
            mutated = Mat2(f, *draws.draw(st.tuples(*[st.integers(0, q - 1)] * 4)))
            assume(mutated != sweep[j])
        else:
            mutated = sweep[draws.draw(st.integers(0, q - 1).filter(lambda k: k != j))]
        sweep[j] = mutated
        forged = certificate._replace(diagonal_sweep=tuple(sweep))
    else:
        # another root l: its commutators with the classes have another trace
        words = {e.word for e in entries}
        assume(q != 5)
        (root,) = {w[0].a for w in words}
        squares = {f.mul(root, root), f.inv(f.mul(root, root))}
        l = draws.draw(st.integers(1, q - 1).filter(lambda l: f.mul(l, l) not in squares))
        D = Mat2(f, l, 0, 0, f.inv(l))
        forged = certificate._replace(entries=tuple(e._replace(word=(D,)) for e in entries))
    assert forged.reverify() is False
