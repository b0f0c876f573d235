import json

import pytest

from psl2kit.fields import Field, FieldTooLarge, NotPrime, field_of_order
from psl2kit import psl2
from psl2kit.psl2 import (
    DecompositionFails,
    FieldTooSmall,
    Mat2,
    NotInClosure,
    OnlyScalars,
    SeedsOutsideSL2,
    find_nonzero_corner_witness,
    factor_with_lower_shear,
    mat_closure,
    mat_identity,
    matrix_conjugacy_representatives,
    matrix_normal_closure,
    moebius_permutation,
    certify_simplicity,
    psl2_expected_order,
    psl2_perm_group,
    sl2_generators,
    sl2_group,
    sl2_matrices,
)

from conftest import psl2_cached


def test_mat2_algebra():
    f = Field(7)
    m = Mat2(f, 2, 3, 1, 2)
    assert m.det == 1
    assert m.mul(m.inverse()) == mat_identity(f)
    assert m.inverse().entries() == (2, 4, 6, 2)
    assert not m.is_scalar()
    assert Mat2(f, 3, 0, 0, 3).is_scalar()
    assert m.neg().entries() == (5, 4, 6, 5)


def test_sl2_matrix_counts():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        field = field_of_order(q)
        mats = sl2_matrices(field)
        assert len(mats) == q**3 - q
        assert len(set(mats)) == len(mats)
        assert all(m.det == 1 for m in mats)
        assert list(mats) == sorted(mats, key=Mat2.entries)


def test_sl2_generators_generate():
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = field_of_order(q)
        assert mat_closure(sl2_generators(field)) == frozenset(sl2_matrices(field))


def test_sl2_group_examples():
    data = sl2_group(7)
    assert len(data.matrices) == 336
    assert data.perm_group.order() == 168
    assert sl2_group(8).perm_group.order() == 504
    assert sl2_group(2).perm_group.order() == 6
    with pytest.raises(FieldTooLarge):
        sl2_group(16)


def test_moebius_image_homomorphism():
    data = sl2_group(5)
    mats = data.matrices[:20]
    for a in mats:
        for b in mats:
            assert moebius_permutation(a.mul(b), data.line) == moebius_permutation(
                a, data.line
            ) * moebius_permutation(b, data.line)


def test_psl2_orders():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        assert psl2_cached(q).order() == psl2_expected_order(q)
    for p in (17, 19):
        assert psl2_cached(p).order() == (p**3 - p) // 2
    assert psl2_expected_order(8) == 504
    assert psl2_expected_order(4) == 60
    assert psl2_expected_order(3) == 12


def test_psl2_unsupported_orders():
    with pytest.raises(FieldTooLarge):
        psl2_perm_group(23)
    with pytest.raises(FieldTooLarge):
        psl2_perm_group(16)
    with pytest.raises(NotPrime):
        psl2_perm_group(12)


def test_shear_subgroups_generate():
    for q in (4, 5, 7):
        field = field_of_order(q)
        lower = [Mat2(field, 1, 0, r, 1) for r in field.elements()]
        upper = [Mat2(field, 1, r, 0, 1) for r in field.elements()]
        assert len(set(lower)) == q and len(set(upper)) == q
        assert mat_closure(lower + upper) == frozenset(sl2_matrices(field))


def test_find_nonzero_corner_witness():
    data = sl2_group(5)
    everything = frozenset(data.matrices)
    witness = find_nonzero_corner_witness(data, everything)
    assert witness.b != 0 and witness in everything
    shear = Mat2(data.field, 1, 1, 0, 1)
    closure = matrix_normal_closure(data, [shear])
    assert find_nonzero_corner_witness(data, closure).b != 0
    center = frozenset({mat_identity(data.field), mat_identity(data.field).neg()})
    with pytest.raises(OnlyScalars):
        find_nonzero_corner_witness(data, center)


def test_find_nonzero_corner_witness_from_diagonal_only_subgroup():
    # the diagonal fallback path: a normal subgroup with only b = 0 members
    # does not exist in SL2, so feed the helper's scan a crafted case via
    # the full group and confirm the chosen witness is a b != 0 element
    data = sl2_group(7)
    closure = matrix_normal_closure(data, [Mat2(data.field, 3, 0, 0, 5)])
    witness = find_nonzero_corner_witness(data, closure)
    assert witness.b != 0


def test_factor_with_lower_shear():
    data = sl2_group(5)
    everything = frozenset(data.matrices)
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
            data, diagonal, frozenset({mat_identity(data.field)})
        )


def test_factor_with_lower_shear_exhaustive_q7():
    data = sl2_group(7)
    shear = Mat2(data.field, 1, 1, 0, 1)
    closure = matrix_normal_closure(data, [shear])
    for target in data.matrices:
        u, B = factor_with_lower_shear(data, target, closure)
        assert u.mul(B) == target and B in closure


def test_matrix_conjugacy_representatives():
    data = sl2_group(5)
    reps = matrix_conjugacy_representatives(data)
    # SL2(q) has q+4 classes for odd q
    assert len(reps) == 9
    scalars = [r for r in reps if r.is_scalar()]
    assert len(scalars) == 2


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_certificates_verify(q):
    certificate = certify_simplicity(q)
    assert certificate.verdict
    assert certificate.group_order == q**3 - q
    assert certificate.reverify()
    for entry in certificate.entries:
        assert entry.closure_order == q**3 - q
        assert entry.lower_shears_in_closure and entry.upper_shears_in_closure


def test_certificate_bounds():
    with pytest.raises(FieldTooSmall):
        certify_simplicity(3)
    with pytest.raises(FieldTooSmall):
        certify_simplicity(2)
    with pytest.raises(FieldTooLarge):
        certify_simplicity(16)
    # q = 3 cross-check: the permutation group is genuinely not simple
    assert not psl2_cached(3).is_simple()


def test_certificate_agrees_with_brute_force():
    for q in (4, 5, 7, 9):
        assert certify_simplicity(q).verdict == psl2_cached(q).is_simple()
    for q in (2, 3):
        assert not psl2_cached(q).is_simple()


def test_certificate_json_round_trip():
    certificate = certify_simplicity(5)
    blob = json.dumps(certificate.to_json_dict(), sort_keys=True)
    parsed = json.loads(blob)
    assert parsed["q"] == 5 and parsed["verdict"] is True
    assert len(parsed["classes"]) == len(certificate.entries)
    assert all(c["commutators_cover_shears"] for c in parsed["classes"])


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_sl2_perm_group_built_from_shears(q):
    data = sl2_group(q)
    assert len(data.perm_group.generators) <= 2 * data.field.degree
    images = {moebius_permutation(m, data.line).images for m in sl2_matrices(data.field)}
    assert data.perm_group.element_set() == images


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
    assert len(mat_closure([diagonal])) <= len(data.matrices)
    with pytest.raises(SeedsOutsideSL2):
        matrix_normal_closure(data, [diagonal])


def test_corner_witness_outside_subgroup_raises(monkeypatch):
    data = sl2_group(5)
    f = data.field
    not_normal = frozenset({mat_identity(f), Mat2(f, 2, 0, 0, 3)})
    monkeypatch.setattr(psl2, "_verify_normal", lambda sl2, subgroup: True)
    with pytest.raises(NotInClosure):
        find_nonzero_corner_witness(data, not_normal)


def test_commutator_outside_closure_raises(monkeypatch):
    data = sl2_group(5)
    f = data.field
    missing = Mat2(f, 1, 0, 1, 1)
    monkeypatch.setattr(
        psl2,
        "matrix_normal_closure",
        lambda sl2, seeds: frozenset(sl2.matrices) - {missing},
    )
    monkeypatch.setattr(
        psl2, "find_nonzero_corner_witness", lambda sl2, closure: Mat2(f, 1, 1, 0, 1)
    )
    with pytest.raises(NotInClosure):
        certify_simplicity(5)
