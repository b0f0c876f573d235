import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psl2kit import fields, search
from psl2kit.cli import load_generators_file, main
from psl2kit.fields import quadratic_classes
from psl2kit.groups import PermGroup
from psl2kit.projline import Permutation
from psl2kit.psl2 import psl2_perm_group
from psl2kit.verify import (
    BadVariant,
    EXCEPTIONAL_INVOLUTIONS,
    NoTwistExponent,
    StabilizerDecomposition,
    _exceptional_structure,
    build_exceptional,
    check_hypotheses,
    check_pair_orbit_count,
    check_square_class_action,
    check_swaps_are_involutions,
    check_unique_normalized_swap,
    check_stabilizer_scalings,
    classify,
    corollary_check,
    decompose_stabilizers,
    decomposition_check,
    exceptional_report,
    p3_case_check,
    sylow_orbit,
    twist_exponent,
)

from conftest import exceptional_cached, line_over, psl2_cached, regular8_cached, twist_case


SECTION3_IDS = {"lemma-3.2", "lemma-3.3", "corollary-3.4", "corollary-3.5", "prop-3.6"}
SECTION4_MAIN_IDS = {"lemma-4.1", "corollary-4.2", "lemma-4.3", "lemma-4.4", "prop-4.5"}
SECTION5_IDS = {"lemma-5.1", "lemma-5.2", "lemma-5.3", "prop-5.4"}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_classify_projective_groups(p):
    report = classify(psl2_cached(p), p)
    assert report.verdict == "a"
    assert report.all_passed()
    ids = {c.id for c in report.checks}
    assert {"hypotheses", "lemma-2.1", "definition-2.2", "lemma-2.4", "lemma-2.5", "lemma-2.6"} <= ids
    if p % 4 == 1:
        assert SECTION3_IDS <= ids and not (SECTION4_MAIN_IDS & ids)
    else:
        assert SECTION4_MAIN_IDS <= ids and not (SECTION3_IDS & ids)
    line = line_over(p)
    assert report.witness == line.neg_reciprocal().cycle_notation()


@pytest.mark.parametrize("variant", [3, 5])
def test_classify_exceptional_groups(variant):
    group = exceptional_cached(variant)
    report = classify(group, 7)
    assert report.verdict == "b"
    assert report.all_passed()
    ids = [c.id for c in report.checks]
    assert "lemma-4.1" in ids and set(ids) >= SECTION5_IDS
    assert "prop-4.5" not in ids
    assert report.witness == EXCEPTIONAL_INVOLUTIONS[variant]
    assert report.dichotomy is not None
    assert len(report.dichotomy.normal8_generators) == 7


def test_exceptional_variants_are_distinct_groups():
    a = exceptional_cached(3).element_set()
    b = exceptional_cached(5).element_set()
    c = psl2_cached(7).element_set()
    assert a != b and a != c and b != c


def test_classify_report_is_deterministic():
    one = classify(psl2_cached(13), 13).to_json()
    two = classify(psl2_cached(13), 13).to_json()
    assert one == two
    parsed = json.loads(one)
    assert set(parsed) == {"p", "verdict", "witness", "checks"}
    for check in parsed["checks"]:
        assert set(check) == {"id", "pass", "witness", "counterexample"}


def test_hypotheses_examples(line7):
    assert check_hypotheses(psl2_cached(11), 11).passed
    assert check_hypotheses(exceptional_cached(3), 7).passed
    translations = PermGroup([line7.translation(1)])
    result = check_hypotheses(translations, 7)
    assert not result.passed
    assert result.witness["order"] == 7
    assert not result.witness["transitive"]
    report = classify(translations, 7)
    assert report.verdict == "hypotheses-failed"
    assert report.witness == ""


def test_hypotheses_one_translation_decides_them_all(line7):
    # PSL(2,7) conjugated by the point transposition (1 2): order 168 and
    # transitive, but z + 1 becomes (0 2 1 3 4 5 6), which no element of
    # order 7 fixing inf is, so no translation is left in the group
    swap12 = line7.from_cycles("(1 2)")
    conjugated = PermGroup(swap12 * g * swap12 for g in psl2_cached(7).generators)
    assert conjugated.order() == 168 and conjugated.is_transitive()
    for group, p in ((conjugated, 7), (psl2_cached(7), 7), (psl2_cached(13), 13)):
        line = group.line
        # the reference sifts every translation on its own
        missing = [a for a in range(1, p) if not group.contains(line.translation(a))]
        result = check_hypotheses(group, p)
        assert result.witness["has_all_translations"] == (not missing)
        assert result.counterexample == (
            {"missing_translation_amounts": missing} if missing else None
        )
    assert check_hypotheses(conjugated, 7).counterexample == {
        "missing_translation_amounts": [1, 2, 3, 4, 5, 6]
    }
    assert classify(conjugated, 7).verdict == "hypotheses-failed"


def test_decompose_stabilizer_sizes():
    for p, size in [(5, 2), (7, 3), (11, 5), (13, 6)]:
        dec = decompose_stabilizers(psl2_cached(p))
        assert len(dec.fixing) == len(dec.swapping) == size
        assert decomposition_check(dec, p).passed
    dec3 = decompose_stabilizers(psl2_cached(3))
    assert len(dec3.fixing) == 1 and len(dec3.swapping) == 1


def test_decomposition_check_rejects_unclosed_fixing_set(line7):
    # the right sizes, but scaling(2)^2 = scaling(4) is missing
    dec = decompose_stabilizers(psl2_cached(7))
    fixing = tuple(line7.scaling(3) if g == line7.scaling(4) else g for g in dec.fixing)
    forged = StabilizerDecomposition(fixing, dec.swapping)
    result = decomposition_check(forged, 7)
    assert result.witness["fixing_size"] == result.witness["expected_size"] == 3
    assert result.witness["fixing_is_subgroup"] is False
    assert not result.passed


def test_decomposition_check_rejects_forged_coset(line7):
    # the right sizes and a closed fixing set, but one swap lies outside the
    # coset of the others: the exceptional involution is not in PSL(2,7)
    dec = decompose_stabilizers(psl2_cached(7))
    forged_swap = line7.from_cycles(EXCEPTIONAL_INVOLUTIONS[3])
    assert forged_swap not in dec.swapping
    forged = StabilizerDecomposition(dec.fixing, dec.swapping[:2] + (forged_swap,))
    result = decomposition_check(forged, 7)
    assert result.witness == {
        "fixing_size": 3,
        "swapping_size": 3,
        "expected_size": 3,
        "fixing_is_subgroup": True,
        "swapping_is_coset": False,
    }
    assert not result.passed


@pytest.mark.parametrize("p,cycles", [(7, "(0 inf)"), (13, "(0 inf)(1 2)")])
def test_square_class_action_names_forged_swap(p, cycles):
    # p = 7: the swaps must interchange the classes, and (0 inf) keeps them;
    # p = 13: they must keep them, and (1 2) moves the square 1 to a non-square
    line = line_over(p)
    group = psl2_cached(p)
    dec = decompose_stabilizers(group)
    forged_swap = line.from_cycles(cycles)
    swapping = dec.swapping[:1] + (forged_swap,) + dec.swapping[2:]
    forged = StabilizerDecomposition(dec.fixing, swapping)
    quad = quadratic_classes(p)
    assert check_square_class_action(group, dec, quad).passed
    result = check_square_class_action(group, forged, quad)
    assert not result.passed
    assert result.counterexample == {"element": cycles}
    assert result.witness == {
        "minus_one_is_square": p % 4 == 1,
        "action": "stabilizes" if p % 4 == 1 else "interchanges",
    }


def test_classify_finds_the_square_generator_once(monkeypatch):
    group = psl2_cached(31)
    calls = []
    real = fields.primitive_root

    def spy(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(fields, "primitive_root", spy)
    assert classify(group, 31).verdict == "a"
    assert calls == [31]


def test_stabilizer_scalings_check(line7):
    quad = quadratic_classes(7)
    group = psl2_cached(7)
    dec = decompose_stabilizers(group)
    result = check_stabilizer_scalings(group, dec, quad)
    assert result.passed
    expected = {line7.identity(), line7.scaling(2), line7.scaling(4)}
    assert set(dec.fixing) == expected


def test_forced_failure_on_symmetric_group(line5):
    # wrong group entirely: S6 on the 6 points of the p=5 line
    n = line5.size
    swap = line5.perm((1, 0) + tuple(range(2, n)))
    cycle = line5.perm(tuple(range(1, n)) + (0,))
    group = PermGroup([swap, cycle])
    quad = quadratic_classes(5)
    assert not check_hypotheses(group, 5).passed
    dec = decompose_stabilizers(group)
    assert not decomposition_check(dec, 5).passed
    result = check_stabilizer_scalings(group, dec, quad)
    assert not result.passed
    assert result.witness["max_fixed_points_nonidentity"] > 2
    assert result.counterexample is not None


def test_twist_exponents():
    for p in (5, 7, 11, 13):
        line = line_over(p)
        quad = quadratic_classes(p)
        n = twist_exponent(line.neg_reciprocal(), quad)
        half = (p - 1) // 2
        assert n % 2 == 1
        assert (n + 1) % half == 0  # acts as inversion on the squares
        assert (n * n - 1) % half == 0
    # p = 13 spot values
    n13 = twist_exponent(line_over(13).neg_reciprocal(), quadratic_classes(13))
    assert n13 == 5 and (n13 * n13 - 1) % 6 == 0


def test_twist_analysis_cases():
    quad7 = quadratic_classes(7)
    group7 = psl2_cached(7)
    lam7 = line_over(7).neg_reciprocal()
    assert lam7 in decompose_stabilizers(group7).swapping
    assert twist_case(7, lam7) == "p3mod4-main"
    assert lam7(1) == 6 and twist_exponent(lam7, quad7) == 5

    dec13 = decompose_stabilizers(psl2_cached(13))
    lam13 = next(s for s in dec13.swapping if s(1) == 1)
    assert twist_exponent(lam13, quadratic_classes(13)) == 5
    assert twist_case(13, lam13) == "p1mod4"
    assert lam13(1) == 1

    exceptional = exceptional_cached(3)
    lam = exceptional.line.from_cycles(EXCEPTIONAL_INVOLUTIONS[3])
    assert lam in decompose_stabilizers(exceptional).swapping
    assert twist_case(7, lam) == "p3mod4-special"
    constant, exponent = lam(1), twist_exponent(lam, quad7)
    assert constant == 3 and exponent == 1
    assert pow(constant, exponent, 7) == constant
    assert constant in quad7.nonsquares
    assert pow(3, 3, 7) == 7 - 1  # the special-case constant cubes to -1


def test_find_normalized_swap():
    for p in (7, 11):
        group = psl2_cached(p)
        dec = decompose_stabilizers(group)
        result, lam = check_unique_normalized_swap(dec, p)
        assert result.passed and result.witness["candidates"] == 1
        assert lam == group.line.neg_reciprocal()
    # S6 on the 6-point line has many pair-swapping elements hitting the
    # normalization, so uniqueness fails
    line5 = line_over(5)
    n = line5.size
    swap = line5.perm((1, 0) + tuple(range(2, n)))
    cycle = line5.perm(tuple(range(1, n)) + (0,))
    dec = decompose_stabilizers(PermGroup([swap, cycle]))
    result, lam = check_unique_normalized_swap(dec, 5)
    assert result.witness["candidates"] != 1
    assert not result.passed and lam is None


def test_twist_rejects_non_normalizing_map(line7):
    quad = quadratic_classes(7)
    # swaps 0 and inf but is not of the form c*z^n on each square class
    fake = line7.from_cycles("(0 inf)(1 2)")
    with pytest.raises(NoTwistExponent):
        twist_exponent(fake, quad)


def reference_twist_exponent(swap, quad) -> int:
    """``twist_exponent`` as a sweep over every square a and unit z."""
    p = quad.p
    half = (p - 1) // 2
    images = swap.images
    for z in range(1, p):
        if not 1 <= images[z] < p:
            raise NoTwistExponent("element does not permute the units")
    generator = quad.square_generator
    ratio = images[generator] * pow(images[1], p - 2, p) % p
    j = None
    power = 1
    for cand in range(half):
        if power == ratio:
            j = cand
            break
        power = power * generator % p
    if j is None:
        raise NoTwistExponent("no exponent matches on the square generator")
    for a in quad.squares:
        a_pow = pow(a, j, p)
        for z in range(1, p):
            if images[a * z % p] != a_pow * images[z] % p:
                raise NoTwistExponent(f"exponent candidate {j} fails at a={a}, z={z}")
    odd = [n for n in (j, j + half) if n % 2 == 1 and n > 0]
    if not odd:
        raise NoTwistExponent("no odd representative exists")
    return odd[0]


@st.composite
def unit_permutations(draw):
    """Maps swapping 0 and inf that permute the units: at random, as
    z -> c z^n with c depending on the square class of z (these have a
    twist exponent), or such a map with two images exchanged."""
    p = draw(st.sampled_from((5, 7, 11, 13, 17, 19, 23)))
    quad = quadratic_classes(p)
    units = list(range(1, p))
    kind = draw(st.sampled_from(("random", "class-power", "perturbed")))
    if kind == "random":
        images = draw(st.permutations(units))
    else:
        n = draw(st.integers(1, p - 2))
        c_square, c_nonsquare = draw(st.sampled_from(units)), draw(st.sampled_from(units))
        images = [
            (c_square if quad.is_square(z) else c_nonsquare) * pow(z, n, p) % p for z in units
        ]
        assume(sorted(images) == units)
        if kind == "perturbed":
            i, k = draw(st.lists(st.integers(0, p - 2), min_size=2, max_size=2, unique=True))
            images[i], images[k] = images[k], images[i]
    return Permutation((p, *images, 0)), quad


def _twist_outcome(function, swap, quad):
    try:
        return function(swap, quad)
    except NoTwistExponent as exc:
        return f"raises: {exc}"


@settings(max_examples=300, deadline=None)
@given(unit_permutations())
def test_twist_exponent_matches_full_sweep(case):
    swap, quad = case
    assert _twist_outcome(twist_exponent, swap, quad) == _twist_outcome(
        reference_twist_exponent, swap, quad
    )


GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name,p,source",
    [
        ("classify_p13_psl2", 13, "psl2"),
        ("classify_p43_gens", 43, str(GOLDEN_DIR / "classify_p43.gens")),
    ],
)
def test_classify_enumerates_no_element(monkeypatch, capsys, name, p, source):
    def refuse(self):
        raise AssertionError("classify enumerated the group")

    monkeypatch.setattr(PermGroup, "element_images", refuse)
    monkeypatch.setattr(PermGroup, "elements", refuse)
    code = main(["classify", "--p", str(p), "--group", source, "--format", "json"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / f"{name}.json").read_text()


@pytest.mark.parametrize(
    "build,p",
    [
        (lambda: psl2_perm_group(13), 13),
        (lambda: psl2_perm_group(11), 11),
        (lambda: load_generators_file(str(GOLDEN_DIR / "classify_p43.gens"), 43), 43),
    ],
    ids=["psl2-13", "psl2-11", "p43-gens"],
)
def test_classify_builds_no_group(monkeypatch, build, p):
    # every chain level classify reads has a prefix of (0, inf), and the
    # group's own chain is based there
    group = build()
    built = _spy_on_builds(monkeypatch)
    report = classify(group, p)
    assert report.verdict == "a" and report.all_passed()
    assert built == []


def _spy_on_builds(monkeypatch) -> list:
    """The arguments of every PermGroup built from here on."""
    built = []
    init = PermGroup.__init__

    def spy(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", spy)
    return built


@pytest.mark.parametrize(
    "build,p", [(lambda: psl2_cached(13), 13), (regular8_cached, 7)], ids=["psl2-13", "regular-8"]
)
def test_pair_orbit_count_builds_no_group(monkeypatch, build, p):
    # a transitive group's only orbit starts at 0, where its own chain is
    # based, so its suborbits come off level 1 of that chain
    group = build()
    built = _spy_on_builds(monkeypatch)
    check_pair_orbit_count(group, p)
    assert built == []


def test_pair_orbit_count_memory_at_p229():
    # the suborbit walk holds O(p) points, where orbits on unordered pairs
    # would hold all (p^2 + p) / 2 = 26,335 of them
    p = 229
    line = line_over(p)
    group = PermGroup([line.translation(1), line.neg_reciprocal()])
    tracemalloc.start()
    try:
        result = check_pair_orbit_count(group, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 1 << 20


def _search_found_groups(monkeypatch, p):
    found = []
    real = search.classify

    def record(group, q):
        found.append(group)
        return real(group, q)

    monkeypatch.setattr(search, "classify", record)
    search.constrained_search(p)
    return found


def test_chains_are_based_at_zero_then_infinity(monkeypatch, line7):
    exceptional = build_exceptional(3)
    found = _search_found_groups(monkeypatch, 7)
    assert len(found) == 3
    groups = [
        load_generators_file(str(GOLDEN_DIR / "classify_p43.gens"), 43),
        psl2_perm_group(13),
        psl2_perm_group(8),
        exceptional,
        build_exceptional(5),
        *found,
        psl2_perm_group(7).normal_closure([line7.translation(1)]),
        # regular on the 8 points, so its stabilizer of 0 fixes inf too
        regular8_cached(),
        # fixes both leading points: two one-point levels
        psl2_perm_group(7).normal_closure([line7.identity()]),
    ]
    orders = [g.order() for g in groups]
    assert orders == [39732, 1092, 504, 168, 168, 168, 168, 168, 168, 8, 1]
    for group in groups:
        prefix = (0, group.line.infinity)
        assert group.base[:2] == prefix
        assert group.rebased(prefix) is group
        assert group.rebased(prefix[:1]) is group


def _negation_class_oracle(group, p):
    # the Lemma 3.3 count against a breadth-first search of the class
    result = check_swaps_are_involutions(group, decompose_stabilizers(group), p)
    size = result.witness["negation_class_size"]
    assert size == len(group.conjugacy_class_of(group.line.scaling(p - 1)))
    assert size == (p * p + p) // 2
    assert result.passed


@pytest.mark.parametrize("p", [5, 13, 17, 53, 101, 197])
def test_negation_class_size_oracle(p):
    line = line_over(p)
    _negation_class_oracle(PermGroup([line.translation(1), line.neg_reciprocal()]), p)


@pytest.mark.parametrize("p", [29, 37, 41])
def test_negation_class_size_oracle_conjugated(p):
    _negation_class_oracle(load_generators_file(str(GOLDEN_DIR / f"classify_p{p}.gens"), p), p)


def test_square_class_action_values():
    line13 = line_over(13)
    assert line13.neg_reciprocal()(1) == 12
    assert 12 in quadratic_classes(13).squares
    line7 = line_over(7)
    assert line7.neg_reciprocal()(1) == 6
    assert 6 in quadratic_classes(7).nonsquares
    lam = line7.from_cycles(EXCEPTIONAL_INVOLUTIONS[3])
    assert lam(1) == 3 and 3 in quadratic_classes(7).nonsquares


def test_pair_orbit_count_oracle():
    # independent route: count over 2-subsets instead of over elements; the
    # regular group of order 8 has no closed form to meet
    for group, p, closed_form in (
        (psl2_cached(5), 5, True),
        (psl2_cached(13), 13, True),
        (regular8_cached(), 7, False),
    ):
        points = list(group.line.points())
        count = 0
        for i, u in enumerate(points):
            for v in points[i + 1 :]:
                count += sum(
                    1
                    for img in group.element_images()
                    if img[u] == v and img[v] == u
                )
        assert count == check_pair_orbit_count(group, p).witness["pair_orbit_count"]
        if closed_form:
            assert count == ((p * p + p) // 2) * ((p - 1) // 2)


def test_section3_report_details():
    report = classify(psl2_cached(13), 13)
    by_id = {c.id: c for c in report.checks}
    assert by_id["lemma-3.2"].witness["pair_orbit_count"] == 546
    assert by_id["lemma-3.3"].witness["negation_class_size"] == 91
    assert by_id["corollary-3.5"].witness["nonsquare_constant"] == 1
    assert by_id["prop-3.6"].witness["contained"] is True
    report5 = classify(psl2_cached(5), 5)
    by_id5 = {c.id: c for c in report5.checks}
    assert by_id5["lemma-3.2"].witness["pair_orbit_count"] == 30
    assert by_id5["prop-3.6"].witness["witness"] == "(0 inf)(1 4)"


def test_section4_report_details():
    report = classify(psl2_cached(7), 7)
    by_id = {c.id: c for c in report.checks}
    assert by_id["lemma-4.1"].witness["lambda"] == "(0 inf)(1 6)(2 3)(4 5)"
    assert by_id["corollary-4.2"].witness["constant"] == 6
    assert by_id["lemma-4.3"].witness["order"] == 3
    assert by_id["lemma-4.4"].witness["solutions"] == [1, 6]
    assert by_id["prop-4.5"].witness["exponent"] == 5
    report11 = classify(psl2_cached(11), 11)
    by_id11 = {c.id: c for c in report11.checks}
    assert by_id11["prop-4.5"].passed
    assert by_id11["corollary-4.2"].witness["constant"] == 10


def test_section5_report_details():
    report = classify(exceptional_cached(3), 7)
    by_id = {c.id: c for c in report.checks}
    assert by_id["corollary-4.2"].witness["constant"] == 3
    assert by_id["lemma-5.1"].witness["tested_x"] == [2]
    assert by_id["lemma-5.3"].witness["quartic_branch"] == "c4+3"
    assert by_id["prop-5.4"].witness["normal8_order"] == 8
    assert by_id["prop-5.4"].witness["gf8_transport_matches"] is True
    report5 = classify(exceptional_cached(5), 7)
    by_id5 = {c.id: c for c in report5.checks}
    assert by_id5["corollary-4.2"].witness["constant"] == 5
    assert by_id5["lemma-5.3"].witness["quartic_branch"] == "3c4+1"
    # the two quartic branches pin the two constants
    assert (pow(3, 4, 7) + 3) % 7 == 0
    assert (3 * pow(5, 4, 7) + 1) % 7 == 0
    assert (3 * 5) % 7 == 1


def test_special_case_arithmetic():
    assert pow(3, 3, 7) == 6  # c^3 = -1 for c = 3
    assert (pow(3, 4, 7) + 3) % 7 == 0
    assert pow(5, 3, 7) == 6


def test_p3_case():
    result = p3_case_check()
    assert result.passed
    assert result.witness["order"] == 12
    assert result.witness["contains_swap"] == "(0 inf)(1 2)"
    assert result.witness["simple"] is False
    assert result.witness["double_transposition_closure_order"] == 4
    report = classify(psl2_cached(3), 3)
    assert report.verdict == "a" and report.all_passed()
    assert report.witness == "(0 inf)(1 2)"


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_corollary_pipeline(p):
    result = corollary_check(p)
    assert result.passed
    assert result.witness["sylow_count"] == p + 1
    assert result.witness["simple"] is True
    assert result.witness["conjugation_action_matches"] is True
    assert result.witness["sylow_action_doubly_transitive"] is True
    relabeling = dict(result.witness["point_relabeling"])
    assert relabeling["inf"] == "inf"
    assert len(set(relabeling.values())) == p + 1


def test_corollary_range():
    with pytest.raises(ValueError):
        corollary_check(3)
    with pytest.raises(ValueError):
        corollary_check(149)


def test_corollary_enumerates_nothing(monkeypatch):
    def refuse(self, *args):
        raise AssertionError("the corollary scanned the group")

    monkeypatch.setattr(PermGroup, "element_images", refuse)
    monkeypatch.setattr(PermGroup, "sylow_subgroups", refuse)
    for p in (5, 7, 11, 37):
        assert corollary_check(p).passed


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_sylow_orbit_is_every_sylow_subgroup(p):
    group = psl2_cached(p)
    sylows, action = sylow_orbit(group, p)
    assert list(sylows) == [frozenset(x.images for x in s) for s in group.sylow_subgroups(p)]
    assert len(sylows) == p + 1
    # each generator permutes the subgroups as conjugation does
    for g, moved in zip(group.generators, action):
        for sub, image in zip(sylows, moved):
            assert sylows[image] == frozenset((g * Permutation(x) * g.inverse()).images
                                              for x in sub)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_sylow_orbit_against_sympy(p):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    group = psl2_cached(p)
    oracle = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in group.generators]
    )
    sylow = frozenset(tuple(x.array_form) for x in oracle.sylow_subgroup(p).elements)
    # the conjugates of sympy's Sylow subgroup, by sympy's own products
    conjugates, queue = {sylow}, [sylow]
    for sub in queue:
        for g in oracle.generators:
            image = frozenset(
                tuple((~g * combinatorics.Permutation(list(x)) * g).array_form) for x in sub
            )
            if image not in conjugates:
                conjugates.add(image)
                queue.append(image)
    sylows, _ = sylow_orbit(group, p)
    assert set(sylows) == conjugates
    assert len(conjugates) == p + 1


def test_build_exceptional():
    with pytest.raises(BadVariant):
        build_exceptional(4)
    group = exceptional_cached(3)
    assert group.order() == 168
    assert group.contains(group.line.from_cycles("(0 inf)(1 3)(2 6)(4 5)"))
    assert not group.is_simple()
    for variant in (3, 5):
        result = exceptional_report(variant)
        assert result.passed
        assert result.witness["fixed_point_free_involutions"] == 7
        assert result.witness["gf8_transport_matches"] is True
        assert result.witness["builtin_exceptional_matches"] is True
        # PSL(2,7) has order 168 too, but it is neither variant
        passed, witness, _ = _exceptional_structure(psl2_cached(7), variant)
        assert not passed
        assert witness["presentation_matches"] is False
        assert witness["gf8_transport_matches"] is False


def test_classify_requires_matching_line():
    with pytest.raises(ValueError):
        classify(psl2_cached(7), 11)
