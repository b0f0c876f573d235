"""The failure branches of the lemma chain, on forged inputs.

A genuine group of order (p^3-p)/2 passes every check, so these branches
run only on forged swaps and decompositions, or with a check forced to
fail; each test asserts that the check fails and names what failed.
"""

import json

import pytest

from psl2kit import verify
from psl2kit.cli import main
from psl2kit.fields import quadratic_classes
from psl2kit.projline import Permutation
from psl2kit.verify import (
    NoTwistExponent,
    SpecialCaseContradiction,
    StabilizerDecomposition,
    check_normalized_swap_shape,
    check_special_constant_relation,
    check_special_power_identities,
    check_swap_power_form,
    check_twist_exponents,
    classify,
    decompose_stabilizers,
    twist_exponent,
)

from conftest import exceptional_cached, line_over, psl2_cached


def _swap(p, unit_images):
    """The map exchanging 0 and inf that sends the unit z to unit_images[z - 1]."""
    return Permutation((p, *unit_images, 0))


def _forced_to_fail(monkeypatch, name):
    """Replace the check ``name`` in verify.py by one that runs it and then
    reports it failed; it may return a CheckResult or a tuple led by one."""
    real = getattr(verify, name)

    def failing(*args):
        out = real(*args)
        if isinstance(out, verify.CheckResult):
            return out._replace(passed=False)
        return (out[0]._replace(passed=False), *out[1:])

    monkeypatch.setattr(verify, name, failing)


# --- the verdict fallback ---------------------------------------------------


@pytest.mark.parametrize(
    "p,check,check_id",
    [(13, "check_inversion_from_constant", "prop-3.6"), (11, "check_main_case_inversion", "prop-4.5")],
)
def test_failed_last_lemma_falls_back_to_containment(monkeypatch, capsys, p, check, check_id):
    _forced_to_fail(monkeypatch, check)
    report = classify(psl2_cached(p), p)
    assert report.verdict == "a"
    assert report.witness == line_over(p).neg_reciprocal().cycle_notation()
    assert not report.all_passed()
    assert [c.id for c in report.checks if not c.passed] == [check_id]

    assert main(["classify", "--p", str(p), "--group", "psl2", "--format", "json"]) == 3
    out = capsys.readouterr()
    assert json.loads(out.out) == json.loads(report.to_json())
    assert out.err == ""


def test_failed_special_case_falls_back_to_the_exceptional_structure(monkeypatch):
    _forced_to_fail(monkeypatch, "check_special_case_conclusion")
    group = exceptional_cached(3)
    report = classify(group, 7)
    assert report.verdict == "b"
    assert report.witness == verify.EXCEPTIONAL_INVOLUTIONS[3]
    assert [c.id for c in report.checks if not c.passed] == ["prop-5.4"]
    assert len(report.dichotomy.normal8_generators) == 7


def test_no_branch_matching_is_a_special_case_contradiction(monkeypatch, capsys):
    _forced_to_fail(monkeypatch, "check_special_case_conclusion")
    monkeypatch.setattr(verify, "_exceptional_structure", lambda group, variant: (False, {}, ()))
    with pytest.raises(SpecialCaseContradiction):
        classify(exceptional_cached(3), 7)
    assert main(["classify", "--p", "7", "--group", "exceptional:3"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("psl2kit: invariant violated: SpecialCaseContradiction: ")


# --- Lemma 2.6: the twist exponent ------------------------------------------


def test_twist_exponent_refuses_a_map_off_the_units(line7):
    # (0 1) sends the unit 1 to 0
    with pytest.raises(NoTwistExponent, match="does not permute the units"):
        twist_exponent(line7.from_cycles("(0 1)"), quadratic_classes(7))


def test_twist_exponent_refuses_an_even_exponent():
    # at p = 5 the square generator is 4; this forged map has s(4z) = s(z),
    # so j = 0, and j + (p-1)/2 = 2 is even too.  No bijection has only even
    # representatives: on the squares z -> z^j must be one-to-one.
    forged = _swap(5, (1, 2, 2, 1))
    with pytest.raises(NoTwistExponent, match="no odd representative exists"):
        twist_exponent(forged, quadratic_classes(5))


def test_twist_exponents_report_each_failing_swap():
    quad = quadratic_classes(11)
    # z -> z^3 permutes the units mod 11 with exponent 3, but 3^2 - 1 = 8 is
    # not divisible by (11-1)/2 = 5; (0 inf)(1 2) has no exponent at all
    cube = _swap(11, [pow(z, 3, 11) for z in range(1, 11)])
    no_exponent = line_over(11).from_cycles("(0 inf)(1 2)")
    assert twist_exponent(cube, quad) == 3
    result, exponents = check_twist_exponents(StabilizerDecomposition((), (cube, no_exponent)), quad)
    assert not result.passed
    assert exponents == {}
    assert result.witness == {"exponents": [], "divisibility_modulus": 5}
    assert result.counterexample == {
        "failures": [
            {"element": str(cube), "exponent": 3},
            {"element": "(0 inf)(1 2)", "reason": "no exponent matches on the square generator"},
        ]
    }


# --- Corollary 3.5 and Corollary 4.2 -----------------------------------------


def test_normalized_swap_shape_needs_one_swap_fixing_one():
    dec = decompose_stabilizers(psl2_cached(13))
    lam = next(s for s in dec.swapping if s(1) == 1)
    others = tuple(s for s in dec.swapping if s != lam)
    for swapping, candidates in ((others, 0), ((lam, *dec.swapping), 2)):
        result, found, constant = check_normalized_swap_shape(
            StabilizerDecomposition(dec.fixing, swapping), quadratic_classes(13)
        )
        assert not result.passed and found is None and constant is None
        assert result.witness == {"candidates_fixing_one": candidates}


def test_normalized_swap_shape_names_the_constants_seen():
    # inverts the squares mod 13 and fixes every non-square z, so lam(z) * z
    # is z^2, which takes the three values 4, 10 and 12
    quad = quadratic_classes(13)
    lam = _swap(13, [pow(z, 11, 13) if quad.is_square(z) else z for z in range(1, 13)])
    result, found, constant = check_normalized_swap_shape(StabilizerDecomposition((), (lam,)), quad)
    assert not result.passed and found == lam and constant is None
    assert result.witness == {
        "lambda": "(0 inf)(3 9)(4 10)",
        "inverts_squares": True,
        "nonsquare_constant": None,
    }
    assert result.counterexample == {"constants_seen": [4, 10, 12]}


def test_swap_power_form_reports_a_missing_exponent(line7):
    lam = line7.from_cycles("(0 inf)(1 2)")
    result, analysis = check_swap_power_form(lam, quadratic_classes(7))
    assert not result.passed and analysis is None
    assert result.witness == {"constant": 2}
    assert result.counterexample == {"reason": "exponent candidate 2 fails at a=2, z=3"}


# --- Lemmas 5.1 and 5.2 -----------------------------------------------------


def test_special_power_identities_name_the_failing_identity(line7):
    quad = quadratic_classes(7)
    # with c = 3 and n = 1 the only x is 2, where w = (1 - 2)^1 = 6; the
    # identity map keeps 2 and 4 = 1/2, but (a) wants 1 - w/9 = 5 and (c)
    # wants 9w = 5, while (b) and (d) both want 4
    result = check_special_power_identities(line7.identity(), 3, 1, quad)
    assert not result.passed
    assert result.witness == {"tested_x": [2], "identities": ["a", "b", "c", "d"]}
    assert result.counterexample == {
        "failures": [{"x": 2, "identity": "a"}, {"x": 2, "identity": "c"}]
    }


def test_special_constant_relation_names_the_failing_x():
    # c = 2 at p = 7: c^2 + c^-2 + 2/x = 6 + 2/x vanishes only at x = 2
    result = check_special_constant_relation(2, quadratic_classes(7))
    assert not result.passed
    assert result.witness == {"relation_holds_for": [2]}
    assert result.counterexample == {"failures": [3, 5]}
    assert check_special_constant_relation(3, quadratic_classes(7)).passed
