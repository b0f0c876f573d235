import dataclasses
from pathlib import Path

import pytest

from psl2kit import search
from psl2kit.search import (
    PTooLarge,
    SearchInvariantError,
    constrained_search,
    element_set_hash,
    expected_group_count,
    full_search,
)

from conftest import exceptional_cached, psl2_cached

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def outcomes():
    return {
        ("full", 5): full_search(5),
        ("full", 7): full_search(7),
        ("constrained", 5): constrained_search(5),
        ("constrained", 7): constrained_search(7),
        ("constrained", 11): constrained_search(11),
        ("constrained", 13): constrained_search(13),
    }


def test_full_search_candidate_counts(outcomes):
    assert outcomes[("full", 5)].candidates_examined == 24  # 4! swap actions
    assert outcomes[("full", 7)].candidates_examined == 720  # 6!


def test_group_counts_match_dichotomy(outcomes):
    for (mode, p), outcome in outcomes.items():
        assert len(outcome.groups) == expected_group_count(p), (mode, p)


def test_full_and_constrained_agree(outcomes):
    for p in (5, 7):
        full_hashes = {g.element_set_sha256 for g in outcomes[("full", p)].groups}
        constrained_hashes = {
            g.element_set_sha256 for g in outcomes[("constrained", p)].groups
        }
        assert full_hashes == constrained_hashes


def test_found_groups_have_right_order_and_verdicts(outcomes):
    for (mode, p), outcome in outcomes.items():
        target = (p**3 - p) // 2
        for g in outcome.groups:
            assert g.order == target
            assert g.verdict in ("a", "b")
            assert g.contains_neg_reciprocal == (g.verdict == "a")
        assert outcome.base_subgroup_order == p * (p - 1) // 2


def test_verdict_a_group_is_the_projective_group(outcomes):
    for (mode, p), outcome in outcomes.items():
        expected = element_set_hash(psl2_cached(p).element_set())
        a_groups = [g for g in outcome.groups if g.verdict == "a"]
        assert len(a_groups) == 1
        assert a_groups[0].element_set_sha256 == expected


def test_p7_exceptional_groups_found(outcomes):
    expected = {
        element_set_hash(exceptional_cached(v).element_set()) for v in (3, 5)
    }
    for mode in ("full", "constrained"):
        found = {
            g.element_set_sha256
            for g in outcomes[(mode, 7)].groups
            if g.verdict == "b"
        }
        assert found == expected


def test_outcome_json_deterministic(outcomes):
    again = constrained_search(5)
    assert again.to_json() == outcomes[("constrained", 5)].to_json()
    assert "elapsed" not in again.to_json()
    assert again.elapsed_seconds > 0


@pytest.mark.parametrize(
    "name,mode,p",
    [
        ("search_p5_full", "full", 5),
        ("search_p7_full", "full", 7),
        ("search_p5_constrained", "constrained", 5),
        ("search_p7_constrained", "constrained", 7),
        ("search_p11_constrained", "constrained", 11),
        ("search_p13_constrained", "constrained", 13),
    ],
)
def test_golden_outcomes(outcomes, name, mode, p):
    golden = (GOLDEN_DIR / f"{name}.json").read_text()
    assert outcomes[(mode, p)].to_json() + "\n" == golden


def test_search_input_validation():
    with pytest.raises(PTooLarge):
        constrained_search(9)
    with pytest.raises(PTooLarge):
        constrained_search(2)
    with pytest.raises(PTooLarge):
        constrained_search(37)
    with pytest.raises(PTooLarge):
        full_search(11)


def test_found_groups_built_from_three_generators(monkeypatch):
    sizes = []
    real = search.PermGroup

    def spy(generators, **kwargs):
        generators = list(generators)
        sizes.append(len(generators))
        return real(generators, **kwargs)

    monkeypatch.setattr(search, "PermGroup", spy)
    found = len(constrained_search(7).groups) + len(full_search(5).groups)
    assert len(sizes) == found == 4
    assert all(n <= 3 for n in sizes)


def test_wrong_base_subgroup_raises(monkeypatch):
    monkeypatch.setattr(
        search, "_base_generators", lambda line, p: [line.translation(1)]
    )
    with pytest.raises(SearchInvariantError):
        constrained_search(5)


def test_chain_order_disagreeing_with_closure_raises(monkeypatch):
    real = search.PermGroup
    # drop the swap: the chain then has the base subgroup's order
    monkeypatch.setattr(search, "PermGroup", lambda gens: real(list(gens)[:2]))
    with pytest.raises(SearchInvariantError):
        constrained_search(5)


def test_found_group_failing_hypotheses_raises(monkeypatch):
    real = search.classify

    def failing(group, p):
        report = real(group, p)
        first = dataclasses.replace(report.checks[0], passed=False)
        return dataclasses.replace(report, checks=(first,) + report.checks[1:])

    monkeypatch.setattr(search, "classify", failing)
    with pytest.raises(SearchInvariantError):
        constrained_search(5)
