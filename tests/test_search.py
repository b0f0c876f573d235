from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2kit import search
from psl2kit.fields import CapExceeded, NotOddPrime
from psl2kit.groups import closure_images
from psl2kit.projline import ProjLine
from psl2kit.search import (
    DUPLICATE,
    NEW,
    REJECTED,
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
        ("full", 3): full_search(3),
        ("full", 5): full_search(5),
        ("full", 7): full_search(7),
        ("constrained", 3): constrained_search(3),
        ("constrained", 5): constrained_search(5),
        ("constrained", 7): constrained_search(7),
        ("constrained", 11): constrained_search(11),
        ("constrained", 13): constrained_search(13),
    }


def test_full_search_candidate_counts(outcomes):
    assert outcomes[("full", 3)].candidates_examined == 2  # 2! swap actions
    assert outcomes[("full", 5)].candidates_examined == 24  # 4! swap actions
    assert outcomes[("full", 7)].candidates_examined == 720  # 6!


def test_group_counts_match_dichotomy(outcomes):
    for (mode, p), outcome in outcomes.items():
        assert len(outcome.groups) == expected_group_count(p), (mode, p)


def test_full_and_constrained_agree(outcomes):
    for p in (3, 5, 7):
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
        ("search_p3_full", "full", 3),
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
    # past its cap each mode refuses p, prime or not; below it, non-odd-primes
    for search_fn, too_large, not_odd_prime in (
        (constrained_search, (33, 37), (1, 2, 9)),
        (full_search, (9, 11), (1, 2, 6)),
    ):
        for p in too_large:
            with pytest.raises(CapExceeded):
                search_fn(p)
        for p in not_odd_prime:
            with pytest.raises(NotOddPrime):
                search_fn(p)


def test_found_groups_built_from_three_generators(monkeypatch):
    # every chain the search builds, kept or not, gets exactly three generators
    sizes = []
    real = search.PermGroup

    def spy(generators, **kwargs):
        generators = list(generators)
        sizes.append(len(generators))
        return real(generators, **kwargs)

    monkeypatch.setattr(search, "PermGroup", spy)
    found = len(constrained_search(7).groups) + len(full_search(5).groups)
    assert found == 4
    assert len(sizes) > found  # rejected candidates build chains too
    assert all(n == 3 for n in sizes)


def lagrange_refusals(p, swap_candidates):
    """The candidates the Lagrange test refuses, with the base's images and
    the target order."""
    line = ProjLine.over_prime(p)
    base_images = [g.images for g in search._base_generators(line, p)]
    shifts = search._lagrange_shifts(base_images)
    target = (p**3 - p) // 2
    refused = [
        s for s in swap_candidates
        if s is not None and search._fails_lagrange(s, shifts, target)
    ]
    return refused, base_images, target


@pytest.mark.parametrize(
    "mode,p",
    [("full", 5), ("full", 7), ("constrained", 5), ("constrained", 7), ("constrained", 11),
     ("constrained", 13)],
)
def test_lagrange_refusals_generate_no_group_of_the_target_order(mode, p):
    candidates = search._full_candidates if mode == "full" else search._constrained_candidates
    refused, base_images, target = lagrange_refusals(p, candidates(p))
    # at p = 5 every element order of S_6 divides 60, so nothing is refused
    assert bool(refused) == (p > 5)
    for s in refused:
        closure = closure_images(base_images + [s], limit=target)
        assert closure is None or len(closure) != target


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.sampled_from([11, 13]))
def test_lagrange_refusals_sound_on_drawn_swaps(data, p):
    units = data.draw(st.permutations(range(1, p)))
    swap = (p, *units, 0)  # 0 -> inf, the units anyhow, inf -> 0
    refused, base_images, target = lagrange_refusals(p, [swap])
    if refused:
        closure = closure_images(base_images + [swap], limit=target)
        assert closure is None or len(closure) != target


@pytest.mark.parametrize(
    "search_fn,p,budget", [(full_search, 7, 200), (constrained_search, 13, 100)]
)
def test_lagrange_test_spares_most_chain_builds(monkeypatch, search_fn, p, budget):
    # without the Lagrange test, full p = 7 built 714 chains and constrained p = 13 built 277
    builds = []
    real = search.PermGroup

    def spy(generators, **kwargs):
        builds.append(1)
        return real(generators, **kwargs)

    monkeypatch.setattr(search, "PermGroup", spy)
    search_fn(p)
    assert len(builds) <= budget


def reference_decisions(p, swap_candidates):
    """Decide every candidate the way the search did before it sifted and
    capped chains: close it up to (p^3-p)/2 and compare element-set hashes."""
    line = ProjLine.over_prime(p)
    base_images = [g.images for g in search._base_generators(line, p)]
    target = (p**3 - p) // 2
    seen = set()
    for swap_images in swap_candidates:
        closure = None
        if swap_images is not None:
            closure = closure_images(base_images + [swap_images], limit=target)
        if closure is None or len(closure) != target:
            yield REJECTED
            continue
        digest = element_set_hash(closure)
        yield DUPLICATE if digest in seen else NEW
        seen.add(digest)


@pytest.mark.parametrize(
    "mode,p",
    [("full", 5), ("full", 7), ("constrained", 5), ("constrained", 7), ("constrained", 11)],
)
def test_candidate_decisions_match_closure_reference(mode, p):
    candidates = search._full_candidates if mode == "full" else search._constrained_candidates
    line = ProjLine.over_prime(p)
    base = search._base_generators(line, p)
    decided = [
        decision
        for decision, _ in search._decide_candidates(base, (p**3 - p) // 2, candidates(p))
    ]
    assert decided == list(reference_decisions(p, candidates(p)))
    assert decided.count(NEW) == expected_group_count(p)
    assert {NEW, DUPLICATE, REJECTED} <= set(decided)


@pytest.mark.parametrize("p", [17, 19, 23])
def test_constrained_search_larger_primes(p):
    outcome = constrained_search(p)
    assert len(outcome.groups) == expected_group_count(p)
    assert all(g.verdict == "a" for g in outcome.groups)
    assert all(g.order == (p**3 - p) // 2 for g in outcome.groups)


def test_wrong_base_subgroup_raises(monkeypatch):
    monkeypatch.setattr(
        search, "_base_generators", lambda line, p: [line.translation(1)]
    )
    with pytest.raises(SearchInvariantError):
        constrained_search(5)


def test_chain_order_disagreeing_with_closure_raises(monkeypatch):
    real = search.closure_images
    # a found group's closure reported one element short, then as outgrowing the limit
    for wrong in (lambda closure: frozenset(sorted(closure)[1:]), lambda closure: None):

        def lying(gens, limit=None, wrong=wrong):
            closure = real(gens, limit=limit)
            # the base subgroup's closure stays honest
            return closure if limit is None else wrong(closure)

        monkeypatch.setattr(search, "closure_images", lying)
        with pytest.raises(SearchInvariantError, match="disagrees with closure size"):
            constrained_search(5)


def test_found_group_failing_hypotheses_raises(monkeypatch):
    real = search.classify

    def failing(group, p):
        report = real(group, p)
        first = report.checks[0]._replace(passed=False)
        return report._replace(checks=(first,) + report.checks[1:])

    monkeypatch.setattr(search, "classify", failing)
    with pytest.raises(SearchInvariantError):
        constrained_search(5)
