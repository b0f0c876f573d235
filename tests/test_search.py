import hashlib
import itertools
import json
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2kit import search
from psl2kit.cli import main
from psl2kit.fields import CapExceeded, NotOddPrime, quadratic_classes
from psl2kit.groups import PermGroup, closure_images
from psl2kit.projline import ProjLine, compose_images, identity_images, invert_images
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

from conftest import exceptional_cached, psl2_cached, reference_order

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


def _report(outcome) -> str:
    return json.dumps(outcome.to_json_dict(), sort_keys=True, indent=2)


def test_outcome_json_deterministic(outcomes):
    again = constrained_search(5)
    assert _report(again) == _report(outcomes[("constrained", 5)])
    assert "elapsed" not in _report(again)


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
    assert _report(outcomes[(mode, p)]) + "\n" == golden


def test_search_input_validation():
    # past its cap each mode refuses p, prime or not; below it, non-odd-primes
    for search_fn, too_large, not_odd_prime in (
        (constrained_search, (33, 37), (1, 2, 9)),
        (full_search, (13, 15), (1, 2, 6, 9)),
    ):
        for p in too_large:
            with pytest.raises(CapExceeded):
                search_fn(p)
        for p in not_odd_prime:
            with pytest.raises(NotOddPrime):
                search_fn(p)


def spy_chain_builds(monkeypatch):
    """The generator count of every chain the search builds, in order."""
    sizes = []
    real = search.PermGroup

    def spy(generators, **kwargs):
        generators = list(generators)
        sizes.append(len(generators))
        return real(generators, **kwargs)

    monkeypatch.setattr(search, "PermGroup", spy)
    return sizes


def test_found_groups_built_from_three_generators(monkeypatch):
    # the Schreier test looks its words up in the base's element set, so a
    # search builds only a chain of three generators per new group: no base
    # chain, and none for a rejected or duplicate swap
    sizes = spy_chain_builds(monkeypatch)
    found_constrained = len(constrained_search(7).groups)
    found_full = len(full_search(5).groups)
    assert found_constrained + found_full == 4
    assert sizes == [3] * found_constrained + [3] * found_full


@pytest.mark.parametrize(
    "search_fn,p,budget", [(full_search, 7, 200), (constrained_search, 13, 100)]
)
def test_lagrange_test_spares_most_chain_builds(monkeypatch, search_fn, p, budget):
    # with no test ahead of the chains, full p = 7 built 714 and constrained
    # p = 13 built 277; the Lagrange filter brought that under the budget, and
    # the Schreier test at inf, on the base's element set, now spares every
    # chain but one per new group
    sizes = spy_chain_builds(monkeypatch)
    found = len(search_fn(p).groups)
    assert found == expected_group_count(p)
    assert sizes == [3] * found
    assert len(sizes) <= budget


def lagrange_refusals(p, swap_candidates):
    """The candidates Lagrange's theorem refuses: s or some s*w, w the
    scaling or z+k, k = 1..p-1, has an order not dividing (p^3-p)/2.  Each
    such word lies in <base, s>, so that group cannot have that order."""
    line = ProjLine.over_prime(p)
    translation, scaling = map(tuple, search._base_generators(line, p))
    shifts = [scaling]
    power = translation
    for _ in range(p - 1):
        shifts.append(power)
        power = compose_images(translation, power)
    target = (p**3 - p) // 2
    return [
        s
        for s in swap_candidates
        if s is not None
        and any(
            target % reference_order(w)
            for w in [tuple(s)] + [compose_images(tuple(s), w) for w in shifts]
        )
    ]


@pytest.mark.parametrize(
    "mode,p",
    [("full", 5), ("full", 7), ("constrained", 5), ("constrained", 7), ("constrained", 11),
     ("constrained", 13)],
)
def test_lagrange_refusals_generate_no_group_of_the_target_order(mode, p):
    # Lagrange's theorem is an oracle apart from the Schreier test: every
    # swap it refuses the search must reject, and closure must confirm
    candidates = search._full_candidates if mode == "full" else search._constrained_candidates
    refused = lagrange_refusals(p, candidates(p))
    # at p = 5 every element order of S_6 divides 60, so nothing is refused
    assert bool(refused) == (p > 5)
    line = ProjLine.over_prime(p)
    base = search._base_generators(line, p)
    target = (p**3 - p) // 2
    decided = search._decide_candidates(base, closure_images(base), target, refused)
    assert [decision for decision, _ in decided] == [REJECTED] * len(refused)
    for s in refused:
        closure = closure_images(base + [s], limit=target)
        assert closure is None or len(closure) != target


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.sampled_from([11, 13]))
def test_schreier_test_accepts_iff_closure_reaches_the_target(data, p):
    line = ProjLine.over_prime(p)
    # z -> -1/z generates PSL(2,p) with the base, so acceptance is drawn too
    units = data.draw(
        st.one_of(st.just(line.neg_reciprocal()[1:-1]), st.permutations(range(1, p)))
    )
    swap = bytes((p, *units, 0))  # 0 -> inf, the units anyhow, inf -> 0
    base = search._base_generators(line, p)
    target = (p**3 - p) // 2
    [(decision, _)] = search._decide_candidates(base, closure_images(base), target, [swap])
    closure = closure_images(base + [swap], limit=target)
    assert (decision == NEW) == (closure is not None and len(closure) == target)


def reference_decisions(p, swap_candidates):
    """Decide every candidate the way the search did before it sifted and
    capped chains: close it up to (p^3-p)/2 and compare element-set hashes."""
    line = ProjLine.over_prime(p)
    base_images = search._base_generators(line, p)
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
    # past p = 19 the closure reference takes seconds a prime
    [("full", 5), ("full", 7), ("constrained", 5), ("constrained", 7), ("constrained", 11),
     ("constrained", 13), ("constrained", 17), ("constrained", 19)],
)
def test_candidate_decisions_match_closure_reference(mode, p):
    candidates = search._full_candidates if mode == "full" else search._constrained_candidates
    line = ProjLine.over_prime(p)
    base = search._base_generators(line, p)
    decided = [
        decision
        for decision, _ in search._decide_candidates(
            base, closure_images(base), (p**3 - p) // 2, candidates(p)
        )
    ]
    assert decided == list(reference_decisions(p, candidates(p)))
    assert decided.count(NEW) == expected_group_count(p)
    assert {NEW, DUPLICATE, REJECTED} <= set(decided)


def schreier_reference(p):
    """The Schreier test as the search ran it when it sifted all 3(p+1)
    generators u_{g(x)}^-1 * g * u_x of G_inf, x on the line, g in
    {s, z+1, sigma}, u_inf = 1 and u_x = (z+x)*s, into a chain of the base:
    whether the swap's G_inf is the base."""
    line = ProjLine.over_prime(p)
    base = [tuple(g) for g in search._base_generators(line, p)]
    base_group = PermGroup(base)
    shifts = [line.translation(k) for k in range(p)]
    ident = identity_images(p + 1)

    def accepts(swap):
        swap = tuple(swap)
        swap_inv = invert_images(swap)
        coset = {p: (ident, ident)}  # x -> (u_x, u_x^-1)
        for x in range(p):
            coset[x] = (compose_images(shifts[x], swap), compose_images(swap_inv, shifts[-x]))
        return all(
            base_group.contains(compose_images(coset[g[x]][1], compose_images(g, coset[x][0])))
            for x in range(p + 1)
            for g in [swap, *base]
        )

    return accepts


@pytest.mark.parametrize(
    "mode,p",
    [("full", 3), ("full", 5), ("full", 7)]
    + [("constrained", p) for p in (3, 5, 7, 11, 13, 17, 19, 23)],
)
def test_schreier_words_decide_as_all_schreier_generators(mode, p):
    # the p + 1 words on the base's element set reject exactly the swaps
    # that the 3(p+1) generators sifted into the base's chain reject
    candidates = search._full_candidates if mode == "full" else search._constrained_candidates
    base = search._base_generators(ProjLine.over_prime(p), p)
    decided = search._decide_candidates(
        base, closure_images(base), (p**3 - p) // 2, candidates(p)
    )
    accepts = schreier_reference(p)
    expected = [swap is not None and accepts(swap) for swap in candidates(p)]
    assert [decision != REJECTED for decision, _ in decided] == expected
    assert any(expected) and not all(expected)


@pytest.mark.parametrize(
    "mode,p",
    [("full", 5), ("full", 7), ("constrained", 7), ("constrained", 11), ("constrained", 13)],
)
def test_every_duplicate_regenerates_a_found_group(mode, p):
    # a duplicate is decided before its unit words: its closure is a found group's
    candidates = search._full_candidates if mode == "full" else search._constrained_candidates
    base = search._base_generators(ProjLine.over_prime(p), p)
    target = (p**3 - p) // 2
    found, duplicates = [], []
    decided = search._decide_candidates(base, closure_images(base), target, candidates(p))
    for swap, (decision, new) in zip(candidates(p), decided):
        if decision == NEW:
            found.append(new[1])
        elif decision == DUPLICATE:
            duplicates.append(swap)
    assert duplicates
    for swap in duplicates:
        assert closure_images(base + [swap], limit=target) in found


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


def test_complete_chain_of_the_wrong_order_raises(monkeypatch, capsys):
    # a chain holding the base and a swap that the Schreier test accepted
    # has order (p^3-p)/2, 60 at p = 5: one reported one short breaks that
    monkeypatch.setattr(search.PermGroup, "order", lambda self: 59)
    with pytest.raises(SearchInvariantError, match="complete chain has order 59, not 60"):
        constrained_search(5)
    assert main(["search", "--p", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "psl2kit: invariant violated: SearchInvariantError: complete chain has order 59, not 60"
    ]


def test_found_group_failing_hypotheses_raises(monkeypatch):
    real = search.classify

    def failing(group, p):
        report = real(group, p)
        first = report.checks[0]._replace(passed=False)
        return report._replace(checks=(first,) + report.checks[1:])

    monkeypatch.setattr(search, "classify", failing)
    with pytest.raises(SearchInvariantError):
        constrained_search(5)


def tuple_element_set_hash(images_set) -> str:
    """The digest as the search computed it on image tuples, joining each
    tuple's cached point strings."""
    images = sorted(images_set)
    names = tuple(map(str, range(len(images[0])))) if images else ()
    blob = ";".join(",".join(itemgetter(*img)(names)) for img in images)
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


@settings(max_examples=60, deadline=None)
@given(
    elements=st.integers(min_value=2, max_value=256).flatmap(
        lambda n: st.lists(st.permutations(range(n)), max_size=6)
    )
)
def test_element_set_hash_matches_the_joined_text(elements):
    # the byte-column text is the joined text, on tuples and bytes alike,
    # for one-, two- and three-digit point names
    tuples = frozenset(map(tuple, elements))
    expected = tuple_element_set_hash(tuples)
    assert element_set_hash(tuples) == expected
    assert element_set_hash(frozenset(map(bytes, tuples))) == expected


def test_element_set_hash_of_named_sets():
    for n in (2, 10, 11, 100, 101, 255, 256):
        cycle = tuple((i + 1) % n for i in range(n))
        powers = closure_images([cycle])
        assert element_set_hash(powers) == tuple_element_set_hash(powers)
        assert element_set_hash(closure_images([bytes(cycle)])) == tuple_element_set_hash(powers)
    assert element_set_hash(frozenset()) == hashlib.sha256(b"").hexdigest()


def tuple_decisions(p, mode):
    """The search's decisions as it made them on image tuples: candidates,
    words and closures built with ``compose_images``."""
    line = ProjLine.over_prime(p)
    translation = line.translation(1)
    sigma = line.scaling(quadratic_classes(p).square_generator)
    base = [translation, sigma]
    base_elements = closure_images(base)
    target = (p**3 - p) // 2
    if mode == "full":
        candidates = ((p, *arrangement, 0) for arrangement in itertools.permutations(range(1, p)))
    else:
        squares = set(quadratic_classes(p).squares)
        mask = [z in squares for z in range(1, p)]
        half = (p - 1) // 2

        def constrained():
            for n in [n for n in range(1, p - 1, 2) if (n * n - 1) % half == 0]:
                powers = [pow(z, n, p) for z in range(1, p)]
                for c in range(1, p):
                    for d in range(1, p):
                        row = [(c if sq else d) * w % p for sq, w in zip(mask, powers)]
                        yield (p, *row, 0) if len(set(row)) == p - 1 else None

        candidates = constrained()
    shifts = [identity_images(p + 1)]
    for _ in range(p - 1):
        shifts.append(compose_images(translation, shifts[-1]))

    def unit_words(swap):
        for x in range(1, p):
            word = compose_images(swap, compose_images(shifts[x], swap))
            yield compose_images(swap, compose_images(shifts[-swap[x]], word))

    closures = []
    for swap in candidates:
        if (
            swap is None
            or compose_images(swap, swap) not in base_elements
            or compose_images(swap, compose_images(sigma, swap)) not in base_elements
        ):
            yield swap, REJECTED, None
        elif any(swap in closure for closure in closures):
            yield swap, DUPLICATE, None
        elif not all(word in base_elements for word in unit_words(swap)):
            yield swap, REJECTED, None
        else:
            closures.append(closure_images(base + [swap], limit=target))
            yield swap, NEW, closures[-1]


@pytest.mark.parametrize(
    "mode,p",
    [("full", 3), ("full", 5), ("full", 7)]
    + [("constrained", p) for p in (3, 5, 7, 11, 13, 17, 19, 23)],
)
def test_byte_decisions_match_the_tuple_search(mode, p):
    # candidate for candidate, the bytes search yields the tuple search's
    # swap, decision and closure
    candidates = search._full_candidates if mode == "full" else search._constrained_candidates
    base = search._base_generators(ProjLine.over_prime(p), p)
    decided = search._decide_candidates(base, closure_images(base), (p**3 - p) // 2, candidates(p))
    expected = list(tuple_decisions(p, mode))
    got = [
        (None if swap is None else tuple(swap), decision, found and frozenset(map(tuple, found[1])))
        for swap, (decision, found) in zip(candidates(p), decided)
    ]
    assert got == expected
    assert len(got) == search._run_search(p, mode, candidates(p)).candidates_examined


def test_found_chains_stop_at_the_proven_order(monkeypatch):
    # each found group's chain is built with the order the Schreier test
    # proved, and holds the same levels as a chain built in full
    orders = []
    real = search.PermGroup

    def spy(generators, **kwargs):
        orders.append(kwargs.get("order"))
        return real(generators, **kwargs)

    monkeypatch.setattr(search, "PermGroup", spy)
    outcome = constrained_search(7)
    assert orders == [168] * len(outcome.groups) == [168] * 3
    monkeypatch.undo()
    line = ProjLine.over_prime(7)
    base = search._base_generators(line, 7)
    for decision, found in search._decide_candidates(
        base, closure_images(base), 168, search._constrained_candidates(7)
    ):
        if decision == NEW:
            full = PermGroup(found[0].generators)
            assert found[0].base == full.base
            assert found[0].stabilizer_generators(0) == full.stabilizer_generators(0)
            assert found[0].order() == full.order() == 168
