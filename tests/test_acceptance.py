"""Acceptance suite: one test per criterion, exact assertions, each timed
against its stated budget.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines."""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from psl2kit.cli import load_generators_file, main
from psl2kit.fields import Field
from psl2kit.groups import PermGroup, closure_images
from psl2kit.projline import (
    ProjLine,
    compose_images,
    cycle_notation,
    identity_images,
    invert_images,
)
from psl2kit.psl2 import Mat2, certify_simplicity, psl2_perm_group
from psl2kit.search import constrained_search, element_set_hash, expected_group_count, full_search
from psl2kit.verify import (
    EXCEPTIONAL_INVOLUTIONS,
    build_exceptional,
    classify,
    corollary_check,
    exceptional_report,
)

from conftest import reference_cycles, reference_fixed_points, reference_is_simple


@contextmanager
def budget(name: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s of {seconds:.0f}s budget)")
    assert elapsed < seconds, f"{name} exceeded its {seconds}s budget ({elapsed:.2f}s)"


def test_criterion_1_order_formulas():
    with budget("1 order-formulas", 5):
        for p in (3, 5, 7, 11, 13, 17, 19):
            line = ProjLine.over_prime(p)
            group = PermGroup([line.translation(1), line.neg_reciprocal()])
            assert group.order() == (p**3 - p) // 2
        assert psl2_perm_group(8).order() == 8**3 - 8


def test_criterion_2_simplicity():
    with budget("2 simplicity", 60):
        for q in (4, 5, 7, 8, 9, 11, 13):
            assert psl2_perm_group(q).is_simple()
        for q in (2, 3):
            assert not psl2_perm_group(q).is_simple()
        for q in (4, 5, 7, 8, 9, 11, 13):
            certificate = certify_simplicity(q)
            assert certificate.verdict
            assert certificate.reverify()
            assert certificate.verdict == psl2_perm_group(q).is_simple()
            assert certificate.verdict == reference_is_simple(psl2_perm_group(q))


def test_criterion_3_lemma_chain():
    with budget("3 lemma-chain", 30):
        section3 = {"lemma-3.2", "lemma-3.3", "corollary-3.4", "corollary-3.5", "prop-3.6"}
        section4 = {"lemma-4.1", "corollary-4.2", "lemma-4.3", "lemma-4.4", "prop-4.5"}
        for p in (5, 7, 11, 13):
            report = classify(psl2_perm_group(p), p)
            assert report.verdict == "a"
            assert report.all_passed()
            ids = {c.id for c in report.checks}
            assert {"lemma-2.1", "lemma-2.4", "lemma-2.5", "lemma-2.6"} <= ids
            assert (section3 <= ids) == (p in (5, 13))
            assert (section4 <= ids) == (p in (7, 11))


def test_criterion_4_exceptional_case():
    with budget("4 exceptional-case", 10):
        for variant in (3, 5):
            group = build_exceptional(variant)
            assert group.order() == 168
            report = classify(group, 7)
            assert report.verdict == "b"
            assert report.all_passed()
            assert report.witness == EXCEPTIONAL_INVOLUTIONS[variant]
            [conclusion] = [c for c in report.checks if c.id == "prop-5.4"]
            normal8 = PermGroup(
                [group.line.from_cycles(g) for g in conclusion.witness["normal8_generators"]]
            )
            assert normal8.order() == 8
            assert group.is_normal(normal8)
            audit = exceptional_report(variant)
            assert audit.passed
            assert audit.witness["gf8_transport_matches"] is True


def test_criterion_5_classification_rediscovery():
    with budget("5 search-rediscovery", 180):
        full5 = full_search(5)
        assert len(full5.groups) == 1
        assert full5.groups[0].contains_neg_reciprocal
        full7 = full_search(7)
        assert len(full7.groups) == 3
        assert sorted(g.verdict for g in full7.groups) == ["a", "b", "b"]
        exceptional_hashes = {
            element_set_hash(build_exceptional(v).element_set()) for v in (3, 5)
        }
        found_b = {
            g.element_set_sha256 for g in full7.groups if g.verdict == "b"
        }
        assert found_b == exceptional_hashes
        for p, full in ((5, full5), (7, full7)):
            constrained = constrained_search(p)
            assert {g.element_set_sha256 for g in constrained.groups} == {
                g.element_set_sha256 for g in full.groups
            }
        for p in (11, 13):
            outcome = constrained_search(p)
            assert len(outcome.groups) == 1
            assert outcome.groups[0].verdict == "a"


def test_criterion_6_corollary_pipeline():
    with budget("6 corollary-pipeline", 60):
        for p in (5, 7, 11, 13):
            result = corollary_check(p)
            assert result.passed
            assert result.witness["sylow_count"] == p + 1
            assert result.witness["conjugation_action_matches"] is True


def test_criterion_7_numeric_spot_checks():
    with budget("7 numeric-spot-checks", 5):
        f8 = Field(2, 3, (1, 1, 0, 1))  # x^3 + x + 1
        zeta = 2
        assert f8.add(1, zeta) == f8.pow(zeta, 3)
        assert f8.add(1, f8.pow(zeta, 2)) == f8.pow(zeta, 6)
        assert f8.add(1, f8.pow(zeta, 4)) == f8.pow(zeta, 5)
        assert pow(3, 3, 7) == 7 - 1
        assert (pow(3, 4, 7) + 3) % 7 == 0
        assert (3 * 5) % 7 == 1
        for p in (5, 13):
            group = psl2_perm_group(p)
            count = sum(
                sum(1 for c in reference_cycles(e) if len(c) == 2) for e in group.elements()
            )
            assert count == ((p * p + p) // 2) * ((p - 1) // 2)


def test_criterion_8_property_suites():
    with budget("8 property-suites", 60):
        primes = (3, 5, 7, 11, 13, 17, 19)
        # permutation algebra laws, 10^4 random triples per line
        for p in primes:
            line = ProjLine.over_prime(p)
            rng = random.Random(p)
            points = list(range(line.size))
            pool = []
            for _ in range(20):
                images = points[:]
                rng.shuffle(images)
                pool.append(tuple(images))
            identity = identity_images(line.size)
            for _ in range(10000):
                a, b, c = (rng.choice(pool) for _ in range(3))
                assert compose_images(compose_images(a, b), c) == compose_images(
                    a, compose_images(b, c)
                )
                assert compose_images(a, identity) == a
                assert compose_images(a, invert_images(a)) == identity
        # stabilizer-chain order equals exhaustive closure for built groups
        groups = []
        for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
            groups.append(psl2_perm_group(q))
        groups.append(build_exceptional(3))
        groups.append(build_exceptional(5))
        line7 = ProjLine.over_prime(7)
        groups.append(PermGroup([line7.translation(1), line7.scaling(3)]))
        for group in groups:
            if group.order() <= 5000:
                closure = closure_images(group.generators)
                assert group.order() == len(closure)
        # fractional-linear maps give a homomorphism, 10^3 random pairs per prime
        for p in primes:
            line = ProjLine.over_prime(p)
            rng = random.Random(1000 + p)
            for _ in range(1000):
                m1 = _random_sl2(line.field, rng)
                m2 = _random_sl2(line.field, rng)
                assert m1.det == m2.det == 1
                left = line.moebius(*m1.mul(m2).entries())
                right = compose_images(line.moebius(*m1.entries()), line.moebius(*m2.entries()))
                assert left == right
        # no non-identity element fixes more than 2 points, exhaustively
        for p in (5, 7, 11, 13):
            for e in psl2_perm_group(p).elements():
                if e != identity_images(p + 1):
                    assert len(reference_fixed_points(e)) <= 2


def test_criterion_9_generator_files_at_large_primes():
    golden = Path(__file__).parent / "golden"
    with budget("9 generator-files-p29-p31", 10):
        for p, branch in ((29, "lemma-3.2"), (31, "lemma-4.1")):
            group = load_generators_file(str(golden / f"classify_p{p}.gens"), p)
            assert group.order() == (p**3 - p) // 2
            report = classify(group, p)
            assert report.verdict == "a"
            assert report.all_passed()
            assert branch in {c.id for c in report.checks}


def _psl2_generators_file(tmp_path, p) -> str:
    """A generators file holding z+1 and -1/z over GF(p)."""
    line = ProjLine.over_prime(p)
    path = tmp_path / f"psl2_p{p}.gens"
    gens = [cycle_notation(line.translation(1)), cycle_notation(line.neg_reciprocal())]
    path.write_text("\n".join([f"p={p}", *gens]) + "\n")
    return str(path)


def test_criterion_10_generator_file_past_the_enumeration_cap(tmp_path):
    # PSL(2,97) has 456,288 elements; classify reads every lemma off the chain
    p = 97
    path = _psl2_generators_file(tmp_path, p)
    with budget("10 generator-file-p97", 5):
        group = load_generators_file(path, p)
        report = classify(group, p)
        assert report.verdict == "a"
        assert report.all_passed()
        assert "lemma-3.2" in {c.id for c in report.checks}


def test_criterion_11_negation_class_past_the_enumeration_cap(tmp_path):
    # 229 is the first prime p = 1 mod 4 whose class of -z, (p^2 + p)/2
    # elements, is larger than the enumeration cap; Lemma 3.3 counts it as
    # |G| over the centralizer of -z
    p = 229
    path = _psl2_generators_file(tmp_path, p)
    with budget("11 negation-class-p229", 5):
        report = classify(load_generators_file(path, p), p)
        assert report.verdict == "a"
        assert report.all_passed()
        (lemma33,) = [c for c in report.checks if c.id == "lemma-3.3"]
        assert lemma33.witness["negation_class_size"] == 26335


def test_criterion_12_one_chain_at_p1009(tmp_path):
    # the loader's chain is based at (0, inf), so classify reads every
    # count off it and builds no second chain
    p = 1009
    path = _psl2_generators_file(tmp_path, p)
    with budget("12 one-chain-p1009", 10):
        report = classify(load_generators_file(path, p), p)
        assert report.verdict == "a"
        assert report.all_passed()


def test_criterion_13_kernel_at_p2003(tmp_path):
    # every product of image tuples in the chain build, the sift and the
    # checks goes through one itemgetter gather in compose_images
    p = 2003
    path = _psl2_generators_file(tmp_path, p)
    with budget("13 kernel-p2003", 10):
        report = classify(load_generators_file(path, p), p)
        assert report.verdict == "a"
        assert report.all_passed()


def test_criterion_14_pair_count_at_p2017(tmp_path):
    # 2017 is the first prime p = 1 mod 4 above 2003, so Lemma 3.2 runs:
    # it counts the self-paired suborbits on the loader's own chain
    p = 2017
    path = _psl2_generators_file(tmp_path, p)
    with budget("14 pair-count-p2017", 15):
        report = classify(load_generators_file(path, p), p)
        assert report.verdict == "a"
        assert report.all_passed()
        (lemma32,) = [c for c in report.checks if c.id == "lemma-3.2"]
        assert lemma32.passed


def test_criterion_15_simplicity_q31():
    # the largest q whose PSL(2,q) is within the enumeration cap, which the
    # closed-form certificate no longer needs
    with budget("15 simplicity-q31", 5):
        certificate = certify_simplicity(31)
        assert certificate.verdict
        assert certificate.reverify()
        assert certificate.verdict == psl2_perm_group(31).is_simple()


def test_criterion_16_simplicity_q256(capsys):
    # the whole command, chain included
    with budget("16 simplicity-q256", 10):
        assert main(["psl2", "--q", "256", "--check", "simplicity", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate_reverified"] is True and payload["methods_agree"] is True
        assert payload["simple"] is True and len(payload["certificate"]["classes"]) == 256


def test_criterion_17_simplicity_certificate_q4096():
    # the certificate's O(q) products run on GF(q)'s own add and mul, so
    # only the field cap bounds it
    with budget("17 simplicity-q4096", 10):
        certificate = certify_simplicity(4096)
        assert certificate.verdict
        assert len(certificate.entries) == 4096
        assert certificate.reverify()


def test_criterion_18_full_search_p11():
    # all 10! swaps, decided by the Schreier words on the base's element set;
    # the one group found is the constrained search's PSL(2,11)
    golden = Path(__file__).parent / "golden"
    with budget("18 full-search-p11", 15):
        outcome = full_search(11)
    assert outcome.candidates_examined == 3628800
    assert len(outcome.groups) == expected_group_count(11) == 1
    report = json.dumps(outcome.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert report == (golden / "search_p11_full.json").read_text()
    constrained = json.loads((golden / "search_p11_constrained.json").read_text())
    assert [g.element_set_sha256 for g in outcome.groups] == [
        g["element_set_sha256"] for g in constrained["groups"]
    ]
    assert outcome.groups[0].verdict == "a"


def test_criterion_19_corollary_p1009():
    # one generator per Sylow subgroup, so only the degree cap bounds the
    # corollary; most of the time is G's chain and is_simple's
    with budget("19 corollary-p1009", 10):
        result = corollary_check(1009)
    assert result.passed
    assert result.witness["sylow_count"] == 1010
    assert result.witness["sylow_action_doubly_transitive"] is True
    relabeling = result.witness["point_relabeling"]
    assert all(x == y for x, y in relabeling) and len(relabeling) == 1010

def _random_sl2(field, rng) -> Mat2:
    while True:
        a, b, c = (rng.randrange(field.order) for _ in range(3))
        if a != 0:
            d = field.div(field.add(1, field.mul(b, c)), a)
            return Mat2(field, a, b, c, d)
        if b != 0:
            return Mat2(field, a, b, field.neg(field.inv(b)), rng.randrange(field.order))
