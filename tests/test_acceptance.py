"""Acceptance suite: one test per criterion, exact assertions, each timed
against its stated budget.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines."""

import random
import time
from contextlib import contextmanager
from pathlib import Path

from psl2kit.cli import load_generators_file
from psl2kit.fields import CUBIC_X3_X_1, Field
from psl2kit.groups import PermGroup, closure_images
from psl2kit.projline import ProjLine, moebius_permutation
from psl2kit.psl2 import Mat2, certify_simplicity, psl2_perm_group
from psl2kit.search import constrained_search, element_set_hash, full_search
from psl2kit.verify import (
    EXCEPTIONAL_INVOLUTIONS,
    build_exceptional,
    classify,
    corollary_check,
    exceptional_report,
)


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
            assert report.dichotomy is not None
            normal8 = PermGroup(list(report.dichotomy.normal8_generators))
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
        f8 = Field(2, 3, CUBIC_X3_X_1)
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
                sum(1 for c in e.cycles() if len(c) == 2) for e in group.elements()
            )
            assert count == ((p * p + p) // 2) * ((p - 1) // 2)


def test_criterion_8_property_suites():
    with budget("8 property-suites", 60):
        primes = (3, 5, 7, 11, 13, 17, 19)
        # permutation algebra laws, 10^4 random triples per line
        for p in primes:
            line = ProjLine.over_prime(p)
            rng = random.Random(p)
            points = list(line.points())
            pool = []
            for _ in range(20):
                images = points[:]
                rng.shuffle(images)
                pool.append(line.perm(images))
            identity = line.identity()
            for _ in range(10000):
                a, b, c = (rng.choice(pool) for _ in range(3))
                assert ((a * b) * c).images == (a * (b * c)).images
                assert (a * identity).images == a.images
                assert (a * a.inverse()).images == identity.images
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
                closure = closure_images([g.images for g in group.generators])
                assert group.order() == len(closure)
        # fractional-linear maps give a homomorphism, 10^3 random pairs per prime
        for p in primes:
            line = ProjLine.over_prime(p)
            rng = random.Random(1000 + p)
            for _ in range(1000):
                m1 = _random_sl2(line.field, rng)
                m2 = _random_sl2(line.field, rng)
                assert m1.det == m2.det == 1
                left = moebius_permutation(m1.mul(m2), line)
                right = moebius_permutation(m1, line) * moebius_permutation(m2, line)
                assert left.images == right.images
        # no non-identity element fixes more than 2 points, exhaustively
        for p in (5, 7, 11, 13):
            for e in psl2_perm_group(p).elements():
                if not e.is_identity():
                    assert len(e.fixed_points()) <= 2


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


def test_criterion_10_generator_file_past_the_enumeration_cap(tmp_path):
    # PSL(2,97) has 456,288 elements; classify reads every lemma off the chain
    p = 97
    line = ProjLine.over_prime(p)
    path = tmp_path / "psl2_p97.gens"
    path.write_text(f"p={p}\n{line.translation(1)}\n{line.neg_reciprocal()}\n")
    with budget("10 generator-file-p97", 5):
        group = load_generators_file(str(path), p)
        report = classify(group, p)
        assert report.verdict == "a"
        assert report.all_passed()
        assert "lemma-3.2" in {c.id for c in report.checks}


def test_criterion_11_negation_class_past_the_enumeration_cap(tmp_path):
    # 229 is the first prime p = 1 mod 4 whose class of -z, (p^2 + p)/2
    # elements, is larger than the enumeration cap; Lemma 3.3 counts it as
    # |G| over the centralizer of -z
    p = 229
    line = ProjLine.over_prime(p)
    path = tmp_path / "psl2_p229.gens"
    path.write_text(f"p={p}\n{line.translation(1)}\n{line.neg_reciprocal()}\n")
    with budget("11 negation-class-p229", 5):
        report = classify(load_generators_file(str(path), p), p)
        assert report.verdict == "a"
        assert report.all_passed()
        (lemma33,) = [c for c in report.checks if c.id == "lemma-3.3"]
        assert lemma33.witness["negation_class_size"] == 26335


def test_criterion_12_one_chain_at_p1009(tmp_path):
    # the loader's chain is based at (0, inf), so classify reads every
    # count off it and builds no second chain
    p = 1009
    line = ProjLine.over_prime(p)
    path = tmp_path / "psl2_p1009.gens"
    path.write_text(f"p={p}\n{line.translation(1)}\n{line.neg_reciprocal()}\n")
    with budget("12 one-chain-p1009", 10):
        report = classify(load_generators_file(str(path), p), p)
        assert report.verdict == "a"
        assert report.all_passed()


def _random_sl2(field, rng) -> Mat2:
    while True:
        a, b, c = (rng.randrange(field.order) for _ in range(3))
        if a != 0:
            d = field.div(field.add(1, field.mul(b, c)), a)
            return Mat2(field, a, b, c, d)
        if b != 0:
            return Mat2(field, a, b, field.neg(field.inv(b)), rng.randrange(field.order))
