"""The lemma counts and element queries against per-element references.

``decompose_stabilizers``, ``check_stabilizer_scalings`` and
``check_pair_orbit_count`` count on the stabilizer chain,
``check_swaps_are_involutions`` squares image tuples, and
``PermGroup.element_images`` and ``PermGroup.conjugacy_class_of`` work on
raw image tuples.  The oracles below are the straightforward definitions:
fixed points and cycles found point by point on each element's image tuple,
elements and conjugates from the frontier closure of the generators.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from psl2kit.fields import QuadraticClasses, quadratic_classes
from psl2kit.groups import PermGroup, closure_images
from psl2kit.projline import compose_images, identity_images, invert_images
from psl2kit.verify import (
    CheckResult,
    StabilizerDecomposition,
    check_pair_orbit_count,
    check_stabilizer_scalings,
    check_swaps_are_involutions,
    decompose_stabilizers,
)

from conftest import (
    exceptional_cached,
    line_over,
    psl2_cached,
    reference_cycle_notation,
    reference_cycles,
    reference_fixed_points,
    reference_order,
    regular8_cached,
    symmetric_group,
)


# --- reference definitions ---------------------------------------------------


def reference_stabilizer_scalings(group, dec, quad) -> CheckResult:
    line = group.line
    expected = {line.scaling(a) for a in quad.squares}
    scalings_ok = set(dec.fixing) == expected
    worst = None
    worst_fixed = -1
    for img in sorted(closure_images(group.generators)):
        fixed = len(reference_fixed_points(img))
        if fixed == len(img):  # the identity
            continue
        if fixed > worst_fixed:
            worst_fixed = fixed
            worst = img
    witness = {
        "fixing_equals_square_scalings": scalings_ok,
        "max_fixed_points_nonidentity": worst_fixed,
    }
    counterexample = None
    if worst_fixed > 2:
        counterexample = {
            "element": reference_cycle_notation(worst),
            "fixed_points": sorted(line.point_name(x) for x in reference_fixed_points(worst)),
        }
    if not scalings_ok:
        extra = sorted(map(reference_cycle_notation, set(dec.fixing) - expected))
        counterexample = (counterexample or {}) | {"non_scaling_stabilizers": extra}
    return CheckResult("lemma-2.4", scalings_ok and worst_fixed <= 2, witness, counterexample)


def reference_non_involutions(dec) -> list[str]:
    return sorted(reference_cycle_notation(s) for s in dec.swapping if reference_order(s) != 2)


def reference_pair_orbit_count(group, p) -> CheckResult:
    count = sum(
        1
        for img in closure_images(group.generators)
        for c in reference_cycles(img)
        if len(c) == 2
    )
    expected = ((p * p + p) // 2) * ((p - 1) // 2)
    witness = {"pair_orbit_count": count, "expected": expected}
    return CheckResult("lemma-3.2", count == expected, witness)


def reference_decomposition(group) -> StabilizerDecomposition:
    inf = group.line.infinity
    closure = sorted(closure_images(group.generators))
    fixing = [img for img in closure if img[0] == 0 and img[inf] == inf]
    swapping = [img for img in closure if img[0] == inf and img[inf] == 0]
    return StabilizerDecomposition(tuple(fixing), tuple(swapping))


def reference_conjugates(elements, img) -> frozenset[tuple[int, ...]]:
    return frozenset(
        compose_images(h, compose_images(img, invert_images(h))) for h in elements
    )


def square_classes(p: int) -> QuadraticClasses:
    # GF(2) has the single unit 1, which is a square
    return QuadraticClasses(2, (1,), ()) if p == 2 else quadratic_classes(p)


def assert_scans_match_references(group: PermGroup) -> None:
    line = group.line
    p = line.field.p
    closure = closure_images(group.generators)
    assert group.element_images() == tuple(sorted(closure))

    dec = decompose_stabilizers(group)
    assert dec == reference_decomposition(group)
    quad = square_classes(p)
    assert check_stabilizer_scalings(group, dec, quad) == reference_stabilizer_scalings(
        group, dec, quad
    )
    assert check_pair_orbit_count(group, p) == reference_pair_orbit_count(group, p)
    lemma33 = check_swaps_are_involutions(group, dec, p)
    bad = reference_non_involutions(dec)
    assert lemma33.witness["all_order_two"] == (not bad)
    assert (lemma33.counterexample or {}).get("non_involutions") == (bad or None)

    elements = group.element_images()
    for img in elements[:: max(1, len(elements) // 6)]:
        assert group.conjugacy_class_of(img) == reference_conjugates(closure, img)


# --- groups to scan ----------------------------------------------------------


def conjugated(group: PermGroup, images) -> PermGroup:
    m = tuple(images)
    m_inv = invert_images(m)
    return PermGroup([compose_images(compose_images(m, g), m_inv) for g in group.generators])


@st.composite
def scan_groups(draw):
    """Groups on the 3-, 4-, 6- and 8-point lines, of at most 720 elements.

    Random generators on up to 6 points give Lemma 2.4 counterexamples and
    mixed cycle types; conjugated PSL(2,7) and the order-168 exceptional
    groups are groups on 8 points where the bound holds.
    """
    p = draw(st.sampled_from((2, 3, 5, 7)))
    line = line_over(p)
    n = line.size
    kind = draw(st.sampled_from(("trivial", "random", "cyclic", "order-168")))
    if kind == "trivial":
        return PermGroup([identity_images(n)])
    if kind == "order-168" and p == 7:  # on other lines, random generators instead
        base = draw(
            st.sampled_from((psl2_cached(7), exceptional_cached(3), exceptional_cached(5)))
        )
        return conjugated(base, draw(st.permutations(range(n))))
    if kind == "cyclic":
        return PermGroup([draw(st.permutations(range(n)))])
    moved = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True))
    gens = []
    for perm in draw(st.lists(st.permutations(moved), min_size=1, max_size=3)):
        images = list(range(n))
        for x, y in zip(moved, perm):
            images[x] = y
        gens.append(images)
    return PermGroup(gens)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scan_groups())
def test_scans_match_references(group):
    assert_scans_match_references(group)


@pytest.mark.parametrize(
    "name,build,counterexample",
    [
        ("trivial on 3 points", lambda: PermGroup([identity_images(3)]), False),
        ("S3 on 3 points", lambda: symmetric_group(line_over(2)), False),
        ("S4 on 4 points", lambda: symmetric_group(line_over(3)), False),
        ("S6 on 6 points", lambda: symmetric_group(line_over(5)), True),
        ("PSL(2,5)", lambda: psl2_cached(5), False),
        ("PSL(2,7)", lambda: psl2_cached(7), False),
        ("exceptional:3", lambda: exceptional_cached(3), False),
        (
            "fixes 5 of 8 points",
            lambda: PermGroup([line_over(7).from_cycles(c) for c in ("(0 1)", "(1 2)")]),
            True,
        ),
        # (0 1)(2 3 4) has mixed cycle type; its cube (0 1) fixes 6 points
        ("mixed cycle type", lambda: PermGroup([line_over(7).from_cycles("(0 1)(2 3 4)")]), True),
        # the orbit {1, 2, inf} starts at inf, whose stabilizer is trivial:
        # suborbits {1} and {2}, neither self-paired, so no 2-cycles
        ("3-cycle on 4 points", lambda: PermGroup([line_over(3).from_cycles("(1 2 inf)")]), False),
        # the one 2-cycle lies in the G-orbit {1, 2}, away from 0 and inf, so
        # its suborbits come from a chain based at 1
        ("swap off the base", lambda: PermGroup([line_over(7).from_cycles("(1 2)")]), True),
        # transitive, not 2-transitive: 7 self-paired suborbits of one point
        ("regular of order 8", regular8_cached, False),
    ],
)
def test_scan_examples(name, build, counterexample):
    group = build()
    assert_scans_match_references(group)
    result = check_stabilizer_scalings(
        group, decompose_stabilizers(group), square_classes(group.line.field.p)
    )
    assert (result.witness["max_fixed_points_nonidentity"] > 2) == counterexample
    if counterexample:
        assert result.counterexample["element"]


def test_identity_is_not_an_involution():
    # s * s is the identity for s = identity too, so Lemma 3.3 must also
    # require s to move a point
    group = psl2_cached(5)
    dec = decompose_stabilizers(group)
    forged = StabilizerDecomposition(dec.fixing, (identity_images(6), *dec.swapping[1:]))
    result = check_swaps_are_involutions(group, forged, 5)
    assert result.counterexample == {"non_involutions": ["()"]}
    assert reference_non_involutions(forged) == ["()"]
