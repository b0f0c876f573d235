"""Executable checks for the classification of transitive permutation
groups of order (p^3-p)/2 on Z/p + {inf} that contain all translations.

Every check verifies a universally quantified statement over finite sets
and returns a CheckResult carrying witness data (and a counterexample when
it fails).  The three counts over the whole group are exact orbit-stabilizer
counts on a stabilizer chain with base (0, inf), not scans: Definition 2.2
reads the stabilizer of {0, inf} and its swapping coset off the chain,
Lemma 2.4 decides the most fixed points from point stabilizer orders, and
Lemma 3.2 counts self-paired suborbits, not orbits on unordered pairs.
Lemma 2.4 still scans every element when some non-identity element fixes
more than 2 points, to name the first such element.  Checks on the
swapping coset go through it element by element; Lemma 3.3 counts the
class of -z as |G| over its centralizer, which lies in the stabilizer of
{0, inf}, and the p = 7 exceptional audit enumerates its 168 elements.

``classify`` chains the checks and settles the dichotomy: either the group
contains z -> -1/z and is the projective group, or p = 7 and the group is
one of the two exceptional order-168 groups with a normal subgroup of
order 8.

Checks record failures instead of aborting, so a defective candidate group
yields a maximal diagnostic report rather than an exception.
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple
from operator import eq

from .fields import (
    CUBIC_X3_X2_1,
    CUBIC_X3_X_1,
    DEFAULT_ENUMERATION_CAP,
    QuadraticClasses,
    check_cap,
    gf8_labeling,
    is_prime,
    quadratic_classes,
)
from .groups import PermGroup, closure_images, orbit
from .projline import Permutation, ProjLine, compose_images, identity_images, invert_images
from .psl2 import psl2_perm_group


class NoTwistExponent(RuntimeError):
    pass


class SpecialCaseContradiction(RuntimeError):
    pass


class BadVariant(ValueError):
    pass


EXCEPTIONAL_INVOLUTIONS = {
    3: "(0 inf)(1 3)(2 6)(4 5)",
    5: "(0 inf)(1 5)(2 3)(4 6)",
}
_EXCEPTIONAL_CUBICS = {3: CUBIC_X3_X_1, 5: CUBIC_X3_X2_1}


class CheckResult(namedtuple(
    "CheckResult", "id passed witness counterexample", defaults=(None,)
)):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "pass": self.passed,
            "witness": self.witness,
            "counterexample": self.counterexample,
        }


class StabilizerDecomposition(namedtuple("StabilizerDecomposition", "fixing swapping")):
    """Elements fixing {0, inf} pointwise, and elements swapping the pair."""

    __slots__ = ()


class TwistAnalysis(namedtuple("TwistAnalysis", "swap exponent constant")):
    """A chosen pair-swapping element, its twist exponent against the
    square-scaling subgroup, and the constant it sends 1 to."""

    __slots__ = ()


# verdict is "a" or "b"
Dichotomy = namedtuple("Dichotomy", "verdict witness normal8_generators", defaults=(None,))


class VerificationReport(namedtuple(
    "VerificationReport", "p verdict witness checks dichotomy", defaults=(None,)
)):
    """``verdict`` is "a", "b" or "hypotheses-failed"."""

    __slots__ = ()

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "verdict": self.verdict,
            "witness": self.witness,
            "checks": [c.to_json_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


# --- hypotheses and the shared groundwork ----------------------------------


def check_hypotheses(group: PermGroup, p: int) -> CheckResult:
    line = group.line
    expected = (p**3 - p) // 2
    order_ok = group.order() == expected
    transitive = group.is_transitive()
    # over Z/p, z + 1 generates every translation and any z + a with a != 0
    # generates z + 1, so either all of them are in the group or none is
    has_all = group.contains(line.translation(1))
    missing = [] if has_all else list(range(1, p))
    passed = order_ok and transitive and not missing
    witness = {
        "order": group.order(),
        "expected_order": expected,
        "transitive": transitive,
        "has_all_translations": not missing,
    }
    counterexample = None
    if missing:
        counterexample = {"missing_translation_amounts": missing}
    return CheckResult("hypotheses", passed, witness, counterexample)


def check_double_transitivity(group: PermGroup) -> CheckResult:
    ok = group.is_doubly_transitive()
    return CheckResult("lemma-2.1", ok, {"doubly_transitive": ok})


def _pair_swapper(chain: PermGroup) -> tuple[int, ...] | None:
    """An element swapping the chain's first two base points x and y, or
    None if there is none.  u, level 0's entry at y, maps x to y; v, level
    1's entry at u^-1(x), fixes x and maps y to u^-1(x), so u*v swaps the
    two.  Every swap is u*h with h fixing x and mapping y to u^-1(x), so
    one exists exactly when both entries do."""
    x, y = chain.base[:2]
    u = chain.transversal_entry(0, y)
    v = None if u is None else chain.transversal_entry(1, u.index(x))
    return None if v is None else compose_images(u, v)


def decompose_stabilizers(group: PermGroup) -> StabilizerDecomposition:
    """Definition 2.2 from a chain with base (0, inf): the elements fixing
    both points are the stabilizer below level 2, and those swapping them
    are its coset s*G_(0,inf) for any one swap s.  Both come sorted by
    image tuple."""
    chain = group.rebased((0, group.degree - 1))
    fixing = sorted(chain.stabilizer_images(2))
    swap = _pair_swapper(chain)
    swapping = [] if swap is None else sorted(compose_images(swap, h) for h in fixing)
    return StabilizerDecomposition(
        tuple(map(Permutation, fixing)),
        tuple(map(Permutation, swapping)),
    )


def decomposition_check(dec: StabilizerDecomposition, p: int) -> CheckResult:
    expected = (p - 1) // 2
    fixing = {g.images for g in dec.fixing}
    # a finite set is a subgroup exactly when it is the closure of generators
    # picked greedily from it, each a member the earlier ones do not reach;
    # the limit stops a closure that outgrows the set, so a forged set whose
    # members generate a far larger group costs no more than the set
    gens: list[tuple[int, ...]] = []
    closure: frozenset[tuple[int, ...]] | None = frozenset()
    for g in dec.fixing:
        if closure is not None and g.images not in closure:
            gens.append(g.images)
            closure = closure_images(gens, limit=len(fixing))
    subgroup = closure == fixing
    coset = True
    if dec.swapping:
        lead = dec.swapping[0].images
        coset = {compose_images(lead, k) for k in fixing} == {s.images for s in dec.swapping}
    passed = (
        len(dec.fixing) == expected
        and len(dec.swapping) == expected
        and subgroup
        and coset
    )
    witness = {
        "fixing_size": len(dec.fixing),
        "swapping_size": len(dec.swapping),
        "expected_size": expected,
        "fixing_is_subgroup": subgroup,
        "swapping_is_coset": coset,
    }
    return CheckResult("definition-2.2", passed, witness)


def _point_image(x: int, g: tuple[int, ...]) -> int:
    return g[x]


def _stabilizer_orbits(chain: PermGroup, level: int):
    """(x, orbit of x) per orbit of the pointwise stabilizer of
    ``chain.base[:level]``, 0 and inf first; lazy, to stop early."""
    gens = chain.stabilizer_generators(level)
    seen = set(chain.base[:level])
    for x in (0, chain.degree - 1, *range(chain.degree)):
        if x not in seen:
            reach = orbit([x], gens, _point_image)
            seen |= reach
            yield x, reach


def _max_fixed_points(group: PermGroup) -> int | None:
    """The most points a non-identity element fixes (-1 for the trivial
    group), or None if that is more than 2.

    It is at least k exactly when some k-point pointwise stabilizer is
    nontrivial, and conjugate point tuples have conjugate stabilizers, so
    orbit representatives suffice: x of the G-orbits, y of the G_x-orbits,
    z of the G_(x,y)-orbits.  Each stabilizer's order is its parent's over
    the orbit length (Seress, *Permutation Group Algorithms*, 2003, ch. 9).
    0 and then inf lead the points, so a 2-transitive group reads every
    stabilizer off its own chain, which starts there.
    """
    if group.order() == 1:
        return -1

    def deepest(prefix: tuple[int, ...], order: int) -> int:
        # the pointwise stabilizer of prefix has this order, more than 1
        best = len(prefix)
        for x, reach in _stabilizer_orbits(group.rebased(prefix), len(prefix)):
            if order // len(reach) > 1:
                if len(prefix) == 2:
                    return 3
                best = max(best, deepest(prefix + (x,), order // len(reach)))
        return best

    most = deepest((), group.order())
    return None if most == 3 else most


def check_stabilizer_scalings(
    group: PermGroup, dec: StabilizerDecomposition, quad: QuadraticClasses
) -> CheckResult:
    line = group.line
    # the square scalings are the powers of scaling by the square generator
    step = line.scaling(quad.square_generator).images
    power = identity_images(group.degree)
    expected = set()
    for _ in quad.squares:
        expected.add(power)
        power = compose_images(step, power)
    scalings_ok = {g.images for g in dec.fixing} == expected
    worst_img: tuple[int, ...] | None = None
    worst_fixed = _max_fixed_points(group)
    if worst_fixed is None:
        # more than 2: scan, so the counterexample is the first worst element
        n = group.degree
        ident = identity_images(n)
        worst_fixed = -1
        for img in group.element_images():
            fixed = sum(map(eq, img, ident))
            # only the identity fixes all n points; strict > keeps the first worst
            if fixed > worst_fixed and fixed != n:
                worst_fixed = fixed
                worst_img = img
    bound_ok = worst_fixed <= 2
    witness = {
        "fixing_equals_square_scalings": scalings_ok,
        "max_fixed_points_nonidentity": worst_fixed,
    }
    counterexample = None
    if not bound_ok:  # so worst_fixed > 2 and worst_img is set
        worst = Permutation(worst_img)
        counterexample = {
            "element": str(worst),
            "fixed_points": sorted(line.point_name(x) for x in worst.fixed_points()),
        }
    if not scalings_ok:
        extra = sorted(str(x) for x in set(dec.fixing) if x.images not in expected)
        counterexample = (counterexample or {}) | {"non_scaling_stabilizers": extra}
    return CheckResult("lemma-2.4", scalings_ok and bound_ok, witness, counterexample)


def check_square_class_action(
    group: PermGroup, dec: StabilizerDecomposition, quad: QuadraticClasses
) -> CheckResult:
    p = quad.p
    minus_one_square = quad.is_square(p - 1)
    parity_ok = minus_one_square == (p % 4 == 1)
    stabilizes = p % 4 == 1
    bad = None
    expected = set(quad.squares if stabilizes else quad.nonsquares)
    for swap in dec.swapping:
        if set(compose_images(swap.images, quad.squares)) != expected:
            bad = swap
            break
    witness = {
        "minus_one_is_square": minus_one_square,
        "action": "stabilizes" if stabilizes else "interchanges",
    }
    counterexample = {"element": str(bad)} if bad is not None else None
    return CheckResult(
        "lemma-2.5", parity_ok and bad is None, witness, counterexample
    )


def twist_exponent(swap: Permutation, quad: QuadraticClasses) -> int:
    """The odd exponent n with swap(a*z) = a^n * swap(z) for every square a
    and unit z.

    The identity is checked at the square generator g for every unit z.
    Holding there, it holds at every power of g, by induction, and so at
    every square; only a failure runs the sweep over all (a, z), which
    names the first failing pair."""
    p = quad.p
    half = (p - 1) // 2
    images = swap.images
    for z in range(1, p):
        if not 1 <= images[z] < p:
            raise NoTwistExponent("element does not permute the units")
    generator = quad.square_generator
    t1 = images[1]
    ratio = images[generator] * pow(t1, p - 2, p) % p
    j = None
    power = 1
    for cand in range(half):
        if power == ratio:
            j = cand
            break
        power = power * generator % p
    if j is None:
        raise NoTwistExponent("no exponent matches on the square generator")
    step = pow(generator, j, p)
    if any(images[generator * z % p] != step * images[z] % p for z in range(1, p)):
        for a in quad.squares:
            a_pow = pow(a, j, p)
            for z in range(1, p):
                if images[a * z % p] != a_pow * images[z] % p:
                    raise NoTwistExponent(
                        f"exponent candidate {j} fails at a={a}, z={z}"
                    )
    odd = [n for n in (j, j + half) if n % 2 == 1 and n > 0]
    if not odd:
        raise NoTwistExponent("no odd representative exists")
    return odd[0]


def check_twist_exponents(
    dec: StabilizerDecomposition, quad: QuadraticClasses
) -> tuple[CheckResult, dict[Permutation, int]]:
    half = (quad.p - 1) // 2
    exponents: dict[Permutation, int] = {}
    failures = []
    for swap in dec.swapping:
        try:
            n = twist_exponent(swap, quad)
        except NoTwistExponent as exc:
            failures.append({"element": str(swap), "reason": str(exc)})
            continue
        if (n * n - 1) % half:
            failures.append({"element": str(swap), "exponent": n})
            continue
        exponents[swap] = n
    witness = {
        "exponents": sorted([str(s), n] for s, n in exponents.items()),
        "divisibility_modulus": half,
    }
    counterexample = {"failures": failures} if failures else None
    return (
        CheckResult("lemma-2.6", not failures, witness, counterexample),
        exponents,
    )


# --- the branch for p = 1 mod 4 --------------------------------------------


def check_pair_orbit_count(group: PermGroup, p: int) -> CheckResult:
    """The 2-cycles of all elements, counted over self-paired suborbits.

    Take a G-orbit X, its first point x, and y in a G_x-orbit O in X - {x};
    level 0's entry u at y maps x to y.  The elements swapping x and y are
    u*h with h in G_x and h(y) = u^-1(x): none, or a coset of G_(x,y) if O
    holds u^-1(x), and then for every y in O: O is self-paired.  Each point
    of X lies in |O| * |G_(x,y)| = |G_x| such 2-cycles, so X adds
    |X| * |G_x| / 2 = |G| / 2 per self-paired O.  One-point G-orbits hold
    no pair; a transitive group's X starts at 0, on its own chain."""
    self_paired = 0
    for x, points in _stabilizer_orbits(group, 0):
        if len(points) == 1:
            continue
        chain = group.rebased((x,))
        for y, suborbit in _stabilizer_orbits(chain, 1):
            u = chain.transversal_entry(0, y)
            if u is not None and u.index(x) in suborbit:
                self_paired += 1
    count = group.order() * self_paired // 2
    expected = ((p * p + p) // 2) * ((p - 1) // 2)
    witness = {"pair_orbit_count": count, "expected": expected}
    return CheckResult("lemma-3.2", count == expected, witness)


def check_swaps_are_involutions(
    group: PermGroup, dec: StabilizerDecomposition, p: int
) -> CheckResult:
    ident = identity_images(group.degree)
    # order 2: s * s is the identity and s is not
    bad = [
        s for s in dec.swapping
        if s.images == ident or compose_images(s.images, s.images) != ident
    ]
    negation = group.line.scaling(p - 1)
    class_size = None
    bound = (p * p + p) // 2
    bound_ok = True
    if group.contains(negation):
        # -z fixes exactly 0 and inf, and an element commuting with it
        # permutes its fixed points, so the centralizer lies in the
        # stabilizer of {0, inf}: the fixing elements and the swapping coset
        centralizer = [g for g in (*dec.fixing, *dec.swapping) if g * negation == negation * g]
        class_size = group.order() // len(centralizer)
        bound_ok = class_size >= bound
    witness = {
        "all_order_two": not bad,
        "negation_class_size": class_size,
        "conjugate_lower_bound": bound,
    }
    counterexample = (
        {"non_involutions": sorted(str(s) for s in bad)} if bad else None
    )
    return CheckResult(
        "lemma-3.3", not bad and bound_ok, witness, counterexample
    )


def check_twist_is_negation(
    exponents: dict[Permutation, int], p: int
) -> CheckResult:
    half = (p - 1) // 2
    bad = [[str(s), n] for s, n in exponents.items() if (n + 1) % half]
    witness = {"all_exponents_equal_minus_one_mod": half}
    counterexample = {"other_exponents": sorted(bad)} if bad else None
    return CheckResult("corollary-3.4", not bad, witness, counterexample)


def check_normalized_swap_shape(
    dec: StabilizerDecomposition, quad: QuadraticClasses
) -> tuple[CheckResult, Permutation | None, int | None]:
    """The swap fixing 1 inverts squares and scales inverted non-squares by
    a single constant."""
    p = quad.p
    fixed_one = [s for s in dec.swapping if s(1) == 1]
    if len(fixed_one) != 1:
        witness = {"candidates_fixing_one": len(fixed_one)}
        return CheckResult("corollary-3.5", False, witness), None, None
    lam = fixed_one[0]
    inverts_squares = all(lam(z) == pow(z, p - 2, p) for z in quad.squares)
    constants = {lam(z) * z % p for z in quad.nonsquares}
    constant = constants.pop() if len(constants) == 1 else None
    passed = inverts_squares and constant is not None
    witness = {
        "lambda": str(lam),
        "inverts_squares": inverts_squares,
        "nonsquare_constant": constant,
    }
    counterexample = None
    if constant is None:
        counterexample = {"constants_seen": sorted({lam(z) * z % p for z in quad.nonsquares})}
    return CheckResult("corollary-3.5", passed, witness, counterexample), lam, constant


def check_inversion_from_constant(
    group: PermGroup, lam: Permutation, constant: int | None
) -> CheckResult:
    line = group.line
    p = line.field.p
    neg_recip = line.neg_reciprocal()
    constant_ok = constant == 1
    composed = line.scaling(p - 1) * lam if constant_ok else None
    composition_ok = composed == neg_recip if composed is not None else False
    contained = group.contains(neg_recip)
    witness = {
        "constant": constant,
        "witness": str(neg_recip),
        "negation_composite_matches": composition_ok,
        "contained": contained,
    }
    return CheckResult(
        "prop-3.6", constant_ok and composition_ok and contained, witness
    )


# --- the branch for p = 3 mod 4 --------------------------------------------


def check_unique_normalized_swap(
    dec: StabilizerDecomposition, p: int
) -> tuple[CheckResult, Permutation | None]:
    matches = [s for s in dec.swapping if (p - s(1) * s(p - 1)) % p == 1]
    unique = len(matches) == 1
    lam = matches[0] if unique else None
    involution = lam.order() == 2 if lam is not None else False
    witness = {
        "candidates": len(matches),
        "lambda": str(lam) if lam is not None else None,
        "order_two": involution,
    }
    return CheckResult("lemma-4.1", unique and involution, witness), lam


def check_swap_power_form(
    lam: Permutation, quad: QuadraticClasses
) -> tuple[CheckResult, TwistAnalysis | None]:
    p = quad.p
    c = lam(1)
    try:
        n = twist_exponent(lam, quad)
    except NoTwistExponent as exc:
        return (
            CheckResult(
                "corollary-4.2",
                False,
                {"constant": c},
                {"reason": str(exc)},
            ),
            None,
        )
    c_nonsquare = not quad.is_square(c)
    c_inv = pow(c, p - 2, p)
    on_squares = all(lam(z) == c * pow(z, n, p) % p for z in quad.squares)
    on_nonsquares = all(
        lam(z) == c_inv * pow(z, n, p) % p for z in quad.nonsquares
    )
    power_identity = pow(c, n, p) == c
    passed = c_nonsquare and on_squares and on_nonsquares and power_identity
    analysis = TwistAnalysis(lam, n, c)
    witness = {
        "constant": c,
        "constant_is_nonsquare": c_nonsquare,
        "exponent": n,
        "scales_squares": on_squares,
        "scales_nonsquares": on_nonsquares,
        "constant_power_identity": power_identity,
    }
    return CheckResult("corollary-4.2", passed, witness), analysis


def order3_element(group: PermGroup, lam: Permutation, c: int) -> Permutation:
    """The map z -> 1 - lam(z)/c as a permutation."""
    line = group.line
    p = line.field.p
    c_inv = pow(c, p - 2, p)
    return line.translation(1) * line.scaling((p - c_inv) % p) * lam


def check_order3_construction(
    group: PermGroup, lam: Permutation, c: int
) -> tuple[CheckResult, Permutation]:
    line = group.line
    p = line.field.p
    alpha = order3_element(group, lam, c)
    contained = group.contains(alpha)
    order3 = alpha.order() == 3
    # z -> lam(c*(1-z)), built inside-out
    mu = lam * line.scaling(c) * line.scaling(p - 1) * line.translation(p - 1)
    inverse_ok = mu == alpha.inverse()
    witness = {
        "alpha": str(alpha),
        "contained": contained,
        "order": alpha.order(),
        "inverse_identity": inverse_ok,
    }
    return (
        CheckResult("lemma-4.3", contained and order3 and inverse_ok, witness),
        alpha,
    )


def check_fixed_exponent_solutions(p: int, n: int) -> CheckResult:
    solutions = sorted(x for x in range(1, p) if pow(x, n, p) == x)
    expected = [1, p - 1]
    witness = {"solutions": solutions, "expected": expected}
    return CheckResult("lemma-4.4", solutions == expected, witness)


def check_main_case_inversion(
    group: PermGroup, lam: Permutation, n: int
) -> CheckResult:
    line = group.line
    p = line.field.p
    neg_recip = line.neg_reciprocal()
    exponent_ok = (n + 1) % (p - 1) == 0
    lam_ok = lam == neg_recip
    contained = group.contains(neg_recip)
    witness = {
        "exponent": n,
        "lambda": str(lam),
        "witness": str(neg_recip),
        "contained": contained,
    }
    return CheckResult(
        "prop-4.5", exponent_ok and lam_ok and contained, witness
    )


# --- the special case -------------------------------------------------------


def _special_case_xs(p: int, c: int, quad: QuadraticClasses) -> list[int]:
    """Powers x of -c with 1-x a non-square."""
    neg_c = (p - c) % p
    powers = []
    cur = 1
    while True:
        powers.append(cur)
        cur = cur * neg_c % p
        if cur == 1:
            break
    return sorted(
        x for x in powers if (1 - x) % p != 0 and not quad.is_square((1 - x) % p)
    )


def check_special_power_identities(
    alpha: Permutation, c: int, n: int, quad: QuadraticClasses
) -> CheckResult:
    p = quad.p
    alpha_inv = alpha.inverse()
    c_inv = pow(c, p - 2, p)
    c2, c_inv2 = c * c % p, c_inv * c_inv % p
    xs = _special_case_xs(p, c, quad)
    failures = []
    for x in xs:
        x_inv = pow(x, p - 2, p)
        w = pow((1 - x) % p, n, p)
        cases = {
            "a": alpha(alpha(x)) == (1 - c_inv2 * w) % p,
            "b": alpha(alpha(x_inv)) == (1 + x_inv * w) % p,
            "c": alpha_inv(x) == c2 * w % p,
            "d": alpha_inv(x_inv) == (p - x_inv * w % p) % p,
        }
        for tag, ok in cases.items():
            if not ok:
                failures.append({"x": x, "identity": tag})
    witness = {"tested_x": xs, "identities": ["a", "b", "c", "d"]}
    counterexample = {"failures": failures} if failures else None
    return CheckResult("lemma-5.1", not failures, witness, counterexample)


def check_special_constant_relation(
    c: int, quad: QuadraticClasses
) -> CheckResult:
    p = quad.p
    c_inv = pow(c, p - 2, p)
    xs = _special_case_xs(p, c, quad)
    bad = [
        x
        for x in xs
        if (c * c + c_inv * c_inv + 2 * pow(x, p - 2, p)) % p != 0
    ]
    witness = {"relation_holds_for": [x for x in xs if x not in bad]}
    counterexample = {"failures": bad} if bad else None
    return CheckResult("lemma-5.2", not bad, witness, counterexample)


def check_special_constant_cubes(c: int, p: int) -> CheckResult:
    cube_ok = (pow(c, 3, p) + 1) % p == 0
    quartic_a = (pow(c, 4, p) + 3) % p == 0
    quartic_b = (3 * pow(c, 4, p) + 1) % p == 0
    witness = {
        "constant_cubed_is_minus_one": cube_ok,
        "quartic_branch": "c4+3" if quartic_a else ("3c4+1" if quartic_b else None),
    }
    return CheckResult("lemma-5.3", cube_ok and (quartic_a or quartic_b), witness)


def build_exceptional(variant: int) -> PermGroup:
    """One of the two order-168 groups on 8 points with a normal subgroup
    of order 8, generated by z->z+1, z->2z and the variant's involution."""
    if variant not in EXCEPTIONAL_INVOLUTIONS:
        raise BadVariant(f"variant must be 3 or 5, got {variant}")
    line = ProjLine.over_prime(7)
    lam = line.from_cycles(EXCEPTIONAL_INVOLUTIONS[variant])
    return PermGroup([line.translation(1), line.scaling(2), lam])


def _same_group(a: PermGroup, b: PermGroup) -> bool:
    """Equal orders and a's generators in b, read off the chains: a = b."""
    return a.order() == b.order() and all(b.contains(g) for g in a.generators)


def _exceptional_structure(group: PermGroup, variant: int) -> tuple[bool, dict, tuple[Permutation, ...]]:
    """Verify the order-168 presentation, the order-8 normal subgroup, and
    agreement with the transported GF(8) construction."""
    line = group.line
    lam = line.from_cycles(EXCEPTIONAL_INVOLUTIONS[variant])
    presented = build_exceptional(variant)
    order_ok = presented.order() == 168
    same_set = _same_group(presented, group)

    # the fixed-point-free involutions: elements moving every point that square to 1
    ident = identity_images(line.size)
    involutions = [
        e
        for e in group.element_images()
        if not any(map(eq, e, ident)) and compose_images(e, e) == ident
    ]
    eight = {ident, *involutions}
    closed = all(compose_images(x, y) in eight for x in eight for y in eight)
    abelian = all(
        compose_images(x, y) == compose_images(y, x) for x in involutions for y in involutions
    )
    fpf = [Permutation(e) for e in involutions]
    normal8 = PermGroup(fpf) if fpf else None
    normal8_ok = (
        len(fpf) == 7
        and closed
        and abelian
        and normal8 is not None
        and normal8.order() == 8
        and group.is_normal(normal8)
    )

    labeling = gf8_labeling(_EXCEPTIONAL_CUBICS[variant])
    transported = PermGroup(
        [
            line.perm(labeling.transport(labeling.add_one_map())),
            line.perm(labeling.transport(labeling.mul_generator_map())),
            line.perm(labeling.transport(labeling.frobenius_map())),
        ]
    )
    transported_ok = _same_group(transported, group)
    not_simple = not group.is_simple()

    witness = {
        "variant": variant,
        "lambda": str(lam),
        "presented_order": presented.order(),
        "presentation_matches": same_set,
        "fixed_point_free_involutions": len(fpf),
        "normal8_order": normal8.order() if normal8 is not None else None,
        "normal8_generators": sorted(str(x) for x in fpf),
        "gf8_transport_matches": transported_ok,
        # presented is build_exceptional(variant), so this is the same comparison
        "builtin_exceptional_matches": same_set,
        "simple": not not_simple,
    }
    passed = order_ok and same_set and normal8_ok and transported_ok and not_simple
    return passed, witness, tuple(fpf)


def check_special_case_conclusion(
    group: PermGroup, lam: Permutation, c: int
) -> tuple[CheckResult, tuple[Permutation, ...]]:
    p = group.line.field.p
    prime_ok = p == 7
    variant_ok = c in EXCEPTIONAL_INVOLUTIONS
    lam_ok = False
    structure_ok = False
    witness: dict = {"p": p, "constant": c}
    normal8: tuple[Permutation, ...] = ()
    if prime_ok and variant_ok:
        expected = group.line.from_cycles(EXCEPTIONAL_INVOLUTIONS[c])
        lam_ok = lam == expected
        structure_ok, structure_witness, normal8 = _exceptional_structure(group, c)
        witness |= structure_witness
        witness["lambda_matches"] = lam_ok
    passed = prime_ok and variant_ok and lam_ok and structure_ok
    return CheckResult("prop-5.4", passed, witness), normal8


# --- the chain --------------------------------------------------------------


def classify(group: PermGroup, p: int) -> VerificationReport:
    """Run the full lemma chain on a candidate group and settle the
    dichotomy, recording every check."""
    if group.degree != p + 1 or not is_prime(p):
        raise ValueError(f"group does not act on the projective line over GF({p})")
    checks: list[CheckResult] = []
    hyp = check_hypotheses(group, p)
    checks.append(hyp)
    if not hyp.passed:
        return VerificationReport(p, "hypotheses-failed", "", tuple(checks))

    if p == 3:
        checks.append(p3_case_check(group))
        witness = group.line.from_cycles("(0 inf)(1 2)")
        dichotomy = Dichotomy("a", witness)
        return VerificationReport(
            p, "a", str(witness), tuple(checks), dichotomy
        )

    quad = quadratic_classes(p)
    checks.append(check_double_transitivity(group))
    dec = decompose_stabilizers(group)
    checks.append(decomposition_check(dec, p))
    checks.append(check_stabilizer_scalings(group, dec, quad))
    checks.append(check_square_class_action(group, dec, quad))
    twist_check, exponents = check_twist_exponents(dec, quad)
    checks.append(twist_check)

    dichotomy: Dichotomy | None = None
    if dec.swapping:
        if p % 4 == 1:
            checks.append(check_pair_orbit_count(group, p))
            checks.append(check_swaps_are_involutions(group, dec, p))
            checks.append(check_twist_is_negation(exponents, p))
            shape_check, lam, constant = check_normalized_swap_shape(dec, quad)
            checks.append(shape_check)
            if lam is not None:
                final = check_inversion_from_constant(group, lam, constant)
                checks.append(final)
                if final.passed:
                    dichotomy = Dichotomy("a", group.line.neg_reciprocal())
        else:
            unique_check, lam = check_unique_normalized_swap(dec, p)
            checks.append(unique_check)
            if lam is not None:
                form_check, analysis = check_swap_power_form(lam, quad)
                checks.append(form_check)
                c = lam(1)
                order3_check, alpha = check_order3_construction(group, lam, c)
                checks.append(order3_check)
                if analysis is not None and c == p - 1:
                    checks.append(
                        check_fixed_exponent_solutions(p, analysis.exponent)
                    )
                    final = check_main_case_inversion(group, lam, analysis.exponent)
                    checks.append(final)
                    if final.passed:
                        dichotomy = Dichotomy("a", group.line.neg_reciprocal())
                elif analysis is not None:
                    checks.append(
                        check_special_power_identities(alpha, c, analysis.exponent, quad)
                    )
                    checks.append(check_special_constant_relation(c, quad))
                    checks.append(check_special_constant_cubes(c, p))
                    conclusion, normal8 = check_special_case_conclusion(group, lam, c)
                    checks.append(conclusion)
                    if conclusion.passed:
                        dichotomy = Dichotomy("b", lam, normal8)

    if dichotomy is None:
        dichotomy = _direct_dichotomy(group, p)
    return VerificationReport(
        p, dichotomy.verdict, str(dichotomy.witness), tuple(checks), dichotomy
    )


def _direct_dichotomy(group: PermGroup, p: int) -> Dichotomy:
    """Settle the verdict by direct containment tests; reached only when a
    chain check failed before producing it."""
    neg_recip = group.line.neg_reciprocal()
    if group.contains(neg_recip):
        return Dichotomy("a", neg_recip)
    if p == 7:
        for variant, cycles in EXCEPTIONAL_INVOLUTIONS.items():
            lam = group.line.from_cycles(cycles)
            if group.contains(lam):
                ok, _, normal8 = _exceptional_structure(group, variant)
                if ok:
                    return Dichotomy("b", lam, normal8)
    raise SpecialCaseContradiction(
        "group satisfies the hypotheses but matches neither branch"
    )


# --- the p = 3 case and the uniqueness corollary ----------------------------


def p3_case_check(group: PermGroup | None = None) -> CheckResult:
    if group is None:
        group = psl2_perm_group(3)
    line = group.line
    order_ok = group.order() == 12
    # even: an even number of inverted pairs
    even_perms = frozenset(
        images
        for images in itertools.permutations(range(4))
        if sum(a > b for a, b in itertools.combinations(images, 2)) % 2 == 0
    )
    equals_alternating = group.element_set() == even_perms
    swap = line.from_cycles("(0 inf)(1 2)")
    contains_swap = group.contains(swap)
    simple = group.is_simple()
    closure4 = group.normal_closure([swap]).order()
    witness = {
        "order": group.order(),
        "equals_alternating_group": equals_alternating,
        "contains_swap": str(swap),
        "simple": simple,
        "double_transposition_closure_order": closure4,
    }
    passed = order_ok and equals_alternating and contains_swap and not simple and closure4 == 4
    return CheckResult("p3-case", passed, witness)


def sylow_orbit(group: PermGroup, p: int):
    """The Sylow p-subgroups of a group of order (p^3-p)/2 holding z+1, and
    how its generators permute them (``PermGroup.conjugation_action``).

    p^2 does not divide (p^3-p)/2, so <z+1> is a Sylow p-subgroup, and by
    Sylow's theorem every other one is conjugate to it: they are its orbit
    under conjugation by the generators, found with no element scan."""
    sigma = group.line.translation(1).images
    powers = [identity_images(group.degree)]
    for _ in range(p - 1):
        powers.append(compose_images(sigma, powers[-1]))
    return group.conjugation_action(powers)


def corollary_check(p: int) -> CheckResult:
    """Simplicity forces the projective group: verify the Sylow count and
    that relabeling the conjugation action on Sylow subgroups reproduces
    the projective-line action.  The p(p+1) elements of the Sylow
    subgroups are all it holds, so they meet the enumeration cap."""
    if p <= 3:
        raise ValueError("the corollary pipeline runs for p > 3")
    check_cap("Sylow subgroup elements", p * (p + 1), "enumeration cap", DEFAULT_ENUMERATION_CAP)
    if not is_prime(p):
        raise ValueError(f"the corollary needs a prime p, got {p}")
    group = psl2_perm_group(p)
    line = group.line
    simple = group.is_simple()
    ident = identity_images(line.size)
    sigma = line.translation(1).images
    # subgroups are indices into ``sylows``; ``action`` holds, per generator,
    # the index each one is conjugated to
    sylows, action = sylow_orbit(group, p)
    count_ok = len(sylows) == p + 1
    gens = [g.images for g in group.generators]
    shift = action[gens.index(sigma)]

    # <z+1> is labeled inf, and z+1 walks the others through 0 .. p-1
    home = next(i for i, sub in enumerate(sylows) if sigma in sub)
    labels = {home: line.infinity}
    cur = start = min(i for i in range(len(sylows)) if i != home)
    for i in range(p):
        labels.setdefault(cur, i)
        cur = shift[cur]
    cycle_ok = cur == start and len(labels) == p + 1

    # each subgroup fixes one point, which takes the subgroup's label
    beta: list[int | None] = [None] * line.size
    if cycle_ok:
        for idx, sub in enumerate(sylows):
            member = min(x for x in sub if x != ident)
            fixed = [x for x, y in enumerate(member) if x == y]
            if len(fixed) == 1 and beta[fixed[0]] is None:
                beta[fixed[0]] = labels[idx]
    beta_ok = cycle_ok and None not in beta

    intertwines = action_doubly_transitive = False
    if beta_ok:
        by_label = sorted(labels, key=labels.get)
        relabeled = [tuple(labels[moved[i]] for i in by_label) for moved in action]
        beta_inv = invert_images(beta)
        intertwines = relabeled == [tuple(beta[g[x]] for x in beta_inv) for g in gens]
        action_group = PermGroup(Permutation(r) for r in relabeled)
        action_doubly_transitive = action_group.is_doubly_transitive()

    passed = simple and count_ok and cycle_ok and beta_ok and intertwines
    witness = {
        "simple": simple,
        "sylow_count": len(sylows),
        "expected_sylow_count": p + 1,
        "translation_cycle_labels": cycle_ok,
        "point_relabeling": [
            [line.point_name(x), line.point_name(beta[x])]
            for x in range(line.size)
        ]
        if beta_ok
        else None,
        "conjugation_action_matches": intertwines,
        "sylow_action_doubly_transitive": action_doubly_transitive,
    }
    return CheckResult("corollary", passed, witness)


def exceptional_report(variant: int) -> CheckResult:
    """Standalone structural audit of one exceptional variant."""
    group = build_exceptional(variant)
    passed, witness, _ = _exceptional_structure(group, variant)
    return CheckResult("exceptional", passed, witness)
