import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psl2kit import fields
from psl2kit.fields import (
    CapExceeded,
    Field,
    IndexOutOfRange,
    InversionOfZero,
    NoIrreduciblePolynomial,
    NoPrimitiveElement,
    NotOddPrime,
    NotPrime,
    ReduciblePolynomial,
    default_modulus,
    field_of_order,
    is_prime,
    poly_is_irreducible,
    primitive_root,
    quadratic_classes,
)

from conftest import brute_multiplicative_order

PRIMES_TO_101 = [p for p in range(3, 102) if is_prime(p)]

# every extension order exercised somewhere in the package, plus a spread
# of larger tables up to the q <= 512 invariant range
BUILT_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49, 64, 81, 121, 169, 256, 343, 512]


@pytest.fixture(scope="module", params=BUILT_ORDERS)
def built_field(request):
    return field_of_order(request.param)


def test_field_axioms_exhaustive(built_field):
    f = built_field
    q = f.order
    elements = range(q)
    for a in elements:
        for b in elements:
            assert f.mul(a, b) == f.mul(b, a)
            if a != 0:
                assert f.mul(a, f.inv(a)) == 1
    # distributivity over the full cube where it stays cheap, otherwise over
    # all pairs with a deterministic set of third operands
    third = elements if q <= 81 else [0, 1, 2, f.primitive_element(), q - 1]
    for a in elements:
        for b in elements:
            for c in third:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_addition_group_structure(built_field):
    f = built_field
    for a in range(f.order):
        assert f.add(a, 0) == a
        assert f.add(a, f.neg(a)) == 0
        for b in range(min(f.order, 32)):
            assert f.add(a, b) == f.add(b, a)


def test_inverse_by_scan_gf7():
    f = Field(7)
    scan = next(x for x in range(1, 7) if 2 * x % 7 == 1)
    assert scan == 4
    assert f.inv(2) == scan
    assert f.neg(1) == 6


def test_gf8_generator_relations():
    f = Field(2, 3, (1, 1, 0, 1))  # x^3 + x + 1
    zeta = 2
    assert f.add(1, zeta) == f.pow(zeta, 3)
    assert f.add(1, f.pow(zeta, 2)) == f.pow(zeta, 6)
    assert f.add(1, f.pow(zeta, 4)) == f.pow(zeta, 5)


def test_pow_negative_exponents():
    f = Field(7)
    assert f.pow(2, -1) == f.inv(2)
    assert f.pow(3, -2) == f.inv(f.mul(3, 3))
    assert f.pow(0, 0) == 1
    assert f.pow(0, 5) == 0
    with pytest.raises(InversionOfZero):
        f.pow(0, -1)
    with pytest.raises(InversionOfZero):
        f.inv(0)


def test_index_bounds_checked():
    # every out-of-range operand of add and mul, first or second, beside 0 and
    # 1: characteristic-2 addition is an XOR and extension-field products
    # short-cut at 0, neither of which would notice by itself
    for f in (Field(5), field_of_order(8), field_of_order(9)):
        for op in (f.add, f.mul):
            for bad in (-1, f.order, f.order + 1):
                for good in (0, 1):
                    with pytest.raises(IndexOutOfRange):
                        op(bad, good)
                    with pytest.raises(IndexOutOfRange):
                        op(good, bad)
                with pytest.raises(IndexOutOfRange):
                    op(bad, bad)
        for bad in (-1, f.order, f.order + 1):
            with pytest.raises(IndexOutOfRange):
                f.neg(bad)


def test_field_construction_errors():
    with pytest.raises(NotPrime):
        Field(6)
    with pytest.raises(CapExceeded):
        Field(2, 17)
    with pytest.raises(ReduciblePolynomial):
        Field(2, 3, (1, 1, 1, 1))  # x^3+x^2+x+1 = (x+1)(x^2+1)
    with pytest.raises(NotPrime):
        field_of_order(12)
    with pytest.raises(NotPrime):
        field_of_order(1)


def test_default_modulus_is_lex_smallest_irreducible():
    assert default_modulus(2, 3) == (1, 1, 0, 1)  # x^3 + x + 1
    assert default_modulus(3, 2) == (1, 0, 1)  # x^2 + 1 over GF(3)
    assert poly_is_irreducible((1, 0, 1), 3)
    assert not poly_is_irreducible((1, 2, 1), 3)  # (x+1)^2


def _divides_by_subtraction(d, f, p):
    """Whether monic d divides f over Z/p: the leading term is cancelled,
    and the remainder re-trimmed, until its degree is below d's."""
    rem = list(f)
    dd = len(d) - 1
    while len(fields._poly_trim(tuple(rem))) - 1 >= dd:
        rem = list(fields._poly_trim(tuple(rem)))
        lead = rem[-1]
        shift = len(rem) - 1 - dd
        for j in range(len(d)):
            rem[shift + j] = (rem[shift + j] - lead * d[j]) % p
    return len(fields._poly_trim(tuple(rem))) == 0


def _mul_then_reduce(u, v, modulus, p):
    """u * v over Z/p, then reduced by the monic modulus in place."""
    prod = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            prod[i + j] = (prod[i + j] + ui * vj) % p
    deg = len(modulus) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(deg):
                prod[i - deg + j] = (prod[i - deg + j] - c * modulus[j]) % p
    return fields._poly_trim(tuple(prod))


def _irreducible_by_subtraction(coeffs, p):
    deg = len(fields._poly_trim(coeffs)) - 1
    if deg < 2:
        return deg == 1
    divisors = (
        lower + (1,) for d in range(1, deg // 2 + 1) for lower in itertools.product(range(p), repeat=d)
    )
    return not any(_divides_by_subtraction(d, coeffs, p) for d in divisors)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irreducibility_by_remainder_matches_repeated_subtraction(p):
    # every polynomial of degree at most 4 over Z/p
    for coeffs in itertools.product(range(p), repeat=5):
        assert poly_is_irreducible(coeffs, p) == _irreducible_by_subtraction(coeffs, p), coeffs


EXTENSION_ORDERS = [
    (p, k) for p in range(2, 257) if is_prime(p) for k in range(2, 17) if p**k <= fields.MAX_FIELD_ORDER
]


def test_default_modulus_matches_repeated_subtraction():
    for p, k in EXTENSION_ORDERS:
        lowest = next(
            cand
            for descending in itertools.product(range(p), repeat=k)
            if _irreducible_by_subtraction(cand := tuple(reversed(descending)) + (1,), p)
        )
        assert default_modulus(p, k) == lowest, (p, k)


def test_field_tables_match_multiplication_then_reduction():
    # the exp/log tables of every extension field up to q = 4096, rebuilt by
    # powering the field's generator, which must be the least unit whose
    # log is prime to q - 1
    for p, k in EXTENSION_ORDERS:
        q = p**k
        if q > 4096:
            continue
        field = field_of_order(q)
        gen = field.primitive_element()
        exp = [1]
        for _ in range(q - 2):
            u = field._idx_to_poly(exp[-1])
            exp.append(field._poly_to_idx(_mul_then_reduce(u, field._idx_to_poly(gen), field.modulus, p)))
        assert exp == field._exp, q
        assert sorted(exp) == list(range(1, q))
        log = {x: i for i, x in enumerate(exp)}
        assert gen == min(x for x in range(1, q) if math.gcd(log[x], q - 1) == 1)
        assert field._log[1:] == [log[x] for x in range(1, q)]


def test_max_order_field_builds():
    f = Field(2, 16)
    g = f.primitive_element()
    assert brute_multiplicative_order(f, g) == f.order - 1
    assert f.mul(g, f.inv(g)) == 1


def test_quadratic_classes_examples():
    qc7 = quadratic_classes(7)
    assert qc7.squares == (1, 2, 4)
    assert qc7.nonsquares == (3, 5, 6)
    qc5 = quadratic_classes(5)
    assert qc5.squares == (1, 4)
    assert qc5.nonsquares == (2, 3)
    assert quadratic_classes(13).is_square(12)  # -1 is a square, 13 = 1 mod 4


def test_quadratic_classes_oracle_by_squaring():
    for p in PRIMES_TO_101:
        squares = sorted({a * a % p for a in range(1, p)})
        qc = quadratic_classes(p)
        assert qc.squares == tuple(squares)
        assert qc.nonsquares == tuple(sorted(set(range(1, p)) - set(squares)))
        assert len(qc.squares) == len(qc.nonsquares) == (p - 1) // 2


def test_quadratic_class_multiplicativity_exhaustive():
    for p in PRIMES_TO_101:
        qc = quadratic_classes(p)
        squares = set(qc.squares)
        for a in range(1, p):
            for b in range(1, p):
                product_is_square = (a * b % p) in squares
                expected = (a in squares) == (b in squares)
                assert product_is_square == expected


def test_minus_one_square_iff_one_mod_four():
    for p in PRIMES_TO_101:
        assert quadratic_classes(p).is_square(p - 1) == (p % 4 == 1)


def test_quadratic_classes_requires_odd_prime():
    with pytest.raises(NotOddPrime):
        quadratic_classes(2)
    with pytest.raises(NotOddPrime):
        quadratic_classes(9)


def test_primitive_roots():
    assert primitive_root(7) == 3
    assert primitive_root(5) == 2
    assert primitive_root(2) == 1
    with pytest.raises(NotPrime):
        primitive_root(8)
    for p in PRIMES_TO_101[:10]:
        g = primitive_root(p)
        assert brute_multiplicative_order(Field(p), g) == p - 1
        for smaller in range(2, g):
            assert brute_multiplicative_order(Field(p), smaller) < p - 1


def test_gf8_labeling_rejects_reducible_cubic():
    # GF(8) for the exceptional groups is Field(2, 3, cubic), which refuses
    # a modulus that is reducible or not a cubic
    with pytest.raises(ReduciblePolynomial):
        Field(2, 3, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        Field(2, 3, (1, 1, 1))


def test_missing_primitive_element_raises(monkeypatch):
    # every candidate then looks like it has a proper-divisor order
    monkeypatch.setattr(Field, "_raw_pow", lambda self, x, e: 1)
    with pytest.raises(NoPrimitiveElement):
        Field(2, 3, (1, 1, 0, 1))


def test_missing_irreducible_polynomial_raises(monkeypatch):
    monkeypatch.setattr(fields, "poly_is_irreducible", lambda coeffs, p: False)
    with pytest.raises(NoIrreduciblePolynomial):
        default_modulus(2, 3)


def test_field_of_order_returns_one_field_per_q():
    # every table is linear in q: no q*q operation table is built
    for q in BUILT_ORDERS:
        f = field_of_order(q)
        assert f is field_of_order(q)
        assert not hasattr(f, "add_table") and not hasattr(f, "mul_table")


# the default field of each order up to 16, and a second modulus of GF(8)
# and GF(9)
SMALL_FIELDS = [field_of_order(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)] + [
    Field(2, 3, (1, 0, 1, 1)),
    Field(3, 2, (2, 2, 1)),
]


@pytest.mark.parametrize("f", SMALL_FIELDS, ids=repr)
def test_fused_kernel_matches_checked_arithmetic_exhaustive(f):
    add, mul, dot = f.add, f.mul, f._dot
    for x1, y1, x2, y2 in itertools.product(range(f.order), repeat=4):
        assert dot(x1, y1, x2, y2) == add(mul(x1, y1), mul(x2, y2))


KERNEL_DRAW_ORDERS = (25, 27, 81, 125, 243, 256, 2187, 65521)


def _operands(q):
    return st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))


@pytest.mark.parametrize("q", KERNEL_DRAW_ORDERS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fused_kernel_matches_checked_arithmetic_on_draws(q, data):
    f = field_of_order(q)
    x1, y1, x2, y2 = (data.draw(_operands(q)) for _ in range(4))
    assert f._dot(x1, y1, x2, y2) == f.add(f.mul(x1, y1), f.mul(x2, y2))


def _digitwise_add(p, x, y):
    """Coefficient-wise addition of the base-p digits of two indices."""
    out, mult = 0, 1
    while x or y:
        out += (x % p + y % p) % p * mult
        x, y, mult = x // p, y // p, mult * p
    return out


def _digitwise_neg(p, x):
    out, mult = 0, 1
    while x:
        out += (p - x % p) % p * mult
        x, mult = x // p, mult * p
    return out


@pytest.mark.parametrize("q", (9, 25, 27))
def test_zech_addition_matches_digits_exhaustive(q):
    f = field_of_order(q)
    for x in range(q):
        assert f.neg(x) == _digitwise_neg(f.p, x)
        for y in range(q):
            assert f.add(x, y) == _digitwise_add(f.p, x, y)


@settings(max_examples=300, deadline=None)
@given(x=_operands(3**7), y=_operands(3**7))
def test_zech_addition_matches_digits_on_draws(x, y):
    f = field_of_order(3**7)
    assert f.add(x, y) == _digitwise_add(3, x, y)
    assert f.neg(x) == _digitwise_neg(3, x)
    assert f.sub(x, y) == _digitwise_add(3, x, _digitwise_neg(3, y))
