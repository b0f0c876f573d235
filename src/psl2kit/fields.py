"""Exact arithmetic for Z/p and small extension fields GF(p^k).

Field elements are plain integers indexing the element table.  In a prime
field the index is the residue itself.  In GF(p^k) the index encodes the
representative polynomial's coefficients in base p with the constant term
in the least significant digit, so index 0 is the additive zero and index 1
the multiplicative one.  Multiplication, inversion and powers run through
exp/log tables over a fixed primitive element; addition is digit-wise,
which in characteristic 2 is the XOR of the indices.  These validated
operations are the package's only field arithmetic: the 2x2 matrix kernel in
``psl2`` calls them too, and ``field_of_order`` builds one ``Field`` per q.

Every size cap of the package is defined here, each in the unit it
counts, and ``check_cap`` enforces them all with one exception,
``CapExceeded``.  A cap check is a comparison, so callers run it before
any trial division or factoring.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cached_property, lru_cache

# Size caps, each in the unit it counts.  Elements of one field: GF(p^k)
# builds its exp/log tables eagerly, so they stay at desk scale.
MAX_FIELD_ORDER = 1 << 16
# Group elements held in memory at once: enumerations, the corollary's
# Sylow subgroups, and which SL(2,q) get built as matrices.
DEFAULT_ENUMERATION_CAP = 20000
# Points a stabilizer chain acts on: its memory grows as the degree squared,
# 634 MiB for PSL(2,4001) and so about 3.7 GiB at the cap.
MAX_DEGREE = 8192
# The prime of a constrained search, and of a full search, which tries all
# (p-1)! candidate swaps.
MAX_SEARCH_PRIME = 31
MAX_FULL_SEARCH_PRIME = 7


class NotPrime(ValueError):
    pass


class NotOddPrime(ValueError):
    pass


class ReduciblePolynomial(ValueError):
    pass


class InversionOfZero(ZeroDivisionError):
    pass


class IndexOutOfRange(ValueError):
    pass


class CapExceeded(ValueError):
    pass


class NoPrimitiveElement(RuntimeError):
    pass


class Gf8LabelingFails(RuntimeError):
    pass


class NoIrreduciblePolynomial(RuntimeError):
    pass


def check_cap(quantity: str, n: int, cap_name: str, cap: int) -> None:
    """Raise ``CapExceeded`` if n exceeds the cap; cheap, so it runs before
    any trial division."""
    if n > cap:
        raise CapExceeded(f"{quantity} {n} exceeds {cap_name} {cap}")


def is_prime(n: int) -> bool:
    """Trial-division primality test, exact for the sizes used here."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def distinct_prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# --- polynomial helpers over Z/p -----------------------------------------
# Polynomials are tuples of coefficients by ascending degree.


def _poly_trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return coeffs[:i]


def _poly_mul_mod(u, v, modulus, p):
    prod = [0] * (len(u) + len(v) - 1) if u and v else []
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            prod[i + j] = (prod[i + j] + ui * vj) % p
    # reduce by the monic modulus
    deg = len(modulus) - 1
    for i in range(len(prod) - 1, deg - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(deg):
                prod[i - deg + j] = (prod[i - deg + j] - c * modulus[j]) % p
    return _poly_trim(tuple(prod))


def _poly_divides(d, f, p):
    """Whether monic d divides f over Z/p."""
    rem = list(f)
    dd = len(d) - 1
    while len(_poly_trim(tuple(rem))) - 1 >= dd:
        rem = list(_poly_trim(tuple(rem)))
        lead = rem[-1]
        shift = len(rem) - 1 - dd
        for j in range(len(d)):
            rem[shift + j] = (rem[shift + j] - lead * d[j]) % p
    return len(_poly_trim(tuple(rem))) == 0


def poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility over Z/p by trial division against all monic divisors
    of degree at most deg/2."""
    coeffs = _poly_trim(tuple(c % p for c in coeffs))
    deg = len(coeffs) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            divisor = lower + (1,)
            if _poly_divides(divisor, coeffs, p):
                return False
    return True


def default_modulus(p: int, degree: int) -> tuple[int, ...]:
    """Lowest monic irreducible of the given degree over Z/p, comparing
    coefficients from the leading term down."""
    if degree == 1:
        return (0, 1)
    for descending in itertools.product(range(p), repeat=degree):
        cand = tuple(reversed(descending)) + (1,)
        if poly_is_irreducible(cand, p):
            return cand
    raise NoIrreduciblePolynomial(f"no monic irreducible of degree {degree} over GF({p})")


class Field:
    """GF(p^k) with table-driven arithmetic on element indices 0..q-1."""

    def __init__(self, p: int, degree: int = 1, modulus: tuple[int, ...] | None = None):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        q = p**degree
        check_cap("field order", q, "field cap", MAX_FIELD_ORDER)
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.degree = degree
        self.order = q
        if modulus is None:
            modulus = default_modulus(p, degree)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != degree + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if degree > 1 and not poly_is_irreducible(modulus, p):
            raise ReduciblePolynomial(f"{modulus} is reducible over GF({p})")
        self.modulus = modulus
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if degree > 1:
            self._build_tables()

    # -- construction internals --

    def _idx_to_poly(self, i: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.degree):
            i, r = divmod(i, self.p)
            digits.append(r)
        return _poly_trim(tuple(digits))

    def _poly_to_idx(self, coeffs) -> int:
        out = 0
        for c in reversed(coeffs):
            out = out * self.p + c
        return out

    def _raw_mul(self, x: int, y: int) -> int:
        u = self._idx_to_poly(x)
        v = self._idx_to_poly(y)
        if not u or not v:
            return 0
        return self._poly_to_idx(_poly_mul_mod(u, v, self.modulus, self.p))

    def _raw_pow(self, x: int, e: int) -> int:
        out, base = 1, x
        while e:
            if e & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return out

    def _build_tables(self) -> None:
        q = self.order
        factors = distinct_prime_factors(q - 1)
        gen = None
        for cand in range(2, q):
            if all(self._raw_pow(cand, (q - 1) // f) != 1 for f in factors):
                gen = cand
                break
        if gen is None:
            raise NoPrimitiveElement(f"GF({q}) has no generator of its unit group")
        exp = [1] * (q - 1)
        log = [-1] * q
        log[1] = 0
        cur = 1
        for i in range(1, q - 1):
            cur = self._raw_mul(cur, gen)
            exp[i] = cur
            log[cur] = i
        self._exp = exp
        self._log = log
        self._generator = gen

    # -- identity / comparison --

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.degree, self.modulus) == (other.p, other.degree, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.degree, self.modulus))

    def __repr__(self):
        if self.degree == 1:
            return f"GF({self.p})"
        return f"GF({self.order};{self.modulus})"

    # -- arithmetic --

    def _check(self, *xs: int) -> None:
        for x in xs:
            if not 0 <= x < self.order:
                raise IndexOutOfRange(f"element index {x} outside 0..{self.order - 1}")

    def add(self, x: int, y: int) -> int:
        if not (0 <= x < self.order and 0 <= y < self.order):
            self._check(x, y)
        if self.degree == 1:
            return (x + y) % self.p
        if self.p == 2:
            return x ^ y
        out, mult = 0, 1
        while x or y:
            out += ((x % self.p + y % self.p) % self.p) * mult
            x //= self.p
            y //= self.p
            mult *= self.p
        return out

    def neg(self, x: int) -> int:
        self._check(x)
        if self.degree == 1:
            return (-x) % self.p
        if self.p == 2:
            return x
        out, mult = 0, 1
        while x:
            out += ((self.p - x % self.p) % self.p) * mult
            x //= self.p
            mult *= self.p
        return out

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if not (0 <= x < self.order and 0 <= y < self.order):
            self._check(x, y)
        if self.degree == 1:
            return (x * y) % self.p
        if x == 0 or y == 0:
            return 0
        return self._exp[(self._log[x] + self._log[y]) % (self.order - 1)]

    def inv(self, x: int) -> int:
        self._check(x)
        if x == 0:
            raise InversionOfZero("0 has no multiplicative inverse")
        if self.degree == 1:
            return pow(x, self.p - 2, self.p)
        return self._exp[(self.order - 1 - self._log[x]) % (self.order - 1)]

    def pow(self, x: int, e: int) -> int:
        self._check(x)
        if x == 0:
            if e < 0:
                raise InversionOfZero("0 has no negative powers")
            return 1 if e == 0 else 0
        e %= self.order - 1
        if self.degree == 1:
            return pow(x, e, self.p)
        return self._exp[(self._log[x] * e) % (self.order - 1)]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    # -- structure queries --

    def elements(self) -> range:
        return range(self.order)

    def units(self) -> range:
        return range(1, self.order)

    def multiplicative_order(self, x: int) -> int:
        self._check(x)
        if x == 0:
            raise InversionOfZero("0 has no multiplicative order")
        n = self.order - 1
        order = n
        for f in distinct_prime_factors(n):
            while order % f == 0 and self.pow(x, order // f) == 1:
                order //= f
        return order

    def primitive_element(self) -> int:
        """Smallest-index generator of the multiplicative group."""
        if self.order == 2:
            return 1
        if self.degree > 1:
            return self._generator
        for cand in range(2, self.order):
            if self.multiplicative_order(cand) == self.order - 1:
                return cand
        raise NoPrimitiveElement("unit group has no generator")  # unreachable


@lru_cache(maxsize=None)
def field_of_order(q: int) -> Field:
    """GF(q) for a prime power q, with the default modulus; one ``Field``
    per q, built on the first call."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    check_cap("field order", q, "field cap", MAX_FIELD_ORDER)
    p = min(distinct_prime_factors(q))
    degree = 0
    n = q
    while n % p == 0:
        n //= p
        degree += 1
    if n != 1:
        raise NotPrime(f"{q} is not a prime power")
    return Field(p, degree)


def primitive_root(p: int) -> int:
    """Smallest positive generator of the unit group of Z/p."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return Field(p).primitive_element() if p > 2 else 1


class QuadraticClasses(namedtuple("QuadraticClasses", "p squares nonsquares")):
    """The squares and non-squares of the unit group of Z/p, p odd.  No
    ``__slots__``: the cached properties live in the instance dict."""

    def is_square(self, a: int) -> bool:
        a %= self.p
        if a == 0:
            raise ValueError("0 is neither a square nor a non-square unit")
        return a in self._square_set

    @cached_property  # computed once; not a tuple item, so eq and hash ignore it
    def _square_set(self) -> frozenset[int]:
        return frozenset(self.squares)

    @cached_property
    def square_generator(self) -> int:
        """The square of the smallest primitive root, which generates the
        squares; computed once, like ``_square_set``."""
        return pow(primitive_root(self.p), 2, self.p)


def quadratic_classes(p: int) -> QuadraticClasses:
    if not is_prime(p) or p == 2:
        raise NotOddPrime(f"{p} is not an odd prime")
    squares = sorted({a * a % p for a in range(1, p)})
    nonsquares = sorted(set(range(1, p)) - set(squares))
    return QuadraticClasses(p, tuple(squares), tuple(nonsquares))


# --- the 8-element field and its identification with Z/7 + infinity -------

CUBIC_X3_X_1 = (1, 1, 0, 1)  # x^3 + x + 1
CUBIC_X3_X2_1 = (1, 0, 1, 1)  # x^3 + x^2 + 1

_GF8_POINT_AT_INFINITY = 7
_GF8_SHIFT = (1, 2, 3, 4, 5, 6, 0, 7)  # z -> z+1 on Z/7, fixing infinity
_GF8_DOUBLE = (0, 2, 4, 6, 1, 3, 5, 7)  # z -> 2z on Z/7, fixing infinity


class Gf8Labeling(namedtuple("Gf8Labeling", "field generator to_point")):
    """Bijection GF(8) -> Z/7 + {inf}: zero to inf, i-th power of the
    generator to i.  Point 7 encodes inf.  Transporting multiplication by
    the generator yields z->z+1 and transporting squaring yields z->2z;
    both are checked at construction."""

    __slots__ = ()

    INFINITY = _GF8_POINT_AT_INFINITY

    def transport(self, field_map: tuple[int, ...]) -> tuple[int, ...]:
        """Carry a self-map of GF(8) (as an index map) to a point map."""
        if len(field_map) != 8:
            raise ValueError("expected a map on the 8 field elements")
        images = [0] * 8
        for e in range(8):
            images[self.to_point[e]] = self.to_point[field_map[e]]
        return tuple(images)

    def add_one_map(self) -> tuple[int, ...]:
        return tuple(self.field.add(e, 1) for e in range(8))

    def mul_generator_map(self) -> tuple[int, ...]:
        return tuple(self.field.mul(self.generator, e) for e in range(8))

    def frobenius_map(self) -> tuple[int, ...]:
        return tuple(self.field.mul(e, e) for e in range(8))


def gf8_labeling(modulus: tuple[int, ...] = CUBIC_X3_X_1) -> Gf8Labeling:
    """Build the labeling for one of the two irreducible cubics over GF(2)."""
    modulus = tuple(c % 2 for c in modulus)
    if len(modulus) != 4 or modulus[-1] != 1:
        raise ValueError("modulus must be a monic cubic over GF(2)")
    if not poly_is_irreducible(modulus, 2):
        raise ReduciblePolynomial(f"{modulus} is reducible over GF(2)")
    field = Field(2, 3, modulus)
    zeta = field.p  # the class of x, a root of the modulus; both cubics are primitive
    if field.multiplicative_order(zeta) != 7:
        raise Gf8LabelingFails(f"x does not have order 7 modulo {modulus}")
    to_point = [0] * 8
    to_point[0] = _GF8_POINT_AT_INFINITY
    power = 1
    for i in range(7):
        to_point[power] = i
        power = field.mul(power, zeta)
    labeling = Gf8Labeling(field, zeta, tuple(to_point))
    if labeling.transport(labeling.mul_generator_map()) != _GF8_SHIFT:
        raise Gf8LabelingFails("generator multiplication did not transport to z->z+1")
    if labeling.transport(labeling.frobenius_map()) != _GF8_DOUBLE:
        raise Gf8LabelingFails("squaring did not transport to z->2z")
    return labeling
