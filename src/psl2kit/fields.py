"""Exact arithmetic for Z/p and small extension fields GF(p^k).

Field elements are plain integers indexing the element table.  In a prime
field the index is the residue itself.  In GF(p^k) the index encodes the
representative polynomial's coefficients in base p with the constant term
in the least significant digit, so index 0 is the additive zero and index 1
the multiplicative one.  Multiplication, inversion and powers run through
exp/log tables over a fixed primitive element.  Addition in characteristic
2 is the XOR of the indices; for odd p^k it goes through Zech logarithms,
log(1 + g^i) tabled beside exp and log, so x + y = x * (1 + y/x) is three
lookups.  The public operations range-check their operands.  The entries of
2x2 matrix products in ``psl2`` go through ``Field._dot``, one fused kernel
x1*y1 + x2*y2 that each field builds once over its own tables and that
checks no range: ``Mat2`` has checked the entries it is given.
``field_of_order`` builds one ``Field`` per q.

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
# Group elements held in memory at once: enumerations of a group, a point
# stabilizer or a conjugacy class, and which SL(2,q) get built as matrices.
DEFAULT_ENUMERATION_CAP = 20000
# Points a stabilizer chain acts on: its memory grows as the degree squared,
# 634 MiB for PSL(2,4001) and so about 3.7 GiB at the cap.
MAX_DEGREE = 8192
# The prime of a constrained search, and of a full search, which tries all
# (p-1)! candidate swaps.
MAX_SEARCH_PRIME = 31
MAX_FULL_SEARCH_PRIME = 11


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


class NoIrreduciblePolynomial(RuntimeError):
    pass


def check_cap(quantity: str, n: int, cap_name: str, cap: int) -> None:
    """Raise ``CapExceeded`` if n exceeds the cap; cheap, so it runs before
    any trial division."""
    if n > cap:
        raise CapExceeded(f"{quantity} {n} exceeds {cap_name} {cap}")


def is_prime(n: int) -> bool:
    """Whether n's only prime factor is n itself; trial division, so
    callers check their cap first."""
    return distinct_prime_factors(n) == [n]


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


def _smallest_generator(q: int, power) -> int:
    """The least generator of the unit group of GF(q), whose elements are
    the indices 1..q-1: the first unit x with no ``power(x, (q-1)/f)``
    equal to 1, f a prime dividing q-1."""
    exponents = [(q - 1) // f for f in distinct_prime_factors(q - 1)]
    for x in range(1, q):
        if all(power(x, e) != 1 for e in exponents):
            return x
    raise NoPrimitiveElement(f"GF({q}) has no generator of its unit group")


# --- polynomial helpers over Z/p -----------------------------------------
# Polynomials are tuples of coefficients by ascending degree.


def _poly_trim(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return coeffs[:i]


def _poly_rem(f, d, p):
    """The remainder of f modulo the monic d over Z/p, f's coefficients
    reduced mod p."""
    rem = list(f)
    deg = len(d) - 1
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j in range(deg):
                rem[i - deg + j] = (rem[i - deg + j] - c * d[j]) % p
    return _poly_trim(tuple(rem))


def _poly_mul_mod(u, v, modulus, p):
    prod = [0] * (len(u) + len(v) - 1) if u and v else []
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            prod[i + j] = (prod[i + j] + ui * vj) % p
    return _poly_rem(prod, modulus, p)


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
            if not _poly_rem(coeffs, divisor, p):
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
        self._hash = hash((p, degree, modulus))
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._zech: list[int] | None = None
        if degree > 1:
            self._build_tables()
        self._dot = self._fused_dot()

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
        gen = _smallest_generator(q, self._raw_pow)
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
        if self.p != 2:
            # 1 + g^i adds 1 to the constant digit only; log[0] is -1, the
            # mark of 1 + g^i = 0
            p = self.p
            self._zech = [log[e - e % p + (e % p + 1) % p] for e in exp]

    def _fused_dot(self):
        """The kernel (x1, y1, x2, y2) -> x1*y1 + x2*y2, a closure over this
        field's tables with no range check and no branch on the field's
        kind: ``Mat2`` has checked every entry it passes."""
        p, n = self.p, self.order - 1
        if self.degree == 1:
            def dot(x1, y1, x2, y2):
                return (x1 * y1 + x2 * y2) % p
            return dot
        exp, log, zech = self._exp, self._log, self._zech
        if p == 2:
            def dot(x1, y1, x2, y2):
                u = exp[(log[x1] + log[y1]) % n] if x1 and y1 else 0
                return u ^ exp[(log[x2] + log[y2]) % n] if x2 and y2 else u
            return dot

        def dot(x1, y1, x2, y2):
            if not (x1 and y1):
                return exp[(log[x2] + log[y2]) % n] if x2 and y2 else 0
            u = log[x1] + log[y1]
            if not (x2 and y2):
                return exp[u % n]
            z = zech[(log[x2] + log[y2] - u) % n]
            return 0 if z < 0 else exp[(u + z) % n]
        return dot

    # -- identity / comparison --

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.degree, self.modulus) == (other.p, other.degree, other.modulus)
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # the kernel is a closure, so rebuild, not copy
        return (Field, (self.p, self.degree, self.modulus))

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
        if x == 0 or y == 0:
            return x or y
        n, lx = self.order - 1, self._log[x]
        z = self._zech[(self._log[y] - lx) % n]
        return 0 if z < 0 else self._exp[(lx + z) % n]

    def neg(self, x: int) -> int:
        if not 0 <= x < self.order:
            self._check(x)
        if self.degree == 1:
            return (-x) % self.p
        if self.p == 2 or x == 0:
            return x
        n = self.order - 1  # -1 = g^(n/2)
        return self._exp[(self._log[x] + n // 2) % n]

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

    def primitive_element(self) -> int:
        """Smallest-index generator of the multiplicative group."""
        if self.degree > 1:
            return self._generator
        return _smallest_generator(self.order, self.pow)


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


def prime_field(p: int) -> Field:
    """``field_of_order(p)``, refused unless p is prime."""
    field = field_of_order(p)
    if field.degree != 1:
        raise NotPrime(f"{p} is not prime")
    return field


def primitive_root(p: int) -> int:
    """Smallest positive generator of the unit group of Z/p."""
    return prime_field(p).primitive_element()


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
