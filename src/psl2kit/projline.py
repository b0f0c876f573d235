"""Permutations of n points, and the projective line over a finite field.

A permutation is its image tuple and nothing else: its degree n is the
tuple's length, and its points are 0..n-1, of which n-1 is named "inf".
On the projective line over GF(q), n = q+1: field element indices 0..q-1
stand for themselves and q is the point at infinity.  Composition follows
function order: (a * b) applies b first, then a, so that
(a * b)(x) == a(b(x)).

Cycle notation is the exchange format: cycles in parentheses, points
space-separated, infinity spelled "inf".  Canonical form lists cycles by
smallest member, each rotated to start at its smallest member; the identity
renders as "()".
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from itertools import compress
from operator import eq, itemgetter

from .fields import Field


class DomainMismatch(ValueError):
    pass


class NotABijection(ValueError):
    pass


class WrongLength(ValueError):
    pass


class ParseError(ValueError):
    pass


class OverlappingCycles(ValueError):
    pass


class UnknownPoint(ValueError):
    pass


class NonUnitDeterminant(ValueError):
    pass


class ZeroScaling(ValueError):
    pass


# -- raw image-tuple helpers (shared with the group engine) ----------------


def identity_images(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose_images(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Apply b first, then a, as one C-level gather of a at b's entries."""
    if len(b) > 1:
        return itemgetter(*b)(a)
    # itemgetter takes at least one index and returns a bare item for one
    return tuple(a[i] for i in b)


def invert_images(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


@lru_cache(maxsize=None)
def point_names(n: int) -> tuple[str, ...]:
    """The names of n points, indexed by point: 0..n-2, then "inf"."""
    return (*map(str, range(n - 1)), "inf")


class ProjLine:
    """The q+1 points of the projective line over GF(q)."""

    def __init__(self, field: Field):
        self.field = field
        self.size = field.order + 1
        self.infinity = field.order

    @classmethod
    def over_prime(cls, p: int) -> "ProjLine":
        return cls(Field(p))

    def __repr__(self):
        return f"ProjLine({self.field!r})"

    def points(self) -> range:
        return range(self.size)

    @property
    def point_names(self) -> tuple[str, ...]:
        return point_names(self.size)

    def point_name(self, pt: int) -> str:
        return self.point_names[pt]

    # -- permutation constructors --

    def identity(self) -> "Permutation":
        return Permutation(identity_images(self.size))

    def perm(self, images) -> "Permutation":
        images = tuple(images)
        if len(images) != self.size:
            raise WrongLength(f"expected {self.size} images, got {len(images)}")
        seen = [False] * self.size
        for x in images:
            if not isinstance(x, int) or not 0 <= x < self.size:
                raise NotABijection(f"image {x!r} is not a point")
            if seen[x]:
                raise NotABijection(f"point {self.point_name(x)} repeated")
            seen[x] = True
        return Permutation(images)

    def from_cycles(self, text: str) -> "Permutation":
        cycles = _parse_cycle_text(text)
        images = list(identity_images(self.size))
        used: set[int] = set()
        for cycle in cycles:
            pts = []
            for token in cycle:
                if token == "inf":
                    pt = self.infinity
                else:
                    pt = int(token)
                    if not 0 <= pt < self.size - 1:
                        raise UnknownPoint(f"point {token} not on this line")
                pts.append(pt)
            for pt in pts:
                if pt in used:
                    raise OverlappingCycles(f"point {self.point_name(pt)} in two cycles")
                used.add(pt)
            for cur, nxt in zip(pts, pts[1:] + pts[:1]):
                images[cur] = nxt
        return Permutation(tuple(images))

    # -- the standard maps --

    def translation(self, a: int) -> "Permutation":
        f = self.field
        images = [f.add(z, a) for z in f.elements()]
        images.append(self.infinity)
        return Permutation(tuple(images))

    def scaling(self, a: int) -> "Permutation":
        f = self.field
        if a % f.order == 0:
            raise ZeroScaling("scaling factor must be a unit")
        images = [f.mul(a, z) for z in f.elements()]
        images.append(self.infinity)
        return Permutation(tuple(images))

    def moebius(self, a: int, b: int, c: int, d: int) -> "Permutation":
        """The determinant-one map z -> (az+b)/(cz+d)."""
        f = self.field
        det = f.sub(f.mul(a, d), f.mul(b, c))
        if det != 1:
            raise NonUnitDeterminant(f"determinant is {det}, not 1")
        images = []
        for z in f.elements():
            den = f.add(f.mul(c, z), d)
            images.append(self.infinity if den == 0 else f.div(f.add(f.mul(a, z), b), den))
        images.append(self.infinity if c == 0 else f.div(a, c))
        return Permutation(tuple(images))

    def neg_reciprocal(self) -> "Permutation":
        """The involution z -> -1/z."""
        return self.moebius(0, self.field.neg(1), 1, 0)


class Permutation:
    """A bijection of the points 0..n-1, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        self.images = images

    def __call__(self, pt: int) -> int:
        return self.images[pt]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self.images) != len(other.images):
            raise DomainMismatch("permutations of different degrees")
        return Permutation(compose_images(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(invert_images(self.images))

    def is_identity(self) -> bool:
        return self.images == identity_images(len(self.images))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest member, ordered
        by smallest member."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                continue
            cycle = [start]
            seen[start] = True
            cur = self.images[start]
            while cur != start:
                seen[cur] = True
                cycle.append(cur)
                cur = self.images[cur]
            out.append(tuple(cycle))
        return tuple(out)

    def fixed_points(self) -> frozenset[int]:
        points = range(len(self.images))
        return frozenset(compress(points, map(eq, self.images, points)))

    def order(self) -> int:
        """The lcm of the cycle lengths, counted in one walk over the images."""
        images = self.images
        seen = bytearray(len(images))
        order = 1
        for start in range(len(images)):
            if seen[start]:
                continue
            length = 0
            cur = start
            while not seen[cur]:
                seen[cur] = 1
                cur = images[cur]
                length += 1
            order = math.lcm(order, length)
        return order

    def cycle_notation(self) -> str:
        """Each nontrivial cycle's point names joined in one walk, smallest
        start first, as ``cycles`` orders them."""
        images = self.images
        names = point_names(len(images))
        seen = bytearray(len(images))
        parts = []
        for start, cur in enumerate(images):
            if seen[start] or cur == start:
                continue
            cycle = [names[start]]
            while cur != start:
                seen[cur] = 1
                cycle.append(names[cur])
                cur = images[cur]
            parts.append("(" + " ".join(cycle) + ")")
        return "".join(parts) or "()"

    def __str__(self):
        return self.cycle_notation()

    def __repr__(self):
        return f"Permutation({self.cycle_notation()})"


_CYCLE_TOKEN_RE = re.compile(r"\(|\)|inf|\d+|\S")


def _parse_cycle_text(text: str) -> list[list[str]]:
    cycles: list[list[str]] = []
    current: list[str] | None = None
    for match in _CYCLE_TOKEN_RE.finditer(text):
        token = match.group()
        if token == "(":
            if current is not None:
                raise ParseError("nested '('")
            current = []
        elif token == ")":
            if current is None:
                raise ParseError("')' without '('")
            if current:
                cycles.append(current)
            current = None
        elif token == "inf" or token.isdigit():
            if current is None:
                raise ParseError(f"point {token!r} outside parentheses")
            current.append(token)
        else:
            raise ParseError(f"unexpected character {token!r}")
    if current is not None:
        raise ParseError("unclosed '('")
    return cycles

