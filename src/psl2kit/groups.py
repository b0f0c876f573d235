"""Finite permutation groups via a deterministic stabilizer chain.

A PermGroup keeps a base and strong generating set built by a non-randomized
Schreier-Sims pass over its generators (callers pass a few generators, never
an element list).  A group is generators on n points, n the length of their
image tuples, and point n-1 is named inf.  The base opens at 0 and then inf,
the points Frobenius' argument stabilizes, or at ``base_prefix`` if given,
and then takes the smallest moved points encountered; every Schreier
generator is sifted until the chain is closed, and each strong generator's
inverse is computed once.  Orbits grow in place: a new strong generator
appends the points it reaches to the transversals and leaves every existing
entry as it was, so an element that sifted once keeps sifting, and each
(orbit point, generator) pair is tested only once.  That makes orders,
membership tests, element enumerations and everything downstream
reproducible run to run.

Transitivity is read off the closed chain rather than recomputed: level 0
records the orbit of the first base point under G, and level 1 the orbit of
the second under that point's stabilizer (Seress, *Permutation Group
Algorithms*, 2003, section 4.1).  ``point_stabilizer`` builds a separate
group and is kept for callers that need that subgroup itself.

``rebased`` gives a chain of the same group whose base starts with a given
prefix, so the pointwise stabilizer of those points is a chain level: its
strong generators, order and elements (``stabilizer_generators``,
``stabilizer_order``, ``stabilizer_images``) come without enumerating the
group.  For a prefix of the group's own base that chain is the group.

Enumeration-backed queries (elements, point stabilizers, conjugacy classes,
Sylow counting) refuse to run past
``fields.DEFAULT_ENUMERATION_CAP`` rather than degrade;
``conjugacy_class_of`` stops its search once the class outgrows the cap.
A chain itself is bounded by its degree: ``fields.MAX_DEGREE`` is checked
before any chain is built, since a chain's memory grows as the square of
its degree.  No caller can set another cap.

Simplicity is enumeration-backed only when two chain tests leave it open.
``derived_subgroup``, the normal closure of the generators' commutators,
refutes it when it is proper and nontrivial.  For a perfect group, Iwasawa's
criterion (Proc. Imp. Acad. Tokyo 17, 1941) proves it from the chain and one
more normal closure: G is 2-transitive, the translations by the additive
basis of GF(n-1) form an abelian normal subgroup of the stabilizer of inf,
and their normal closure is G.  So PSL(2,q) is proved simple for q > 3 at
any order the chain reaches, and refuted for q = 2 and 3 and for the two
order-168 groups with a normal subgroup of order 8 (derived subgroups of
order 3, 4 and 56).  Any other group, such as an abelian one, a perfect one
without those translations, or one whose n-1 is not a prime power, falls
back to the normal closure of each conjugacy class, under the cap.

Conjugation on image tuples is one routine, ``_conjugate`` with the pair
``_conjugator`` builds: conjugacy classes, normal closures, normality and
the conjugates of a subgroup (``conjugation_action``, which finds the Sylow
subgroups) run through it and build no ``Permutation`` per product.
Products of image tuples go through ``projline.compose_images``, a single
C-level gather; the right half of a conjugation and ``stabilizer_images``
reuse one stored gather across many elements.

``orbit`` is the one breadth-first search over generators: product closures
(the orbit of the identity), point orbits and conjugacy classes all run
through it.  The chain does not: its orbits resume from earlier state and
record transversals, and ``closure_images`` must stay independent of it.

A chain built with ``order_limit`` gives up as soon as it proves the group
larger: while the chain is partial, each level's orbit under the generators
placed so far lies inside that level's true orbit, so the product of the
orbit lengths is a lower bound on the order.  Checking it after every orbit
growth raises ``OrderLimitExceeded`` exactly when the order exceeds the limit.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import itemgetter

from .fields import (
    DEFAULT_ENUMERATION_CAP, MAX_DEGREE, check_cap, distinct_prime_factors, field_of_order
)
from .projline import (
    DomainMismatch,
    Permutation,
    ProjLine,
    compose_images,
    identity_images,
    invert_images,
)


class SeedNotInGroup(ValueError):
    pass


class PrimeDoesNotDivideOrder(ValueError):
    pass


class SylowGrowthFails(RuntimeError):
    pass


class OrderLimitExceeded(Exception):
    """A chain built with ``order_limit`` proved its group larger than that."""


def orbit(seeds, gens, act, limit: int | None = None) -> frozenset | None:
    """Everything reachable from ``seeds`` by ``act(x, g)``, g in ``gens``.

    Breadth-first; returns None as soon as more than ``limit`` items are seen.
    """
    seen = set(seeds)
    if limit is not None and len(seen) > limit:
        return None
    queue = list(seen)
    for x in queue:
        for g in gens:
            y = act(x, g)
            if y not in seen:
                seen.add(y)
                if limit is not None and len(seen) > limit:
                    return None
                queue.append(y)
    return frozenset(seen)


def closure_images(gens, limit: int | None = None) -> frozenset[tuple[int, ...]] | None:
    """Exhaustive product closure of image tuples: the orbit of the identity
    under right multiplication by the generators.

    Returns the full element set, or None as soon as it outgrows ``limit``.
    Independent of the stabilizer chain; used as its order oracle and by the
    classification search.
    """
    gens = list(dict.fromkeys(gens))
    if not gens:
        raise ValueError("need at least one generator")
    return orbit([identity_images(len(gens[0]))], gens, compose_images, limit)


def _conjugator(g: tuple[int, ...], g_inv: tuple[int, ...]):
    """The pair ``_conjugate`` needs for g * x * g^-1."""
    return g, itemgetter(*g_inv)


def _conjugate(x: tuple[int, ...], conjugator) -> tuple[int, ...]:
    # g * x * g^-1: x * g^-1 by the stored itemgetter, then g on the left
    g, right_inv = conjugator
    return compose_images(g, right_inv(x))


class _Level:
    __slots__ = ("point", "gens", "transversal", "tested")

    def __init__(self, point: int, ident: tuple[int, ...]):
        self.point = point
        self.gens: list[tuple[int, ...]] = []
        # orbit point -> (u, u_inv) with u(base point) = orbit point; entries
        # are only ever added, in discovery order
        self.transversal: dict[int, tuple[tuple[int, ...], tuple[int, ...]]] = {
            point: (ident, ident)
        }
        # strong generator -> how many leading orbit points its Schreier
        # generators have been sifted for
        self.tested: dict[tuple[int, ...], int] = {}


ConjugacyClass = namedtuple("ConjugacyClass", "representative size")


class PermGroup:
    """Permutation group on the points 0..n-1, n its generators' degree,
    queried through its chain.

    The chain is built from ``generators`` by Schreier-Sims with in-place
    orbit extension; see the module docstring.  With ``order_limit`` set,
    construction raises OrderLimitExceeded if the order would exceed it.
    """

    def __init__(
        self,
        generators,
        *,
        base_prefix: tuple[int, ...] | None = None,
        order_limit: int | None = None,
    ):
        generators = list(generators)
        if not generators:
            raise ValueError("need at least one generator")
        self.degree: int = len(generators[0].images)
        check_cap("degree", self.degree, "degree cap", MAX_DEGREE)
        for g in generators[1:]:
            if len(g.images) != self.degree:
                raise DomainMismatch("generators of different degrees")
        self._order_limit = order_limit
        self._ident = identity_images(self.degree)
        self._inverses: dict[tuple[int, ...], tuple[int, ...]] = {}
        if base_prefix is None:
            base_prefix = (0, self.degree - 1)
        # a repeated base point, or one the group fixes, opens a level with a
        # one-point orbit
        self._levels = [_Level(pt, self._ident) for pt in dict.fromkeys(base_prefix)]
        self.generators: tuple[Permutation, ...] = ()
        self._extend(g.images for g in generators)

    # -- chain construction --

    def _extend(self, images) -> tuple[tuple[int, ...], ...]:
        """Add generators, given as image tuples, and re-close the chain;
        returns the new ones."""
        known = {g.images for g in self.generators}
        fresh = tuple(img for img in dict.fromkeys(images) if img not in known)
        self.generators += tuple(Permutation(img) for img in fresh)
        for img in fresh:
            self._insert(img, 0)
        self._close_chain()
        self._element_cache: tuple[tuple[int, ...], ...] | None = None
        return fresh

    def _inverse(self, img: tuple[int, ...]) -> tuple[int, ...]:
        inv = self._inverses.get(img)
        if inv is None:
            inv = self._inverses[img] = invert_images(img)
        return inv

    def _insert(self, img: tuple[int, ...], start: int) -> None:
        """Make img a strong generator at the first level from ``start`` on
        whose base point it moves, opening a new level if it moves none."""
        if img == self._ident:
            return
        for idx in range(start, len(self._levels)):
            if img[self._levels[idx].point] != self._levels[idx].point:
                break
        else:
            moved = min(i for i, j in enumerate(img) if i != j)
            self._levels.append(_Level(moved, self._ident))
            idx = len(self._levels) - 1
        self._levels[idx].gens.append(img)
        self._extend_orbit(idx)

    def _extend_orbit(self, idx: int) -> None:
        """Append the points the level's generators newly reach; raises
        OrderLimitExceeded once the order's lower bound passes the limit."""
        gens = self.stabilizer_generators(idx)
        trans = self._levels[idx].transversal
        queue = list(trans)
        known = len(queue)
        for x in queue:
            ux, ux_inv = trans[x]
            for g in gens:
                y = g[x]
                if y not in trans:
                    trans[y] = (compose_images(g, ux), compose_images(ux_inv, self._inverse(g)))
                    queue.append(y)
        limit = self._order_limit
        if limit is not None and len(queue) > known and self.order() > limit:
            raise OrderLimitExceeded(f"order exceeds {limit}")

    def _sift_images(self, img: tuple[int, ...], start: int = 0) -> tuple[int, ...]:
        """Reduce img through the chain from level ``start``; returns the residue."""
        for level in self._levels[start:]:
            x = img[level.point]
            if x == level.point:
                continue
            entry = level.transversal.get(x)
            if entry is None:
                return img
            img = compose_images(entry[1], img)
        return img

    def _close_level(self, idx: int) -> bool:
        self._extend_orbit(idx)
        level = self._levels[idx]
        trans = level.transversal
        points = list(trans)
        changed = False
        for g in self.stabilizer_generators(idx):
            for x in points[level.tested.get(g, 0):]:
                schreier = compose_images(trans[g[x]][1], compose_images(g, trans[x][0]))
                if schreier == self._ident:
                    continue
                residue = self._sift_images(schreier, idx + 1)
                if residue != self._ident:
                    self._insert(residue, idx + 1)
                    changed = True
            level.tested[g] = len(points)
        return changed

    def _close_chain(self) -> None:
        i = len(self._levels) - 1
        while i >= 0:
            if self._close_level(i):
                i = len(self._levels) - 1
            else:
                i -= 1

    # -- basic queries --

    @cached_property
    def line(self) -> ProjLine:
        """The projective line over GF(n-1) with the default modulus; raises
        NotPrime when n-1 is not a prime power.  Its translations and point
        names depend only on n, so they are this group's for any modulus."""
        return ProjLine(field_of_order(self.degree - 1))

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.point for level in self._levels)

    def order(self) -> int:
        return self.stabilizer_order(0)

    def contains(self, perm: Permutation) -> bool:
        if len(perm.images) != self.degree:
            raise DomainMismatch("permutation of a different degree")
        return self._sift_images(perm.images) == self._ident

    def element_images(self) -> tuple[tuple[int, ...], ...]:
        """All elements as image tuples, in canonical (sorted) order: the
        stabilizer below level 0, sorted."""
        check_cap("order", self.order(), "enumeration cap", DEFAULT_ENUMERATION_CAP)
        if self._element_cache is None:
            self._element_cache = tuple(sorted(self.stabilizer_images(0)))
        return self._element_cache

    def elements(self) -> tuple[Permutation, ...]:
        """All elements, canonically sorted by image sequence."""
        return tuple(Permutation(img) for img in self.element_images())

    def element_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.element_images())

    # -- chain levels --

    def rebased(self, prefix: tuple[int, ...]) -> "PermGroup":
        """A chain of this group whose base starts with ``prefix``, so that
        its levels from i on generate the pointwise stabilizer of
        ``prefix[:i]``.  That is this group itself when its base already
        starts with ``prefix``, and otherwise a new chain built with
        ``base_prefix``."""
        prefix = tuple(prefix)
        if self.base[: len(prefix)] == prefix:
            return self
        return PermGroup(self.generators, base_prefix=prefix)

    def stabilizer_generators(self, level: int) -> list[tuple[int, ...]]:
        """The strong generators from ``level`` on: they generate the
        pointwise stabilizer of the base points before that level."""
        return [g for lvl in self._levels[level:] for g in lvl.gens]

    def stabilizer_order(self, level: int) -> int:
        """The order of the pointwise stabilizer of the base points before
        ``level``: the product of the basic orbit lengths from there on."""
        n = 1
        for lvl in self._levels[level:]:
            n *= len(lvl.transversal)
        return n

    def stabilizer_images(self, level: int) -> list[tuple[int, ...]]:
        """The pointwise stabilizer of the base points before ``level``, as
        image tuples in chain order; refused past the enumeration cap.

        Enumerated from the chain bottom up: if H is the stabilizer below a
        level and u_x its transversal entries, the products e * u_x^-1 over
        e in H cover the level's stabilizer exactly once (one right coset
        H u_x^-1 per orbit point).  Each u_x^-1 is applied to all of H by
        one ``itemgetter``.
        """
        check_cap("order", self.stabilizer_order(level), "enumeration cap", DEFAULT_ENUMERATION_CAP)
        elems = [self._ident]
        for lvl in reversed(self._levels[level:]):
            below, elems = elems, []
            for _, u_inv in lvl.transversal.values():
                elems += map(itemgetter(*u_inv), below)
        return elems

    def transversal_entry(self, level: int, point: int) -> tuple[int, ...] | None:
        """An element of the stabilizer below ``level`` that maps the level's
        base point to ``point``, or None if none does."""
        entry = self._levels[level].transversal.get(point)
        return None if entry is None else entry[0]

    # -- orbits and transitivity --

    def orbit(self, point: int) -> frozenset[int]:
        return orbit([point], [g.images for g in self.generators], lambda x, g: g[x])

    def _basic_orbit_length(self, idx: int) -> int:
        """Length of the orbit recorded at chain level ``idx``; a level the
        chain does not have is the trivial group's orbit, of length 1."""
        return len(self._levels[idx].transversal) if idx < len(self._levels) else 1

    def is_transitive(self) -> bool:
        """Read off the closed chain: its strong generators from level i on
        generate the pointwise stabilizer of the base points before level i,
        so level 0 records the orbit of the first base point under G."""
        return self._basic_orbit_length(0) == self.degree

    def is_doubly_transitive(self) -> bool:
        """Transitive, and the stabilizer of the first base point, which
        level 1 of the closed chain generates, is transitive on the other
        degree - 1 points."""
        return self.is_transitive() and self._basic_orbit_length(1) == self.degree - 1

    # -- derived subgroups --

    def point_stabilizer(self, point: int) -> "PermGroup":
        gens = self.rebased((point,)).stabilizer_generators(1)
        return PermGroup(map(Permutation, gens or [self._ident]))

    # -- conjugacy and normality --

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        seen: set[tuple[int, ...]] = set()
        classes = []
        for e in self.element_images():
            if e in seen:
                continue
            members = self._conjugates(e)
            seen.update(members)
            classes.append(ConjugacyClass(Permutation(e), len(members)))
        return tuple(classes)

    def conjugacy_class_of(self, perm: Permutation) -> frozenset[tuple[int, ...]]:
        """The class of ``perm`` as image tuples.  A class larger than the
        enumeration cap raises ``CapExceeded`` as soon as the search has
        seen cap + 1 members, so the size the message names is a lower bound."""
        if not self.contains(perm):
            raise SeedNotInGroup(f"{perm} is not in the group")
        return self._conjugates(perm.images)

    def _conjugators(self) -> list:
        """Per generator g, the pair that ``_conjugate`` needs for g * x * g^-1."""
        return [_conjugator(g.images, self._inverse(g.images)) for g in self.generators]

    def _conjugates(self, img: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
        cap = DEFAULT_ENUMERATION_CAP
        members = orbit([img], self._conjugators(), _conjugate, cap)
        if members is None:
            check_cap("conjugacy class size", cap + 1, "enumeration cap", cap)
        return members

    def conjugation_action(
        self, subgroup
    ) -> tuple[tuple[frozenset[tuple[int, ...]], ...], list[tuple[int, ...]]]:
        """The conjugates of ``subgroup``, a set of image tuples, ordered by
        their sorted elements, and for each generator g the permutation of
        their indices that H -> g * H * g^-1 induces.

        The conjugates are the orbit of ``subgroup`` under conjugation by
        the generators, so none is found by scanning the group."""
        conjugators = self._conjugators()
        gens = range(len(conjugators))
        moves = {}

        def act(s, i):
            moves[s, i] = t = frozenset(_conjugate(x, conjugators[i]) for x in s)
            return t

        found = sorted(orbit([frozenset(subgroup)], gens, act), key=sorted)
        index = {s: k for k, s in enumerate(found)}
        return tuple(found), [tuple(index[moves[s, i]] for s in found) for i in gens]

    def normal_closure(self, seeds) -> "PermGroup":
        """Smallest normal subgroup containing the seeds: one chain, grown
        by the conjugates of each round's new generators until closed."""
        seeds = list(seeds)
        for s in seeds:
            if not self.contains(s):
                raise SeedNotInGroup(f"{s} is not in the group")
        closure_gens = [s for s in dict.fromkeys(seeds) if not s.is_identity()]
        group = PermGroup(closure_gens or [Permutation(self._ident)])
        conjugators = self._conjugators()
        frontier = tuple(g.images for g in group.generators)
        while frontier:
            new = []
            for c in conjugators:
                for s in frontier:
                    t = _conjugate(s, c)
                    if group._sift_images(t) != group._ident:
                        new.append(t)
            frontier = group._extend(new)
        return group

    def is_normal(self, subgroup: "PermGroup") -> bool:
        for h in subgroup.generators:
            if not self.contains(h):
                raise SeedNotInGroup("subgroup is not contained in the group")
        return all(
            subgroup._sift_images(_conjugate(h.images, c)) == subgroup._ident
            for c in self._conjugators()
            for h in subgroup.generators
        )

    def derived_subgroup(self) -> "PermGroup":
        """The normal closure of the commutators [a, b] = a^-1 b^-1 a b of
        the generator pairs: the generators commute modulo it, so the
        quotient is abelian and the closure is the derived subgroup."""
        gens = [g.images for g in self.generators]
        commutators = [
            # (b a)^-1 (a b)
            compose_images(invert_images(compose_images(b, a)), compose_images(a, b))
            for i, a in enumerate(gens)
            for b in gens[i + 1 :]
        ]
        return self.normal_closure(Permutation(c) for c in commutators)

    def is_simple(self) -> bool:
        """Refuted by a proper, nontrivial derived subgroup; proved by
        Iwasawa's criterion (``_iwasawa_holds``) for a perfect group; and
        otherwise decided by the normal closure of every conjugacy class,
        which enumerates the group and so keeps the enumeration cap."""
        n = self.order()
        if n <= 1:
            return False
        derived = self.derived_subgroup().order()
        if 1 < derived < n:
            return False
        if derived == n and self._iwasawa_holds():
            return True
        for cls in self.conjugacy_classes():
            if cls.representative.is_identity():
                continue
            if self.normal_closure([cls.representative]).order() != n:
                return False
        return True

    def _iwasawa_holds(self) -> bool:
        """The conditions of Iwasawa's criterion (Proc. Imp. Acad. Tokyo 17,
        1941) besides perfectness, with the stabilizer of inf as the point
        stabilizer and T, the translations by the additive basis, as its
        abelian normal subgroup:

        - n-1 is a prime power, so the translations exist;
        - the chain opens at (0, inf) and G is 2-transitive, so primitive;
        - T lies in G and is abelian;
        - the strong generators of G_(0,inf) conjugate T into itself.  T is
          transitive on the finite points, so G_inf = T G_(0,inf) and T is
          normal in G_inf;
        - the normal closure of T is G.

        A perfect group for which all of them hold is simple.
        """
        if len(distinct_prime_factors(self.degree - 1)) != 1:
            return False
        if self.base[:2] != (0, self.degree - 1) or not self.is_doubly_transitive():
            return False
        line = self.line
        field = line.field
        translations = [line.translation(field.p**i) for i in range(field.degree)]
        if not all(self.contains(t) for t in translations):
            return False
        shifts = [t.images for t in translations]
        if any(compose_images(a, b) != compose_images(b, a) for a in shifts for b in shifts):
            return False
        abelian = PermGroup(translations)
        for h in self.stabilizer_generators(2):
            c = _conjugator(h, self._inverse(h))
            if any(abelian._sift_images(_conjugate(t, c)) != abelian._ident for t in shifts):
                return False
        return self.normal_closure(translations).order() == self.order()

    # -- Sylow counting --

    def sylow_subgroups(self, ell: int) -> tuple[frozenset[Permutation], ...]:
        """The Sylow ell-subgroups as element sets, canonically ordered."""
        n = self.order()
        if n % ell:
            raise PrimeDoesNotDivideOrder(f"{ell} does not divide {n}")
        target = 1
        while n % (target * ell) == 0:
            target *= ell
        elems = self.element_images()
        # Sylow's theorem: every Sylow subgroup is conjugate to the grown one
        found, _ = self.conjugation_action(self._grow_sylow(ell, target, elems))
        return tuple(frozenset(Permutation(img) for img in s) for s in found)

    def _grow_sylow(self, ell, target, elems):
        seed = None
        for e in elems:
            if Permutation(e).order() == ell:
                seed = e
                break
        if seed is None:
            raise SylowGrowthFails(f"no element of order {ell} to start from")
        gens = [seed]
        current = closure_images(gens)
        while len(current) < target:
            normalizer = []
            for g in elems:
                c = _conjugator(g, invert_images(g))
                if all(_conjugate(x, c) in current for x in gens):
                    normalizer.append(g)
            for y in normalizer:
                if y in current:
                    continue
                grown = closure_images(gens + [y], limit=target)
                # the divisors of the ell-power target are the powers of ell
                if grown is not None and target % len(grown) == 0:
                    gens.append(y)
                    current = grown
                    break
            else:
                raise SylowGrowthFails("Sylow growth stalled")  # unreachable
        return frozenset(current)

    def sylow_count(self, ell: int) -> int:
        return len(self.sylow_subgroups(ell))
