"""Finite permutation groups via a deterministic stabilizer chain.

A PermGroup keeps a base and strong generating set built by a non-randomized
Schreier-Sims pass over its generators (callers pass a few generators, never
an element list).  A group is generators on n points, n the length of their
image tuples, and point n-1 is named inf.  The base opens at 0 and then inf,
the points Frobenius' argument stabilizes, or at ``base_prefix`` if given,
and then takes the smallest moved points encountered; every Schreier
generator is sifted until the chain is closed, or until its order reaches a
proven bound (known-order termination, below), and each strong generator's
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
group; no package module calls it, only the tests and the benchmark tracer.

``rebased`` gives a chain of the same group whose base starts with a given
prefix, so the pointwise stabilizer of those points is a chain level: its
strong generators, order and elements (``stabilizer_generators``,
``stabilizer_order``, ``stabilizer_images``) come without enumerating the
group.  For a prefix of the group's own base that chain is the group.

Enumeration-backed queries (elements, ``stabilizer_images``, conjugacy
classes, Sylow counting) refuse to run past
``fields.DEFAULT_ENUMERATION_CAP`` rather than degrade;
``conjugacy_class_of`` stops its search once the class outgrows the cap.
A chain itself is bounded by its degree: ``fields.MAX_DEGREE`` is checked
before any chain is built, since a chain's memory grows as the square of
its degree.  No caller can set another cap.

Simplicity is enumeration-backed only when two chain tests leave it open.
``derived_subgroup``, the normal closure of the generators' commutators,
refutes it when it is proper and nontrivial.  For a perfect group, Iwasawa's
criterion (Proc. Imp. Acad. Tokyo 17, 1941) proves it from G's chain alone:
G is 2-transitive, the translations T by the additive basis of GF(n-1) are
abelian and normal in the stabilizer of inf, which is read off each
conjugate's map with no chain for T, and the stabilizer of 0 and inf is
abelian, so the normal closure of T holds G' = G.  So the chains of G and
G' alone prove PSL(2,q) simple for q > 3 at any order the chain reaches, and
refute it for q = 2 and 3 and for the two order-168 groups with a normal
subgroup of order 8 (derived subgroups of order 3, 4 and 56).  A group
that is not perfect is simple only when it is abelian of prime order, which
its order decides.  Any other perfect group, one without those translations
or whose n-1 is not a prime power, falls back to the normal closure of each
conjugacy class, under the cap.

Conjugation on image tuples is one routine, ``_conjugate`` with the pair
``_conjugator`` builds: conjugacy classes, normal closures, normality, the
conjugates of a Sylow subgroup that ``sylow_subgroups`` ends with, and
``conjugation_orbit``, the corollary's orbit of z+1 (``verify.sylow_orbit``)
run through it.  Every permutation is its image tuple, and products go
through ``projline.compose_images``, a single C-level gather; the right
half of a conjugation and ``stabilizer_images`` reuse one stored gather
across many elements.

``orbit`` is the one breadth-first search over generators: product closures
(the orbit of the identity), point orbits and conjugacy classes all run
through it.  The chain does not: its orbits resume from earlier state and
record transversals, and ``closure_images`` must stay independent of it.

Known-order termination (Seress, section 4.5): ``PermGroup(gens, order=N)``
takes a proven upper bound N on |G| and stops building the chain once the
product of its orbit lengths reaches N.  The stop is exact.  At every
moment of the build, level i's transversal entries fix the earlier base
points and map the level's base point to distinct orbit points, so the
products u_1 * u_2 * ... * u_k, one entry per level, are distinct elements
of G (u_1 alone decides the image of the first base point, and so on down):
a partial chain's orbit product is at most |G|.  At equality with N >= |G|
these products are all of G, so every element of G sifts to 1 and every
level generates its full stabilizer: the chain is complete.  Every Schreier
generator the full build would still test sifts to 1 and inserts nothing,
and no orbit can grow.  Generators given after that point are still
inserted, as the full build inserts them, and only the closing is skipped.
So the stopped chain has the full build's base, strong generators and
transversals, and every query answers as it would.  An orbit product above
N refutes the bound and raises ``OrderBoundExceeded``.  The bound is
checked where orbits grow, ``_extend_orbit``, since closing a level
re-extends its orbit as well as inserting a generator does.  A group that
never reaches N is built in full; an N that is not proven can stop an
incomplete chain, so each caller states its proof beside the call.  A
normal closure lies in its group, whose chain is complete, so it takes
that group's order as its bound: the derived subgroup of a perfect group
stops as soon as it reaches the group.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import itemgetter

from .fields import (
    DEFAULT_ENUMERATION_CAP, MAX_DEGREE, check_cap, distinct_prime_factors, field_of_order,
    is_prime,
)
from .projline import (
    DomainMismatch,
    NotABijection,
    ProjLine,
    compose_images,
    cycle_notation,
    identity_images,
    invert_images,
)


class SeedNotInGroup(ValueError):
    pass


class OrderBoundExceeded(RuntimeError):
    """A chain's orbit product passed the order bound its caller proved."""


class _ChainComplete(Exception):
    """Raised inside a build once the orbit product equals the proven bound."""


class PrimeDoesNotDivideOrder(ValueError):
    pass


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


def closure_images(gens, limit: int | None = None) -> frozenset | None:
    """Exhaustive product closure of permutations: the orbit of the identity
    under multiplication by the generators.

    Returns the full element set, or None as soon as it outgrows ``limit``.
    Independent of the stabilizer chain; used as its order oracle and by the
    classification search.

    The generators are image tuples or ``bytes``, and the elements come
    back in the first generator's type.  Up to 256 points each element is a
    ``bytes`` while the orbit grows, and ``x.translate(table)`` multiplies
    it on the left by a generator, whose 256-byte table is its images
    padded with the fixed points up to 255; for tuple generators the
    elements become image tuples once, on return.  Past 256 points they
    stay image tuples throughout.
    """
    gens = list(dict.fromkeys(gens))
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    if n > 256:
        return orbit([identity_images(n)], gens, compose_images, limit)
    pad = bytes(range(n, 256))
    tables = [bytes(g) + pad for g in gens]
    closure = orbit([bytes(range(n))], tables, bytes.translate, limit)
    if closure is None or isinstance(gens[0], bytes):
        return closure
    return frozenset(map(tuple, closure))


def _conjugator(g: tuple[int, ...], g_inv: tuple[int, ...]):
    """The pair ``_conjugate`` needs for g * x * g^-1."""
    return g, itemgetter(*g_inv)


def _conjugate(x: tuple[int, ...], conjugator) -> tuple[int, ...]:
    # g * x * g^-1: x * g^-1 by the stored itemgetter, then g on the left
    g, right_inv = conjugator
    return compose_images(g, right_inv(x))


def _commute(gens: list[tuple[int, ...]]) -> bool:
    """Whether the image tuples commute pairwise."""
    return all(
        compose_images(a, b) == compose_images(b, a) for i, a in enumerate(gens) for b in gens[i + 1 :]
    )


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

    The chain is built from ``generators``, image tuples or ``bytes``, each
    kept as an image tuple and checked once to be a bijection of n >= 1
    points, by Schreier-Sims with in-place orbit extension; see the module
    docstring.  ``order``, when given, must be a proven upper bound on the
    group's order: the build stops once the orbit product reaches it
    (known-order termination, module docstring).
    """

    def __init__(
        self, generators, *, base_prefix: tuple[int, ...] | None = None, order: int | None = None
    ):
        generators = [tuple(g) for g in generators]  # image tuples or bytes
        if not generators:
            raise ValueError("need at least one generator")
        self.degree: int = len(generators[0])
        check_cap("degree", self.degree, "degree cap", MAX_DEGREE)
        self._ident = identity_images(self.degree)
        for g in generators:
            if len(g) != self.degree:
                raise DomainMismatch("generators of different degrees")
            # n images that reach all n points are a bijection
            if not self.degree or not set(g).issuperset(self._ident):
                raise NotABijection(f"a generator is not a permutation of n >= 1 points, n = {self.degree}")
        self._inverses: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._order_bound = order
        if base_prefix is None:
            base_prefix = (0, self.degree - 1)
        # a repeated base point, or one the group fixes, opens a level with a
        # one-point orbit
        self._levels = [_Level(pt, self._ident) for pt in dict.fromkeys(base_prefix)]
        self.generators: tuple[tuple[int, ...], ...] = ()
        self._extend(generators)

    # -- chain construction --

    def _extend(self, images) -> tuple[tuple[int, ...], ...]:
        """Add generators and re-close the chain; returns the new ones.
        Every new generator is inserted, as a full build would; a chain at
        its order bound is complete, so closing it would change nothing."""
        known = set(self.generators)
        fresh = tuple(img for img in dict.fromkeys(images) if img not in known)
        self.generators += fresh
        complete = self.order() == self._order_bound
        for img in fresh:
            try:
                self._insert(img, 0)
            except _ChainComplete:
                complete = True
        if not complete:
            try:
                self._close_chain()
            except _ChainComplete:
                pass
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
        """Append the points the level's generators newly reach, then hold
        the orbit product against the order bound, if any: at the bound
        the chain is complete and the build stops."""
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
        bound = self._order_bound
        # the orbit product changes only where an orbit grows
        if bound is not None and len(queue) > known:
            reached = self.order()
            if reached > bound:
                raise OrderBoundExceeded(f"orbit product {reached} exceeds the proven order {bound}")
            if reached == bound:
                raise _ChainComplete

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

    def contains(self, perm: tuple[int, ...]) -> bool:
        if len(perm) != self.degree:
            raise DomainMismatch("permutation of a different degree")
        return self._sift_images(perm) == self._ident

    def element_images(self) -> tuple[tuple[int, ...], ...]:
        """All elements as image tuples, in canonical (sorted) order: the
        stabilizer below level 0, sorted."""
        return tuple(sorted(self.stabilizer_images(0)))

    # the benchmark tracer wraps ``elements`` by name
    elements = element_images

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
        # the same generators, so the same group, and this chain is complete
        return PermGroup(self.generators, base_prefix=prefix, order=self.order())

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

    # -- transitivity --

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
        return PermGroup(gens or [self._ident])

    # -- conjugacy and normality --

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        seen: set[tuple[int, ...]] = set()
        classes = []
        for e in self.element_images():
            if e in seen:
                continue
            members = self._conjugates(e)
            seen.update(members)
            classes.append(ConjugacyClass(e, len(members)))
        return tuple(classes)

    def conjugacy_class_of(self, perm: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
        """The class of ``perm``.  A class larger than the
        enumeration cap raises ``CapExceeded`` as soon as the search has
        seen cap + 1 members, so the size the message names is a lower bound."""
        if not self.contains(perm):
            raise SeedNotInGroup(f"{cycle_notation(perm)} is not in the group")
        return self._conjugates(perm)

    def _conjugators(self) -> list:
        """Per generator g, the pair that ``_conjugate`` needs for g * x * g^-1."""
        return [_conjugator(g, self._inverse(g)) for g in self.generators]

    def _conjugates(self, img: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
        cap = DEFAULT_ENUMERATION_CAP
        members = orbit([img], self._conjugators(), _conjugate, cap)
        if members is None:
            check_cap("conjugacy class size", cap + 1, "enumeration cap", cap)
        return members

    def conjugation_orbit(self, perm: tuple[int, ...], name) -> tuple[tuple, list[tuple]]:
        """The orbit of ``perm`` under conjugation by the generators, one
        representative per value of ``name`` (the first one met), sorted by
        name, and for each generator g the permutation of their indices that
        x -> g * x * g^-1 induces.  Only representatives are conjugated on,
        so equal names must stay equal under conjugation; names that sort
        totally, such as tuples, give a canonical order."""
        conjugators = self._conjugators()
        reps = {name(perm): perm}
        moves = {}

        def act(x, i):
            y = _conjugate(x, conjugators[i])
            moves[x, i] = key = name(y)
            return reps.setdefault(key, y)

        gens = range(len(conjugators))
        orbit([perm], gens, act)
        keys = sorted(reps)
        index = {key: k for k, key in enumerate(keys)}
        found = tuple(reps[key] for key in keys)
        return found, [tuple(index[moves[x, i]] for x in found) for i in gens]

    def normal_closure(self, seeds) -> "PermGroup":
        """Smallest normal subgroup containing the seeds: one chain, grown
        by the conjugates of each round's new generators until closed."""
        seeds = list(seeds)
        for s in seeds:
            if not self.contains(s):
                raise SeedNotInGroup(f"{cycle_notation(s)} is not in the group")
        closure_gens = [s for s in dict.fromkeys(seeds) if s != self._ident]
        # the closure lies in this group, whose chain is complete
        group = PermGroup(closure_gens or [self._ident], order=self.order())
        conjugators = self._conjugators()
        frontier = group.generators
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
            subgroup._sift_images(_conjugate(h, c)) == subgroup._ident
            for c in self._conjugators()
            for h in subgroup.generators
        )

    def derived_subgroup(self) -> "PermGroup":
        """The normal closure of the commutators [a, b] = a^-1 b^-1 a b of
        the generator pairs: the generators commute modulo it, so the
        quotient is abelian and the closure is the derived subgroup."""
        gens = self.generators
        commutators = [
            # (b a)^-1 (a b)
            compose_images(invert_images(compose_images(b, a)), compose_images(a, b))
            for i, a in enumerate(gens)
            for b in gens[i + 1 :]
        ]
        return self.normal_closure(commutators)

    def is_simple(self) -> bool:
        """A group that is not perfect is simple exactly when it is abelian
        of prime order; a perfect one is proved simple by Iwasawa's
        criterion (``_iwasawa_holds``), or else decided by the normal
        closure of every conjugacy class, which enumerates the group and so
        keeps the enumeration cap.

        No command reaches the class scan: each passes PSL(2,q) with q > 3,
        which Iwasawa's criterion decides, or a group that is not perfect.
        It stays for the library's groups off the projective line, such as
        GL(3,2) on the 7 nonzero vectors of GF(2)^3, whose n-1 is not a
        prime power, so no translations exist for the criterion."""
        n = self.order()
        if n <= 1:
            return False
        derived = self.derived_subgroup().order()
        if derived != n:
            # the primes dividing n are at most the degree, which bounds the trial division
            return derived == 1 and is_prime(n)
        if self._iwasawa_holds():
            return True
        for cls in self.conjugacy_classes():
            if cls.representative == self._ident:
                continue
            if self.normal_closure([cls.representative]).order() != n:
                return False
        return True

    def _iwasawa_holds(self) -> bool:
        """The conditions of Iwasawa's criterion (Proc. Imp. Acad. Tokyo 17,
        1941) besides perfectness, read off G's chain, with the stabilizer
        of inf as the point stabilizer and T, the translations by the
        additive basis, as its abelian normal subgroup:

        - n-1 is a prime power, so the translations exist;
        - the chain opens at (0, inf) and G is 2-transitive, so primitive;
        - T lies in G and is abelian;
        - the strong generators of G_(0,inf) conjugate T into itself.  T is
          transitive on the finite points, so G_inf = T G_(0,inf) and T is
          normal in G_inf.  T holds every translation, so a conjugate lies
          in T exactly when it fixes inf and is the translation by its
          image of 0;
        - the strong generators of G_(0,inf) commute, so it is abelian.

        The last stands in for "the normal closure N of T is G" and needs G
        perfect, so True proves a perfect group simple and says nothing of
        any other.  N is a nontrivial normal subgroup of the primitive G, so
        it is transitive, and G = N G_inf = N T G_(0,inf) = N G_(0,inf).  So
        G/N is a quotient of the abelian G_(0,inf), G' <= N, and N = G.
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
        if not _commute(translations):
            return False
        fixers = self.stabilizer_generators(2)
        for h in fixers:
            c = _conjugator(h, self._inverse(h))
            for u in (_conjugate(t, c) for t in translations):
                if u[-1] != line.infinity or u != line.translation(u[0]):
                    return False
        return _commute(fixers)

    # -- Sylow counting --

    def sylow_subgroups(self, ell: int) -> tuple[frozenset[tuple[int, ...]], ...]:
        """The Sylow ell-subgroups as element sets, canonically ordered.

        One pass over the elements grows an ell-subgroup P, taking g
        whenever <P, g> is still an ell-group; by Sylow's theorem every
        Sylow subgroup is conjugate to the P it ends with.  That P is
        Sylow, and one pass is enough, because a g refused once stays
        refused: <P, g> only grows with P.  Were the final P not Sylow, ell
        would divide [N(P) : P], so N(P) would hold an ell-element x
        outside P with <P, x> = P<x> an ell-group.  But the pass met x
        while P was some P' <= P, and <P', x> <= <P, x> is then an
        ell-group too, so the pass took x into P."""
        n = self.order()
        if n % ell:
            raise PrimeDoesNotDivideOrder(f"{ell} does not divide {n}")
        target = 1
        while n % (target * ell) == 0:
            target *= ell
        gens: list[tuple[int, ...]] = []
        current = frozenset([self._ident])
        for g in self.element_images():
            if len(current) == target:
                break
            if g in current:
                continue
            grown = closure_images(gens + [g], limit=target)
            # the divisors of the ell-power target are the powers of ell
            if grown is not None and target % len(grown) == 0:
                gens.append(g)
                current = grown
        found = orbit([current], self._conjugators(), lambda s, c: frozenset(_conjugate(x, c) for x in s))
        return tuple(sorted(found, key=sorted))

    def sylow_count(self, ell: int) -> int:
        return len(self.sylow_subgroups(ell))
