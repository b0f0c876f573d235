"""Finite permutation groups via a deterministic stabilizer chain.

A PermGroup keeps a base and strong generating set built by a
non-randomized Schreier-Sims pass over its generators (callers pass a few
generators, never an element list): base points are the smallest moved
points encountered, every Schreier generator is sifted until the chain is
closed, and each strong generator's inverse is computed once.  Orbits grow
in place: a new strong generator appends the points it reaches to the
transversals and leaves every existing entry as it was, so an element that
sifted once keeps sifting, and each (orbit point, generator) pair is tested
only once.  That makes orders, membership tests, element enumerations and
everything downstream reproducible run to run.

Enumeration-backed queries (conjugacy classes, setwise stabilizers, Sylow
counting, simplicity) refuse to run past ``enumeration_cap`` rather than
degrade; the default cap covers every group this package builds in anger.
"""

from __future__ import annotations

from dataclasses import dataclass

from .projline import (
    DomainMismatch,
    Permutation,
    ProjLine,
    compose_images,
    identity_images,
    invert_images,
)

DEFAULT_ENUMERATION_CAP = 20000


class GroupTooLargeForEnumeration(ValueError):
    pass


class SeedNotInGroup(ValueError):
    pass


class PrimeDoesNotDivideOrder(ValueError):
    pass


class SylowGrowthFails(RuntimeError):
    pass


def closure_images(gens, limit: int | None = None) -> frozenset[tuple[int, ...]] | None:
    """Exhaustive product closure of image tuples (frontier multiplication).

    Returns the full element set, or None as soon as it outgrows ``limit``.
    Independent of the stabilizer chain; used as its order oracle and by the
    classification search.
    """
    gens = list(dict.fromkeys(gens))
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    ident = identity_images(n)
    seen = {ident}
    seen.update(gens)
    if limit is not None and len(seen) > limit:
        return None
    frontier = [g for g in gens if g != ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = compose_images(x, g)
                if y not in seen:
                    seen.add(y)
                    if limit is not None and len(seen) > limit:
                        return None
                    new.append(y)
        frontier = new
    return frozenset(seen)


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


@dataclass(frozen=True)
class ConjugacyClass:
    representative: Permutation
    size: int
    members: tuple[Permutation, ...] | None  # kept when the group order is <= 5000


class PermGroup:
    """Permutation group on a projective line, queried through its chain.

    The chain is built from ``generators`` by Schreier-Sims with in-place
    orbit extension; see the module docstring.
    """

    def __init__(
        self,
        generators,
        *,
        base_prefix: tuple[int, ...] = (),
        enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    ):
        generators = list(generators)
        if not generators:
            raise ValueError("need at least one generator")
        line = generators[0].line
        for g in generators[1:]:
            if g.line != line:
                raise DomainMismatch("generators on different lines")
        self.line: ProjLine = line
        self.degree: int = line.size
        self.enumeration_cap = enumeration_cap
        self._ident = identity_images(self.degree)
        self._inverses: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._levels = [_Level(pt, self._ident) for pt in base_prefix]
        self.generators: tuple[Permutation, ...] = ()
        self._extend(generators)

    # -- chain construction --

    def _extend(self, perms) -> tuple[Permutation, ...]:
        """Add generators and re-close the chain; returns the new ones."""
        known = {g.images for g in self.generators}
        fresh = tuple(
            Permutation(self.line, img)
            for img in dict.fromkeys(g.images for g in perms)
            if img not in known
        )
        self.generators += fresh
        for g in fresh:
            self._insert(g.images, 0)
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

    def _level_gens(self, idx: int) -> list[tuple[int, ...]]:
        return [g for level in self._levels[idx:] for g in level.gens]

    def _extend_orbit(self, idx: int) -> None:
        """Append the points the level's generators newly reach."""
        gens = self._level_gens(idx)
        trans = self._levels[idx].transversal
        queue = list(trans)
        for x in queue:
            ux, ux_inv = trans[x]
            for g in gens:
                y = g[x]
                if y not in trans:
                    trans[y] = (compose_images(g, ux), compose_images(ux_inv, self._inverse(g)))
                    queue.append(y)

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
        for g in self._level_gens(idx):
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

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(level.point for level in self._levels)

    def order(self) -> int:
        n = 1
        for level in self._levels:
            n *= len(level.transversal)
        return n

    def contains(self, perm: Permutation) -> bool:
        if perm.line != self.line:
            raise DomainMismatch("permutation lives on a different line")
        return self._sift_images(perm.images) == self._ident

    def element_images(self, cap: int | None = None) -> tuple[tuple[int, ...], ...]:
        cap = self.enumeration_cap if cap is None else cap
        if self.order() > cap:
            raise GroupTooLargeForEnumeration(
                f"order {self.order()} exceeds enumeration cap {cap}"
            )
        if self._element_cache is None:
            elems = [self._ident]
            for level in reversed(self._levels):
                reps = [level.transversal[x][0] for x in sorted(level.transversal)]
                elems = [compose_images(u, e) for u in reps for e in elems]
            self._element_cache = tuple(sorted(elems))
        return self._element_cache

    def elements(self, cap: int | None = None) -> tuple[Permutation, ...]:
        """All elements, canonically sorted by image sequence."""
        return tuple(Permutation(self.line, img) for img in self.element_images(cap))

    def element_set(self, cap: int | None = None) -> frozenset[tuple[int, ...]]:
        return frozenset(self.element_images(cap))

    # -- orbits and transitivity --

    def orbit(self, point: int) -> frozenset[int]:
        gens = [g.images for g in self.generators]
        seen = {point}
        queue = [point]
        for x in queue:
            for g in gens:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return frozenset(seen)

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def is_doubly_transitive(self) -> bool:
        if not self.is_transitive():
            return False
        stab = self.point_stabilizer(0)
        other = 1 if self.degree > 1 else 0
        return len(stab.orbit(other) - {0}) == self.degree - 1

    # -- derived subgroups --

    def point_stabilizer(self, point: int) -> "PermGroup":
        rebased = PermGroup(
            self.generators, base_prefix=(point,), enumeration_cap=self.enumeration_cap
        )
        gens = [
            Permutation(self.line, img)
            for level in rebased._levels[1:]
            for img in level.gens
        ]
        if not gens:
            gens = [self.line.identity()]
        return PermGroup(gens, enumeration_cap=self.enumeration_cap)

    def setwise_stabilizer(self, points) -> "PermGroup":
        target = frozenset(points)
        kept = [
            Permutation(self.line, img)
            for img in self.element_images()
            if frozenset(img[p] for p in target) == target
        ]
        return PermGroup(kept, enumeration_cap=self.enumeration_cap)

    # -- conjugacy and normality --

    def conjugacy_classes(self) -> tuple[ConjugacyClass, ...]:
        elems = self.element_images()
        keep_members = self.order() <= 5000
        seen: set[tuple[int, ...]] = set()
        classes = []
        for e in elems:
            if e in seen:
                continue
            members = self._conjugates(e)
            seen.update(members)
            classes.append(
                ConjugacyClass(
                    representative=Permutation(self.line, e),
                    size=len(members),
                    members=tuple(Permutation(self.line, m) for m in sorted(members))
                    if keep_members
                    else None,
                )
            )
        return tuple(classes)

    def conjugacy_class_of(self, perm: Permutation) -> frozenset[tuple[int, ...]]:
        if not self.contains(perm):
            raise SeedNotInGroup(f"{perm} is not in the group")
        return frozenset(self._conjugates(perm.images))

    def _conjugates(self, img: tuple[int, ...]) -> set[tuple[int, ...]]:
        gen_pairs = [(g.images, self._inverse(g.images)) for g in self.generators]
        members = {img}
        queue = [img]
        for x in queue:
            for g, g_inv in gen_pairs:
                y = compose_images(g, compose_images(x, g_inv))
                if y not in members:
                    members.add(y)
                    queue.append(y)
        return members

    def normal_closure(self, seeds) -> "PermGroup":
        """Smallest normal subgroup containing the seeds: one chain, grown
        by the conjugates of each round's new generators until closed."""
        seeds = list(seeds)
        for s in seeds:
            if not self.contains(s):
                raise SeedNotInGroup(f"{s} is not in the group")
        closure_gens = [s for s in dict.fromkeys(seeds) if not s.is_identity()]
        if not closure_gens:
            return PermGroup([self.line.identity()], enumeration_cap=self.enumeration_cap)
        group = PermGroup(closure_gens, enumeration_cap=self.enumeration_cap)
        gen_pairs = [(g, g.inverse()) for g in self.generators]
        frontier = group.generators
        while frontier:
            new = []
            for g, g_inv in gen_pairs:
                for s in frontier:
                    t = g * s * g_inv
                    if not group.contains(t):
                        new.append(t)
            frontier = group._extend(new)
        return group

    def is_normal(self, subgroup: "PermGroup") -> bool:
        for h in subgroup.generators:
            if not self.contains(h):
                raise SeedNotInGroup("subgroup is not contained in the group")
        for g in self.generators:
            g_inv = g.inverse()
            for h in subgroup.generators:
                if not subgroup.contains(g * h * g_inv):
                    return False
        return True

    def is_simple(self) -> bool:
        if self.order() <= 1:
            return False
        for cls in self.conjugacy_classes():
            if cls.representative.is_identity():
                continue
            if self.normal_closure([cls.representative]).order() != self.order():
                return False
        return True

    # -- Sylow counting --

    def sylow_subgroups(self, ell: int) -> tuple[frozenset[Permutation], ...]:
        """The Sylow ell-subgroups as element sets, canonically ordered."""
        n = self.order()
        if n % ell:
            raise PrimeDoesNotDivideOrder(f"{ell} does not divide {n}")
        multiplicity = 0
        m = n
        while m % ell == 0:
            m //= ell
            multiplicity += 1
        elems = self.element_images()
        if multiplicity == 1:
            subgroups = set()
            for e in elems:
                perm = Permutation(self.line, e)
                if perm.order() == ell:
                    members = [identity_images(self.degree)]
                    cur = e
                    for _ in range(ell - 1):
                        members.append(cur)
                        cur = compose_images(cur, e)
                    subgroups.add(frozenset(members))
            found = subgroups
        else:
            target = ell**multiplicity
            sylow = self._grow_sylow(ell, target, elems)
            found = set()
            queue = [sylow]
            found.add(sylow)
            gen_pairs = [(g.images, invert_images(g.images)) for g in self.generators]
            qi = 0
            while qi < len(queue):
                s = queue[qi]
                qi += 1
                for g, g_inv in gen_pairs:
                    conj = frozenset(
                        compose_images(g, compose_images(x, g_inv)) for x in s
                    )
                    if conj not in found:
                        found.add(conj)
                        queue.append(conj)
        ordered = sorted(found, key=lambda s: sorted(s))
        return tuple(
            frozenset(Permutation(self.line, img) for img in s) for s in ordered
        )

    def _grow_sylow(self, ell, target, elems):
        seed = None
        for e in elems:
            if Permutation(self.line, e).order() == ell:
                seed = e
                break
        if seed is None:
            raise SylowGrowthFails(f"no element of order {ell} to start from")
        gens = [seed]
        current = closure_images(gens)
        while len(current) < target:
            normalizer = [
                g
                for g in elems
                if all(
                    compose_images(g, compose_images(x, invert_images(g))) in current
                    for x in gens
                )
            ]
            for y in normalizer:
                if y in current:
                    continue
                grown = closure_images(gens + [y], limit=target)
                if grown is not None and _is_power_of(len(grown), ell):
                    gens.append(y)
                    current = grown
                    break
            else:
                raise SylowGrowthFails("Sylow growth stalled")  # unreachable
        return frozenset(current)

    def sylow_count(self, ell: int) -> int:
        return len(self.sylow_subgroups(ell))


def _is_power_of(n: int, ell: int) -> bool:
    while n % ell == 0:
        n //= ell
    return n == 1
