"""SL(2) and PSL(2) over small finite fields, as matrices and permutations.

The permutation side feeds the group engine; the matrix side carries the
constructive simplicity certificates: for every normal closure of a
non-scalar matrix we record a witness with nonzero upper-right entry, a
decomposition of a diagonal matrix as (lower unitriangular) * (closure
member), and the commutator sweep showing the closure swallows the whole
lower unitriangular subgroup, hence everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import Field, FieldTooLarge, field_of_order
from .groups import PermGroup
from .projline import Permutation, ProjLine

# Full matrix enumeration stays under q^3 entries only at desk scale.
MAX_MATRIX_FIELD = 13
MAX_TWO_GENERATOR_PRIME = 19


class FieldTooSmall(ValueError):
    pass


class OnlyScalars(ValueError):
    pass


class DecompositionFails(RuntimeError):
    pass


class SeedsOutsideSL2(ValueError):
    pass


class NotInClosure(RuntimeError):
    pass


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix over a finite field, entries as element indices."""

    field: Field
    a: int
    b: int
    c: int
    d: int
    det: int = dc_field(init=False)

    def __post_init__(self):
        f = self.field
        object.__setattr__(
            self, "det", f.sub(f.mul(self.a, self.d), f.mul(self.b, self.c))
        )

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def mul(self, other: "Mat2") -> "Mat2":
        f = self.field
        return Mat2(
            f,
            f.add(f.mul(self.a, other.a), f.mul(self.b, other.c)),
            f.add(f.mul(self.a, other.b), f.mul(self.b, other.d)),
            f.add(f.mul(self.c, other.a), f.mul(self.d, other.c)),
            f.add(f.mul(self.c, other.b), f.mul(self.d, other.d)),
        )

    def inverse(self) -> "Mat2":
        f = self.field
        det_inv = f.inv(self.det)
        return Mat2(
            f,
            f.mul(det_inv, self.d),
            f.mul(det_inv, f.neg(self.b)),
            f.mul(det_inv, f.neg(self.c)),
            f.mul(det_inv, self.a),
        )

    def neg(self) -> "Mat2":
        f = self.field
        return Mat2(f, f.neg(self.a), f.neg(self.b), f.neg(self.c), f.neg(self.d))

    def is_scalar(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def is_identity(self) -> bool:
        return self.entries() == (1, 0, 0, 1)

    def __repr__(self):
        return f"Mat2({self.a},{self.b};{self.c},{self.d})"


def mat_identity(field: Field) -> Mat2:
    return Mat2(field, 1, 0, 0, 1)


def sl2_matrices(field: Field) -> tuple[Mat2, ...]:
    """All determinant-one matrices, sorted by entry tuple."""
    f = field
    out = []
    for a in f.elements():
        if a == 0:
            # -bc = 1, d free
            for b in f.units():
                c = f.neg(f.inv(b))
                for d in f.elements():
                    out.append(Mat2(f, 0, b, c, d))
        else:
            a_inv = f.inv(a)
            for b in f.elements():
                for c in f.elements():
                    d = f.mul(a_inv, f.add(1, f.mul(b, c)))
                    out.append(Mat2(f, a, b, c, d))
    out.sort(key=Mat2.entries)
    return tuple(out)


def sl2_generators(field: Field) -> tuple[Mat2, ...]:
    """Unitriangular generators: shears by each monomial basis element.

    The monomial x^i has element index p^i, so the shears over the basis
    generate the full unitriangular subgroups additively."""
    basis = [field.p**i for i in range(field.degree)]
    gens = [Mat2(field, 1, b, 0, 1) for b in basis]
    gens += [Mat2(field, 1, 0, b, 1) for b in basis]
    return tuple(gens)


def moebius_permutation(mat: Mat2, line: ProjLine) -> Permutation:
    f = mat.field
    images = []
    for z in f.elements():
        den = f.add(f.mul(mat.c, z), mat.d)
        if den == 0:
            images.append(line.infinity)
        else:
            images.append(f.div(f.add(f.mul(mat.a, z), mat.b), den))
    images.append(line.infinity if mat.c == 0 else f.div(mat.a, mat.c))
    return Permutation(line, tuple(images))


@dataclass(frozen=True)
class SL2Group:
    """SL(2,q) as a matrix list together with its projective-line image."""

    field: Field
    line: ProjLine
    matrices: tuple[Mat2, ...]
    perm_group: PermGroup


def sl2_group(q: int) -> SL2Group:
    if q > MAX_MATRIX_FIELD:
        raise FieldTooLarge(f"full SL(2,{q}) enumeration is capped at q={MAX_MATRIX_FIELD}")
    field = field_of_order(q)
    line = ProjLine(field)
    gens = [moebius_permutation(m, line) for m in sl2_generators(field)]
    return SL2Group(field, line, sl2_matrices(field), PermGroup(gens))


def psl2_perm_group(q: int) -> PermGroup:
    """PSL(2,q) acting on the q+1 projective points.

    Prime q up to 19 uses the unit translation and z -> -1/z as generators;
    prime powers up to the matrix cap use the images of the shear generators.
    """
    field = field_of_order(q)
    if field.degree == 1:
        if q > MAX_TWO_GENERATOR_PRIME:
            raise FieldTooLarge(
                f"two-generator construction is capped at p={MAX_TWO_GENERATOR_PRIME}"
            )
        line = ProjLine(field)
        return PermGroup([line.translation(1), line.neg_reciprocal()])
    return sl2_group(q).perm_group


def psl2_expected_order(q: int) -> int:
    return (q**3 - q) // (2 if q % 2 else 1)


# --- matrix subgroups and normal closures ----------------------------------


def mat_closure(gens, limit: int | None = None) -> frozenset[Mat2] | None:
    """Product closure of matrices; None once it exceeds ``limit``."""
    gens = list(dict.fromkeys(gens))
    if not gens:
        raise ValueError("need at least one matrix")
    ident = mat_identity(gens[0].field)
    seen = {ident}
    seen.update(gens)
    if limit is not None and len(seen) > limit:
        return None
    frontier = [g for g in gens if g != ident]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x.mul(g)
                if y not in seen:
                    seen.add(y)
                    if limit is not None and len(seen) > limit:
                        return None
                    new.append(y)
        frontier = new
    return frozenset(seen)


def matrix_normal_closure(sl2: SL2Group, seeds) -> frozenset[Mat2]:
    """Smallest normal subgroup of SL(2,q) containing the seed matrices."""
    limit = len(sl2.matrices)
    group_gens = sl2_generators(sl2.field)
    gens = list(dict.fromkeys(seeds))
    closure = mat_closure(gens, limit)
    if closure is None:
        raise SeedsOutsideSL2("the seeds generate more than SL(2,q)")
    while True:
        added = False
        for g in group_gens:
            g_inv = g.inverse()
            for s in list(gens):
                t = g.mul(s).mul(g_inv)
                if t not in closure:
                    gens.append(t)
                    closure = mat_closure(gens, limit)
                    if closure is None:
                        raise SeedsOutsideSL2("the seeds' conjugates generate more than SL(2,q)")
                    added = True
        if not added:
            return closure


def _verify_normal(sl2: SL2Group, subgroup: frozenset[Mat2]) -> bool:
    for g in sl2_generators(sl2.field):
        g_inv = g.inverse()
        for m in subgroup:
            if g.mul(m).mul(g_inv) not in subgroup:
                return False
    return True


def find_nonzero_corner_witness(sl2: SL2Group, subgroup: frozenset[Mat2]) -> Mat2:
    """An element of the normal subgroup with nonzero upper-right entry.

    If every member is diagonal, one is produced by conjugating a
    non-scalar diagonal member with the unit upper shear.
    """
    if not _verify_normal(sl2, subgroup):
        raise ValueError("subgroup is not normal in SL(2,q)")
    nonscalar = sorted(
        (m for m in subgroup if not m.is_scalar()), key=Mat2.entries
    )
    if not nonscalar:
        raise OnlyScalars("subgroup is central")
    for m in nonscalar:
        if m.b != 0:
            return m
    diagonal = next(m for m in nonscalar if m.b == 0 and m.c == 0)
    shear = Mat2(sl2.field, 1, 1, 0, 1)
    witness = shear.mul(diagonal).mul(shear.inverse())
    if witness.b == 0 or witness not in subgroup:
        raise NotInClosure(f"conjugated witness {witness} is not in the subgroup")
    return witness


def factor_with_lower_shear(
    sl2: SL2Group, target: Mat2, subgroup: frozenset[Mat2]
) -> tuple[Mat2, Mat2]:
    """Write target = u * B with u lower unitriangular and B in the subgroup."""
    for r in sl2.field.elements():
        u = Mat2(sl2.field, 1, 0, r, 1)
        candidate = u.inverse().mul(target)
        if candidate in subgroup:
            return u, candidate
    raise DecompositionFails(
        f"{target} does not factor through the normal subgroup"
    )


@dataclass(frozen=True)
class ClosureCertificate:
    """Witness chain showing one normal closure is all of SL(2,q)."""

    representative: Mat2
    nonzero_corner_witness: Mat2
    diagonal_entry: int
    diagonal: Mat2
    unitriangular: Mat2
    closure_member: Mat2
    commutator_pairs: tuple[tuple[Mat2, Mat2], ...]
    lower_shears_in_closure: bool
    upper_shears_in_closure: bool
    closure_order: int


@dataclass(frozen=True)
class SimplicityCertificate:
    q: int
    group_order: int
    entries: tuple[ClosureCertificate, ...]
    verdict: bool

    def reverify(self) -> bool:
        """Recheck every recorded identity by direct matrix arithmetic."""
        field = field_of_order(self.q)
        lower_shears = frozenset(Mat2(field, 1, 0, r, 1) for r in field.elements())
        for entry in self.entries:
            w = entry.nonzero_corner_witness
            if w.det != 1 or w.b == 0:
                return False
            a = entry.diagonal_entry
            if a in (0, 1, field.neg(1)):
                return False
            if entry.diagonal.entries() != (a, 0, 0, field.inv(a)):
                return False
            if entry.unitriangular.mul(entry.closure_member) != entry.diagonal:
                return False
            commutators = set()
            for shear, comm in entry.commutator_pairs:
                B = entry.closure_member
                if shear.mul(B).mul(shear.inverse()).mul(B.inverse()) != comm:
                    return False
                commutators.add(comm)
            if commutators != lower_shears:
                return False
            if entry.closure_order != self.group_order:
                return False
            if not (entry.lower_shears_in_closure and entry.upper_shears_in_closure):
                return False
        return self.verdict == bool(self.entries)

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "group_order": self.group_order,
            "verdict": self.verdict,
            "classes": [
                {
                    "representative": list(e.representative.entries()),
                    "nonzero_corner_witness": list(e.nonzero_corner_witness.entries()),
                    "diagonal_entry": e.diagonal_entry,
                    "unitriangular": list(e.unitriangular.entries()),
                    "closure_member": list(e.closure_member.entries()),
                    "closure_order": e.closure_order,
                    "commutators_cover_shears": sorted(
                        list(c.entries()) for _, c in e.commutator_pairs
                    )
                    == sorted(
                        list(Mat2(e.representative.field, 1, 0, r, 1).entries())
                        for r in e.representative.field.elements()
                    ),
                }
                for e in self.entries
            ],
        }


def matrix_conjugacy_representatives(sl2: SL2Group) -> tuple[Mat2, ...]:
    """One representative per conjugacy class of SL(2,q), smallest first."""
    gens = sl2_generators(sl2.field)
    gen_pairs = [(g, g.inverse()) for g in gens]
    seen: set[Mat2] = set()
    reps = []
    for m in sl2.matrices:
        if m in seen:
            continue
        members = {m}
        queue = [m]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for g, g_inv in gen_pairs:
                y = g.mul(x).mul(g_inv)
                if y not in members:
                    members.add(y)
                    queue.append(y)
        seen.update(members)
        reps.append(m)
    return tuple(reps)


def certify_simplicity(q: int) -> SimplicityCertificate:
    """Certify that every normal closure of a non-scalar matrix is SL(2,q).

    For each non-scalar conjugacy class representative: find a closure
    member with nonzero upper-right entry, factor diag(a, 1/a) with
    a outside {0, 1, -1} through the closure, and check that the
    commutators of that factor against all lower shears sweep out exactly
    the lower shear subgroup.
    """
    if q <= 3:
        raise FieldTooSmall("the argument needs more than 3 field elements")
    if q > MAX_MATRIX_FIELD:
        raise FieldTooLarge(f"certification is capped at q={MAX_MATRIX_FIELD}")
    sl2 = sl2_group(q)
    f = sl2.field
    lower_shears = [Mat2(f, 1, 0, r, 1) for r in f.elements()]
    lower_set = frozenset(lower_shears)
    upper_set = frozenset(Mat2(f, 1, r, 0, 1) for r in f.elements())
    a = next(x for x in f.elements() if x not in (0, 1, f.neg(1)))
    diagonal = Mat2(f, a, 0, 0, f.inv(a))
    entries = []
    for rep in matrix_conjugacy_representatives(sl2):
        if rep.is_scalar():
            continue
        closure = matrix_normal_closure(sl2, [rep])
        witness = find_nonzero_corner_witness(sl2, closure)
        u, B = factor_with_lower_shear(sl2, diagonal, closure)
        B_inv = B.inverse()
        pairs = []
        commutators = set()
        for shear in lower_shears:
            comm = shear.mul(B).mul(shear.inverse()).mul(B_inv)
            if comm not in closure:
                raise NotInClosure(f"commutator {comm} is not in the normal closure")
            pairs.append((shear, comm))
            commutators.add(comm)
        entries.append(
            ClosureCertificate(
                representative=rep,
                nonzero_corner_witness=witness,
                diagonal_entry=a,
                diagonal=diagonal,
                unitriangular=u,
                closure_member=B,
                commutator_pairs=tuple(pairs),
                lower_shears_in_closure=lower_set <= closure,
                upper_shears_in_closure=upper_set <= closure,
                closure_order=len(closure),
            )
        )
    verdict = bool(entries) and all(
        e.closure_order == len(sl2.matrices)
        and frozenset(c for _, c in e.commutator_pairs) == lower_set
        and e.lower_shears_in_closure
        and e.upper_shears_in_closure
        for e in entries
    )
    return SimplicityCertificate(
        q=q, group_order=len(sl2.matrices), entries=tuple(entries), verdict=verdict
    )
