"""SL(2) and PSL(2) over small finite fields, as matrices and permutations.

The permutation side feeds the group engine; the matrix side carries the
constructive simplicity certificates: for every normal closure of a
non-scalar matrix we record a witness with nonzero upper-right entry, a
decomposition of a diagonal matrix as (lower unitriangular) * (closure
member), and the commutator sweep showing the closure swallows the whole
lower unitriangular subgroup, hence everything.

SL(2,q) and its subgroups (closures, normal closures) are frozensets of
packed integer codes, ``Mat2.code``; SL(2,q) itself is the closure of its
shears.  Right multiplication by a matrix acts on codes through its row map,
and conjugation by a shear through two row maps and transposes: that one
routine, ``_conjugation``, serves conjugacy classes, normality and normal
closures.  ``Mat2`` values are built only for class representatives, seeds,
conjugates that join a closure's generators, witnesses and factors.

A normal closure's subgroups lie in SL(2,q), so by Lagrange each closure
stops as soon as it holds more than half of SL(2,q): it is then SL(2,q),
returned as ``SL2Group.codes`` itself.  The certificate walks the classes in
order and keeps the codes of every class whose normal closure it has shown
to be SL(2,q).  If y lies in the normal closure N(x), then N(y) is inside
N(x), and N(y) is the same for every conjugate of y; so a later closure
whose search reaches a proved code is SL(2,q) too, and stops there.  Only
the first non-scalar class runs to the Lagrange exit.  The witness, factor
and commutator sweep depend on the closure alone, so they are derived once
per distinct closure: once per certificate.  The rest is built once per
``SL2Group``, so it lives for one job: the row maps of the matrices that
generate closures (``SL2Group.row_map``), the conjugation maps, and the
corner witness of all of SL(2,q).

PSL(2,q) on the projective line is built from generators alone, one way
for every prime power q = p**k: the translations z -> z + p**i, the images
of the upper shears over the additive basis, and z -> -1/z.  Conjugating
the translations by -1/z gives the lower shears, so the two generate the
image of SL(2,q); its chain is bounded by the degree cap only.  SL(2,q) is
built as matrices, for the certificates, only while PSL(2,q) is within
``fields.DEFAULT_ENUMERATION_CAP``: exactly the prime powers q <= 31.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fields import DEFAULT_ENUMERATION_CAP, MAX_DEGREE, Field, check_cap, field_of_order
from .groups import PermGroup, orbit
from .projline import DomainMismatch, ProjLine


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


class _ReachedStop(Exception):
    """A closure's search reached a code of its ``stop`` set."""


@dataclass(frozen=True, repr=False)
class Mat2:
    """A 2x2 matrix over a finite field, entries as element indices.

    An immutable value: equal entries over equal fields compare equal.  The
    constructor range-checks the entries; ``mul`` reads the field's add and
    mul tables.
    """

    field: Field
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        self.field._check(self.a, self.b, self.c, self.d)

    @property
    def det(self) -> int:
        f = self.field
        return f.sub(f.mul(self.a, self.d), f.mul(self.b, self.c))

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @property
    def code(self) -> int:
        """The entries packed base q, ``a`` most significant, so codes sort
        as ``entries()`` does; ``_entries_of`` unpacks them."""
        q = self.field.order
        return ((self.a * q + self.b) * q + self.c) * q + self.d

    def mul(self, other: "Mat2") -> "Mat2":
        f = self.field
        if other.field is not f and other.field != f:
            raise DomainMismatch("matrices over different fields")
        add, mul, q = f.add_table, f.mul_table, f.order
        aq, bq, cq, dq = self.a * q, self.b * q, self.c * q, self.d * q
        e, g, h, k = other.a, other.b, other.c, other.d
        return Mat2(
            f,
            add[mul[aq + e] * q + mul[bq + h]],
            add[mul[aq + g] * q + mul[bq + k]],
            add[mul[cq + e] * q + mul[dq + h]],
            add[mul[cq + g] * q + mul[dq + k]],
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

    def is_scalar(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def is_identity(self) -> bool:
        return self.entries() == (1, 0, 0, 1)

    def __repr__(self):
        return f"Mat2({self.a},{self.b};{self.c},{self.d})"


def mat_identity(field: Field) -> Mat2:
    return Mat2(field, 1, 0, 0, 1)


def _entries_of(code: int, q: int) -> tuple[int, int, int, int]:
    top, bottom = divmod(code, q * q)
    return divmod(top, q) + divmod(bottom, q)


def _row_map(g: Mat2) -> tuple[int, ...]:
    """v -> v*g on the q*q row vectors v = (x, y), each coded x*q + y."""
    f = g.field
    add, mul, q = f.add_table, f.mul_table, f.order
    return tuple(
        add[mul[x * q + g.a] * q + mul[y * q + g.c]] * q
        + add[mul[x * q + g.b] * q + mul[y * q + g.d]]
        for x in range(q)
        for y in range(q)
    )


def sl2_generators(field: Field) -> tuple[Mat2, ...]:
    """Unitriangular generators: shears by each monomial basis element.

    The monomial x^i has element index p^i, so the shears over the basis
    generate the full unitriangular subgroups additively."""
    basis = [field.p**i for i in range(field.degree)]
    gens = [Mat2(field, 1, b, 0, 1) for b in basis]
    gens += [Mat2(field, 1, 0, b, 1) for b in basis]
    return tuple(gens)


@dataclass(frozen=True)
class SL2Group:
    """SL(2,q) from its shears, closed lazily."""

    field: Field

    @cached_property
    def codes(self) -> frozenset[int]:
        """The codes of all of SL(2,q), the closure of the shears."""
        return mat_closure(sl2_generators(self.field), row_map=self.row_map)

    @cached_property
    def conjugation(self):
        """``_conjugation`` over this group's field, built once."""
        return _conjugation(self.field)

    @cached_property
    def corner_witness(self) -> Mat2:
        """``find_nonzero_corner_witness`` of all of SL(2,q), built once."""
        return _smallest_corner(self.field, self.codes)

    @cached_property
    def _row_maps(self) -> dict[int, tuple[int, ...]]:
        return {}

    def row_map(self, g: Mat2) -> tuple[int, ...]:
        """``_row_map(g)``, built once per matrix of this group's field."""
        if g.field is not self.field and g.field != self.field:
            raise DomainMismatch("matrix over a different field")
        rho = self._row_maps.get(g.code)
        if rho is None:
            rho = self._row_maps[g.code] = _row_map(g)
        return rho


def check_psl2_cap(q: int) -> None:
    """Build SL(2,q) as matrices only while PSL(2,q) is within the
    enumeration cap; a comparison, so it runs before q is factored."""
    check_cap(f"PSL(2,{q}) order", psl2_expected_order(q), "enumeration cap",
              DEFAULT_ENUMERATION_CAP)


def sl2_group(q: int) -> SL2Group:
    check_psl2_cap(q)
    return SL2Group(field_of_order(q))


def psl2_perm_group(q: int) -> PermGroup:
    """PSL(2,q) acting on the q+1 projective points, for q = p**k.

    The generators are the translations z -> z + p**i for i < k, the images
    of the upper shears over the additive basis (element index p**i is the
    monomial x**i), then z -> -1/z.  Conjugating the translations by -1/z
    gives the images of the lower shears, and the two unitriangular
    subgroups generate SL(2,q).  For prime q the list is [z+1, -1/z].  Only
    the field and degree caps apply; the degree cap is compared before the
    field is built.
    """
    check_cap("degree", q + 1, "degree cap", MAX_DEGREE)
    field = field_of_order(q)
    line = ProjLine(field)
    translations = [line.translation(field.p**i) for i in range(field.degree)]
    return PermGroup(translations + [line.neg_reciprocal()])


def psl2_expected_order(q: int) -> int:
    return (q**3 - q) // (2 if q % 2 else 1)


# --- matrix subgroups and normal closures ----------------------------------


def mat_closure(
    gens, limit: int | None = None, *, row_map=_row_map, stop=frozenset()
) -> frozenset[int] | None:
    """Product closure of matrices as codes, the orbit of the identity's code
    under right multiplication; None once it exceeds ``limit`` or reaches a
    code in ``stop``.

    Right multiplication by g maps each row v of a matrix to v*g, so the
    product of a code with g is two lookups in g's row map, ``row_map(g)``.
    Only a closure given a ``stop`` set tests its products against it."""
    gens = list(dict.fromkeys(gens))
    if not gens:
        raise ValueError("need at least one matrix")
    field = gens[0].field
    if any(g.field != field for g in gens):
        raise DomainMismatch("matrices over different fields")
    qq = field.order**2
    if not stop:
        def act(x, rho):
            return rho[x // qq] * qq + rho[x % qq]
    else:
        def act(x, rho):
            y = rho[x // qq] * qq + rho[x % qq]
            if y in stop:
                raise _ReachedStop
            return y
    try:
        return orbit([mat_identity(field).code], [row_map(g) for g in gens], act, limit)
    except _ReachedStop:
        return None


def matrix_normal_closure(sl2: SL2Group, seeds, *, proved=frozenset()) -> frozenset[int]:
    """Codes of the smallest normal subgroup of SL(2,q) containing the seed
    matrices, which must lie in SL(2,q).

    Each closure stops at half of SL(2,q) (the Lagrange exit below), and
    every generator's row map comes from the group's cache, so a class's
    last closure does not run out to all q**3 - q codes.

    ``proved`` holds codes y whose normal closure N(y) is known to be
    SL(2,q); ``certify_simplicity`` passes the classes it has proved.  If y
    lies in the normal closure N sought here, then N(y) is inside N, so N is
    SL(2,q): the search returns ``sl2.codes`` as soon as a closure, or a
    shear-conjugate of one of its generators, reaches such a code."""
    f = sl2.field
    gens = list(dict.fromkeys(seeds))
    if not all(g.field == f and g.code in sl2.codes for g in gens):
        raise SeedsOutsideSL2("a seed lies outside SL(2,q)")
    # The seeds and their shear-conjugates lie in SL(2,q), so every closure
    # below is a subgroup of SL(2,q), and its order divides q**3 - q.  One
    # with more than half of those elements is therefore SL(2,q) itself.
    half = len(sl2.codes) // 2
    maps, act = sl2.conjugation
    closure = mat_closure(gens, half, row_map=sl2.row_map, stop=proved)
    while closure is not None:
        added = False
        for m in maps:
            for x in [g.code for g in gens]:
                t = act(x, m)
                if t not in closure:
                    if t in proved:
                        return sl2.codes
                    gens.append(Mat2(f, *_entries_of(t, f.order)))
                    closure = mat_closure(gens, half, row_map=sl2.row_map, stop=proved)
                    if closure is None:
                        return sl2.codes
                    added = True
        if not added:
            return closure
    return sl2.codes


def _conjugation(field: Field):
    """The maps x -> g*x*g^-1 on codes, one per shear generator g, and the
    action that applies one.

    x*g^-1 is g^-1's row map.  g*y is (y^T * g^T)^T, and transposing a code
    swaps its b and c digits."""
    q = field.order
    qq = q * q

    def act(x: int, maps: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
        right, left = maps
        y = right[x // qq] * qq + right[x % qq]
        y += (y // q % q - y // qq % q) * (qq - q)  # transpose
        z = left[y // qq] * qq + left[y % qq]
        return z + (z // q % q - z // qq % q) * (qq - q)  # transpose back

    maps = [
        (_row_map(g.inverse()), _row_map(Mat2(field, g.a, g.c, g.b, g.d)))
        for g in sl2_generators(field)
    ]
    return maps, act


def _verify_normal(sl2: SL2Group, subgroup: frozenset[int]) -> bool:
    """Whether the code set is closed under conjugation by SL(2,q).

    SL(2,q) is normal in itself, so a set equal to ``sl2.codes`` needs no
    conjugation loop; that equality is the count q**3 - q together with
    membership in SL(2,q).  Any other set, a full-size one holding a matrix
    outside SL(2,q) included, runs the loop."""
    if subgroup == sl2.codes:
        return True
    maps, act = sl2.conjugation
    return all(act(x, m) in subgroup for m in maps for x in subgroup)


def find_nonzero_corner_witness(sl2: SL2Group, subgroup: frozenset[int]) -> Mat2:
    """The member with the smallest code among those with nonzero upper-right
    entry, in a normal subgroup given by codes.

    A set closed under conjugation that holds a non-scalar x = (a b; c d)
    with b = 0 also holds one with b != 0: w*x*w^-1 = (d -c; -b a) for
    w = (0 -1; 1 0) if c != 0, and conjugating by the unit upper shear gives
    upper-right entry d - a != 0 if c = 0.  So a normal subgroup without such
    a member is central.
    """
    if subgroup is sl2.codes:
        return sl2.corner_witness
    if not _verify_normal(sl2, subgroup):
        raise ValueError("subgroup is not normal in SL(2,q)")
    return _smallest_corner(sl2.field, subgroup)


def _smallest_corner(field: Field, codes) -> Mat2:
    q = field.order
    corner = min((x for x in codes if x // (q * q) % q), default=None)
    if corner is None:
        raise OnlyScalars("subgroup is central")
    return Mat2(field, *_entries_of(corner, q))


def factor_with_lower_shear(
    sl2: SL2Group, target: Mat2, subgroup: frozenset[int]
) -> tuple[Mat2, Mat2]:
    """Write target = u * B with u lower unitriangular and B in the subgroup,
    given by codes."""
    f = sl2.field
    for r in f.elements():
        u = Mat2(f, 1, 0, r, 1)
        candidate = Mat2(f, 1, 0, f.neg(r), 1).mul(target)  # u^-1 * target
        if candidate.code in subgroup:
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
        """Recheck every recorded identity by direct matrix arithmetic.

        There must be one entry per non-scalar class of SL(2,q), q + 2 for
        odd q and q for even q, with distinct non-scalar representatives in
        SL(2,q); every matrix must be over GF(q) and every commutator taken
        with a lower shear, so a forged entry reads False, not an error.
        Each distinct commutator is formed once, and each distinct matrix
        inverted once, and every entry's recorded commutators are compared
        with those products.  That the representatives lie in distinct
        classes, and that each closure really is SL(2,q), is not replayed
        here."""
        if self.group_order != self.q**3 - self.q:
            return False
        if len(self.entries) != (self.q + 2 if self.q % 2 else self.q):
            return False
        field = field_of_order(self.q)
        lower_shears = frozenset(Mat2(field, 1, 0, r, 1) for r in field.elements())
        representatives = [entry.representative for entry in self.entries]
        if len(set(representatives)) != len(representatives):
            return False
        # keyed by code: a matrix reaches them only once its field is checked
        inverses: dict[int, Mat2] = {}
        products: dict[tuple[int, int], Mat2] = {}

        def inverse(m: Mat2) -> Mat2:
            if m.code not in inverses:
                inverses[m.code] = m.inverse()
            return inverses[m.code]

        for entry in self.entries:
            rep = entry.representative
            w = entry.nonzero_corner_witness
            recorded = [rep, w, entry.unitriangular, entry.closure_member]
            recorded += [shear for shear, _ in entry.commutator_pairs]
            if any(m.field != field for m in recorded):  # so no product below mixes fields
                return False
            if rep.det != 1 or rep.is_scalar():
                return False
            if w.det != 1 or w.b == 0:
                return False
            a = entry.diagonal_entry
            if a not in range(2, field.order) or a == field.neg(1):  # not 0, 1 or -1
                return False
            if entry.diagonal.entries() != (a, 0, 0, field.inv(a)):
                return False
            if entry.unitriangular.mul(entry.closure_member) != entry.diagonal:
                return False
            B = entry.closure_member
            commutators = set()
            for shear, comm in entry.commutator_pairs:
                if (shear.a, shear.b, shear.d) != (1, 0, 1):  # a lower shear, so it inverts
                    return False
                key = (shear.code, B.code)
                if key not in products:
                    products[key] = shear.mul(B).mul(inverse(shear)).mul(inverse(B))
                if products[key] != comm:
                    return False
                commutators.add(comm)
            if commutators != lower_shears:
                return False
            if entry.closure_order != self.group_order:
                return False
            if not (entry.lower_shears_in_closure and entry.upper_shears_in_closure):
                return False
        return self.verdict

    def to_json_dict(self) -> dict:
        # the entries of the lower shears (1 0; r 1), sorted
        lower_shears = [[1, 0, r, 1] for r in range(self.q)]
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
                    == lower_shears,
                }
                for e in self.entries
            ],
        }


def matrix_conjugacy_representatives(sl2: SL2Group) -> tuple[Mat2, ...]:
    """One representative per conjugacy class of SL(2,q), smallest first."""
    return tuple(rep for rep, _ in _conjugacy_classes(sl2))


def _conjugacy_classes(sl2: SL2Group) -> list[tuple[Mat2, frozenset[int]]]:
    """Each conjugacy class of SL(2,q) as its smallest member and its codes,
    smallest first."""
    f = sl2.field
    maps, act = sl2.conjugation
    seen: set[int] = set()
    classes = []
    for x in sorted(sl2.codes):
        if x not in seen:
            members = orbit([x], maps, act)
            seen |= members
            classes.append((Mat2(f, *_entries_of(x, f.order)), members))
    return classes


def certify_simplicity(q: int) -> SimplicityCertificate:
    """Certify that every normal closure of a non-scalar matrix is SL(2,q).

    For each non-scalar conjugacy class representative: find a closure
    member with nonzero upper-right entry, factor diag(a, 1/a) with
    a outside {0, 1, -1} through the closure, and check that the
    commutators of that factor against all lower shears sweep out exactly
    the lower shear subgroup.

    The classes are walked smallest first, and each class whose closure is
    SL(2,q) joins the proved codes that end later classes' closures.  That
    evidence depends on the closure alone, so it is derived once per
    distinct closure.
    """
    if q <= 3:
        raise FieldTooSmall("the argument needs more than 3 field elements")
    sl2 = sl2_group(q)
    f = sl2.field
    # each lower shear with its inverse, the shear by -r
    lower_shears = [(Mat2(f, 1, 0, r, 1), Mat2(f, 1, 0, f.neg(r), 1)) for r in f.elements()]
    lower_codes = frozenset(m.code for m, _ in lower_shears)
    upper_codes = frozenset(Mat2(f, 1, r, 0, 1).code for r in f.elements())
    a = next(x for x in f.elements() if x not in (0, 1, f.neg(1)))
    diagonal = Mat2(f, a, 0, 0, f.inv(a))

    def evidence(closure: frozenset[int]) -> dict:
        witness = find_nonzero_corner_witness(sl2, closure)
        u, B = factor_with_lower_shear(sl2, diagonal, closure)
        B_inv = B.inverse()
        pairs = []
        for shear, shear_inv in lower_shears:
            comm = shear.mul(B).mul(shear_inv).mul(B_inv)
            if comm.code not in closure:
                raise NotInClosure(f"commutator {comm} is not in the normal closure")
            pairs.append((shear, comm))
        return dict(
            nonzero_corner_witness=witness,
            unitriangular=u,
            closure_member=B,
            commutator_pairs=tuple(pairs),
            lower_shears_in_closure=lower_codes <= closure,
            upper_shears_in_closure=upper_codes <= closure,
            closure_order=len(closure),
        )

    proved: set[int] = set()  # the classes whose normal closure is SL(2,q)
    derived: dict[frozenset[int], dict] = {}
    entries = []
    for rep, members in _conjugacy_classes(sl2):
        if rep.is_scalar():
            continue
        closure = matrix_normal_closure(sl2, [rep], proved=proved)
        if len(closure) == len(sl2.codes):
            proved |= members
        if closure not in derived:
            derived[closure] = evidence(closure)
        entries.append(
            ClosureCertificate(
                representative=rep, diagonal_entry=a, diagonal=diagonal, **derived[closure]
            )
        )
    verdict = bool(entries) and all(
        e.closure_order == len(sl2.codes)
        and frozenset(c.code for _, c in e.commutator_pairs) == lower_codes
        and e.lower_shears_in_closure
        and e.upper_shears_in_closure
        for e in entries
    )
    return SimplicityCertificate(
        q=q, group_order=len(sl2.codes), entries=tuple(entries), verdict=verdict
    )
