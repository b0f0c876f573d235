"""SL(2) and PSL(2) over small finite fields, as matrices and permutations.

The permutation side feeds the group engine; the matrix side carries the
simplicity certificate, a short proof that for q > 3 the normal closure
N(A) of every non-scalar A in SL(2,q) is SL(2,q).  The proof is a few
fixed words of ``Mat2`` products, O(q) of them in all, and enumerates no
part of SL(2,q):

- Classes.  The non-scalar classes of SL(2,q) are those of (0 1; -1 t), one
  per trace t, and for odd q of (0 b; -1/b 2) and (0 b; -1/b -2), with b the
  smallest non-square: q + 2 classes for odd q, q for even q.
- One target.  For A = (0 b; c d) with bc = -1 and D = diag(l, 1/l),
  A*D*A^-1*D^-1 = (m 0; cd(1 - m) 1/m) with m = l^-2.  If m*m != 1 the
  lower shear L_r, r = -cd(1 - m)/(m - 1/m), conjugates it to
  E = diag(m, 1/m), so E lies in N(A), the same E for every class.  Over
  GF(5) every l^4 = 1; there a tabled two-commutator word per class ends at
  a conjugate of E = diag(2, 3).
- The sweep.  L_r*E*L_r^-1*E^-1 = L_{r(1 - 1/(m*m))}, so E's commutators
  with the q lower shears are all of them, and w = (0 1; -1 0) conjugates
  L_t to the upper shear U_-t.
- The shears generate.  (a b; c d) = U_x * L_c * U_y with x = (a - 1)/c and
  y = (d - 1)/c when c != 0; when c = 0, (a b; c d) * L_1 has lower-left
  entry d != 0.  So every element is a product of at most four shears.

Each class carries only its representative, word and conjugator; the
certificate holds the rest once: E, w, and the report's diagonal entry a,
the smallest element outside {0, 1, -1}.  The verdict is whether the sweep
of diag(a, 1/a) is all the lower shears.  The report writes every class in
the layout of the enumerating certificate this replaced, from those shared
fields: w, u = I, closure member diag(a, 1/a), the verdict as whether its
commutators cover the shears, and the closure order q**3 - q.
``SimplicityCertificate.reverify`` builds both sweeps itself and replays
every word once, with its own ``Mat2`` arithmetic.

SL(2,q) as a set of packed codes (``SL2Group``, the closure of its shears
under ``mat_closure``) is built by no command; it is there for tests and
tracing, and only while PSL(2,q) is within ``fields.DEFAULT_ENUMERATION_CAP``.

PSL(2,q) on the projective line is built from generators alone, one way
for every prime power q = p**k: the translations z -> z + p**i, the images
of the upper shears over the additive basis, and z -> -1/z.  Conjugating
the translations by -1/z gives the lower shears, so the two generate the
image of SL(2,q); its chain is bounded by the degree cap only.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .fields import (
    DEFAULT_ENUMERATION_CAP,
    MAX_DEGREE,
    MAX_FIELD_ORDER,
    Field,
    check_cap,
    distinct_prime_factors,
    field_of_order,
)
from .groups import PermGroup, orbit
from .projline import DomainMismatch, ProjLine


class FieldTooSmall(ValueError):
    pass


class ProofStepFails(RuntimeError):
    """A step of the closed-form certificate missed the matrix it must reach."""


class Mat2(namedtuple("Mat2", "field a b c d")):
    """A 2x2 matrix over a finite field, entries as element indices.

    An immutable value: equal entries over equal fields compare equal.  The
    constructor range-checks the entries.  ``mul`` and ``det`` compute each
    entry with the field's fused kernel ``_dot``, which checks no range:
    entries from in-range factors are in range, so a product, like the
    adjugate in ``inverse``, is built without the constructor's re-check.
    """

    __slots__ = ()

    def __new__(cls, field: Field, a: int, b: int, c: int, d: int):
        q = field.order
        if not (0 <= a < q and 0 <= b < q and 0 <= c < q and 0 <= d < q):
            field._check(a, b, c, d)
        return tuple.__new__(cls, (field, a, b, c, d))

    @classmethod
    def _make(cls, iterable):  # so that ``_replace`` range-checks too
        return cls(*iterable)

    @property
    def det(self) -> int:
        f, a, b, c, d = self
        return f._dot(a, d, f.neg(b), c)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @property
    def code(self) -> int:
        """The entries packed base q, ``a`` most significant, so codes sort
        as ``entries()`` does; ``entries_of`` in ``tests/conftest.py``
        unpacks them."""
        q = self.field.order
        return ((self.a * q + self.b) * q + self.c) * q + self.d

    def mul(self, other: "Mat2") -> "Mat2":
        f, a, b, c, d = self
        g_field, e, g, h, k = other
        if g_field is not f and g_field != f:
            raise DomainMismatch("matrices over different fields")
        dot = f._dot
        return tuple.__new__(Mat2, (
            f, dot(a, e, b, h), dot(a, g, b, k), dot(c, e, d, h), dot(c, g, d, k)
        ))

    def inverse(self) -> "Mat2":
        f, a, b, c, d = self
        neg_b, neg_c = f.neg(b), f.neg(c)
        det = f._dot(a, d, neg_b, c)
        if det == 1:  # the adjugate
            return tuple.__new__(Mat2, (f, d, neg_b, neg_c, a))
        det_inv = f.inv(det)
        return Mat2(
            f,
            f.mul(det_inv, d),
            f.mul(det_inv, neg_b),
            f.mul(det_inv, neg_c),
            f.mul(det_inv, a),
        )

    def __repr__(self):
        return f"Mat2({self.a},{self.b};{self.c},{self.d})"


def mat_identity(field: Field) -> Mat2:
    return Mat2(field, 1, 0, 0, 1)


def _row_map(g: Mat2) -> tuple[int, ...]:
    """v -> v*g on the q*q row vectors v = (x, y), each coded x*q + y."""
    f = g.field
    add, mul, q = f.add, f.mul, f.order
    return tuple(
        add(mul(x, g.a), mul(y, g.c)) * q + add(mul(x, g.b), mul(y, g.d))
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


class SL2Group(namedtuple("SL2Group", "field")):
    """SL(2,q) from its shears, closed lazily.  No ``__slots__``: the
    cached property lives in the instance dict."""

    @cached_property
    def codes(self) -> frozenset[int]:
        """The codes of all of SL(2,q), the closure of the shears."""
        return mat_closure(sl2_generators(self.field))


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
    # the generators are the determinant-1 maps (1 b; 0 1) and (0 -1; 1 0),
    # so G <= PSL(2,q) by construction and the chain may stop at its order
    return PermGroup(translations + [line.neg_reciprocal()], order=psl2_expected_order(q))


def psl2_expected_order(q: int) -> int:
    return (q**3 - q) // (2 if q % 2 else 1)


def moebius_order_bound(generators, p: int) -> int | None:
    """|PSL(2,p)| when every generator, an image tuple on the projective
    line over GF(p), p prime, is a Moebius map z -> (az+b)/(cz+d) whose
    determinant is a nonzero square: such maps lie in PSL(2,p), so they
    generate a subgroup of it.  None otherwise.

    A Moebius map is fixed by its images A, B, C of inf, 0 and 1.  With
    v(X) = (X, 1) and v(inf) = (1, 0), the matrix with columns
    det(v(C), v(B)) * v(A) and det(v(A), v(C)) * v(B) sends inf to A, 0 to
    B and (1, 1) to det(v(A), v(B)) * v(C) (Cramer's rule), so to C.  Its
    determinant is the product of the three 2x2 determinants, and scaling
    a matrix keeps the square class of its determinant.  The map is then
    checked at every finite point, O(p) per generator; inf holds by
    construction."""
    inf = p

    def v(x):
        return (1, 0) if x == inf else (x, 1)

    def det(u, w):
        return (u[0] * w[1] - u[1] * w[0]) % p

    for g in generators:
        va, vb, vc = v(g[inf]), v(g[0]), v(g[1])
        lam, mu = det(vc, vb), det(va, vc)
        a, c, b, d = lam * va[0], lam * va[1], mu * vb[0], mu * vb[1]
        determinant = lam * mu * det(va, vb) % p
        if not determinant or pow(determinant, (p - 1) // 2, p) != 1:
            return None
        # g(z) * (cz + d) = az + b, with g(z) = inf exactly where cz + d = 0
        for z in range(p):
            den = (c * z + d) % p
            if (g[z] == inf) != (den == 0) or den and (g[z] * den - a * z - b) % p:
                return None
    return psl2_expected_order(p)


def mat_closure(gens, limit: int | None = None) -> frozenset[int] | None:
    """Product closure of matrices as codes, the orbit of the identity's code
    under right multiplication; None once it exceeds ``limit``.

    Right multiplication by g maps each row v of a matrix to v*g, so the
    product of a code with g is two lookups in g's row map, ``_row_map(g)``."""
    gens = list(dict.fromkeys(gens))
    if not gens:
        raise ValueError("need at least one matrix")
    field = gens[0].field
    if any(g.field != field for g in gens):
        raise DomainMismatch("matrices over different fields")
    qq = field.order**2

    def act(x, rho):
        return rho[x // qq] * qq + rho[x % qq]

    return orbit([mat_identity(field).code], [_row_map(g) for g in gens], act, limit)


# --- the simplicity certificate ----------------------------------------------


class ClosureCertificate(namedtuple("ClosureCertificate", "representative word conjugator")):
    """Why the normal closure of one class representative is SL(2,q):
    X = representative, then X = X*g*X^-1*g^-1 for each g of ``word``, and
    conjugator*X*conjugator^-1 is the certificate's target."""

    __slots__ = ()


class SimplicityCertificate(namedtuple("SimplicityCertificate", (
    "q entries verdict target witness diagonal_entry"
))):
    """One entry per non-scalar class, each carried to the target E, and the
    witnesses every class shares, once: E, the w that carries E's sweep to
    the upper shears, and the report's diagonal entry a.  A sweep of a
    diagonal D, the set of L_r*D*L_r^-1*D^-1 over the lower shears L_r, is
    not stored: ``reverify`` builds those of E and diag(a, 1/a) itself."""

    __slots__ = ()

    def reverify(self) -> bool:
        """Replay the whole proof by direct matrix arithmetic, each step once.

        The representatives must be in the canonical form of the module
        docstring with distinct invariants, the trace and, at trace 2 or -2,
        whether b is a square; with one entry per non-scalar class, q + 2
        for odd q and q for even q, that makes them a complete set of
        classes.  Every word must end at the target.  The sweeps of the
        target and of diag(a, 1/a), built here, must each be all the lower
        shears, and the witness must carry the target's sweep to all the
        upper shears.  The diagonal entry a must be the smallest element
        outside {0, 1, -1}, as the module docstring names it, so a
        reverified certificate pins its report's closure member.  Every
        stored matrix must be over GF(q) and of determinant 1, so a
        forgery reads False, not an error, and so does a q that is not a
        prime power above 3 within the field cap.
        """
        q = self.q
        if not isinstance(q, int) or q <= 3 or q > MAX_FIELD_ORDER:
            return False
        if len(distinct_prime_factors(q)) != 1:
            return False
        if len(self.entries) != (q + 2 if q % 2 else q):
            return False
        E, w = self.target, self.witness
        field = E.field
        if field != field_of_order(q):
            return False
        a = min(set(field.elements()) - {0, 1, field.neg(1)})
        if self.diagonal_entry != a:
            return False
        inverted = [E, w]
        for entry in self.entries:
            inverted += [entry.representative, *entry.word, entry.conjugator]
        if any(m.field != field for m in inverted):
            return False  # no product mixes fields
        if any(m.det != 1 for m in inverted):  # each inverse exists and lies in SL(2,q)
            return False
        lower = {Mat2(field, 1, 0, r, 1) for r in field.elements()}
        upper = {Mat2(field, 1, r, 0, 1) for r in field.elements()}

        def sweep(diagonal: Mat2) -> set[Mat2]:
            diagonal_inv = diagonal.inverse()
            return {s.mul(diagonal).mul(s.inverse()).mul(diagonal_inv) for s in lower}

        squares = {field.mul(x, x) for x in field.units()}
        nonsquare = min(set(field.units()) - squares, default=None)
        two = field.add(1, 1)
        invariants = set()
        for entry in self.entries:
            rep = entry.representative
            if rep.a != 0:
                return False
            if rep.b != 1 and not (rep.b == nonsquare and rep.d in (two, field.neg(two))):
                return False
            invariants.add((rep.d, rep.b in squares))
            x = rep
            for g in entry.word:
                x = x.mul(g).mul(x.inverse()).mul(g.inverse())
            h = entry.conjugator
            if h.mul(x).mul(h.inverse()) != E:
                return False
        if len(invariants) != len(self.entries):
            return False
        target_sweep = sweep(E)
        if target_sweep != lower:
            return False
        w_inv = w.inverse()
        if {w.mul(comm).mul(w_inv) for comm in target_sweep} != upper:
            return False
        if sweep(Mat2(field, a, 0, 0, field.inv(a))) != lower:
            return False
        return self.verdict

    def to_json_dict(self) -> dict:
        """The report, one class per entry, each with the shared evidence in
        the layout of the enumerating certificate this replaced: u = I, so
        the closure member is diag(a, 1/a), and the closure is SL(2,q).
        Whether its commutators cover the shears is the verdict."""
        a = self.diagonal_entry
        order = self.q**3 - self.q
        shared = {
            "nonzero_corner_witness": list(self.witness.entries()),
            "diagonal_entry": a,
            "unitriangular": [1, 0, 0, 1],
            "closure_member": [a, 0, 0, self.witness.field.inv(a)],
            "closure_order": order,
            "commutators_cover_shears": self.verdict,
        }
        return {
            "q": self.q,
            "group_order": order,
            "verdict": self.verdict,
            "classes": [
                {"representative": list(e.representative.entries()), **shared}
                for e in self.entries
            ],
        }


def class_representatives(field: Field) -> tuple[Mat2, ...]:
    """One representative of each non-scalar conjugacy class of SL(2,q),
    in the canonical form of the module docstring, sorted by code."""
    f = field
    reps = [Mat2(f, 0, 1, f.neg(1), t) for t in f.elements()]
    if f.p != 2:
        b = next(x for x in f.units() if f.pow(x, (f.order - 1) // 2) != 1)
        two = f.add(1, 1)
        reps += [Mat2(f, 0, b, f.neg(f.inv(b)), d) for d in (two, f.neg(two))]
    return tuple(sorted(reps, key=lambda m: m.code))


def _commutator(x: Mat2, g: Mat2) -> Mat2:
    return x.mul(g).mul(x.inverse()).mul(g.inverse())


def _diagonalizer(x: Mat2, m: int) -> Mat2:
    """h in SL(2,q) with h*x*h^-1 = diag(m, 1/m), for x of trace m + 1/m
    with m*m != 1.

    The rows of h are left eigenvectors of x, for m and then 1/m: v*x = e*v
    holds for v = (c, e - a), or, if that is zero, for v = (d - e, -b).  The
    first row is scaled to lead with 1 and the second to make det h = 1, so
    a lower triangular x gets a lower shear."""
    f = x.field
    rows = []
    for e in (m, f.inv(m)):
        v = (x.c, f.sub(e, x.a))
        rows.append(v if v != (0, 0) else (f.sub(x.d, e), f.neg(x.b)))
    (p, r), (s, t) = rows
    lead = f.inv(p if p else r)
    p, r = f.mul(lead, p), f.mul(lead, r)
    scale = f.inv(f.sub(f.mul(p, t), f.mul(r, s)))
    return Mat2(f, p, r, f.mul(scale, s), f.mul(scale, t))


# GF(5)'s words, one per class in code order: [[A, g1], g2] has trace
# 0 = 2 + 3, so it is conjugate to diag(2, 3).  g1 is the lower shear by
# 2/b, for A's upper-right entry b; g2 was found by a search of SL(2,5).
_GF5_WORDS = (
    ((1, 0, 2, 1), (0, 1, 4, 1)),  # (0 1; 4 0)
    ((1, 0, 2, 1), (0, 1, 4, 0)),  # (0 1; 4 1)
    ((1, 0, 2, 1), (0, 1, 4, 0)),  # (0 1; 4 2)
    ((1, 0, 2, 1), (0, 1, 4, 1)),  # (0 1; 4 3)
    ((1, 0, 2, 1), (0, 1, 4, 1)),  # (0 1; 4 4)
    ((1, 0, 1, 1), (0, 1, 4, 0)),  # (0 2; 2 2)
    ((1, 0, 1, 1), (0, 2, 2, 1)),  # (0 2; 2 3)
)


def certify_simplicity(q: int) -> SimplicityCertificate:
    """Certify that every normal closure of a non-scalar matrix is SL(2,q).

    Each class representative is carried by its word to the one target
    E = diag(m, 1/m); E's commutators with the lower shears are all of
    them, and the witness w = (0 1; -1 0) carries those to the upper
    shears, which together generate SL(2,q) (module docstring).  The sweeps
    and w's conjugates are formed once per certificate, so the whole proof
    is O(q) matrix products.  A step that misses raises ``ProofStepFails``.
    """
    if q <= 3:
        raise FieldTooSmall("the argument needs more than 3 field elements")
    f = field_of_order(q)
    reps = class_representatives(f)
    if q == 5:
        m = 2
        words = [tuple(Mat2(f, *g) for g in word) for word in _GF5_WORDS]
    else:
        root = next(x for x in f.units() if f.pow(x, 4) != 1)
        m = f.inv(f.mul(root, root))
        words = [(Mat2(f, root, 0, 0, f.inv(root)),)] * len(reps)
    target = Mat2(f, m, 0, 0, f.inv(m))
    # each lower shear with its inverse, the shear by -r
    lower_shears = [(Mat2(f, 1, 0, r, 1), Mat2(f, 1, 0, f.neg(r), 1)) for r in f.elements()]
    lower = frozenset(shear for shear, _ in lower_shears)
    upper = frozenset(Mat2(f, 1, r, 0, 1) for r in f.elements())

    def sweep(diagonal: Mat2) -> frozenset[Mat2]:
        diagonal_inv = diagonal.inverse()
        return frozenset(
            shear.mul(diagonal).mul(shear_inv).mul(diagonal_inv)
            for shear, shear_inv in lower_shears
        )

    target_sweep = sweep(target)
    if target_sweep != lower:
        raise ProofStepFails(f"the commutators of {target} miss a lower shear")
    w = Mat2(f, 0, 1, f.neg(1), 0)
    w_inv = w.inverse()
    if frozenset(w.mul(comm).mul(w_inv) for comm in target_sweep) != upper:
        raise ProofStepFails(f"{w} misses an upper shear")
    a = next(x for x in f.elements() if x not in (0, 1, f.neg(1)))
    entries = []
    for rep, word in zip(reps, words, strict=True):
        x = rep
        for g in word:
            x = _commutator(x, g)
        h = _diagonalizer(x, m)
        if h.mul(x).mul(h.inverse()) != target:
            raise ProofStepFails(f"the word of {rep} misses {target}")
        entries.append(ClosureCertificate(representative=rep, word=word, conjugator=h))
    return SimplicityCertificate(
        q=q,
        entries=tuple(entries),
        verdict=sweep(Mat2(f, a, 0, 0, f.inv(a))) == lower,
        target=target,
        witness=w,
        diagonal_entry=a,
    )
