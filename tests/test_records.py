"""The package's records are named tuples: each keeps its field names and
order, its defaults, positional and keyword construction, ``_replace``,
value equality and hashing, and refuses assignment."""

import copy

import pytest

from psl2kit.fields import Field, QuadraticClasses
from psl2kit.groups import ConjugacyClass
from psl2kit.projline import ProjLine
from psl2kit.psl2 import (
    ClosureCertificate,
    Mat2,
    SimplicityCertificate,
    SL2Group,
    certify_simplicity,
)
from psl2kit.search import FoundGroup, SearchOutcome
from psl2kit.verify import (
    CheckResult,
    StabilizerDecomposition,
    VerificationReport,
)

LINE = ProjLine(Field(5))
SHIFT, SCALE = LINE.translation(1), LINE.scaling(4)
CERTIFICATE = certify_simplicity(5)
FOUND = FoundGroup("0" * 64, 60, "a", True)
CHECK = CheckResult("hypotheses", True, {"order": 60})

# record, its field names in order, its defaults, one value per field, and
# whether it hashes (a record holding a dict does not)
RECORDS = [
    (QuadraticClasses, "p squares nonsquares", {}, (7, (1, 2, 4), (3, 5, 6)), True),
    (ConjugacyClass, "representative size", {}, (SHIFT, 5), True),
    (Mat2, "field a b c d", {}, (Field(5), 1, 2, 3, 0), True),
    (SL2Group, "field", {}, (Field(5),), True),
    (ClosureCertificate, "representative word conjugator", {},
     tuple(CERTIFICATE.entries[0]), True),
    (SimplicityCertificate,
     "q entries verdict target witness diagonal_entry",
     {}, tuple(CERTIFICATE), True),
    (FoundGroup, "element_set_sha256 order verdict contains_neg_reciprocal", {}, tuple(FOUND),
     True),
    (SearchOutcome, "p mode candidates_examined base_subgroup_order groups", {},
     (5, "constrained", 3, 10, (FOUND,)), True),
    (CheckResult, "id passed witness counterexample", {"counterexample": None},
     ("hypotheses", False, {"order": 60}, {"order": 61}), False),
    (StabilizerDecomposition, "fixing swapping", {}, ((SCALE,), (SHIFT,)), True),
    (VerificationReport, "p verdict witness checks", {}, (5, "a", "w", (CHECK,)), False),
]
IDS = [record.__name__ for record, *_ in RECORDS]


@pytest.mark.parametrize("record, names, defaults, values, hashes", RECORDS, ids=IDS)
def test_record_semantics(record, names, defaults, values, hashes):
    names = tuple(names.split())
    assert record._fields == names
    assert record._field_defaults == defaults
    x = record(*values)
    assert tuple(x) == values
    assert record(**dict(zip(names, values))) == x
    for name, value in zip(names, values):
        assert getattr(x, name) is value
    # the defaults fill the trailing fields
    required = values[: len(names) - len(defaults)]
    assert tuple(record(*required)) == required + tuple(defaults.values())
    # equal values, even through distinct objects, are equal records
    y = record(*copy.deepcopy(values))
    assert x == y and not x != y
    if hashes:
        assert hash(x) == hash(y) and len({x, y}) == 1
    else:
        with pytest.raises(TypeError):
            hash(x)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, values[0])
        with pytest.raises(AttributeError):
            delattr(x, name)
    # only the two records with cached properties keep an instance dict
    if record not in (QuadraticClasses, SL2Group):
        assert record.__slots__ == ()
        with pytest.raises(AttributeError):
            x.other = 1
    # _replace changes one field and keeps the type and the others
    last = names[-1]
    new = 4 if record is Mat2 else object()
    z = x._replace(**{last: new})
    assert type(z) is record and getattr(z, last) is new
    assert tuple(z)[:-1] == values[:-1] and z != x
    assert x._replace() == x


def test_quadratic_classes_cached_properties():
    x = QuadraticClasses(7, (1, 2, 4), (3, 5, 6))
    assert x._square_set == frozenset({1, 2, 4}) and x._square_set is x._square_set
    assert x.square_generator == 2  # 3 is the smallest primitive root mod 7
    assert [x.is_square(a) for a in range(1, 7)] == [True, True, False, True, False, False]
    # cached values are no tuple items: equality and hash ignore them
    assert x == QuadraticClasses(7, (1, 2, 4), (3, 5, 6))
    assert hash(x) == hash(QuadraticClasses(7, (1, 2, 4), (3, 5, 6)))
    assert "_square_set" not in x._replace(p=7).__dict__


def test_sl2_group_cached_properties():
    f = Field(5)
    group = SL2Group(f)
    assert len(group.codes) == 120 and group.codes is group.codes
    assert group == SL2Group(Field(5)) and hash(group) == hash(SL2Group(Field(5)))
