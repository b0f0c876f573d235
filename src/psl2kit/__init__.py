"""PSL(2) over small finite fields as permutation groups, an executable
classification of the transitive groups of order (p^3-p)/2 on the
projective line containing the translations, and a brute-force search
that rediscovers the dichotomy."""

from .fields import (
    DEFAULT_ENUMERATION_CAP,
    Field,
    QuadraticClasses,
    field_of_order,
    primitive_root,
    quadratic_classes,
)
from .groups import ConjugacyClass, PermGroup, closure_images
from .projline import ProjLine
from .psl2 import (
    Mat2,
    SimplicityCertificate,
    certify_simplicity,
    psl2_expected_order,
    psl2_perm_group,
)
from .search import SearchOutcome, constrained_search, full_search
from .verify import (
    CheckResult,
    StabilizerDecomposition,
    VerificationReport,
    build_exceptional,
    classify,
    corollary_check,
    decompose_stabilizers,
    p3_case_check,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConjugacyClass",
    "DEFAULT_ENUMERATION_CAP",
    "Field",
    "Mat2",
    "PermGroup",
    "ProjLine",
    "QuadraticClasses",
    "SearchOutcome",
    "SimplicityCertificate",
    "StabilizerDecomposition",
    "VerificationReport",
    "build_exceptional",
    "classify",
    "closure_images",
    "constrained_search",
    "corollary_check",
    "decompose_stabilizers",
    "field_of_order",
    "full_search",
    "p3_case_check",
    "primitive_root",
    "certify_simplicity",
    "psl2_expected_order",
    "psl2_perm_group",
    "quadratic_classes",
]
