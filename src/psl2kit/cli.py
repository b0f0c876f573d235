"""Command-line front end: construction, verification, certification and
search, with deterministic JSON or text reports.

Exit codes: 0 all checks pass, 2 hypotheses fail, 3 some check fails or an
internal invariant breaks, 4 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .fields import NoIrreduciblePolynomial, NoPrimitiveElement
from .fields import MAX_DEGREE, MAX_FIELD_ORDER, check_cap, is_prime
from .groups import OrderBoundExceeded, PermGroup
from .projline import ProjLine
from .psl2 import (
    ProofStepFails,
    certify_simplicity,
    moebius_order_bound,
    psl2_expected_order,
    psl2_perm_group,
)
from .search import (
    SearchInvariantError,
    constrained_search,
    expected_group_count,
    full_search,
)
from .verify import (
    Gf8LabelingFails,
    NoTwistExponent,
    SpecialCaseContradiction,
    build_exceptional,
    classify,
    corollary_check,
    exceptional_report,
    p3_case_check,
)

EXIT_OK = 0
EXIT_HYPOTHESES = 2
EXIT_CHECK_FAILED = 3
EXIT_USAGE = 4

# the package's broken-invariant errors: the computation went wrong, not the input
INVARIANT_ERRORS = (
    Gf8LabelingFails,
    NoIrreduciblePolynomial,
    NoPrimitiveElement,
    NoTwistExponent,
    OrderBoundExceeded,
    ProofStepFails,
    SearchInvariantError,
    SpecialCaseContradiction,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("json", "text"), default="text", help="report format"
    )
    parser.add_argument("--out", default=None, help="write the report to this path")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parsing leaves it as
    it was, so every ``main`` call can share it."""
    parser = _Parser(prog="psl2kit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_classify = sub.add_parser("classify")
    p_classify.add_argument("--p", type=int, required=True)
    p_classify.add_argument(
        "--group",
        required=True,
        help="psl2, exceptional:3, exceptional:5, or a generators file path",
    )
    _common_flags(p_classify)

    p_search = sub.add_parser("search")
    p_search.add_argument("--p", type=int, required=True)
    p_search.add_argument(
        "--mode", choices=("constrained", "full"), default="constrained"
    )
    _common_flags(p_search)

    p_psl2 = sub.add_parser("psl2")
    p_psl2.add_argument("--q", type=int, required=True)
    p_psl2.add_argument(
        "--check", choices=("order", "simplicity", "generation"), required=True
    )
    _common_flags(p_psl2)

    p_corollary = sub.add_parser("corollary")
    p_corollary.add_argument("--p", type=int, required=True)
    _common_flags(p_corollary)

    p_exceptional = sub.add_parser("exceptional")
    p_exceptional.add_argument("--variant", type=int, required=True)
    _common_flags(p_exceptional)

    p_p3 = sub.add_parser("p3")
    _common_flags(p_p3)

    return parser


# --- report emission --------------------------------------------------------


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = _render_text(payload)
    if args.out:
        with open(args.out, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _render_text(payload: dict) -> str:
    lines = []
    for key in sorted(payload):
        if key in ("checks", "groups"):
            continue
        value = payload[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        lines.append(f"{key}: {value}")
    for check in payload.get("checks", ()):
        tag = "PASS" if check["pass"] else "FAIL"
        detail = json.dumps(check["witness"], sort_keys=True)
        lines.append(f"{tag} {check['id']} {detail}")
        if check.get("counterexample"):
            lines.append(
                f"     counterexample: {json.dumps(check['counterexample'], sort_keys=True)}"
            )
    for group in payload.get("groups", ()):
        lines.append("group: " + json.dumps(group, sort_keys=True))
    return "\n".join(lines) + "\n"


# --- group sources ----------------------------------------------------------


def load_generators_file(path: str, p: int) -> PermGroup:
    with open(path, encoding="ascii") as handle:
        try:
            text = handle.read()  # one decode, so the error's offset is the file's
        except UnicodeDecodeError as exc:
            line_no = exc.object[: exc.start].count(b"\n") + 1
            raise ValueError(
                f"generators file is not ASCII: byte {exc.object[exc.start]:#04x} on line {line_no}"
            ) from None
    lines = [line.strip() for line in text.split("\n")]
    lines = [line for line in lines if line]
    if not lines or not lines[0].replace(" ", "").startswith("p="):
        raise ValueError("generators file must start with 'p=<prime>'")
    declared = int(lines[0].split("=", 1)[1])
    if declared != p:
        raise ValueError(f"file declares p={declared} but --p {p} was given")
    line_obj = ProjLine.over_prime(p)
    perms = [line_obj.from_cycles(text) for text in lines[1:]]
    if not perms:
        raise ValueError("generators file lists no permutations")
    # Moebius maps of square determinant generate a subgroup of PSL(2,p),
    # which bounds the order the chain may stop at; any other file gets none
    return PermGroup(perms, order=moebius_order_bound(perms, p))


def _resolve_group(args) -> PermGroup:
    source = args.group
    if source == "psl2":
        return psl2_perm_group(args.p)
    if source.startswith("exceptional:"):
        variant = int(source.split(":", 1)[1])
        if args.p != 7:
            raise ValueError("the exceptional groups exist only at p=7")
        return build_exceptional(variant)
    return load_generators_file(source, args.p)


# --- subcommands ------------------------------------------------------------


def cmd_classify(args) -> int:
    check_cap("field order", args.p, "field cap", MAX_FIELD_ORDER)
    if not is_prime(args.p) or args.p == 2:
        raise ValueError(f"--p must be an odd prime, got {args.p}")
    check_cap("degree", args.p + 1, "degree cap", MAX_DEGREE)  # before any field is built
    group = _resolve_group(args)
    report = classify(group, args.p)
    _emit(report.to_json_dict(), args)
    if report.verdict == "hypotheses-failed":
        return EXIT_HYPOTHESES
    if not report.all_passed():
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_search(args) -> int:
    outcome = full_search(args.p) if args.mode == "full" else constrained_search(args.p)
    expected = expected_group_count(args.p)
    payload = outcome.to_json_dict()
    payload["expected_groups"] = expected
    payload["matches_prediction"] = len(outcome.groups) == expected
    _emit(payload, args)
    return EXIT_OK if payload["matches_prediction"] else EXIT_CHECK_FAILED


def cmd_psl2(args) -> int:
    q = args.q
    check_cap("field order", q, "field cap", MAX_FIELD_ORDER)
    if args.check == "generation" and not is_prime(q):
        raise ValueError("the two-generator claim is checked for prime q")
    group = psl2_perm_group(q)
    payload = {"q": q, "check": args.check}
    if args.check in ("order", "generation"):
        if args.check == "generation":
            payload["generators"] = ["z -> z+1", "z -> -1/z"]
        payload["order"] = group.order()
        payload["expected_order"] = psl2_expected_order(q)
        payload["pass"] = payload["order"] == payload["expected_order"]
    else:
        simple = group.is_simple()
        expected_simple = q > 3
        payload["simple"] = simple
        payload["expected_simple"] = expected_simple
        if q > 3:
            certificate = certify_simplicity(q)
            payload["certificate"] = certificate.to_json_dict()
            payload["certificate_reverified"] = certificate.reverify()
            payload["methods_agree"] = certificate.verdict == simple
        else:
            payload["methods_agree"] = True
        payload["pass"] = (
            simple == expected_simple
            and payload["methods_agree"]
            and payload.get("certificate_reverified", True)
        )
    _emit(payload, args)
    return EXIT_OK if payload["pass"] else EXIT_CHECK_FAILED


def _emit_check(key: str, value: int, result, args) -> int:
    """Report one standalone check under ``{key: value}``."""
    _emit({key: value, "checks": [result.to_json_dict()]}, args)
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def cmd_corollary(args) -> int:
    return _emit_check("p", args.p, corollary_check(args.p), args)


def cmd_exceptional(args) -> int:
    return _emit_check("variant", args.variant, exceptional_report(args.variant), args)


def cmd_p3(args) -> int:
    return _emit_check("p", 3, p3_case_check(), args)


_COMMANDS = {
    "classify": cmd_classify,
    "search": cmd_search,
    "psl2": cmd_psl2,
    "corollary": cmd_corollary,
    "exceptional": cmd_exceptional,
    "p3": cmd_p3,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"psl2kit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except INVARIANT_ERRORS as exc:
        print(f"psl2kit: invariant violated: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
