"""Fuzzed generator files and argv through ``cli.main``, in-process.

Whatever the input, a run ends in exit code 0, 2, 3 or 4, writes at most
one line to stderr, and raises nothing out of ``main``: an exception that
escaped would be a traceback at the command line.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from psl2kit.cli import main

from conftest import line_over

FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# small values that reach every branch cheaply, and values past each cap,
# which are refused before any work
NUMBERS = [
    "-7", "0", "1", "2", "3", "4", "5", "7", "8", "9", "11", "13", "16", "25",
    "10007", "65521", "1000003", str(2**70), "x", "", "1e3", "0x10", " 5",
]
SUBCOMMANDS = {
    "classify": ["--p", "--group"],
    "search": ["--p", "--mode"],
    "psl2": ["--q", "--check"],
    "corollary": ["--p"],
    "exceptional": ["--variant"],
    "p3": [],
}
FLAGS = ["--p", "--q", "--group", "--mode", "--check", "--variant", "--format", "--out", "-h"]


def run_main(argv):
    """(exit code, stderr) of one in-process run; argparse exits by SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def assert_clean_exit(argv):
    code, err = run_main(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert len(err.splitlines()) <= 1, (argv, err)
    assert "Traceback" not in err, (argv, err)


# --- generator files ----------------------------------------------------------


def _disjoint_cycles(points, cuts) -> str:
    """The points, in their drawn order, cut into cycles at ``cuts``."""
    bounds = [0, *sorted(cuts), len(points)]
    return "".join("(" + " ".join(points[i:j]) + ")" for i, j in zip(bounds, bounds[1:]))


@st.composite
def generator_files(draw):
    """(p, file bytes): a header, mostly right, then lines of cycles over
    the line's points, mixed with PSL(2,p)'s own generators; a junk token
    or non-ASCII bytes are sometimes spliced in."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    line = line_over(p)
    points = [*map(str, range(p)), "inf"]
    header = draw(st.sampled_from(
        (f"p={p}",) * 8 + (f"p = {p}", "p=7", "p=", "p=x", str(p), "p=99999999999999999999")
    ))
    drawn = st.builds(_disjoint_cycles, st.permutations(points), st.sets(st.integers(1, p)))
    known = st.sampled_from((str(line.translation(1)), str(line.neg_reciprocal()), "()"))
    lines = draw(st.lists(st.one_of(known, drawn), max_size=4))
    text = "\n".join([header, *lines])
    if draw(st.sampled_from((True,) + (False,) * 5)):
        at = draw(st.integers(0, len(text)))
        junk = draw(st.sampled_from((str(p + 1), "-1", "(", ")", "((", "p=", "x", "\n", "ı")))
        text = text[:at] + junk + text[at:]
    data = text.encode("utf-8")
    if draw(st.sampled_from((True,) + (False,) * 9)):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return p, data


@FUZZ
@given(generator_files(), st.sampled_from(("json", "text")))
def test_fuzzed_generator_files_exit_cleanly(tmp_path, case, fmt):
    p, data = case
    path = tmp_path / "fuzz.gens"
    path.write_bytes(data)
    assert_clean_exit(["classify", "--p", str(p), "--group", str(path), "--format", fmt])


# --- argv ---------------------------------------------------------------------


@st.composite
def argvs(draw, tmp_path):
    """Mostly well-formed commands with drawn values; otherwise a drawn
    token soup.  --out only names paths under ``tmp_path``."""
    values = {
        "--p": st.one_of(st.sampled_from(("3", "5", "7", "11", "13")), st.sampled_from(NUMBERS)),
        "--q": st.one_of(st.sampled_from(("2", "4", "8", "9", "13", "16")), st.sampled_from(NUMBERS)),
        "--variant": st.one_of(st.sampled_from(("3", "5")), st.sampled_from(NUMBERS)),
        "--group": st.sampled_from((
            "psl2", "psl2", "psl2", "exceptional:3", "exceptional:5", "exceptional:4", "exceptional:x",
            "exceptional:", str(tmp_path / "missing.gens"), str(tmp_path), "",
        )),
        "--mode": st.sampled_from(("constrained", "full", "other")),
        "--check": st.sampled_from(("order", "simplicity", "generation", "other")),
        "--format": st.sampled_from(("json", "text", "xml")),
        "--out": st.sampled_from((
            str(tmp_path / "report.out"), str(tmp_path), str(tmp_path / "no" / "such"),
        )),
    }
    if draw(st.sampled_from((True,) + (False,) * 4)):
        pool = st.one_of(
            st.sampled_from((*SUBCOMMANDS, "bogus", *FLAGS)), st.sampled_from(NUMBERS)
        )
        return draw(st.lists(pool, max_size=6))
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for flag in SUBCOMMANDS[command]:
        if draw(st.sampled_from((True,) * 5 + (False,))):  # one in six leaves it out
            argv += [flag, draw(values[flag])]
    for flag in ("--format", "--out"):
        if draw(st.sampled_from((True, False, False))):
            argv += [flag, draw(values[flag])]
    if draw(st.sampled_from((True,) + (False,) * 4)):
        flag = draw(st.sampled_from(FLAGS[:-1]))
        argv += [flag, draw(values[flag])]
    return argv


@FUZZ
@given(st.data())
def test_fuzzed_argv_exit_cleanly(tmp_path, data):
    assert_clean_exit(data.draw(argvs(tmp_path)))
