import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from psl2kit import cli, fields, psl2, search
from psl2kit.cli import main
from psl2kit.groups import PermGroup
from psl2kit.projline import cycle_notation
from psl2kit.psl2 import psl2_perm_group
from psl2kit.verify import Gf8LabelingFails, _gf8_maps


GOLDEN_DIR = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_classify_psl2(capsys):
    code, out = run_cli(capsys, "classify", "--p", "7", "--group", "psl2", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "a"
    assert report["witness"] == "(0 inf)(1 6)(2 3)(4 5)"
    assert all(c["pass"] for c in report["checks"])


def test_classify_exceptional(capsys):
    code, out = run_cli(
        capsys, "classify", "--p", "7", "--group", "exceptional:3", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "b"
    assert report["witness"] == "(0 inf)(1 3)(2 6)(4 5)"


def test_classify_json_deterministic(capsys):
    _, first = run_cli(capsys, "classify", "--p", "5", "--group", "psl2", "--format", "json")
    _, second = run_cli(capsys, "classify", "--p", "5", "--group", "psl2", "--format", "json")
    assert first == second


def test_classify_text_matches_json_verdicts(capsys):
    _, text = run_cli(capsys, "classify", "--p", "5", "--group", "psl2")
    _, raw = run_cli(capsys, "classify", "--p", "5", "--group", "psl2", "--format", "json")
    report = json.loads(raw)
    for check in report["checks"]:
        tag = "PASS" if check["pass"] else "FAIL"
        assert f"{tag} {check['id']}" in text
    assert f"verdict: {report['verdict']}" in text


def test_classify_generators_file(capsys, tmp_path):
    group = psl2_perm_group(7)
    path = tmp_path / "psl2_7.gens"
    lines = ["p=7"] + [cycle_notation(g) for g in group.generators]
    path.write_text("\n".join(lines) + "\n")
    code, out = run_cli(
        capsys, "classify", "--p", "7", "--group", str(path), "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "a"


def test_classify_translations_only_fails_hypotheses(capsys, tmp_path):
    path = tmp_path / "translations.gens"
    path.write_text("p=7\n(0 1 2 3 4 5 6)\n")
    code, out = run_cli(
        capsys, "classify", "--p", "7", "--group", str(path), "--format", "json"
    )
    assert code == 2
    assert json.loads(out)["verdict"] == "hypotheses-failed"


def test_classify_input_errors(capsys, tmp_path):
    code, _ = run_cli(capsys, "classify", "--p", "9", "--group", "psl2")
    assert code == 4
    code, _ = run_cli(capsys, "classify", "--p", "7", "--group", str(tmp_path / "missing"))
    assert code == 4
    bad = tmp_path / "bad.gens"
    bad.write_text("q=7\n(0 1)\n")
    code, _ = run_cli(capsys, "classify", "--p", "7", "--group", str(bad))
    assert code == 4
    mismatched = tmp_path / "mismatch.gens"
    mismatched.write_text("p=5\n(0 1)\n")
    code, _ = run_cli(capsys, "classify", "--p", "7", "--group", str(mismatched))
    assert code == 4
    code, _ = run_cli(capsys, "classify", "--p", "11", "--group", "exceptional:3")
    assert code == 4


def test_non_ascii_generators_file_is_one_line(capsys, tmp_path):
    path = tmp_path / "accent.gens"
    path.write_bytes("p=7\n(0 1)\n(2 \u00e9)\n".encode("utf-8"))
    assert main(["classify", "--p", "7", "--group", str(path)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "psl2kit: error: generators file is not ASCII: byte 0xc3 on line 3"
    ]


def test_search_command(capsys):
    code, out = run_cli(
        capsys, "search", "--p", "7", "--mode", "full", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["candidates_examined"] == 720
    assert len(payload["groups"]) == 3
    assert payload["matches_prediction"] is True
    code, out = run_cli(capsys, "search", "--p", "5", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["groups"]) == 1


def test_search_rejects_bad_p(capsys):
    code, _ = run_cli(capsys, "search", "--p", "9")
    assert code == 4
    code, _ = run_cli(capsys, "search", "--p", "13", "--mode", "full")
    assert code == 4


def test_search_invariant_error_exits_3_without_traceback(capsys, monkeypatch):
    # drop the square scalings: the base subgroup then has the wrong order
    monkeypatch.setattr(search, "_base_generators", lambda line, p: [line.translation(1)])
    code = main(["search", "--p", "5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "psl2kit: invariant violated: SearchInvariantError: base subgroup has order 5\n"


def test_missing_irreducible_polynomial_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(fields, "poly_is_irreducible", lambda coeffs, p: False)
    fields.field_of_order.cache_clear()  # else GF(8) comes from an earlier test
    code = main(["psl2", "--q", "8", "--check", "order"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("psl2kit: invariant violated: NoIrreduciblePolynomial: ")


def test_gf8_maps_that_miss_z_plus_1_exit_3(capsys, monkeypatch):
    # x * 1 comes out as 1 in GF(8), so e -> xe sends 0 to 0, not to 1
    real = fields.Field.mul

    def forged(self, a, b):
        return 1 if (self.order, a, b) == (8, 2, 1) else real(self, a, b)

    monkeypatch.setattr(fields.Field, "mul", forged)
    with pytest.raises(Gf8LabelingFails):
        _gf8_maps(3)
    code = main(["exceptional", "--variant", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "psl2kit: invariant violated: Gf8LabelingFails: "
        "x and squaring modulo (1, 1, 0, 1) are not z+1 and 2z\n"
    )


def test_every_runtime_invariant_maps_to_exit_3():
    defined = {
        cls
        for name in ("fields", "projline", "groups", "psl2", "verify", "search", "cli")
        for _, cls in inspect.getmembers(
            importlib.import_module(f"psl2kit.{name}"), inspect.isclass
        )
        if issubclass(cls, RuntimeError) and cls.__module__.startswith("psl2kit.")
    }
    assert defined == set(cli.INVARIANT_ERRORS)


def test_certificate_step_that_misses_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(psl2, "_diagonalizer", lambda x, m: psl2.mat_identity(x.field))
    assert main(["psl2", "--q", "7", "--check", "simplicity"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("psl2kit: invariant violated: ProofStepFails: the word of ")
    assert len(captured.err.splitlines()) == 1


def test_forged_order_bound_exits_3(capsys, monkeypatch, tmp_path):
    # a bound the orbit product passes without equalling it is refuted by
    # the chain, whether the construction or the loader supplied it
    monkeypatch.setattr(psl2, "psl2_expected_order", lambda q: 167)
    assert main(["psl2", "--q", "7", "--check", "order"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("psl2kit: invariant violated: OrderBoundExceeded: orbit product ")
    assert captured.err.endswith(" exceeds the proven order 167\n")
    monkeypatch.undo()
    path = tmp_path / "psl2_7.gens"
    path.write_text("p=7\n(0 1 2 3 4 5 6)\n(0 inf)(1 6)(2 3)(4 5)\n")
    monkeypatch.setattr(cli, "moebius_order_bound", lambda gens, p: 167)
    assert main(["classify", "--p", "7", "--group", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("psl2kit: invariant violated: OrderBoundExceeded: ")


@pytest.mark.parametrize(
    "cycles,bound",
    [
        (["(0 1 2 3 4 5 6)", "(0 inf)(1 6)(2 3)(4 5)"], 168),  # z+1, -1/z
        (["(0 1 2 3 4 5 6)", "(1 3 2 6 4 5)"], None),  # z+1, 3z: PGL(2,7)'s affine group
        (["(0 1 2 3 4 5 6)", "(0 inf)(1 3)(2 6)(4 5)"], None),  # exceptional:3's generators
    ],
)
def test_generators_file_bounds_its_chain_only_for_moebius_maps(
    capsys, monkeypatch, tmp_path, cycles, bound
):
    # Moebius maps of square determinant generate a subgroup of PSL(2,p):
    # the loader passes its order to the chain, and any other file no bound
    path = tmp_path / "g.gens"
    path.write_text("\n".join(["p=7", *cycles]) + "\n")
    orders = []
    real = cli.PermGroup

    def spy(generators, **kwargs):
        orders.append(kwargs.get("order"))
        return real(generators, **kwargs)

    monkeypatch.setattr(cli, "PermGroup", spy)
    group = cli.load_generators_file(str(path), 7)
    assert orders == [bound]
    assert group.order() == (168 if bound else PermGroup(group.generators).order())


def test_shared_parser_matches_fresh_processes(capsys):
    """main reuses one parser per process; a run of calls, a usage error
    among them, must each match the same call in a fresh interpreter."""
    runs = [
        ["classify", "--p", "7", "--group", "psl2", "--format", "json"],
        ["search", "--p", "5", "--format", "json"],
        ["classify", "--p", "seven", "--group", "psl2"],
        ["classify", "--p", "7", "--group", "psl2", "--format", "json"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    codes = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "psl2kit.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [0, 0, 4, 0]
    assert cli.build_parser() is cli.build_parser()


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "psl2kit", "p3", "--format", "json"],
        capture_output=True, text=True, env=env, check=False,
    )
    assert (run.returncode, run.stderr) == (0, "")
    assert json.loads(run.stdout)["checks"]


def test_benchmark_tracer_installs_and_traces_a_job():
    """``benchmarks/tracing.py`` wraps package functions and methods by
    name, so one that is renamed or deleted breaks ``install``; this runs it
    on a fresh interpreter, as the benchmark does, with one simplicity job."""
    root = Path(cli.__file__).parents[2]
    script = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {str(root / 'benchmarks')!r})",
        "import tracing",
        "from psl2kit import cli",
        "rec = tracing.Recorder()",
        "tracing.install(rec)",
        "code = cli.main(['psl2', '--q', '7', '--check', 'simplicity'])",
        "counts = {name: cell[0] for name, cell in rec.counters.items()}",
        "print(json.dumps({'code': code, 'names': rec.names, 'counts': counts}))",
    ])
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=False,
    )
    assert (run.returncode, run.stderr) == (0, "")
    traced = json.loads(run.stdout.splitlines()[-1])
    assert traced["code"] == 0
    assert {"cli.main", "psl2.certify", "psl2.reverify", "groups.is_simple"} <= set(traced["names"])
    assert traced["counts"]["psl2.mat_mul_calls"] > 0


HUGE_PRIME = "1000000000000000003"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--p", HUGE_PRIME, "--group", "psl2"],
        ["search", "--p", HUGE_PRIME],
        ["corollary", "--p", HUGE_PRIME],
        ["psl2", "--q", HUGE_PRIME, "--check", "order"],
        ["psl2", "--q", HUGE_PRIME, "--check", "generation"],
    ],
)
def test_huge_order_exits_4_before_trial_division(argv):
    """A size cap fires before any primality test or factoring, which would
    run for minutes on a 19-digit number."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "psl2kit", *argv],
        capture_output=True, text=True, env=env, check=False, timeout=10,
    )
    assert run.returncode == 4
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith("psl2kit: error: ") and "Traceback" not in run.stderr


def _gens_file(tmp_path, p):
    """A generators file holding z -> z+1 and z -> -1/z over Z/p."""
    shift = "(" + " ".join(str(x) for x in range(p)) + ")"
    pairs = {frozenset((x, pow(p - x, p - 2, p))) for x in range(1, p)}
    swaps = "".join(
        f"({min(pair)} {max(pair)})" if len(pair) == 2 else "" for pair in sorted(pairs, key=min)
    )
    path = tmp_path / f"p{p}.gens"
    path.write_text(f"p={p}\n{shift}\n(0 inf){swaps}\n")
    return str(path)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["corollary", "--p", "8209"], "degree 8210 exceeds degree cap 8192"),
        (["classify", "--p", "65521", "--group", "psl2"], "degree 65522 exceeds degree cap 8192"),
        (["psl2", "--q", "65521", "--check", "order"], "degree 65522 exceeds degree cap 8192"),
        # 8209 is the first prime whose line has more points than the degree cap
        (["classify", "--p", "8209", "--group", "GENS"], "degree 8210 exceeds degree cap 8192"),
        # the certificate builds no chain, but the command's own simplicity
        # check does
        (["psl2", "--q", "8209", "--check", "simplicity"], "degree 8210 exceeds degree cap 8192"),
    ],
)
def test_caps_exit_4_with_one_line(tmp_path, argv, message):
    """Every cap is checked before the chain or the matrices it bounds are
    built, so each run is refused quickly, with one line naming the cap."""
    argv = [_gens_file(tmp_path, 8209) if a == "GENS" else a for a in argv]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "psl2kit", *argv],
        capture_output=True, text=True, env=env, check=False, timeout=10,
    )
    assert run.returncode == 4
    assert run.stderr.splitlines() == [f"psl2kit: error: {message}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--p", "65521", "--group", "psl2"],
        ["psl2", "--q", "65521", "--check", "order"],
        ["psl2", "--q", "65521", "--check", "simplicity"],
    ],
)
def test_degree_cap_refuses_before_any_field_is_built(monkeypatch, capsys, argv):
    built = []
    monkeypatch.setattr(psl2, "field_of_order", lambda q: built.append(q))
    monkeypatch.setattr(fields.Field, "__init__", lambda self, *a, **k: built.append(a))
    assert main(argv) == 4
    assert capsys.readouterr().err == "psl2kit: error: degree 65522 exceeds degree cap 8192\n"
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [
        ["corollary", "--p", "139"],
        ["corollary", "--p", "257"],
        ["classify", "--p", "199", "--group", "psl2"],
        ["psl2", "--q", "1009", "--check", "order"],
    ],
    ids=["corollary-139", "corollary-257", "classify-199", "psl2-order-1009"],
)
def test_prime_chains_run_past_the_enumeration_cap(capsys, argv):
    """PSL(2,p) for prime p is a chain that enumerates nothing, and the
    corollary holds one generator per Sylow subgroup, so only the degree cap
    bounds them."""
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0  # every check passed
    assert json.loads(out)


@pytest.mark.parametrize("q", [32, 37, 64, 81, 256, 257, 343])
def test_simplicity_runs_past_the_enumeration_cap(capsys, q):
    """The certificate builds no group, so only the field cap bounds it, and
    the command's own chain only the degree cap; 343 is an odd-characteristic
    extension."""
    code, out = run_cli(capsys, "psl2", "--q", str(q), "--check", "simplicity", "--format", "json")
    payload = json.loads(out)
    assert code == 0 and payload["pass"] is True
    assert payload["certificate_reverified"] is True and payload["methods_agree"] is True
    assert len(payload["certificate"]["classes"]) == (q + 2 if q % 2 else q)


def test_psl2_order_command(capsys):
    code, out = run_cli(capsys, "psl2", "--q", "7", "--check", "order", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 168 and payload["pass"] is True
    code, out = run_cli(capsys, "psl2", "--q", "8", "--check", "order", "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 504


def test_psl2_simplicity_command(capsys):
    code, out = run_cli(
        capsys, "psl2", "--q", "8", "--check", "simplicity", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["simple"] is True
    assert payload["methods_agree"] is True
    assert payload["certificate"]["verdict"] is True
    assert payload["certificate_reverified"] is True
    code, out = run_cli(
        capsys, "psl2", "--q", "3", "--check", "simplicity", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["simple"] is False and payload["pass"] is True
    assert "certificate" not in payload


def test_psl2_generation_command(capsys):
    code, out = run_cli(
        capsys, "psl2", "--q", "11", "--check", "generation", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["order"] == 660
    code, _ = run_cli(capsys, "psl2", "--q", "8", "--check", "generation")
    assert code == 4


def test_psl2_field_too_large(capsys):
    # 32 is the smallest prime power whose PSL(2,q) exceeds the enumeration
    # cap; on the line it is a chain of generators, which the cap does not bound
    for q, order in ((32, 32736), (64, 262080)):
        code, out = run_cli(capsys, "psl2", "--q", str(q), "--check", "order", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == payload["expected_order"] == order


def test_corollary_command(capsys):
    code, out = run_cli(capsys, "corollary", "--p", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    check = payload["checks"][0]
    assert check["pass"] is True
    assert check["witness"]["sylow_count"] == 8
    # the corollary holds p + 1 Sylow generators, not their p(p + 1) elements,
    # so p = 149 is no longer refused by the enumeration cap
    code, out = run_cli(capsys, "corollary", "--p", "149", "--format", "json")
    assert code == 0
    assert json.loads(out)["checks"][0]["witness"]["sylow_count"] == 150


@pytest.mark.parametrize("p", ["4", "8", "9"])
def test_corollary_rejects_prime_powers(capsys, p):
    code = main(["corollary", "--p", p])
    err = capsys.readouterr().err
    assert code == 4
    assert err.splitlines() == [f"psl2kit: error: the corollary needs a prime p, got {p}"]


def test_exceptional_command(capsys):
    code, out = run_cli(capsys, "exceptional", "--variant", "5", "--format", "json")
    assert code == 0
    check = json.loads(out)["checks"][0]
    assert check["witness"]["normal8_order"] == 8
    assert check["witness"]["lambda"] == "(0 inf)(1 5)(2 3)(4 6)"
    code, _ = run_cli(capsys, "exceptional", "--variant", "4")
    assert code == 4


def test_p3_command(capsys):
    code, out = run_cli(capsys, "p3", "--format", "json")
    assert code == 0
    check = json.loads(out)["checks"][0]
    assert check["pass"] is True
    assert check["witness"]["contains_swap"] == "(0 inf)(1 2)"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(
        capsys,
        "p3",
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["checks"][0]["pass"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--p", "7", "--group", "psl2"],
        ["search", "--p", "5"],
        ["psl2", "--q", "7", "--check", "order"],
        ["corollary", "--p", "7"],
        ["exceptional", "--variant", "3"],
        ["p3"],
    ],
    ids=["classify", "search", "psl2", "corollary", "exceptional", "p3"],
)
def test_max_order_only_where_read(capsys, argv):
    # no subcommand overrides the enumeration cap: it has one source, fields.py
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--max-order", "1"])
    assert exc.value.code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "psl2kit: error: unrecognized arguments: --max-order 1"
    ]


def test_psl2_generation_at_q2(capsys):
    # <z+1, -1/z> is PSL(2,2), of order 6 = psl2_expected_order(2)
    code, out = run_cli(capsys, "psl2", "--q", "2", "--check", "generation", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == payload["expected_order"] == 6
    assert payload["pass"] is True


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 4
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 4


GOLDEN_REPORTS = [
    ("psl2_q8_simplicity", ["psl2", "--q", "8", "--check", "simplicity"]),
    ("psl2_q9_simplicity", ["psl2", "--q", "9", "--check", "simplicity"]),
    ("psl2_q13_simplicity", ["psl2", "--q", "13", "--check", "simplicity"]),
    ("classify_p13_psl2", ["classify", "--p", "13", "--group", "psl2"]),
    ("classify_p7_exceptional3", ["classify", "--p", "7", "--group", "exceptional:3"]),
    ("psl2_q4_simplicity", ["psl2", "--q", "4", "--check", "simplicity"]),
    ("psl2_q5_simplicity", ["psl2", "--q", "5", "--check", "simplicity"]),
    ("psl2_q7_simplicity", ["psl2", "--q", "7", "--check", "simplicity"]),
    ("psl2_q11_simplicity", ["psl2", "--q", "11", "--check", "simplicity"]),
    ("classify_p11_psl2", ["classify", "--p", "11", "--group", "psl2"]),
    ("classify_p17_psl2", ["classify", "--p", "17", "--group", "psl2"]),
    ("classify_p7_exceptional5", ["classify", "--p", "7", "--group", "exceptional:5"]),
    # these files hold conjugated PSL(2,p) generators; --group psl2 gives the
    # same reports (the last two cases)
    ("classify_p29_gens",
     ["classify", "--p", "29", "--group", str(GOLDEN_DIR / "classify_p29.gens")]),
    ("classify_p31_gens",
     ["classify", "--p", "31", "--group", str(GOLDEN_DIR / "classify_p31.gens")]),
    ("corollary_p5", ["corollary", "--p", "5"]),
    ("corollary_p7", ["corollary", "--p", "7"]),
    ("corollary_p11", ["corollary", "--p", "11"]),
    ("corollary_p13", ["corollary", "--p", "13"]),
    ("exceptional_variant3", ["exceptional", "--variant", "3"]),
    ("exceptional_variant5", ["exceptional", "--variant", "5"]),
    ("p3", ["p3"]),
    ("psl2_q16_simplicity", ["psl2", "--q", "16", "--check", "simplicity"]),
    ("psl2_q17_simplicity", ["psl2", "--q", "17", "--check", "simplicity"]),
    ("psl2_q25_simplicity", ["psl2", "--q", "25", "--check", "simplicity"]),
    ("psl2_q31_simplicity", ["psl2", "--q", "31", "--check", "simplicity"]),
    ("corollary_p17", ["corollary", "--p", "17"]),
    ("corollary_p31", ["corollary", "--p", "31"]),
    ("classify_p29_gens", ["classify", "--p", "29", "--group", "psl2"]),
    ("classify_p31_gens", ["classify", "--p", "31", "--group", "psl2"]),
    # past p = 31 the group exceeds the enumeration cap, which classify does
    # not need: it enumerates no more than the stabilizer of {0, inf}
    *(
        (f"classify_p{p}_gens",
         ["classify", "--p", str(p), "--group", str(GOLDEN_DIR / f"classify_p{p}.gens")])
        for p in (37, 41, 43)
    ),
    *(
        (f"classify_p{p}_gens", ["classify", "--p", str(p), "--group", "psl2"])
        for p in (37, 41, 43)
    ),
    # the corollary holds one generator per Sylow subgroup, not the group
    ("corollary_p61", ["corollary", "--p", "61"]),
    # with these, every prime power 3 < q <= 31 has a simplicity golden
    *(
        (f"psl2_q{q}_simplicity", ["psl2", "--q", str(q), "--check", "simplicity"])
        for q in (19, 23, 27, 29)
    ),
]


@pytest.mark.parametrize("name,argv", GOLDEN_REPORTS)
def test_golden_reports(capsys, name, argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


# the search goldens are reports of the search itself; the command adds the
# predicted group count to them
SEARCH_GOLDENS = [
    (path.stem, ["search", "--p", p, "--mode", mode])
    for path in sorted(GOLDEN_DIR.glob("search_p*.json"))
    for p, mode in [path.stem.removeprefix("search_p").split("_")]
]


def test_sweep_lists_every_golden_command():
    # tools/sweep.py hashes the reports of its commands to compare two
    # commits; every golden's command is among them, with golden paths
    # relative to the repository root.  Nothing is run here.
    root = GOLDEN_DIR.parent.parent
    spec = importlib.util.spec_from_file_location("sweep", root / "tools" / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    swept = {tuple(argv) for argv in sweep.commands()}
    for _, argv in GOLDEN_REPORTS + SEARCH_GOLDENS:
        relative = [str(Path(a).relative_to(root)) if a.endswith(".gens") else a for a in argv]
        assert tuple(relative) in swept


def test_no_command_reaches_the_class_scan_or_the_set_conjugation(monkeypatch, capsys):
    """With the conjugacy class scan and the Sylow scan, which ends with the
    conjugation of element sets, refused, every golden's command still exits
    0 with its golden bytes: no command needs them."""
    def refuse(self, *args):
        raise AssertionError("a command reached a scan no command needs")

    for name in ("conjugacy_classes", "sylow_subgroups"):
        monkeypatch.setattr(PermGroup, name, refuse)
    cases = GOLDEN_REPORTS + SEARCH_GOLDENS
    assert {name for name, _ in cases} == {path.stem for path in GOLDEN_DIR.glob("*.json")}
    for name, argv in cases:
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert (name, code) == (name, 0)
        if argv[0] == "search":
            payload = json.loads(out)
            assert payload.pop("matches_prediction") is True
            del payload["expected_groups"]
            out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert out == (GOLDEN_DIR / f"{name}.json").read_text(), name
