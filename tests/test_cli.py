import json
from pathlib import Path

import pytest

from psl2kit.cli import main
from psl2kit.psl2 import psl2_perm_group


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
    lines = ["p=7"] + [g.cycle_notation() for g in group.generators]
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
    code, _ = run_cli(capsys, "search", "--p", "11", "--mode", "full")
    assert code == 4


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
    code, _ = run_cli(capsys, "psl2", "--q", "16", "--check", "order")
    assert code == 4


def test_corollary_command(capsys):
    code, out = run_cli(capsys, "corollary", "--p", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    check = payload["checks"][0]
    assert check["pass"] is True
    assert check["witness"]["sylow_count"] == 8
    code, _ = run_cli(capsys, "corollary", "--p", "17")
    assert code == 4


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


def test_max_order_flag(capsys):
    # a cap that the classification chain cannot respect is an input error
    code, _ = run_cli(
        capsys, "classify", "--p", "7", "--group", "psl2", "--max-order", "100"
    )
    assert code == 4


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 4
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 4


@pytest.mark.parametrize(
    "name,argv",
    [
        ("psl2_q8_simplicity", ["psl2", "--q", "8", "--check", "simplicity"]),
        ("psl2_q9_simplicity", ["psl2", "--q", "9", "--check", "simplicity"]),
        ("psl2_q13_simplicity", ["psl2", "--q", "13", "--check", "simplicity"]),
        ("classify_p13_psl2", ["classify", "--p", "13", "--group", "psl2"]),
        ("classify_p7_exceptional3", ["classify", "--p", "7", "--group", "exceptional:3"]),
    ],
)
def test_golden_reports(capsys, name, argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()
