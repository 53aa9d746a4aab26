import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from omlkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_check_lattice_pass():
    res = run("check", "lattice", str(FIXTURES / "mo2_lattice.json"))
    assert res.exit_code == 0, res.output


def test_check_lattice_violations_exit_1():
    res = run("check", "lattice",
              str(FIXTURES / "chain4_identity_ortho.json"))
    assert res.exit_code == 1


def test_check_lattice_bad_json_exit_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run("check", "lattice", str(p)).exit_code == 2


def test_check_lattice_missing_file_exit_2():
    assert run("check", "lattice", "/nonexistent.json").exit_code == 2


def test_check_quantifier_pass():
    res = run("check", "quantifier", str(FIXTURES / "quantifier_mo2.json"))
    assert res.exit_code == 0


def test_check_cylindric_weak_vs_full():
    fx = str(FIXTURES / "tensor33_cylindric.json")
    assert run("check", "cylindric", fx).exit_code == 0
    res = run("--json", "-", "check", "cylindric", "--mode", "full", fx)
    assert res.exit_code == 1
    report = json.loads(res.output)
    assert not report["checks"]["C5"]["ok"]
    assert report["checks"]["C5"]["witness"] is not None


@pytest.mark.parametrize("kind, fixture", [
    ("quantifier", "quantifier_mo2.json"),
    ("cylindric", "classical_cylindric_2x2.json"),
])
def test_lattice_file_is_read_beside_the_input(tmp_path, monkeypatch, kind,
                                               fixture):
    # "lattice": "<file>" names a file in the input file's directory, not
    # in the current one
    data = json.loads((FIXTURES / fixture).read_text())
    inline = run("--json", "-", "check", kind, str(FIXTURES / fixture))
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "lat.json").write_text(json.dumps(data["lattice"]))
    data["lattice"] = "lat.json"
    (tmp_path / "data" / "in.json").write_text(json.dumps(data))
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    for path in (str(tmp_path / "data" / "in.json"),
                 os.path.join("..", "data", "in.json")):
        res = run("--json", "-", "check", kind, path)
        assert res.exit_code == inline.exit_code, res.output
        assert json.loads(res.output)["checks"] == \
            json.loads(inline.output)["checks"]
    monkeypatch.chdir(tmp_path / "data")
    assert run("check", kind, "in.json").exit_code == inline.exit_code


def test_check_frame_pass_and_malformed():
    assert run("check", "frame",
               str(FIXTURES / "frame_monadic.json")).exit_code == 0
    assert run("check", "frame",
               str(FIXTURES / "frame_bad_perp.json")).exit_code == 2


def test_check_frame_names_first_failing_witnesses(tmp_path):
    asym = tmp_path / "asym.json"
    asym.write_text(json.dumps({"points": [0, 1, 2], "perp": [[0, 1], [2, 1]]}))
    res = run("--json", "-", "check", "frame", str(asym))
    assert res.exit_code == 2
    assert json.loads(res.output)["checks"]["symmetric"] == \
        {"ok": False, "witness": [0, 1]}
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"points": [0, 1, 2], "perp": [],
                                 "R": {"0": [[0, 0], [1, 1], [2, 2],
                                             [0, 1], [1, 2]]}}))
    res = run("--json", "-", "check", "frame", str(chain))
    assert res.exit_code == 1
    assert json.loads(res.output)["checks"]["M2"] == \
        {"ok": False, "witness": ["not_transitive", [0, 1, 2]]}


def test_check_algebra():
    assert run("check", "algebra",
               str(FIXTURES / "algebra_diagonal.json")).exit_code == 0


def test_size_guard_exit_2(tmp_path):
    fx = str(FIXTURES / "mo2_lattice.json")
    assert run("--max-size", "3", "check", "lattice", fx).exit_code == 2


def test_repro_commands_pass():
    for name in ("q6", "c5", "diag", "bell", "commuting-square",
                 "expectation"):
        res = run("repro", name)
        assert res.exit_code == 0, (name, res.output)


def test_repro_q6_reports_witness():
    res = run("--json", "-", "repro", "q6")
    report = json.loads(res.output)
    assert report["found"] and report["lhs"] == "0"


def test_search_q6_found_and_boolean_exhausted():
    res = run("--json", "-", "search", "q6", "--max-blocks", "2")
    rep = json.loads(res.output)
    assert res.exit_code == 0 and rep["found"]
    res = run("--json", "-", "search", "q6", "--max-blocks", "2",
              "--boolean-only")
    rep = json.loads(res.output)
    assert res.exit_code == 0 and not rep["found"]


def test_search_bounds_refused():
    assert run("search", "q6", "--max-blocks", "99").exit_code == 2
    assert run("search", "expectation-gap", "--dim", "99").exit_code == 2


def test_search_expectation_gap():
    res = run("--json", "-", "--seed", "3", "search", "expectation-gap",
              "--dim", "2")
    rep = json.loads(res.output)
    assert res.exit_code == 0
    assert not rep["gap_found"]


def test_convert_greechie():
    res = run("convert", str(FIXTURES / "two_blocks.greechie"))
    assert res.exit_code == 0
    obj = json.loads(res.output)
    assert len(obj["elements"]) == 12
    import omlkit.formats as fo
    import omlkit.lattice as lat
    L = fo.load_lattice(obj)
    assert lat.check_orthomodular(L).is_oml


def test_convert_malformed_exit_2(tmp_path):
    p = tmp_path / "bad.greechie"
    p.write_text("a a b\n")
    assert run("convert", str(p)).exit_code == 2


def test_convert_repeated_block(tmp_path):
    # the block a b c d listed twice, once reordered, is one block of 16
    p = tmp_path / "repeated.greechie"
    p.write_text("a b c d\nd c b a\n")
    res = run("convert", str(p))
    assert res.exit_code == 0, res.output
    assert len(json.loads(res.output)["elements"]) == 16


def test_convert_clashing_complements_exit_2(tmp_path):
    # d is complemented by a v b v c in the first block and by e in the
    # second, so no ortho is an involution on the pasting
    p = tmp_path / "mixed.greechie"
    p.write_text("a b c d\nd e\n")
    res = run("convert", str(p))
    assert res.exit_code == 2
    assert "atom 'd' has two complements" in res.output


def strip_timing(text):
    rep = json.loads(text)
    rep.pop("timing", None)
    return json.dumps(rep, sort_keys=True)


def test_json_reports_deterministic_modulo_timing():
    fx = str(FIXTURES / "mo2_lattice.json")
    a = run("--json", "-", "check", "lattice", fx)
    b = run("--json", "-", "check", "lattice", fx)
    assert strip_timing(a.output) == strip_timing(b.output)
    a = run("--json", "-", "--seed", "7", "repro", "commuting-square")
    b = run("--json", "-", "--seed", "7", "repro", "commuting-square")
    assert strip_timing(a.output) == strip_timing(b.output)


def test_json_to_file(tmp_path):
    out = tmp_path / "report.json"
    fx = str(FIXTURES / "mo2_lattice.json")
    res = run("--json", str(out), "check", "lattice", fx)
    assert res.exit_code == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "pass"
    assert "input_sha256" in rep


def test_python_dash_m_runs_the_cli_from_a_checkout():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    res = subprocess.run([sys.executable, "-m", "omlkit", "repro", "q6"],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


GOLDEN = ROOT / "tests" / "golden"
GOLDEN_COMMANDS = (
    [("check", "lattice", f) for f in
     ("mo2_lattice.json", "o6_lattice.json", "chain4_identity_ortho.json")]
    + [("check", "quantifier", "quantifier_mo2.json")]
    + [("check", "cylindric", "--mode", m, f) for m in ("weak", "full")
       for f in ("classical_cylindric_2x2.json", "tensor33_cylindric.json")]
    + [("check", "frame", f) for f in
       ("frame_monadic.json", "frame_bad_perp.json")]
    + [("check", "algebra", f) for f in
       ("algebra_diagonal.json", "algebra_shift_diag8.json")]
    + [("repro", name) for name in ("q6", "c5", "diag", "bell",
                                    "commuting-square", "expectation")]
    + [("search", "q6"), ("search", "q6", "--max-blocks", "6"),
       ("search", "q6", "--max-blocks", "6", "--boolean-only"),
       ("search", "expectation-gap", "--dim", "3"),
       ("search", "expectation-gap", "--dim", "6")]
    + [("convert", f) for f in ("two_blocks.greechie", "q6_blocks.greechie")])


def _golden_name(args):
    return "_".join(a.lstrip("-").split(".")[0] for a in args) + ".json"


def _golden_report(args):
    """The command's JSON report without `timing`, plus its exit code;
    fixture names in the arguments are read from fixtures/."""
    res = run("--json", "-", *[str(FIXTURES / a) if (FIXTURES / a).is_file()
                               else a for a in args])
    rep = json.loads(res.output)
    rep.pop("timing", None)
    rep["exit_code"] = res.exit_code
    return rep


@pytest.mark.parametrize("args", GOLDEN_COMMANDS, ids=_golden_name)
def test_report_matches_golden(args):
    golden = json.loads((GOLDEN / _golden_name(args)).read_text())
    assert _golden_report(args) == golden


if __name__ == "__main__":
    # rewrite tests/golden/ from the current code:
    # PYTHONPATH=src python tests/test_cli.py
    GOLDEN.mkdir(exist_ok=True)
    for args in GOLDEN_COMMANDS:
        (GOLDEN / _golden_name(args)).write_text(
            json.dumps(_golden_report(args), sort_keys=True, indent=2) + "\n")
