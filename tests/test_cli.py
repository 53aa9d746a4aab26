import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import omlkit.formats as formats
import omlkit.linalg as la
import omlkit.matrixalg as ma
import star_algebra_oracle as oracle
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
    # the diagonal algebra of M_2 is its own commutant and center, so it is
    # not a factor; the shift and the diagonal generate all of M_8
    res = run("--json", "-", "check", "algebra",
              str(FIXTURES / "algebra_diagonal.json"))
    rep = json.loads(res.output)
    assert res.exit_code == 1
    assert (rep["algebra_dim"], rep["commutant_dim"], rep["center_dim"]) == \
        (2, 2, 2)
    assert rep["checks"] == {"factor": {"ok": False,
                                        "witness": [["1", "0"], ["0", "0"]]}}
    res = run("--json", "-", "check", "algebra",
              str(FIXTURES / "algebra_shift_diag8.json"))
    rep = json.loads(res.output)
    assert res.exit_code == 0
    assert (rep["algebra_dim"], rep["commutant_dim"], rep["center_dim"]) == \
        (64, 1, 1)
    assert rep["checks"] == {"factor": {"ok": True, "witness": None}}


def _factor_cases():
    """The scalar, diagonal and full algebras of M_2..M_4, and the algebras
    of 0 to 2 seeded rank-one projections there."""
    rng = random.Random(27)
    for n in (2, 3, 4):
        yield ma.scalar_algebra(n)
        yield ma.diagonal_algebra(n)
        yield ma.full_matrix_algebra(n)
        for k in (0, 1, 2):
            for _ in range(3):
                yield ma.build_algebra(n, [ma.random_rank_one_projection(
                    n, rng) for _ in range(k)])


def test_factor_verdict_matches_center_oracle(tmp_path):
    path = tmp_path / "algebra.json"
    seen = set()
    for A in _factor_cases():
        path.write_text(json.dumps(formats.dump_algebra(A)))
        res = run("--json", "-", "check", "algebra", str(path))
        rep = json.loads(res.output)
        center = oracle.center(oracle.GQAlgebra(A.n, A.basis))
        assert rep["algebra_dim"] == A.dim
        assert rep["commutant_dim"] == ma.commutant(A).dim
        assert rep["center_dim"] == center.dim
        factor = center.dim == 1
        assert rep["checks"]["factor"]["ok"] is factor
        assert res.exit_code == (0 if factor else 1)
        seen.add(factor)
        wit = rep["checks"]["factor"]["witness"]
        if factor:
            assert wit is None
            continue
        z = formats.parse_matrix(wit, A.n)
        assert A.contains(z) and center.contains(z)
        assert all(la.matmul(z, b) == la.matmul(b, z) for b in A.basis)
        assert not ma.scalar_algebra(A.n).contains(z)
    assert seen == {True, False}


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


def test_search_q6_found():
    res = run("--json", "-", "search", "q6", "--max-blocks", "2")
    rep = json.loads(res.output)
    assert res.exit_code == 0 and rep["found"]


def test_search_bounds_refused():
    assert run("search", "q6", "--max-blocks", "99").exit_code == 2
    # the expectation-gap search and its --dim are gone: click refuses both
    assert run("search", "expectation-gap").exit_code == 2
    assert run("search", "q6", "--dim", "4").exit_code == 2
    # so is --boolean-only, whose one-block search could only find nothing
    assert run("search", "q6", "--boolean-only").exit_code == 2


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


def _readme_commands():
    """The omlkit lines of the fenced block under "## Command line" in the
    README, after its synopsis line, with # comments stripped."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].strip()
             for line in block.strip().splitlines()[1:]]
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("omlkit ")]


def test_readme_commands_run(monkeypatch):
    # a retired option or a missing fixture would exit 2
    monkeypatch.chdir(ROOT)
    commands = _readme_commands()
    assert len(commands) == 10
    for args in commands:
        res = run(*args)
        assert res.exit_code in (0, 1), (args, res.output)
        assert isinstance(res.exception, (SystemExit, type(None))), args


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
    + [("search", "q6"), ("search", "q6", "--max-blocks", "6")]
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


def test_every_golden_file_has_a_command():
    # a golden report whose command was dropped would otherwise stay behind
    # unchecked
    assert {p.name for p in GOLDEN.iterdir()} == \
        {_golden_name(a) for a in GOLDEN_COMMANDS}


if __name__ == "__main__":
    # rewrite tests/golden/ from the current code:
    # PYTHONPATH=src python tests/test_cli.py
    GOLDEN.mkdir(exist_ok=True)
    for args in GOLDEN_COMMANDS:
        (GOLDEN / _golden_name(args)).write_text(
            json.dumps(_golden_report(args), sort_keys=True, indent=2) + "\n")
