"""Malformed dims and index fields are refused, never coerced: the loader
raises FormatError and `omlkit check` exits 2 without a traceback."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import omlkit.formats as fo
from omlkit.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def _algebra(dim):
    return {"dim": dim, "generators": []}


def _quantifier(bad):
    obj = _fixture("quantifier_mo2.json")
    obj["map"] = [bad] + obj["map"][1:]
    return obj


def _cylindric_diagonal(bad):
    obj = _fixture("classical_cylindric_2x2.json")
    obj["diagonals"]["0,1"] = bad
    return obj


def _cylindric_map(bad):
    obj = _fixture("classical_cylindric_2x2.json")
    m = obj["cylindrifications"]["0"]
    obj["cylindrifications"]["0"] = [bad] + m[1:]
    return obj


def _cylindric_key(bad):
    obj = _fixture("classical_cylindric_2x2.json")
    obj["cylindrifications"][bad] = obj["cylindrifications"].pop("0")
    return obj


CASES = {
    "dim-float": ("algebra", fo.load_algebra, _algebra(2.9)),
    "dim-bool": ("algebra", fo.load_algebra, _algebra(True)),
    "dim-string": ("algebra", fo.load_algebra, _algebra("x")),
    "dim-null": ("algebra", fo.load_algebra, _algebra(None)),
    "dim-17": ("algebra", fo.load_algebra, _algebra(17)),
    "dim-negative": ("algebra", fo.load_algebra, _algebra(-1)),
    "map-string": ("quantifier", fo.load_quantifier, _quantifier("x")),
    "map-float": ("quantifier", fo.load_quantifier, _quantifier(0.7)),
    "map-integral-float": ("quantifier", fo.load_quantifier,
                           _quantifier(1.0)),
    "map-bool": ("quantifier", fo.load_quantifier, _quantifier(True)),
    "map-null": ("quantifier", fo.load_quantifier, _quantifier(None)),
    "map-negative": ("quantifier", fo.load_quantifier, _quantifier(-1)),
    "diagonal-null": ("cylindric", fo.load_cylindric,
                      _cylindric_diagonal(None)),
    "diagonal-float": ("cylindric", fo.load_cylindric,
                       _cylindric_diagonal(9.5)),
    "diagonal-string": ("cylindric", fo.load_cylindric,
                        _cylindric_diagonal("9")),
    "diagonal-bool": ("cylindric", fo.load_cylindric,
                      _cylindric_diagonal(False)),
    "cylindrification-string": ("cylindric", fo.load_cylindric,
                                _cylindric_map("x")),
    "cylindrification-float": ("cylindric", fo.load_cylindric,
                               _cylindric_map(2.5)),
    "cylindrification-key": ("cylindric", fo.load_cylindric,
                             _cylindric_key("x")),
}
_PARAMS = pytest.mark.parametrize("kind, loader, obj", list(CASES.values()),
                                  ids=list(CASES))


@_PARAMS
def test_loader_raises_format_error(kind, loader, obj):
    with pytest.raises(fo.FormatError):
        loader(obj)


@_PARAMS
def test_check_exits_2_without_traceback(tmp_path, kind, loader, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    res = CliRunner().invoke(main, ["--json", "-", "check", kind, str(path)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    assert json.loads(res.output)["error"]


def test_algebra_dim_that_used_to_be_coerced():
    # 2.9 was truncated to 2 and true read as 1, and both checks passed
    for dim in (2.9, True):
        with pytest.raises(fo.FormatError, match="dim must be an int"):
            fo.load_algebra({"dim": dim, "generators": [[["1", "0"],
                                                         ["0", "0"]]]})


def test_algebra_dim_bound():
    assert fo.load_algebra(_algebra(1)).dim == 1
    assert fo.load_algebra(_algebra(16)).n == 16
    with pytest.raises(fo.FormatError):
        fo.load_algebra(_algebra(17))


def test_valid_index_fields_still_load():
    L, e = fo.load_quantifier(_fixture("quantifier_mo2.json"))
    assert e.map == tuple(_fixture("quantifier_mo2.json")["map"])
    C = fo.load_cylindric(_fixture("classical_cylindric_2x2.json"))
    assert C.diagonals[(0, 1)] == 9
