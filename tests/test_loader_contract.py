"""Malformed dims, index fields, index keys and labels, and frames,
cylindric structures and algebras past their size guards, are refused, never coerced: the loader raises
FormatError and `omlkit check` exits 2 without a traceback."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import omlkit.formats as fo
from omlkit.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name):
    return json.loads((FIXTURES / name).read_text())


def _algebra(dim, generators=0):
    return {"dim": dim, "generators": [[["1"]]] * generators}


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


def _cylindric_indices(k):
    # k copies of the first cylindrification, with every diagonal the top
    obj = _fixture("classical_cylindric_2x2.json")
    m = obj["cylindrifications"]["0"]
    obj["cylindrifications"] = {str(i): m for i in range(k)}
    obj["diagonals"] = {"%d,%d" % (i, j): 15
                        for i in range(k) for j in range(k)}
    return obj


def _lattice_pair(bad):
    obj = _fixture("mo2_lattice.json")
    obj["covers"][0] = bad
    return obj


def _lattice_ortho(bad):
    obj = _fixture("mo2_lattice.json")
    obj["ortho"] = [bad] + obj["ortho"][1:]
    return obj


def _lattice_element(bad):
    obj = _fixture("mo2_lattice.json")
    obj["elements"] = [bad] + obj["elements"][1:]
    return obj


def _frame(**fields):
    obj = _fixture("frame_monadic.json")
    obj.update(fields)
    return obj


def _frame_r(key="0", pairs=None):
    pairs = _fixture("frame_monadic.json")["R"]["0"] if pairs is None \
        else pairs
    return _frame(R={key: pairs})


def _frame_d(key="0,0", members=(0, 1, 2)):
    return _frame(D={key: list(members)})


def _frame_point(bad):
    return _frame(points=[bad, 1, 2])


def _frame_relations(k):
    # k identity relations, with the diagonals that two or more need
    identity = [[p, p] for p in range(3)]
    return _frame(R={str(i): identity for i in range(k)},
                  D={"%d,%d" % (i, j): [0, 1, 2]
                     for i in range(k) for j in range(k)})


CASES = {
    "dim-float": ("algebra", fo.load_algebra, _algebra(2.9)),
    "dim-bool": ("algebra", fo.load_algebra, _algebra(True)),
    "dim-string": ("algebra", fo.load_algebra, _algebra("x")),
    "dim-null": ("algebra", fo.load_algebra, _algebra(None)),
    "dim-17": ("algebra", fo.load_algebra, _algebra(17)),
    "dim-negative": ("algebra", fo.load_algebra, _algebra(-1)),
    "too-many-generators": ("algebra", fo.load_algebra,
                            _algebra(1, fo.MAX_ALGEBRA_GENERATORS + 1)),
    "generator-zero-denominator": ("algebra", fo.load_algebra,
                                   {"dim": 2, "generators": [[["1", "1/0"],
                                                              ["0", "0"]]]}),
    "generator-zero-imaginary-denominator": (
        "algebra", fo.load_algebra,
        {"dim": 2, "generators": [[["2+1/0i", "0"], ["0", "1/0i"]]]}),
    "generator-trailing-newline": ("algebra", fo.load_algebra,
                                   {"dim": 2, "generators": [[["1\n", "0"],
                                                              ["0", "0"]]]}),
    "generator-fullwidth-digit": ("algebra", fo.load_algebra,
                                  {"dim": 2, "generators": [[["\uff11", "0"],
                                                             ["0", "0"]]]}),
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
    "cylindrification-key-signed": ("cylindric", fo.load_cylindric,
                                    _cylindric_key("+0")),
    "cylindrification-key-padded": ("cylindric", fo.load_cylindric,
                                    _cylindric_key(" 0")),
    "too-many-cylindrifications": ("cylindric", fo.load_cylindric,
                                   _cylindric_indices(fo.MAX_INDICES + 1)),
    "order-pair-float": ("lattice", fo.load_lattice, _lattice_pair([0.9, 1])),
    "order-pair-string": ("lattice", fo.load_lattice, _lattice_pair(["0", 1])),
    "order-pair-bool": ("lattice", fo.load_lattice, _lattice_pair([0, True])),
    "order-pair-null": ("lattice", fo.load_lattice, _lattice_pair([None, 1])),
    "order-pair-triple": ("lattice", fo.load_lattice,
                          _lattice_pair([0, 1, 2])),
    "order-pair-range": ("lattice", fo.load_lattice, _lattice_pair([0, 6])),
    "order-pairs-not-list": ("lattice", fo.load_lattice,
                             {**_fixture("mo2_lattice.json"), "covers": 5}),
    "ortho-string": ("lattice", fo.load_lattice, _lattice_ortho("x")),
    "ortho-float": ("lattice", fo.load_lattice, _lattice_ortho(5.0)),
    "ortho-bool": ("lattice", fo.load_lattice, _lattice_ortho(False)),
    "lattice-element-null": ("lattice", fo.load_lattice,
                             _lattice_element(None)),
    "lattice-element-bool": ("lattice", fo.load_lattice,
                             _lattice_element(True)),
    "lattice-element-int": ("lattice", fo.load_lattice, _lattice_element(0)),
    "lattice-element-float": ("lattice", fo.load_lattice,
                              _lattice_element(0.5)),
    "lattice-element-list": ("lattice", fo.load_lattice,
                             _lattice_element(["0"])),
    "frame-point-null": ("frame", fo.load_frame, _frame_point(None)),
    "frame-point-bool": ("frame", fo.load_frame, _frame_point(False)),
    "frame-point-float": ("frame", fo.load_frame, _frame_point(0.0)),
    "frame-point-object": ("frame", fo.load_frame, _frame_point({"a": 1})),
    "frame-too-many-relations": ("frame", fo.load_frame,
                                 _frame_relations(fo.MAX_INDICES + 1)),
    "frame-r-key-string": ("frame", fo.load_frame, _frame_r(key="x")),
    "frame-r-key-empty-pairs": ("frame", fo.load_frame,
                                _frame_r(key="x", pairs=[])),
    "frame-r-key-padded": ("frame", fo.load_frame, _frame_r(key="00")),
    "frame-r-key-range": ("frame", fo.load_frame, _frame_r(key="1")),
    "frame-r-not-object": ("frame", fo.load_frame, _frame(R=5)),
    "frame-r-pairs-not-list": ("frame", fo.load_frame, _frame_r(pairs=5)),
    "frame-r-pair-float": ("frame", fo.load_frame,
                           _frame_r(pairs=[[0, 0], [1.5, 1]])),
    "frame-perp-float": ("frame", fo.load_frame,
                         _frame(perp=[[0.9, 1], [1, 0]])),
    "frame-perp-bool": ("frame", fo.load_frame,
                        _frame(perp=[[0, True], [1, 0]])),
    "frame-perp-not-pair": ("frame", fo.load_frame, _frame(perp=[[0, 1, 2]])),
    "frame-d-member-float": ("frame", fo.load_frame,
                             _frame_d(members=[0, 1.0])),
    "frame-d-member-range": ("frame", fo.load_frame, _frame_d(members=[3])),
    "frame-d-members-not-list": ("frame", fo.load_frame,
                                 _frame(D={"0,0": 3})),
    "frame-d-key-float": ("frame", fo.load_frame, _frame_d(key="0.5,0")),
    "frame-d-key-single": ("frame", fo.load_frame, _frame_d(key="0")),
    "frame-d-key-range": ("frame", fo.load_frame, _frame_d(key="0,1")),
    "frame-two-relations-without-diagonals": (
        "frame", fo.load_frame, _frame(R={"0": _frame_r()["R"]["0"],
                                          "1": [[0, 1]]})),
    "frame-d-missing-diagonal": ("frame", fo.load_frame,
                                 _frame(R={"0": [[0, 0], [1, 1], [2, 2]],
                                           "1": [[0, 0], [1, 1], [2, 2]]},
                                        D={"0,0": [0, 1, 2]})),
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


def test_algebra_generator_bound():
    k = fo.MAX_ALGEBRA_GENERATORS
    assert fo.load_algebra(_algebra(1, k)).dim == 1
    message = "%d generators exceed the limit of %d" % (k + 1, k)
    with pytest.raises(fo.FormatError, match=message):
        fo.load_algebra(_algebra(1, k + 1))


def test_valid_index_fields_still_load():
    L, e = fo.load_quantifier(_fixture("quantifier_mo2.json"))
    assert e.map == tuple(_fixture("quantifier_mo2.json")["map"])
    C = fo.load_cylindric(_fixture("classical_cylindric_2x2.json"))
    assert C.diagonals[(0, 1)] == 9


def test_valid_frames_still_load():
    F, rels, diags = fo.load_frame(_fixture("frame_monadic.json"))
    assert set(rels) == {0} and diags == {}
    F, rels, diags = fo.load_frame(_frame_d())
    assert diags == {(0, 0): 0b111}
    F, rels, diags = fo.load_frame(_frame(points=["x", 1, "z"]))
    assert F.points == ("x", "1", "z")


def test_labels_that_used_to_be_coerced():
    # null and true became the labels "None" and "True", and the lattice
    # passed its check; null and an object became frame points
    obj = {"elements": [None, True], "leq": [[0, 1]], "ortho": [1, 0]}
    with pytest.raises(fo.FormatError, match="elements must be strings"):
        fo.load_lattice(obj)
    obj["elements"] = ["0", "1"]
    assert fo.load_lattice(obj).labels == ("0", "1")
    with pytest.raises(fo.FormatError, match="points must be strings or ints"):
        fo.load_frame({"points": [None, {"a": 1}], "perp": []})


def test_frame_point_bound(tmp_path):
    obj = _fixture("frame_monadic.json")
    assert fo.load_frame(obj, max_elements=3)[0].n == 3
    with pytest.raises(fo.FormatError, match="frame has 3 points, guard is 2"):
        fo.load_frame(obj, max_elements=2)
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(obj))
    for size, code in ((3, 0), (2, 2)):
        res = CliRunner().invoke(main, ["--json", "-", "--max-size", str(size),
                                        "check", "frame", str(path)])
        assert res.exit_code == code, res.output


def test_frame_relation_bound():
    k = fo.MAX_INDICES
    assert len(fo.load_frame(_frame_relations(k))[1]) == k
    message = "frame has %d relations, guard is %d" % (k + 1, k)
    with pytest.raises(fo.FormatError, match=message):
        fo.load_frame(_frame_relations(k + 1))


def test_cylindrification_bound(tmp_path):
    k = fo.MAX_INDICES
    assert fo.load_cylindric(_cylindric_indices(k)).dims == tuple(range(k))
    with pytest.raises(fo.FormatError,
                       match="%d cylindrifications, guard is %d" % (k + 1, k)):
        fo.load_cylindric(_cylindric_indices(k + 1))
    for count, code in ((k, 0), (k + 1, 2)):
        path = tmp_path / "cylindric.json"
        path.write_text(json.dumps(_cylindric_indices(count)))
        res = CliRunner().invoke(main, ["--json", "-", "check", "cylindric",
                                        str(path)])
        assert res.exit_code == code, res.output


def test_frame_relations_past_the_first_need_diagonals():
    # the second relation, which is not even reflexive, was never checked:
    # without D, `check frame` tested R["0"] alone and passed
    obj = _frame(R={"0": _frame_r()["R"]["0"], "1": [[0, 1]]})
    with pytest.raises(fo.FormatError, match="missing diagonal 0,0"):
        fo.load_frame(obj)
    obj["D"] = {"%d,%d" % (i, j): [0, 1, 2] for i in (0, 1) for j in (0, 1)}
    F, rels, diags = fo.load_frame(obj)
    assert set(rels) == {0, 1} and len(diags) == 4
