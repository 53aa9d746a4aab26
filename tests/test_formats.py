import json
from fractions import Fraction

import pytest

import omlkit.cylindric as cy
import omlkit.formats as fo
import omlkit.frames as fr
import omlkit.lattice as lat
import omlkit.matrixalg as ma
import omlkit.quantifiers as qu
import omlkit.subspaces as sp
from omlkit.gq import GQ, parse_gq


def same_lattice(a, b):
    return (a.labels == b.labels and a.meet_t == b.meet_t
            and a.join_t == b.join_t and a.ortho_t == b.ortho_t
            and a.zero == b.zero and a.one == b.one)


def test_lattice_roundtrip_covers():
    L = lat.mo(2)
    assert same_lattice(fo.load_lattice(fo.dump_lattice(L)), L)


def test_lattice_leq_form():
    obj = {"elements": ["0", "a", "a'", "1"],
           "leq": [[0, 1], [0, 2], [1, 3], [2, 3], [0, 3]],
           "ortho": [3, 2, 1, 0]}
    L = fo.load_lattice(obj)
    assert L.n == 4 and lat.validate_ortholattice(L).ok


@pytest.mark.parametrize("mutate", [
    lambda o: o.pop("elements"),
    lambda o: o.pop("ortho"),
    lambda o: o.pop("covers"),
    lambda o: o.update(ortho=[0, 1, 2, 2, 4, 5]),
    lambda o: o.update(covers=[[0, 99]]),
    lambda o: o.update(covers=[[0]]),
])
def test_lattice_malformed_rejected(mutate):
    obj = fo.dump_lattice(lat.mo(2))
    mutate(obj)
    with pytest.raises(fo.FormatError):
        fo.load_lattice(obj)


def test_lattice_non_lattice_order_rejected():
    obj = {"elements": ["a", "b", "c", "d"],
           "covers": [[0, 2], [0, 3], [1, 2], [1, 3]],
           "ortho": [3, 2, 1, 0]}
    with pytest.raises(fo.FormatError):
        fo.load_lattice(obj)


def test_greechie_text_parsing():
    blocks = fo.parse_greechie("a b c\n# comment\n\nc d e  # tail\n")
    assert blocks == [("a", "b", "c"), ("c", "d", "e")]
    L = fo.greechie_to_lattice("a b c\nc d e\n")
    assert L.n == 12
    with pytest.raises(fo.FormatError):
        fo.greechie_to_lattice("a a b\n")
    with pytest.raises(fo.FormatError):
        fo.parse_greechie("# nothing\n")


def test_quantifier_roundtrip_and_inline_vs_file(tmp_path):
    L = lat.mo(2)
    e = qu.quantifier_from_subalgebra(
        L, lat.subalgebra_closure(L, (L.labels.index("a1"),)))
    obj = fo.dump_quantifier(L, e)
    L2, e2 = fo.load_quantifier(obj)
    assert same_lattice(L2, L) and e2.map == e.map

    latfile = tmp_path / "base.json"
    latfile.write_text(json.dumps(fo.dump_lattice(L)))
    L3, e3 = fo.load_quantifier({"lattice": "base.json",
                                 "map": list(e.map)},
                                base_dir=str(tmp_path))
    assert e3.map == e.map
    with pytest.raises(fo.FormatError):
        fo.load_quantifier({"lattice": "missing.json", "map": []},
                           base_dir=str(tmp_path))


def test_quantifier_bad_map_rejected():
    obj = fo.dump_quantifier(lat.mo(2), qu.UnaryMap(lat.mo(2),
                                                    (0, 1, 2, 3, 4, 5)))
    obj["map"] = [0, 1]
    with pytest.raises(fo.FormatError):
        fo.load_quantifier(obj)
    obj["map"] = [9] * 6
    with pytest.raises(fo.FormatError):
        fo.load_quantifier(obj)


def test_cylindric_roundtrip():
    C = cy.classical_cyl_set_algebra(range(2), range(2))
    C2 = fo.load_cylindric(fo.dump_cylindric(C))
    assert C2.dims == C.dims
    assert all(C2.cylindrifications[i].map == C.cylindrifications[i].map
               for i in C.dims)
    assert C2.diagonals == C.diagonals


def test_cylindric_missing_diagonal_rejected():
    obj = fo.dump_cylindric(cy.classical_cyl_set_algebra(range(2), range(2)))
    del obj["diagonals"]["0,1"]
    with pytest.raises(fo.FormatError):
        fo.load_cylindric(obj)


def test_subspace_roundtrip():
    lay = sp.TensorLayout((2, 2))
    s = sp.Subspace.from_vectors(4, [[GQ(1), GQ(0, 1), GQ(1, 2), GQ(0)],
                                     [GQ(0), GQ(2), GQ(1), GQ(1)]])
    obj = fo.dump_subspace(lay, s)
    assert obj["factors"] == [2, 2]
    assert sp.Subspace(4, [[parse_gq(x) for x in row]
                           for row in obj["basis"]]) == s


def test_matrix_scalar_syntax():
    m = fo.parse_matrix([["1/2+3/4 i", "-i"], ["0", "1"]], 2)
    assert m[0] == (GQ(Fraction(1, 2), Fraction(3, 4)), GQ(0, -1))
    with pytest.raises(fo.FormatError):
        fo.parse_matrix([["1.5", "0"], ["0", "1"]], 2)
    with pytest.raises(fo.FormatError):
        fo.parse_matrix([["1"], ["0", "1"]], 2)


def test_frame_roundtrip():
    F = fr.classical_perp(3)
    rels = {0: (0b011, 0b011, 0b100)}
    diags = {(0, 0): 0b111}
    F2, rels2, diags2 = fo.load_frame(fo.dump_frame(F, rels, diags))
    assert F2.perp == F.perp
    assert rels2 == rels and diags2 == diags


def test_frame_errors():
    with pytest.raises(fo.FormatError):
        fo.load_frame({"points": [0, 1], "perp": [[0, 5]]})
    with pytest.raises(fo.FormatError):
        fo.load_frame({"points": [0], "perp": [], "D": {"zz": [0]}})


def test_algebra_roundtrip():
    A = ma.diagonal_algebra(2)
    A2 = fo.load_algebra(fo.dump_algebra(A))
    assert A2.basis == A.basis


def test_algebra_errors():
    with pytest.raises(fo.FormatError):
        fo.load_algebra({"dim": 2, "generators": [[["1", "0"]]]})
    with pytest.raises(fo.FormatError):
        fo.load_algebra({"dim": 0, "generators": []})


def test_matrix_format_roundtrip():
    m = ((GQ(1, 2), GQ(0)), (GQ(-1), GQ(0, -1)))
    assert fo.parse_matrix(fo.format_matrix(m), 2) == m
