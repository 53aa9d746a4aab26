import json
from pathlib import Path

import pytest

import omlkit.cylindric as cy
import omlkit.formats as fo
import omlkit.lattice as lat
import omlkit.quantifiers as qu
import omlkit.subspaces as sp
from omlkit.quantifiers import UnaryMap

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
Q1_Q5 = ["Q1", "Q2", "Q3", "Q4", "Q5"]


def two_by_two():
    return cy.classical_cyl_set_algebra(range(2), range(2))


def test_classical_set_algebra_shape():
    C = two_by_two()
    assert C.base.n == 16
    assert C.dims == (0, 1)
    assert C.d(0, 0) == C.base.one
    assert C.d(0, 1) == C.d(1, 0)


def test_classical_passes_all_axioms():
    C = two_by_two()
    assert cy.check_cylindric(C, "weak").ok
    rep = cy.check_cylindric(C, "full")
    assert rep.ok
    assert set(rep.status) == {"C1", "C2", "C3", "C4", "C5"}


def test_classical_three_values():
    C = cy.classical_cyl_set_algebra(range(3), range(2))
    assert C.base.n == 512
    assert cy.check_cylindric(C, "full").ok


def test_cylindrification_acts_as_coordinate_relaxation():
    C = two_by_two()
    # points (x0,x1) with x0=0: mask of points (0,0),(0,1)
    pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
    mask = sum(1 << k for k, p in enumerate(pts) if p[0] == 0)
    assert C.c(0, mask) == C.base.one
    assert C.c(1, mask) == mask


def test_substitution_classical_identity_and_endomorphism():
    C = two_by_two()
    for x in C.base.elements():
        assert cy.substitution_classical(C, 0, 0, x) == x
    assert cy.is_boolean_endomorphism(C, 0, 1)
    assert cy.is_boolean_endomorphism(C, 1, 0)


def test_broken_diagonal_reported():
    C = two_by_two()
    diag = dict(C.diagonals)
    diag[(0, 1)] = C.base.zero
    diag[(1, 0)] = C.base.zero
    bad = cy.CylindricStructure(C.base, C.dims, C.cylindrifications, diag)
    rep = cy.check_cylindric(bad, "weak")
    assert not rep.ok
    assert "C4" in rep.failed()


def test_broken_cylindrification_reported_as_c1():
    C = two_by_two()
    L = C.base
    cyl = dict(C.cylindrifications)
    cyl[0] = UnaryMap(L, tuple(L.zero for _ in L.elements()))
    bad = cy.CylindricStructure(L, C.dims, cyl, C.diagonals)
    rep = cy.check_cylindric(bad, "weak")
    assert not rep.ok
    assert "C1" in rep.failed()


def test_mode_argument_validated():
    with pytest.raises(ValueError):
        cy.check_cylindric(two_by_two(), "strict")


def test_size_guard_on_point_count():
    with pytest.raises(lat.SizeGuardError):
        cy.classical_cyl_set_algebra(range(4), range(2))


def test_tensor_closure_without_generators_is_weak_cylindric():
    C, closure = sp.as_cylindric_structure(sp.TensorLayout((2, 2)), [])
    assert cy.check_cylindric(C, "weak").ok
    # diagonal-only closure: 0, diagonal, antidiagonal, 1
    assert C.base.n == 4


def test_tensor_closure_full_mode_fails_c5_dim2():
    lay = sp.TensorLayout((2, 2))
    v = [sp.ZERO] * 4
    v[lay.index((0, 1))] = sp.ONE
    v[lay.index((1, 0))] = sp.ONE
    s = sp.Subspace.from_vectors(4, [tuple(v)])
    C, _ = sp.as_cylindric_structure(lay, [s], max_closure=128)
    assert cy.check_cylindric(C, "weak").ok
    rep = cy.check_cylindric(C, "full")
    assert not rep.ok and rep.failed() == ["C5"]


# ---------------------------------------------------------------------------
# C1 reads Q1-Q5 only, index by index, and stops at the first failure


def _first_c1_failure(C):
    """C1's witness from each map's full quantifier report."""
    for i in C.dims:
        status = qu.check_quantifier(C.base, C.cylindrifications[i]).status
        for a in Q1_Q5:
            if not status[a][0]:
                return i, a, status[a][1]
    return None


def _laws_drawn(monkeypatch):
    """The (map, law) pairs check_cylindric draws from quantifier_laws,
    in order; check_quantifier, which evaluates Q6, may not be called."""
    drawn, laws = [], qu.quantifier_laws

    def traced(L, e):
        for law, witness in laws(L, e):
            drawn.append((e, law))
            yield law, witness

    def no_q6(L, e):
        raise AssertionError("C1 evaluated Q6")

    monkeypatch.setattr(cy, "quantifier_laws", traced)
    monkeypatch.setattr(cy, "check_quantifier", no_q6, raising=False)
    monkeypatch.setattr(qu, "check_quantifier", no_q6)
    return drawn


def test_c1_evaluates_no_q6_on_the_tensor_fixture(monkeypatch):
    C = fo.load_cylindric(json.loads(
        (FIXTURES / "tensor33_cylindric.json").read_text()), FIXTURES)
    for i in C.dims:  # each c_i fails Q6 and is a quantifier all the same
        rep = qu.check_quantifier(C.base, C.cylindrifications[i])
        assert rep.is_quantifier and not rep.ok("Q6")
    drawn = _laws_drawn(monkeypatch)
    rep = cy.check_cylindric(C, "full")
    assert rep.status["C1"] == (True, None) and rep.failed() == ["C5"]
    assert drawn == [(C.cylindrifications[i], a)
                     for i in C.dims for a in Q1_Q5]


def test_c1_checks_no_index_after_a_failing_one(monkeypatch):
    C = two_by_two()
    L = C.base
    cyl = dict(C.cylindrifications)
    cyl[0] = UnaryMap(L, tuple(L.zero for _ in L.elements()))  # fails Q2
    bad = cy.CylindricStructure(L, C.dims, cyl, C.diagonals)
    want = _first_c1_failure(bad)
    assert want[:2] == (0, "Q2")
    drawn = _laws_drawn(monkeypatch)
    assert cy.check_cylindric(bad, "weak").status["C1"] == (False, want)
    assert drawn == [(cyl[0], "Q1"), (cyl[0], "Q2")]


def test_c1_walks_to_the_first_failing_index(monkeypatch):
    C = two_by_two()
    L = C.base
    cyl = dict(C.cylindrifications)
    cyl[1] = UnaryMap(L, tuple(L.one for _ in L.elements()))  # fails Q1
    bad = cy.CylindricStructure(L, C.dims, cyl, C.diagonals)
    want = _first_c1_failure(bad)
    assert want == (1, "Q1", (L.zero,))
    drawn = _laws_drawn(monkeypatch)
    assert cy.check_cylindric(bad, "full").status["C1"] == (False, want)
    assert drawn == [(cyl[0], a) for a in Q1_Q5] + [(cyl[1], "Q1")]
