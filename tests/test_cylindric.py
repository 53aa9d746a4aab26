import pytest

import omlkit.cylindric as cy
import omlkit.lattice as lat
import omlkit.subspaces as sp
from omlkit.quantifiers import UnaryMap


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
