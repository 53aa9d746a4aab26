import random
from fractions import Fraction

import pytest

import omlkit.linalg as la
import omlkit.matrixalg as ma
from omlkit.gq import GQ, I, ONE


def test_build_algebra_examples():
    assert ma.build_algebra(2, []).dim == 1
    full = ma.build_algebra(2, [[[0, 1], [0, 0]]])
    assert full.dim == 4
    diag = ma.build_algebra(2, [[[1, 0], [0, 0]]])
    assert diag.dim == 2


def test_algebra_contains_and_closure():
    A = ma.diagonal_algebra(3)
    assert A.contains(la.eye(3))
    assert not A.contains(la.mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    for x in A.basis:
        assert A.contains(la.adjoint(x))
        for y in A.basis:
            assert A.contains(la.matmul(x, y))


def test_commutant_examples():
    assert ma.commutant(ma.full_matrix_algebra(3)).dim == 1
    assert ma.commutant(ma.scalar_algebra(3)).dim == 9
    diag = ma.diagonal_algebra(2)
    assert ma.commutant(diag).basis == diag.basis


def test_double_commutant():
    rng = random.Random(0)
    for gens in ([], [[[1, 0], [0, 0]]], [[[0, 1], [0, 0]]]):
        A = ma.build_algebra(2, gens)
        assert ma.is_double_commutant_closed(A)
    A = ma.build_algebra(3, [ma.random_rank_one_projection(3, rng)])
    assert ma.is_double_commutant_closed(A)


def test_center_of_block_algebra():
    A = ma.build_algebra(2, [[[1, 0], [0, 0]]])
    assert ma.center(A).dim == 2  # abelian: center is everything
    assert ma.center(ma.full_matrix_algebra(2)).dim == 1


def test_projector_and_range():
    s = ma.range_space(la.mat([[Fraction(1, 2), 0], [0, 0]]))
    p = ma.projector_onto(s)
    assert p == la.mat([[1, 0], [0, 0]])
    half = GQ(1) / GQ(2)
    ones = tuple(tuple(half for _ in range(2)) for _ in range(2))
    q = ma.range_projection(ones)
    assert ma.is_projection(q) and q == ones  # (1/2)*ones is a projection
    assert ma.range_projection(la.zeros(2, 2)) == la.zeros(2, 2)


def test_projection_order():
    p = la.mat([[1, 0], [0, 0]])
    assert ma.projection_leq(p, la.eye(2))
    assert not ma.projection_leq(la.eye(2), p)


def test_exists_alg_examples():
    diag = ma.diagonal_algebra(2)
    half = GQ(1) / GQ(2)
    p = tuple(tuple(half for _ in range(2)) for _ in range(2))
    assert ma.exists_alg(diag, p) == la.eye(2)
    inside = la.mat([[1, 0], [0, 0]])
    assert ma.exists_alg(diag, inside) == inside
    scal = ma.scalar_algebra(2)
    assert ma.exists_alg(scal, inside) == la.eye(2)


def test_exists_fixed_points_are_projections_of_the_algebra():
    rng = random.Random(1)
    diag = ma.diagonal_algebra(2)
    projs = [la.zeros(2, 2), la.eye(2), la.mat([[1, 0], [0, 0]])]
    projs += [ma.random_rank_one_projection(2, rng) for _ in range(5)]
    assert ma.exists_fixed_points_are_commutant_projections(diag, projs)


def test_conditional_expectation_formulas():
    scal = ma.scalar_algebra(3)
    x = la.mat([[1, 2, 0], [0, 4, 0], [0, 0, 1]])
    assert ma.conditional_expectation(scal, x) == \
        la.scale(GQ(2), la.eye(3))
    diag = ma.diagonal_algebra(2)
    half = GQ(1) / GQ(2)
    ones = tuple(tuple(half for _ in range(2)) for _ in range(2))
    assert ma.conditional_expectation(diag, ones) == \
        la.scale(half, la.eye(2))


def test_expectation_properties_sampled():
    rng = random.Random(2)
    diag = ma.diagonal_algebra(2)
    samples = [la.mat([[GQ(rng.randint(-3, 3), rng.randint(-3, 3))
                        for _ in range(2)] for _ in range(2)])
               for _ in range(6)]
    assert ma.check_expectation_properties(diag, samples)


def test_psd_certificates():
    assert ma.psd_certificate(la.eye(3)).is_psd
    assert ma.psd_certificate(la.zeros(2, 2)).is_psd
    assert ma.psd_certificate(la.mat([[2, 1], [1, 2]])).is_psd

    res = ma.psd_certificate(la.mat([[1, 0], [0, -1]]))
    assert not res.is_psd
    v = res.witness
    val = la.inner(v, la.matvec(la.mat([[1, 0], [0, -1]]), v))
    assert val.im == 0 and val.re < 0

    # zero diagonal, nonzero off-diagonal
    res2 = ma.psd_certificate(la.mat([[0, 1], [1, 0]]))
    assert not res2.is_psd
    v2 = res2.witness
    val2 = la.inner(v2, la.matvec(la.mat([[0, 1], [1, 0]]), v2))
    assert val2.re < 0

    herm = ((ONE, I), (-I, ONE))
    assert ma.psd_certificate(herm).is_psd
    with pytest.raises(ValueError):
        ma.psd_certificate(la.mat([[0, 1], [0, 0]]))


def test_psd_certificate_witness_exactness():
    a = la.mat([[1, 2], [2, 1]])  # eigenvalues 3 and -1
    res = ma.psd_certificate(a)
    assert not res.is_psd
    v = res.witness
    assert la.inner(v, la.matvec(a, v)).re < 0


def test_pimsner_popa_trivial_inclusion():
    full = ma.full_matrix_algebra(2)
    p = la.mat([[1, 0], [0, 0]])
    assert ma.check_pimsner_popa(full, p, 1).is_psd


def test_central_carrier_block_diagonal():
    units = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        m = [[0] * 4 for _ in range(4)]
        m[i][j] = 1
        units.append(m)
    for i, j in ((2, 2), (2, 3), (3, 2), (3, 3)):
        m = [[0] * 4 for _ in range(4)]
        m[i][j] = 1
        units.append(m)
    A = ma.build_algebra(4, units)
    assert A.dim == 8
    p = la.mat([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    cc = ma.central_carrier(A, p)
    assert cc == la.mat([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 0], [0, 0, 0, 0]])
    assert ma.central_carrier(A, la.zeros(4, 4)) == la.zeros(4, 4)
    # factors have trivial center: any nonzero projection lifts to identity
    full = ma.full_matrix_algebra(2)
    assert ma.central_carrier(full, la.mat([[1, 0], [0, 0]])) == la.eye(2)


def test_range_projection_is_polynomial():
    assert ma.range_projection_is_polynomial(
        la.mat([[Fraction(1, 2), 0], [0, 0]]))
    half = GQ(1) / GQ(2)
    ones = tuple(tuple(half for _ in range(2)) for _ in range(2))
    assert ma.range_projection_is_polynomial(ones)


def test_exists_equals_expectation_support():
    rng = random.Random(3)
    for N in (ma.scalar_algebra(2), ma.diagonal_algebra(2),
              ma.full_matrix_algebra(2)):
        for _ in range(5):
            p = ma.random_rank_one_projection(2, rng)
            assert ma.check_exists_equals_range_of_expectation(N, p)


def test_commuting_square_requires_inclusions():
    with pytest.raises(ValueError):
        ma.check_commuting_square(ma.diagonal_algebra(2),
                                  ma.scalar_algebra(2),
                                  ma.scalar_algebra(2),
                                  ma.full_matrix_algebra(2))


def test_trivial_commuting_square():
    scal = ma.scalar_algebra(2)
    full = ma.full_matrix_algebra(2)
    rep = ma.check_commuting_square(scal, full, scal, full,
                                    random.Random(4), samples=5)
    assert rep.ok


def test_search_expectation_gap_logs_clean():
    rng = random.Random(5)
    records = ma.search_expectation_gap(2, rng, algebras=2, samples=4)
    assert len(records) == 4
    assert all(not r.gaps for r in records)


def test_contains_rejects_a_matrix_of_another_size():
    with pytest.raises(ValueError):
        ma.diagonal_algebra(2).contains(la.eye(3))


def test_expectation_rejects_a_matrix_of_another_size():
    # eye(3) used to be cut to its first four entries, giving diag(1, 0)
    N = ma.diagonal_algebra(2)
    for x in (la.eye(3), ((1, 0, 0), (0, 1, 0)), ((1,), (0, 1, 0))):
        with pytest.raises(ValueError):
            ma.conditional_expectation(N, x)


def test_algebra_span_must_live_in_its_matrix_space():
    with pytest.raises(ValueError):
        ma.StarAlgebra(2, ma.full_matrix_algebra(3).span)
