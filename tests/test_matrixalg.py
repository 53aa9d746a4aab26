import random
from fractions import Fraction

import pytest

import omlkit.linalg as la
import omlkit.matrixalg as ma
from omlkit.gq import GQ, I, ONE
from rref_oracle import solve


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
        assert ma.commutant(ma.commutant(A)) == A
    A = ma.build_algebra(3, [ma.random_rank_one_projection(3, rng)])
    assert ma.commutant(ma.commutant(A)) == A


def test_center_of_block_algebra():
    A = ma.build_algebra(2, [[[1, 0], [0, 0]]])
    # the center is the intersection with the commutant
    assert ma.algebra_intersection(A, ma.commutant(A)).dim == 2  # abelian
    full = ma.full_matrix_algebra(2)
    assert ma.algebra_intersection(full, ma.commutant(full)).dim == 1


def test_projector_and_range():
    s = ma.range_space(la.mat([[Fraction(1, 2), 0], [0, 0]]))
    p = ma.projector_onto(s)
    assert p == la.mat([[1, 0], [0, 0]])
    half = GQ(1) / GQ(2)
    ones = tuple(tuple(half for _ in range(2)) for _ in range(2))
    q = ma.range_projection(ones)
    assert ma.is_projection(q) and q == ones  # (1/2)*ones is a projection
    zero = la.mat([[0, 0], [0, 0]])
    assert ma.range_projection(zero) == zero


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
    projs = [la.mat([[0, 0], [0, 0]]), la.eye(2), la.mat([[1, 0], [0, 0]])]
    projs += [ma.random_rank_one_projection(2, rng) for _ in range(5)]
    # E p = p exactly when p lies in the double commutant
    double = ma.commutant(ma.commutant(diag))
    for p in projs:
        assert (ma.exists_alg(diag, p) == la.mat(p)) == double.contains(p)


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
    # E onto the diagonal algebra is unital and, on each sample, idempotent
    # onto N, trace preserving and an N-bimodule map
    rng = random.Random(2)
    diag = ma.diagonal_algebra(2)
    E = lambda x: ma.conditional_expectation(diag, x)
    samples = [la.mat([[GQ(rng.randint(-3, 3), rng.randint(-3, 3))
                        for _ in range(2)] for _ in range(2)])
               for _ in range(6)]
    assert E(la.eye(2)) == la.eye(2)
    for x in samples:
        ex = E(x)
        assert diag.contains(ex) and E(ex) == ex
        assert la.trace(ex) == la.trace(x)
        for b in diag.basis:
            assert E(la.matmul(b, x)) == la.matmul(b, ex)
            assert E(la.matmul(x, b)) == la.matmul(ex, b)


def test_psd_certificates():
    assert ma.psd_certificate(la.eye(3)).is_psd
    assert ma.psd_certificate(la.mat([[0, 0], [0, 0]])).is_psd
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


def range_projection_is_polynomial(x) -> bool:
    """The support projection of a PSD matrix is a constant-free
    polynomial in it; found by one exact linear solve.  Kept here, where
    it is used: no library path needs it."""
    x = la.mat(x)
    n = len(x)
    powers = []
    cur = x
    for _ in range(n):
        powers.append(la.flatten(cur))
        cur = la.matmul(cur, x)
    target = la.flatten(ma.range_projection(x))
    # solve sum_k c_k x^{k+1} = P(x) for the c_k
    cols = tuple(tuple(p[r] for p in powers) for r in range(n * n))
    return solve(cols, target) is not None


def test_range_projection_is_polynomial():
    assert range_projection_is_polynomial(
        la.mat([[Fraction(1, 2), 0], [0, 0]]))
    half = GQ(1) / GQ(2)
    ones = tuple(tuple(half for _ in range(2)) for _ in range(2))
    assert range_projection_is_polynomial(ones)


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


def test_contains_rejects_a_matrix_of_another_size():
    with pytest.raises(ValueError):
        ma.diagonal_algebra(2).contains(la.eye(3))


def test_contains_and_expectation_reject_a_matrix_of_another_shape():
    # the 1 x 4 matrix ((1, 0, 0, 1),) has n * n entries, and contains took
    # it for the identity
    N = ma.diagonal_algebra(2)
    for x in (((1, 0, 0, 1),), ((1, 0, 0), (1,)), ((1,), (0,), (0,), (1,))):
        with pytest.raises(ValueError, match="not a 2 x 2 matrix"):
            N.contains(x)
        with pytest.raises(ValueError, match="not a 2 x 2 matrix"):
            ma.conditional_expectation(N, x)


def test_build_algebra_rejects_generators_of_another_size():
    # a 3 x 3 generator gave a 2-dim algebra of M2, and a 2 x 2 one in M3
    # raised IndexError
    for n, g in ((2, la.eye(3)), (3, la.eye(2)), (2, ((1, 0), (0,)))):
        with pytest.raises(ValueError, match="not a %d x %d matrix" % (n, n)):
            ma.build_algebra(n, [g])


def test_exists_alg_rejects_p_of_another_size():
    # on M3, a 2 x 2 and a 4 x 4 p gave "projections" of their own size,
    # and a 2 x 3 p was accepted
    N = ma.diagonal_algebra(3)
    for p in (la.eye(2), la.eye(4), ((1, 0, 0), (0, 1, 0))):
        with pytest.raises(ValueError, match="not a 3 x 3 matrix"):
            ma.exists_alg(N, p)


def test_expectation_rejects_a_matrix_of_another_size():
    # eye(3) used to be cut to its first four entries, giving diag(1, 0)
    N = ma.diagonal_algebra(2)
    for x in (la.eye(3), ((1, 0, 0), (0, 1, 0)), ((1,), (0, 1, 0))):
        with pytest.raises(ValueError):
            ma.conditional_expectation(N, x)


def test_algebra_span_must_live_in_its_matrix_space():
    with pytest.raises(ValueError):
        ma.StarAlgebra(2, ma.full_matrix_algebra(3).span)

