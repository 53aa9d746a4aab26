"""The support identity and the quantifier order decided on canonical
ranges.  Two orthogonal projections are equal exactly when their ranges
are, so check_exists_equals_range_of_expectation and the quantifier-order
samples of check_commuting_square compare Subspaces where the versions kept
in algebra_path_oracle compare projection matrices; both must agree."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import algebra_path_oracle as oracle
import omlkit.linalg as la
import omlkit.matrixalg as ma
from omlkit.gq import GQ

E12 = ((0, 1), (0, 0))


def _unit(n, i, j):
    return tuple(tuple(int((r, c) == (i, j)) for c in range(n))
                 for r in range(n))


@st.composite
def algebra_and_input(draw):
    """An algebra of M_n, n from 2 to 4, generated by 0 to 2 seeded
    rank-one projections, and a rank-one projection, a Gaussian-integer
    matrix or an off-diagonal matrix unit."""
    n = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    gens = [ma.random_rank_one_projection(n, rng)
            for _ in range(draw(st.integers(0, 2)))]
    kind = draw(st.sampled_from(("projection", "matrix", "unit")))
    if kind == "projection":
        x = ma.random_rank_one_projection(n, rng)
    elif kind == "matrix":
        entry = st.builds(GQ, st.integers(-2, 2), st.integers(-2, 2))
        x = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    else:
        i, j = draw(st.permutations(range(n)))[:2]
        x = _unit(n, i, j)
    return ma.build_algebra(n, gens), x


@settings(max_examples=150, deadline=None)
@given(algebra_and_input())
def test_support_identity_matches_oracle(case):
    N, x = case
    assert ma.check_exists_equals_range_of_expectation(N, x) == \
        oracle.check_exists_equals_range_of_expectation(N, x)


def test_support_identity_takes_both_values():
    # the draws of the Hypothesis test, from a fixed seed: rank-one
    # projections pass, matrix units on a non-full algebra fail
    rng = random.Random(23)
    seen = set()
    for n in (2, 3, 4):
        for k in (0, 1, 2):
            N = ma.build_algebra(n, [ma.random_rank_one_projection(n, rng)
                                     for _ in range(k)])
            for x in (ma.random_rank_one_projection(n, rng), _unit(n, 0, 1),
                      _unit(n, n - 1, 0)):
                got = ma.check_exists_equals_range_of_expectation(N, x)
                assert got == \
                    oracle.check_exists_equals_range_of_expectation(N, x)
                seen.add(got)
    assert seen == {True, False}


def test_support_identity_on_a_matrix_unit():
    # E_N(E12) is 0 on the scalars and the diagonal, whose quantifiers
    # at E12 are not; on M_2 everything is its own expectation
    for N, want in ((ma.scalar_algebra(2), False),
                    (ma.diagonal_algebra(2), False),
                    (ma.full_matrix_algebra(2), True)):
        assert ma.check_exists_equals_range_of_expectation(N, E12) is want
        assert oracle.check_exists_equals_range_of_expectation(N, E12) \
            is want


def test_support_identity_rejects_a_matrix_of_another_size():
    for check in (ma.check_exists_equals_range_of_expectation,
                  oracle.check_exists_equals_range_of_expectation):
        with pytest.raises(ValueError, match="not a 2 x 2 matrix"):
            check(ma.full_matrix_algebra(2), ((1,),))


def _criterion_10_square():
    units2 = [[[1, 0], [0, 0]], [[0, 1], [0, 0]],
              [[0, 0], [1, 0]], [[0, 0], [0, 1]]]
    M = ma.build_algebra(4, [la.kron(la.mat(u), la.eye(2)) for u in units2])
    N = ma.build_algebra(4, [la.kron(la.eye(2), la.mat(u)) for u in units2])
    return ma.scalar_algebra(4), M, N, ma.full_matrix_algebra(4)


def _trivial_square():
    scal, full = ma.scalar_algebra(2), ma.full_matrix_algebra(2)
    return scal, full, scal, full


@pytest.mark.parametrize("square, seed, samples", [
    (_criterion_10_square, 10, 20), (_trivial_square, 4, 5)])
def test_commuting_square_matches_oracle(square, seed, samples):
    rng, orng = random.Random(seed), random.Random(seed)
    got = ma.check_commuting_square(*square(), rng, samples=samples)
    want = oracle.check_commuting_square(*square(), orng, samples=samples)
    assert got == want and got.witness == want.witness
    assert got.ok and got.quantifiers_commute is True
    assert rng.random() == orng.random()


def test_quantifier_order_ranges_match_matrices():
    # commutants span{1, P} and span{1, Q} for rank-two projections P, Q:
    # the order of the quantifiers matters at some rank-one projections
    P = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    Q = ma.range_projection(la.transpose(((1, 0, 1, 0), (0, 1, 1, 1))))
    M = ma.commutant(ma.build_algebra(4, [P]))
    N = ma.commutant(ma.build_algebra(4, [Q]))
    rng = random.Random(1)
    seen = set()
    for _ in range(20):
        p = ma.random_rank_one_projection(4, rng)
        r = ma.range_space(p)
        same = ma._exists_range(M, ma._exists_range(N, r)) == \
            ma._exists_range(N, ma._exists_range(M, r))
        assert same == (oracle.exists_alg(M, oracle.exists_alg(N, p)) ==
                        oracle.exists_alg(N, oracle.exists_alg(M, p)))
        seen.add(same)
    assert seen == {True, False}


def test_unsampled_quantifier_order_is_not_claimed():
    # with no rng, or no samples, no projection is drawn: the quantifier
    # order is reported as None and the square is not ok
    square = _criterion_10_square()
    for rng, samples in ((None, 20), (random.Random(10), 0)):
        rep = ma.check_commuting_square(*square, rng, samples=samples)
        assert rep.expectations_commute and rep.intersection_is_corner
        assert rep.quantifiers_commute is None
        assert rep.ok is False
        assert rep.witness is None
