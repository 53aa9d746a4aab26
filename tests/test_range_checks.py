"""The support identity and the commuting square decided on integer rows
and canonical ranges.  Two orthogonal projections are equal exactly when
their ranges are, so check_exists_equals_range_of_expectation and the
quantifier-order samples of check_commuting_square compare Subspaces where
the versions kept in algebra_path_oracle compare projection matrices; the
expectation order is compared on integer projector products where the
oracle compares GQ expectations.  Both must agree."""

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


def _shift(n):
    return tuple(tuple(int(j == (i + 1) % n) for j in range(n))
                 for i in range(n))


def _two_commutant_square():
    # M = {P}', N = {Q}' for rank-two projections P, Q that do not commute
    P = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0))
    Q = ma.range_projection(la.transpose(((1, 0, 1, 0), (0, 1, 1, 1))))
    M = ma.commutant(ma.build_algebra(4, [P]))
    N = ma.commutant(ma.build_algebra(4, [Q]))
    return ma.algebra_intersection(M, N), M, N, ma.full_matrix_algebra(4)


@pytest.mark.parametrize("square, seed, samples", [
    (_criterion_10_square, 10, 20), (_trivial_square, 4, 5)])
def test_commuting_square_matches_oracle(square, seed, samples):
    # the oracle draws the same rank-one q, takes the least projection of
    # L above it by exists_alg and compares exists_alg matrices
    rng, orng = random.Random(seed), random.Random(seed)
    got = ma.check_commuting_square(*square(), rng, samples=samples)
    want = oracle.check_commuting_square(
        *square(), orng, samples=samples,
        draw=oracle.least_projection_above_rank_one)
    assert got == want and got.witness == want.witness
    assert got.ok and got.quantifiers_commute is True
    assert rng.random() == orng.random()


@st.composite
def squares(draw):
    """A square of inclusions in M_n, n from 2 to 4: M and N generated by
    0 to 2 seeded rank-one projections, M inside N, or the diagonal and the
    circulant algebra (whose expectations commute); L is M_n or the algebra
    M and N generate, and K the scalars or the meet of M and N."""
    n = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def gens(k):
        return [ma.random_rank_one_projection(n, rng) for _ in range(k)]

    kind = draw(st.sampled_from(("random", "nested", "masas")))
    if kind == "random":
        M = ma.build_algebra(n, gens(draw(st.integers(0, 2))))
        N = ma.build_algebra(n, gens(draw(st.integers(0, 2))))
    elif kind == "nested":
        g = gens(2)
        M, N = ma.build_algebra(n, g[:1]), ma.build_algebra(n, g)
    else:
        M, N = ma.diagonal_algebra(n), ma.build_algebra(n, [_shift(n)])
    if draw(st.booleans()):
        M, N = N, M
    L = ma.full_matrix_algebra(n) if draw(st.booleans()) else \
        ma.build_algebra(n, M.basis + N.basis)
    K = ma.algebra_intersection(M, N) if draw(st.booleans()) else \
        ma.scalar_algebra(n)
    return K, M, N, L


def _unsampled(check, square):
    rep = check(*square)
    return rep.expectations_commute, rep.intersection_is_corner, rep.witness


@settings(max_examples=60, deadline=None)
@given(squares())
def test_expectation_order_matches_oracle(square):
    assert _unsampled(ma.check_commuting_square, square) == \
        _unsampled(oracle.check_commuting_square, square)
    assert ma.check_commuting_square(*square).quantifiers_commute is None


def test_expectation_order_takes_both_values():
    # a fixed sweep of the Hypothesis squares: the diagonal and circulant
    # algebras and nested algebras commute, random pairs mostly do not
    seen = set()
    for n in (2, 3, 4):
        rng = random.Random(n)
        P, Q, R = (ma.random_rank_one_projection(n, rng) for _ in range(3))
        full = ma.full_matrix_algebra(n)
        for M, N in ((ma.build_algebra(n, [P]), ma.build_algebra(n, [Q])),
                     (ma.build_algebra(n, [P]), ma.build_algebra(n, [P, R])),
                     (ma.diagonal_algebra(n),
                      ma.build_algebra(n, [_shift(n)]))):
            square = (ma.scalar_algebra(n), M, N, full)
            got = _unsampled(ma.check_commuting_square, square)
            assert got == _unsampled(oracle.check_commuting_square, square)
            seen.add(got[0])
    assert seen == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_samples_on_a_full_algebra_have_rank_one(n, monkeypatch):
    # each sample is the least projection of L above a rank-one q, which
    # is q itself on L = M_n; the support draws of random_projection_in
    # were the identity on M_4 in 200 of 200 draws
    K, M, N, L = _criterion_10_square() if n == 4 else \
        (ma.scalar_algebra(n), ma.diagonal_algebra(n), ma.scalar_algebra(n),
         ma.full_matrix_algebra(n))
    ranks = []
    real = ma._exists_range

    def recording(A, sub):
        out = real(A, sub)
        if A is L:
            ranks.append(out.rank)
        return out

    monkeypatch.setattr(ma, "_exists_range", recording)
    assert ma.check_commuting_square(K, M, N, L, random.Random(10),
                                     samples=20).ok
    assert ranks == [1] * 20


def test_rank_one_samples_separate_the_quantifier_orders():
    # a square whose expectations commute has commuting quantifiers, as
    # exists_M exists_N p is then the support of E_K(p) either way, so the
    # failing sample's report carries the expectation-order witness; the
    # draws are replayed to find the sample p where the check stopped
    K, M, N, L = square = _two_commutant_square()
    rng, replay = random.Random(1), random.Random(1)
    rep = ma.check_commuting_square(*square, rng, samples=20)
    assert rep.quantifiers_commute is False
    assert rep.witness[0] == "expectation_order"
    for _ in range(20):
        p = oracle.least_projection_above_rank_one(L, replay)
        if oracle.exists_alg(M, oracle.exists_alg(N, p)) != \
                oracle.exists_alg(N, oracle.exists_alg(M, p)):
            break
    assert rng.random() == replay.random()
    assert ma.range_space(p).rank == 1
    assert ma.exists_alg(M, ma.exists_alg(N, p)) != \
        ma.exists_alg(N, ma.exists_alg(M, p))
    # the support draws of random_projection_in miss it
    parent = oracle.check_commuting_square(*square, random.Random(1),
                                           samples=20)
    assert parent.quantifiers_commute is True


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


def test_quantifier_witness_is_kept_under_the_witness_precedence():
    # M = {P}', N = {Q}' in M_4, for P and Q each the range of two seeded
    # rank-one projections: the expectations do not commute, so `witness`
    # names their order, and the sample where the quantifier orders differ
    # is kept apart as quantifier_witness, with a projection of L
    L = ma.full_matrix_algebra(4)
    for seed in range(1, 40):
        rng = random.Random(seed)
        P, Q = (ma.range_projection(tuple(
            a + b for a, b in zip(ma.random_rank_one_projection(4, rng),
                                  ma.random_rank_one_projection(4, rng))))
            for _ in range(2))
        M = ma.commutant(ma.build_algebra(4, [P]))
        N = ma.commutant(ma.build_algebra(4, [Q]))
        rep = ma.check_commuting_square(ma.algebra_intersection(M, N), M, N,
                                        L, random.Random(seed), samples=20)
        assert rep.quantifiers_commute is False
        assert rep.witness[0] == "expectation_order"
        kind, w = rep.quantifier_witness
        assert kind == "quantifier_order"
        assert ma.is_projection(w) and L.contains(w)
        assert ma.exists_alg(M, ma.exists_alg(N, w)) != \
            ma.exists_alg(N, ma.exists_alg(M, w))
    rep = ma.check_commuting_square(*_criterion_10_square(),
                                    random.Random(10), samples=20)
    assert rep.ok and rep.quantifier_witness is None
