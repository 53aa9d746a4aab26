"""The derived data that each StarAlgebra keeps: its basis matrices, its
commutant and, on its span, the projector that is its conditional
expectation, built from the inverse Gram matrix of the span rows.  The commutant is built from
sparse, distinct integer equations; commutant_oracle solves the dense GQ
system it was first written with.  The algebra itself, held as a Subspace
span, is compared with the GQ-rref algebras of star_algebra_oracle."""

import pickle
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import omlkit.linalg as la
import omlkit.matrixalg as ma
import star_algebra_oracle as oracle
from omlkit.gq import GQ, ONE
from omlkit.matrixalg import StarAlgebra
from omlkit.subspaces import Subspace, meet


def conditional_expectation_oracle(N, x):
    """The Gram formula with one full matmul per trace, as E_N was first
    written; kept here to check the Frobenius-product version against."""
    basis = N.basis
    k = len(basis)
    G = tuple(tuple(la.trace(la.matmul(la.adjoint(basis[i]), basis[j]))
                    for j in range(k)) for i in range(k))
    t = tuple(la.trace(la.matmul(la.adjoint(b), la.mat(x))) for b in basis)
    coeffs = la.matvec(la.inverse(G), t)
    out = la.zeros(N.n, N.n)
    for c, b in zip(coeffs, basis):
        out = la.add(out, la.scale(c, b))
    return out


def commutant_oracle(A):
    """The dense GQ commutant of the oracle module, as a StarAlgebra."""
    C = oracle.commutant(oracle.GQAlgebra(A.n, A.basis))
    return StarAlgebra(A.n, Subspace(A.n * A.n,
                                     [la.flatten(m) for m in C.basis]))


def _count(monkeypatch, name):
    calls = []
    real = getattr(la, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(la, name, counting)
    return calls


def _two_projection_algebra(n=3, seed=20):
    rng = random.Random(seed)
    gens = [ma.random_rank_one_projection(n, rng) for _ in range(2)]
    return ma.build_algebra(n, gens), ma.random_rank_one_projection(n, rng)


# Hypothesis strategies: small Gaussian-integer vectors and matrices


_entry = st.builds(GQ, st.integers(-2, 2), st.integers(-2, 2))


def _vector(n):
    return st.lists(_entry, min_size=n, max_size=n).filter(any)


def _rank_one_projection(v):
    outer = tuple(tuple(v[i] * v[j].conj() for j in range(len(v)))
                  for i in range(len(v)))
    return la.scale(ONE / la.inner(v, v), outer)


@st.composite
def two_algebras(draw):
    """Generators of two algebras of one or two rank-one projections in
    one M_n, n from 2 to 4, and a random matrix."""
    n = draw(st.integers(2, 4))
    gens = [[_rank_one_projection(draw(_vector(n)))
             for _ in range(draw(st.integers(1, 2)))] for _ in range(2)]
    x = tuple(tuple(draw(_entry) for _ in range(n)) for _ in range(n))
    return n, gens, x


@st.composite
def algebra_and_inputs(draw):
    """An algebra generated by one or two rank-one projections in M_2 or
    M_3, a random matrix and a random rank-one projection."""
    n = draw(st.sampled_from((2, 3)))
    gens = [_rank_one_projection(draw(_vector(n)))
            for _ in range(draw(st.integers(1, 2)))]
    x = tuple(tuple(draw(_entry) for _ in range(n)) for _ in range(n))
    p = _rank_one_projection(draw(_vector(n)))
    return ma.build_algebra(n, gens), x, p


# ---------------------------------------------------------------------------
# computed once


def test_commutant_is_computed_once(monkeypatch):
    A, p = _two_projection_algebra()
    calls = _count(monkeypatch, "kernel")
    C = ma.commutant(A)
    assert ma.commutant(A) is C
    ma.exists_alg(A, p)
    ma.exists_alg(A, ma.exists_alg(A, p))
    assert ma.check_exists_equals_range_of_expectation(A, p)
    assert len(calls) == 1
    assert ma.is_double_commutant_closed(A)
    assert ma.commutant(C).contains(ma.exists_alg(A, p))
    assert ma.commutant(C) is ma.commutant(C)
    assert len(calls) == 2


def test_commutant_equations_are_sparse_and_distinct():
    # M_n's matrix units give 3n(n-1) distinct non-zero equations; the kernel
    # is the scalars, so one kernel row follows.  The dense system had n^4
    # rows (65,536 for M_16)
    for n in (8, 16):
        A = ma.full_matrix_algebra(n)
        la.reset_counts()
        assert ma.commutant(A) == ma.scalar_algebra(n)
        assert la.counts == {"echelon_calls": 2,
                             "echelon_rows": 3 * n * (n - 1) + 1}


def test_gram_inverse_is_computed_once():
    # the first expectation echelons [G | I] once, G the 5 x 5 Gram matrix
    # of the span rows; every later one is an integer matvec
    A, p = _two_projection_algebra()
    la.reset_counts()
    first = ma.conditional_expectation(A, p)
    assert la.counts == {"echelon_calls": 1, "echelon_rows": 5}
    la.reset_counts()
    assert ma.conditional_expectation(A, p) == first
    ma.conditional_expectation(A, la.eye(3))
    assert la.counts == {"echelon_calls": 0, "echelon_rows": 0}


def test_exists_work_counters():
    # the commutant (its equations, then their kernel: 42 rows) on the
    # first call only; then the range of p (3 column rows), one product
    # step under the 2-dimensional commutant (2 rows) and the projector's
    # [G | I] (2 rows)
    A, p = _two_projection_algebra()
    la.reset_counts()
    first = ma.exists_alg(A, p)
    assert la.counts == {"echelon_calls": 5, "echelon_rows": 49}
    la.reset_counts()
    assert ma.exists_alg(A, p) == first
    assert la.counts == {"echelon_calls": 3, "echelon_rows": 7}


def test_support_check_work_counters():
    # with the commutant and the Gram inverse kept: the range of p (3 column
    # rows), its product step (2 rows), the columns of E_N(p) (3 rows) and
    # the product step of their rank-2 range (4 rows); the matrix version
    # took 8 calls and 21 rows
    A, p = _two_projection_algebra()
    ma.commutant(A)
    ma.conditional_expectation(A, p)
    la.reset_counts()
    assert ma.check_exists_equals_range_of_expectation(A, p)
    assert la.counts == {"echelon_calls": 4, "echelon_rows": 12}


def test_commuting_square_work_counters():
    # criterion 10 with its commutants and Gram inverses kept: the meet of
    # M and N (2 calls), then per sample the two of random_projection_in,
    # the range of p and four product steps, and no projector; the matrix
    # version took 282 calls
    units2 = [[[1, 0], [0, 0]], [[0, 1], [0, 0]],
              [[0, 0], [1, 0]], [[0, 0], [0, 1]]]
    M = ma.build_algebra(4, [la.kron(la.mat(u), la.eye(2)) for u in units2])
    N = ma.build_algebra(4, [la.kron(la.eye(2), la.mat(u)) for u in units2])
    K, L = ma.scalar_algebra(4), ma.full_matrix_algebra(4)
    ma.check_commuting_square(K, M, N, L, random.Random(10), samples=1)
    la.reset_counts()
    assert ma.check_commuting_square(K, M, N, L, random.Random(10),
                                     samples=20).ok
    assert la.counts["echelon_calls"] == 2 + 20 * 7


def test_cached_commutant_equals_fresh_computation():
    A, _ = _two_projection_algebra()
    C = ma.commutant(A)
    assert C == ma.commutant(StarAlgebra(A.n, A.span))
    for c in C.basis:
        for a in A.basis:
            assert la.matmul(a, c) == la.matmul(c, a)
    assert ma.commutant(C) == A


def test_center_is_intersection_with_commutant():
    A, _ = _two_projection_algebra()
    d = A.n * A.n
    flat = lambda B: [la.flatten(m) for m in B.basis]
    both = meet(Subspace.from_vectors(d, flat(A)),
                Subspace.from_vectors(d, flat(ma.commutant(A))))
    center = ma.algebra_intersection(A, ma.commutant(A))
    assert [la.flatten(m) for m in center.basis] == list(both.basis)
    assert center.dim == 2


# ---------------------------------------------------------------------------
# invisible to the value


def test_cache_is_invisible_to_eq_hash_repr():
    filled, p = _two_projection_algebra()
    empty = StarAlgebra(filled.n, Subspace(filled.n ** 2, filled.span.basis))
    ma.commutant(filled)
    ma.conditional_expectation(filled, p)
    assert filled.contains(p) == empty.contains(p)
    assert "_commutant" in vars(filled) and "_projector" in vars(filled.span)
    assert "_commutant" not in vars(empty)
    assert "_projector" not in vars(empty.span)
    assert filled == empty
    assert hash(filled) == hash(empty)
    assert repr(filled) == repr(empty)
    assert "_commutant" not in repr(filled)
    assert "_projector" not in repr(filled)
    assert len({filled, empty}) == 1


def test_pickle_round_trip_keeps_value():
    filled, p = _two_projection_algebra()
    ma.commutant(ma.commutant(filled))
    ma.conditional_expectation(filled, p)
    for A in (filled, StarAlgebra(filled.n, filled.span),
              ma.diagonal_algebra(2)):
        back = pickle.loads(pickle.dumps(A))
        assert back == A
        assert hash(back) == hash(A)
        assert repr(back) == repr(A)
        assert ma.commutant(back) == ma.commutant(A)
        x = ma.random_rank_one_projection(A.n, random.Random(21))
        assert ma.conditional_expectation(back, x) == \
            conditional_expectation_oracle(A, x)
        assert back.contains(ma.conditional_expectation(back, x))


# ---------------------------------------------------------------------------
# the Frobenius-product expectation against the matmul oracle


@settings(max_examples=40)
@given(algebra_and_inputs())
def test_expectation_matches_oracle(case):
    N, x, p = case
    for y in (x, p, la.eye(N.n)):
        assert ma.conditional_expectation(N, y) == \
            conditional_expectation_oracle(N, y)


@settings(max_examples=40)
@given(algebra_and_inputs())
def test_commutant_matches_dense_oracle(case):
    N, x, _ = case
    for A in (N, ma.commutant(N), ma.build_algebra(N.n, [x])):
        assert ma.commutant(StarAlgebra(A.n, A.span)) == commutant_oracle(A)


@settings(max_examples=15)
@given(algebra_and_inputs())
def test_expectation_properties_hold(case):
    # E is unital and, on each sample, idempotent onto N, trace preserving
    # and an N-bimodule map
    N, x, p = case
    E = lambda y: ma.conditional_expectation(N, y)
    assert E(la.eye(N.n)) == la.eye(N.n)
    for y in (x, p):
        ey = E(y)
        assert N.contains(ey) and E(ey) == ey
        assert la.trace(ey) == la.trace(la.mat(y))
        for b in N.basis:
            assert E(la.matmul(b, y)) == la.matmul(b, ey)
            assert E(la.matmul(y, b)) == la.matmul(ey, b)


def test_expectation_matches_oracle_on_random_projections():
    rng = random.Random(22)
    for n in (2, 3, 4):
        N = ma.build_algebra(n, [ma.random_rank_one_projection(n, rng)
                                 for _ in range(2)])
        for _ in range(5):
            p = ma.random_projection_in(ma.full_matrix_algebra(n), rng)
            assert ma.conditional_expectation(N, p) == \
                conditional_expectation_oracle(N, p)


def test_expectation_accepts_int_and_fraction_entries():
    N = ma.diagonal_algebra(2)
    x = ((1, Fraction(1, 2)), (3, Fraction(-2, 3)))
    assert ma.conditional_expectation(N, x) == \
        conditional_expectation_oracle(N, x) == \
        la.mat(((1, 0), (0, Fraction(-2, 3))))


# ---------------------------------------------------------------------------
# the Subspace-held algebra against the GQ-rref oracle


def _same(new, old):
    assert new.n == old.n
    assert new.basis == old.basis
    assert new.dim == old.dim


@settings(max_examples=30)
@given(two_algebras())
def test_star_algebra_matches_gq_oracle(case):
    n, gens, x = case
    A, B = (ma.build_algebra(n, g) for g in gens)
    oA, oB = (oracle.build_algebra(n, g) for g in gens)
    _same(A, oA)
    _same(B, oB)
    _same(ma.commutant(A), oracle.commutant(oA))
    center = ma.algebra_intersection(A, ma.commutant(A))
    _same(center, oracle.center(oA))
    _same(ma.algebra_intersection(A, B), oracle.intersection(oA, oB))
    for m in (x, *gens[1], *B.basis, *ma.commutant(A).basis):
        assert A.contains(m) == oA.contains(m)
    C, oC = ma.commutant(B), oracle.commutant(oB)
    for low, high, o_low, o_high in ((A, B, oA, oB), (B, A, oB, oA),
                                     (center, A, oracle.center(oA), oA),
                                     (A, C, oA, oC)):
        assert low.span.leq(high.span) == oracle.leq(o_low, o_high)


def test_named_algebras_match_gq_oracle():
    for n in (1, 2, 3, 4):
        _same(ma.full_matrix_algebra(n), oracle.full_matrix_algebra(n))
        _same(ma.scalar_algebra(n), oracle.span(n, [la.eye(n)]))
        units = [[[int(i == j == k) for j in range(n)] for i in range(n)]
                 for k in range(n)]
        _same(ma.diagonal_algebra(n), oracle.span(n, units))


def test_named_algebras_need_no_elimination():
    # M_16 and its scalars are canonical as written: no echelon call
    la.reset_counts()
    full, scalars = ma.full_matrix_algebra(16), ma.scalar_algebra(16)
    assert (full.dim, scalars.dim) == (256, 1)
    assert la.counts == {"echelon_calls": 0, "echelon_rows": 0}
