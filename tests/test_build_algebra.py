"""build_algebra as one invariant closure: the least subspace of M_n that
holds the identity and is invariant under left multiplication by the
generators and their adjoints.  star_algebra_oracle.build_algebra, which
adds all pairwise GQ products until the dimension stops growing, is the
reference."""

from hypothesis import example, given, settings, strategies as st

import omlkit.linalg as la
import omlkit.matrixalg as ma
import star_algebra_oracle as oracle
from omlkit.gq import GQ


def shift_and_diagonal(n):
    """The cyclic shift and diag(1..n); together they generate all of M_n."""
    return [[[int(j == (i + 1) % n) for j in range(n)] for i in range(n)],
            [[(i + 1) * int(i == j) for j in range(n)] for i in range(n)]]


def _outer(v, w):
    """The rank-one operator v w*, for vectors of (re, im) pairs."""
    return [[GQ(a, b) * GQ(c, -d) for c, d in w] for a, b in v]


@st.composite
def generator_sets(draw):
    """n in 2..4 and one to three complex generators, each an arbitrary
    matrix of sparse Gaussian-integer entries (one such almost always
    generates all of M_n, and is not Hermitian) or a rank-one operator
    v w* (a multiple of a projection when v = w; with its adjoint it spans
    a proper subalgebra for n > 2)."""
    n = draw(st.integers(2, 4))
    entry = st.one_of(st.just((0, 0)),
                      st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    vector = st.lists(entry, min_size=n, max_size=n).filter(
        lambda v: any(a or b for a, b in v))
    dense = st.lists(st.lists(entry.map(lambda z: GQ(*z)),
                              min_size=n, max_size=n), min_size=n, max_size=n)
    rank_one = st.tuples(vector, vector, st.booleans()).map(
        lambda t: _outer(t[0], t[0] if t[2] else t[1]))
    return n, draw(st.lists(st.one_of(dense, rank_one),
                            min_size=1, max_size=3))


@settings(max_examples=60)
@example((3, shift_and_diagonal(3)))
@example((2, [[[0, 1], [0, 0]]]))
@given(generator_sets())
def test_build_algebra_matches_oracle(case):
    n, gens = case
    A, old = ma.build_algebra(n, gens), oracle.build_algebra(n, gens)
    assert (A.n, A.dim, A.basis) == (old.n, old.dim, old.basis)
    for g in gens:
        assert A.contains(g) and A.contains(la.adjoint(la.mat(g)))


def test_adjoint_half_and_identity_are_in_the_algebra():
    # v w* alone spans a 1-dimensional algebra without its adjoint; with it
    # and the identity, M_2 on span{v, w} plus the scalars: 4 + 1
    v, w = [(1, 0), (0, 1), (0, 0)], [(0, 0), (1, 0), (1, 1)]
    A = ma.build_algebra(3, [_outer(v, w)])
    assert A.dim == 5
    assert A.contains(la.eye(3))
    assert A.contains(_outer(w, v)) and A.contains(_outer(v, v))
    # the algebra of v w* is not that of its transpose, conj(w) conj(v)*
    conj = [(a, -b) for a, b in v], [(a, -b) for a, b in w]
    assert not A.contains(_outer(conj[1], conj[0]))


def test_build_algebra_work_counters():
    # one echelon of the four generator and adjoint rows (the diagonal is
    # Hermitian, so they span 3), then one per closure round from the
    # identity: ranks 1 -> 4 -> 10 -> 16 -> 16 in M_4, and
    # 1 -> 4 -> 11 -> 24 -> 42 -> 60 -> 64 -> 64 in M_8
    for n, calls, rows in ((4, 5, 128), (8, 8, 828)):
        la.reset_counts()
        A = ma.build_algebra(n, shift_and_diagonal(n))
        assert A == ma.full_matrix_algebra(n)
        assert la.counts == {"echelon_calls": calls, "echelon_rows": rows}
