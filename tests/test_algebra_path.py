"""Differential tests for the algebra job path on Gaussian-integer rows.

Subspace.contains and leq reduce one integer row against the canonical
rows, the orthogonal projector and the conditional expectation read one
integer matrix kept on the Subspace, invariant_closure multiplies integer
matrices into integer rows, psd_certificate runs its congruence reduction
fraction-free, and random_rank_one_projection builds its outer product from
Gaussian-integer draws.  algebra_path_oracle keeps the GQ versions; on
random Gaussian subspaces, algebras, Hermitian matrices and seeds both must
give equal results, certificates down to the witness and the value.
"""

import pickle
import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

import algebra_path_oracle as oracle
import omlkit.linalg as la
import omlkit.matrixalg as ma
from omlkit.gq import GQ, ZERO
from omlkit.subspaces import Subspace, meet, ortho

# Gaussian rationals with small parts and denominators; about half are zero
_part = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
scalars = st.one_of(st.just(ZERO), st.builds(GQ, _part, _part))
_small = st.builds(GQ, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def subspace_and_vectors(draw):
    """A subspace of GQ^d, d from 1 to 6, spanned by up to d random rows,
    a second such subspace, a random vector and a combination of the
    spanning rows."""
    d = draw(st.integers(1, 6))
    row = st.tuples(*[scalars] * d)
    spans = [draw(st.lists(row, max_size=d)) for _ in range(2)]
    a, b = (Subspace(d, s) for s in spans)
    v = draw(row)
    coeffs = [draw(scalars) for _ in spans[0]]
    inside = tuple(sum((c * r[i] for c, r in zip(coeffs, spans[0])), ZERO)
                   for i in range(d))
    return a, b, v, inside


def _projection(v):
    outer = tuple(tuple(x * y.conj() for y in v) for x in v)
    return la.scale(GQ(1) / la.inner(v, v), outer)


@st.composite
def algebra_and_inputs(draw):
    """An algebra of one or two rank-one projections in M_2 to M_4, a
    random matrix and a random rank-one projection."""
    n = draw(st.integers(2, 4))
    vector = st.lists(_small, min_size=n, max_size=n).filter(any)
    gens = [_projection(draw(vector))
            for _ in range(draw(st.integers(1, 2)))]
    x = tuple(tuple(draw(scalars) for _ in range(n)) for _ in range(n))
    return ma.build_algebra(n, gens), x, _projection(draw(vector))


@st.composite
def hermitian(draw):
    """A Hermitian matrix of size 0 to 6: random entries, the same with a
    zero diagonal, or a Gram matrix of random vectors (PSD, maybe
    singular), each possibly less a positive multiple of the identity."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("random", "zero-diagonal", "gram")))
    if kind == "gram":
        vs = [[draw(_small) for _ in range(n)]
              for _ in range(draw(st.integers(1, 6)))]
        a = [[sum((v[i].conj() * v[j] for v in vs), ZERO) for j in range(n)]
             for i in range(n)]
    else:
        a = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            if kind == "random":
                a[i][i] = GQ(draw(_part))
            for j in range(i + 1, n):
                a[i][j] = draw(scalars)
                a[j][i] = a[i][j].conj()
    shift = draw(st.sampled_from((0, 0, 1, Fraction(1, 3))))
    return tuple(tuple(x - shift if i == j else x for j, x in enumerate(row))
                 for i, row in enumerate(a))


def _same_certificate(a):
    got, want = ma.psd_certificate(a), oracle.psd_certificate(a)
    assert (got.is_psd, got.witness) == (want.is_psd, want.witness)
    if not got.is_psd:
        form = _form(a, got.witness)
        assert form == want.value and form.im == 0 and form.re < 0
    return got


def _form(a, v):
    """v* a v."""
    return la.inner(v, la.matvec(la.mat(a), v))


# ---------------------------------------------------------------------------
# Subspace: membership, inclusion, projector


@settings(max_examples=150)
@given(subspace_and_vectors())
def test_contains_and_leq_match_oracle(case):
    a, b, v, inside = case
    assert a.contains(v) == oracle.contains(a, v)
    assert a.contains(inside) and oracle.contains(a, inside)
    for low, high in ((a, b), (b, a), (a, a)):
        assert low.leq(high) == \
            all(oracle.contains(high, r) for r in low.basis)


@settings(max_examples=150)
@given(subspace_and_vectors())
def test_projector_matches_oracle(case):
    a, _, v, inside = case
    P = ma.projector_onto(a)
    assert P == oracle.projector_onto(a)
    assert repr(P) == repr(oracle.projector_onto(a))
    assert a.project(v) == la.matvec(P, v)
    assert a.project(inside) == inside


@st.composite
def hyperplane_and_vector(draw):
    """A hyperplane of GQ^d, d from 1 to 9, spanned by d - 1 independent
    random rows (the zero subspace at d = 1, a line at d = 2), and a random
    vector."""
    d = draw(st.integers(1, 9))
    row = st.tuples(*[scalars] * d)
    s = Subspace(d, draw(st.lists(row, min_size=d - 1, max_size=d - 1)))
    assume(s.rank == d - 1)
    return s, draw(row)


@settings(max_examples=150, deadline=None)
@given(hyperplane_and_vector())
def test_hyperplane_projector_matches_oracle(case):
    # the projector of a hyperplane is read off its normal, with no Gram
    # inverse; the oracle inverts the Gram matrix of the basis
    s, v = case
    P, Q = ma.projector_onto(s), oracle.projector_onto(s)
    assert P == Q and repr(P) == repr(Q)
    assert s.project(v) == la.matvec(Q, v)


def test_projector_of_the_zero_and_full_spaces():
    for d in (1, 4):
        assert ma.projector_onto(Subspace.zero(d)) == la.mat([[0] * d] * d)
        assert ma.projector_onto(Subspace.full(d)) == la.eye(d)


def test_projector_pickles_with_its_subspace():
    s = Subspace(3, [(1, GQ(0, 1), 2), (0, 1, GQ(1, -1))])
    P = ma.projector_onto(s)
    back = pickle.loads(pickle.dumps(s))
    assert "_projector" in vars(back)
    assert back == s and hash(back) == hash(s) and repr(back) == repr(s)
    assert ma.projector_onto(back) == P


# ---------------------------------------------------------------------------
# algebras: expectation, invariant closure, quantifier


@settings(max_examples=40)
@given(algebra_and_inputs())
def test_expectation_matches_oracle(case):
    N, x, p = case
    for y in (x, p, la.eye(N.n)):
        got = ma.conditional_expectation(N, y)
        assert got == oracle.conditional_expectation(N, y)
        assert repr(got) == repr(oracle.conditional_expectation(N, y))


@settings(max_examples=40)
@given(algebra_and_inputs())
def test_invariant_closure_matches_oracle(case):
    N, x, p = case
    C = ma.commutant(N)
    for start in (ma.range_space(p), ma.range_space(x)):
        assert ma.invariant_closure(C.span.rows, start) == \
            oracle.invariant_closure(C.basis, start)
        assert ma.invariant_closure(N.span.rows + C.span.rows, start) == \
            oracle.invariant_closure(N.basis + C.basis, start)
    assert ma.exists_alg(N, p) == oracle.projector_onto(
        oracle.invariant_closure(C.basis, ma.range_space(p)))


@settings(max_examples=200)
@given(st.integers(0, 2 ** 32), st.integers(1, 6))
def test_random_rank_one_projection_matches_oracle(seed, n):
    # the same matrix, down to repr, and the same draws from the generator
    rng, orng = random.Random(seed), random.Random(seed)
    got = ma.random_rank_one_projection(n, rng)
    want = oracle.random_rank_one_projection(n, orng)
    assert got == want and repr(got) == repr(want)
    assert rng.random() == orng.random()


@st.composite
def matrices_and_start(draw):
    """One or two arbitrary n x n Gaussian-integer matrices, n from 1 to 4
    (Hermitian or symmetric only by chance), m in {1, 2, n}, and a
    subspace of C^(nm) spanned by one to three random rows."""
    n = draw(st.integers(1, 4))
    m = draw(st.sampled_from((1, 2, n)))
    entry = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    gs = draw(st.lists(st.lists(entry, min_size=n * n, max_size=n * n),
                       min_size=1, max_size=2))
    row = st.tuples(*[scalars] * (n * m))
    start = Subspace(n * m, draw(st.lists(row, min_size=1, max_size=3)))
    return n, m, gs, start


@settings(max_examples=60)
@given(matrices_and_start())
def test_invariant_closure_on_n_by_m_matches_kron_oracle(case):
    # a row of length nm is an n x m matrix X flattened row by row, and
    # g X is g (x) 1_m applied to that row
    n, m, gs, start = case
    rows = [([a for a, _ in g], [b for _, b in g]) for g in gs]
    mats = [la.kron(la.unflatten([GQ(a, b) for a, b in g], n, n), la.eye(m))
            for g in gs]
    assert ma.invariant_closure(rows, start) == \
        oracle.invariant_closure(mats, start)


def test_invariant_closure_takes_as_many_rounds_as_needed():
    # the shift e_0 -> e_1 -> e_2 reaches e_2 only in the second round; the
    # matrices of an algebra need one round, as they span their products
    shift = la.mat(((0, 0, 0), (1, 0, 0), (0, 1, 0)))
    start = Subspace(3, [(1, 0, 0)])
    rows = Subspace(9, [la.flatten(shift)]).rows
    assert ma.invariant_closure(rows, start) == Subspace.full(3) == \
        oracle.invariant_closure([shift], start)
    assert ma.invariant_closure(rows, Subspace(3, [(0, 0, 1)])).rank == 1


# ---------------------------------------------------------------------------
# fraction-free PSD certificate


@settings(max_examples=300)
@given(hermitian())
def test_psd_certificate_matches_oracle(a):
    _same_certificate(a)


def test_psd_certificate_on_each_outcome():
    # a zero diagonal with a non-zero off-diagonal entry, a negative pivot,
    # and a PSD input whose first diagonal entry is zero
    zero_diagonal = ((0, GQ(1, 2)), (GQ(1, -2), 0))
    res = _same_certificate(zero_diagonal)
    assert not res.is_psd and _form(zero_diagonal, res.witness) == -10
    res = _same_certificate(((1, 2), (2, 1)))
    assert not res.is_psd and _form(((1, 2), (2, 1)), res.witness) == -3
    assert _same_certificate(((0, 0), (0, 2))).is_psd


def test_psd_certificate_on_a_dense_16x16_gram_matrix():
    # without content removal the entries double in bit length at every
    # pivot, and this input does not finish
    rng = random.Random(16)
    vs = [[GQ(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(16)]
          for _ in range(16)]
    gram = tuple(tuple(sum((v[i].conj() * v[j] for v in vs), ZERO)
                       for j in range(16)) for i in range(16))
    assert _same_certificate(gram).is_psd
    shifted = tuple(tuple(x - 10**6 if i == j else x
                          for j, x in enumerate(row))
                    for i, row in enumerate(gram))
    assert not _same_certificate(shifted).is_psd


# ---------------------------------------------------------------------------
# the quantifier range against the product-step oracle


def _unit(n, i):
    return tuple(int(j == i) for j in range(n))


@st.composite
def subspace_of_rank(draw, n, rank):
    """A subspace of GQ^n of exactly the given rank: the span of up to
    rank random rows, completed by standard basis vectors."""
    row = st.tuples(*[_small] * n)
    vecs = draw(st.lists(row, max_size=rank))
    sub = Subspace(n, vecs)
    for i in range(n):
        if sub.rank == rank:
            break
        if not sub.contains(_unit(n, i)):
            vecs.append(_unit(n, i))
            sub = Subspace(n, vecs)
    return sub


@st.composite
def algebra_and_subspace(draw):
    """An algebra in M_2 to M_6, a subspace of C^n of a rank drawn from 0
    to n and a hyperplane.  The algebra is generated by one or two rank-one
    projections, or is the span of I and one rank-one matrix u v^T: a
    unital algebra, closed under adjoints only when u v^T is a multiple of
    a Hermitian matrix."""
    n = draw(st.integers(2, 6))
    vector = st.lists(_small, min_size=n, max_size=n).filter(any)
    if draw(st.booleans()):
        N = ma.build_algebra(n, [_projection(draw(vector))
                                 for _ in range(draw(st.integers(1, 2)))])
    else:
        u, v = draw(vector), draw(vector)
        N = ma.StarAlgebra(n, Subspace(n * n, [la.flatten(la.eye(n)),
                                               [x * y for x in u for y in v]]))
    sub = draw(subspace_of_rank(n, draw(st.integers(0, n))))
    return N, sub, draw(subspace_of_rank(n, n - 1))


@settings(max_examples=120, deadline=None)
@given(algebra_and_subspace())
def test_exists_range_matches_product_step_oracle(case):
    # a random subspace mostly spreads to the whole space, so the range,
    # its complement (both N'-invariant) and the range cut by a hyperplane
    # (spreading back into the range) are tried as well
    N, sub, hyper = case
    ranged = ma._exists_range(N, sub)
    for s in (sub, ranged, ortho(ranged), meet(ranged, hyper)):
        got = ma._exists_range(N, Subspace(s.dim, s.basis))
        assert got == oracle._exists_range(N, s)
        if got.rank == N.n:
            assert got is Subspace.full(N.n)
    assert ma.exists_alg(N, ma.projector_onto(sub)) == \
        oracle.projector_onto(oracle._exists_range(N, sub))


def test_hyperplane_range_needs_no_elimination():
    # N = M_2 + C 1_4 in M_6, so N' = C 1_2 + M_4: a hyperplane holding
    # e_2 to e_5 is N'-invariant, and one that does not spreads to C^6;
    # with the commutant kept, each takes only the one-row echelon form of
    # its normal, in ortho, and no product step
    n = 6
    e = [_unit(n, i) for i in range(n)]
    N = ma.build_algebra(n, [la.mat([e[0], *[(0,) * n] * 5]),
                             la.mat([e[1], e[0], *[(0,) * n] * 4])])
    assert ma.commutant(N).dim == 17

    def plus(u, v):
        return tuple(x + y for x, y in zip(u, v))

    kept = Subspace(n, [plus(e[0], e[1]), *e[2:]])
    spread = Subspace(n, [e[0], plus(e[1], e[2]), *e[3:]])
    la.reset_counts()
    assert ma._exists_range(N, kept) is kept
    assert ma._exists_range(N, spread) is Subspace.full(n)
    assert la.counts == {"echelon_calls": 2, "echelon_rows": 2}
    for sub in (kept, spread):
        assert ma._exists_range(N, sub) == oracle._exists_range(N, sub)


def test_hyperplane_range_of_an_algebra_not_closed_under_adjoints():
    # N = span{I, E_01} in M_3 is a unital algebra but not a *-algebra:
    # N' = span{E_00 + E_11, E_01, E_02, E_21, E_22}.  S = <e_0, e_2> is
    # N'-invariant although E_01 maps its normal e_1 into S, so the test
    # reads <g s, e_1> for the rows s of S, not <g e_1, s>
    n = 3
    E = [tuple(int(k == i * n + j) for k in range(n * n))
         for i in range(n) for j in range(n)]
    N = ma.StarAlgebra(n, Subspace(n * n, [la.flatten(la.eye(n)), E[1]]))
    assert ma.commutant(N).span == Subspace(n * n, [
        tuple(x + y for x, y in zip(E[0], E[4])), E[1], E[2], E[7], E[8]])
    sub = Subspace(n, [_unit(n, 0), _unit(n, 2)])
    assert ma._exists_range(N, sub) == oracle._exists_range(N, sub) == sub
