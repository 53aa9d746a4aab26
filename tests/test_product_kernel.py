"""Differential and property tests for the product kernel.

linalg.matmul, matvec and inner compute each entry as one Gaussian-integer
sum over rows scaled by the lcm of their denominators; product_oracle sums
GQ products directly.  Both must give equal GQ entries on every input.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import omlkit.linalg as la
from omlkit.gq import GQ, ZERO
import product_oracle as oracle

# Gaussian rationals whose denominators are small, large or mixed within
# one row, so the row lcm differs from every entry's own denominator
_part = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**30, 10**30),
              st.integers(1, 10**18)))
_nonzero = st.builds(GQ, _part, _part).filter(bool)
scalars = st.one_of(st.just(ZERO), _nonzero, _nonzero)
# what GQ() accepts besides GQ: int and Fraction entries
plain = st.one_of(st.integers(-50, 50),
                  st.builds(Fraction, st.integers(-50, 50),
                            st.integers(1, 30)))
mixed = st.one_of(scalars, plain)


def _matrix(draw, m, n, entries=scalars):
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(m))


def _vector(draw, n, entries=scalars):
    return tuple(draw(entries) for _ in range(n))


def _entries(x):
    return [x] if isinstance(x, GQ) else [y for item in x
                                          for y in _entries(item)]


def _same(got, want):
    """Equal values, every entry a GQ with Fraction parts, and the same
    text form, so reports stay byte-identical."""
    assert got == want
    assert repr(got) == repr(want)
    for x in _entries(got):
        assert type(x) is GQ
        assert type(x.re) is Fraction and type(x.im) is Fraction


@st.composite
def product_shapes(draw, entries=scalars):
    """(a, b) of shapes m x k and k x n, each of m, k, n in 0..5."""
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    return _matrix(draw, m, k, entries), _matrix(draw, k, n, entries)


@given(product_shapes())
def test_matmul_matches_oracle(ab):
    a, b = ab
    _same(la.matmul(a, b), oracle.matmul(a, b))


@given(st.data())
def test_matvec_matches_oracle(data):
    m, n = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    a = _matrix(data.draw, m, n)
    v = _vector(data.draw, n)
    _same(la.matvec(a, v), oracle.matvec(a, v))


@given(st.data())
def test_inner_matches_oracle(data):
    n = data.draw(st.integers(0, 9))
    u, v = _vector(data.draw, n), _vector(data.draw, n)
    _same(la.inner(u, v), oracle.inner(u, v))


@given(product_shapes(entries=mixed))
def test_matmul_accepts_int_and_fraction_entries(ab):
    a, b = ab
    _same(la.matmul(a, b), oracle.matmul(la.mat(a), la.mat(b)))


@given(st.data())
def test_matvec_and_inner_accept_int_and_fraction_entries(data):
    n = data.draw(st.integers(0, 6))
    a = _matrix(data.draw, data.draw(st.integers(0, 4)), n, mixed)
    u, v = _vector(data.draw, n, mixed), _vector(data.draw, n, mixed)
    _same(la.matvec(a, v), oracle.matvec(la.mat(a), la.mat([v])[0]))
    gu, gv = la.mat([u, v])
    _same(la.inner(u, v), oracle.inner(gu, gv))


def test_empty_shapes():
    a = la.mat([[1, 2], [3, 4], [5, 6]])
    assert la.matmul((), a) == ()
    assert la.matmul(a, la.mat([[], []])) == ((), (), ())
    assert la.matmul(((), ()), ()) == ((), ())
    assert la.matvec((), ()) == ()
    assert la.matvec(((), ()), ()) == (ZERO, ZERO)
    assert la.inner((), ()) == ZERO and type(la.inner((), ())) is GQ
    for got in la.matvec(((), ()), ()):
        assert type(got) is GQ


@given(st.data())
def test_inner_is_conjugate_linear_in_the_first_argument(data):
    n = data.draw(st.integers(1, 6))
    u, v, w = (_vector(data.draw, n) for _ in range(3))
    c = data.draw(scalars)
    cu = tuple(c * x for x in u)
    assert la.inner(cu, v) == c.conj() * la.inner(u, v)
    assert la.inner(v, cu) == c * la.inner(v, u)
    assert la.inner(v, u) == la.inner(u, v).conj()
    uw = tuple(x + y for x, y in zip(u, w))
    assert la.inner(uw, v) == la.inner(u, v) + la.inner(w, v)
    assert la.inner(u, u).im == 0 and la.inner(u, u).re >= 0


def test_inner_conjugates_the_first_argument():
    i = GQ(0, 1)
    assert la.inner((i,), (1,)) == GQ(0, -1)
    assert la.inner((1,), (i,)) == i
    assert la.inner((GQ(1, 2),), (GQ(1, 2),)) == 5


def test_inner_rejects_vectors_of_different_lengths():
    # zip cut the longer one short: inner((1, 2, 3), (1, 1)) gave 3
    for u, v in (((1, 2, 3), (1, 1)), ((1, 1), (1, 2, 3)), ((), (1,))):
        with pytest.raises(ValueError):
            la.inner(u, v)


def test_matvec_rejects_a_vector_of_another_length():
    a = la.mat([[1, 2], [3, 4]])
    for v in ((1,), (1, 2, 3), ()):
        with pytest.raises(ValueError):
            la.matvec(a, v)
    with pytest.raises(ValueError):
        la.matvec(((1, 2), (3,)), (1, 1))


def test_matmul_rejects_mismatched_shapes():
    a = la.mat([[1, 2], [3, 4]])
    for x, y in ((a, la.mat([[1, 2]])),            # 2 x 2 times 1 x 2
                 (la.mat([[1, 2, 3]]), a),         # 1 x 3 times 2 x 2
                 (a, ((1, 2), (3,))),              # ragged right operand
                 (((1, 2), (3,)), a)):             # ragged left operand
        with pytest.raises(ValueError):
            la.matmul(x, y)


def test_sub_rejects_mismatched_shapes():
    # zip cut the larger one short: sub(((1, 2), (3, 4)), ((1,),)) gave ((0,),)
    a = la.mat([[1, 2], [3, 4]])
    for x, y in ((a, la.mat([[1]])),                # 2 x 2 and 1 x 1
                 (a, la.mat([[1, 2]])),             # 2 x 2 and 1 x 2
                 (a, la.mat([[1], [2]])),           # 2 x 2 and 2 x 1
                 (a, ((1, 2), (3,))),               # ragged right operand
                 (((1, 2), (3,)), a),               # ragged left operand
                 (a, ())):
        with pytest.raises(ValueError):
            la.sub(x, y)
        with pytest.raises(ValueError):
            la.sub(y, x)
    assert la.sub(a, a) == la.mat([[0, 0], [0, 0]])
    assert la.sub((), ()) == ()
