"""Differential and property tests for the fraction-free rref kernel.

linalg.rref eliminates over the Gaussian integers; rref_oracle.rref
eliminates directly on GQ entries.  Both must give the same canonical rows
and pivots on every input.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import omlkit.linalg as la
from omlkit.gq import GQ, ZERO
from rref_oracle import rref as oracle_rref, solve

# Gaussian rationals with non-trivial denominators; about a third are zero
_part = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
_nonzero = st.builds(GQ, _part, _part).filter(bool)
scalars = st.one_of(st.just(ZERO), _nonzero, _nonzero)


@st.composite
def matrices(draw, max_rows=7, max_cols=7):
    """Row lists, empty included, of wide or tall shape, with zero rows
    and rows that are combinations of earlier ones mixed in."""
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(1, max_cols))
    row = st.tuples(*[scalars] * n)
    rows = [draw(row) for _ in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "combination")))
        if kind == "zero" or not rows:
            new = (ZERO,) * n
        else:
            a, b = draw(scalars), draw(scalars)
            u = rows[draw(st.integers(0, len(rows) - 1))]
            v = rows[draw(st.integers(0, len(rows) - 1))]
            new = tuple(a * x + b * y for x, y in zip(u, v))
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


@st.composite
def square(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    return tuple(tuple(draw(scalars) for _ in range(n)) for _ in range(n))


def _singular(a):
    """a with its last row replaced by the sum of the others."""
    rest = a[:-1]
    last = tuple(sum(col, ZERO) for col in zip(*rest)) if rest \
        else (ZERO,) * len(a)
    return rest + (last,)


@given(matrices())
def test_rref_matches_oracle(rows):
    got = la.rref(rows)
    assert got == oracle_rref(rows)
    # same text form too, so reports and fixtures stay byte-identical
    assert repr(got) == repr(oracle_rref(rows))


@given(matrices(max_rows=3, max_cols=12))
def test_rref_matches_oracle_wide(rows):
    assert la.rref(rows) == oracle_rref(rows)


@given(matrices(max_rows=12, max_cols=3))
def test_rref_matches_oracle_tall(rows):
    assert la.rref(rows) == oracle_rref(rows)


@settings(max_examples=25)
@given(matrices(max_rows=6, max_cols=64))
def test_rref_matches_oracle_many_columns(rows):
    assert la.rref(rows) == oracle_rref(rows)


def test_rref_entries_stay_as_small_as_over_q_i(monkeypatch):
    # dense and wide: with integer content removal alone, and a complex
    # pivot left in place, intermediate entries reach 20,000 bits here
    rng = random.Random(5)

    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    rows = [tuple(GQ(q(), q()) for _ in range(24)) for _ in range(12)]
    bits = []
    primitive = la._primitive

    def spy(a, b):
        a, b = primitive(a, b)
        bits.append(max(abs(x).bit_length() for x in a + b))
        return a, b

    monkeypatch.setattr(la, "_primitive", spy)
    red, pivots = la.rref(rows)
    assert (red, pivots) == oracle_rref(rows)
    out_bits = max(max(q.numerator.bit_length(), q.denominator.bit_length())
                   for row in red for x in row for q in (x.re, x.im))
    assert max(bits) <= 2 * out_bits


def test_rref_accepts_int_and_fraction_entries():
    rows = [(1, Fraction(1, 2), 0), (2, 3, Fraction(-4, 3))]
    as_gq = [tuple(GQ(x) for x in row) for row in rows]
    assert la.rref(rows) == la.rref(as_gq) == oracle_rref(as_gq)


def test_rref_edge_shapes():
    assert la.rref([]) == ((), ())
    assert la.rref([(ZERO, ZERO), (ZERO, ZERO)]) == ((), ())
    assert la.rref([()]) == oracle_rref([()])


@given(matrices())
def test_rref_is_idempotent(rows):
    red, pivots = la.rref(rows)
    assert la.rref(red) == (red, pivots)


@given(matrices())
def test_nullspace_is_annihilated_and_complements_rank(rows):
    assume(rows)
    ncols = len(rows[0])
    ns = la.nullspace(rows, ncols)
    for v in ns:
        assert all(x == ZERO for x in la.matvec(rows, v))
    assert len(la.rref(rows)[0]) + len(ns) == ncols
    assert la.rref(ns)[0] == ns


@given(square())
def test_inverse_of_invertible(a):
    assume(len(oracle_rref(a)[0]) == len(a))
    inv = la.inverse(a)
    eye = la.eye(len(a))
    assert la.matmul(a, inv) == eye
    assert la.matmul(inv, a) == eye


@given(square())
def test_inverse_of_singular_raises(a):
    with pytest.raises(ValueError):
        la.inverse(_singular(a))


@given(square(), st.data())
def test_solve_consistent_system(a, data):
    x = tuple(data.draw(scalars) for _ in range(len(a)))
    b = la.matvec(a, x)
    y = solve(a, b)
    assert y is not None
    assert la.matvec(a, y) == b


@given(square(), st.data())
def test_solve_inconsistent_system(a, data):
    a = _singular(a)
    b = list(data.draw(scalars) for _ in range(len(a)))
    b[-1] = sum(b[:-1], ZERO) + data.draw(_nonzero)
    assert solve(a, tuple(b)) is None
