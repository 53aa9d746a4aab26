"""Differential tests for the cases join and exists_factor settle without
elimination.

join answers a == b and b == ortho(a) from the lattice laws, and
exists_factor answers zero, full and a full component span without
embedding.  On random subspaces of small tensor layouts, with those cases
forced, each must equal the plain elimination it skips: one echelon of
both row lists for join, and embed_alpha of the component span for the
quantifier.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import omlkit.linalg as la
import omlkit.subspaces as sp
from omlkit.gq import GQ, ONE, ZERO
from omlkit.subspaces import Subspace, TensorLayout

LAYOUTS = ((2, 2), (2, 3), (3, 3), (2, 2, 2))

_part = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
scalars = st.one_of(st.just(ZERO), st.builds(GQ, _part, _part))


def _same(s: Subspace, t: Subspace):
    assert (s.dim, s.rows, s.pivots) == (t.dim, t.rows, t.pivots)


def _rows(layout):
    return st.lists(st.tuples(*[scalars] * layout.dim),
                    max_size=layout.dim + 1)


@st.composite
def layout_and_rows(draw):
    layout = TensorLayout(draw(st.sampled_from(LAYOUTS)))
    return layout, draw(_rows(layout))


@settings(max_examples=80)
@given(layout_and_rows(), st.sampled_from(
    ["other", "same", "equal", "ortho", "ortho-unlinked"]), st.data())
def test_join_equals_one_echelon(case, kind, data):
    layout, rows = case
    a = Subspace.from_vectors(layout.dim, rows)
    if kind == "other":
        b = Subspace.from_vectors(layout.dim, data.draw(_rows(layout)))
    elif kind == "same":
        b = a
    elif kind == "equal":
        b = Subspace.from_vectors(layout.dim, a.basis)
    elif kind == "ortho":
        b = sp.ortho(a)
    else:
        # the orthocomplement of an equal copy, not linked to a
        b = sp.ortho(Subspace.from_vectors(layout.dim, rows))
    for x, y in ((a, b), (b, a)):
        _same(sp.join(x, y),
              sp._from_echelon(layout.dim, la.echelon(x.rows + y.rows)))


def _full_span(layout, factors, noise):
    """A subspace whose component span along `factors` is the full
    complementary space: a basis of it placed in the first slice, plus
    the noise rows in the other coordinates."""
    slices = sp._slices(layout, factors)
    first = set(slices[0])
    noise = noise or [(ZERO,) * layout.dim]
    rows = []
    for k, c in enumerate(slices[0]):
        v = [ZERO if i in first else x
             for i, x in enumerate(noise[k % len(noise)])]
        v[c] = ONE
        rows.append(tuple(v))
    return Subspace.from_vectors(layout.dim, rows)


def _proper_span(layout, factors, rows):
    """A subspace whose component span along `factors` is spanned by the
    heads of fewer rows than the complementary dimension: each head is
    placed in one slice, so the span is never full."""
    slices = sp._slices(layout, factors)
    heads = [row[:len(slices[0])] for row in rows[:len(slices[0]) - 1]]
    vectors = []
    for k, head in enumerate(heads):
        v = [ZERO] * layout.dim
        for c, x in zip(slices[k % len(slices)], head):
            v[c] = x
        vectors.append(tuple(v))
    return Subspace.from_vectors(layout.dim, vectors)


@settings(max_examples=80)
@given(layout_and_rows(), st.sampled_from(
    ["random", "zero", "full", "full-span", "proper-span"]), st.data())
def test_exists_factor_equals_embedded_component_span(case, kind, data):
    layout, rows = case
    every = [*range(layout.n), tuple(range(layout.n))]
    if layout.n == 3:
        every += [(0, 1), (0, 2), (1, 2)]
    factors = data.draw(st.sampled_from(every))
    s = {"random": lambda: Subspace.from_vectors(layout.dim, rows),
         "zero": lambda: Subspace.zero(layout.dim),
         "full": lambda: Subspace.full(layout.dim),
         "full-span": lambda: _full_span(layout, factors, rows),
         "proper-span": lambda: _proper_span(layout, factors, rows)}[kind]()
    span = sp.component_span(layout, factors, s)
    if kind == "full-span":
        assert span.rank == span.dim
    if kind == "proper-span":
        assert span.rank < span.dim
    _same(sp.exists_factor(layout, factors, s),
          sp.embed_alpha(layout, factors, span))


@pytest.mark.parametrize("s", [Subspace.zero(6), Subspace.full(6),
                               Subspace.zero(2), Subspace.full(8)],
                         ids=["zero6", "full6", "zero2", "full8"])
def test_exists_factor_refuses_another_ambient_dimension(s):
    with pytest.raises(ValueError):
        sp.exists_factor(TensorLayout((2, 2)), 0, s)
