"""Differential tests for the integer-row Subspace.

omlkit.subspaces keeps each subspace as canonical Gaussian-integer echelon
rows and runs join, ortho, meet and the factor quantifiers on them;
subspace_oracle runs the same operations on GQ bases.  On random Gaussian
subspaces of small tensor layouts both must give the same rref bases, and
Subspace equality and hashing must agree with the oracle's identity key.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

import omlkit.subspaces as sp
import subspace_oracle as oracle
from omlkit.gq import GQ, ZERO
from omlkit.subspaces import Subspace, TensorLayout

LAYOUTS = ((2, 2), (2, 3), (3, 3))

# Gaussian rationals with small parts and denominators; about half are zero
_part = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
scalars = st.one_of(st.just(ZERO), st.builds(GQ, _part, _part))


@st.composite
def layout_and_spans(draw):
    """A layout and two spanning sets of rank at most 4 in it."""
    layout = TensorLayout(draw(st.sampled_from(LAYOUTS)))
    row = st.tuples(*[scalars] * layout.dim)
    spans = [draw(st.lists(row, max_size=4)) for _ in range(2)]
    return layout, spans


def _check_canonical(s: Subspace):
    """Primitive rows with a positive real pivot and zeros at the other
    pivot columns, pivots increasing; rebuilding from basis changes
    nothing."""
    assert list(s.pivots) == sorted(set(s.pivots))
    for (re, im), c in zip(s.rows, s.pivots):
        assert len(re) == len(im) == s.dim
        assert re[c] > 0 and im[c] == 0
        assert gcd(*re, *im) == 1
        assert all(re[d] == im[d] == 0 for d in s.pivots if d != c)
    assert Subspace(s.dim, s.basis).rows == s.rows


@settings(max_examples=60)
@given(layout_and_spans())
def test_operations_match_oracle(case):
    layout, spans = case
    subs = [Subspace.from_vectors(layout.dim, v) for v in spans]
    subs0 = [oracle.from_vectors(layout.dim, v) for v in spans]
    a, b = subs
    a0, b0 = subs0
    pairs = [(a, a0), (b, b0),
             (sp.join(a, b), oracle.join(a0, b0)),
             (sp.ortho(a), oracle.ortho(a0)),
             (sp.meet(a, b), oracle.meet(a0, b0))]
    for f in [*range(layout.n), tuple(range(layout.n))]:
        pairs.append((sp.exists_factor(layout, f, a),
                      oracle.exists_factor(layout, f, a0)))
        pairs.append((sp.component_span(layout, f, b),
                      oracle.component_span(layout, f, b0)))
    for s, s0 in pairs:
        assert (s.dim, s.basis) == (s0.dim, s0.basis)
        assert s.rank == s0.rank
        _check_canonical(s)
    for s, s0 in pairs:
        for t, t0 in pairs:
            assert (s == t) == (oracle.ident(s0) == oracle.ident(t0))
            if s == t:
                assert hash(s) == hash(t)


@settings(max_examples=30)
@given(layout_and_spans())
def test_embed_alpha_matches_oracle(case):
    layout, spans = case
    for f in range(layout.n):
        rest = layout.dim // layout.factor_dims[f]
        rows = [v[:rest] for v in spans[0]]
        b = Subspace.from_vectors(rest, rows)
        got = sp.embed_alpha(layout, f, b)
        want = oracle.embed_alpha(layout, (f,),
                                  oracle.from_vectors(rest, rows))
        assert got.basis == want.basis
        _check_canonical(got)
