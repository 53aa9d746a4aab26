"""Differential tests for the cases join and exists_factor settle without
elimination.

join answers a == b and b == ortho(a) from the lattice laws, and
comparable operands and a hyperplane operand from the order; exists_factor
answers zero, full, a rank above its bound and a full component span
without embedding.  On random subspaces of small tensor layouts, with
those cases forced, each must equal the plain elimination it skips: one
echelon of both row lists for join, and embed_alpha of the component span
for the quantifier.  Operands come with and without a linked ortho, so the
order is decided both by orthogonality to it and by reduction.
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
reals = st.one_of(st.just(ZERO), st.builds(GQ, _part))


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


def _of_rank(data, dim, r, entries=scalars):
    """A drawn subspace of rank exactly r: row j is 1 at the j-th of r drawn
    columns, 0 at the other r - 1, and drawn elsewhere."""
    cols = data.draw(st.permutations(range(dim)))[:r]
    rows = []
    for c in cols:
        v = list(data.draw(st.tuples(*[entries] * dim)))
        for k in cols:
            v[k] = ONE if k == c else ZERO
        rows.append(tuple(v))
    return Subspace.from_vectors(dim, rows)


def _combination(data, s, entries=scalars):
    """A drawn combination of the basis of s (zero when s is)."""
    cs = data.draw(st.lists(entries, min_size=s.rank, max_size=s.rank))
    return tuple(sum((c * v[i] for c, v in zip(cs, s.basis)), ZERO)
                 for i in range(s.dim))


def _linked(s, linked):
    """s with its ortho linked, or an equal copy without the link."""
    if linked:
        sp.ortho(s)
        return s
    return Subspace.from_vectors(s.dim, s.basis)


def _leq_oracle(a, b):
    return len(la.echelon(a.rows + b.rows)[0]) == b.rank


JOIN_CASES = ["below", "not-below", "hyperplane-holds", "hyperplane-misses"]


@settings(max_examples=200)
@given(st.sampled_from(LAYOUTS), st.sampled_from(JOIN_CASES),
       st.booleans(), st.booleans(), st.sampled_from([scalars, reals]),
       st.data())
def test_join_by_order_equals_one_echelon(dims, kind, lo_linked, hi_linked,
                                          entries, data):
    layout = TensorLayout(dims)
    dim = layout.dim
    if kind.startswith("hyperplane"):
        line = _of_rank(data, dim, 1, entries)
        hi = sp.ortho(line)
        assert hi.rank == dim - 1
        outside = line.basis[0]
    else:
        hi = _of_rank(data, dim, data.draw(st.integers(2, dim - 1)), entries)
        # in ortho(hi) and orthogonal to each of its canonical rows but a
        # drawn one, so an inclusion test must try every row of ortho(hi);
        # found by elimination and ortho alone, not by join
        c = sp.ortho(hi)
        j = data.draw(st.integers(0, c.rank - 1))
        others = [la.gq_vector(r, 1) for k, r in enumerate(c.rows) if k != j]
        outside = sp.ortho(
            Subspace.from_vectors(dim, hi.basis + tuple(others))).basis[0]
    # at most as many rows as hi has, all in hi, but for the misses the
    # first, whose part in ortho(hi) is not zero; with as many rows, lo may
    # be hi itself, or another hyperplane
    k = data.draw(st.integers(1, hi.rank))
    vectors = [_combination(data, hi, entries) for _ in range(k)]
    if kind in ("not-below", "hyperplane-misses"):
        # outside or i * outside: with real rows, i * outside has products
        # with ortho(hi) whose real parts are all 0.  Plus the first row of
        # hi, so that the leading column is most often one of hi's pivots
        unit = data.draw(st.sampled_from([ONE, GQ(0, 1)]))
        vectors[0] = tuple(unit * x + y + z for x, y, z
                           in zip(outside, hi.basis[0], vectors[0]))
    lo = _linked(Subspace.from_vectors(dim, vectors), lo_linked)
    hi = _linked(hi, hi_linked)
    assert lo.rank <= hi.rank
    below = kind in ("below", "hyperplane-holds")
    assert _leq_oracle(lo, hi) == below
    assert lo.leq(hi) == below
    assert hi.leq(lo) == _leq_oracle(hi, lo)
    for x, y in ((lo, hi), (hi, lo)):
        _same(sp.join(x, y), sp._from_echelon(dim, la.echelon(x.rows + y.rows)))
    if kind != "not-below":
        # decided by the order alone, linked or not
        la.reset_counts()
        sp.join(lo, hi)
        sp.join(hi, lo)
        assert la.counts["echelon_calls"] == 0


I = GQ(0, 1)


@pytest.mark.parametrize("hi_rows, lo_row, below", [
    # ortho(hi) is spanned by (1, 0, -1, 0) and (0, 1, 0, -1); lo is
    # orthogonal to the first and not to the second, whose product with lo
    # is 2, or 2i with real part 0
    ([(1, 0, 1, 0), (0, 1, 0, 1)], (1, 1, 1, -1), False),
    ([(1, 0, 1, 0), (0, 1, 0, 1)], (1, I, 1, -I), False),
    # ortho(hi) is spanned by (1, 0, -i, 0) and (0, 1, 0, -i): (1, 0, i, 0)
    # is in hi, though its plain product with each of them is 2
    ([(1, 0, I, 0), (0, 1, 0, I)], (1, 0, I, 0), True),
    ([(1, 0, I, 0), (0, 1, 0, I)], (1, 1, I, -I), False),
], ids=["real", "imaginary", "conjugate", "complex"])
def test_inclusion_tries_every_row_of_the_complement(hi_rows, lo_row, below):
    hi = Subspace.from_vectors(4, hi_rows)
    sp.ortho(hi)
    lo = Subspace.from_vectors(4, [lo_row])
    # the leading column of lo is a pivot of hi, so the pivots decide nothing
    assert set(lo.pivots) <= set(hi.pivots)
    assert lo.leq(hi) == below == _leq_oracle(lo, hi)
    _same(sp.join(lo, hi), sp._from_echelon(4, la.echelon(lo.rows + hi.rows)))


@settings(max_examples=120)
@given(st.sampled_from(LAYOUTS), st.sampled_from(["at-bound", "below-bound"]),
       st.data())
def test_exists_factor_by_rank_equals_embedded_component_span(dims, kind,
                                                              data):
    layout = TensorLayout(dims)
    every = [*range(layout.n), tuple(range(layout.n))]
    if layout.n == 3:
        every += [(0, 1), (0, 2), (1, 2)]
    factors = data.draw(st.sampled_from(every))
    d = len(sp._slices(layout, factors))
    rest = layout.dim // d
    if kind == "at-bound":
        # the least rank r with ceil(r / d) * d == dim
        s = _of_rank(data, layout.dim, layout.dim - d + 1)
    else:
        # (full on factors) x T for a hyperplane T of the rest: rank
        # dim - d, one below the bound, and its own quantifier
        t = sp.ortho(_of_rank(data, rest, 1)) if rest > 1 else \
            Subspace.zero(1)
        s = sp.embed_alpha(layout, factors, t)
        assert s.rank == layout.dim - d
    expected = sp.embed_alpha(layout, factors,
                              sp.component_span(layout, factors, s))
    la.reset_counts()
    got = sp.exists_factor(layout, factors, s)
    _same(got, expected)
    if kind == "at-bound":
        assert got.rank == layout.dim
        assert la.counts["echelon_calls"] == 0
    else:
        _same(got, s)
