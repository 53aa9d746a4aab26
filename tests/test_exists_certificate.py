"""The mod-p certificate of full quantifier answers, the kept subspace
hash and the one diagonal per layout and factor set.

exists_factor answers the full space when the slice components of s have
rank mod P equal to the slice length, and eliminates over Q(i) otherwise.
subspace_oracle.exists_factor_eliminating is the quantifier as it was
before, with every such case eliminated; both must give the same
subspace on every drawn input, and the tensor closure must give the same
tables with either quantifier and either diagonal.
"""

import pickle
import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import omlkit.linalg as la
import omlkit.subspaces as sp
import subspace_oracle as sp_oracle
from omlkit.gq import GQ, ONE, ZERO
from omlkit.lattice import SizeGuardError
from omlkit.subspaces import Subspace, TensorLayout, _bounds, _from_echelon
from test_closure_shortcuts import _of_rank, scalars
from test_example_builders import LAYOUTS as BUILDER_LAYOUTS

LAYOUTS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2))
I = GQ(0, 1)


def _same(s: Subspace, t: Subspace):
    assert (s.dim, s.rows, s.pivots) == (t.dim, t.rows, t.pivots)


def _factor_choices(layout):
    """Every single factor and every tuple of at least two factors."""
    n = layout.n
    tuples = [tuple(f for f in range(n) if m >> f & 1)
              for m in range(1, 1 << n)]
    return [*range(n), *(t for t in tuples if len(t) > 1)]


def _record_certificates(monkeypatch):
    """Wrap the certificate; returns the list of (slices, rows, verdict)."""
    seen = []
    real = sp._full_mod_p

    def recording(slices, rows):
        verdict = real(slices, rows)
        seen.append((slices, rows, verdict))
        return verdict

    monkeypatch.setattr(sp, "_full_mod_p", recording)
    return seen


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, int(n ** 0.5) + 1))


def test_certificate_constants():
    assert _is_prime(sp.P)
    assert sp.P % 4 == 1
    assert 0 < sp.I_P < sp.P
    assert sp.I_P * sp.I_P % sp.P == sp.P - 1


@settings(max_examples=300)
@given(st.sampled_from(LAYOUTS), st.data())
def test_exists_factor_equals_eliminating_oracle(dims, data):
    layout = TensorLayout(dims)
    factors = data.draw(st.sampled_from(_factor_choices(layout)))
    s = _of_rank(data, layout.dim,
                 data.draw(st.integers(0, layout.dim)), scalars)
    _same(sp.exists_factor(layout, factors, s),
          sp_oracle.exists_factor_eliminating(layout, factors, s))


@pytest.mark.parametrize("dims", LAYOUTS, ids=str)
def test_every_certified_answer_is_a_full_span(monkeypatch, dims):
    # rank-one and rank-two subspaces of small Gaussian entries, and product
    # lines, whose component spans are lines: below the rank bound, so each
    # nonzero answer is either certified or eliminated
    layout = TensorLayout(dims)
    seen = _record_certificates(monkeypatch)
    rng = random.Random("certificate:%s" % (dims,))

    def entry():
        return GQ(rng.randint(-1, 1), rng.randint(-1, 1))

    for k in range(40):
        if k % 4 == 0:
            factor_vectors = [[entry() for _ in range(d)] for d in dims]
            rows = [[prod((v[i] for v, i in zip(factor_vectors, idx)), start=ONE)
                     for idx in layout.tuples()]]
        else:
            rows = [[entry() for _ in range(layout.dim)]
                    for _ in range(rng.choice((1, 2)))]
        s = Subspace(layout.dim, rows)
        for factors in _factor_choices(layout):
            _same(sp.exists_factor(layout, factors, s),
                  sp_oracle.exists_factor_eliminating(layout, factors, s))
    verdicts = [v for _, _, v in seen]
    assert True in verdicts and False in verdicts
    for slices, rows, verdict in seen:
        comps = [(tuple(re[k] for k in sl), tuple(im[k] for k in sl))
                 for re, im in rows for sl in slices]
        if verdict:
            assert len(la.echelon(comps)[0]) == len(slices[0])


def _line(dim, entries):
    v = [ZERO] * dim
    for k, x in entries.items():
        v[k] = x if isinstance(x, GQ) else GQ(x)
    return Subspace(dim, [v])


SINGULAR_MOD_P = {
    # slices along factor 0 of (2, 2) are coordinates (0, 1) and (2, 3):
    # the components (P, 0) and (0, 1) have determinant P
    "det-p-2x2": ((2, 2), {0: sp.P, 3: 1}),
    # components (1, i) and (1, I_P): determinant I_P - i, and i maps to I_P
    "i-to-root": ((2, 2), {0: 1, 1: I, 2: 1, 3: sp.I_P}),
    # components (P, 0, 0), (0, 1, 0) and (0, 0, 1) of (3, 3)
    "det-p-3x3": ((3, 3), {0: sp.P, 4: 1, 8: 1}),
}


@pytest.mark.parametrize("dims, entries", SINGULAR_MOD_P.values(),
                         ids=SINGULAR_MOD_P.keys())
def test_singular_mod_p_falls_back_to_elimination(monkeypatch, dims,
                                                  entries):
    layout = TensorLayout(dims)
    s = _line(layout.dim, entries)
    seen = _record_certificates(monkeypatch)
    la.reset_counts()
    got = sp.exists_factor(layout, 0, s)
    assert [v for _, _, v in seen] == [False]
    assert la.counts["echelon_calls"] == 1
    _same(got, Subspace.full(layout.dim))
    _same(got, sp_oracle.exists_factor_eliminating(layout, 0, s))


def test_a_certified_full_answer_takes_no_elimination(monkeypatch):
    layout = TensorLayout((3, 3))
    s = _line(layout.dim, {0: 2, 4: 1, 8: 1})
    seen = _record_certificates(monkeypatch)
    la.reset_counts()
    _same(sp.exists_factor(layout, 0, s), Subspace.full(layout.dim))
    assert [v for _, _, v in seen] == [True]
    assert la.counts["echelon_calls"] == 0


def test_factors_are_checked_once_per_call(monkeypatch):
    calls = []
    real = sp._factor_set

    def counting(layout, factors):
        calls.append(factors)
        return real(layout, factors)

    monkeypatch.setattr(sp, "_factor_set", counting)
    layout = TensorLayout((2, 3))
    s = _line(layout.dim, {0: 1, 4: 1})  # a line that eliminates
    b = sp.component_span(layout, 0, s)
    assert b.rank < b.dim
    for op, arg in ((sp.exists_factor, s), (sp.component_span, s),
                    (sp.embed_alpha, b)):
        calls.clear()
        op(layout, 0, arg)
        assert calls == [0]


@pytest.mark.parametrize("op", [sp.exists_factor, sp.component_span],
                         ids=["exists_factor", "component_span"])
def test_bad_arguments_still_raise(op):
    layout = TensorLayout((2, 2))
    s = Subspace.zero(4)
    for bad in (2, -1, True, (0, 1.0), "0"):
        with pytest.raises(ValueError, match="factors must be ints"):
            op(layout, bad, s)
    with pytest.raises(ValueError, match="does not live in this layout"):
        op(layout, 0, Subspace.full(3))
    with pytest.raises(ValueError, match="complementary space"):
        sp.embed_alpha(layout, 0, Subspace.full(3))


# ---------------------------------------------------------------------------
# the kept hash


def _kinds():
    s = Subspace(4, [[1, I, 0, 2], [0, 1, 1, 0]])
    return {"init": s,
            "from-echelon": _from_echelon(4, (s.rows, s.pivots)),
            "ortho": sp.ortho(Subspace(4, [[1, 1, 0, 0]])),
            "zero": _bounds(4)[0], "full": _bounds(4)[1]}


@pytest.mark.parametrize("kind", ["init", "from-echelon", "ortho", "zero",
                                  "full"])
def test_kept_hash_is_the_row_hash(kind):
    s = _kinds()[kind]
    assert vars(s)["_hash"] == hash((s.dim, s.rows))
    assert hash(s) == hash((s.dim, s.rows))
    back = pickle.loads(pickle.dumps(s))
    assert hash(back) == hash(s) and back == s
    assert "_hash" not in repr(s)
    # the hash is kept at construction, before any lookup takes it
    fresh = _from_echelon(s.dim, (s.rows, s.pivots))
    assert vars(fresh)["_hash"] == hash((s.dim, s.rows))
    assert fresh == s and hash(fresh) == hash(s)


# ---------------------------------------------------------------------------
# one diagonal per layout and factor set


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2), (3, 2, 3)],
                         ids=str)
def test_diagonal_is_shared_and_equals_an_uncached_build(dims):
    layout = TensorLayout(dims)
    for i in range(layout.n):
        for j in range(layout.n):
            if dims[i] != dims[j]:
                continue
            d = sp.diagonal(layout, (i, j))
            assert d is sp.diagonal(layout, (j, i))
            assert d is sp.diagonal(TensorLayout(dims), [j, i, j])
            _same(d, sp._diagonal.__wrapped__(layout, frozenset((i, j))))
            _same(d, sp_oracle.diagonal(layout, (i, j)))


def test_bad_diagonal_factors_raise_before_any_cache():
    layout = TensorLayout((2, 3, 2))
    caches = (sp._diagonal, sp._slice_table)
    before = [c.cache_info() for c in caches]
    for bad in (3, (0, -1), (0, 1.0), True, "01", (0, 1), ()):
        with pytest.raises(ValueError):
            sp.diagonal(layout, bad)
    assert [c.cache_info() for c in caches] == before


# ---------------------------------------------------------------------------
# closures with the certificate and the shared diagonals against the oracle


def _generators(layout):
    """No generator, a product line, the C5 line e01 + e10 and the uneven
    Bell line e00 + 2 e11, padded with zero indices past two factors."""
    z = (0,) * (layout.n - 2)
    lines = [{(0, 0) + z: 1}, {(0, 1) + z: 1, (1, 0) + z: 1},
             {(0, 0) + z: 1, (1, 1) + z: 2}]
    return [[]] + [[_line(layout.dim, {layout.index(idx): c
                                       for idx, c in line.items()})]
                   for line in lines]


def _closure_tables(layout, gens):
    try:
        C, subs = sp.as_cylindric_structure(layout, gens)
    except (SizeGuardError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    L = C.base
    return (subs, L.labels, L.join_t, L.meet_t, L.ortho_t,
            {i: m.map for i, m in C.cylindrifications.items()}, C.diagonals)


@pytest.mark.parametrize("dims", BUILDER_LAYOUTS, ids=str)
def test_closure_tables_equal_the_eliminating_closure(monkeypatch, dims):
    layout = TensorLayout(dims)
    for gens in _generators(layout):
        got = _closure_tables(layout, gens)
        with monkeypatch.context() as m:
            m.setattr(sp, "exists_factor", sp_oracle.exists_factor_eliminating)
            m.setattr(sp, "diagonal", sp_oracle.diagonal)
            want = _closure_tables(layout, gens)
        assert got == want
