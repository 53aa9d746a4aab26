"""The orthocomplement cache on Subspace instances."""

import pickle
import random

import omlkit.linalg as la
import omlkit.subspaces as sp
from omlkit.subspaces import Subspace, TensorLayout
from subspace_oracle import forall_factor_direct


def _fresh_ortho(s):
    """The orthocomplement computed without looking at any cache."""
    return Subspace(s.dim, la.nullspace(la.conj_mat(s.basis), s.dim))


def _count_kernel(monkeypatch):
    """Calls of la.kernel, which ortho takes each orthocomplement from."""
    calls = []
    real = la.kernel

    def counting(rows, pivots, ncols):
        calls.append(ncols)
        return real(rows, pivots, ncols)

    monkeypatch.setattr(la, "kernel", counting)
    return calls


def test_ortho_twice_returns_the_original_object():
    rng = random.Random(10)
    for _ in range(10):
        a = sp.random_subspace(5, rng)
        o = sp.ortho(a)
        assert sp.ortho(o) is a
        assert sp.ortho(o) == a
        assert sp.ortho(a) is o


def test_cached_ortho_equals_fresh_computation():
    rng = random.Random(11)
    for _ in range(10):
        a = sp.random_subspace(4, rng)
        o = sp.ortho(a)
        assert o == _fresh_ortho(a)
        assert _fresh_ortho(o) == a


def test_cache_is_invisible_to_eq_hash_repr():
    vecs = [[1, 2, 0, 1], [0, 1, 1, 1]]
    filled = Subspace.from_vectors(4, vecs)
    empty = Subspace.from_vectors(4, vecs)
    sp.ortho(filled)
    assert filled._ortho is not None and empty._ortho is None
    assert filled == empty
    assert hash(filled) == hash(empty)
    assert repr(filled) == repr(empty)
    assert "_ortho" not in repr(filled)
    assert len({filled, empty}) == 1


def test_ortho_is_computed_once(monkeypatch):
    a = Subspace.from_vectors(3, [[1, 1, 0]])
    calls = _count_kernel(monkeypatch)
    o = sp.ortho(a)
    sp.ortho(a)
    sp.ortho(o)
    assert len(calls) == 1


def test_zero_and_full_are_one_linked_pair_per_dimension(monkeypatch):
    calls = _count_kernel(monkeypatch)
    for dim in (2, 4, 9):
        zero, full = Subspace.zero(dim), Subspace.full(dim)
        assert Subspace.zero(dim) is zero and Subspace.full(dim) is full
        assert sp.ortho(zero) is full and sp.ortho(full) is zero
        assert zero == Subspace.from_vectors(dim, [])
        assert full == Subspace.from_vectors(
            dim, [[int(i == j) for j in range(dim)] for i in range(dim)])
        line = Subspace.from_vectors(dim, [[1] * dim])
        assert sp.join(line, full) is full and sp.join(zero, line) is line
    assert Subspace.zero(4) is not Subspace.zero(9)
    assert calls == []


def test_meet_of_seen_operands_computes_one_nullspace(monkeypatch):
    a = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    sp.ortho(a)
    sp.ortho(b)
    want = Subspace.from_vectors(3, [[0, 1, 0]])
    calls = _count_kernel(monkeypatch)
    la.reset_counts()
    assert sp.meet(a, b) == want
    assert len(calls) == 1
    # one elimination of the two joined rows, one of the one kernel row
    assert la.counts == {"echelon_calls": 2, "echelon_rows": 3}


def test_directly_built_subspace_uses_cache():
    # forall_factor_direct builds Subspace(dim, basis) from a nullspace
    lay = TensorLayout((2, 2))
    rng = random.Random(12)
    for _ in range(5):
        s = sp.random_subspace(4, rng)
        assert forall_factor_direct(lay, 0, s) == \
            sp.forall_factor(lay, 0, s)
    direct = Subspace(3, la.nullspace(la.mat([[1, 1, 0]]), 3))
    o = sp.ortho(direct)
    assert o == Subspace.from_vectors(3, [[1, 1, 0]])
    assert sp.ortho(o) is direct


def test_pickle_round_trip_keeps_value():
    a = Subspace.from_vectors(4, [[1, 2, 0, 1], [0, 1, 1, 1]])
    o = sp.ortho(a)
    for s in (a, o, Subspace.from_vectors(4, [[1, 0, 0, 0]])):
        back = pickle.loads(pickle.dumps(s))
        assert back == s
        assert hash(back) == hash(s)
        assert repr(back) == repr(s)
        assert sp.ortho(back) == sp.ortho(s)
        assert sp.ortho(sp.ortho(back)) is back
