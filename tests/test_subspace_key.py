"""Subspace equality and hashing compare dim and the canonical
Gaussian-integer echelon rows: primitive integer rows (re, im) with
positive real pivots."""

import pickle
import random
from fractions import Fraction

import omlkit.subspaces as sp
from omlkit.gq import GQ
from omlkit.subspaces import Subspace


def test_spanning_sets_and_entry_types_give_one_key():
    spans = [
        [[1, 2, 0], [0, 1, 1]],
        [[1, 3, 1], [Fraction(1, 2), 1, 0]],
        [[GQ(2), GQ(4), GQ(0)], [GQ(0), GQ(0, 3), GQ(0, 3)]],
        [[GQ(0, 1), GQ(0, 2), GQ(0)], [1, 3, 1], [2, 5, 1]],
    ]
    subs = [Subspace.from_vectors(3, v) for v in spans]
    for s in subs:
        assert s == subs[0]
        assert hash(s) == hash(subs[0])
    assert len(set(subs)) == 1


def test_key_is_the_integer_row_form():
    s = Subspace.from_vectors(2, [[3, GQ(Fraction(1, 2), Fraction(-2, 3))]])
    assert s.basis == ((GQ(1), GQ(Fraction(1, 6), Fraction(-2, 9))),)
    assert (s.dim, s.rows, s.pivots) == (2, (((18, 3), (0, -4)),), (0,))
    # a negative or imaginary pivot is scaled to a positive real one
    for v in ([-6, GQ(-1, Fraction(4, 3))],
              [GQ(0, 3), GQ(Fraction(2, 3), Fraction(1, 2))]):
        assert Subspace.from_vectors(2, [v]).rows == s.rows


def test_different_dims_and_ranks_are_unequal():
    line = Subspace.from_vectors(3, [[1, 0, 0]])
    plane = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    other_line = Subspace.from_vectors(3, [[1, GQ(0, 1), 0]])
    assert line != plane and line != other_line
    assert Subspace.zero(3) != Subspace.zero(4)
    assert Subspace.zero(3).basis == Subspace.zero(4).basis
    assert Subspace.full(2) != Subspace.full(3)
    assert Subspace.zero(3) != Subspace.full(3)
    assert len({Subspace.zero(3), Subspace.zero(4), line, plane,
                other_line}) == 5


def test_key_agrees_with_basis_equality():
    rng = random.Random(13)
    subs = [sp.random_subspace(3, rng, max_entry=1) for _ in range(40)]
    for a in subs:
        for b in subs:
            assert (a == b) == ((a.dim, a.basis) == (b.dim, b.basis))
            if a == b:
                assert hash(a) == hash(b)


def test_key_is_invisible_in_repr():
    # the GQ basis is built on first use and kept outside the fields
    vecs = [[1, 2, 0, 1], [0, 1, 1, 1]]
    keyed = Subspace.from_vectors(4, vecs)
    keyed.basis
    fresh = Subspace.from_vectors(4, vecs)
    assert "basis" in vars(keyed) and "basis" not in vars(fresh)
    assert keyed == fresh and hash(keyed) == hash(fresh)
    assert repr(keyed) == repr(fresh)
    assert "GQ" not in repr(keyed)


def test_pickle_round_trip():
    keyed = Subspace.from_vectors(4, [[1, 2, 0, GQ(0, 1)]])
    keyed.basis
    for s in (keyed, Subspace.from_vectors(4, [[1, Fraction(1, 3), 0, 0]]),
              Subspace.zero(2)):
        back = pickle.loads(pickle.dumps(s))
        assert back == s and s == back
        assert hash(back) == hash(s)
        assert repr(back) == repr(s)


def test_never_equal_to_a_non_subspace():
    s = Subspace.from_vectors(2, [[1, 1]])
    for other in ((s.dim, s.basis), s.basis, (s.dim, s.rows), s.rows,
                  None, 0, "S"):
        assert s != other and other != s
        assert not s == other
    assert Subspace.zero(1) != () and Subspace.zero(1) != 0
