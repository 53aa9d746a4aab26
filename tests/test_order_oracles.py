"""The order facts read off masks against the pair-by-pair code they
replaced.

lattice.commutation against ol_oracle.commutes, frames.canonical_frame
against checker_oracle.canonical_frame (also on tables that are not
ortholattices, and with the zero at an index other than 0), the
NotBooleanError message, UnaryMap equality, and the identity of the
operand that subspaces.join returns when the other is zero or full.
"""

import json
import random
from pathlib import Path

import pytest

import checker_oracle
import ol_oracle
import omlkit.formats as fo
import omlkit.frames as fr
import omlkit.lattice as lat
import omlkit.linalg as la
import omlkit.quantifiers as qu
from omlkit.subspaces import Subspace, join

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture(name):
    return fo.load_lattice(json.loads((FIXTURES / name).read_text()))


def _b2_with_cycle_ortho():
    """B2 with a 4-cycle as ortho: a permutation, not an involution."""
    B = lat.boolean_algebra(2)
    return lat.FiniteOL(B.labels, B.meet_t, B.join_t, (1, 2, 3, 0), 0, 3)


LATTICES = {
    "B2": lat.boolean_algebra(2),
    "B3": lat.boolean_algebra(3),
    "MO2": lat.mo(2),
    "MO3": lat.mo(3),
    "O6": lat.o6(),
    "two_blocks": lat.greechie_lattice([("a", "b", "c"), ("c", "d", "e")]),
    "mo2_fixture": _fixture("mo2_lattice.json"),
    "o6_fixture": _fixture("o6_lattice.json"),
    "chain4_fixture": _fixture("chain4_identity_ortho.json"),
    # tables the ortho axioms reject
    "chain4_identity_ortho": lat.chain4_identity_ortho(),
    "B2_cycle_ortho": _b2_with_cycle_ortho(),
    # built top first, so that the zero has the largest index
    "chain3_top_first": lat.ol_from_leq(("1", "a", "0"), [(2, 1), (1, 0)],
                                        (2, 1, 0)),
}


def _same_commutation(L):
    masks = lat.commutation(L)
    assert [[bool(m >> y & 1) for y in L.elements()] for m in masks] == \
        [[ol_oracle.commutes(L, x, y) for y in L.elements()]
         for x in L.elements()]


def test_commutation_matches_oracle_on_every_small_pasting():
    pastings = 0
    for diagram in lat.enumerate_greechie_diagrams(4):
        try:
            L = lat.greechie_lattice([tuple("a%d" % a for a in blk)
                                      for blk in diagram])
        except lat.LatticeError:
            continue
        _same_commutation(L)
        pastings += 1
    assert pastings == 241


@pytest.mark.parametrize("name", LATTICES)
def test_commutation_matches_oracle(name):
    _same_commutation(LATTICES[name])


def _maps(L, rng):
    """Every subalgebra's quantifier, each with one or two entries
    changed, and random maps."""
    maps = []
    if lat.validate_ortholattice(L).ok:
        maps = [qu.quantifier_from_subalgebra(L, S).map
                for S in lat.all_subalgebras(L)]
    for em in list(maps):
        m = list(em)
        for _ in range(rng.randint(1, 2)):
            m[rng.randrange(L.n)] = rng.randrange(L.n)
        maps.append(tuple(m))
    maps += [tuple(rng.randrange(L.n) for _ in L.elements())
             for _ in range(6)]
    return maps + [tuple(L.elements())]


def test_canonical_frame_matches_oracle():
    rng = random.Random(26)
    for L in LATTICES.values():
        for m in _maps(L, rng):
            e = qu.UnaryMap(L, m)
            assert fr.canonical_frame(L, e) == \
                checker_oracle.canonical_frame(L, e)


@pytest.mark.parametrize("L, message", [
    (lat.mo(2), "elements a1,a2 do not commute"),
    (lat.greechie_lattice([("a", "b", "c"), ("c", "d", "e")]),
     "elements a,d do not commute"),
])
def test_not_boolean_message(L, message):
    with pytest.raises(qu.NotBooleanError) as exc:
        qu.check_lemma_q6_boolean(L, qu.UnaryMap(L, tuple(L.elements())))
    assert str(exc.value) == message


def test_unary_map_equality_and_hash():
    L = lat.mo(2)
    twin = lat.FiniteOL(L.labels, L.meet_t, L.join_t, L.ortho_t, L.zero,
                        L.one)
    m = (0, 1, 2, 5, 5, 5)
    a, b = qu.UnaryMap(L, m), qu.UnaryMap(L, tuple(m))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != qu.UnaryMap(L, tuple(L.elements()))
    # equal tables on a second lattice object are a different map
    assert a != qu.UnaryMap(twin, m)
    assert len({a, qu.UnaryMap(twin, m)}) == 2


def test_join_with_zero_or_full_returns_the_operand_without_elimination():
    rng = random.Random(27)
    dim = 4
    zero, full = Subspace.zero(dim), Subspace.full(dim)
    # equal to the cached bounds, but other objects, with no complement
    zero2 = Subspace(dim, [])
    full2 = Subspace(dim, [[int(i == j) for j in range(dim)]
                           for i in range(dim)])
    spaces = [Subspace(dim, [[rng.randint(-2, 2) for _ in range(dim)]
                             for _ in range(k)]) for k in (1, 2, 3)]
    assert [s.rank for s in spaces] == [1, 2, 3]
    la.reset_counts()
    for s in spaces:
        for z in (zero, zero2):
            assert join(s, z) is s and join(z, s) is s
        for f in (full, full2):
            assert join(s, f) is f and join(f, s) is f
    assert join(zero, zero2) is zero and join(zero2, zero) is zero2
    assert join(full, full2) is full and join(full2, full) is full2
    assert join(zero, full) is full and join(full, zero) is full
    assert join(zero2, full2) is full2 and join(full2, zero2) is full2
    assert not any(la.counts.values()), la.counts
