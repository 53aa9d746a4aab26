"""The first-failure axiom checkers against their predecessors.

checker_oracle keeps the checkers as first written.  On seeded draws in
which every named condition fails at least once and holds at least once,
the new ones must give the same status maps, ok flags and witnesses, and
the Boolean checkers the same verdicts.  The two declared witness changes
are checked against brute force instead: the symmetric witness of an
orthoframe is its first asymmetric pair in row-major order, and an
intransitive relation names its first (i, j, k) with i R j, j R k and not
i R k.
"""

import random
from collections import Counter
from itertools import product

import pytest

import checker_oracle as oracle
import omlkit.cylindric as cy
import omlkit.frames as fr
import omlkit.lattice as lat
import omlkit.quantifiers as qu

LATTICES = [lat.boolean_algebra(2), lat.boolean_algebra(3), lat.mo(2),
            lat.o6(), lat.greechie_lattice([("a", "b", "c"), ("c", "d", "e")])]


def _quantifiers(L):
    return [qu.quantifier_from_subalgebra(L, S).map
            for S in lat.all_subalgebras(L)]


def _unary_map(L, quants, rng):
    """A quantifier of a subalgebra, one with an entry changed, a random
    map or the identity."""
    kind = rng.randrange(6)
    if kind <= 2:
        return rng.choice(quants)
    if kind == 3:
        m = list(rng.choice(quants))
        m[rng.randrange(L.n)] = rng.randrange(L.n)
        return tuple(m)
    if kind == 4:
        return tuple(rng.randrange(L.n) for _ in range(L.n))
    return tuple(L.elements())


def _cylindric(L, quants, rng):
    dims = tuple(range(rng.randint(1, 3)))
    cyl = {i: qu.UnaryMap(L, _unary_map(L, quants, rng)) for i in dims}
    diag = {}
    for i, j in product(dims, repeat=2):
        if i == j:
            diag[(i, j)] = L.one if rng.random() < 0.8 else rng.randrange(L.n)
        elif j < i and rng.random() < 0.8:
            diag[(i, j)] = diag[(j, i)]
        else:
            diag[(i, j)] = rng.choice([L.one, rng.randrange(L.n)])
    return cy.CylindricStructure(L, dims, cyl, diag)


def _tally(tally, status):
    for name, (ok, _) in status.items():
        tally[name, ok] += 1


def test_check_cylindric_matches_oracle():
    rng = random.Random(19)
    tally = Counter()
    for L in LATTICES:
        quants = _quantifiers(L)
        for _ in range(300):
            C = _cylindric(L, quants, rng)
            for mode in ("weak", "full"):
                got = cy.check_cylindric(C, mode)
                want = oracle.check_cylindric(C, mode)
                assert got.status == want.status
                assert got.ok == want.ok and got.failed() == want.failed()
                _tally(tally, got.status)
    for name in ("C1", "C2", "C3", "C4", "C5"):
        assert tally[name, False] and tally[name, True], (name, tally)


def test_is_boolean_endomorphism_matches_oracle():
    rng = random.Random(20)
    verdicts = Counter()
    # with the identity as ortho, a map can keep meets and ortho but not
    # joins, which no ortholattice allows
    B = lat.boolean_algebra(2)
    square = lat.FiniteOL(B.labels, B.meet_t, B.join_t, (0, 1, 2, 3), 0, 3)
    for L in LATTICES + [square]:
        quants = _quantifiers(L)
        for _ in range(100):
            C = _cylindric(L, quants, rng)
            for i, j in product(C.dims, repeat=2):
                got = cy.is_boolean_endomorphism(C, i, j)
                assert got == oracle.is_boolean_endomorphism(C, i, j)
                verdicts[got] += 1
    C = cy.classical_cyl_set_algebra(range(2), range(2))
    assert cy.is_boolean_endomorphism(C, 0, 1)
    assert verdicts[True] and verdicts[False]


# ---------------------------------------------------------------------------
# frames


def _perp(n, rng):
    """Symmetric and irreflexive most of the time, else any relation."""
    if rng.random() < 0.7:
        return fr.random_orthoframe(n, rng).perp
    return tuple(rng.randrange(1 << n) for _ in range(n))


def _relation(n, rng):
    """A preorder most of the time, else any relation, which may still be
    reflexive."""
    rows = [rng.randrange(1 << n) for _ in range(n)]
    if rng.random() < 0.4:
        return tuple(rows)
    rows = [r | 1 << i for i, r in enumerate(rows)]
    if rng.random() < 0.3:
        return tuple(rows)
    return tuple(lat.transitive_closure(rows))


def _first_asymmetric(perp, n):
    pairs = [(i, j) for i in range(n) for j in range(n)
             if (perp[i] >> j & 1) != (perp[j] >> i & 1)]
    return min(pairs) if pairs else None


def _first_intransitive(R, n):
    triples = [(i, j, k) for i, j, k in product(range(n), repeat=3)
               if R[i] >> j & 1 and R[j] >> k & 1 and not R[i] >> k & 1]
    return min(triples) if triples else None


def _same_frame_status(got, want, F):
    """validate_orthoframe's status against the oracle's, apart from the
    symmetric witness, which must be the first asymmetric pair."""
    asym = _first_asymmetric(F.perp, F.n)
    assert got["symmetric"] == (asym is None, asym)
    assert want["symmetric"][0] == (asym is None)
    assert got["irreflexive"] == want["irreflexive"]


def test_validate_orthoframe_matches_oracle():
    rng = random.Random(22)
    tally = Counter()
    for _ in range(600):
        n = rng.randint(2, 7)
        F = fr.Orthoframe(tuple(range(n)), _perp(n, rng))
        got = fr.validate_orthoframe(F)
        want = oracle.validate_orthoframe(F)
        _same_frame_status(got.status, want.status, F)
        assert got.ok == want.ok
        _tally(tally, got.status)
    for name in ("irreflexive", "symmetric"):
        assert tally[name, False] and tally[name, True], (name, tally)


def test_check_monadic_frame_matches_oracle():
    rng = random.Random(23)
    tally = Counter()
    for _ in range(1500):
        n = rng.randint(2, 7)
        F = fr.Orthoframe(tuple(range(n)), _perp(n, rng))
        R = _relation(n, rng)
        got = fr.check_monadic_frame(F, R).status
        want = oracle.check_monadic_frame(F, R).status
        assert got["M3"] == want["M3"]
        assert got["M1"][0] == want["M1"][0]
        if not got["M1"][0]:
            _same_frame_status(got["M1"][1], want["M1"][1], F)
        ijk = _first_intransitive(R, n)
        if want["M2"] == (False, ("not_transitive", None)):
            assert got["M2"] == (False, ("not_transitive", ijk))
            tally["M2 not_transitive"] += 1
        else:
            assert got["M2"] == want["M2"]
        _tally(tally, got)
    for name in ("M1", "M2", "M3"):
        assert tally[name, False] and tally[name, True], (name, tally)
    assert tally["M2 not_transitive"]


def _diagonals(F, idxs, rng):
    """Mostly closed and symmetric, with D_ii the full set."""
    closed = fr.closed_sets(F)
    diag = {}
    for i, j in product(idxs, repeat=2):
        if i == j and rng.random() < 0.85:
            diag[(i, j)] = F.full
        elif j < i and rng.random() < 0.85:
            diag[(i, j)] = diag[(j, i)]
        elif rng.random() < 0.7:
            diag[(i, j)] = rng.choice(closed)
        else:
            diag[(i, j)] = rng.randrange(F.full + 1)
    return diag


def test_check_weak_cylindric_frame_matches_oracle():
    rng = random.Random(24)
    tally = Counter()
    for _ in range(800):
        n = rng.randint(2, 7)
        F = fr.Orthoframe(tuple(range(n)), _perp(n, rng))
        idxs = sorted(rng.sample(range(5), rng.randint(1, 3)))
        rels = {i: _relation(n, rng) for i in idxs}
        if rng.random() < 0.3:
            rels = {i: rels[idxs[0]] for i in idxs}
        diags = _diagonals(F, idxs, rng)
        got = fr.check_weak_cylindric_frame(F, rels, diags)
        want = oracle.check_weak_cylindric_frame(F, rels, diags)
        assert got.status == want.status
        _tally(tally, got.status)
        for i, j in product(idxs, repeat=2):
            assert fr.relations_commute(rels[i], rels[j], n) == \
                oracle.relations_commute(rels[i], rels[j], n)
    for name in ("W1", "W2", "W3", "W4"):
        assert tally[name, False] and tally[name, True], (name, tally)


def test_check_canonical_representation_matches_oracle():
    rng = random.Random(25)
    verdicts = Counter()
    for L in LATTICES:
        quants = _quantifiers(L)
        for em in quants:
            maps = [em]
            for _ in range(8):
                m = list(em)
                for _ in range(rng.randint(1, 2)):
                    m[rng.randrange(L.n)] = rng.randrange(L.n)
                maps.append(tuple(m))
            for m in maps:
                e = qu.UnaryMap(L, m)
                got = fr.check_canonical_representation(L, e)
                assert got == oracle.check_canonical_representation(L, e)
                verdicts[got] += 1
    assert verdicts[True] and verdicts[False]


@pytest.mark.parametrize("max_blocks", range(1, 7))
def test_find_q6_counterexample_matches_oracle(max_blocks):
    got = qu.find_q6_counterexample(max_blocks)
    want = oracle.find_q6_counterexample(max_blocks, boolean_only=False)
    if want is None:
        assert got is None
    else:
        assert got.summary() == want.summary()
        assert (got.diagram, got.subalgebra, got.p, got.q) == \
            (want.diagram, want.subalgebra, want.p, want.q)


def test_q6_search_pastes_diagrams_up_to_the_witness(monkeypatch):
    # the witness lies on the second diagram, so the search pastes one
    # diagram at one block and two at any larger bound
    built = []
    paste = lat.greechie_lattice
    monkeypatch.setattr(lat, "greechie_lattice",
                        lambda blocks: built.append(blocks) or paste(blocks))
    for m in range(1, 7):
        built.clear()
        qu.find_q6_counterexample(m)
        assert len(built) == (1 if m == 1 else 2), m


def test_all_preorders_matches_oracle():
    for n in range(1, 6):
        assert fr.all_preorders(n) == oracle.all_preorders(n)
