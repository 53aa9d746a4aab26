import random

import pytest

import omlkit.frames as fr
import omlkit.lattice as lat
import omlkit.quantifiers as qu


def test_validate_orthoframe():
    F = fr.classical_perp(3)
    assert fr.validate_orthoframe(F).ok
    bad = fr.Orthoframe((0, 1), (0b01, 0b01))  # 0 perp 0
    rep = fr.validate_orthoframe(bad)
    assert not rep.ok and not rep.status["irreflexive"][0]
    asym = fr.Orthoframe((0, 1), (0b10, 0b00))
    assert not fr.validate_orthoframe(asym).status["symmetric"][0]


def test_symmetric_witness_is_the_first_pair_in_row_major_order():
    # 0 perp 1 and 2 perp 1 only: (0, 1) comes before (2, 1)
    F = fr.Orthoframe((0, 1, 2), (0b010, 0b000, 0b010))
    assert fr.validate_orthoframe(F).status["symmetric"] == (False, (0, 1))
    rep = fr.check_monadic_frame(F, (0b001, 0b010, 0b100))
    assert rep.status["M1"] == (False, {"irreflexive": (True, None),
                                        "symmetric": (False, (0, 1))})


def test_intransitive_witness_is_the_first_triple():
    F = fr.classical_perp(4)
    # 0 R 1 R 2 without 0 R 2, and later 1 R 2 R 3 without 1 R 3
    R = (0b0011, 0b0110, 0b1100, 0b1000)
    assert fr.check_monadic_frame(F, R).status["M2"] == \
        (False, ("not_transitive", (0, 1, 2)))
    R = (0b0001, 0b0110, 0b1100, 0b1000)
    assert fr.check_monadic_frame(F, R).status["M2"] == \
        (False, ("not_transitive", (1, 2, 3)))
    R = (0b0011, 0b0000, 0b0100, 0b1000)
    assert fr.check_monadic_frame(F, R).status["M2"] == \
        (False, ("not_reflexive", 1))
    assert not fr.is_equivalence((0b011, 0b110, 0b110), 3)


def test_orthocomplement_and_biortho():
    F = fr.classical_perp(3)
    assert fr.orthocomplement(F, 0b011) == 0b100
    assert fr.orthocomplement(F, 0) == F.full
    assert fr.biortho(F, 0b010) == 0b010


def test_classical_closed_sets_are_the_powerset():
    F = fr.classical_perp(3)
    L, masks = fr.closed_set_lattice(F)
    assert L.n == 8
    assert set(masks) == set(range(8))
    assert lat.validate_ortholattice(L).ok


def test_closed_set_lattice_of_nontrivial_perp():
    # path orthogonality 0-1-2: closed sets form a hexagon-free small OL
    F = fr.Orthoframe((0, 1, 2), (0b010, 0b101, 0b010))
    L, masks = fr.closed_set_lattice(F)
    assert lat.validate_ortholattice(L).ok
    assert all(fr.biortho(F, m) == m for m in masks)


def test_closed_set_guard():
    F = fr.classical_perp(4)
    with pytest.raises(lat.SizeGuardError):
        fr.closed_set_lattice(F, max_elements=7)


def test_classical_monadic_iff_equivalence_small():
    n = 3
    F = fr.classical_perp(n)
    for R in fr.all_preorders(n):
        assert fr.check_monadic_frame(F, R).ok == fr.is_equivalence(R, n)


def test_all_preorders_counts():
    # known counts of preorders on 1..4 points
    assert [len(fr.all_preorders(n)) for n in range(1, 5)] == \
        [1, 4, 29, 355]


def test_exists_r_is_quantifier_on_complex_algebra():
    rng = random.Random(0)
    for _ in range(5):
        got = fr.random_monadic_frame(6, rng)
        assert got is not None
        F, R = got
        L, e, masks = fr.monadic_closed_set_structure(F, R)
        assert qu.check_quantifier(L, e).is_quantifier


def test_closure_lemma_exhaustive():
    rng = random.Random(1)
    got = fr.random_monadic_frame(7, rng)
    F, R = got
    assert fr.check_closure_lemma(F, R)


def test_closure_lemma_detects_violation():
    # non-transitive R on the classical frame breaks the lemma machinery
    F = fr.classical_perp(3)
    R = (0b011, 0b110, 0b100)  # 0->1, 1->2, but not 0->2
    assert not fr.check_monadic_frame(F, R).ok


def test_canonical_frame_shape():
    L = lat.mo(2)
    e = qu.quantifier_from_subalgebra(L, frozenset({L.zero, L.one}))
    F, R, carrier = fr.canonical_frame(L, e)
    assert F.n == L.n - 1
    assert fr.validate_orthoframe(F).ok
    assert fr.check_monadic_frame(F, R).ok


def test_canonical_representation_for_fixture_lattices():
    fixtures = [lat.boolean_algebra(2), lat.mo(2),
                lat.greechie_lattice([("a", "b", "c"), ("c", "d", "e")])]
    for L in fixtures:
        for S in lat.all_subalgebras(L):
            e = qu.quantifier_from_subalgebra(L, S)
            assert fr.check_canonical_representation(L, e)


def test_relations_commute():
    r1 = (0b011, 0b011, 0b100)
    r2 = (0b001, 0b010, 0b100)
    assert fr.relations_commute(r1, r2, 3)
    assert fr.relations_commute(r2, r1, 3)


def classical_cyl_frame(nx):
    """Points X^2 with inequality perp, coordinate relations, equality
    diagonal; the frame companion of the classical set-algebra oracle."""
    pts = [(a, b) for a in range(nx) for b in range(nx)]
    n = len(pts)
    F = fr.classical_perp(n)
    F = fr.Orthoframe(tuple(pts), F.perp)
    rels = {}
    for ci in range(2):
        rows = []
        for p in pts:
            m = 0
            for k, q in enumerate(pts):
                if all(p[c] == q[c] for c in range(2) if c != ci):
                    m |= 1 << k
            rows.append(m)
        rels[ci] = tuple(rows)
    dmask = sum(1 << k for k, p in enumerate(pts) if p[0] == p[1])
    diags = {(0, 0): F.full, (1, 1): F.full,
             (0, 1): dmask, (1, 0): dmask}
    return F, rels, diags


def test_weak_cylindric_frame_conditions():
    F, rels, diags = classical_cyl_frame(2)
    rep = fr.check_weak_cylindric_frame(F, rels, diags)
    assert rep.ok, rep.status


def test_weak_cylindric_frame_detects_bad_diagonal():
    F, rels, diags = classical_cyl_frame(2)
    diags[(0, 1)] = 0
    diags[(1, 0)] = 0
    rep = fr.check_weak_cylindric_frame(F, rels, diags)
    assert not rep.ok and "W4" in rep.failed()


def test_w1_stops_at_the_first_failing_relation(monkeypatch):
    F, rels, diags = classical_cyl_frame(2)
    rels[0] = (0,) * F.n  # not reflexive, so no preorder
    want = fr.check_monadic_frame(F, rels[0]).failed()
    assert want == ["M2"]
    calls, check = [], fr.check_monadic_frame

    def counted(F, R):
        calls.append(R)
        return check(F, R)

    monkeypatch.setattr(fr, "check_monadic_frame", counted)
    rep = fr.check_weak_cylindric_frame(F, rels, diags)
    assert rep.status["W1"] == (False, (0, want))
    assert calls == [rels[0]]
