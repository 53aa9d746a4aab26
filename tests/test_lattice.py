import pytest

import omlkit.lattice as lat


def test_boolean_algebra_tables():
    B = lat.boolean_algebra(3)
    assert B.n == 8
    assert B.meet(0b101, 0b011) == 0b001
    assert B.join(0b101, 0b010) == 0b111
    assert B.ortho(0b101) == 0b010
    assert B.zero == 0 and B.one == 7
    assert lat.validate_ortholattice(B).ok
    assert lat.check_orthomodular(B).is_oml


def test_bounds_from_order_scan():
    L = lat.ol_from_covers(("0", "a", "a'", "1"),
                           [(0, 1), (0, 2), (1, 3), (2, 3)], (3, 2, 1, 0))
    assert L.label(L.zero) == "0" and L.label(L.one) == "1"
    assert L.leq(L.zero, L.one)
    assert not L.leq(L.one, L.zero)


def test_non_lattice_rejected_with_witness():
    # two minimal and two maximal elements: no meet for the top pair
    with pytest.raises(lat.LatticeError):
        lat.ol_from_covers(("a", "b", "c", "d"),
                           [(0, 2), (0, 3), (1, 2), (1, 3)], (3, 2, 1, 0))


def test_antisymmetry_violation_rejected():
    with pytest.raises(lat.LatticeError):
        lat.ol_from_leq(("x", "y"), [(0, 1), (1, 0)], (1, 0))


def test_size_guard():
    with pytest.raises(lat.SizeGuardError):
        lat.boolean_algebra(10)
    with pytest.raises(lat.SizeGuardError):
        lat.ol_from_leq(tuple("ab"), [(0, 1)], (1, 0), max_elements=1)


def test_o6_is_ol_not_oml():
    L = lat.o6()
    assert lat.validate_ortholattice(L).ok
    flag = lat.check_orthomodular(L)
    assert not flag.is_oml
    x, y = flag.witness
    assert {L.label(x), L.label(y)} == {"a", "b"}


def test_chain4_identity_ortho_fails_validation():
    L = lat.chain4_identity_ortho()
    rep = lat.validate_ortholattice(L)
    assert not rep.ok
    axioms = {v.axiom for v in rep.violations}
    assert "order_inverting" in axioms
    assert "join_complement" in axioms


def test_mo_family():
    for n in (1, 2, 3):
        L = lat.mo(n)
        assert L.n == 2 * n + 2
        assert lat.validate_ortholattice(L).ok
        assert lat.check_orthomodular(L).is_oml
    L = lat.mo(2)
    a1, a2 = L.labels.index("a1"), L.labels.index("a2")
    assert not lat.commutation(L)[a1] >> a2 & 1


def test_sasaki_ops():
    L = lat.mo(2)
    a1, a2 = L.labels.index("a1"), L.labels.index("a2")
    # x .s y = x ^ (x' v y)
    assert lat.sasaki_product(L, a1, a2) == a1
    assert lat.sasaki_product(L, a1, L.zero) == L.zero
    assert lat.sasaki_hook(L, a1, a2) == L.ortho(a1)


def test_subalgebra_closure_and_membership():
    L = lat.mo(2)
    S = lat.subalgebra_closure(L, (L.labels.index("a1"),))
    assert S == frozenset({L.zero, L.one, L.labels.index("a1"),
                           L.labels.index("a1'")})
    assert lat.is_subalgebra(L, S)
    assert not lat.is_subalgebra(L, {L.zero, L.labels.index("a1")})


def test_all_subalgebras_mo2():
    L = lat.mo(2)
    subs = lat.all_subalgebras(L)
    assert len(subs) == 4
    assert frozenset({L.zero, L.one}) in subs
    assert frozenset(L.elements()) in subs


def test_blocks_of_pasting():
    L = lat.greechie_lattice([("a", "b", "c"), ("c", "d", "e")])
    bs = lat.blocks(L)
    assert len(bs) == 2
    for b in bs:
        assert len(b) == 8
        assert lat.is_subalgebra(L, b)
        assert lat.is_distributive_subset(L, b)


def test_blocks_of_mo2_are_the_pages():
    L = lat.mo(2)
    bs = lat.blocks(L)
    assert len(bs) == 2
    assert all(len(b) == 4 for b in bs)


def test_greechie_two_blocks_shared_atom():
    L = lat.greechie_lattice([("a", "b", "c"), ("c", "d", "e")])
    assert L.n == 12
    assert lat.validate_ortholattice(L).ok
    assert lat.check_orthomodular(L).is_oml
    c = L.labels.index("c")
    # the shared atom has one complement, the join of either remainder pair
    assert L.join(L.labels.index("a"), L.labels.index("b")) == L.ortho(c)
    assert L.join(L.labels.index("d"), L.labels.index("e")) == L.ortho(c)


def test_greechie_two_atom_block_is_mo1_page():
    L = lat.greechie_lattice([("a", "b"), ("c", "d")])
    assert L.n == 6  # MO2 shape
    assert lat.check_orthomodular(L).is_oml


def test_greechie_rejects_bad_blocks():
    with pytest.raises(lat.LatticeError):
        lat.greechie_lattice([("a", "a", "b")])
    with pytest.raises(lat.LatticeError):
        lat.greechie_lattice([("a",)])


def test_enumeration_is_deterministic_and_bounded():
    first = list(lat.enumerate_greechie_diagrams(2))
    second = list(lat.enumerate_greechie_diagrams(2))
    assert first == second
    assert first[0] == [(0, 1, 2)]
    assert all(len(d) <= 2 for d in first)
    # each later block shares at most one atom with the earlier ones
    for d in first[1:]:
        earlier = set(d[0])
        assert len(earlier & set(d[1])) <= 1
