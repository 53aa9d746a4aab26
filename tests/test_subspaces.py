import random

import pytest

import omlkit.subspaces as sp
from omlkit.gq import GQ, ONE, ZERO
from omlkit.lattice import SizeGuardError
from omlkit.subspaces import Subspace, TensorLayout
from subspace_oracle import diagonal_rank, forall_factor_direct


def test_canonical_equality():
    a = Subspace.from_vectors(3, [[1, 2, 3], [0, 0, 1]])
    b = Subspace.from_vectors(3, [[2, 4, 7], [1, 2, 4]])
    assert a == b
    assert a.rank == 2


def test_ortho_is_involution_and_complement():
    rng = random.Random(0)
    for _ in range(10):
        s = sp.random_subspace(5, rng)
        o = sp.ortho(s)
        assert sp.ortho(o) == s
        assert sp.meet(s, o) == Subspace.zero(5)
        assert sp.join(s, o) == Subspace.full(5)
        assert s.rank + o.rank == 5


def test_de_morgan():
    rng = random.Random(1)
    for _ in range(10):
        a = sp.random_subspace(4, rng)
        b = sp.random_subspace(4, rng)
        assert sp.ortho(sp.join(a, b)) == sp.meet(sp.ortho(a), sp.ortho(b))


def test_meet_is_intersection():
    a = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    b = Subspace.from_vectors(3, [[0, 1, 0], [0, 0, 1]])
    assert sp.meet(a, b) == Subspace.from_vectors(3, [[0, 1, 0]])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        sp.join(Subspace.full(2), Subspace.full(3))


def test_layout_indexing():
    lay = TensorLayout((2, 3, 2))
    assert lay.dim == 12
    assert lay.strides() == (6, 2, 1)
    assert lay.index((1, 2, 1)) == 11
    assert len(list(lay.tuples())) == 12


def test_layout_guard():
    with pytest.raises(SizeGuardError):
        TensorLayout((4, 4, 4, 4, 4))


@pytest.mark.parametrize("dims", [(), (0,), (2, 0), (-1, 2)], ids=str)
def test_layout_refuses_a_factor_below_one(dims):
    with pytest.raises(ValueError, match="factor dimensions must be positive"):
        TensorLayout(dims)


def test_exists_is_closure_operator():
    lay = TensorLayout((2, 2, 2))
    rng = random.Random(2)
    for _ in range(10):
        s = sp.random_subspace(8, rng)
        e = sp.exists_factor(lay, 1, s)
        assert s.leq(e)
        assert sp.exists_factor(lay, 1, e) == e
        # join preserved
        t = sp.random_subspace(8, rng)
        assert sp.exists_factor(lay, 1, sp.join(s, t)) == \
            sp.join(sp.exists_factor(lay, 1, s), sp.exists_factor(lay, 1, t))


def test_exists_of_pure_tensor():
    lay = TensorLayout((2, 2))
    # e_0 (x) (1, 1), whose factor-0 quantifier is C^2 (x) (1, 1)
    t = Subspace.from_vectors(4, [[1, 1, 0, 0]])
    b = Subspace.from_vectors(2, [[1, 1]])
    assert sp.exists_factor(lay, 0, t) == sp.embed_alpha(lay, 0, b) == \
        Subspace.from_vectors(4, [[1, 1, 0, 0], [0, 0, 1, 1]])


def test_forall_agrees_with_membership_characterization():
    lay = TensorLayout((2, 2, 2))
    rng = random.Random(3)
    # C^2 (x) C^2 (x) <(1, i)> plus a line: complex entries, so a wrong
    # conjugation in either computation shows
    w = Subspace.from_vectors(2, [[1, GQ(0, 1)]])
    tilted = sp.join(sp.embed_alpha(lay, (0, 1), w),
                     Subspace.from_vectors(8, [[1, 0, 0, 0, 0, 0, 0, 1]]))
    for s in [sp.random_subspace(8, rng) for _ in range(10)] + [tilted]:
        f = sp.forall_factor(lay, 0, s)
        assert f == forall_factor_direct(lay, 0, s)
        assert f.leq(s)
    assert sp.forall_factor(lay, 0, tilted).rank == 4


def test_exists_forall_galois():
    lay = TensorLayout((2, 2))
    rng = random.Random(4)
    for _ in range(10):
        s = sp.random_subspace(4, rng)
        t = sp.random_subspace(4, rng)
        assert sp.exists_factor(lay, 0, s).leq(t) == \
            s.leq(sp.forall_factor(lay, 0, t))


def test_commutation_including_grouped():
    lay = TensorLayout((2, 2, 3))
    rng = random.Random(5)
    for _ in range(5):
        s = sp.random_subspace(12, rng)
        assert sp.check_commutation(lay, 0, 1, s)
        assert sp.check_commutation(lay, 1, 2, s)
        assert sp.check_commutation(lay, 0, 2, s)


def test_diagonal_symmetric_subspace():
    lay = TensorLayout((2, 2))
    d = sp.diagonal(lay, (0, 1))
    v = [ZERO] * 4
    v[lay.index((0, 1))] = ONE
    v[lay.index((1, 0))] = ONE
    assert d.contains(tuple(v))
    w = [ZERO] * 4
    w[lay.index((0, 1))] = ONE
    assert not d.contains(tuple(w))


def test_diagonal_rank_formula():
    for dims, fs in [((2, 2), (0, 1)), ((3, 3), (0, 1)),
                     ((3, 3, 3), (0, 2)), ((2, 2, 2), (0, 1, 2)),
                     ((3, 3, 3), (0, 1, 2)), ((2, 2, 3), (0, 1))]:
        lay = TensorLayout(dims)
        assert sp.diagonal(lay, fs).rank == diagonal_rank(lay, fs)


def test_diagonal_needs_equal_dims():
    with pytest.raises(ValueError):
        sp.diagonal(TensorLayout((2, 3)), (0, 1))


def test_diagonal_meet_and_composition():
    lay = TensorLayout((2, 2, 2))
    assert sp.meet(sp.diagonal(lay, (0, 1)), sp.diagonal(lay, (1, 2))) == \
        sp.diagonal(lay, (0, 1, 2))
    assert sp.check_diagonal_composition(lay, 0, 1, 2)
    assert sp.check_diagonal_composition(lay, 2, 1, 0)
    with pytest.raises(ValueError):
        sp.check_diagonal_composition(lay, 0, 0, 2)


def test_c5_counterexample_structure():
    rec = sp.c5_counterexample(3)
    assert rec.meet_of_terms.rank >= 3
    assert rec.contained_line.leq(rec.meet_of_terms)
    assert rec.term_pos != Subspace.zero(9)
    with pytest.raises(ValueError):
        sp.c5_counterexample(2)


def test_apply_factor_map_respects_structure():
    lay = TensorLayout((2, 2))
    swap = ((ZERO, ONE), (ONE, ZERO))
    # the swap on factor 0 moves e_0 (x) e_1 to e_1 (x) e_1
    t = Subspace.from_vectors(4, [[0, 1, 0, 0]])
    moved = sp.apply_factor_map(lay, 0, swap, t)
    assert moved == Subspace.from_vectors(4, [[0, 0, 0, 1]])


def test_signed_permutation_unitaries_count():
    us = list(sp.signed_permutation_unitaries(2))
    assert len(us) == 8
    assert len(set(us)) == 8


def test_basis_independence_signed_perms():
    lay = TensorLayout((2, 2))
    rng = random.Random(6)
    for u in sp.signed_permutation_unitaries(2):
        s = sp.random_subspace(4, rng)
        assert sp.check_basis_independence(lay, 0, u, s)


def test_basis_independence_hadamard():
    import omlkit.linalg as la
    h = sp.hadamard4_over_2()
    assert la.matmul(h, la.adjoint(h)) == la.eye(4)
    lay = TensorLayout((4, 2))
    rng = random.Random(7)
    for _ in range(3):
        s = sp.random_subspace(8, rng)
        assert sp.check_basis_independence(lay, 0, h, s)


def test_closure_guard():
    lay = TensorLayout((2, 2))
    rng = random.Random(8)
    gens = [sp.random_subspace(4, rng) for _ in range(3)]
    with pytest.raises(SizeGuardError):
        sp.as_cylindric_structure(lay, gens, max_closure=4)


def test_component_span_and_embed_are_inverse_on_products():
    lay = TensorLayout((2, 3))
    b = Subspace.from_vectors(3, [[1, 2, 0]])
    emb = sp.embed_alpha(lay, 0, b)
    assert sp.component_span(lay, 0, emb) == b
    assert sp.exists_factor(lay, 0, emb) == emb


def test_contains_rejects_a_vector_of_another_length():
    # a longer vector used to be cut to the ambient length and accepted
    with pytest.raises(ValueError):
        Subspace.full(2).contains((5, 0, 0))
    with pytest.raises(ValueError):
        Subspace.zero(3).contains((0, 0))


def test_subspace_rejects_vectors_of_another_length():
    # Subspace(4, [(1, 2)]) used to hold a length-2 row in a 4-dim space;
    # only from_vectors checked
    for make in (Subspace, Subspace.from_vectors):
        with pytest.raises(ValueError, match="vector length 2 != ambient 4"):
            make(4, [(1, 2)])
        with pytest.raises(ValueError):
            make(2, [(1, 0), (1, 2, 3)])
    assert Subspace(2, [(1, 2)]) == Subspace.from_vectors(2, [(1, 2)])


def test_leq_rejects_another_ambient_dimension():
    a = Subspace.from_vectors(3, [(1, 0, 0)])
    b = Subspace.from_vectors(2, [(1, 0)])
    with pytest.raises(ValueError):
        a.leq(b)
    with pytest.raises(ValueError):
        b.leq(a)


_BAD_FACTORS = [5, -1, 2, True, (0, 5), (0, -1), (1.0,), ("0",), (False, 1)]


@pytest.mark.parametrize("factors", _BAD_FACTORS, ids=repr)
def test_quantifiers_reject_factors_outside_the_layout(factors):
    lay = TensorLayout((2, 2))
    line = Subspace.from_vectors(4, [[1, 0, 0, 1]])
    # the bounds and the line, so the 0/1 shortcut of exists_factor is
    # reached only after the check
    for s in (Subspace.zero(4), Subspace.full(4), line):
        for quantifier in (sp.exists_factor, sp.forall_factor,
                           sp.component_span):
            with pytest.raises(ValueError, match="factors must be ints"):
                quantifier(lay, factors, s)
    with pytest.raises(ValueError, match="factors must be ints"):
        sp.embed_alpha(lay, factors, Subspace.full(2))


def test_quantifiers_accept_every_factor_form_in_range():
    lay = TensorLayout((2, 2))
    line = Subspace.from_vectors(4, [[1, 0, 0, 1]])
    for factors in (0, 1, (0,), [1], (0, 1), frozenset({1}), ()):
        ex = sp.exists_factor(lay, factors, line)
        assert line.leq(ex)
        assert sp.forall_factor(lay, factors, ex) == ex


@pytest.mark.parametrize("factors", [(0, -1), (0, 5), (True, 0), (0, 1.0),
                                     ("0", 1), 2, -1],
                         ids=repr)
def test_diagonal_rejects_factors_outside_the_layout(factors):
    # (0, -1) once read -1 as the last factor and also as another one, so
    # it gave the full space where (0, 1) gives rank 3; (True, 0) was (1, 0)
    with pytest.raises(ValueError, match="factors must be ints"):
        sp.diagonal(TensorLayout((2, 2)), factors)


def test_diagonal_accepts_every_factor_form_in_range():
    lay = TensorLayout((2, 2))
    d = sp.diagonal(lay, (0, 1))
    assert d.rank == 3
    for factors in ((1, 0), [0, 1], frozenset({0, 1}), (0, 1, 1)):
        assert sp.diagonal(lay, factors) == d
    for factors in (0, 1, (1,), [0], (1, 1)):
        assert sp.diagonal(lay, factors) == Subspace.full(lay.dim)
