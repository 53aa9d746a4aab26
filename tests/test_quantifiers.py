from itertools import product

import pytest

import omlkit.lattice as lat
import omlkit.quantifiers as qu


def block_quantifier(L):
    return qu.quantifier_from_subalgebra(L, lat.blocks(L)[0])


def test_identity_map_is_quantifier():
    L = lat.mo(2)
    e = qu.UnaryMap(L, tuple(L.elements()))
    assert qu.check_quantifier(L, e).is_quantifier


def test_simple_quantifier_everything_to_one():
    L = lat.mo(2)
    m = tuple(L.zero if x == L.zero else L.one for x in L.elements())
    e = qu.UnaryMap(L, m)
    rep = qu.check_quantifier(L, e)
    assert rep.is_quantifier
    assert rep.ok("Q6")


def test_axiom_witnesses():
    L = lat.boolean_algebra(2)
    # constant-one map breaks Q1
    e = qu.UnaryMap(L, tuple(L.one for _ in L.elements()))
    rep = qu.check_quantifier(L, e)
    assert not rep.ok("Q1") and rep.status["Q1"][1] == (L.zero,)
    # map sending everything to zero breaks Q2
    e = qu.UnaryMap(L, tuple(L.zero for _ in L.elements()))
    rep = qu.check_quantifier(L, e)
    assert not rep.ok("Q2")


def test_subalgebra_roundtrip_mo2():
    L = lat.mo(2)
    for S in lat.all_subalgebras(L):
        e = qu.quantifier_from_subalgebra(L, S)
        assert qu.check_quantifier(L, e).is_quantifier
        assert qu.fixpoint_subalgebra(e) == S
    # and back: a quantifier regenerates itself from its fixpoints
    e = block_quantifier(L)
    again = qu.quantifier_from_subalgebra(L, qu.fixpoint_subalgebra(e))
    assert again == e


def test_non_subalgebra_rejected():
    L = lat.mo(2)
    with pytest.raises(qu.NotApproximatingError):
        qu.quantifier_from_subalgebra(L, {L.zero, L.labels.index("a1")})


def test_forall_and_residuation():
    L = lat.greechie_lattice([("a", "b", "c"), ("c", "d", "e")])
    for S in lat.blocks(L):
        e = qu.quantifier_from_subalgebra(L, S)
        # the dual quantifier: forall x = (exists x')'
        f = [L.ortho(e(L.ortho(x))) for x in L.elements()]
        for x in L.elements():
            assert L.leq(f[x], x)
            assert f[L.ortho(e(x))] == L.ortho(e(x))
            # exists is residuated with forall as its upper adjoint
            for y in L.elements():
                assert L.leq(e(x), y) == L.leq(x, f[y]), (x, y)


def test_boolean_equivalence_lemma_exhaustive_ba4():
    B = lat.boolean_algebra(2)
    for m in product(range(B.n), repeat=B.n):
        assert qu.check_lemma_q6_boolean(B, qu.UnaryMap(B, m))


def test_boolean_lemma_rejects_non_boolean_base():
    L = lat.mo(2)
    e = qu.UnaryMap(L, tuple(L.elements()))
    with pytest.raises(qu.NotBooleanError):
        qu.check_lemma_q6_boolean(L, e)


def test_q6_holds_on_boolean_but_fails_on_pasting():
    B = lat.boolean_algebra(3)
    for S in lat.all_subalgebras(B):
        e = qu.quantifier_from_subalgebra(B, S)
        assert qu.check_quantifier(B, e).ok("Q6")
    L = lat.greechie_lattice([("a", "b", "c"), ("a", "d", "e")])
    S = next(b for b in lat.blocks(L) if L.labels.index("b") in b)
    e = qu.quantifier_from_subalgebra(L, S)
    assert not qu.check_quantifier(L, e).ok("Q6")


def test_q6_counterexample_search_is_deterministic():
    w1 = qu.find_q6_counterexample(max_blocks=2)
    w2 = qu.find_q6_counterexample(max_blocks=2)
    assert w1 is not None
    assert w1.diagram == w2.diagram
    assert (w1.p, w1.q) == (w2.p, w2.q)
    L = w1.lattice
    e = qu.quantifier_from_subalgebra(L, w1.subalgebra)
    assert e(L.meet(w1.p, e(w1.q))) == L.zero
    assert L.meet(e(w1.p), e(w1.q)) != L.zero
