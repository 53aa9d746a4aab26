"""The bitmask ortholattice kernel against the set-based loops it replaced.

ol_oracle holds ol_from_leq, check_quantifier, quantifier_from_subalgebra,
blocks, check_closure_lemma and the other table code as first written.  The
new code must build the same tables, give the same reports with the same
first witnesses, and raise the same LatticeError messages.

One message may differ by design: the oracle names the antisymmetry pair
(i, j) with the first j in the iteration order of a Python set, which is
ascending only while the set's values are below its hash-table size.  That
always holds up to 8 elements, where the messages must be equal; above it
the new code names the least such j, and i must still agree.
"""

import dataclasses
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import omlkit.formats as fo
import omlkit.frames as fr
import omlkit.lattice as lat
import omlkit.quantifiers as qu
import ol_oracle as oracle


def _outcome(build, labels, pairs, ortho):
    try:
        return build(labels, pairs, ortho)
    except lat.LatticeError as exc:
        return str(exc)


def _tables(L):
    return L.labels, L.meet_t, L.join_t, L.ortho_t, L.zero, L.one


def _violations(rep):
    """The axioms and witnesses of a ValidationReport, whose Violation
    class differs between omlkit.lattice and the oracle."""
    return [[(v.axiom, v.witness) for v in vs]
            for vs in (rep.structural, rep.violations)]


def _same_order_checks(L):
    assert [L.down(x) for x in L.elements()] == \
        [oracle.down(L, x) for x in L.elements()]
    assert _violations(lat.validate_ortholattice(L)) == \
        _violations(oracle.validate_ortholattice(L))
    assert lat.check_orthomodular(L) == oracle.check_orthomodular(L)
    assert fo._cover_pairs(L) == oracle.cover_pairs(L)


@st.composite
def relations(draw, max_n):
    """A relation on n elements: random pairs, sometimes with global bounds,
    or a random order on relabelled elements with both bounds, which need
    not be a lattice; sometimes with a pair out of range."""
    n = draw(st.integers(1, max_n))
    idx = st.integers(0, n - 1)
    if draw(st.booleans()):
        # i below j for a random choice of i < j, then relabelled
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = draw(st.lists(st.booleans(), min_size=len(upper),
                             max_size=len(upper)))
        pairs = [p for p, k in zip(upper, keep) if k]
        pairs += [(0, j) for j in range(n)] + [(j, n - 1) for j in range(n)]
        name = draw(st.permutations(range(n)))
        pairs = [(name[i], name[j]) for i, j in pairs]
    else:
        pairs = draw(st.lists(st.tuples(idx, idx), max_size=3 * n))
        if draw(st.booleans()):
            pairs += [(0, j) for j in range(n)] + \
                [(j, n - 1) for j in range(n)]
    if draw(st.integers(0, 9)) == 0:
        pairs.insert(draw(st.integers(0, len(pairs))), (n, 0))
    ortho = draw(st.permutations(range(n)))
    return [chr(65 + i) for i in range(n)], pairs, ortho


@settings(max_examples=400)
@given(relations(max_n=8), st.data())
def test_ol_from_leq_matches_oracle(rel, data):
    old = _outcome(oracle.ol_from_leq, *rel)
    new = _outcome(lat.ol_from_leq, *rel)
    if isinstance(old, str):
        assert new == old
        return
    assert _tables(new) == _tables(old)
    _same_order_checks(new)
    # the ortho tables are arbitrary permutations, so a set closed under
    # meet and ortho need not be closed under join
    S = data.draw(st.sets(st.integers(0, new.n - 1))) | {new.zero, new.one}
    assert lat.is_subalgebra(new, S) == oracle.is_subalgebra(new, S)
    assert lat.is_distributive_subset(new, S) == \
        oracle.is_distributive_subset(new, S)


@settings(max_examples=200)
@given(relations(max_n=14))
def test_ol_from_leq_on_larger_relations(rel):
    old = _outcome(oracle.ol_from_leq, *rel)
    new = _outcome(lat.ol_from_leq, *rel)
    pattern = r"order not antisymmetric at \((\d+),(\d+)\)"
    if isinstance(old, str) and re.fullmatch(pattern, old):
        (i, j_old), (i_new, j) = (map(int, re.fullmatch(pattern, m).groups())
                                  for m in (old, new))
        # same row; j is the least element comparable both ways with i
        assert i_new == i
        up = _closed_up(rel)
        both = [k for k in range(len(rel[0]))
                if k != i and k in up[i] and i in up[k]]
        assert j == min(both) and j_old in both
    elif isinstance(old, str):
        assert new == old
    else:
        assert _tables(new) == _tables(old)
        _same_order_checks(new)


@pytest.mark.parametrize("labels, message", [
    ("0abcd1", "pair (a,b) has no join"),
    ("0cdab1", "pair (c,d) has no meet"),
])
def test_bowtie_names_first_pair(labels, message):
    # a, b < c, d: a and b have no join, c and d no meet; whichever pair
    # comes first in row-major order is named, meet tried before join
    at = labels.index
    pairs = [(at("0"), at(x)) for x in "ab"] + \
        [(at(x), at(y)) for x in "ab" for y in "cd"] + \
        [(at(x), at("1")) for x in "cd"]
    ortho = range(6)
    for build in (lat.ol_from_leq, oracle.ol_from_leq):
        with pytest.raises(lat.LatticeError) as exc:
            build(tuple(labels), pairs, ortho)
        assert str(exc.value) == message


@settings(max_examples=200)
@given(st.integers(0, 12).flatmap(
    lambda n: st.lists(st.integers(0, 2 ** n - 1), min_size=n, max_size=n)))
def test_transitive_closure_matches_oracle(rows):
    n = len(rows)
    want = oracle._transitive_closure([set(lat.bits(r)) for r in rows], n)
    work = list(rows)
    assert lat.transitive_closure(work) is work
    assert [set(lat.bits(r)) for r in work] == want


def test_random_monadic_frames_match_oracle():
    # the same frames, and the same draws, for the same seeds
    for n in range(1, 13):
        for seed in range(4):
            rng, old_rng = random.Random(seed), random.Random(seed)
            assert fr.random_monadic_frame(n, rng, tries=50) == \
                oracle.random_monadic_frame(n, old_rng, tries=50)
            assert rng.random() == old_rng.random()


def _closed_up(rel):
    labels, pairs, _ = rel
    n = len(labels)
    up = [{i} for i in range(n)]
    for i, j in pairs:
        up[i].add(j)
    return oracle._transitive_closure(up, n)


PASTINGS = list(lat.enumerate_greechie_diagrams(3))


@pytest.mark.parametrize("diagram", PASTINGS,
                         ids=[str(i) for i in range(len(PASTINGS))])
def test_pastings_match_oracle(monkeypatch, diagram):
    L = lat.greechie_lattice(diagram)
    with monkeypatch.context() as m:
        m.setattr(lat, "ol_from_leq", oracle.ol_from_leq)
        old = lat.greechie_lattice(diagram)
    assert _tables(L) == _tables(old)
    _same_order_checks(L)
    blocks = lat.blocks(L)
    assert blocks == oracle.blocks(L)
    for S in blocks:
        assert lat.is_subalgebra(L, S) and lat.is_distributive_subset(L, S)
        e = qu.quantifier_from_subalgebra(L, S)
        assert e.map == oracle.quantifier_from_subalgebra(L, S).map
        assert qu.check_quantifier(L, e).status == \
            oracle.check_quantifier(L, e).status


def test_non_subalgebras_and_non_distributive_sets():
    L = lat.mo(2)
    for S in ([0, 1, 5], [0, 1, 2, 3, 5], list(L.elements())):
        assert lat.is_subalgebra(L, S) == oracle.is_subalgebra(L, S)
        assert lat.is_distributive_subset(L, S) == \
            oracle.is_distributive_subset(L, S)
    with pytest.raises(qu.NotApproximatingError):
        qu.quantifier_from_subalgebra(L, [0, 1, 5])
    assert not lat.is_distributive_subset(L, L.elements())
    # with the identity as 'ortho', {}, {0}, {1} and the full set are closed
    # under meet and ortho but not under join
    B = dataclasses.replace(lat.boolean_algebra(3), ortho_t=tuple(range(8)))
    assert not lat.is_subalgebra(B, [0, 1, 2, 7])
    assert not oracle.is_subalgebra(B, [0, 1, 2, 7])


@st.composite
def pasting_maps(draw):
    """A unary map on a pasting: a block's quantifier with a few entries
    changed, or a map drawn at random."""
    L = lat.greechie_lattice(draw(st.sampled_from(PASTINGS)))
    if draw(st.booleans()):
        base = list(draw(st.integers(0, L.n - 1)) for _ in range(L.n))
    else:
        S = draw(st.sampled_from(lat.blocks(L)))
        base = list(qu.quantifier_from_subalgebra(L, S).map)
    for _ in range(draw(st.integers(0, 3))):
        base[draw(st.integers(0, L.n - 1))] = draw(st.integers(0, L.n - 1))
    return L, qu.UnaryMap(L, tuple(base))


@settings(max_examples=300)
@given(pasting_maps())
def test_check_quantifier_matches_oracle(Le):
    L, e = Le
    assert qu.check_quantifier(L, e).status == \
        oracle.check_quantifier(L, e).status


def test_check_quantifier_names_first_pair():
    # on the Boolean algebra of 3 atoms (element = atom mask), sending {0}
    # to {0,1} keeps Q3 at (1,2) and (1,3) and first breaks it at (1,4):
    # e{0,2} = {0,2} but e{0} v e{2} = {0,1,2}
    L = lat.boolean_algebra(3)
    e = qu.UnaryMap(L, tuple(3 if x == 1 else x for x in L.elements()))
    status = qu.check_quantifier(L, e).status
    assert status == oracle.check_quantifier(L, e).status
    assert status["Q3"] == (False, (1, 4))
    assert status["Q6"] == (False, (1, 2))
    assert status["Q5"] == (False, (6,))


@st.composite
def frames(draw):
    """A monadic frame of 4-12 points, or an orthoframe with an arbitrary
    relation, on which any of the closure lemma's three conditions may
    fail (the third follows from the second when R is reflexive)."""
    n = draw(st.integers(4, 12))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        frame = fr.random_monadic_frame(n, rng)
        if frame is not None:
            return frame
    F = fr.random_orthoframe(n, rng)
    return F, tuple(rng.randrange(1 << n) for _ in range(n))


@settings(max_examples=60)
@given(frames())
def test_frames_match_oracle(frame):
    F, R = frame
    assert fr.check_closure_lemma(F, R) == oracle.check_closure_lemma(F, R)
    L, e, masks = fr.monadic_closed_set_structure(F, R)
    old_L, old_e, old_masks = oracle.monadic_closed_set_structure(F, R)
    assert masks == old_masks and e.map == old_e.map
    assert _tables(L) == _tables(old_L)


def test_closure_lemma_fails_on_the_double_ortho_alone():
    # classical frame on 3 points, R = 0 -> {0,1,2}, 1 -> {}, 2 -> {0,2}:
    # for A = {2}, R[A]-ortho {1} is closed under R and R[A] lies in its
    # double ortho {0,2}, but {0,2} is not closed: R[0] holds 1
    F, R = fr.classical_perp(3), (0b111, 0, 0b101)
    assert not oracle.check_closure_lemma(F, R)
    assert not fr.check_closure_lemma(F, R)


def test_subset_tables_and_sampled_lemma():
    rng = random.Random(7)
    F = fr.random_orthoframe(6, rng)
    R = tuple(rng.randrange(64) | 1 << i for i in range(6))
    img, orth = fr.subset_tables(F, R)
    assert img == [fr.image(R, a) for a in range(64)]
    assert orth == [fr.orthocomplement(F, a) for a in range(64)]
    # the oracle's per-set loop over every subset is the reference, also
    # past the 12 points where it would sample
    assert fr.check_closure_lemma(F, R) == \
        oracle.check_closure_lemma(F, R, subsets=range(2 ** 6))
    F, R = fr.random_monadic_frame(13, random.Random(3))
    assert fr.check_closure_lemma(F, R) == \
        oracle.check_closure_lemma(F, R, subsets=range(2 ** 13))
