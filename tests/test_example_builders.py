"""The one-pass example builders against the builders they replaced.

ol_oracle keeps greechie_lattice and enumerate_greechie_diagrams as they
were, and subspace_oracle keeps diagonal.  The new code must give the same
labels, tables and bounds, the same diagrams in the same order and the same
diagonal subspaces, and raise the same errors.  lattice.blocks, now the
maximal commuting cliques of an OML with no per-clique filter, must equal
the filtered oracle on every pasting and refuse lattices that are not
orthomodular ortholattices.
"""

import pytest

import omlkit.lattice as lat
import omlkit.subspaces as sp
import ol_oracle as oracle
import subspace_oracle as sp_oracle
from omlkit.subspaces import TensorLayout

PASTINGS = list(lat.enumerate_greechie_diagrams(4))

# 2-atom blocks and mixed block sizes: horizontal sums, equal sizes glued at
# an atom, unequal sizes glued at an atom (an ortho table that is not an
# involution), loops of order 3 and 4 (not lattices), and tokens that look
# like the labels of complements, of intermediate elements or of the bounds
MIXED = [
    [("a", "b"), ("c", "d")],
    [("a", "b"), ("c", "d"), ("e", "f")],
    [("a", "b", "c", "d"), ("e", "f")],
    [("a", "b", "c", "d", "e"), ("f", "g", "h")],
    [("a", "b", "c", "d"), ("d", "e", "f", "g")],
    [("a", "b", "c", "d", "e"), ("e", "f", "g", "h", "i")],
    [("a", "b"), ("b", "c")],
    [("a", "b", "c", "d"), ("d", "e")],
    [("a", "b", "c", "d", "e"), ("e", "f", "g"), ("g", "h")],
    [(1, 2, 3), ("1", "4")],
    [("a", "b", "c"), ("c", "d", "e"), ("e", "f", "a")],
    [("a", "b", "c"), ("c", "d", "e"), ("e", "f", "g"), ("g", "h", "a")],
    [("a'", "b", "c"), ("a", "d", "e")],
    [("a", "b", "e", "f"), ("a|b@0", "c", "d")],
    [(0, 1, 2), ("x", "y", "z")],
]

LAYOUTS = [(2, 2), (3, 3), (2, 2, 2), (3, 3, 3), (2, 3, 2), (4, 4)]


def _built(build, diagram):
    try:
        L = build(diagram)
    except lat.LatticeError as exc:
        return "LatticeError", str(exc)
    return (L.labels, L.meet_t, L.join_t, L.ortho_t, L.zero, L.one)


def _is_oml(L):
    return oracle.validate_ortholattice(L).ok and \
        oracle.check_orthomodular(L).is_oml


def _complement_clash(diagram):
    """(atom, first complement, second complement) as labels for the first
    atom that two blocks complement differently, or None: a 2-atom block
    complements an atom by the other atom, a larger block by the join of
    the rest, labelled t'."""
    seen = {}
    for blk in diagram:
        blk = [str(t) for t in blk]
        for t in blk:
            co = blk[blk.index(t) ^ 1] if len(blk) == 2 else t + "'"
            if seen.setdefault(t, co) != co:
                return t, seen[t], co
    return None


@pytest.mark.parametrize("diagram", PASTINGS + MIXED,
                         ids=[str(i) for i in range(len(PASTINGS + MIXED))])
def test_greechie_lattice_matches_oracle(diagram):
    new = _built(lat.greechie_lattice, diagram)
    clash = _complement_clash(diagram)
    if clash:
        # the oracle pastes these with the later complement overwriting
        # the earlier, so its ortho is not an involution
        assert new == ("LatticeError",
                       "atom %r has two complements, %r and %r" % clash)
        return
    assert new == _built(oracle.greechie_lattice, diagram)
    if new[0] == "LatticeError":
        return
    L = lat.greechie_lattice(diagram)
    if _is_oml(L):
        assert lat.blocks(L) == oracle.blocks(L)
    else:
        with pytest.raises(lat.LatticeError, match="orthomodular"):
            lat.blocks(L)


def test_mixed_pastings_cover_every_outcome():
    kinds = []
    for d in MIXED:
        try:
            L = lat.greechie_lattice(d)
            kinds.append("oml" if _is_oml(L) else "not oml")
        except lat.LatticeError:
            kinds.append("none")
    assert kinds == ["oml"] * 6 + ["none"] * 6 + ["oml"] * 3
    # MIXED[6:10] share an atom between a 2-atom block and another block
    assert [bool(_complement_clash(d)) for d in MIXED] == \
        [False] * 6 + [True] * 4 + [False] * 5
    # a token "a'" is an atom, not the complement of the atom "a", and a
    # token "a|b@0" is not the element a v b of block 0
    L = lat.greechie_lattice(MIXED[12])
    atom, co = [k for k, label in enumerate(L.labels) if label == "a'"]
    assert L.ortho(L.labels.index("a")) == co and atom in oracle.atoms(L)
    L = lat.greechie_lattice(MIXED[13])
    mid, atom = [k for k, label in enumerate(L.labels) if label == "a|b@0"]
    assert L.join(L.labels.index("a"), L.labels.index("b")) == mid
    assert atom in oracle.atoms(L)


def test_greechie_size_guard_matches_oracle():
    blocks = [("a", "b", "c", "d", "e", "f")]
    for build in (lat.greechie_lattice, oracle.greechie_lattice):
        with pytest.raises(lat.SizeGuardError,
                           match="lattice has 64 elements, guard is 63"):
            build(blocks, max_elements=63)


ABCD, ABC = ("a", "b", "c", "d"), ("a", "b", "c")
REPEATED = [  # (listing with repeats, the same blocks listed once)
    ([ABCD] * 2, [ABCD]),
    ([ABCD, ("d", "c", "b", "a")], [ABCD]),
    ([ABCD, ("e", "f"), ("b", "a", "d", "c"), ("f", "e")], [ABCD, ("e", "f")]),
    ([("c", "f", "g", "h"), ABC, ("a", "c", "b"), ("h", "g", "f", "c")],
     [("c", "f", "g", "h"), ABC]),
]


@pytest.mark.parametrize("blocks, once", REPEATED,
                         ids=[str(i) for i in range(len(REPEATED))])
def test_repeated_blocks_are_one_listing(blocks, once):
    # a block listed again, in any order, adds nothing: the labels and
    # tables are those of one listing, within the same size guard
    want = _built(lat.greechie_lattice, once)
    assert _built(lat.greechie_lattice, blocks) == want
    n = len(want[0])
    assert lat.greechie_lattice(blocks, max_elements=n).n == n


def test_repeated_blocks_keep_the_accepted_labels():
    # repeated blocks of up to 3 atoms were accepted before; an inner
    # element keeps the index of its block's listing, here 2
    blocks = [ABC, ("c", "b", "a"), ("c", "f", "g", "h")]
    new = _built(lat.greechie_lattice, blocks)
    assert new == _built(oracle.greechie_lattice, blocks)
    assert "c|f@2" in new[0]


def test_repeated_block_hands_one_listing_to_ol_from_leq(monkeypatch):
    calls = []
    build = lat.ol_from_leq
    monkeypatch.setattr(lat, "ol_from_leq",
                        lambda *a, **k: calls.append(a) or build(*a, **k))
    for copies in (1, 1000):
        lat.greechie_lattice([("a", "b", "c")] * copies)
    assert calls[0] == calls[1]


@pytest.mark.parametrize("max_blocks", [-1, 0, 1, 2, 3, 6])
def test_enumeration_matches_oracle(max_blocks):
    assert list(lat.enumerate_greechie_diagrams(max_blocks)) == \
        list(oracle.enumerate_greechie_diagrams(max_blocks))


def _diagonal(build, layout, factors):
    try:
        d = build(layout, factors)
    except ValueError as exc:
        return "ValueError", str(exc)
    return d.dim, d.rows, d.pivots


@pytest.mark.parametrize("dims", LAYOUTS, ids=str)
def test_diagonal_matches_oracle(dims):
    layout = TensorLayout(dims)
    factor_sets = [(i, j) for i in range(layout.n) for j in range(layout.n)]
    if layout.n == 3:
        factor_sets.append((0, 1, 2))
    for fs in factor_sets:
        new = _diagonal(sp.diagonal, layout, fs)
        assert new == _diagonal(sp_oracle.diagonal, layout, fs), fs
        if new[0] != "ValueError":
            assert sp.diagonal(layout, fs) == sp_oracle.diagonal(layout, fs)


@pytest.mark.parametrize("build", [lat.o6, lat.chain4_identity_ortho],
                         ids=["o6", "chain4_identity_ortho"])
def test_blocks_refuses_lattices_that_are_not_oml(build):
    with pytest.raises(lat.LatticeError, match="orthomodular"):
        lat.blocks(build())
