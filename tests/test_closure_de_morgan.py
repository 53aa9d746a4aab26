"""The tensor closure and its De Morgan meet table.

subspaces.as_cylindric_structure closes under join, ortho and the
one-factor quantifiers and reads meet off join and ortho by De Morgan;
closure_oracle.as_cylindric_structure computes every meet pair by pair.
Both must give the same structure, element for element, and refuse the
same generators at the size guard.
"""

import json
import random
from pathlib import Path

import pytest

import omlkit.formats as fo
import omlkit.linalg as la
import omlkit.subspaces as sp
from omlkit.gq import GQ, ZERO
from omlkit.lattice import SizeGuardError
from omlkit.subspaces import Subspace, TensorLayout
from closure_oracle import as_cylindric_structure as oracle_closure

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
LAYOUT = TensorLayout((2, 2))


def _line(layout, coefficients):
    """The line spanned by sum c * e_idx over {idx: c}."""
    v = [ZERO] * layout.dim
    for idx, c in coefficients.items():
        v[layout.index(idx)] = c if isinstance(c, GQ) else GQ(c)
    return Subspace.from_vectors(layout.dim, [tuple(v)])


def _c5_line(layout):
    return _line(layout, {(0, 1): 1, (1, 0): 1})


BELL_LINES = {
    "phi+": {(0, 0): 1, (1, 1): 1},
    "phi-": {(0, 0): 1, (1, 1): -1},
    "psi-": {(0, 1): 1, (1, 0): -1},
    "phi+i": {(0, 0): 1, (1, 1): GQ(0, 1)},
    "phi-uneven": {(0, 0): 1, (1, 1): 2},
}


def _seeded_subspaces():
    """Gaussian-integer lines and 3-spaces in C^2 (x) C^2, by seed."""
    out = []
    for seed in range(12):
        rng = random.Random("closure-diff:%d" % seed)
        rank = 1 if seed % 2 == 0 else 3
        rows = [[GQ(rng.randint(-2, 2), rng.randint(-2, 2))
                 for _ in range(LAYOUT.dim)] for _ in range(rank)]
        out.append(("seed%d-rank%d" % (seed, rank),
                    Subspace.from_vectors(LAYOUT.dim, rows)))
    return out


GENERATORS = ([("none", []), ("c5-line", [_c5_line(LAYOUT)])]
              + [(name, [_line(LAYOUT, c)]) for name, c in BELL_LINES.items()]
              + [(name, [s]) for name, s in _seeded_subspaces()])


def _closure_or_guard(build, gens):
    try:
        return build(LAYOUT, gens)
    except SizeGuardError as exc:
        return str(exc)


def _count_certificates(monkeypatch):
    """Clear the kept diagonals, so every count starts from none, and count
    the quantifier answers certified full mod p; returns the count list."""
    sp._diagonal.cache_clear()
    certified = []
    real = sp._full_mod_p

    def counting(slices, rows):
        full = real(slices, rows)
        if full:
            certified.append(rows)
        return full

    monkeypatch.setattr(sp, "_full_mod_p", counting)
    return certified


def _tables(C):
    L = C.base
    return (L.labels, L.meet_t, L.join_t, L.ortho_t, L.zero, L.one, C.dims,
            {i: m.map for i, m in C.cylindrifications.items()}, C.diagonals)


@pytest.mark.parametrize("gens", [g for _, g in GENERATORS],
                         ids=[name for name, _ in GENERATORS])
def test_closure_equals_oracle(gens):
    got = _closure_or_guard(sp.as_cylindric_structure, gens)
    want = _closure_or_guard(oracle_closure, gens)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    (C, subs), (C0, subs0) = got, want
    assert subs == subs0
    assert _tables(C) == _tables(C0)
    assert json.dumps(fo.dump_cylindric(C), sort_keys=True) == \
        json.dumps(fo.dump_cylindric(C0), sort_keys=True)


def test_seeded_generators_reach_both_outcomes():
    outcomes = {isinstance(_closure_or_guard(sp.as_cylindric_structure, g),
                           str) for _, g in GENERATORS}
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", ["none", "c5-line", "phi+i", "seed1-rank3"])
def test_meet_table_is_the_meet_of_subspaces(name):
    gens = dict(GENERATORS)[name]
    C, subs = sp.as_cylindric_structure(LAYOUT, gens)
    index = {s: k for k, s in enumerate(subs)}
    for a, x in enumerate(subs):
        for b, y in enumerate(subs):
            assert C.base.meet_t[a][b] == index[sp.meet(x, y)]


def test_tensor33_closure_rebuilds_fixture_byte_for_byte(monkeypatch):
    layout = TensorLayout((3, 3))
    line = _c5_line(layout)
    certified = _count_certificates(monkeypatch)
    la.reset_counts()
    C, subs = sp.as_cylindric_structure(layout, [line])
    assert len(subs) == 96
    # work pinned so an algorithmic regression fails without a timing check;
    # joins of comparable operands or with a hyperplane, quantifiers whose
    # rank bound gives the full space and quantifiers certified full mod p
    # take no elimination, and the two equal diagonals are built once
    # (without the rank bound and the order 4605 calls on 41947 rows; then
    # 3518 on 31351 without the certificate and the kept diagonal)
    assert la.counts == {"echelon_calls": 3387, "echelon_rows": 29611}
    assert len(certified) == 130
    text = json.dumps(fo.dump_cylindric(C), sort_keys=True)
    assert text == (FIXTURES / "tensor33_cylindric.json").read_text()


def test_closure_work_counters(monkeypatch):
    # the 8-element closure has 4 ortho pairs; zero and full start linked,
    # so it takes one kernel for each of the other 3 and calls no meet.  The
    # pairwise meet loop took 41 nullspaces, and without the link there were
    # 5, so a return to either fails here without a timing check.  Joins
    # decided by order and rank, and quantifiers decided by rank, take no
    # elimination: without them there were 29 calls on 108 rows
    kernel_calls = []
    real_kernel = la.kernel

    def counting_kernel(rows, pivots, ncols):
        kernel_calls.append(ncols)
        return real_kernel(rows, pivots, ncols)

    def no_meet(a, b):
        raise AssertionError("as_cylindric_structure called meet")

    line = _c5_line(LAYOUT)
    monkeypatch.setattr(la, "kernel", counting_kernel)
    monkeypatch.setattr(sp, "meet", no_meet)
    certified = _count_certificates(monkeypatch)
    la.reset_counts()
    C, subs = sp.as_cylindric_structure(LAYOUT, [line])
    assert len(subs) == 8
    assert len(kernel_calls) == 3
    # every quantifier answer past the rank bound is certified full mod p,
    # and the one diagonal is built once: 16 calls on 44 rows without them
    assert la.counts == {"echelon_calls": 7, "echelon_rows": 17}
    assert len(certified) == 8


def test_seeded_closure_work_counters(monkeypatch):
    # join(a, a), join(a, ortho a) and the quantifiers of 0, 1 or a
    # subspace with a full component span take no elimination; with them
    # eliminated as well the 12 closures made 2648 calls on 10800 rows.
    # Joins decided by order (lo <= hi, or a hyperplane hi) and quantifiers
    # whose rank bound gives the full space take none either; with those
    # eliminated the closures made 2363 calls on 9644 rows.  Quantifiers
    # certified full mod p take none, and the diagonal is built once for
    # all 12 closures: without them 973 calls on 2864 rows.
    # Fresh generators: the shared ones carry ortho links from other tests
    gens = [s for _, s in _seeded_subspaces()]
    certified = _count_certificates(monkeypatch)
    la.reset_counts()
    for s in gens:
        _closure_or_guard(sp.as_cylindric_structure, [s])
    assert la.counts == {"echelon_calls": 760, "echelon_rows": 2260}
    assert len(certified) == 179


@pytest.mark.parametrize("factor_dims", [(2, 2), (3, 3)])
def test_closure_builds_no_gq_basis(monkeypatch, factor_dims):
    layout = TensorLayout(factor_dims)
    C0, subs0 = oracle_closure(layout, [_c5_line(layout)])

    def no_basis(rows, pivots):
        raise AssertionError("as_cylindric_structure built a GQ basis")

    monkeypatch.setattr(la, "gq_rows", no_basis)
    C, subs = sp.as_cylindric_structure(layout, [_c5_line(layout)])
    assert subs == subs0
    assert _tables(C) == _tables(C0)
    text = json.dumps(fo.dump_cylindric(C), sort_keys=True)
    assert text == json.dumps(fo.dump_cylindric(C0), sort_keys=True)
    if factor_dims == (3, 3):
        assert text == (FIXTURES / "tensor33_cylindric.json").read_text()
