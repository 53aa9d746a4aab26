"""Test-only oracle: subspace operations on GQ bases, as first written.

A subspace here is an OSub: its dimension and its basis of rref rows over
Q[i], from the GQ elimination of rref_oracle.  join spans both bases,
ortho takes the nullspace of the conjugated basis, component_span and
embed_alpha slice and place GQ entries, and ident is the integer identity
key (dim, (den, re, im) per row) that Subspace was once compared by.
omlkit.subspaces works on canonical Gaussian-integer rows instead; both
must give the same subspaces, rref bases and equalities.

forall_factor_direct and diagonal_rank are independent computations on
omlkit Subspaces: the universal factor quantifier by its membership
characterization, and the rank of a diagonal in closed form.  diagonal
and _orbit are the diagonal as first written, which enumerates the
permutations of each tuple's values to find its orbit.

exists_factor_eliminating is omlkit's exists_factor before full answers
were certified mod p: past the zero, full and rank-bound cases it always
takes the component span by elimination.
"""

from __future__ import annotations

from typing import NamedTuple

from itertools import permutations, product
from math import comb, prod

import omlkit.linalg as la
import omlkit.subspaces as sp
from omlkit.gq import ONE, ZERO
from omlkit.linalg import _den_row
from omlkit.subspaces import Subspace, TensorLayout, _from_echelon
from rref_oracle import rref


class OSub(NamedTuple):
    dim: int
    basis: tuple

    @property
    def rank(self) -> int:
        return len(self.basis)


def from_vectors(dim: int, vectors) -> OSub:
    return OSub(dim, rref([tuple(v) for v in vectors])[0])


def ident(s: OSub) -> tuple:
    return (s.dim, tuple((den, tuple(re), tuple(im))
                         for den, re, im in map(_den_row, s.basis)))


def nullspace(rows, ncols: int):
    red, pivots = rref(rows)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return rref(basis)[0]


def ortho(a: OSub) -> OSub:
    conj = [tuple(x.conj() for x in row) for row in a.basis]
    return OSub(a.dim, nullspace(conj, a.dim))


def join(a: OSub, b: OSub) -> OSub:
    return from_vectors(a.dim, list(a.basis) + list(b.basis))


def meet(a: OSub, b: OSub) -> OSub:
    return ortho(join(ortho(a), ortho(b)))


def _coord_maps(layout, factors):
    """(f_tuples, rest_tuples, addr): addr(ft, rt) is the flat coordinate
    with the positions in factors set to ft and the others to rt."""
    if isinstance(factors, int):
        factors = (factors,)
    fs = sorted(set(factors))
    rest = [k for k in range(layout.n) if k not in fs]
    strides = layout.strides()
    f_tuples = list(product(*(range(layout.factor_dims[k]) for k in fs)))
    rest_tuples = list(product(*(range(layout.factor_dims[k]) for k in rest)))

    def addr(ft, rt):
        return (sum(i * strides[k] for k, i in zip(fs, ft))
                + sum(i * strides[k] for k, i in zip(rest, rt)))

    return f_tuples, rest_tuples, addr


def component_span(layout, factors, s: OSub) -> OSub:
    f_tuples, rest_tuples, addr = _coord_maps(layout, factors)
    comps = [tuple(v[addr(ft, rt)] for rt in rest_tuples)
             for v in s.basis for ft in f_tuples]
    return from_vectors(len(rest_tuples), comps)


def embed_alpha(layout, factors, b: OSub) -> OSub:
    f_tuples, rest_tuples, addr = _coord_maps(layout, factors)
    vecs = []
    for ft in f_tuples:
        for row in b.basis:
            v = [ZERO] * layout.dim
            for rt, x in zip(rest_tuples, row):
                v[addr(ft, rt)] = x
            vecs.append(tuple(v))
    return from_vectors(layout.dim, vecs)


def exists_factor(layout, factors, s: OSub) -> OSub:
    return embed_alpha(layout, factors, component_span(layout, factors, s))


def exists_factor_eliminating(layout: TensorLayout, factors,
                              s: Subspace) -> Subspace:
    """Least subspace of the form (full on factors) x T above s.

    (full on factors) x T has rank d * rank T, d the dimension on
    `factors`, so rank T >= ceil(rank s / d): when d times that bound is the
    whole dimension, the answer is the full space without elimination."""
    d = len(sp._slices(layout, factors))  # checks factors before the shortcuts
    if s.dim == layout.dim:
        if s.rank in (0, s.dim):
            return s
        if -(-s.rank // d) * d == s.dim:
            return Subspace.full(s.dim)
    b = sp.component_span(layout, factors, s)
    if b.rank == b.dim:
        return Subspace.full(layout.dim)
    return sp.embed_alpha(layout, factors, b)


def forall_factor_direct(layout, factors, s: sp.Subspace) -> sp.Subspace:
    """Membership characterization: (full) x <w> below s for every pure
    slice; cross-check for forall_factor."""
    slices = sp._slices(layout, factors)
    # w must satisfy: for every ft, the vector e_ft (x) w is in s, i.e. is
    # orthogonal to ortho(s).
    constraints = []
    so = sp.ortho(s)
    for sl in slices:
        for row in so.basis:
            constraints.append(tuple(row[k].conj() for k in sl))
    sub = sp.Subspace(len(slices[0]),
                      la.nullspace(constraints, len(slices[0])))
    return sp.embed_alpha(layout, factors, sub)


def diagonal_rank(layout, factors) -> int:
    """Symmetric-power dimension times the free factor dimensions."""
    fs = sorted(set(factors))
    d = layout.factor_dims[fs[0]]
    rest = prod(layout.factor_dims[k] for k in range(layout.n) if k not in fs)
    return comb(d + len(fs) - 1, len(fs)) * rest


def diagonal(layout: TensorLayout, factors) -> Subspace:
    """Subspace of tensors whose coordinates are invariant under permuting
    the positions in `factors` (all of equal dimension)."""
    fs = sorted(set(factors))
    dims = {layout.factor_dims[k] for k in fs}
    if len(dims) != 1:
        raise ValueError("diagonal factors must have equal dimensions")
    if len(fs) <= 1:
        return Subspace.full(layout.dim)
    rows = []
    seen = set()
    zeros = (0,) * layout.dim
    for idx in layout.tuples():
        key = tuple(sorted(idx[k] for k in fs)) + \
            tuple(idx[k] for k in range(layout.n) if k not in fs)
        if key in seen:
            continue
        seen.add(key)
        v = [0] * layout.dim
        for t in _orbit(idx, fs):
            v[layout.index(t)] = 1
        rows.append((v, zeros))
    return _from_echelon(layout.dim, la.echelon(rows))


def _orbit(idx, fs):
    vals = [idx[k] for k in fs]
    out = set()
    for pv in permutations(vals):
        t = list(idx)
        for k, v in zip(fs, pv):
            t[k] = v
        out.add(tuple(t))
    return out
