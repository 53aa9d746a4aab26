"""StarAlgebra as it was first written, kept to check the Subspace-held
version against: an algebra is a tuple of basis matrices whose flattened
rows are the GQ reduced echelon form of its span, built with linalg.rref.

Only GQ rows, linalg.rref, linalg.nullspace and linalg.in_rowspace are
used here; nothing goes through Subspace, so the intersection below is
one nullspace solve rather than the meet of the lattice code."""

from typing import NamedTuple

import omlkit.linalg as la
from omlkit.gq import GQ


class GQAlgebra(NamedTuple):
    n: int
    basis: tuple  # matrices; flattened, the rref rows of the span

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, x) -> bool:
        return la.in_rowspace([la.flatten(b) for b in self.basis],
                              la.flatten(x))


def span(n, mats) -> GQAlgebra:
    red, _ = la.rref([la.flatten(m) for m in mats])
    return GQAlgebra(n, tuple(la.unflatten(v, n, n) for v in red))


def build_algebra(n, generators) -> GQAlgebra:
    """Span the identity, the generators and their adjoints, then add all
    pairwise products until the dimension stops growing."""
    gens = [la.mat(g) for g in generators]
    current = span(n, [la.eye(n)] + gens + [la.adjoint(g) for g in gens])
    while True:
        products = [la.matmul(a, b)
                    for a in current.basis for b in current.basis]
        grown = span(n, list(current.basis) + products)
        if grown.dim == current.dim:
            return grown
        current = grown


def full_matrix_algebra(n) -> GQAlgebra:
    """The span of the n^2 matrix units."""
    units = [[[int((i, j) == (a, b)) for j in range(n)] for i in range(n)]
             for a in range(n) for b in range(n)]
    return span(n, units)


def leq(A: GQAlgebra, B: GQAlgebra) -> bool:
    return all(B.contains(m) for m in A.basis)


def intersection(A: GQAlgebra, B: GQAlgebra) -> GQAlgebra:
    """The sums sum c_i a_i with sum c_i a_i = sum d_j b_j: the c part of
    the nullspace of the columns [a_i | -b_j]."""
    fa = [la.flatten(m) for m in A.basis]
    fb = [tuple(-x for x in la.flatten(m)) for m in B.basis]
    null = la.nullspace(la.transpose(fa + fb), len(fa) + len(fb))
    sums = [la.matvec(la.transpose(fa), c[:len(fa)]) for c in null]
    return span(A.n, [la.unflatten(v, A.n, A.n) for v in sums])


def commutant(A: GQAlgebra) -> GQAlgebra:
    """n^2 dense GQ equations per basis element, zero and repeated rows
    included, through one GQ nullspace."""
    n = A.n
    rows = []
    for m in A.basis:
        for i in range(n):
            for j in range(n):
                row = [GQ(0)] * (n * n)
                for k in range(n):
                    row[i * n + k] += m[k][j]
                    row[k * n + j] -= m[i][k]
                rows.append(tuple(row))
    ns = la.nullspace(rows, n * n)
    return GQAlgebra(n, tuple(la.unflatten(v, n, n) for v in ns))


def center(A: GQAlgebra) -> GQAlgebra:
    return intersection(A, commutant(A))
