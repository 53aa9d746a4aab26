"""The GQ versions of the algebra job path, kept to check the
Gaussian-integer ones against: the orthogonal projector, the conditional
expectation through the inverse Gram matrix of the GQ basis, the invariant
closure under GQ matrices, membership by linalg.in_rowspace and the
congruence reduction with GQ pivots.  The bodies are those of the previous
matrixalg and Subspace; only the cached Gram inverse is a function here.
random_rank_one_projection is the GQ outer product that the algebra
workload's inputs were first drawn with; the Gaussian-integer one must
draw the same matrices from the same random state."""

import random
from fractions import Fraction

from omlkit import linalg as la
from omlkit.gq import GQ, ONE
from omlkit.matrixalg import PSDResult
from omlkit.subspaces import Subspace


def contains(sub: Subspace, v) -> bool:
    return la.in_rowspace(sub.basis, v)


def projector_onto(sub: Subspace):
    """Orthogonal projection with the given range: B (B*B)^{-1} B* for a
    column basis B."""
    n = sub.dim
    if sub.rank == 0:
        return la.zeros(n, n)
    B = la.transpose(sub.basis)
    G = la.matmul(la.adjoint(B), B)
    return la.matmul(la.matmul(B, la.inverse(G)), la.adjoint(B))


def invariant_closure(mats, sub: Subspace) -> Subspace:
    """Smallest subspace containing sub and invariant under each matrix."""
    current = sub
    while True:
        vecs = list(current.basis)
        for m in mats:
            for v in current.basis:
                vecs.append(la.matvec(m, v))
        grown = Subspace.from_vectors(sub.dim, vecs)
        if grown.rank == current.rank:
            return grown
        current = grown


def gram_inverse(N):
    """Inverse of the Gram matrix tr(b_i* b_j), from Frobenius products
    of the flattened basis."""
    flat = N.span.basis
    return la.inverse(tuple(tuple(la.inner(u, v) for v in flat)
                            for u in flat))


def conditional_expectation(N, x) -> tuple:
    """The trace-orthogonal projection of x onto N: the unique n in N with
    tr(b* n) = tr(b* x) for every b in N.  Each tr(b* x) is the Frobenius
    product of the flattened matrices, sum conj(b_ij) x_ij, and n = sum c_k b_k
    is one matvec with the flattened basis as columns."""
    x = la.mat(x)
    if len(x) != N.n or any(len(row) != N.n for row in x):
        raise ValueError("x is not a %d x %d matrix" % (N.n, N.n))
    flat = N.span.basis
    t = tuple(la.inner(b, la.flatten(x)) for b in flat)
    coeffs = la.matvec(gram_inverse(N), t)
    return la.unflatten(la.matvec(la.transpose(flat), coeffs), N.n, N.n)


def psd_certificate(a) -> PSDResult:
    """Exact positive-semidefiniteness by Hermitian congruence reduction;
    a failing certificate carries a vector v with v* a v < 0."""
    a = la.mat(a)
    n = len(a)
    if a != la.adjoint(a):
        raise ValueError("matrix is not Hermitian")

    work = [list(row) for row in a]
    # columns of trans are the congruence vectors: reduced = T* a T
    trans = [list(row) for row in la.eye(n)]

    def column(j):
        return tuple(trans[i][j] for i in range(n))

    active = list(range(n))
    while active:
        piv = next((j for j in active if work[j][j]), None)
        if piv is None:
            # zero diagonal: any off-diagonal entry certifies indefiniteness
            for p in active:
                for q in active:
                    if q > p and work[p][q]:
                        alpha = -work[p][q]
                        v = tuple(alpha * trans[i][p] + trans[i][q]
                                  for i in range(n))
                        val = -GQ(2) * GQ(alpha.norm2())
                        return PSDResult(False, v, val)
            return PSDResult(True)
        d = work[piv][piv]
        if d.re < 0:
            return PSDResult(False, column(piv), d)
        active.remove(piv)
        for k in active:
            f = work[piv][k] / d
            if not f:
                continue
            # column op: col_k -= f col_piv, and the matching row op
            for i in range(n):
                trans[i][k] = trans[i][k] - f * trans[i][piv]
            for i in range(n):
                work[i][k] = work[i][k] - f * work[i][piv]
            fc = f.conj()
            for jcol in range(n):
                work[k][jcol] = work[k][jcol] - fc * work[piv][jcol]
    return PSDResult(True)


def random_rank_one_projection(n: int, rng: random.Random):
    while True:
        v = tuple(GQ(rng.randint(-3, 3), Fraction(rng.randint(-3, 3)))
                  for _ in range(n))
        norm = la.inner(v, v)
        if norm:
            break
    outer = tuple(tuple(v[i] * v[j].conj() for j in range(n))
                  for i in range(n))
    return la.scale(ONE / norm, outer)
