"""The GQ versions of the algebra job path, kept to check the
Gaussian-integer ones against: the orthogonal projector, the conditional
expectation through the inverse Gram matrix of the GQ basis, the invariant
closure under GQ matrices, membership by linalg.in_rowspace and the
congruence reduction with GQ pivots.  The bodies are those of the previous
matrixalg and Subspace; only the cached Gram inverse is a function here.
random_rank_one_projection is the GQ outer product that the algebra
workload's inputs were first drawn with; the Gaussian-integer one must
draw the same matrices from the same random state.

exists_alg, check_exists_equals_range_of_expectation and
check_commuting_square are the previous matrixalg bodies, which compare
projection matrices where matrixalg compares their canonical ranges; the
projector and the expectation they call are the GQ ones of this module.
check_commuting_square compares E_M E_N and E_N E_M on the GQ basis of L,
where matrixalg compares integer projector products on its span rows, and
draws its samples by random_projection_in, the support of a random element
of L, unless another draw is given; least_projection_above_rank_one is
the draw of matrixalg.  PSDResult keeps the value v* a v of a failing
certificate, from GQ.norm2 as norm2 here, and zeros and add are the GQ
matrix helpers that random_projection_in and the projector were written
with.

_exists_range is the previous matrixalg._exists_range: one product step
under the commutant for every subspace, where matrixalg decides a full or
hyperplane subspace with no elimination; both must give the same range."""

import random
from dataclasses import dataclass
from fractions import Fraction

from omlkit import linalg as la
from omlkit.gq import GQ, ONE, ZERO
from omlkit.matrixalg import (CommutingSquareReport, StarAlgebra,
                              _flat, _products, algebra_intersection,
                              commutant, range_space)
from omlkit.subspaces import Subspace, _from_echelon


def zeros(m: int, n: int):
    return tuple(tuple(ZERO for _ in range(n)) for _ in range(m))


def add(a, b):
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def norm2(x: GQ) -> Fraction:
    """Squared modulus; a nonnegative rational."""
    return x.re * x.re + x.im * x.im


@dataclass
class PSDResult:
    is_psd: bool
    witness: tuple | None = None  # vector v with (v* a v) negative
    value: GQ | None = None

    def __bool__(self):
        return self.is_psd


def contains(sub: Subspace, v) -> bool:
    return la.in_rowspace(sub.basis, v)


def projector_onto(sub: Subspace):
    """Orthogonal projection with the given range: B (B*B)^{-1} B* for a
    column basis B."""
    n = sub.dim
    if sub.rank == 0:
        return zeros(n, n)
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
                        val = -GQ(2) * GQ(norm2(alpha))
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


def range_projection(x):
    return projector_onto(range_space(x))


def exists_alg(N: StarAlgebra, p) -> tuple:
    """Projection onto the smallest commutant(N)-invariant subspace
    containing the range of p; the quantifier induced by N on projections.

    That subspace is N' range(p), spanned by the g v for g in the span rows
    of N' and v in the rows of range(p), in one product step: it holds
    range(p) because I is in N', it is N'-invariant because h g is in N'
    for h, g in N', and every N'-invariant subspace holding range(p) holds
    each g v."""
    _flat(N.n, p)  # raises ValueError unless p is n x n
    return projector_onto(_from_echelon(N.n, la.echelon(
        _products(commutant(N).span.rows, range_space(p).rows, N.n))))


def check_exists_equals_range_of_expectation(N: StarAlgebra, p) -> bool:
    """Three independently computed projections must coincide: the
    quantifier of N at p, the support (range projection) of E_N(p), and
    the quantifier of N at that support."""
    ex = exists_alg(N, p)
    supp = range_projection(conditional_expectation(N, p))
    return ex == supp == exists_alg(N, supp)


def random_projection_in(L: StarAlgebra, rng: random.Random):
    """Support projection of a random PSD element of L; lies in L."""
    x = zeros(L.n, L.n)
    for b in L.basis:
        c = GQ(rng.randint(-2, 2), Fraction(rng.randint(-2, 2)))
        x = add(x, la.scale(c, b))
    return range_projection(la.adjoint(x))  # range(x* x) = range(x*)


def least_projection_above_rank_one(L: StarAlgebra, rng: random.Random):
    """The least projection of L above a random rank-one projection q: the
    projection onto L' range(q), which commutes with L', so lies in L."""
    return exists_alg(L, random_rank_one_projection(L.n, rng))


def check_commuting_square(K: StarAlgebra, M: StarAlgebra, N: StarAlgebra,
                           L: StarAlgebra,
                           rng: random.Random | None = None,
                           samples: int = 20,
                           draw=random_projection_in) -> CommutingSquareReport:
    """For K inside M, N inside L: (a) E_M E_N = E_N E_M on a basis of L,
    hence as linear maps; (b) the induced projection quantifiers commute
    on sampled projections of L; (c) M meets N exactly in K."""
    for low, high in ((K, M), (K, N), (M, L), (N, L)):
        if not low.span.leq(high.span):
            raise ValueError("algebras do not form a square of inclusions")
    EM = lambda x: conditional_expectation(M, x)
    EN = lambda x: conditional_expectation(N, x)
    commute = True
    witness = None
    for u in L.basis:
        if EM(EN(u)) != EN(EM(u)):
            commute = False
            witness = witness or ("expectation_order", u)
    intersect = algebra_intersection(M, N) == K
    if not intersect:
        witness = witness or ("intersection", None)
    quant = True
    if rng is not None:
        for _ in range(samples):
            p = draw(L, rng)
            if exists_alg(M, exists_alg(N, p)) != \
                    exists_alg(N, exists_alg(M, p)):
                quant = False
                witness = witness or ("quantifier_order", p)
                break
    return CommutingSquareReport(commute, intersect, quant, witness)


def _exists_range(N: StarAlgebra, sub: Subspace) -> Subspace:
    """N' sub: the smallest commutant(N)-invariant subspace of C^n holding
    sub, spanned by the g v for g in the span rows of N' and v in the rows
    of sub, in one product step.  It holds sub because I is in N', it is
    N'-invariant because h g is in N' for h, g in N', and every
    N'-invariant subspace holding sub holds each g v."""
    return _from_echelon(N.n, la.echelon(
        _products(commutant(N).span.rows, sub.rows, N.n)))
