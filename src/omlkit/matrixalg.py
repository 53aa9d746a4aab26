"""Finite-dimensional matrix star-algebras over the Gaussian rationals.

Algebras are spans of n x n matrices closed under products and adjoints.
Everything here is exact: commutants, conditional expectations, positivity
certificates and the projection quantifiers they induce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from . import linalg as la
from .gq import GQ, ONE, ZERO
from .subspaces import Subspace, _from_echelon, meet as sub_meet


@dataclass(frozen=True)
class StarAlgebra:
    """A unital *-subalgebra of the n x n matrices, held as its span: a
    Subspace of GQ^(n*n), each matrix flattened row by row.  The Subspace
    form is canonical, so equal algebras compare equal.

    The basis matrices, the inverse Gram matrix and the commutant depend
    only on the span; each is computed on first use and kept on the
    instance.  They are not fields, so they stay out of ==, hash and repr."""

    n: int
    span: Subspace  # of dimension n * n

    def __post_init__(self):
        if self.span.dim != self.n * self.n:
            raise ValueError("span is not in M_%d" % self.n)

    @cached_property
    def basis(self) -> tuple:
        return tuple(la.unflatten(v, self.n, self.n) for v in self.span.basis)

    @property
    def dim(self) -> int:
        return self.span.rank

    def contains(self, x) -> bool:
        return self.span.contains(la.flatten(x))

    @cached_property
    def _gram_inverse(self):
        """Inverse of the Gram matrix tr(b_i* b_j), from Frobenius products
        of the flattened basis."""
        flat = self.span.basis
        return la.inverse(tuple(tuple(la.inner(u, v) for v in flat)
                                for u in flat))

    @cached_property
    def _commutant(self) -> "StarAlgebra":
        """All matrices commuting with every basis element, via one exact
        kernel of the commutator equations on the flattened unknown."""
        n = self.n
        nn = n * n
        eqs = {}
        for re, im in self.span.rows:
            # (xm - mx)[i][j] = sum_k x[i][k] m[k][j] - m[i][k] x[k][j], for m
            # a Gaussian-integer span row.  Only equations where column j or
            # row i of m is non-zero can be non-zero; equal ones are kept once
            cols = {j for j in range(n) if any(re[j::n]) or any(im[j::n])}
            rows = {i for i in range(n)
                    if any(re[i * n:i * n + n]) or any(im[i * n:i * n + n])}
            for i, j in product(range(n), repeat=2):
                if i not in rows and j not in cols:
                    continue
                a, b = [0] * nn, [0] * nn
                for k in range(n):
                    a[i * n + k] += re[k * n + j]
                    b[i * n + k] += im[k * n + j]
                    a[k * n + j] -= re[i * n + k]
                    b[k * n + j] -= im[i * n + k]
                if any(a) or any(b):
                    eqs[tuple(a), tuple(b)] = None
        return StarAlgebra(n, _from_echelon(
            nn, la.kernel(*la.echelon(list(eqs)), nn)))


def _span(n: int, mats) -> Subspace:
    return Subspace(n * n, [la.flatten(m) for m in mats])


def build_algebra(n: int, generators) -> StarAlgebra:
    """Smallest unital *-algebra containing the generators."""
    gens = [la.mat(g) for g in generators]
    current = StarAlgebra(n, _span(n, [la.eye(n)] + gens
                                   + [la.adjoint(g) for g in gens]))
    while True:
        products = [la.matmul(a, b)
                    for a in current.basis for b in current.basis]
        grown = StarAlgebra(n, _span(n, list(current.basis) + products))
        if grown.dim == current.dim:
            return grown
        current = grown


def commutant(A: StarAlgebra) -> StarAlgebra:
    """All matrices commuting with every element of A; kept on A."""
    return A._commutant


def is_double_commutant_closed(A: StarAlgebra) -> bool:
    return commutant(commutant(A)) == A


def center(A: StarAlgebra) -> StarAlgebra:
    """A intersected with its commutant."""
    return algebra_intersection(A, commutant(A))


# ---------------------------------------------------------------------------
# projections


def projector_onto(sub: Subspace):
    """Orthogonal projection with the given range: B (B*B)^{-1} B* for a
    column basis B."""
    n = sub.dim
    if sub.rank == 0:
        return la.zeros(n, n)
    B = la.transpose(sub.basis)
    G = la.matmul(la.adjoint(B), B)
    return la.matmul(la.matmul(B, la.inverse(G)), la.adjoint(B))


def range_space(x) -> Subspace:
    """Column space of x."""
    n = len(x)
    return Subspace.from_vectors(n, la.transpose(x))


def range_projection(x):
    return projector_onto(range_space(x))


def is_projection(p) -> bool:
    return p == la.adjoint(p) and la.matmul(p, p) == p


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


def exists_alg(N: StarAlgebra, p) -> tuple:
    """Projection onto the smallest commutant(N)-invariant subspace
    containing the range of p; the quantifier induced by N on projections."""
    return projector_onto(invariant_closure(commutant(N).basis,
                                            range_space(p)))


def central_carrier(A: StarAlgebra, p) -> tuple:
    """Smallest projection in the center of A above p."""
    mats = list(A.basis) + list(commutant(A).basis)
    return projector_onto(invariant_closure(mats, range_space(p)))


# ---------------------------------------------------------------------------
# trace-preserving conditional expectation


def conditional_expectation(N: StarAlgebra, x) -> tuple:
    """The trace-orthogonal projection of x onto N: the unique n in N with
    tr(b* n) = tr(b* x) for every b in N.  Each tr(b* x) is the Frobenius
    product of the flattened matrices, sum conj(b_ij) x_ij, and n = sum c_k b_k
    is one matvec with the flattened basis as columns."""
    x = la.mat(x)
    if len(x) != N.n or any(len(row) != N.n for row in x):
        raise ValueError("x is not a %d x %d matrix" % (N.n, N.n))
    flat = N.span.basis
    t = tuple(la.inner(b, la.flatten(x)) for b in flat)
    coeffs = la.matvec(N._gram_inverse, t)
    return la.unflatten(la.matvec(la.transpose(flat), coeffs), N.n, N.n)


def check_expectation_properties(N: StarAlgebra, samples) -> bool:
    """E is idempotent onto N, unital, trace preserving and an N-bimodule
    map, verified exactly on the given sample matrices."""
    E = lambda x: conditional_expectation(N, x)
    if E(la.eye(N.n)) != la.eye(N.n):
        return False
    for x in samples:
        ex = E(x)
        if not N.contains(ex):
            return False
        if E(ex) != ex:
            return False
        if la.trace(ex) != la.trace(la.mat(x)):
            return False
        for b in N.basis:
            if E(la.matmul(b, x)) != la.matmul(b, ex):
                return False
            if E(la.matmul(x, b)) != la.matmul(ex, b):
                return False
    return True


# ---------------------------------------------------------------------------
# exact positivity


@dataclass
class PSDResult:
    is_psd: bool
    witness: tuple | None = None  # vector v with (v* a v) negative
    value: GQ | None = None

    def __bool__(self):
        return self.is_psd


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


def check_pimsner_popa(N: StarAlgebra, p, lam) -> PSDResult:
    """Whether E_N(p) - lam * p is positive semidefinite, exactly."""
    lam = lam if isinstance(lam, GQ) else GQ(lam)
    gap = la.sub(conditional_expectation(N, p), la.scale(lam, la.mat(p)))
    return psd_certificate(gap)


def check_exists_equals_range_of_expectation(N: StarAlgebra, p) -> bool:
    """Three independently computed projections must coincide: the
    quantifier of N at p, the support (range projection) of E_N(p), and
    the quantifier of N at that support."""
    ex = exists_alg(N, p)
    supp = range_projection(conditional_expectation(N, p))
    return ex == supp == exists_alg(N, supp)


def range_projection_is_polynomial(x) -> bool:
    """The support projection of a PSD matrix is a constant-free
    polynomial in it; found by one exact linear solve."""
    x = la.mat(x)
    n = len(x)
    powers = []
    cur = x
    for _ in range(n):
        powers.append(la.flatten(cur))
        cur = la.matmul(cur, x)
    target = la.flatten(range_projection(x))
    # solve sum_k c_k x^{k+1} = P(x) for the c_k
    cols = tuple(tuple(p[r] for p in powers) for r in range(n * n))
    return la.solve(cols, target) is not None


# ---------------------------------------------------------------------------
# commuting squares


@dataclass
class CommutingSquareReport:
    expectations_commute: bool
    intersection_is_corner: bool
    quantifiers_commute: bool
    witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return (self.expectations_commute
                and self.intersection_is_corner
                and self.quantifiers_commute)


def algebra_intersection(A: StarAlgebra, B: StarAlgebra) -> StarAlgebra:
    """The meet of the spans of A and B, as an algebra."""
    return StarAlgebra(A.n, sub_meet(A.span, B.span))


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


def random_projection_in(L: StarAlgebra, rng: random.Random):
    """Support projection of a random PSD element of L; lies in L."""
    x = la.zeros(L.n, L.n)
    for b in L.basis:
        c = GQ(rng.randint(-2, 2), Fraction(rng.randint(-2, 2)))
        x = la.add(x, la.scale(c, b))
    return range_projection(la.matmul(la.adjoint(x), x))


def check_commuting_square(K: StarAlgebra, M: StarAlgebra, N: StarAlgebra,
                           L: StarAlgebra,
                           rng: random.Random | None = None,
                           samples: int = 20) -> CommutingSquareReport:
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
            p = random_projection_in(L, rng)
            if exists_alg(M, exists_alg(N, p)) != \
                    exists_alg(N, exists_alg(M, p)):
                quant = False
                witness = witness or ("quantifier_order", p)
                break
    return CommutingSquareReport(commute, intersect, quant, witness)


# ---------------------------------------------------------------------------
# projection lattice quantifier instance


def projection_leq(p, q) -> bool:
    return la.matmul(q, p) == la.mat(p)


def scalar_algebra(n: int) -> StarAlgebra:
    # the flattened identity is already a canonical echelon row
    one = tuple(int(i % (n + 1) == 0) for i in range(n * n))
    return StarAlgebra(n, _from_echelon(n * n, (((one, (0,) * n * n),), (0,))))


def full_matrix_algebra(n: int) -> StarAlgebra:
    return StarAlgebra(n, Subspace.full(n * n))


def diagonal_algebra(n: int) -> StarAlgebra:
    mats = [tuple(tuple(ONE if i == j == k else ZERO for j in range(n))
                  for i in range(n)) for k in range(n)]
    return StarAlgebra(n, _span(n, mats))


@dataclass
class ExpectationGapRecord:
    algebra_dim: int
    checked: int
    gaps: tuple  # projections where the support identity failed


def search_expectation_gap(n: int, rng: random.Random,
                           algebras: int = 5,
                           samples: int = 10):
    """Test the support identity on random unital inclusions in the n x n
    matrices; returns one record per inclusion tried."""
    candidates = [scalar_algebra(n), diagonal_algebra(n)]
    for _ in range(algebras):
        gens = [random_rank_one_projection(n, rng)
                for _ in range(rng.randint(1, 2))]
        candidates.append(build_algebra(n, gens))
    out = []
    for N in candidates:
        gaps = []
        for _ in range(samples):
            p = random_rank_one_projection(n, rng)
            if not check_exists_equals_range_of_expectation(N, p):
                gaps.append(p)
        out.append(ExpectationGapRecord(N.dim, samples, tuple(gaps)))
    return out


def exists_fixed_points_are_commutant_projections(N: StarAlgebra,
                                                  projections) -> bool:
    """E p = p exactly when p lies in the double commutant of N."""
    NN = commutant(commutant(N))
    for p in projections:
        fixed = exists_alg(N, p) == la.mat(p)
        if fixed != NN.contains(p):
            return False
    return True
