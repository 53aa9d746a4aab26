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
from math import gcd, isqrt

from . import linalg as la
from .gq import GQ, ONE, ZERO
from .subspaces import Subspace, _from_echelon, meet as sub_meet


@dataclass(frozen=True)
class StarAlgebra:
    """A unital *-subalgebra of the n x n matrices, held as its span: a
    Subspace of GQ^(n*n), each matrix flattened row by row.  The Subspace
    form is canonical, so equal algebras compare equal.

    The basis matrices and the commutant depend only on the span; each is
    kept on the instance on first use, out of ==, hash and repr.  The span
    keeps its orthogonal projection, which is the conditional expectation."""

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
        return self.span.contains(_flat(self.n, x))

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


def _flat(n: int, x) -> tuple:
    """x flattened row by row, after checking that it is n x n."""
    if len(x) != n or any(len(row) != n for row in x):
        raise ValueError("x is not a %d x %d matrix" % (n, n))
    return la.flatten(x)


def _span(n: int, mats) -> Subspace:
    return Subspace(n * n, [_flat(n, m) for m in mats])


def build_algebra(n: int, generators) -> StarAlgebra:
    """Smallest unital *-algebra containing the generators: the least
    subspace of M_n that holds the identity and is invariant under left
    multiplication by the span rows of the generators and their adjoints."""
    gens = [la.mat(g) for g in generators]
    rows = _span(n, gens + [la.adjoint(g) for g in gens]).rows
    return StarAlgebra(n, invariant_closure(rows, scalar_algebra(n).span))


def commutant(A: StarAlgebra) -> StarAlgebra:
    """All matrices commuting with every element of A; kept on A."""
    return A._commutant


def is_double_commutant_closed(A: StarAlgebra) -> bool:
    return commutant(commutant(A)) == A


# ---------------------------------------------------------------------------
# projections


def projector_onto(sub: Subspace):
    """Orthogonal projection with the given range: B (B*B)^{-1} B* for a
    column basis B, kept on sub as an integer matrix over an integer."""
    M, L = sub._projector
    return tuple(la.gq_vector(m, L) for m in M)


def range_space(x) -> Subspace:
    """Column space of x."""
    n = len(x)
    return Subspace.from_vectors(n, la.transpose(x))


def range_projection(x):
    return projector_onto(range_space(x))


def is_projection(p) -> bool:
    return p == la.adjoint(p) and la.matmul(p, p) == p


def _products(mats, rows, dim: int) -> list:
    """g X for each n x n matrix g in mats and each row of length dim, read
    as an n x m matrix X with m = dim // n; matrices and products are
    flattened row by row as Gaussian-integer rows (re, im).  Entry (i, j)
    is int_dot of row i of g with column j of X: n^2 m multiply-adds per
    product, where the nm x nm matrix g (x) 1 would take (nm)^2."""
    n = isqrt(len(mats[0][0])) if mats else 1
    m = dim // n
    gs = [[(re[i:i + n], im[i:i + n]) for i in range(0, n * n, n)]
          for re, im in mats]
    xs = [[(re[j::m], im[j::m]) for j in range(m)] for re, im in rows]
    out = []
    for g in gs:
        for cols in xs:
            dots = [la.int_dot(r, c) for r in g for c in cols]
            out.append(([x for x, _ in dots], [y for _, y in dots]))
    return out


def invariant_closure(mats, sub: Subspace) -> Subspace:
    """Smallest subspace containing sub and invariant under each n x n
    matrix g, given flattened row by row as Gaussian-integer rows (re, im)
    such as the span rows of an algebra: a multiple of a matrix has the
    same invariant subspaces.  A vector of sub is read as an n x m matrix X
    flattened row by row, m = sub.dim // n, on which g acts as g X: g v on
    C^n (m = 1), left multiplication on M_n (m = n)."""
    current = sub
    while True:
        grown = _from_echelon(sub.dim, la.echelon(
            list(current.rows) + _products(mats, current.rows, sub.dim)))
        if grown.rank == current.rank:
            return grown
        current = grown


def _exists_range(N: StarAlgebra, sub: Subspace) -> Subspace:
    """N' sub: the smallest commutant(N)-invariant subspace of C^n holding
    sub, spanned by the g v for g in the span rows of N' and v in the rows
    of sub, in one product step.  It holds sub because I is in N', it is
    N'-invariant because h g is in N' for h, g in N', and every
    N'-invariant subspace holding sub holds each g v."""
    return _from_echelon(N.n, la.echelon(
        _products(commutant(N).span.rows, sub.rows, N.n)))


def exists_alg(N: StarAlgebra, p) -> tuple:
    """Projection onto N' range(p), the smallest commutant(N)-invariant
    subspace containing the range of p; the quantifier induced by N on
    projections."""
    _flat(N.n, p)  # raises ValueError unless p is n x n
    return projector_onto(_exists_range(N, range_space(p)))


# ---------------------------------------------------------------------------
# trace-preserving conditional expectation


def conditional_expectation(N: StarAlgebra, x) -> tuple:
    """The trace-orthogonal projection of x onto N: the unique n in N with
    tr(b* n) = tr(b* x) for every b in N.  tr(b* x) is the Hermitian inner
    product of the flattened matrices, so this is the orthogonal projection
    of the flattened x onto the span, kept on the span."""
    return la.unflatten(N.span.project(_flat(N.n, x)), N.n, N.n)


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
    a failing certificate carries a vector v with v* a v < 0.

    It runs on Gaussian integers, W = T* (den a) T with den the lcm of the
    denominators: pivot d = W[piv][piv] sets col_k <- d col_k - f col_piv,
    f = W[piv][k], in W and T, and the matching row step, read off column k
    as W stays Hermitian; the content g of T's column k is then divided out
    of it and of W's row and column k (the diagonal by g^2).  T's columns
    stay positive multiples of those over Q[i], whose own entry is 1, so
    pivots, witness and value are the same as over Q[i]."""
    n = len(a)
    den, re, im = la._den_row(_flat(n, a))
    if any(re[i * n + j] != re[j * n + i] or im[i * n + j] != -im[j * n + i]
           for i in range(n) for j in range(i + 1)):
        raise ValueError("matrix is not Hermitian")
    # column k: W[i][k] at i, then T[i][k] at n + i; T starts as I
    cr = [list(re[k::n]) + [int(i == k) for i in range(n)] for k in range(n)]
    ci = [list(im[k::n]) + [0] * n for k in range(n)]

    def column(k):
        return la.gq_vector((cr[k][n:], ci[k][n:]), cr[k][n + k])

    active = list(range(n))
    while active:
        piv = next((j for j in active if cr[j][j]), None)
        if piv is None:
            # zero diagonal: any off-diagonal entry certifies indefiniteness
            for p in active:
                for q in active:
                    if q > p and (cr[q][p] or ci[q][p]):
                        s = den * cr[p][n + p] * cr[q][n + q]
                        alpha = GQ(Fraction(-cr[q][p], s),
                                   Fraction(-ci[q][p], s))
                        v = tuple(alpha * x + y
                                  for x, y in zip(column(p), column(q)))
                        return PSDResult(False, v,
                                         -GQ(2) * GQ(alpha.norm2()))
            return PSDResult(True)
        d = cr[piv][piv]
        if d < 0:
            return PSDResult(False, column(piv),
                             GQ(Fraction(d, den * cr[piv][n + piv] ** 2)))
        active.remove(piv)
        for k in active:
            fr, fi = cr[k][piv], ci[k][piv]
            if fr or fi:
                yr, yi = cr[piv], ci[piv]
                xr = [d * x - fr * u + fi * v
                      for x, u, v in zip(cr[k], yr, yi)]
                xi = [d * x - fr * v - fi * u
                      for x, u, v in zip(ci[k], yr, yi)]
                g = gcd(*xr[n:], *xi[n:])
                xr[k] = d * xr[k] // g  # the row step scales W[k][k] by d
                cr[k] = [x // g for x in xr]
                ci[k] = [x // g for x in xi]
                for j in range(n):
                    if j != k:
                        cr[j][k], ci[j][k] = cr[k][j], -ci[k][j]
    return PSDResult(True)


def check_pimsner_popa(N: StarAlgebra, p, lam) -> PSDResult:
    """Whether E_N(p) - lam * p is positive semidefinite, exactly."""
    lam = lam if isinstance(lam, GQ) else GQ(lam)
    gap = la.sub(conditional_expectation(N, p), la.scale(lam, la.mat(p)))
    return psd_certificate(gap)


def check_exists_equals_range_of_expectation(N: StarAlgebra, p) -> bool:
    """Three independently computed projections must coincide: the
    quantifier of N at p, the support (range projection) of E_N(p), and
    the quantifier of N at that support.  Projections are equal exactly
    when their ranges are, so the canonical ranges are compared; E_N(p)
    is read as its integer multiple M (den p), (M, L) the span's projector."""
    n = N.n
    _, re, im = la._den_row(_flat(n, p))
    e_re, e_im = la.int_matvec(N.span._projector[0], (re, im))
    supp = _from_echelon(n, la.echelon(
        [(e_re[j::n], e_im[j::n]) for j in range(n)]))
    return _exists_range(N, range_space(p)) == supp == _exists_range(N, supp)


# ---------------------------------------------------------------------------
# commuting squares


@dataclass
class CommutingSquareReport:
    expectations_commute: bool
    intersection_is_corner: bool
    quantifiers_commute: bool | None  # None: no projection was sampled
    witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return (self.expectations_commute
                and self.intersection_is_corner
                and self.quantifiers_commute is True)


def algebra_intersection(A: StarAlgebra, B: StarAlgebra) -> StarAlgebra:
    """The meet of the spans of A and B, as an algebra."""
    return StarAlgebra(A.n, sub_meet(A.span, B.span))


def random_rank_one_projection(n: int, rng: random.Random):
    while True:
        v = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
        norm = sum(a * a + b * b for a, b in v)
        if norm:
            break
    # v v* / |v|^2, row i from v_i conj(v_j) = (a + bi)(c - di)
    return tuple(la.gq_vector(([a * c + b * d for c, d in v],
                               [b * c - a * d for c, d in v]), norm)
                 for a, b in v)


def random_projection_in(L: StarAlgebra, rng: random.Random):
    """Support projection of a random PSD element of L; lies in L."""
    x = la.zeros(L.n, L.n)
    for b in L.basis:
        c = GQ(rng.randint(-2, 2), Fraction(rng.randint(-2, 2)))
        x = la.add(x, la.scale(c, b))
    return range_projection(la.adjoint(x))  # range(x* x) = range(x*)


def check_commuting_square(K: StarAlgebra, M: StarAlgebra, N: StarAlgebra,
                           L: StarAlgebra,
                           rng: random.Random | None = None,
                           samples: int = 20) -> CommutingSquareReport:
    """For K inside M, N inside L: (a) E_M E_N = E_N E_M on a basis of L,
    hence as linear maps; (b) the induced projection quantifiers commute
    on sampled projections of L, compared by their ranges, or None with
    no sample drawn; (c) M meets N exactly in K."""
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
    quant = None
    if rng is not None:
        for _ in range(samples):
            p = random_projection_in(L, rng)
            r = range_space(p)
            quant = _exists_range(M, _exists_range(N, r)) == \
                _exists_range(N, _exists_range(M, r))
            if not quant:
                witness = witness or ("quantifier_order", p)
                break
    return CommutingSquareReport(commute, intersect, quant, witness)


# ---------------------------------------------------------------------------
# projection lattice quantifier instance


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
