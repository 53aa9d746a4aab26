"""Subspace lattices of tensor powers over the Gaussian rationals.

A subspace is stored as the canonical Gaussian-integer echelon form of
linalg.echelon: primitive integer rows with positive real pivots.  The form
is unique, so every lattice identity in this module is decided by exact
equality of integer rows.  join, ortho and the factor quantifiers work on
these rows alone; the GQ basis in reduced echelon form is built only when
a caller reads it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import permutations, product
from math import lcm, prod

from . import linalg as la
from .gq import GQ, ONE, ZERO
from .lattice import FiniteOL, SizeGuardError, close
from .cylindric import CylindricStructure
from .quantifiers import UnaryMap

MAX_AMBIENT_DIM = 256


@dataclass(frozen=True, eq=False, init=False)
class Subspace:
    """A subspace of GQ^dim, held as the canonical echelon rows and pivots
    of linalg.echelon, so equality of Subspace values is equality of
    subspaces.  Subspace(dim, vectors) is the span of GQ, int or Fraction
    vectors of length dim (ValueError otherwise); basis is the same space
    as GQ rows in reduced echelon form."""

    dim: int
    rows: tuple
    pivots: tuple
    # orthocomplement, filled in by ortho(); a plain class attribute, not a
    # field, so it stays out of ==, hash and repr
    _ortho = None

    def __init__(self, dim: int, vectors):
        _fill(self, dim, *la.echelon([la.int_row(_check_length(dim, v))
                                      for v in vectors]))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __hash__(self):
        return self._hash

    @cached_property
    def basis(self) -> tuple:
        return la.gq_rows(self.rows, self.pivots)

    @staticmethod
    def from_vectors(dim: int, vectors) -> "Subspace":
        return Subspace(dim, vectors)

    @staticmethod
    def zero(dim: int) -> "Subspace":
        return _bounds(dim)[0]

    @staticmethod
    def full(dim: int) -> "Subspace":
        return _bounds(dim)[1]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return self._spans(la.int_row(_check_length(self.dim, v)))

    def leq(self, other: "Subspace") -> bool:
        _check_dims(self, other)
        return _below(self, other)

    def _spans(self, w) -> bool:
        """Whether the Gaussian-integer row w = (re, im) lies in this
        subspace: each row, p at its pivot c, clears c by w <- p w - w[c] row
        and leaves the other pivots alone, so w lies in it iff it ends zero."""
        w_re, w_im = w
        for (a, b), c in zip(self.rows, self.pivots):
            p, f, g = a[c], w_re[c], w_im[c]
            if f or g:
                w_re = [p * x - f * u + g * v for x, u, v in zip(w_re, a, b)]
                w_im = [p * y - f * v - g * u for y, u, v in zip(w_im, a, b)]
        return not any(w_re) and not any(w_im)

    def project(self, v) -> tuple:
        """The orthogonal projection of v onto this subspace, as GQ."""
        den, re, im = la._den_row(_check_length(self.dim, v))
        M, L = self._projector
        return la.gq_vector(la.int_matvec(M, (re, im)), L * den)

    @cached_property
    def _projector(self) -> tuple:
        """(M, L): the orthogonal projection onto this subspace is M / L,
        M a Gaussian-integer matrix of rows (re, im).  On a hyperplane with
        normal w = ortho(self), M = |w|^2 I - w w* and L = |w|^2.  Else
        M[a][b] is C_a . H conj(C_b) for the columns C of the rows R, with
        H / L the inverse of the Gram matrix G[j][l] = conj(R_j) . R_l from
        one echelon form of [G | I].  Kept like basis, out of ==."""
        k, rows = self.rank, self.rows
        if k == self.dim - 1 > 0:
            w = list(zip(*ortho(self).rows[0]))
            L = sum(x * x + y * y for x, y in w)
            return tuple(([L * (a == b) - x * u - y * v
                           for b, (u, v) in enumerate(w)],
                          [x * v - y * u for u, v in w])
                         for a, (x, y) in enumerate(w)), L
        gram = [la.int_matvec(rows, (a, [-y for y in b])) for a, b in rows]
        red, _ = la.echelon([(re + [int(i == j) for j in range(k)],
                              im + [0] * k)
                             for i, (re, im) in enumerate(gram)])
        L = lcm(*(a[j] for j, (a, _) in enumerate(red)))
        H = [([L // a[j] * x for x in a[k:]], [L // a[j] * y for y in b[k:]])
             for j, (a, b) in enumerate(red)]
        cols = [([a[i] for a, _ in rows], [b[i] for _, b in rows])
                for i in range(self.dim)]
        hc = [la.int_matvec(H, (a, [-y for y in b])) for a, b in cols]
        return tuple(la.int_matvec(hc, c) for c in cols), L


def _check_length(dim: int, v) -> tuple:
    v = tuple(v)
    if len(v) != dim:
        raise ValueError("vector length %d != ambient %d" % (len(v), dim))
    return v


def _from_echelon(dim: int, echelon_form) -> Subspace:
    """The Subspace with the given canonical (rows, pivots), taken as they
    are, without elimination."""
    return _fill(object.__new__(Subspace), dim, *echelon_form)


def _fill(s: Subspace, dim: int, rows, pivots) -> Subspace:
    # the hash is kept at construction, out of == and repr like basis:
    # closures hash each held subspace once per lookup
    s.__dict__.update(dim=dim, rows=rows, pivots=pivots,
                      _hash=hash((dim, rows)))
    return s


@lru_cache(maxsize=64)
def _bounds(dim: int) -> tuple:
    """The zero and the full subspace of GQ^dim, one object each per
    dimension, linked as each other's orthocomplement so that neither is
    ever computed."""
    zeros = (0,) * dim
    rows = tuple((zeros[:i] + (1,) + zeros[i + 1:], zeros)
                 for i in range(dim))
    zero = _from_echelon(dim, ((), ()))
    full = _from_echelon(dim, (rows, tuple(range(dim))))
    object.__setattr__(zero, "_ortho", full)
    object.__setattr__(full, "_ortho", zero)
    return zero, full


def _check_dims(a: Subspace, b: Subspace):
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch: %d vs %d"
                         % (a.dim, b.dim))


def _below(a: Subspace, b: Subspace) -> bool:
    """Whether a <= b.  The leading column of a vector of a is one of b's,
    so the pivots of a must be pivots of b.  Then, with ortho(b) linked,
    a <= b iff every row of a is orthogonal to every row of ortho(b); else
    each row of a is reduced against b by _spans."""
    if not set(a.pivots).issubset(b.pivots):
        return False
    c = b._ortho
    if c is None:
        return all(b._spans(row) for row in a.rows)
    return all(la.int_orthogonal(u, x) for x in c.rows for u in a.rows)


def ortho(a: Subspace) -> Subspace:
    """Orthogonal complement under the Hermitian inner product.

    The form is positive definite over Q[i], so ortho is an involution: the
    result is cached on both subspaces, each pointing at the other."""
    b = a._ortho
    if b is None:
        # the kernel of the conjugate rows, which are canonical as they
        # stand because every pivot is real
        conj = [(re, tuple(-y for y in im)) for re, im in a.rows]
        b = _from_echelon(a.dim, la.kernel(conj, a.pivots, a.dim))
        object.__setattr__(a, "_ortho", b)
        object.__setattr__(b, "_ortho", a)
    return b


def join(a: Subspace, b: Subspace) -> Subspace:
    _check_dims(a, b)
    if a.rows == b.rows:
        return a
    if b is a._ortho:
        return Subspace.full(a.dim)
    # decided by the order where it can be: lo <= hi gives hi (so a zero lo
    # or a full hi), and a hyperplane hi not above lo gives the full space.
    # Equal ranks with different rows are never comparable
    lo, hi = (a, b) if a.rank <= b.rank else (b, a)
    if lo.rank < hi.rank and _below(lo, hi):
        return hi
    if hi.rank == a.dim - 1:
        return Subspace.full(a.dim)
    return _from_echelon(a.dim, la.echelon(a.rows + b.rows))


def meet(a: Subspace, b: Subspace) -> Subspace:
    _check_dims(a, b)
    return ortho(join(ortho(a), ortho(b)))


# ---------------------------------------------------------------------------
# tensor layouts


@dataclass(frozen=True)
class TensorLayout:
    """Row-major indexing of a tensor product of factors of the given
    dimensions: coordinate of (i_1,..,i_n) is sum of i_k * stride_k."""

    factor_dims: tuple

    def __post_init__(self):
        if not self.factor_dims or any(d < 1 for d in self.factor_dims):
            raise ValueError("factor dimensions must be positive")
        if self.dim > MAX_AMBIENT_DIM:
            raise SizeGuardError("ambient dimension %d exceeds guard %d"
                                 % (self.dim, MAX_AMBIENT_DIM))

    @property
    def n(self) -> int:
        return len(self.factor_dims)

    @property
    def dim(self) -> int:
        return prod(self.factor_dims)

    def strides(self):
        s = [1] * self.n
        for k in range(self.n - 2, -1, -1):
            s[k] = s[k + 1] * self.factor_dims[k + 1]
        return tuple(s)

    def index(self, idx) -> int:
        return sum(i * s for i, s in zip(idx, self.strides()))

    def tuples(self):
        return product(*(range(d) for d in self.factor_dims))


def _factor_set(layout: TensorLayout, factors) -> frozenset:
    """factors, an int or a collection of ints, as a frozenset.  Raises
    ValueError unless every factor is an int in range(layout.n)."""
    if isinstance(factors, int):
        factors = (factors,)
    if not all(type(f) is int and 0 <= f < layout.n for f in factors):
        raise ValueError("factors must be ints in range(%d), got %r"
                         % (layout.n, factors))
    return frozenset(factors)


def _slices(layout: TensorLayout, factors) -> tuple:
    """The flat coordinates of the slices along `factors`: one tuple for
    each standard basis tuple ft of those factors, in product order, giving
    the coordinate of (ft, rt) for each tuple rt of the other factors, in
    product order and so increasing.  Kept per layout and factor set."""
    return _slice_table(layout, _factor_set(layout, factors))


@lru_cache(maxsize=64)
def _slice_table(layout: TensorLayout, fs: frozenset) -> tuple:
    strides = layout.strides()

    def offsets(ks):
        return [sum(i * strides[k] for k, i in zip(ks, t))
                for t in product(*(range(layout.factor_dims[k]) for k in ks))]

    rest = offsets([k for k in range(layout.n) if k not in fs])
    return tuple(tuple(f + r for r in rest) for f in offsets(sorted(fs)))


def component_span(layout: TensorLayout, factors, s: Subspace) -> Subspace:
    """Span of the slice components of a basis of s along the standard
    basis of the factors in `factors`; lives in the complementary space."""
    if s.dim != layout.dim:
        raise ValueError("subspace does not live in this layout")
    return _span(_slices(layout, factors), s)


def _span(slices, s: Subspace) -> Subspace:
    comps = [(tuple(re[k] for k in sl), tuple(im[k] for k in sl))
             for re, im in s.rows for sl in slices]
    return _from_echelon(len(slices[0]), la.echelon(comps))


def embed_alpha(layout: TensorLayout, factors, b: Subspace) -> Subspace:
    """The full space on `factors` tensored with b, placed per layout."""
    slices = _slices(layout, factors)
    if b.dim != len(slices[0]):
        raise ValueError("subspace does not live in the complementary space")
    return _embed(layout, slices, b)


def _embed(layout: TensorLayout, slices, b: Subspace) -> Subspace:
    """Each row of b placed in each slice: the slices have disjoint supports
    and increasing coordinates, so once sorted by pivot these rows are
    already the canonical echelon form, and no elimination is needed."""
    placed = []
    for sl in slices:
        for (re, im), c in zip(b.rows, b.pivots):
            a, d = [0] * layout.dim, [0] * layout.dim
            for k, x, y in zip(sl, re, im):
                a[k], d[k] = x, y
            placed.append((sl[c], (tuple(a), tuple(d))))
    placed.sort()
    return _from_echelon(layout.dim, (tuple(row for _, row in placed),
                                      tuple(c for c, _ in placed)))


# A prime P = 1 (mod 4) and a square root I_P of -1 mod P.  a + b i maps
# to a + b I_P mod P, a ring map from the Gaussian integers onto GF(P), so
# a nonzero minor mod P is a nonzero minor over Q(i): a rank mod P is at
# most the rank over Q(i)
P, I_P = 998244353, 911660635


def _full_mod_p(slices, rows) -> bool:
    """Whether the slice components of rows span the whole slice space,
    certified by their rank mod P; False says nothing."""
    m = len(slices[0])
    basis = {}  # pivot column -> reduced row mod P, 1 at its pivot
    for re, im in rows:
        v = [(x + I_P * y) % P for x, y in zip(re, im)]
        for sl in slices:
            w = [v[k] for k in sl]
            # each row is 0 at the pivots found before it, so reducing in
            # insertion order clears every pivot
            for c, b in basis.items():
                f = w[c]
                if f:
                    w = [(x - f * y) % P for x, y in zip(w, b)]
            c = next((c for c, x in enumerate(w) if x), None)
            if c is not None:
                inv = pow(w[c], -1, P)
                basis[c] = [x * inv % P for x in w]
                if len(basis) == m:
                    return True
    return False


def exists_factor(layout: TensorLayout, factors, s: Subspace) -> Subspace:
    """Least subspace of the form (full on factors) x T above s.

    (full on factors) x T has rank d * rank T, d the dimension on
    `factors`, so rank T >= ceil(rank s / d): when d times that bound is the
    whole dimension, the answer is the full space without elimination.  So
    it is when the components of s span the slice space mod P; any other
    case eliminates over Q(i)."""
    slices = _slices(layout, factors)
    if s.dim != layout.dim:
        raise ValueError("subspace does not live in this layout")
    d = len(slices)
    if s.rank in (0, s.dim):
        return s
    if -(-s.rank // d) * d == s.dim or _full_mod_p(slices, s.rows):
        return Subspace.full(s.dim)
    b = _span(slices, s)
    if b.rank == b.dim:
        return Subspace.full(layout.dim)
    return _embed(layout, slices, b)


def forall_factor(layout: TensorLayout, factors, s: Subspace) -> Subspace:
    """Greatest subspace of the form (full on factors) x T below s."""
    return ortho(exists_factor(layout, factors, ortho(s)))


def check_commutation(layout: TensorLayout, i: int, j: int, s: Subspace) -> bool:
    """Iterated one-factor quantifiers in both orders against the grouped
    two-factor quantifier; three independent computations."""
    if i == j:
        raise ValueError("factors must differ")
    a = exists_factor(layout, i, exists_factor(layout, j, s))
    b = exists_factor(layout, j, exists_factor(layout, i, s))
    c = exists_factor(layout, (i, j), s)
    return a == b == c


# ---------------------------------------------------------------------------
# diagonals


def diagonal(layout: TensorLayout, factors) -> Subspace:
    """Subspace of tensors whose coordinates are invariant under permuting
    the positions in `factors` (all of equal dimension).  One object per
    layout and factor set."""
    fs = _factor_set(layout, factors)
    if len({layout.factor_dims[k] for k in fs}) != 1:
        raise ValueError("diagonal factors must have equal dimensions")
    return _diagonal(layout, fs)


@lru_cache(maxsize=64)
def _diagonal(layout: TensorLayout, fs: frozenset) -> Subspace:
    if len(fs) <= 1:
        return Subspace.full(layout.dim)
    # an orbit under permuting the positions in fs is the set of tuples
    # with the same sorted values there and the same values elsewhere; the
    # tuples come in row-major order, so tuple k has coordinate k
    fs = sorted(fs)
    rest = [k for k in range(layout.n) if k not in fs]
    orbits = {}
    for k, idx in enumerate(layout.tuples()):
        key = (tuple(sorted(idx[f] for f in fs)), tuple(idx[f] for f in rest))
        orbits.setdefault(key, [0] * layout.dim)[k] = 1
    zeros = (0,) * layout.dim
    return _from_echelon(layout.dim,
                         la.echelon([(v, zeros) for v in orbits.values()]))


def check_diagonal_composition(layout: TensorLayout, i: int, j: int, k: int) -> bool:
    """d_ik == exists_j(d_ij ^ d_jk), exact."""
    if j in (i, k):
        raise ValueError("middle index must differ from the endpoints")
    lhs = exists_factor(layout, j,
                        meet(diagonal(layout, (i, j)), diagonal(layout, (j, k))))
    return lhs == diagonal(layout, (i, k))


@dataclass
class C5WitnessRecord:
    layout: TensorLayout
    s: Subspace
    term_pos: Subspace   # exists_1(d ^ s)
    term_neg: Subspace   # exists_1(d ^ s-ortho)
    meet_of_terms: Subspace
    contained_line: Subspace  # (full) x <e_0>, inside the meet


def c5_counterexample(dim: int) -> C5WitnessRecord:
    """At n=2 and factor dimension >= 3 the two C5 terms for the line
    spanned by e0 (x) e1 + e1 (x) e0 share a subspace of rank >= dim."""
    if dim < 3:
        raise ValueError("needs three distinct basis indices (dim >= 3)")
    layout = TensorLayout((dim, dim))
    v = [ZERO] * layout.dim
    v[layout.index((0, 1))] = ONE
    v[layout.index((1, 0))] = ONE
    s = Subspace.from_vectors(layout.dim, [tuple(v)])
    d = diagonal(layout, (0, 1))
    pos = exists_factor(layout, 0, meet(d, s))
    neg = exists_factor(layout, 0, meet(d, ortho(s)))
    both = meet(pos, neg)
    e0 = Subspace.from_vectors(dim, [tuple(ONE if t == 0 else ZERO
                                           for t in range(dim))])
    line = embed_alpha(layout, 0, e0)
    return C5WitnessRecord(layout, s, pos, neg, both, line)


# ---------------------------------------------------------------------------
# random generation and basis changes


def random_subspace(dim: int, rng: random.Random, max_entry: int = 3) -> Subspace:
    rows = rng.randrange(0, dim + 1)
    vecs = [[GQ(rng.randint(-max_entry, max_entry)) for _ in range(dim)]
            for _ in range(rows)]
    return Subspace.from_vectors(dim, vecs)


def apply_factor_map(layout: TensorLayout, factor: int, u, s: Subspace) -> Subspace:
    """Act by (1 (x) .. (x) u (x) .. (x) 1) on a subspace."""
    # slice k holds the coordinates of e_k (x) e_rt, so each column of the
    # slices is one copy of the factor
    columns = list(zip(*_slices(layout, factor)))
    vecs = []
    for v in s.basis:
        w = [ZERO] * layout.dim
        for col in columns:
            for k, x in zip(col, la.matvec(u, tuple(v[k] for k in col))):
                w[k] = x
        vecs.append(tuple(w))
    return Subspace.from_vectors(layout.dim, vecs)


def signed_permutation_unitaries(dim: int):
    """All unitaries with entries in {0, 1, -1} (one per row/column)."""
    for perm in permutations(range(dim)):
        for signs in product((ONE, -ONE), repeat=dim):
            yield tuple(tuple(signs[r] if c == perm[r] else ZERO
                              for c in range(dim)) for r in range(dim))


def hadamard4_over_2():
    h = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    half = GQ(1) / GQ(2)
    return tuple(tuple(half * GQ(x) for x in row) for row in h)


def check_basis_independence(layout: TensorLayout, factor: int, u,
                             s: Subspace) -> bool:
    """Slicing along the columns of u instead of the standard basis must
    give the same component span."""
    via_u = component_span(layout, factor,
                           apply_factor_map(layout, factor, la.adjoint(u), s))
    return via_u == component_span(layout, factor, s)


# ---------------------------------------------------------------------------
# finite closures as cylindric structures


def as_cylindric_structure(layout: TensorLayout, generators,
                           max_closure: int = 128):
    """Close generators and all diagonals under join, ortho and every
    one-factor quantifier; package the finite sub-ortholattice for the
    cylindric axiom checkers.  A set closed under join and ortho is closed
    under meet = ortho(join(ortho a, ortho b)), so the meet table is read
    off the other two by De Morgan.

    Returns (structure, subspace_list); element i of the lattice is
    subspace_list[i].
    """
    dims = tuple(range(layout.n))
    zero, full = Subspace.zero(layout.dim), Subspace.full(layout.dim)
    diagonals = {(i, j): diagonal(layout, (i, j)) for i in dims for j in dims}
    start = [zero, full, *diagonals.values(), *generators]
    # the ops are looked up on each call, so wrappers put on this module's
    # ortho, join or exists_factor see every call the closure makes
    closure, (ortho_memo, *exists_memo, join_memo) = close(
        start, [ortho] + [partial(exists_factor, layout, f) for f in dims],
        [join], limit=max_closure, what="subspaces")

    # ordered by rank, then by the entries of the reduced echelon basis;
    # D times those entries are integers in the same order, D the lcm of
    # every pivot, so no GQ basis is built only to be compared
    D = lcm(*(re[c] for s in closure for (re, _), c in zip(s.rows, s.pivots)))

    def key(k):
        s = closure[k]
        return s.rank, tuple((m * x, m * y)
                             for (re, im), c in zip(s.rows, s.pivots)
                             for m in (D // re[c],) for x, y in zip(re, im))

    perm = sorted(range(len(closure)), key=key)
    new_of_old = {old: new for new, old in enumerate(perm)}

    ordered = [closure[k] for k in perm]
    labels = tuple("S%d(r%d)" % (k, s.rank) for k, s in enumerate(ordered))
    join_t = tuple(tuple(new_of_old[join_memo[(min(a, b), max(a, b))]]
                         for b in perm) for a in perm)
    ortho_t = tuple(new_of_old[ortho_memo[a]] for a in perm)
    meet_t = tuple(tuple(ortho_t[join_t[ortho_t[a]][ortho_t[b]]]
                         for b in range(len(perm))) for a in range(len(perm)))
    closure = ordered
    index = {s: k for k, s in enumerate(closure)}
    L = FiniteOL(labels, meet_t, join_t, ortho_t, index[zero], index[full])
    cyl = {i: UnaryMap(L, tuple(new_of_old[exists_memo[i][a]]
                                for a in perm)) for i in dims}
    diag = {ij: index[d] for ij, d in diagonals.items()}
    return CylindricStructure(L, dims, cyl, diag), closure
