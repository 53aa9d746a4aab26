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
from math import comb, prod

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
    vectors; basis is the same space as GQ rows in reduced echelon form."""

    dim: int
    rows: tuple
    pivots: tuple
    # orthocomplement, filled in by ortho(); a plain class attribute, not a
    # field, so it stays out of ==, hash and repr
    _ortho = None

    def __init__(self, dim: int, vectors):
        rows, pivots = la.echelon([la.int_row(v) for v in vectors])
        self.__dict__.update(dim=dim, rows=rows, pivots=pivots)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.dim == other.dim and self.rows == other.rows

    def __hash__(self):
        return hash((self.dim, self.rows))

    @cached_property
    def basis(self) -> tuple:
        return la.gq_rows(self.rows, self.pivots)

    @staticmethod
    def from_vectors(dim: int, vectors) -> "Subspace":
        return Subspace(dim, [_check_length(dim, v) for v in vectors])

    @staticmethod
    def zero(dim: int) -> "Subspace":
        return _from_echelon(dim, ((), ()))

    @staticmethod
    def full(dim: int) -> "Subspace":
        zeros = (0,) * dim
        rows = tuple((zeros[:i] + (1,) + zeros[i + 1:], zeros)
                     for i in range(dim))
        return _from_echelon(dim, (rows, tuple(range(dim))))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        return la.in_rowspace(self.basis, _check_length(self.dim, v))

    def leq(self, other: "Subspace") -> bool:
        _check_dims(self, other)
        return all(other.contains(row) for row in self.basis)


def _check_length(dim: int, v) -> tuple:
    v = tuple(v)
    if len(v) != dim:
        raise ValueError("vector length %d != ambient %d" % (len(v), dim))
    return v


def _from_echelon(dim: int, echelon_form) -> Subspace:
    """The Subspace with the given canonical (rows, pivots), taken as they
    are, without elimination."""
    s = object.__new__(Subspace)
    rows, pivots = echelon_form
    s.__dict__.update(dim=dim, rows=rows, pivots=pivots)
    return s


def _check_dims(a: Subspace, b: Subspace):
    if a.dim != b.dim:
        raise ValueError("ambient dimension mismatch: %d vs %d"
                         % (a.dim, b.dim))


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
    if not b.rows or a.rank == a.dim:
        return a
    if not a.rows or b.rank == b.dim:
        return b
    return _from_echelon(a.dim, la.echelon(a.rows + b.rows))


def meet(a: Subspace, b: Subspace) -> Subspace:
    _check_dims(a, b)
    return ortho(join(ortho(a), ortho(b)))


def tensor_subspace(a: Subspace, b: Subspace) -> Subspace:
    d = a.dim * b.dim
    if d > MAX_AMBIENT_DIM:
        raise SizeGuardError("tensor ambient dimension %d exceeds guard" % d)
    vecs = []
    for ra in a.basis:
        for rb in b.basis:
            vecs.append(tuple(x * y for x in ra for y in rb))
    return Subspace.from_vectors(d, vecs)


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

    def without(self, factors) -> "TensorLayout":
        fs = set(factors)
        rest = tuple(d for k, d in enumerate(self.factor_dims) if k not in fs)
        if not rest:
            rest = (1,)
        return TensorLayout(rest)


def _slices(layout: TensorLayout, factors) -> tuple:
    """The flat coordinates of the slices along `factors`: one tuple for
    each standard basis tuple ft of those factors, in product order, giving
    the coordinate of (ft, rt) for each tuple rt of the other factors, in
    product order and so increasing.  Kept per layout and factor set."""
    if isinstance(factors, int):
        factors = (factors,)
    return _slice_table(layout, frozenset(factors))


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
    slices = _slices(layout, factors)
    comps = [(tuple(re[k] for k in sl), tuple(im[k] for k in sl))
             for re, im in s.rows for sl in slices]
    return _from_echelon(len(slices[0]), la.echelon(comps))


def embed_alpha(layout: TensorLayout, factors, b: Subspace) -> Subspace:
    """The full space on `factors` tensored with b, placed per layout.

    Each row of b placed in each slice: the slices have disjoint supports
    and increasing coordinates, so once sorted by pivot these rows are
    already the canonical echelon form, and no elimination is needed."""
    slices = _slices(layout, factors)
    if b.dim != len(slices[0]):
        raise ValueError("subspace does not live in the complementary space")
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


def exists_factor(layout: TensorLayout, factors, s: Subspace) -> Subspace:
    """Least subspace of the form (full on factors) x T above s."""
    return embed_alpha(layout, factors, component_span(layout, factors, s))


def forall_factor(layout: TensorLayout, factors, s: Subspace) -> Subspace:
    """Greatest subspace of the form (full on factors) x T below s."""
    return ortho(exists_factor(layout, factors, ortho(s)))


def forall_factor_direct(layout: TensorLayout, factors, s: Subspace) -> Subspace:
    """Membership characterization: (full) x <w> below s for every pure
    slice; cross-check for forall_factor."""
    slices = _slices(layout, factors)
    # w must satisfy: for every ft, the vector e_ft (x) w is in s, i.e. is
    # orthogonal to ortho(s).
    constraints = []
    so = ortho(s)
    for sl in slices:
        for row in so.basis:
            constraints.append(tuple(row[k].conj() for k in sl))
    sub = Subspace(len(slices[0]), la.nullspace(constraints, len(slices[0])))
    return embed_alpha(layout, factors, sub)


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


def diagonal_rank(layout: TensorLayout, factors) -> int:
    """Symmetric-power dimension times the free factor dimensions."""
    fs = sorted(set(factors))
    d = layout.factor_dims[fs[0]]
    rest = prod(layout.factor_dims[k] for k in range(layout.n) if k not in fs)
    return comb(d + len(fs) - 1, len(fs)) * rest


def check_diagonal_meet(layout: TensorLayout, i: int, j: int, k: int) -> bool:
    lhs = meet(diagonal(layout, (i, j)), diagonal(layout, (j, k)))
    return lhs == diagonal(layout, {i, j, k})


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
    # each is the other's orthocomplement, so neither is computed
    object.__setattr__(zero, "_ortho", full)
    object.__setattr__(full, "_ortho", zero)
    diagonals = {(i, j): diagonal(layout, (i, j)) for i in dims for j in dims}
    start = [zero, full, *diagonals.values(), *generators]
    # the ops are looked up on each call, so wrappers put on this module's
    # ortho, join or exists_factor see every call the closure makes
    closure, (ortho_memo, *exists_memo, join_memo) = close(
        start, [ortho] + [partial(exists_factor, layout, f) for f in dims],
        [join], limit=max_closure, what="subspaces")

    perm = sorted(range(len(closure)), key=lambda k: (
        closure[k].rank,
        tuple((x.re, x.im) for row in closure[k].basis for x in row)))
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
