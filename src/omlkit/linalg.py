"""Exact linear algebra over the Gaussian rationals.

Matrices are tuples of tuples of GQ; the functions here never mutate their
arguments and never leave exact arithmetic.  They cover products, the
Kronecker product, inner products, elimination, kernels and inverses.
Elimination runs on integer rows: echelon() and kernel() take and return
rows as pairs (re, im) of Gaussian-integer parts in a canonical primitive
form, and rref(), nullspace() and inverse() convert GQ rows in and out at
the boundary.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .gq import GQ, ZERO, ONE, _gq

Matrix = tuple
Vector = tuple


def eye(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n))
                 for i in range(n))


def mat(rows) -> Matrix:
    """Build a matrix from nested iterables of GQ/int/Fraction."""
    return tuple(tuple(x if isinstance(x, GQ) else GQ(x) for x in row)
                 for row in rows)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def conj_mat(a: Matrix) -> Matrix:
    return tuple(tuple(x.conj() for x in row) for row in a)


def adjoint(a: Matrix) -> Matrix:
    return transpose(conj_mat(a))


def sub(a: Matrix, b: Matrix) -> Matrix:
    # zip would cut a longer operand short
    _check_lengths((a,), len(b))
    _check_lengths((*a, *b), len(b[0]) if b else 0)
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a, b))


def scale(c, a: Matrix) -> Matrix:
    c = c if isinstance(c, GQ) else GQ(c)
    return tuple(tuple(c * x for x in row) for row in a)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    _check_lengths(a, len(b))
    _check_lengths(b, len(b[0]) if b else 0)
    rows = [_den_row(ra) for ra in a]
    cols = [_den_row(cb) for cb in transpose(b)]
    return tuple(tuple(_dot(r, c) for c in cols) for r in rows)


def matvec(a: Matrix, v: Vector) -> Vector:
    _check_lengths(a, len(v))
    dv = _den_row(v)
    return tuple(_dot(_den_row(row), dv) for row in a)


def trace(a: Matrix) -> GQ:
    return sum((a[i][i] for i in range(len(a))), ZERO)


def kron(a: Matrix, b: Matrix) -> Matrix:
    rows = []
    for ra in a:
        for rb in b:
            rows.append(tuple(x * y for x in ra for y in rb))
    return tuple(rows)


def inner(u: Vector, v: Vector) -> GQ:
    """Hermitian inner product, conjugate-linear in the first argument."""
    _check_lengths((u,), len(v))
    den, re, im = _den_row(u)
    return _dot((den, re, [-y for y in im]), _den_row(v))


def _check_lengths(rows, n: int):
    """Raise ValueError unless every row has length n; zip would cut it."""
    if any(len(r) != n for r in rows):
        raise ValueError("operand lengths do not match: expected %d" % n)


def _dot(r, c) -> GQ:
    """sum r_k * c_k for rows in (den, re, im) form: one Gaussian-integer
    sum, divided once by the product of the denominators."""
    re, im = int_dot(r[1:], c[1:])
    return _gq(re, im, r[0] * c[0])


def int_dot(a, b) -> tuple[int, int]:
    """sum a_k * b_k for Gaussian-integer rows (re, im), as (re, im)."""
    (x, y), (u, v) = a, b
    return (sum(map(mul, x, u)) - sum(map(mul, y, v)),
            sum(map(mul, x, v)) + sum(map(mul, y, u)))


def int_orthogonal(a, b) -> bool:
    """Whether the Hermitian product sum a_k * conj(b_k) of Gaussian-integer
    rows (re, im) is 0: its real part, then its imaginary part."""
    (x, y), (u, v) = a, b
    return not (sum(map(mul, x, u)) + sum(map(mul, y, v)) or
                sum(map(mul, y, u)) - sum(map(mul, x, v)))


def int_matvec(rows, v) -> tuple[list, list]:
    """The Gaussian-integer vector of int_dot(r, v) over the rows r."""
    dots = [int_dot(r, v) for r in rows]
    return [x for x, _ in dots], [y for _, y in dots]


def flatten(a: Matrix) -> Vector:
    return tuple(x for row in a for x in row)


def unflatten(v: Vector, m: int, n: int) -> Matrix:
    return tuple(tuple(v[i * n + j] for j in range(n)) for i in range(m))


def rref(rows) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with leading entries 1 and cleared pivot
    columns; zero rows are dropped.  Returns (rows, pivots): the rows of
    echelon() divided by their pivots, so the same canonical rref as
    elimination over Q[i]."""
    red, pivots = echelon([int_row(r) for r in rows])
    return gq_rows(red, pivots), pivots


# echelon() calls and the rows handed to them since the last reset_counts();
# deterministic, so tests pin them to catch an algorithmic regression
counts = {"echelon_calls": 0, "echelon_rows": 0}


def reset_counts():
    counts.update(dict.fromkeys(counts, 0))


def echelon(rows) -> tuple[tuple, tuple[int, ...]]:
    """Canonical Gaussian-integer echelon form of rows given as integer
    parts (re, im).  Returns (rows, pivots): each row a pair of int tuples,
    primitive (the gcd of all its parts is 1), with a positive real entry
    at its pivot column and zeros at the other pivot columns; zero rows are
    dropped.  Two row lists span the same subspace of Q[i]^n exactly when
    their echelon forms are equal.

    Gauss-Jordan elimination over the Gaussian integers with integer
    content removal.  A pivot row is multiplied by the conjugate of its
    pivot p, so p becomes a real integer, and every step is
    row_i <- p*row_i - f*row_r.  Each new row is divided by the integer gcd
    of its parts.  A real p keeps every row a rational multiple of the same
    row in elimination over Q[i], and content removal makes it the smallest
    such integer row, so entries never outgrow the Q[i] ones."""
    work = [_primitive(a, b) for a, b in rows]
    counts["echelon_calls"] += 1
    counts["echelon_rows"] += len(work)
    if not work:
        return (), ()
    nrows = len(work)
    ncols = len(work[0][0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if work[i][0][c] or work[i][1][c]:
                pr = i
                break
        if pr is None:
            continue
        b_re, b_im = work[pr]
        if b_im[c]:
            b_re, b_im = _times_conj(b_re, b_im, b_re[c], b_im[c])
        work[pr] = work[r]
        work[r] = b_re, b_im
        p = b_re[c]
        for i in range(nrows):
            if i == r:
                continue
            a_re, a_im = work[i]
            f_re, f_im = a_re[c], a_im[c]
            if f_re or f_im:
                work[i] = _primitive(
                    [p * x - f_re * u + f_im * v
                     for x, u, v in zip(a_re, b_re, b_im)],
                    [p * y - f_re * v - f_im * u
                     for y, u, v in zip(a_im, b_re, b_im)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for (a, b), c in zip(work, pivots):
        if a[c] < 0:
            a, b = [-x for x in a], [-y for y in b]
        out.append((tuple(a), tuple(b)))
    return tuple(out), tuple(pivots)


def gq_rows(rows, pivots) -> Matrix:
    """The rref over Q[i] of canonical echelon rows: each row divided by
    its pivot."""
    return tuple(gq_vector(r, r[0][c]) for r, c in zip(rows, pivots))


def gq_vector(v, den: int) -> Vector:
    """The Gaussian-integer row v = (re, im) divided by the integer den."""
    return tuple(_gq(x, y, den) for x, y in zip(*v))


def int_row(row) -> tuple[list, list]:
    """(re, im): Gaussian-integer parts of a positive integer multiple of
    row, as _den_row gives them."""
    return _den_row(row)[1:]


def _den_row(row):
    """(den, re, im): the lcm den of the entry denominators and the
    Gaussian-integer parts of den * row, as lists of ints, read off each
    entry's reduced triple.  int and Fraction entries are accepted as GQ()
    accepts them."""
    try:
        den = lcm(*[x._d for x in row])
    except AttributeError:
        return _den_row([x if isinstance(x, GQ) else GQ(x) for x in row])
    re, im = [], []
    for x in row:
        k = den // x._d
        re.append(x._a * k)
        im.append(x._b * k)
    return den, re, im


def _times_conj(a, b, p_re, p_im):
    """The Gaussian-integer row (a, b) times conj(p_re + i*p_im)."""
    return _primitive([x * p_re + y * p_im for x, y in zip(a, b)],
                      [y * p_re - x * p_im for x, y in zip(a, b)])


def _primitive(a, b):
    """Divide the parts by their common integer gcd."""
    g = gcd(*a, *b)
    if g > 1:
        a = [x // g for x in a]
        b = [x // g for x in b]
    return a, b


def nullspace(rows, ncols: int) -> Matrix:
    """Canonical basis (rref rows) of {x : A x = 0}."""
    red, pivots = echelon([int_row(r) for r in rows])
    return gq_rows(*kernel(red, pivots, ncols))


def kernel(rows, pivots, ncols: int) -> tuple[tuple, tuple[int, ...]]:
    """Canonical echelon form of {x : A x = 0}, for A given by its
    canonical echelon rows and pivots.  The kernel vector of a free column
    f is 1 at f and minus the rref entry a[f] / p at each pivot column;
    scaled by the lcm of the pivots p it is a Gaussian-integer row."""
    scale = lcm(*(a[c] for (a, _), c in zip(rows, pivots)))
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        re, im = [0] * ncols, [0] * ncols
        re[f] = scale
        for (a, b), c in zip(rows, pivots):
            q = scale // a[c]
            re[c], im[c] = -q * a[f], -q * b[f]
        basis.append((re, im))
    return echelon(basis)


def in_rowspace(red: Matrix, v: Vector) -> bool:
    """Membership test against independent rows, such as rows in rref."""
    return len(echelon([int_row(r) for r in (*red, v)])[0]) == len(red)


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + list(erow) for row, erow in zip(a, eye(n))]
    red, pivots = rref(aug)
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in red)
