"""Test-only oracle: Gauss-Jordan elimination directly on GQ entries.

This is the straightforward elimination over Q[i] that omlkit.linalg.rref
must agree with, row for row and pivot for pivot.  It is slow but obviously
correct, and it is used only by the differential tests.

solve reads one solution of a linear system off omlkit.linalg.rref of the
augmented matrix; the library itself solves no system, so only tests use it.
"""

from __future__ import annotations

import omlkit.linalg as la
from omlkit.gq import ONE, ZERO
from omlkit.linalg import Matrix, Vector


def rref(rows) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with leading entries 1 and cleared pivot
    columns; zero rows are dropped.  Returns (rows, pivot_columns)."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(work)):
            if work[i][c]:
                pr = i
                break
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = ONE / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    out = tuple(tuple(row) for row in work[:r])
    return out, tuple(pivots)


def solve(a: Matrix, b: Vector):
    """One exact solution of A x = b, or None if inconsistent."""
    ncols = len(a[0]) if a else 0
    aug = [list(row) + [bv] for row, bv in zip(a, b)]
    red, pivots = la.rref(aug)
    x = [ZERO] * ncols
    for r, c in enumerate(pivots):
        if c == ncols:
            return None
        x[c] = red[r][ncols]
    return tuple(x)
