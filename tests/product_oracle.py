"""Test-only oracle: matrix products and inner products summed directly
on GQ entries.

These are the straightforward formulas that omlkit.linalg.matmul, matvec
and inner must agree with, entry for entry.  Each entry costs one GQ
multiplication and one GQ addition per term; they are used only by the
differential tests.
"""

from __future__ import annotations

from omlkit.gq import GQ, ZERO
from omlkit.linalg import Matrix, Vector, transpose


def matmul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum((x * y for x, y in zip(ra, cb)), ZERO)
                       for cb in bt) for ra in a)


def matvec(a: Matrix, v: Vector) -> Vector:
    return tuple(sum((x * y for x, y in zip(row, v)), ZERO) for row in a)


def inner(u: Vector, v: Vector) -> GQ:
    """Hermitian inner product, conjugate-linear in the first argument."""
    return sum((x.conj() * y for x, y in zip(u, v)), ZERO)
