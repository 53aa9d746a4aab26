import random
from fractions import Fraction

import pytest

import omlkit.linalg as la
from omlkit.gq import GQ, I, ONE, ZERO
from rref_oracle import solve


def rand_mat(rng, m, n, span=3):
    return tuple(tuple(GQ(rng.randint(-span, span),
                          Fraction(rng.randint(-span, span)))
                       for _ in range(n)) for _ in range(m))


def test_eye_and_matmul():
    rng = random.Random(0)
    a = rand_mat(rng, 3, 3)
    assert la.matmul(la.eye(3), a) == a
    assert la.matmul(a, la.eye(3)) == a


def test_adjoint_reverses_products():
    rng = random.Random(1)
    a = rand_mat(rng, 2, 3)
    b = rand_mat(rng, 3, 2)
    assert la.adjoint(la.matmul(a, b)) == \
        la.matmul(la.adjoint(b), la.adjoint(a))


def test_trace_cyclic():
    rng = random.Random(2)
    a = rand_mat(rng, 3, 3)
    b = rand_mat(rng, 3, 3)
    assert la.trace(la.matmul(a, b)) == la.trace(la.matmul(b, a))


def test_kron_mixed_product():
    rng = random.Random(3)
    a, b = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
    c, d = rand_mat(rng, 2, 2), rand_mat(rng, 2, 2)
    assert la.matmul(la.kron(a, b), la.kron(c, d)) == \
        la.kron(la.matmul(a, c), la.matmul(b, d))


def test_rref_is_canonical():
    # two different bases of the same rowspace reduce identically
    rows = la.mat([[1, 2, 3], [0, 1, 1]])
    mixed = la.mat([[1, 3, 4], [2, 5, 7]])
    assert la.rref(rows)[0] == la.rref(mixed)[0]


def test_rref_pivots_are_cleared():
    red, pivots = la.rref(la.mat([[2, 4, 1], [1, 2, 3]]))
    for r, c in enumerate(pivots):
        col = [row[c] for row in red]
        assert col[r] == ONE
        assert all(x == ZERO for k, x in enumerate(col) if k != r)


def test_nullspace_annihilates():
    rng = random.Random(4)
    a = rand_mat(rng, 3, 5)
    ns = la.nullspace(a, 5)
    assert len(ns) == 5 - len(la.rref(a)[0])
    for v in ns:
        assert all(x == ZERO for x in la.matvec(a, v))


def test_in_rowspace():
    red, _ = la.rref(la.mat([[1, 0, 1], [0, 1, 1]]))
    assert la.in_rowspace(red, la.mat([[2, 3, 5]])[0])
    assert not la.in_rowspace(red, la.mat([[0, 0, 1]])[0])
    red, _ = la.rref(la.mat([[I, -ONE]]))
    assert la.in_rowspace(red, la.mat([[2, 2 * I]])[0])
    assert not la.in_rowspace(red, la.mat([[ONE, -I]])[0])
    assert la.in_rowspace((), la.mat([[0, 0]])[0])
    assert not la.in_rowspace((), la.mat([[0, 1]])[0])


def test_solve_consistent_and_inconsistent():
    a = la.mat([[1, 1], [2, 2]])
    assert solve(a, la.mat([[1, 2]])[0]) is not None
    assert solve(a, la.mat([[1, 3]])[0]) is None
    x = solve(la.mat([[1, 2], [3, 5]]), la.mat([[1, 2]])[0])
    assert la.matvec(la.mat([[1, 2], [3, 5]]), x) == la.mat([[1, 2]])[0]


def test_inverse():
    a = la.mat([[1, 2], [3, 5]])
    assert la.matmul(a, la.inverse(a)) == la.eye(2)
    with pytest.raises(ValueError):
        la.inverse(la.mat([[1, 1], [1, 1]]))


def test_inverse_complex():
    a = ((ONE, I), (ZERO, ONE))
    assert la.matmul(la.inverse(a), a) == la.eye(2)


def test_inner_conjugate_linear_first():
    u = (I, ONE)
    v = (ONE, ZERO)
    assert la.inner(u, v) == -I
    assert la.inner(v, u) == I


def test_flatten_unflatten():
    rng = random.Random(5)
    a = rand_mat(rng, 2, 3)
    assert la.unflatten(la.flatten(a), 2, 3) == a
