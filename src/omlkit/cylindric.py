"""Families of quantifiers with diagonals on finite ortholattices.

Axiom checking for the weak and full axiom sets, the classical
substitution operator and the classical set-algebra oracle built on a
powerset lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import lattice as lat
from .lattice import FiniteOL
from .quantifiers import (AXIOMS, CheckReport, UnaryMap, check_quantifier,
                          first_failure_report)


@dataclass(eq=False)
class CylindricStructure:
    base: FiniteOL
    dims: tuple
    cylindrifications: dict  # index -> UnaryMap
    diagonals: dict          # (i, j) -> element index

    def c(self, i: int, x: int) -> int:
        return self.cylindrifications[i](x)

    def d(self, i: int, j: int) -> int:
        return self.diagonals[(i, j)]


def check_cylindric(C: CylindricStructure, mode: str = "weak") -> CheckReport:
    """C1-C4 (weak) plus C5 (full), exhaustive over indices and elements.
    Each condition reports its first failing witness in index order, then
    element order, as rows of the meet table and cylindrification maps."""
    if mode not in ("weak", "full"):
        raise ValueError("mode must be 'weak' or 'full'")
    L, dims, d = C.base, C.dims, C.diagonals
    M, o, z = L.meet_t, L.ortho_t, L.zero
    c = {i: C.cylindrifications[i].map for i in dims}
    reps = [(i, check_quantifier(L, C.cylindrifications[i]).status)
            for i in dims]
    found = {
        "C1": next(((i, a, w) for i, status in reps for a in AXIOMS[:5]
                    for ok, w in (status[a],) if not ok), None),
        # c_i c_j x == c_j c_i x
        "C2": next(((i, j, x) for i in dims for j in dims if i < j
                    for x, (cjx, cix) in enumerate(zip(c[j], c[i]))
                    if c[i][cjx] != c[j][cix]), None),
        # d_ii == 1 and d_ij == d_ji; an asymmetric (i, j) with j < i was
        # met first as (j, i), so row-major order is the loop order
        "C3": next(((i, j) for i in dims for j in dims
                    if d[(i, j)] != (L.one if i == j else d[(j, i)])), None),
        # d_ik == c_j(d_ij ^ d_jk) for j distinct from i and k
        "C4": next(((i, j, k) for i, j, k in product(dims, repeat=3)
                    if j != i and j != k
                    and d[(i, k)] != c[j][M[d[(i, j)]][d[(j, k)]]]), None),
    }
    if mode == "full":
        # c_i(d_ij ^ x) ^ c_i(d_ij ^ x') == 0 for i != j; u[x] = c_i(d_ij ^ x)
        found["C5"] = next(
            ((i, j, x) for i in dims for j in dims if i != j
             for u in ([c[i][m] for m in M[d[(i, j)]]],)
             for x, ox in enumerate(o) if M[u[x]][u[ox]] != z), None)
    return first_failure_report(CheckReport, found)


def classical_cyl_set_algebra(X, I, *, max_elements=lat.DEFAULT_MAX_ELEMENTS
                              ) -> CylindricStructure:
    """Powerset of X^I with coordinate-relaxation cylindrifications and
    equality diagonals.  Element indices are subset bitmasks over X^I."""
    X = list(X)
    I = list(I)
    points = list(product(X, repeat=len(I)))
    B = lat.boolean_algebra(len(points), max_elements=max_elements)
    pt_index = {p: k for k, p in enumerate(points)}

    cyl = {}
    for ci, _ in enumerate(I):
        orbit = []
        for p in points:
            m = 0
            for v in X:
                q = p[:ci] + (v,) + p[ci + 1:]
                m |= 1 << pt_index[q]
            orbit.append(m)
        cyl[ci] = UnaryMap(B, tuple(lat.image(orbit, m) for m in range(B.n)))

    diag = {}
    for ci, _ in enumerate(I):
        for cj, _ in enumerate(I):
            m = 0
            for k, p in enumerate(points):
                if p[ci] == p[cj]:
                    m |= 1 << k
            diag[(ci, cj)] = m
    return CylindricStructure(B, tuple(range(len(I))), cyl, diag)


def substitution_classical(C: CylindricStructure, i: int, j: int, x: int) -> int:
    """c_i(d_ij ^ x); the identity when i == j."""
    if i == j:
        return x
    return C.c(i, C.base.meet(C.d(i, j), x))


def is_boolean_endomorphism(C: CylindricStructure, i: int, j: int) -> bool:
    """Whether x -> S_j^i x preserves meet, join and complement on the
    (Boolean) base; exhaustive over pairs."""
    L = C.base
    M, J, o = L.meet_t, L.join_t, L.ortho_t
    s = [substitution_classical(C, i, j, x) for x in L.elements()]
    # row x: s(x ^ y) == s x ^ s y and s(x v y) == s x v s y over all y
    return s[L.zero] == L.zero and s[L.one] == L.one and all(
        s[o[x]] == o[sx]
        and [s[m] for m in M[x]] == [M[sx][sy] for sy in s]
        and [s[j] for j in J[x]] == [J[sx][sy] for sy in s]
        for x, sx in enumerate(s))
