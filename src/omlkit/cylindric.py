"""Families of quantifiers with diagonals on finite ortholattices.

Axiom checking for the weak and full axiom sets, the classical
substitution operator and the classical set-algebra oracle built on a
powerset lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import lattice as lat
from .lattice import FiniteOL, SizeGuardError
from .quantifiers import UnaryMap, check_quantifier


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


@dataclass
class CheckReport:
    status: dict  # axiom or condition name -> (ok, witness or None)

    @property
    def ok(self) -> bool:
        return all(v[0] for v in self.status.values())

    def failed(self):
        return sorted(k for k, v in self.status.items() if not v[0])


def check_cylindric(C: CylindricStructure, mode: str = "weak") -> CheckReport:
    """C1-C4 (weak) plus C5 (full), exhaustive over indices and elements."""
    if mode not in ("weak", "full"):
        raise ValueError("mode must be 'weak' or 'full'")
    L = C.base
    st = {}

    def record(name, ok, witness=None):
        if name not in st or st[name][0]:
            st[name] = (ok, witness)

    for i in C.dims:
        rep = check_quantifier(L, C.cylindrifications[i])
        if not rep.is_quantifier:
            bad = next(a for a in ("Q1", "Q2", "Q3", "Q4", "Q5")
                       if not rep.ok(a))
            record("C1", False, (i, bad, rep.witness(bad)))
    st.setdefault("C1", (True, None))

    for i in C.dims:
        for j in C.dims:
            if i >= j:
                continue
            for x in L.elements():
                if C.c(i, C.c(j, x)) != C.c(j, C.c(i, x)):
                    record("C2", False, (i, j, x))
                    break
    st.setdefault("C2", (True, None))

    for i in C.dims:
        if C.d(i, i) != L.one:
            record("C3", False, (i, i))
        for j in C.dims:
            if C.d(i, j) != C.d(j, i):
                record("C3", False, (i, j))
    st.setdefault("C3", (True, None))

    for i, j, k in product(C.dims, repeat=3):
        if j == i or j == k:
            continue
        if C.d(i, k) != C.c(j, L.meet(C.d(i, j), C.d(j, k))):
            record("C4", False, (i, j, k))
    st.setdefault("C4", (True, None))

    if mode == "full":
        for i in C.dims:
            for j in C.dims:
                if i == j:
                    continue
                d = C.d(i, j)
                for x in L.elements():
                    lhs = L.meet(C.c(i, L.meet(d, x)),
                                 C.c(i, L.meet(d, L.ortho(x))))
                    if lhs != L.zero:
                        record("C5", False, (i, j, x))
                        break
        st.setdefault("C5", (True, None))
    return CheckReport(st)


def classical_cyl_set_algebra(X, I, *, max_elements=lat.DEFAULT_MAX_ELEMENTS
                              ) -> CylindricStructure:
    """Powerset of X^I with coordinate-relaxation cylindrifications and
    equality diagonals.  Element indices are subset bitmasks over X^I."""
    X = list(X)
    I = list(I)
    points = list(product(X, repeat=len(I)))
    if (1 << len(points)) > max_elements:
        raise SizeGuardError("powerset of %d points exceeds the guard"
                             % len(points))
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
    s = [substitution_classical(C, i, j, x) for x in L.elements()]
    if s[L.zero] != L.zero or s[L.one] != L.one:
        return False
    for x in L.elements():
        if s[L.ortho(x)] != L.ortho(s[x]):
            return False
        for y in L.elements():
            if s[L.meet(x, y)] != L.meet(s[x], s[y]):
                return False
            if s[L.join(x, y)] != L.join(s[x], s[y]):
                return False
    return True
