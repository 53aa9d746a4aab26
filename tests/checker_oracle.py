"""Test-only oracles: the axiom checkers as first written.

These are the loops that the first-failure status maps of
omlkit.cylindric, omlkit.frames and omlkit.quantifiers replaced, kept
verbatim apart from docstrings and module-level names.  They call a
method per element or pair and fill their status maps through a record
closure or setdefault defaults.  The new checkers must give the same
status maps, ok flags and witnesses, with two declared exceptions below.
canonical_frame is the pair-by-pair version that the mask reads of
omlkit.frames replaced; commutes comes from ol_oracle.  all_preorders is
the depth-first search that the closure in omlkit.frames replaced.

The two exceptions:

- validate_orthoframe here reports the last asymmetric row, because its
  break leaves only the inner loop; the new one reports the first pair in
  row-major order.
- check_monadic_frame here reports an intransitive relation as
  ("not_transitive", None); the new one names the first (i, j, k).
"""

from __future__ import annotations

from itertools import product

from omlkit import lattice as lat
from omlkit.frames import (Orthoframe, biortho, bits,
                           image, monadic_closed_set_structure,
                           orthocomplement)
from omlkit.lattice import FiniteOL
from omlkit.quantifiers import (CheckReport, Q6Witness, UnaryMap,
                                check_quantifier, quantifier_from_subalgebra)
from omlkit.cylindric import CylindricStructure, substitution_classical
from ol_oracle import commutes


def check_cylindric(C: CylindricStructure, mode: str = "weak") -> CheckReport:
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
            record("C1", False, (i, bad, rep.status[bad][1]))
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


def is_boolean_endomorphism(C: CylindricStructure, i: int, j: int) -> bool:
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


def validate_orthoframe(F: Orthoframe) -> CheckReport:
    st = {"irreflexive": (True, None), "symmetric": (True, None)}
    for i in range(F.n):
        if F.perp[i] >> i & 1:
            st["irreflexive"] = (False, i)
            break
    for i in range(F.n):
        for j in range(F.n):
            if (F.perp[i] >> j & 1) != (F.perp[j] >> i & 1):
                st["symmetric"] = (False, (i, j))
                break
    return CheckReport(st)


def is_reflexive(R, n: int) -> bool:
    return all(R[i] >> i & 1 for i in range(n))


def is_transitive(R, n: int) -> bool:
    for i in range(n):
        for j in bits(R[i]):
            if R[j] & ~R[i]:
                return False
    return True


def check_monadic_frame(F: Orthoframe, R) -> CheckReport:
    st = {}
    base = validate_orthoframe(F)
    st["M1"] = (base.ok, None if base.ok else base.status)
    if not is_reflexive(R, F.n):
        st["M2"] = (False, ("not_reflexive",
                            next(i for i in range(F.n)
                                 if not R[i] >> i & 1)))
    elif not is_transitive(R, F.n):
        st["M2"] = (False, ("not_transitive", None))
    else:
        st["M2"] = (True, None)
    st["M3"] = (True, None)
    for x in range(F.n):
        s = orthocomplement(F, R[x])
        if image(R, s) & ~s:
            st["M3"] = (False, x)
            break
    return CheckReport(st)


def canonical_frame(L: FiniteOL, e: UnaryMap):
    carrier = tuple(x for x in L.elements() if x != L.zero)
    pos = {x: i for i, x in enumerate(carrier)}
    perp = []
    R = []
    for x in carrier:
        pm = 0
        rm = 0
        for y in carrier:
            if L.leq(x, L.ortho(y)):
                pm |= 1 << pos[y]
            if L.leq(y, e(x)):
                rm |= 1 << pos[y]
        perp.append(pm)
        R.append(rm)
    F = Orthoframe(tuple(L.label(x) for x in carrier), tuple(perp))
    return F, tuple(R), carrier


def check_canonical_representation(L: FiniteOL, e: UnaryMap) -> bool:
    F, R, carrier = canonical_frame(L, e)
    pos = {x: i for i, x in enumerate(carrier)}
    if not check_monadic_frame(F, R).ok:
        return False

    def alpha(a):
        m = 0
        for x in L.down(a):
            if x != L.zero:
                m |= 1 << pos[x]
        return m

    CL, emap, masks = monadic_closed_set_structure(F, R)
    index = {m: k for k, m in enumerate(masks)}
    if sorted(alpha(a) for a in L.elements()) != sorted(masks):
        return False
    for a in L.elements():
        ka = index[alpha(a)]
        if masks[CL.ortho(ka)] != alpha(L.ortho(a)):
            return False
        if masks[emap(ka)] != alpha(e(a)):
            return False
        for b in L.elements():
            kb = index[alpha(b)]
            if masks[CL.meet(ka, kb)] != alpha(L.meet(a, b)):
                return False
            if masks[CL.join(ka, kb)] != alpha(L.join(a, b)):
                return False
    return True


def relations_commute(Ri, Rj, n: int) -> bool:
    for x in range(n):
        ij = image(Rj, Ri[x])
        ji = image(Ri, Rj[x])
        if ij != ji:
            return False
    return True


def check_weak_cylindric_frame(F: Orthoframe, rels: dict,
                               diags: dict) -> CheckReport:
    idxs = sorted(rels)
    st = {}
    for i in idxs:
        rep = check_monadic_frame(F, rels[i])
        if not rep.ok:
            st["W1"] = (False, (i, rep.failed()))
            break
    st.setdefault("W1", (True, None))
    for i in idxs:
        for j in idxs:
            if i < j and not relations_commute(rels[i], rels[j], F.n):
                st.setdefault("W2", (False, (i, j)))
    st.setdefault("W2", (True, None))
    for i in idxs:
        if diags[(i, i)] != F.full:
            st.setdefault("W3", (False, (i, i)))
        for j in idxs:
            d = diags[(i, j)]
            if d != diags[(j, i)] or d != biortho(F, d):
                st.setdefault("W3", (False, (i, j)))
    st.setdefault("W3", (True, None))
    for i, j, k in product(idxs, repeat=3):
        if j == i or j == k:
            continue
        if image(rels[j], diags[(i, j)] & diags[(j, k)]) != diags[(i, k)]:
            st.setdefault("W4", (False, (i, j, k)))
    st.setdefault("W4", (True, None))
    return CheckReport(st)


def find_q6_counterexample(max_blocks: int = 4, boolean_only: bool = False):
    for diagram in lat.enumerate_greechie_diagrams(max_blocks):
        named = [tuple("a%s" % a for a in blk) for blk in diagram]
        try:
            L = lat.greechie_lattice(named)
            blocks = lat.blocks(L)
        except lat.LatticeError:
            continue
        if boolean_only and not all(
                commutes(L, x, y)
                for x in L.elements() for y in L.elements()):
            continue
        for S in blocks:
            e = quantifier_from_subalgebra(L, S)
            for p in L.elements():
                for q in L.elements():
                    lhs = e(L.meet(p, e(q)))
                    rhs = L.meet(e(p), e(q))
                    if lhs == L.zero and rhs != L.zero:
                        return Q6Witness(tuple(tuple(b) for b in diagram),
                                         L, S, p, q)
    return None


def all_preorders(n: int):
    """All reflexive transitive relations on n points as row-mask tuples,
    by depth-first search with transitivity pruning."""
    rows = []
    out = []

    def consistent(k):
        for a in range(k + 1):
            for b in bits(rows[a]):
                if b <= k and rows[b] & ~rows[a]:
                    return False
        return True

    def rec(k):
        if k == n:
            out.append(tuple(rows))
            return
        others = [m for m in range(1 << n) if m >> k & 1]
        for m in others:
            rows.append(m)
            if consistent(k):
                rec(k + 1)
            rows.pop()

    rec(0)
    return out
