"""Relational frames whose closed sets carry ortholattice structure.

Points are indexed 0..n-1; subsets and relation rows are bitmasks, which
keeps the closure computations fast enough for exhaustive checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .lattice import (DEFAULT_MAX_ELEMENTS, FiniteOL, bits, close, image,
                      transitive_closure)
from .cylindric import CheckReport
from .quantifiers import UnaryMap


@dataclass(frozen=True)
class Orthoframe:
    points: tuple  # labels
    perp: tuple    # row bitmasks: perp[i] >> j & 1 iff i and j orthogonal

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1


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


def orthocomplement(F: Orthoframe, a: int) -> int:
    out = F.full
    for i in bits(a):
        out &= F.perp[i]
    return out


def biortho(F: Orthoframe, a: int) -> int:
    return orthocomplement(F, orthocomplement(F, a))


def closed_sets(F: Orthoframe, max_elements: int = DEFAULT_MAX_ELEMENTS):
    """All biorthogonally closed subsets: intersections of point
    orthocomplements, plus the full set."""
    family, _ = close([F.full], [p.__and__ for p in F.perp],
                      limit=max_elements, what="closed sets")
    return sorted(family, key=lambda m: (bin(m).count("1"), m))


def closed_set_lattice(F: Orthoframe,
                       max_elements: int = DEFAULT_MAX_ELEMENTS):
    """The ortholattice of closed sets; returns (lattice, masks) with
    lattice element k representing subset masks[k]."""
    masks = closed_sets(F, max_elements)
    index = {m: k for k, m in enumerate(masks)}

    def label(m):
        return "{" + ",".join(str(F.points[i]) for i in bits(m)) + "}"

    labels = tuple(label(m) for m in masks)
    meet_t = tuple(tuple(index[a & b] for b in masks) for a in masks)
    ortho_t = tuple(index[orthocomplement(F, a)] for a in masks)
    # closed sets are closed under intersection, so a v b = (a' ^ b')'
    join_t = tuple(tuple(ortho_t[m[ob]] for ob in ortho_t)
                   for m in (meet_t[oa] for oa in ortho_t))
    L = FiniteOL(labels, meet_t, join_t, ortho_t, index[0], index[F.full])
    return L, tuple(masks)


# ---------------------------------------------------------------------------
# a quantifier from an extra relation


def exists_R(F: Orthoframe, R, a: int) -> int:
    return biortho(F, image(R, a))


def is_reflexive(R, n: int) -> bool:
    return all(R[i] >> i & 1 for i in range(n))


def is_transitive(R, n: int) -> bool:
    for i in range(n):
        for j in bits(R[i]):
            if R[j] & ~R[i]:
                return False
    return True


def check_monadic_frame(F: Orthoframe, R) -> CheckReport:
    """M1: orthogonality relation, M2: preorder, M3: every R[{x}]-ortho is
    closed under R."""
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


def subset_tables(F: Orthoframe, R):
    """(img, orth) over all 2^n subset masks a: img[a] = R[A] and
    orth[a] = A-ortho.  Each point i doubles the tables: the subsets that
    gain i get R[i] joined into their image and perp[i] met into their
    orthocomplement."""
    img, orth = [0], [F.full]
    for r, p in zip(R, F.perp):
        img += [x | r for x in img]
        orth += [x & p for x in orth]
    return img, orth


def check_closure_lemma(F: Orthoframe, R) -> bool:
    """For every subset A: R[A]-ortho and its double ortho are closed
    under R, and R[biortho A] is inside biortho(R[A]); exhaustive, by
    lookups in the subset tables."""
    img, orth = subset_tables(F, R)
    for a, ra in enumerate(img):
        s = orth[ra]
        t = orth[s]
        if img[s] & ~s or img[t] & ~t or img[orth[orth[a]]] & ~t:
            return False
    return True


def monadic_closed_set_structure(F: Orthoframe, R,
                                 max_elements: int = DEFAULT_MAX_ELEMENTS):
    """The closed-set lattice together with the quantifier A -> biortho of
    R[A]; returns (lattice, exists map, masks)."""
    L, masks = closed_set_lattice(F, max_elements)
    index = {m: k for k, m in enumerate(masks)}
    e = UnaryMap(L, tuple(index[exists_R(F, R, m)] for m in masks))
    return L, e, masks


# ---------------------------------------------------------------------------
# the canonical frame of a finite monadic ortholattice


def canonical_frame(L: FiniteOL, e: UnaryMap):
    """Points are the nonzero elements, x perp y iff x <= y', x R y iff
    y <= E x.  Returns (frame, R, carrier) with carrier[i] the lattice
    element behind point i."""
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
    """The map a -> (nonzero part of the downset of a) must be an
    isomorphism from (L, E) onto the closed-set structure of the canonical
    frame, intertwining the quantifiers."""
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


# ---------------------------------------------------------------------------
# weak cylindric frames


def relations_commute(Ri, Rj, n: int) -> bool:
    for x in range(n):
        ij = image(Rj, Ri[x])
        ji = image(Ri, Rj[x])
        if ij != ji:
            return False
    return True


def check_weak_cylindric_frame(F: Orthoframe, rels: dict,
                               diags: dict) -> CheckReport:
    """W1: each (X, perp, R_i) monadic; W2: the relations commute in
    pairs; W3: diagonals symmetric, closed, full on the diagonal pair;
    W4: R_j[D_ij n D_jk] = D_ik for j distinct from i, k."""
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


# ---------------------------------------------------------------------------
# enumeration and random generation


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


def is_equivalence(R, n: int) -> bool:
    return is_reflexive(R, n) and is_transitive(R, n) and \
        all((R[i] >> j & 1) == (R[j] >> i & 1)
            for i in range(n) for j in range(n))


def classical_perp(n: int) -> Orthoframe:
    """The inequality orthoframe; its closed sets are the full powerset."""
    full = (1 << n) - 1
    return Orthoframe(tuple(range(n)),
                      tuple(full & ~(1 << i) for i in range(n)))


def random_orthoframe(n: int, rng: random.Random,
                      density: float = 0.4) -> Orthoframe:
    perp = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                perp[i] |= 1 << j
                perp[j] |= 1 << i
    return Orthoframe(tuple(range(n)), tuple(perp))


def random_monadic_frame(n: int, rng: random.Random, tries: int = 500):
    """A random orthoframe with a random preorder satisfying the closure
    condition, or None if no try succeeds."""
    for _ in range(tries):
        F = random_orthoframe(n, rng)
        R = [1 << i for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.3:
                    R[i] |= 1 << j
        R = tuple(transitive_closure(R))
        if check_monadic_frame(F, R).ok:
            return F, R
    return None
