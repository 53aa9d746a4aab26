"""Relational frames whose closed sets carry ortholattice structure.

Points are indexed 0..n-1; subsets and relation rows are bitmasks, which
keeps the closure computations fast enough for exhaustive checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .lattice import (DEFAULT_MAX_ELEMENTS, FiniteOL, bits, close, converse,
                      image, transitive_closure)
from .quantifiers import CheckReport, UnaryMap, first_failure_report


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
    """perp must be irreflexive and symmetric; each reports its first
    failing point or pair in row-major order."""
    n, perp = F.n, F.perp
    return first_failure_report(CheckReport, {
        "irreflexive": next((i for i in range(n) if perp[i] >> i & 1), None),
        "symmetric": next(((i, j) for i in range(n) for j in range(n)
                           if (perp[i] >> j & 1) != (perp[j] >> i & 1)),
                          None),
    })


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


def _not_preorder(R, n: int):
    """("not_reflexive", i) for the first i not related to itself, else
    ("not_transitive", (i, j, k)) for the first i R j, j R k with not
    i R k; None when R is a preorder."""
    i = next((i for i in range(n) if not R[i] >> i & 1), None)
    if i is not None:
        return "not_reflexive", i
    # a reflexive R is transitive at row i iff R[R[i]] adds nothing to it
    i = next((i for i in range(n) if image(R, R[i]) != R[i]), None)
    if i is None:
        return None
    j = next(j for j in bits(R[i]) if R[j] & ~R[i])
    return "not_transitive", (i, j, bits(R[j] & ~R[i])[0])


def check_monadic_frame(F: Orthoframe, R) -> CheckReport:
    """M1: orthogonality relation, M2: preorder, M3: every R[{x}]-ortho is
    closed under R.  M1 embeds the failing status of validate_orthoframe;
    M3 names the first x."""
    base = validate_orthoframe(F)
    return first_failure_report(CheckReport, {
        "M1": None if base.ok else base.status,
        "M2": _not_preorder(R, F.n),
        # s is R[{x}]-ortho, computed once
        "M3": next((x for x in range(F.n)
                    if image(R, s := orthocomplement(F, R[x])) & ~s), None),
    })


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


def _drop_bit(m: int, z: int) -> int:
    """The mask m over elements as a mask over points: bit z removed and
    the bits above it shifted down, the numbering of canonical_frame."""
    return (m & ((1 << z) - 1)) | (m >> (z + 1) << z)


def canonical_frame(L: FiniteOL, e: UnaryMap):
    """Points are the nonzero elements, x perp y iff x <= y', x R y iff
    y <= E x, read off the up-set of x and the down-set of E x.  Returns
    (frame, R, carrier) with carrier[i] the lattice element at point i."""
    carrier = tuple(x for x in L.elements() if x != L.zero)
    down, up = L.masks()
    # bit y of pre[z] is set iff y' = z, for any ortho table
    pre = converse([1 << oy for oy in L.ortho_t])
    perp = tuple(_drop_bit(image(pre, up[x]), L.zero) for x in carrier)
    R = tuple(_drop_bit(down[e(x)], L.zero) for x in carrier)
    F = Orthoframe(tuple(L.label(x) for x in carrier), perp)
    return F, R, carrier


def check_canonical_representation(L: FiniteOL, e: UnaryMap) -> bool:
    """The map a -> (nonzero part of the downset of a) must be an
    isomorphism from (L, E) onto the closed-set structure of the canonical
    frame, intertwining the quantifiers."""
    F, R, _ = canonical_frame(L, e)
    if not check_monadic_frame(F, R).ok:
        return False
    alpha = [_drop_bit(m, L.zero) for m in L.masks()[0]]
    CL, emap, masks = monadic_closed_set_structure(F, R)
    if sorted(alpha) != sorted(masks):
        return False
    # alpha is a bijection onto masks, so it is the permutation k of
    # element indices, and the tables must agree through it row by row
    index = {m: k for k, m in enumerate(masks)}
    k = [index[m] for m in alpha]
    M, J, CM, CJ = L.meet_t, L.join_t, CL.meet_t, CL.join_t
    return all(CL.ortho_t[ka] == k[L.ortho_t[a]]
               and emap.map[ka] == k[e.map[a]]
               and [CM[ka][kb] for kb in k] == [k[m] for m in M[a]]
               and [CJ[ka][kb] for kb in k] == [k[j] for j in J[a]]
               for a, ka in enumerate(k))


# ---------------------------------------------------------------------------
# weak cylindric frames


def relations_commute(Ri, Rj, n: int) -> bool:
    return all(image(Rj, Ri[x]) == image(Ri, Rj[x]) for x in range(n))


def check_weak_cylindric_frame(F: Orthoframe, rels: dict,
                               diags: dict) -> CheckReport:
    """W1: each (X, perp, R_i) monadic; W2: the relations commute in
    pairs; W3: diagonals symmetric, closed, full on the diagonal pair;
    W4: R_j[D_ij n D_jk] = D_ik for j distinct from i, k."""
    idxs, d = sorted(rels), diags
    failed = {i: check_monadic_frame(F, rels[i]).failed() for i in idxs}
    return first_failure_report(CheckReport, {
        "W1": next(((i, f) for i, f in failed.items() if f), None),
        "W2": next(((i, j) for i in idxs for j in idxs if i < j
                    and not relations_commute(rels[i], rels[j], F.n)), None),
        # an asymmetric or unclosed (i, j) with j < i was met first as
        # (j, i), so row-major order is the loop order
        "W3": next(((i, j) for i in idxs for j in idxs
                    if d[(i, j)] != (F.full if i == j else d[(j, i)])
                    or d[(i, j)] != biortho(F, d[(i, j)])), None),
        "W4": next(((i, j, k) for i, j, k in product(idxs, repeat=3)
                    if j != i and j != k
                    and image(rels[j], d[(i, j)] & d[(j, k)]) != d[(i, k)]),
                   None),
    })


# ---------------------------------------------------------------------------
# enumeration and random generation


def all_preorders(n: int):
    """All reflexive transitive relations on n points as row-mask tuples,
    sorted: the closure of the identity under adding a pair i R j and
    closing transitively, which reaches every preorder one pair at a time."""
    def add(i, j):
        return lambda R: tuple(transitive_closure(
            [r | 1 << j if k == i else r for k, r in enumerate(R)]))

    ops = [add(i, j) for i in range(n) for j in range(n) if i != j]
    return sorted(close([tuple(1 << i for i in range(n))], ops)[0])


def is_equivalence(R, n: int) -> bool:
    return _not_preorder(R, n) is None and list(R) == converse(R)


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
