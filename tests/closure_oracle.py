"""Test-only oracles: closures as first written, each with its own loop.

as_cylindric_structure here closes its start set under meet, join, ortho
and every one-factor quantifier, computing meet pair by pair.
omlkit.subspaces.as_cylindric_structure reads the meet table off join and
ortho by De Morgan; both must give the same structure and the same element
order, and must refuse the same generators at the size guard.

subalgebra_closure, all_subalgebras and closed_sets are the round-based
and frontier loops that omlkit.lattice.close replaced; they must give the
same sets and refuse the same frames.
"""

from __future__ import annotations

from omlkit.cylindric import CylindricStructure
from omlkit.frames import Orthoframe
from omlkit.lattice import DEFAULT_MAX_ELEMENTS, FiniteOL, SizeGuardError
from omlkit.quantifiers import UnaryMap
from omlkit.subspaces import (Subspace, TensorLayout, diagonal, exists_factor,
                              join, meet, ortho)


def as_cylindric_structure(layout: TensorLayout, generators,
                           max_closure: int = 128):
    """Close generators and all diagonals under meet, join, ortho and every
    one-factor quantifier; package the finite sub-ortholattice for the
    cylindric axiom checkers.

    Returns (structure, subspace_list); element i of the lattice is
    subspace_list[i].
    """
    dims = tuple(range(layout.n))
    start = [Subspace.zero(layout.dim), Subspace.full(layout.dim)]
    for i in dims:
        for j in dims:
            dsub = diagonal(layout, (i, j)) if i != j \
                else Subspace.full(layout.dim)
            if dsub not in start:
                start.append(dsub)
    for g in generators:
        if g not in start:
            start.append(g)
    closure = []
    seen = {}

    def push(x):
        if x not in seen:
            seen[x] = len(closure)
            closure.append(x)
            if len(closure) > max_closure:
                raise SizeGuardError(
                    "closure exceeded %d subspaces" % max_closure)
        return seen[x]

    # every op result is cached by insertion index so the final tables are
    # pure lookups; the pair loop touches each unordered pair exactly once
    meet_memo = {}
    join_memo = {}
    ortho_memo = {}
    exists_memo = {}
    for x in start:
        push(x)
    i = 0
    while i < len(closure):
        a = closure[i]
        ortho_memo[i] = push(ortho(a))
        for f in dims:
            exists_memo[(f, i)] = push(exists_factor(layout, f, a))
        for j in range(i + 1):
            meet_memo[(j, i)] = push(meet(a, closure[j]))
            join_memo[(j, i)] = push(join(a, closure[j]))
        i += 1

    perm = sorted(range(len(closure)), key=lambda k: (
        closure[k].rank,
        tuple((x.re, x.im) for row in closure[k].basis for x in row)))
    new_of_old = {old: new for new, old in enumerate(perm)}

    def mlook(memo, a, b):
        return new_of_old[memo[(min(a, b), max(a, b))]]

    ordered = [closure[k] for k in perm]
    labels = tuple("S%d(r%d)" % (k, s.rank) for k, s in enumerate(ordered))
    meet_t = tuple(tuple(mlook(meet_memo, a, b) for b in perm) for a in perm)
    join_t = tuple(tuple(mlook(join_memo, a, b) for b in perm) for a in perm)
    ortho_t = tuple(new_of_old[ortho_memo[a]] for a in perm)
    closure = ordered
    index = {s: k for k, s in enumerate(closure)}
    L = FiniteOL(labels, meet_t, join_t, ortho_t,
                 index[Subspace.zero(layout.dim)],
                 index[Subspace.full(layout.dim)])
    cyl = {i: UnaryMap(L, tuple(new_of_old[exists_memo[(i, a)]]
                                for a in perm)) for i in dims}
    diag = {}
    for i in dims:
        for j in dims:
            dsub = diagonal(layout, (i, j)) if i != j \
                else Subspace.full(layout.dim)
            diag[(i, j)] = index[dsub]
    return CylindricStructure(L, dims, cyl, diag), closure


def subalgebra_closure(L: FiniteOL, seed) -> frozenset:
    cur = set(seed) | {L.zero, L.one}
    while True:
        new = set()
        for x in cur:
            o = L.ortho(x)
            if o not in cur:
                new.add(o)
        for x in cur:
            for y in cur:
                m, j = L.meet(x, y), L.join(x, y)
                if m not in cur:
                    new.add(m)
                if j not in cur:
                    new.add(j)
        if not new:
            return frozenset(cur)
        cur |= new


def all_subalgebras(L: FiniteOL):
    """Every subalgebra of L, found by closure-driven search."""
    start = subalgebra_closure(L, ())
    seen = {start}
    queue = [start]
    while queue:
        s = queue.pop()
        for x in L.elements():
            if x not in s:
                t = subalgebra_closure(L, s | {x})
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def closed_sets(F: Orthoframe, max_elements: int = DEFAULT_MAX_ELEMENTS):
    """All biorthogonally closed subsets: intersections of point
    orthocomplements, plus the full set."""
    family = {F.full}
    frontier = [F.full]
    while frontier:
        nxt = []
        for s in frontier:
            for i in range(F.n):
                t = s & F.perp[i]
                if t not in family:
                    family.add(t)
                    nxt.append(t)
                    if len(family) > max_elements:
                        raise SizeGuardError(
                            "more than %d closed sets" % max_elements)
        frontier = nxt
    return sorted(family, key=lambda m: (bin(m).count("1"), m))
