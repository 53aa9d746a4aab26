"""Test-only oracles: the finite ortholattice kernel as first written.

These are the set-based loops that the bitmask kernel of omlkit.lattice,
omlkit.quantifiers, omlkit.frames and omlkit.formats replaced, kept
verbatim apart from docstrings and module-level names.  Each makes a
method call per element or pair; the new code must build the same
tables, name the same first witness and raise the same LatticeError
message.

down and atoms are the old FiniteOL methods, written as functions of the
lattice, and commutes is the pair test that the masks of
lattice.commutation replaced.  greechie_lattice and
enumerate_greechie_diagrams are the builders as they were before each was
made one pass: the first derived every label from a key tuple in a second
pass, the second regenerated every shorter level recursively.  Here
greechie_lattice builds through this module's ol_from_leq.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from omlkit.frames import (Orthoframe, biortho, exists_R, image,
                           orthocomplement)
from omlkit.lattice import (DEFAULT_MAX_ELEMENTS, FiniteOL, LatticeError,
                            OMLFlag, SizeGuardError, ValidationReport)
from omlkit.quantifiers import (NotApproximatingError, QuantifierReport,
                                UnaryMap)
from omlkit import frames


def commutes(L: FiniteOL, x: int, y: int) -> bool:
    return x == L.join(L.meet(x, y), L.meet(x, L.ortho(y)))


def down(L, x):
    return [y for y in L.elements() if L.leq(y, x)]


def atoms(L):
    return [x for x in L.elements()
            if x != L.zero and all(
                y in (L.zero, x) for y in down(L, x))]


def _transitive_closure(rel, n):
    rel = [set(s) for s in rel]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            extra = set()
            for j in rel[i]:
                extra |= rel[j]
            if not extra <= rel[i]:
                rel[i] |= extra
                changed = True
    return rel


def random_monadic_frame(n: int, rng: random.Random, tries: int = 500):
    for _ in range(tries):
        F = frames.random_orthoframe(n, rng)
        R = [1 << i for i in range(n)]
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.3:
                    R[i] |= 1 << j
        # reflexive-transitive closure
        changed = True
        while changed:
            changed = False
            for i in range(n):
                grown = image(R, R[i])
                if grown & ~R[i]:
                    R[i] |= grown
                    changed = True
        if frames.check_monadic_frame(F, tuple(R)).ok:
            return F, tuple(R)
    return None


def ol_from_leq(labels, leq_pairs, ortho, *,
                max_elements=DEFAULT_MAX_ELEMENTS):
    n = len(labels)
    if n == 0:
        raise LatticeError("empty element set")
    if n > max_elements:
        raise SizeGuardError("lattice has %d elements, guard is %d"
                             % (n, max_elements))
    up = [set() for _ in range(n)]
    for i, j in leq_pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise LatticeError("relation pair (%d,%d) out of range" % (i, j))
        up[i].add(j)
    for i in range(n):
        up[i].add(i)
    up = _transitive_closure(up, n)
    for i in range(n):
        for j in up[i]:
            if i != j and i in up[j]:
                raise LatticeError("order not antisymmetric at (%d,%d)" % (i, j))
    bottoms = [i for i in range(n) if all(j in up[i] for j in range(n))]
    tops = [i for i in range(n) if all(i in up[j] for j in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        raise LatticeError("global bounds missing or not unique")
    zero, one = bottoms[0], tops[0]
    down = [set() for _ in range(n)]
    for i in range(n):
        for j in up[i]:
            down[j].add(i)

    meet_t = []
    join_t = []
    for x in range(n):
        mrow = []
        jrow = []
        for y in range(n):
            lb = down[x] & down[y]
            m = None
            for c in lb:
                if all(d in down[c] for d in lb):
                    m = c
                    break
            if m is None:
                raise LatticeError("pair (%s,%s) has no meet"
                                   % (labels[x], labels[y]))
            ub = up[x] & up[y]
            j = None
            for c in ub:
                if all(d in up[c] for d in ub):
                    j = c
                    break
            if j is None:
                raise LatticeError("pair (%s,%s) has no join"
                                   % (labels[x], labels[y]))
            mrow.append(m)
            jrow.append(j)
        meet_t.append(tuple(mrow))
        join_t.append(tuple(jrow))

    ortho = tuple(ortho)
    if len(ortho) != n or not all(0 <= o < n for o in ortho):
        raise LatticeError("ortho table malformed")
    return FiniteOL(tuple(labels), tuple(meet_t), tuple(join_t), ortho,
                    zero, one)


@dataclass
class Violation:
    """lattice.Violation as first written, with a free-text detail that
    nothing read."""
    axiom: str
    witness: tuple
    detail: str = ""


def validate_ortholattice(L: FiniteOL) -> ValidationReport:
    structural = []
    violations = []
    n = L.n
    for x in range(n):
        if L.ortho(L.ortho(x)) != x:
            structural.append(Violation("ortho_involution", (x,),
                                        "ortho table is not period two"))
    if structural:
        return ValidationReport(structural, violations)
    for x in range(n):
        for y in range(n):
            if L.leq(x, y) and not L.leq(L.ortho(y), L.ortho(x)):
                violations.append(Violation("order_inverting", (x, y)))
    for x in range(n):
        if L.meet(x, L.ortho(x)) != L.zero:
            violations.append(Violation("meet_complement", (x,)))
        if L.join(x, L.ortho(x)) != L.one:
            violations.append(Violation("join_complement", (x,)))
    return ValidationReport(structural, violations)


def check_orthomodular(L: FiniteOL) -> OMLFlag:
    for x in L.elements():
        for y in L.elements():
            if L.leq(x, y) and L.join(x, L.meet(L.ortho(x), y)) != y:
                return OMLFlag(False, (x, y))
    return OMLFlag(True)


def is_distributive_subset(L: FiniteOL, elems) -> bool:
    elems = list(elems)
    for a in elems:
        for b in elems:
            for c in elems:
                if L.meet(a, L.join(b, c)) != L.join(L.meet(a, b),
                                                     L.meet(a, c)):
                    return False
    return True


def is_subalgebra(L: FiniteOL, elems) -> bool:
    s = set(elems)
    if L.zero not in s or L.one not in s:
        return False
    for x in s:
        if L.ortho(x) not in s:
            return False
        for y in s:
            if L.meet(x, y) not in s or L.join(x, y) not in s:
                return False
    return True


def blocks(L: FiniteOL):
    n = L.n
    adj = [set() for _ in range(n)]
    for x in range(n):
        for y in range(n):
            if x != y and commutes(L, x, y) and commutes(L, y, x):
                adj[x].add(y)
    cliques = []

    def bron_kerbosch(r, p, x):
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(adj[v] & p))
        for v in sorted(p - adj[pivot]):
            bron_kerbosch(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bron_kerbosch(set(), set(range(n)), set())
    result = [c for c in cliques if is_subalgebra(L, c)
              and is_distributive_subset(L, c)]
    return sorted(result, key=lambda s: sorted(s))


def check_quantifier(L: FiniteOL, e: UnaryMap) -> QuantifierReport:
    if len(e.map) != L.n:
        raise ValueError("map is not total on the lattice")
    st = {}

    def record(name, witness):
        if name not in st:
            st[name] = (False, witness)

    if e(L.zero) != L.zero:
        record("Q1", (L.zero,))
    for p in L.elements():
        if not L.leq(p, e(p)):
            record("Q2", (p,))
            break
    for p in L.elements():
        for q in L.elements():
            if e(L.join(p, q)) != L.join(e(p), e(q)):
                record("Q3", (p, q))
                break
        if "Q3" in st:
            break
    for p in L.elements():
        if e(e(p)) != e(p):
            record("Q4", (p,))
            break
    for p in L.elements():
        if e(L.ortho(e(p))) != L.ortho(e(p)):
            record("Q5", (p,))
            break
    for p in L.elements():
        for q in L.elements():
            if e(L.meet(p, e(q))) != L.meet(e(p), e(q)):
                record("Q6", (p, q))
                break
        if "Q6" in st:
            break
    for a in ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6"):
        st.setdefault(a, (True, None))
    return QuantifierReport(st)


def quantifier_from_subalgebra(L: FiniteOL, S) -> UnaryMap:
    S = frozenset(S)
    if not is_subalgebra(L, S):
        raise NotApproximatingError("input is not a subalgebra of the lattice")
    out = []
    for a in L.elements():
        above = [s for s in S if L.leq(a, s)]
        m = above[0]
        for s in above[1:]:
            m = L.meet(m, s)
        if m not in above:
            raise NotApproximatingError(
                "element %s has no least cover in S" % L.label(a))
        out.append(m)
    return UnaryMap(L, tuple(out))


def check_closure_lemma(F: Orthoframe, R, subsets=None,
                        rng: random.Random | None = None,
                        samples: int = 200) -> bool:
    if subsets is None:
        if F.n <= 12:
            subsets = range(1 << F.n)
        else:
            rng = rng or random.Random(0)
            subsets = [rng.randrange(1 << F.n) for _ in range(samples)]
    for a in subsets:
        ra = image(R, a)
        s = orthocomplement(F, ra)
        if image(R, s) & ~s:
            return False
        t = orthocomplement(F, s)
        if image(R, t) & ~t:
            return False
        if image(R, biortho(F, a)) & ~biortho(F, ra):
            return False
    return True


def _bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def closed_set_lattice(F: Orthoframe,
                       max_elements: int = DEFAULT_MAX_ELEMENTS):
    masks = frames.closed_sets(F, max_elements)
    index = {m: k for k, m in enumerate(masks)}

    def label(m):
        return "{" + ",".join(str(F.points[i]) for i in _bits(m)) + "}"

    def join_mask(a, b):
        return orthocomplement(
            F, orthocomplement(F, a) & orthocomplement(F, b))

    labels = tuple(label(m) for m in masks)
    meet_t = tuple(tuple(index[a & b] for b in masks) for a in masks)
    join_t = tuple(tuple(index[join_mask(a, b)] for b in masks)
                   for a in masks)
    ortho_t = tuple(index[orthocomplement(F, a)] for a in masks)
    L = FiniteOL(labels, meet_t, join_t, ortho_t, index[0], index[F.full])
    return L, tuple(masks)


def monadic_closed_set_structure(F: Orthoframe, R,
                                 max_elements: int = DEFAULT_MAX_ELEMENTS):
    L, masks = closed_set_lattice(F, max_elements)
    index = {m: k for k, m in enumerate(masks)}
    e = UnaryMap(L, tuple(index[exists_R(F, R, m)] for m in masks))
    return L, e, masks


def cover_pairs(L: FiniteOL):
    """formats._cover_pairs as first written."""
    out = []
    for x in L.elements():
        for y in L.elements():
            if x == y or not L.leq(x, y):
                continue
            if any(L.leq(x, z) and L.leq(z, y) and z not in (x, y)
                   for z in L.elements()):
                continue
            out.append([x, y])
    return out


def greechie_lattice(atom_blocks, *, max_elements=DEFAULT_MAX_ELEMENTS) -> FiniteOL:
    """Paste Boolean blocks given as lists of atom tokens.

    Blocks are glued at 0 and 1; atoms with equal tokens are identified and
    the orthocomplement of an atom within a block is the join of the block's
    remaining atoms.  Raises LatticeError when the pasted order is not a
    lattice.
    """
    atom_blocks = [tuple(str(t) for t in blk) for blk in atom_blocks]
    for blk in atom_blocks:
        if len(blk) < 2 or len(set(blk)) != len(blk):
            raise LatticeError("block %r must list distinct atoms" % (blk,))

    def key_of(bi, subset):
        blk = atom_blocks[bi]
        if len(subset) == 1:
            return ("atom", next(iter(subset)))
        if len(subset) == len(blk) - 1:
            (missing,) = set(blk) - subset
            return ("co", missing)
        return ("mid", bi, frozenset(subset))

    keys = [("zero",), ("one",)]
    seen = {("zero",): 0, ("one",): 1}

    def intern(k):
        if k not in seen:
            seen[k] = len(keys)
            keys.append(k)
        return seen[k]

    pairs = []
    ortho = {0: 1, 1: 0}
    for bi, blk in enumerate(atom_blocks):
        subsets = []
        for r in range(1, len(blk)):
            subsets += [frozenset(c) for c in combinations(blk, r)]
        ids = {s: intern(key_of(bi, s)) for s in subsets}
        for s in subsets:
            pairs.append((0, ids[s]))
            pairs.append((ids[s], 1))
            comp = frozenset(blk) - s
            ortho[ids[s]] = ids[comp] if comp in ids else 1
        for s in subsets:
            for t in subsets:
                if s < t:
                    pairs.append((ids[s], ids[t]))

    labels = []
    for k in keys:
        if k == ("zero",):
            labels.append("0")
        elif k == ("one",):
            labels.append("1")
        elif k[0] == "atom":
            labels.append(k[1])
        elif k[0] == "co":
            labels.append(k[1] + "'")
        else:
            labels.append("|".join(sorted(k[2])) + "@%d" % k[1])
    L = ol_from_leq(labels, pairs, [ortho[i] for i in range(len(keys))],
                    max_elements=max_elements)
    return L


def enumerate_greechie_diagrams(max_blocks: int):
    """Deterministic stream of 3-atom-block diagrams, by block count then
    lexicographic extension order.  Atoms are integers assigned in order of
    first use; a new block shares at most one existing atom."""
    def extensions(blocks, natoms):
        opts = [(shared, natoms, natoms + 1) for shared in range(natoms)]
        opts.append((natoms, natoms + 1, natoms + 2))
        return opts

    def gen(k):
        if k == 1:
            yield [(0, 1, 2)]
            return
        for shorter in gen(k - 1):
            natoms = 1 + max(a for blk in shorter for a in blk)
            for blk in extensions(shorter, natoms):
                yield shorter + [blk]

    for k in range(1, max_blocks + 1):
        yield from gen(k)
