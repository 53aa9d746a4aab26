"""Finite ortholattice kernel.

A FiniteOL stores elements by index with full meet/join tables computed at
construction; values are immutable and every operation is a pure function.
The order is also kept as Python-int bitmasks, one per element: bit y of
down[x] is set iff y <= x, and bit y of up[x] iff x <= y.  Order checks,
quantifiers, blocks and frames work on these masks and on whole table rows
rather than on one pair at a time.  Builders for the canonical small
structures (chains, Boolean algebras, O6, MO(n), Greechie pastings) live
here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

DEFAULT_MAX_ELEMENTS = 512


class LatticeError(ValueError):
    """Structural problem: not a lattice, missing bounds, bad tables."""


class SizeGuardError(ValueError):
    """Input exceeds the configured element-count bound."""


def bits(mask: int) -> list:
    """The indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def image(R, a: int) -> int:
    """The union of the rows R[i] over the set bits i of a."""
    out = 0
    for i in bits(a):
        out |= R[i]
    return out


def transitive_closure(rows) -> list:
    """Close the relation with row masks rows (bit j of rows[i] set iff
    i R j) under transitivity in place, by Warshall's algorithm."""
    for k, rk in enumerate(rows):
        for i, ri in enumerate(rows):
            if ri >> k & 1:
                rows[i] = ri | rk
    return rows


def converse(rows):
    """The converse relation: bit i of out[j] is set iff bit j of rows[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            out[j] |= 1 << i
    return out


@dataclass(frozen=True, eq=False)
class FiniteOL:
    """Finite bounded lattice with an orthocomplementation table.

    The ortho table is not validated at construction (validate_ortholattice
    reports on it); lattice-hood of meet/join is guaranteed by construction.
    """

    labels: tuple
    meet_t: tuple
    join_t: tuple
    ortho_t: tuple
    zero: int
    one: int

    _masks = None  # (down, up), derived from meet_t on first use; not a field

    def masks(self):
        """(down, up): bit y of down[x] is set iff y <= x, and bit y of
        up[x] iff x <= y."""
        if self._masks is None:
            up = [sum(1 << y for y, m in enumerate(row) if m == x)
                  for x, row in enumerate(self.meet_t)]  # as in leq
            object.__setattr__(self, "_masks",
                               (tuple(converse(up)), tuple(up)))
        return self._masks

    @property
    def n(self) -> int:
        return len(self.labels)

    def elements(self):
        return range(len(self.labels))

    def meet(self, x: int, y: int) -> int:
        return self.meet_t[x][y]

    def join(self, x: int, y: int) -> int:
        return self.join_t[x][y]

    def ortho(self, x: int) -> int:
        return self.ortho_t[x]

    def leq(self, x: int, y: int) -> bool:
        return self.meet_t[x][y] == x

    def down(self, x: int):
        return bits(self.masks()[0][x])

    def label(self, x: int) -> str:
        return self.labels[x]


# ---------------------------------------------------------------------------
# construction


def _check_size(n: int, max_elements: int):
    if n > max_elements:
        raise SizeGuardError("lattice has %d elements, guard is %d"
                             % (n, max_elements))


def ol_from_leq(labels, leq_pairs, ortho, *,
                max_elements=DEFAULT_MAX_ELEMENTS):
    """Build a FiniteOL from an order relation given as index pairs.

    The pairs may be covers (a Hasse diagram) or the full order: either
    way they are closed reflexively and transitively.  Raises LatticeError
    when the relation is not a lattice order with global bounds, naming a
    witness pair: the first in row-major order, meet tried before join.
    """
    n = len(labels)
    if n == 0:
        raise LatticeError("empty element set")
    _check_size(n, max_elements)
    up = [1 << i for i in range(n)]
    for i, j in leq_pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise LatticeError("relation pair (%d,%d) out of range" % (i, j))
        up[i] |= 1 << j
    down = converse(transitive_closure(up))
    for i in range(n):
        both = up[i] & down[i] & ~(1 << i)
        if both:
            raise LatticeError("order not antisymmetric at (%d,%d)"
                               % (i, bits(both)[0]))
    full = (1 << n) - 1
    bottoms = [i for i in range(n) if up[i] == full]
    tops = [i for i in range(n) if down[i] == full]
    if len(bottoms) != 1 or len(tops) != 1:
        raise LatticeError("global bounds missing or not unique")

    # the meet is the element whose down-set is the common lower bounds, the
    # join likewise on up-sets; the tables are symmetric, so the first pair
    # to fail in row-major order is one with index x <= y
    at_down = {d: i for i, d in enumerate(down)}
    at_up = {u: i for i, u in enumerate(up)}
    meet_t = [[0] * n for _ in range(n)]
    join_t = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            m = at_down.get(down[x] & down[y])
            if m is None:
                raise LatticeError("pair (%s,%s) has no meet"
                                   % (labels[x], labels[y]))
            j = at_up.get(up[x] & up[y])
            if j is None:
                raise LatticeError("pair (%s,%s) has no join"
                                   % (labels[x], labels[y]))
            meet_t[x][y] = meet_t[y][x] = m
            join_t[x][y] = join_t[y][x] = j

    ortho = tuple(ortho)
    if len(ortho) != n or not all(0 <= o < n for o in ortho):
        raise LatticeError("ortho table malformed")
    L = FiniteOL(tuple(labels), tuple(map(tuple, meet_t)),
                 tuple(map(tuple, join_t)), ortho, bottoms[0], tops[0])
    object.__setattr__(L, "_masks", (tuple(down), tuple(up)))
    return L


ol_from_covers = ol_from_leq


# ---------------------------------------------------------------------------
# axiom checking


@dataclass
class Violation:
    axiom: str
    witness: tuple


@dataclass
class ValidationReport:
    structural: list
    violations: list

    @property
    def ok(self) -> bool:
        return not self.structural and not self.violations


def validate_ortholattice(L: FiniteOL) -> ValidationReport:
    """Check the orthocomplementation axioms; lattice-hood is structural."""
    structural = []
    violations = []
    n = L.n
    for x in range(n):
        if L.ortho(L.ortho(x)) != x:
            structural.append(Violation("ortho_involution", (x,)))
    if structural:
        return ValidationReport(structural, violations)
    down, up = L.masks()
    o = L.ortho_t
    for x in range(n):
        for y in bits(up[x]):
            if not down[o[x]] >> o[y] & 1:
                violations.append(Violation("order_inverting", (x, y)))
    for x in range(n):
        if L.meet(x, L.ortho(x)) != L.zero:
            violations.append(Violation("meet_complement", (x,)))
        if L.join(x, L.ortho(x)) != L.one:
            violations.append(Violation("join_complement", (x,)))
    return ValidationReport(structural, violations)


@dataclass
class OMLFlag:
    is_oml: bool
    witness: tuple | None = None


def check_orthomodular(L: FiniteOL) -> OMLFlag:
    """x <= y must force x v (x' ^ y) = y."""
    up = L.masks()[1]
    for x in L.elements():
        jx, mox = L.join_t[x], L.meet_t[L.ortho_t[x]]
        for y in bits(up[x]):
            if jx[mox[y]] != y:
                return OMLFlag(False, (x, y))
    return OMLFlag(True)


def sasaki_product(L: FiniteOL, x: int, y: int) -> int:
    return L.meet(x, L.join(L.ortho(x), y))


def sasaki_hook(L: FiniteOL, x: int, y: int) -> int:
    return L.join(L.ortho(x), L.meet(x, y))


def is_distributive_subset(L: FiniteOL, elems) -> bool:
    """a ^ (b v c) == (a ^ b) v (a ^ c), compared for each a as one row
    over all pairs (b, c)."""
    elems = list(elems)
    M, J = L.meet_t, L.join_t
    bc = [J[b][c] for b in elems for c in elems]
    for a in elems:
        ma = M[a]
        ac = [ma[c] for c in elems]
        if [ma[x] for x in bc] != [J[u][v] for u in ac for v in ac]:
            return False
    return True


def close(start, unary=(), binary=(), limit=None, what="elements"):
    """The least superset of start closed under the given operations.

    A worklist: each element is visited once, in discovery order, and each
    unordered pair once, as op(elems[i], elems[j]) with j <= i.  Returns
    (elems, tables), one table per op, unary ops first: tables[k][i] is
    the index of unary op k on element i, and a binary op's table maps
    (j, i) to the index of its result.  Raises SizeGuardError as soon as
    more than limit elements are held.
    """
    elems, index = [], {}

    def push(x):
        k = index.get(x)  # one hash for an element already held
        if k is None:
            k = index[x] = len(elems)
            elems.append(x)
            if limit is not None and k >= limit:
                raise SizeGuardError("closure exceeded %d %s" % (limit, what))
        return k

    for x in start:
        push(x)
    tables = [[] for _ in unary] + [{} for _ in binary]
    for i, a in enumerate(elems):  # elems grows while it is walked
        for op, tab in zip(unary, tables):
            tab.append(push(op(a)))
        for op, tab in zip(binary, tables[len(unary):]):
            for j in range(i + 1):
                tab[(j, i)] = push(op(a, elems[j]))
    return elems, tables


def subalgebra_closure(L: FiniteOL, seed) -> frozenset:
    elems, _ = close([L.zero, L.one, *seed], [L.ortho], [L.meet, L.join])
    return frozenset(elems)


def is_subalgebra(L: FiniteOL, elems) -> bool:
    s = set(elems)
    if L.zero not in s or L.one not in s:
        return False
    return all(L.ortho_t[x] in s
               and s.issuperset([L.meet_t[x][y] for y in s])
               and s.issuperset([L.join_t[x][y] for y in s]) for x in s)


def all_subalgebras(L: FiniteOL):
    """Every subalgebra of L, found by closure-driven search."""
    def adjoin(x):
        return lambda s: s if x in s else subalgebra_closure(L, s | {x})

    subs, _ = close([subalgebra_closure(L, ())],
                    [adjoin(x) for x in L.elements()])
    return sorted(subs, key=lambda s: (len(s), sorted(s)))


def commutation(L: FiniteOL) -> list:
    """Bit y of the x-th mask is set iff x commutes with y, that is
    x = (x ^ y) v (x ^ y').  The relation is symmetric in an OML, and an
    OML is Boolean iff every mask is full."""
    J, o = L.join_t, L.ortho_t
    return [sum(1 << y for y, m in enumerate(mx) if J[m][mx[o[y]]] == x)
            for x, mx in enumerate(L.meet_t)]


def blocks(L: FiniteOL):
    """The blocks (maximal Boolean subalgebras) of an OML: exactly the
    maximal sets of pairwise-commuting elements, so the maximal cliques of
    the commutation graph (Kalmbach, Orthomodular Lattices, 1983).  Raises
    LatticeError unless L is an orthomodular ortholattice."""
    if not (validate_ortholattice(L).ok and check_orthomodular(L).is_oml):
        raise LatticeError("blocks need an orthomodular lattice")
    adj = [c & ~(1 << x) for x, c in enumerate(commutation(L))]
    cliques = []

    def bron_kerbosch(r, p, x):
        if not p | x:
            cliques.append(frozenset(bits(r)))
            return
        pivot = max(bits(p | x), key=lambda v: (adj[v] & p).bit_count())
        for v in bits(p & ~adj[pivot]):
            bron_kerbosch(r | 1 << v, p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    bron_kerbosch(0, (1 << L.n) - 1, 0)
    return sorted(cliques, key=sorted)


# ---------------------------------------------------------------------------
# builders


def boolean_algebra(n_atoms: int, *, max_elements=DEFAULT_MAX_ELEMENTS) -> FiniteOL:
    """Powerset of n_atoms atoms; element index == subset bitmask."""
    n = 1 << n_atoms
    if n > max_elements:
        raise SizeGuardError("Boolean algebra with %d elements" % n)
    full = n - 1
    labels = tuple("{%s}" % ",".join(str(i) for i in range(n_atoms)
                                     if m >> i & 1) for m in range(n))
    meet_t = tuple(tuple(x & y for y in range(n)) for x in range(n))
    join_t = tuple(tuple(x | y for y in range(n)) for x in range(n))
    ortho_t = tuple(full ^ x for x in range(n))
    return FiniteOL(labels, meet_t, join_t, ortho_t, 0, full)


def o6() -> FiniteOL:
    """The hexagon: 0 < a < b < 1 and 0 < b' < a' < 1."""
    labels = ("0", "a", "b", "b'", "a'", "1")
    pairs = [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)]
    return ol_from_covers(labels, pairs, (5, 4, 3, 2, 1, 0))


def chain4_identity_ortho() -> FiniteOL:
    """4-chain with the identity as 'ortho'; fails the ortho axioms."""
    return ol_from_covers(("0", "a", "b", "1"), [(0, 1), (1, 2), (2, 3)],
                          (0, 1, 2, 3))


def mo(n: int) -> FiniteOL:
    """Horizontal sum of n four-element Boolean algebras (MO_n)."""
    labels = ["0"]
    for i in range(n):
        labels += ["a%d" % (i + 1), "a%d'" % (i + 1)]
    labels.append("1")
    one = len(labels) - 1
    pairs = [(0, k) for k in range(1, one + 1)] + \
            [(k, one) for k in range(1, one)]
    ortho = [one]
    for i in range(n):
        ortho += [2 * i + 2, 2 * i + 1]
    ortho.append(0)
    return ol_from_leq(labels, pairs, ortho)


# ---------------------------------------------------------------------------
# Greechie pastings


def greechie_lattice(atom_blocks, *, max_elements=DEFAULT_MAX_ELEMENTS) -> FiniteOL:
    """Paste Boolean blocks given as lists of atom tokens.

    Blocks are glued at 0 and 1; atoms with equal tokens are identified,
    the orthocomplement of an atom within a block is the join of the
    block's remaining atoms, and a block listed again adds nothing.  Raises
    LatticeError when two blocks give an atom different complements (a
    2-atom block complements it by an atom, a larger one by the join of the
    rest) or the pasted order is not a lattice.
    """
    first = {}  # atom set -> (index, atoms) of its first listing
    for bi, blk in enumerate(atom_blocks):
        blk = tuple(str(t) for t in blk)
        if len(blk) < 2 or len(set(blk)) != len(blk):
            raise LatticeError("block %r must list distinct atoms" % (blk,))
        first.setdefault(frozenset(blk), (bi, blk))
    # complements (only an atom's can clash) and size come from the tokens,
    # before any k-atom block's 2^k elements: each atom, its coatom t' when
    # that is its complement, and 2^k - 2 - 2k elements of the block's own
    comp = {}
    for _, blk in first.values():
        for t in blk:
            other = blk[blk[0] == t]  # its complement in a 2-atom block
            c = (other, "atom") if len(blk) == 2 else (t + "'", "co")
            if comp.setdefault(t, c) != c:
                raise LatticeError("atom %r has two complements, %r and %r"
                                   % (t, comp[t][0], c[0]))
    _check_size(2 + sum(1 + (kind == "co") for _, kind in comp.values())
                + sum((1 << len(b)) - 2 - 2 * len(b)
                      for _, b in first.values() if len(b) > 2), max_elements)

    index, labels = {}, []

    def intern(key, label):
        if key not in index:
            index[key] = len(labels)
            labels.append(label)
        return index[key]

    intern("zero", "0")
    intern("one", "1")
    pairs = []
    ortho = {0: 1, 1: 0}
    for bi, blk in first.values():  # bi labels the inner elements
        ids = {}
        for r in range(1, len(blk)):
            for c in combinations(blk, r):
                s = frozenset(c)
                if r == 1:
                    ids[s] = intern(("atom", c[0]), c[0])
                elif r == len(blk) - 1:
                    (t,) = set(blk) - s
                    ids[s] = intern(("co", t), t + "'")
                else:
                    ids[s] = intern(("mid", bi, s),
                                    "|".join(sorted(s)) + "@%d" % bi)
        for s, i in ids.items():
            pairs.append((0, i))
            pairs.append((i, 1))
            ortho[i] = ids[frozenset(blk) - s]
        for s in ids:
            for t in ids:
                if s < t:
                    pairs.append((ids[s], ids[t]))

    return ol_from_leq(labels, pairs, [ortho[i] for i in range(len(labels))],
                       max_elements=max_elements)


def enumerate_greechie_diagrams(max_blocks: int):
    """Deterministic stream of 3-atom-block diagrams, by block count then
    lexicographic extension order.  Atoms are integers assigned in order of
    first use, so the last block holds the largest; a new block shares at
    most one existing atom.  Each level is extended from the one before."""
    level = [[(0, 1, 2)]]
    for k in range(1, max_blocks + 1):
        yield from level
        if k < max_blocks:
            level = [d + [(a, n, n + 1) if a < n else (n, n + 1, n + 2)]
                     for d in level for n in (d[-1][-1] + 1,)
                     for a in range(n + 1)]
