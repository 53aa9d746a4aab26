"""Monadic structure on finite ortholattices.

Quantifier axiom checking, the correspondence with approximating
subalgebras, residuation, p-ideal/congruence machinery, interval algebras
and the counterexample search for the extra axiom Q6.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice as lat
from .lattice import FiniteOL


class NotApproximatingError(ValueError):
    """The given element set is not a subalgebra / fails approximation."""


class NotBooleanError(ValueError):
    pass


class NotAnIdealError(ValueError):
    pass


class FixpointRequiredError(ValueError):
    """Operation needs an element a with E a = a."""


@dataclass(frozen=True, eq=False)
class UnaryMap:
    base: FiniteOL
    map: tuple

    def __call__(self, x: int) -> int:
        return self.map[x]

    def __eq__(self, other):
        return isinstance(other, UnaryMap) and self.base is other.base \
            and self.map == other.map

    def __hash__(self):
        return hash((id(self.base), self.map))


AXIOMS = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")


@dataclass
class QuantifierReport:
    status: dict  # axiom -> (ok, witness or None)

    @property
    def is_quantifier(self) -> bool:
        return all(self.status[a][0] for a in ("Q1", "Q2", "Q3", "Q4", "Q5"))

    def ok(self, axiom: str) -> bool:
        return self.status[axiom][0]

    def witness(self, axiom: str):
        return self.status[axiom][1]


def check_quantifier(L: FiniteOL, e: UnaryMap) -> QuantifierReport:
    """Exhaustive evaluation of Q1-Q6 with witnesses for failures: the
    first p, and for Q3 and Q6 the first q, in element order."""
    if len(e.map) != L.n:
        raise ValueError("map is not total on the lattice")
    em, M, J, o = e.map, L.meet_t, L.join_t, L.ortho_t

    def first(bad):
        return next(((p,) for p, b in enumerate(bad) if b), None)

    def first_pair(rows):
        # rows yields the two sides of the axiom at each p, as rows over q
        for p, (lhs, rhs) in enumerate(rows):
            if lhs != rhs:
                return p, next(q for q, a in enumerate(lhs) if a != rhs[q])
        return None

    found = {
        "Q1": (L.zero,) if em[L.zero] != L.zero else None,
        "Q2": first(M[p][x] != p for p, x in enumerate(em)),
        # e(p v q) == e p v e q
        "Q3": first_pair(([em[y] for y in jp], [jep[y] for y in em])
                         for jp, jep in zip(J, (J[x] for x in em))),
        "Q4": first(em[x] != x for x in em),
        "Q5": first(em[o[x]] != o[x] for x in em),
        # e(p ^ e q) == e p ^ e q
        "Q6": first_pair(([em[mp[y]] for y in em], [mep[y] for y in em])
                         for mp, mep in zip(M, (M[x] for x in em))),
    }
    return QuantifierReport({a: (found[a] is None, found[a])
                             for a in AXIOMS})


def quantifier_from_subalgebra(L: FiniteOL, S) -> UnaryMap:
    """The least-upper-approximation map of a subalgebra S."""
    S = frozenset(S)
    if not lat.is_subalgebra(L, S):
        raise NotApproximatingError("input is not a subalgebra of the lattice")
    # S is closed under meet, so the meet of S above a lies in S and has the
    # smallest down-set there: the first s to cover a by down-set size
    down = L.masks()[0]
    out = [0] * L.n
    left = (1 << L.n) - 1
    for s in sorted(S, key=lambda s: down[s].bit_count()):
        for a in lat.bits(down[s] & left):
            out[a] = s
        left &= ~down[s]
    return UnaryMap(L, tuple(out))


def fixpoint_subalgebra(e: UnaryMap) -> frozenset:
    """Image of a quantifier; the approximating subalgebra it comes from."""
    return frozenset(e.map)


def forall_from_exists(e: UnaryMap) -> UnaryMap:
    L = e.base
    return UnaryMap(L, tuple(L.ortho(e(L.ortho(a))) for a in L.elements()))


@dataclass
class ResiduationResult:
    holds: bool
    witness: tuple | None = None


def check_residuation(L: FiniteOL, e: UnaryMap) -> ResiduationResult:
    """E a <= b iff a <= A b, over all pairs."""
    f = forall_from_exists(e)
    for a in L.elements():
        for b in L.elements():
            if L.leq(e(a), b) != L.leq(a, f(b)):
                return ResiduationResult(False, (a, b))
    return ResiduationResult(True)


def check_lemma_q6_boolean(B: FiniteOL, e: UnaryMap) -> bool:
    """On a Boolean base, {Q1,Q2,Q6} and {Q1..Q5} must be equivalent for
    any unary map; returns the truth of that biconditional for e."""
    for x in B.elements():
        for y in B.elements():
            if not lat.commutes(B, x, y):
                raise NotBooleanError("elements %s,%s do not commute"
                                      % (B.label(x), B.label(y)))
    r = check_quantifier(B, e)
    short = r.ok("Q1") and r.ok("Q2") and r.ok("Q6")
    return short == r.is_quantifier


# ---------------------------------------------------------------------------
# p-ideals and congruences


def is_p_ideal(L: FiniteOL, members, e: UnaryMap | None = None):
    """Check the ideal conditions; returns (ok, witness, exists_closed)."""
    I = frozenset(members)
    if L.zero not in I:
        return False, ("missing_zero", L.zero), False
    for a in I:
        for b in L.down(a):
            if b not in I:
                return False, ("not_downward_closed", (a, b)), False
    for a in I:
        for b in I:
            if L.join(a, b) not in I:
                return False, ("not_join_closed", (a, b)), False
    for a in I:
        for b in L.elements():
            if L.meet(b, L.join(a, L.ortho(b))) not in I:
                return False, ("p_condition", (a, b)), False
    eclosed = True
    if e is not None:
        eclosed = all(e(a) in I for a in I)
    return True, None, eclosed


def congruence_from_ideal(L: FiniteOL, members):
    """Partition induced by x ~ y iff x v a = y v a for some a in I."""
    ok, wit, _ = is_p_ideal(L, members)
    if not ok:
        raise NotAnIdealError("not a p-ideal: %r" % (wit,))
    I = frozenset(members)
    n = L.n
    related = [[False] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            related[x][y] = any(L.join(x, a) == L.join(y, a) for a in I)
    # partition from the relation (it is an equivalence for p-ideals)
    classes = []
    assigned = {}
    for x in range(n):
        if x in assigned:
            continue
        cls = frozenset(y for y in range(n) if related[x][y])
        for y in cls:
            assigned[y] = len(classes)
        classes.append(cls)
    return tuple(classes)


def is_congruence(L: FiniteOL, partition, e: UnaryMap | None = None) -> bool:
    cls = {}
    for k, c in enumerate(partition):
        for x in c:
            cls[x] = k
    for x in L.elements():
        for y in L.elements():
            if cls[x] != cls[y]:
                continue
            if cls[L.ortho(x)] != cls[L.ortho(y)]:
                return False
            if e is not None and cls[e(x)] != cls[e(y)]:
                return False
            for z in L.elements():
                if cls[L.meet(x, z)] != cls[L.meet(y, z)]:
                    return False
                if cls[L.join(x, z)] != cls[L.join(y, z)]:
                    return False
    return True


# ---------------------------------------------------------------------------
# commutant closures and interval algebras


def relative_commutant_closure(L: FiniteOL, e: UnaryMap, a: int) -> frozenset:
    """C(a) = everything commuting with a; requires E a = a so that C(a)
    is closed under E."""
    if e(a) != a:
        raise FixpointRequiredError("element %s is not a fixpoint" % L.label(a))
    return frozenset(x for x in L.elements() if lat.commutes(L, a, x))


@dataclass
class IntervalAlgebra:
    lattice: FiniteOL
    exists: UnaryMap
    carrier: tuple  # element indices of the ambient lattice, in order
    product_iso_verified: bool


def interval_algebra(L: FiniteOL, e: UnaryMap, a: int) -> IntervalAlgebra:
    """The monadic structure on [0,a] with x# = a ^ x', plus verification
    that C(a) factors as [0,a] x [0,a']."""
    if e(a) != a:
        raise FixpointRequiredError("element %s is not a fixpoint" % L.label(a))
    sub = _interval_ol(L, a)
    emap = tuple(sub.index[e(x)] if e(x) in sub.index else None
                 for x in sub.carrier)
    # E maps [0,a] into itself because E a = a
    assert all(v is not None for v in emap)
    ex = UnaryMap(sub.ol, tuple(emap))
    iso_ok = _verify_product_iso(L, e, a)
    return IntervalAlgebra(sub.ol, ex, sub.carrier, iso_ok)


@dataclass
class _SubOL:
    ol: FiniteOL
    carrier: tuple
    index: dict


def _interval_ol(L: FiniteOL, a: int) -> _SubOL:
    carrier = tuple(L.down(a))
    index = {x: i for i, x in enumerate(carrier)}
    labels = tuple(L.label(x) for x in carrier)
    meet_t = tuple(tuple(index[L.meet(x, y)] for y in carrier) for x in carrier)
    join_t = tuple(tuple(index[L.join(x, y)] for y in carrier) for x in carrier)
    ortho_t = tuple(index[L.meet(a, L.ortho(x))] for x in carrier)
    ol = FiniteOL(labels, meet_t, join_t, ortho_t, index[L.zero], index[a])
    return _SubOL(ol, carrier, index)


def _verify_product_iso(L: FiniteOL, e: UnaryMap, a: int) -> bool:
    """x -> (x ^ a, x ^ a') must be a monadic isomorphism from C(a) onto
    the product of the two interval algebras."""
    ca = sorted(x for x in L.elements() if lat.commutes(L, a, x))
    ao = L.ortho(a)
    pairs = {}
    for x in ca:
        key = (L.meet(x, a), L.meet(x, ao))
        if key in pairs:
            return False
        pairs[key] = x
    if len(pairs) != len(L.down(a)) * len(L.down(ao)):
        return False
    inv = pairs
    for (xa, xb) in inv:
        for (ya, yb) in inv:
            x, y = inv[(xa, xb)], inv[(ya, yb)]
            m = L.meet(x, y)
            if (L.meet(m, a), L.meet(m, ao)) != (L.meet(xa, ya), L.meet(xb, yb)):
                return False
            j = L.join(x, y)
            if (L.meet(j, a), L.meet(j, ao)) != (L.join(xa, ya), L.join(xb, yb)):
                return False
    for (xa, xb) in inv:
        x = inv[(xa, xb)]
        # quantifier acts coordinatewise: E x ^ a == E(x ^ a) etc.
        if L.meet(e(x), a) != e(L.meet(x, a)):
            return False
        if L.meet(e(x), ao) != e(L.meet(x, ao)):
            return False
    return True


# ---------------------------------------------------------------------------
# Q6 counterexample search


@dataclass
class Q6Witness:
    diagram: tuple
    lattice: FiniteOL
    subalgebra: frozenset
    p: int
    q: int

    def summary(self):
        L = self.lattice
        return {
            "blocks": [list(b) for b in self.diagram],
            "subalgebra": sorted(L.label(s) for s in self.subalgebra),
            "p": L.label(self.p),
            "q": L.label(self.q),
        }


def find_q6_counterexample(max_blocks: int = 4, diagrams=None,
                           boolean_only: bool = False):
    """First OML + Boolean subalgebra + (p,q) with E(p ^ E q) = 0 while
    E p ^ E q != 0, under the deterministic diagram enumeration."""
    if diagrams is None:
        diagrams = lat.enumerate_greechie_diagrams(max_blocks)
    for diagram in diagrams:
        named = [tuple("a%s" % a for a in blk) for blk in diagram]
        try:
            L = lat.greechie_lattice(named)
        except lat.LatticeError:
            continue
        if not lat.validate_ortholattice(L).ok:
            continue
        if not lat.check_orthomodular(L).is_oml:
            continue
        if boolean_only and not all(
                lat.commutes(L, x, y)
                for x in L.elements() for y in L.elements()):
            continue
        for S in lat.blocks(L):
            e = quantifier_from_subalgebra(L, S)
            for p in L.elements():
                for q in L.elements():
                    lhs = e(L.meet(p, e(q)))
                    rhs = L.meet(e(p), e(q))
                    if lhs == L.zero and rhs != L.zero:
                        return Q6Witness(tuple(tuple(b) for b in diagram),
                                         L, S, p, q)
    return None
