"""Monadic structure on finite ortholattices.

Quantifier axiom checking, the correspondence with approximating
subalgebras, the Boolean equivalence lemma for the extra axiom Q6 and the
counterexample search for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice as lat
from .lattice import FiniteOL


class NotApproximatingError(ValueError):
    """The given element set is not a subalgebra / fails approximation."""


class NotBooleanError(ValueError):
    pass


@dataclass(frozen=True)
class UnaryMap:
    base: FiniteOL  # FiniteOL compares by identity, so == needs the same base
    map: tuple

    def __call__(self, x: int) -> int:
        return self.map[x]


@dataclass
class QuantifierReport:
    status: dict  # axiom -> (ok, witness or None)

    @property
    def is_quantifier(self) -> bool:
        return all(ok for a, (ok, _) in self.status.items() if a != "Q6")

    def ok(self, axiom: str) -> bool:
        return self.status[axiom][0]


@dataclass
class CheckReport:
    status: dict  # axiom or condition name -> (ok, witness or None)

    @property
    def ok(self) -> bool:
        return all(v[0] for v in self.status.values())

    def failed(self):
        return sorted(k for k, v in self.status.items() if not v[0])


def first_failure_report(report, found: dict):
    """The report (QuantifierReport or CheckReport) of the map found from
    each condition to its first failing witness, or None where it holds.
    A witness is never None, so None always means the condition holds."""
    return report({name: (w is None, w) for name, w in found.items()})


def quantifier_laws(L: FiniteOL, e: UnaryMap):
    """Q1-Q6 in order as (law, first failing witness or None): the first p,
    and for Q3 and Q6 the first q, in element order.  Q1-Q5 make a
    quantifier; Q6, Halmos's extra law, is evaluated only if read."""
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

    yield "Q1", (L.zero,) if em[L.zero] != L.zero else None
    yield "Q2", first(M[p][x] != p for p, x in enumerate(em))
    # e(p v q) == e p v e q
    yield "Q3", first_pair(([em[y] for y in jp], [jep[y] for y in em])
                           for jp, jep in zip(J, (J[x] for x in em)))
    yield "Q4", first(em[x] != x for x in em)
    yield "Q5", first(em[o[x]] != o[x] for x in em)
    # e(p ^ e q) == e p ^ e q
    yield "Q6", first_pair(([em[mp[y]] for y in em], [mep[y] for y in em])
                           for mp, mep in zip(M, (M[x] for x in em)))


def check_quantifier(L: FiniteOL, e: UnaryMap) -> QuantifierReport:
    """Exhaustive evaluation of Q1-Q6 with witnesses for failures."""
    return first_failure_report(QuantifierReport, dict(quantifier_laws(L, e)))


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


def check_lemma_q6_boolean(B: FiniteOL, e: UnaryMap) -> bool:
    """On a Boolean base, {Q1,Q2,Q6} and {Q1..Q5} must be equivalent for
    any unary map; returns the truth of that biconditional for e."""
    full = (1 << B.n) - 1
    for x, c in enumerate(lat.commutation(B)):
        if c != full:  # with the first y that x does not commute with
            raise NotBooleanError("elements %s,%s do not commute" % (
                B.label(x), B.label(lat.bits(full & ~c)[0])))
    r = check_quantifier(B, e)
    short = r.ok("Q1") and r.ok("Q2") and r.ok("Q6")
    return short == r.is_quantifier


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


def find_q6_counterexample(max_blocks: int = 4):
    """First OML + Boolean subalgebra + (p,q) with E(p ^ E q) = 0 while
    E p ^ E q != 0, under the deterministic diagram enumeration."""
    for diagram in lat.enumerate_greechie_diagrams(max_blocks):
        named = [tuple("a%s" % a for a in blk) for blk in diagram]
        L = lat.greechie_lattice(named)
        M, z = L.meet_t, L.zero
        for S in lat.blocks(L):
            em = quantifier_from_subalgebra(L, S).map
            # the first (p, q) with e(p ^ e q) = 0 and e p ^ e q != 0
            pq = next(((p, q) for p, ep in enumerate(em)
                       for q, eq in enumerate(em)
                       if em[M[p][eq]] == z and M[ep][eq] != z), None)
            if pq is not None:
                return Q6Witness(tuple(tuple(b) for b in diagram), L, S, *pq)
    return None
