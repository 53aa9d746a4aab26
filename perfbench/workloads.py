"""The three benchmark workloads: seeded inputs, jobs and exact checks.

A workload is a ``Workload`` with three functions:

* ``setup(seed, count)`` builds everything a run needs from the seed alone:
  shared prebuilt inputs (an algebra pool, the diagram list) and ``count``
  job inputs.  Job ``i`` depends only on the seed and ``i``, so a shorter
  list is a prefix of a longer one.
* ``job(inputs, i)`` runs job ``i`` through the public functions of
  ``omlkit`` and checks its result exactly.  It returns ``(ok, summary,
  counts)``: whether every check held, a canonical text of the result (for
  the result digest) and workload-level work counts for the traced run.
* ``describe(inputs, count)`` renders the first ``count`` job inputs as
  canonical text (for the input digest).

Each check is a theorem, so a fresh seed needs no stored answers.  The mix
of job shapes is fixed by the job index and only the values come from the
seed; that keeps the median and the tail inside one shape class on every
seed, so runs on different seeds are comparable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from omlkit import (cylindric, formats, frames, lattice, linalg as la,
                    matrixalg as ma, quantifiers as qu, subspaces as sp)
from omlkit.gq import GQ, format_gq


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    job: Callable
    describe: Callable
    inputs_per_run: int   # job inputs built for an untraced run
    trace_batch: int      # jobs in one pass of a traced run


def _mat_text(m) -> str:
    return "[" + ";".join(",".join(format_gq(x) for x in row) for row in m) + "]"


# ---------------------------------------------------------------------------
# closure: finite subspace closures in C^2 (x) C^2
#
# One seeded Gaussian-integer subspace per job: a line or a 3-space, by the
# parity of the job index.  An entangled line and its complement close to 12
# subspaces (8 when the line is symmetric).  Closures that never end run into
# the 128-element size guard after 2-3 s and measure only the guard, so
# inputs are drawn through an empirical filter that does not run the closure:
# three lines the closure contains must be entangled (see _closes_finitely).
# It is not proven sufficient.  It agreed with the guard on 700 random lines,
# and none of the first 120 inputs of seeds 1-20 (2,400 closures) reaches the
# guard.  A closure job that fails with SizeGuardError is therefore a filter
# miss, not a program defect, if the program's closure code is unchanged.
# Planes are left out because about 1 in 80 random planes exceeds the guard
# and no such test separates them; two generic generators always exceed it.

_LAYOUT = sp.TensorLayout((2, 2))
_CLOSURE_RANKS = (1, 3)
_ANTI = (GQ(0), GQ(1), GQ(-1), GQ(0))   # spans the complement of the diagonal


def _det(v):
    """Zero exactly when v is a product vector a (x) b."""
    return v[0] * v[3] - v[1] * v[2]


def _drop(x, y):
    """x minus its orthogonal projection on the line through y."""
    f = la.inner(y, x) / la.inner(y, y)
    return tuple(a - f * b for a, b in zip(x, y))


def _closes_finitely(s: sp.Subspace) -> bool:
    """Empirical filter, not a proof: see the comment above."""
    line = s if s.rank == 1 else sp.ortho(s)
    v = line.basis[0]
    # the line, its symmetric part, and the line orthogonal to it inside
    # span(v, anti) all appear in the closure
    return all(_det(x) for x in (v, _drop(v, _ANTI), _drop(_ANTI, v))
               if any(x))


def _gaussian_subspace(rng: random.Random, rank: int) -> sp.Subspace:
    while True:
        vecs = [[GQ(rng.randint(-2, 2), rng.randint(-2, 2))
                 for _ in range(_LAYOUT.dim)] for _ in range(rank)]
        s = sp.Subspace.from_vectors(_LAYOUT.dim, vecs)
        if s.rank == rank and _closes_finitely(s):
            return s


def closure_setup(seed: int, count: int):
    rng = random.Random("closure:%d" % seed)
    return [(_gaussian_subspace(rng, _CLOSURE_RANKS[i % 2]),)
            for i in range(count)]


def _same_cylindric(a, b) -> bool:
    la_, lb = a.base, b.base
    return (la_.labels == lb.labels and la_.meet_t == lb.meet_t
            and la_.join_t == lb.join_t and la_.ortho_t == lb.ortho_t
            and (la_.zero, la_.one) == (lb.zero, lb.one)
            and a.dims == b.dims and a.diagonals == b.diagonals
            and {i: m.map for i, m in a.cylindrifications.items()}
            == {i: m.map for i, m in b.cylindrifications.items()})


def closure_job(inputs, i):
    gens = inputs[i]
    C, subs = sp.as_cylindric_structure(_LAYOUT, gens)
    weak = cylindric.check_cylindric(C, "weak")
    full = cylindric.check_cylindric(C, "full")
    text = json.dumps(formats.dump_cylindric(C), sort_keys=True)
    back = formats.load_cylindric(json.loads(text))
    ok = (lattice.validate_ortholattice(C.base).ok
          and lattice.check_orthomodular(C.base).is_oml
          and weak.ok and _same_cylindric(C, back))
    summary = "%d|%s|%s" % (len(subs), ",".join(full.failed()), text)
    return ok, summary, {}


def closure_describe(inputs, count):
    return "\n".join(";".join(_mat_text(g.basis) for g in gens)
                     for gens in inputs[:count])


# ---------------------------------------------------------------------------
# algebra: expectations and quantifiers of *-subalgebras of M_3 and M_4
#
# A pool of sixteen algebras, generated by one or two seeded rank-one
# projections in M_3 or two in M_4, is built in setup; job i pairs
# pool[i % 16] with a fresh seeded rank-one projection.  Half the jobs use
# two projections in M_3, so the median job lies inside that class and is
# the median of many samples.  The M_4 jobs are the slowest quarter, and
# four different M_4 algebras share them, so the tail does not hang on one
# seeded algebra.  Degenerate draws (commuting generators) are redrawn so
# each pool slot has the same shape on every seed.

_POOL_SHAPES = ((3, 1), (3, 2), (4, 2), (3, 2)) * 4
_POOL_DIMS = {1: 2, 2: 5}   # dimension of the algebra of k generic projections


def algebra_setup(seed: int, count: int):
    rng = random.Random("algebra-pool:%d" % seed)
    pool = []
    for n, k in _POOL_SHAPES:
        while True:
            gens = [ma.random_rank_one_projection(n, rng) for _ in range(k)]
            N = ma.build_algebra(n, gens)
            if N.dim == _POOL_DIMS[k]:
                break
        pool.append(N)
    rng = random.Random("algebra:%d" % seed)
    jobs = [ma.random_rank_one_projection(pool[i % len(pool)].n, rng)
            for i in range(count)]
    return pool, jobs


def algebra_job(inputs, i):
    pool, jobs = inputs
    N = pool[i % len(pool)]
    p = jobs[i]
    e = ma.conditional_expectation(N, p)
    ex = ma.exists_alg(N, p)
    ok = (ma.check_exists_equals_range_of_expectation(N, p)
          and N.contains(e)
          and la.trace(e) == la.trace(p)
          and ma.psd_certificate(e).is_psd)
    return ok, _mat_text(e) + _mat_text(ex), {}


def algebra_describe(inputs, count):
    pool, jobs = inputs
    return "\n".join([";".join(_mat_text(b) for b in N.basis) for N in pool]
                     + [_mat_text(p) for p in jobs[:count]])


# ---------------------------------------------------------------------------
# oml: Greechie pastings and monadic frames, no Gaussian arithmetic
#
# Seven of every eight jobs paste a seeded diagram from the 30,948 diagrams of
# up to six 3-atom blocks.  Those diagrams are loop-free, so by Greechie's
# loop lemma every pasting must be an orthomodular lattice.  Every eighth job
# takes a fresh seeded monadic frame of 8-12 points instead.

_FRAME_EVERY = 8


def _diagram_text(diagram) -> str:
    return "\n".join(" ".join("a%d" % a for a in blk) for blk in diagram)


def oml_setup(seed: int, count: int):
    diagrams = list(lattice.enumerate_greechie_diagrams(6))
    rng = random.Random("oml:%d" % seed)
    jobs = []
    for i in range(count):
        if i % _FRAME_EVERY == _FRAME_EVERY - 1:
            n = 8 + (i // _FRAME_EVERY) % 5
            frame = None
            while frame is None:
                frame = frames.random_monadic_frame(n, rng)
            jobs.append(("frame", frame))
        else:
            jobs.append(("diagram",
                         _diagram_text(diagrams[rng.randrange(len(diagrams))])))
    return jobs


def _least_above_map(L, S):
    """x -> least element of S above x, found from the order alone (not
    through quantifier_from_subalgebra)."""
    S = sorted(S, key=lambda s: len(L.down(s)))
    return [next(s for s in S if L.leq(x, s)) for x in L.elements()]


def _diagram_job(text):
    L = formats.greechie_to_lattice(text)
    is_oml = lattice.check_orthomodular(L).is_oml
    ok = lattice.validate_ortholattice(L).ok and is_oml
    witnesses = 0
    parts = [str(L.n)]
    for S in lattice.blocks(L):
        e = qu.quantifier_from_subalgebra(L, S)
        rep = qu.check_quantifier(L, e)
        back = qu.fixpoint_subalgebra(e)
        ok = ok and rep.is_quantifier and back == S \
            and qu.quantifier_from_subalgebra(L, back).map == e.map
        found = [(p, q) for p in L.elements() for q in L.elements()
                 if e(L.meet(p, e(q))) == L.zero
                 and L.meet(e(p), e(q)) != L.zero]
        if found:
            # re-verify each witness from the subalgebra itself, and the
            # axiom checker must agree that Q6 fails
            up = _least_above_map(L, S)
            ok = ok and not rep.ok("Q6") and all(
                up[L.meet(p, up[q])] == L.zero
                and L.meet(up[p], up[q]) != L.zero for p, q in found)
        witnesses += len(found)
        parts.append("%d:%d" % (len(S), len(found)))
    counts = {"lattice.diagrams.tried": 1,
              "lattice.diagrams.oml": int(is_oml),
              "quantifiers.q6.witnesses": witnesses}
    return ok, "d" + "/".join(parts), counts


def _frame_job(frame):
    F, R = frame
    L, e, _ = frames.monadic_closed_set_structure(F, R)
    ok = (frames.check_monadic_frame(F, R).ok
          and frames.check_closure_lemma(F, R)
          and lattice.validate_ortholattice(L).ok
          and qu.check_quantifier(L, e).is_quantifier)
    return ok, "f%d/%s" % (L.n, ",".join(map(str, e.map))), {}


def oml_job(inputs, i):
    kind, data = inputs[i]
    return _diagram_job(data) if kind == "diagram" else _frame_job(data)


def oml_describe(inputs, count):
    return "\n".join(data if kind == "diagram" else repr(data)
                     for kind, data in inputs[:count])


WORKLOADS = {
    "closure": Workload("closure", closure_setup, closure_job,
                        closure_describe, inputs_per_run=600,
                        trace_batch=6),
    "algebra": Workload("algebra", algebra_setup, algebra_job,
                        algebra_describe, inputs_per_run=1200,
                        trace_batch=16),
    "oml": Workload("oml", oml_setup, oml_job, oml_describe,
                    inputs_per_run=16000, trace_batch=320),
}
