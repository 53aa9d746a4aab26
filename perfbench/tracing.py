"""In-memory span tracer for the benchmark's traced runs.

The tracer replaces module-level functions of ``omlkit`` with wrappers that
record one span per call (name, start, end, parent span, job id) and keep
per-function call counts, total time and self time.  Every alias of a
wrapped function inside the package is patched too, because callers reach
the same function under other names (``matrixalg.sub_meet`` is
``subspaces.meet``; ``cylindric`` imports ``check_quantifier`` by name).

``GQ`` and ``FiniteOL`` methods are deliberately left alone: they run
millions of times per job, so their cost shows up as the self time of the
``linalg`` and ``lattice`` spans that call them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

# module -> functions to wrap; "Class.method" names a static method
WRAPPED = {
    "linalg": ("rref", "nullspace", "matmul", "matvec", "inverse",
               "in_rowspace"),
    "subspaces": ("Subspace.from_vectors", "ortho", "join", "meet",
                  "exists_factor", "as_cylindric_structure"),
    "matrixalg": ("build_algebra", "commutant", "conditional_expectation",
                  "exists_alg", "invariant_closure", "projector_onto",
                  "psd_certificate"),
    "lattice": ("greechie_lattice", "ol_from_leq", "validate_ortholattice",
                "check_orthomodular", "blocks"),
    "quantifiers": ("quantifier_from_subalgebra", "check_quantifier",
                    "fixpoint_subalgebra"),
    "cylindric": ("check_cylindric",),
    "frames": ("closed_set_lattice", "check_monadic_frame",
               "check_closure_lemma"),
    "formats": ("greechie_to_lattice", "dump_cylindric", "load_cylindric"),
}

SPAN_NAMES = tuple("%s.%s" % (m, f) for m, fs in WRAPPED.items() for f in fs)

# deterministic work counters: name -> unit
COUNTERS = {
    "linalg.rref.rows_in": "count",
    "linalg.rref.rank_out": "count",
    "linalg.rref.max_bits": "bits",
    "subspaces.closure.size": "count",
    "subspaces.closure.ops": "count",
    "subspaces.closure.refused": "count",
    "lattice.diagrams.tried": "count",
    "lattice.diagrams.oml": "count",
    "quantifiers.q6.witnesses": "count",
}

_CLOSURE_OPS = ("subspaces.ortho", "subspaces.join", "subspaces.meet",
                "subspaces.exists_factor")


def _max_bits(rows) -> int:
    best = 0
    for row in rows:
        for x in row:
            for part in (x.re, x.im):
                best = max(best, part.numerator.bit_length(),
                           part.denominator.bit_length())
    return best


class Tracer:
    """Span recorder.  ``install`` patches the package, ``uninstall``
    restores it; aggregates cover the calls made since ``reset``."""

    def __init__(self):
        # span names first, then the two root kinds the benchmark opens
        self.names = list(SPAN_NAMES) + ["job", "setup"]
        self._nid = {n: i for i, n in enumerate(self.names)}
        self._closure_nid = self._nid["subspaces.as_cylindric_structure"]
        self._closure_ops = {self._nid[n] for n in _CLOSURE_OPS}
        self._patches = []
        self._guard_error = None   # the package's SizeGuardError, on install
        # spans of every traced pass, kept in memory until ``write``
        self.sp_name = array("H")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.sp_parent = array("l")
        self.sp_job = array("l")
        self.jobs = []      # job id -> label
        self._stack = []    # open spans: [span index, name id, child time]
        self.reset()

    def reset(self):
        n = len(SPAN_NAMES)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.root_time = 0.0      # summed duration of job spans
        self.root_covered = 0.0   # part of it inside wrapped child spans

    # -- spans -----------------------------------------------------------

    def _open(self, nid):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.sp_name)
        self.sp_name.append(nid)
        self.sp_parent.append(parent)
        self.sp_job.append(len(self.jobs) - 1)
        self.sp_start.append(0.0)
        self.sp_end.append(0.0)
        frame = [idx, nid, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, t0, t1):
        """Record a finished span; returns its child-covered time."""
        self._stack.pop()
        idx = frame[0]
        self.sp_start[idx] = t0
        self.sp_end[idx] = t1
        if self._stack:
            # the parent's self time excludes this span and the tracer's
            # bookkeeping after it
            self._stack[-1][2] += perf_counter() - t0
        return frame[2]

    def root(self, kind: str, label: str, fn, *args):
        """Run fn(*args) as a root span of the given kind ("job" or
        "setup"); job spans feed the uncovered-time share."""
        self.jobs.append(label)
        frame = self._open(self._nid[kind])
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            covered = self._close(frame, t0, t1)
            if kind == "job":
                self.root_time += t1 - t0
                self.root_covered += covered

    def count(self, counts: dict):
        for k, v in counts.items():
            self.counters[k] += v

    def _wrap(self, nid, fn):
        tracer = self
        is_rref = self.names[nid] == "linalg.rref"
        is_closure = nid == self._closure_nid
        closure_op = nid in self._closure_ops

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if closure_op and stack and stack[-1][1] == tracer._closure_nid:
                tracer.counters["subspaces.closure.ops"] += 1
            frame = tracer._open(nid)
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                if is_closure and isinstance(exc, tracer._guard_error):
                    tracer.counters["subspaces.closure.refused"] += 1
                raise
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                tracer.calls[nid] += 1
                tracer.total[nid] += dur
                tracer.self_time[nid] += dur - frame[2]
                if result is not None:
                    c = tracer.counters
                    if is_rref:
                        c["linalg.rref.rows_in"] += len(args[0])
                        c["linalg.rref.rank_out"] += len(result[0])
                        c["linalg.rref.max_bits"] = max(
                            c["linalg.rref.max_bits"], _max_bits(result[0]))
                    elif is_closure:
                        c["subspaces.closure.size"] += len(result[1])
                tracer._close(frame, t0, t1)

        return wrapper

    # -- patching --------------------------------------------------------

    def install(self, package):
        """Wrap every function in WRAPPED, under every name that the
        package's imported modules bind it to."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._guard_error = package.lattice.SizeGuardError
        prefix = package.__name__ + "."
        for mod_name in WRAPPED:
            importlib.import_module(prefix + mod_name)
        modules = [m for name, m in list(sys.modules.items())
                   if name == package.__name__ or name.startswith(prefix)]
        for mod_name, funcs in WRAPPED.items():
            mod = sys.modules[prefix + mod_name]
            for func in funcs:
                nid = self._nid["%s.%s" % (mod_name, func)]
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    self._patches.append((cls, meth, raw))
                    setattr(cls, meth,
                            staticmethod(self._wrap(nid, raw.__func__)))
                    continue
                original = getattr(mod, func)
                wrapped = self._wrap(nid, original)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            self._patches.append((m, attr, original))
                            setattr(m, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer values for the calls since the last reset."""
        out = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[name + ".calls"] = self.calls[nid]
            out[name + ".total_s"] = self.total[nid]
            out[name + ".self_s"] = self.self_time[nid]
        out.update(self.counters)
        out["trace.uncovered_share"] = (
            1.0 - self.root_covered / self.root_time if self.root_time else 0.0)
        return out

    def write(self, path):
        """Write every recorded span as one JSON array per line:
        [name, start_s, end_s, parent_span, job_label]."""
        with open(path, "w") as fh:
            for i in range(len(self.sp_name)):
                job = self.sp_job[i]
                fh.write(json.dumps([self.names[self.sp_name[i]],
                                     self.sp_start[i], self.sp_end[i],
                                     self.sp_parent[i],
                                     self.jobs[job] if job >= 0 else None]))
                fh.write("\n")
