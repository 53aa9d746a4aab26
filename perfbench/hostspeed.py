"""Host-speed adjustment of the benchmark's timings.

The machines this benchmark runs on are shared: the same pure-Python loop
takes anywhere from 1x to 2x its best time, in spells that last seconds to
minutes, with CPU time equal to wall time throughout.  Raw wall times of
identical runs therefore spread by 20-35%, more than any useful regression
bound.

So every timed piece of work is bracketed by runs of a fixed reference
kernel: exact rational elimination and small-container churn written here,
sharing no code with ``omlkit``, so no change to the program moves it.  A
piece of work that took ``t`` seconds while the kernel took ``r`` seconds
(the mean of the samples before and after it) is reported as
``t * R_NOMINAL / r``: its time on a host where the kernel takes
``R_NOMINAL``.  The raw times are printed alongside.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# About the kernel's time (best of three) on the machine the benchmark was
# tuned on, a 2-vCPU VM with Python 3.11.7, where it ranged 0.8-1.8 ms.
R_NOMINAL = 0.001
REF_EVERY_S = 0.1   # job time between two reference samples
_KERNEL_REPS = 3

_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1)
            for j in range(6)] for i in range(6)]


def _kernel():
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    table = {}
    for i in range(400):
        key = (i % 37, i % 11)
        table[key] = table.get(key, frozenset()) | {i & 15}
    return m, table


def reference_s() -> float:
    """Best of a few timed kernel runs: the host's current speed."""
    best = None
    for _ in range(_KERNEL_REPS):
        t0 = perf_counter()
        _kernel()
        dt = perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


class Timer:
    """Times calls and samples the reference kernel between them, at
    least every ``every`` seconds of timed work (0: around every call)."""

    def __init__(self, every: float = REF_EVERY_S):
        self.every = every
        self.refs = [reference_s()]
        self.marks = []    # (raw seconds, index of the sample before)
        self._since = 0.0

    def time(self, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        dt = perf_counter() - t0
        self.marks.append((dt, len(self.refs) - 1))
        self._since += dt
        if self._since >= self.every:
            self.refs.append(reference_s())
            self._since = 0.0
        return out

    def raw(self) -> list:
        return [dt for dt, _ in self.marks]

    def adjusted(self) -> list:
        """Timed calls rescaled to the nominal host speed; takes a closing
        reference sample if the last call has none after it."""
        if self.marks and self.marks[-1][1] == len(self.refs) - 1:
            self.refs.append(reference_s())
        return [dt * 2.0 * R_NOMINAL / (self.refs[k] + self.refs[k + 1])
                for dt, k in self.marks]
