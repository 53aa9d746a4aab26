"""Self-test of the benchmark's determinism.

    python3 perfbench/selftest.py

For every workload it makes three traced runs in fresh processes: two with
seed 1 and one with seed 2.  The two seed-1 runs must report identical work
counters and identical input and result digests; the seed-2 run must have
different inputs.  Exits 0 when all of that holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("closure", "algebra", "oml")
PASS_SECONDS = 1.0   # seconds per traced run: one pass over the batch


def traced_run(workload: str, seed: int):
    """Returns (digests, counters) of one traced run."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(PASS_SECONDS), "--trace", "1"],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (
            workload, seed, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    digests = dict(line.split()[:2] for line in lines
                   if line.startswith(("inputs_digest", "results_digest")))
    counters = {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] in ("count", "bits")}
    return digests, counters


def main() -> int:
    problems = []
    for w in WORKLOADS:
        before = len(problems)
        d1, c1 = traced_run(w, 1)
        d2, c2 = traced_run(w, 1)
        d3, _ = traced_run(w, 2)
        if c1 != c2:
            diff = sorted(k for k in c1 if c1[k] != c2.get(k))
            problems.append("%s: counters differ between same-seed runs: %s"
                            % (w, ", ".join(diff)))
        if d1 != d2:
            problems.append("%s: digests differ between same-seed runs: "
                            "%r vs %r" % (w, d1, d2))
        if d1["inputs_digest"] == d3["inputs_digest"]:
            problems.append("%s: seeds 1 and 2 gave the same inputs" % w)
        print("%-8s %s  counters %d  %s" % (
            w, "ok" if len(problems) == before else "FAIL", len(c1),
            " ".join("%s=%s" % kv for kv in sorted(d1.items()))), flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
