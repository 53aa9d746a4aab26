"""omlkit benchmark runner.

    python3 perfbench/run.py --workload {closure,algebra,oml} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout of the repository: it imports
``omlkit`` from the checkout's ``src/`` and reads ``fixtures/``.

Jobs run in one process and one thread, closed loop: the next job starts
only after the previous one has finished and been checked.  Before
measuring, the golden gate (``gate.py``) must pass, and set-up is timed
``SETUP_REPS`` times.  The gate and the timed set-ups run in forked
children, so the peak memory of this process is that of its imports, one
input set and the jobs.

``--trace 0`` runs jobs for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes over a fixed
seeded batch of jobs until ``--seconds`` have passed, and reports the
per-layer metrics: work counters from the first traced pass, times as the
median over traced passes.  Spans are written to ``perfbench/out/``.

Human-readable lines go to standard output first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when the gate and every job check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import statistics
import sys
import traceback
from time import perf_counter

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 3      # set-up repetitions per run; setup_s is their median
TAIL_BEYOND = 10    # samples required beyond the reported tail percentile

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _import_omlkit():
    """Import omlkit and the benchmark modules from this checkout; returns
    (seconds taken, modules)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "omlkit", "__init__.py")):
        sys.exit("perfbench: omlkit sources not found under src/ "
                 "next to perfbench/")
    sys.path.insert(0, src)
    t0 = perf_counter()
    import omlkit
    import gate
    import tracing
    import workloads
    return perf_counter() - t0, omlkit, gate, tracing, workloads


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_job(w, inputs, i):
    """One job; an exception counts as a failed check."""
    try:
        return w.job(inputs, i)
    except Exception:
        traceback.print_exc()
        return False, "error", {}


def _in_child(fn, *args):
    """Run fn(*args) in a forked child and return its result, which must
    pickle.  Memory the child uses never counts in this process's
    ru_maxrss, so peak_rss_mb sees only the inputs and jobs measured here."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 1
        try:
            with os.fdopen(wfd, "wb") as out:
                pickle.dump(fn(*args), out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as inp:
        data = inp.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError("child process failed, wait status %d" % status)
    return pickle.loads(data)


def _timed_setup(w, seed, count):
    """One set-up, warmed up with job 0: (adjusted s, raw s, warm-up ok)."""
    timer = hostspeed.Timer(every=0)
    ok = timer.time(lambda: _run_job(w, w.setup(seed, count), 0)[0])
    return timer.adjusted()[0], timer.raw()[0], ok


def _setup(w, seed, count):
    """Time SETUP_REPS set-ups, each in a fresh child of this process, then
    build the run's inputs here, untimed, and warm up with job 0; returns
    (inputs, warm-ups ok, adjusted times, raw times)."""
    reps = [_in_child(_timed_setup, w, seed, count)
            for _ in range(SETUP_REPS)]
    inputs = w.setup(seed, count)
    ok = all(r[2] for r in reps) and _run_job(w, inputs, 0)[0]
    return inputs, ok, [r[0] for r in reps], [r[1] for r in reps]


def _tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples above it:
    (value, percentile)."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(latencies, failed, setup_times, import_s):
    attempted = len(latencies)
    tail, pct = _tail(latencies)
    return {
        "jobs_per_s": (attempted - failed) / sum(latencies),
        "job_p50_ms": 1000.0 * statistics.median(latencies),
        "job_tail_ms": 1000.0 * tail,
        "setup_s": import_s + statistics.median(setup_times),
    }, pct


def measure(w, seed, seconds, import_s):
    """Untraced run: the end-to-end metrics."""
    count = w.inputs_per_run
    import_adj = import_s * hostspeed.R_NOMINAL / hostspeed.reference_s()
    inputs, warm_ok, setup_adj, setup_raw = _setup(w, seed, count)
    if not warm_ok:
        print("warm-up job 0 failed its checks", file=sys.stderr)
    rss_setup = _peak_rss_mb()
    print("inputs_digest %s" % _sha(w.describe(inputs, count)))
    timer = hostspeed.Timer()
    failed = 0
    deadline = perf_counter() + seconds
    i = 0
    while i == 0 or perf_counter() < deadline:
        failed += not timer.time(_run_job, w, inputs, i % count)[0]
        i += 1
    attempted = len(timer.marks)
    values, pct = _end_to_end(timer.adjusted(), failed, setup_adj,
                              import_adj)
    raw, _ = _end_to_end(timer.raw(), failed, setup_raw, import_s)
    values["peak_rss_mb"] = raw["peak_rss_mb"] = _peak_rss_mb()
    print("%-14s %16s %16s" % ("metric", "adjusted", "raw"))
    for name, v in values.items():
        print("%-14s %16.6f %16.6f %s" % (name, v, raw[name],
                                         END_TO_END_UNITS[name]))
    print("job_tail_ms is p%.2f: %d samples, %d beyond it" % (
        pct, attempted, TAIL_BEYOND if attempted > TAIL_BEYOND else 0))
    print("peak_rss_mb after set-up and warm-up %.2f, after the jobs %.2f"
          % (rss_setup, values["peak_rss_mb"]))
    print("%-14s %16.6f %16s ratio (%d of %d jobs)" % (
        "failed_ratio", failed / attempted, "", failed, attempted))
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    return warm_ok and failed == 0, attempted, failed, metrics


def measure_traced(w, seed, seconds, omlkit, tracing):
    """Traced run: the per-layer metrics over a fixed seeded batch."""
    batch = w.trace_batch
    tracer = tracing.Tracer()
    untraced_s, traced_s, snaps = [], [], []
    attempted = failed = 0
    reference = None   # job summaries of the first untraced pass
    deadline = perf_counter() + seconds
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        inputs = w.setup(seed, batch)
        if passes == 0:
            print("inputs_digest %s" % _sha(w.describe(inputs, batch)))
        timer = hostspeed.Timer()
        plain = [timer.time(_run_job, w, inputs, i) for i in range(batch)]
        untraced_s.append(sum(timer.adjusted()))

        tracer.reset()
        tracer.install(omlkit)
        try:
            inputs = tracer.root("setup", "pass%d.setup" % passes,
                                 w.setup, seed, batch)
            timer = hostspeed.Timer()
            traced = []
            for i in range(batch):
                res = timer.time(tracer.root, "job",
                                 "pass%d.job%d" % (passes, i),
                                 _run_job, w, inputs, i)
                tracer.count(res[2])
                traced.append(res)
        finally:
            tracer.uninstall()
        traced_s.append(sum(timer.adjusted()))
        snaps.append(tracer.snapshot())

        if reference is None:
            reference = [r[1] for r in plain]
        # a job must pass its checks and give the same result traced and
        # untraced, in every pass
        for k, res in enumerate(plain + traced):
            attempted += 1
            failed += not res[0] or res[1] != reference[k % batch]
        passes += 1

    units = dict(tracing.COUNTERS)
    units["trace.uncovered_share"] = units["trace.overhead_ratio"] = "ratio"
    metrics = {}
    for name, v in snaps[0].items():
        if name.endswith(("_s", "_share")):
            v = statistics.median(s[name] for s in snaps)
        unit = units.get(name) or ("s" if name.endswith("_s") else "count")
        metrics[name] = {"value": v, "unit": unit}
    # tracing overhead: traced minus untraced jobs_per_s, as a share of
    # the untraced rate (host-speed adjusted job times)
    untraced_jps = batch / statistics.median(untraced_s)
    traced_jps = batch / statistics.median(traced_s)
    overhead = (untraced_jps - traced_jps) / untraced_jps
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}

    print("results_digest %s" % _sha("\n".join(reference)))
    print("passes %d  batch %d  untraced_jobs_per_s %.4f  "
          "traced_jobs_per_s %.4f  overhead_ratio %.4f  uncovered_share %.4f"
          % (passes, batch, untraced_jps, traced_jps, overhead,
             metrics["trace.uncovered_share"]["value"]))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", "spans-%s-seed%d.jsonl" % (w.name, seed))
    tracer.write(path)
    print("spans %d written to %s" % (len(tracer.sp_name),
                                      os.path.relpath(path, ROOT)))
    return failed == 0, attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("closure", "algebra", "oml"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s, omlkit, gate, tracing, workloads = _import_omlkit()
    t0 = perf_counter()
    broken = _in_child(gate.run, ROOT)
    if broken:
        for b in broken:
            print("golden gate failed: %s" % b, file=sys.stderr)
        return 1
    print("workload %s  seed %d  trace %d  gate_s %.3f" % (
        args.workload, args.seed, args.trace, perf_counter() - t0))

    w = workloads.WORKLOADS[args.workload]
    if args.trace:
        correct, attempted, failed, metrics = measure_traced(
            w, args.seed, args.seconds, omlkit, tracing)
    else:
        correct, attempted, failed, metrics = measure(
            w, args.seed, args.seconds, import_s)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
