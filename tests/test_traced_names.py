"""The benchmark's tracer (perfbench/tracing.py) wraps omlkit functions by
name, and its algebra workload reads StarAlgebra attributes.  A change that
drops or renames one of them fails here instead of in a traced benchmark
run.  The tracer is run from its source text and nothing under perfbench/
is written."""

import importlib
import random
import types
from pathlib import Path

import omlkit
import omlkit.linalg as la
import omlkit.matrixalg as ma

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    mod = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), mod.__dict__)
    return mod


def _lookup(name):
    """The object a span name such as "subspaces.Subspace.from_vectors"
    names in the package."""
    module, *attrs = name.split(".")
    obj = importlib.import_module("omlkit." + module)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def _algebra_job():
    rng = random.Random(1)
    A = ma.build_algebra(3, [ma.random_rank_one_projection(3, rng)])
    p = ma.random_rank_one_projection(3, rng)
    e = ma.conditional_expectation(A, p)
    ma.exists_alg(A, p)
    assert ma.check_exists_equals_range_of_expectation(A, p)
    return A, e


def test_tracer_installs_and_uninstalls_on_every_wrapped_name():
    tracing = _tracing_module()
    originals = {name: _lookup(name) for name in tracing.SPAN_NAMES}
    tracer = tracing.Tracer()
    tracer.install(omlkit)
    try:
        for name, fn in originals.items():
            assert _lookup(name) is not fn, name
        A, e = tracer.root("job", "algebra", _algebra_job)
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert _lookup(name) is fn, name
    calls = tracer.snapshot()
    for name in ("matrixalg.build_algebra", "matrixalg.commutant",
                 "matrixalg.conditional_expectation", "matrixalg.exists_alg"):
        assert calls[name + ".calls"] > 0, name
    # what the algebra workload reads of a StarAlgebra
    assert A.n == 3
    assert A.dim == len(A.basis) == 2
    assert A.contains(e)
    assert A.contains(la.eye(3))
