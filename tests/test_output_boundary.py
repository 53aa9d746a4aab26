"""Output is written in one place: in cli.py one runner, `_runs`, builds,
times, refuses and emits every command's report, and one writer,
`_write`, opens the --json destination.

The runner is the only function of cli.py that catches FormatError or
SizeGuardError, reads time.monotonic or calls _emit, and the writer the
only one that calls open or open_file.  A command added later inherits
the exit-code contract by going through both, and cannot keep a second
copy of either.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "omlkit" / "cli.py"
REFUSALS = {"FormatError", "SizeGuardError"}
OPENS = {"open", "open_file"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def output_steps(source: str) -> list:
    """(line, what) for every place the source takes a step of the
    report's life: catching a refusal, timing, emitting, opening."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            out += [(node.lineno, "catch " + _name(t)) for t in types
                    if _name(t) in REFUSALS]
        elif isinstance(node, (ast.Name, ast.Attribute)) \
                and _name(node) == "monotonic":
            out.append((node.lineno, "time.monotonic"))
        elif isinstance(node, ast.Call) and _name(node.func) == "_emit":
            out.append((node.lineno, "_emit"))
        elif isinstance(node, ast.Call) and _name(node.func) in OPENS:
            out.append((node.lineno, "open"))
    return out


def test_one_runner_and_one_writer():
    source = CLI.read_text()
    where, inside = {}, 0
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef):
            steps = output_steps(ast.get_source_segment(source, fn))
            inside += len(steps)
            for _, what in steps:
                where.setdefault(what, set()).add(fn.name)
    assert where == {"catch FormatError": {"_runs"},
                     "catch SizeGuardError": {"_runs"},
                     "time.monotonic": {"_runs"}, "_emit": {"_runs"},
                     "open": {"_write"}}
    assert len(output_steps(source)) == inside  # none outside a function


def test_rule_flags_each_step():
    steps = [
        "try:\n    f()\nexcept formats.FormatError:\n    pass",
        "try:\n    f()\nexcept (OSError, lat.SizeGuardError) as e:\n    pass",
        "t0 = time.monotonic()", "from time import monotonic\nmonotonic()",
        "_emit(ctx, report, code)", "open(p, 'w')", "Path(p).open('w')",
        "click.open_file(p, 'w')",
    ]
    for src in steps:
        assert output_steps(src), src
    for src in ["try:\n    f()\nexcept OSError:\n    pass",
                "time.perf_counter()", "_write(ctx, obj)", "click.echo(x)"]:
        assert not output_steps(src), src
