"""Every module-level function and class in src/omlkit is one a user can
reach: it is a CLI command, other package code uses it, __all__ exports
it, an acceptance criterion calls it, or the benchmark runs it.  A
definition that only its own unit tests call belongs in tests/ (as an
oracle) or nowhere; the few kept on purpose are listed in ALLOWED with
their reason.

A reference is a Name or Attribute node with the definition's name, outside
the definition itself.  perfbench/ is only read; there a string constant
that is a dotted name counts too, so the tracer's WRAPPED table counts."""

import ast
import re
from pathlib import Path

import omlkit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "omlkit"

ALLOWED = {
    "formats.dump_quantifier": "writes the format `check quantifier` reads",
    "formats.dump_frame": "writes the format `check frame` reads",
    "formats.dump_algebra": "writes the format `check algebra` reads",
    "subspaces.forall_factor": "dual of the exported exists_factor",
    "lattice.chain4_identity_ortho":
        "builds the fixture chain4_identity_ortho.json the CLI checks",
    "linalg.reset_counts": "resets the echelon counters that tests pin",
}

_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _names(node, strings=False) -> set:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif strings and isinstance(n, ast.Constant) \
                and isinstance(n.value, str) and _DOTTED.fullmatch(n.value):
            out.update(n.value.split("."))
    return out


def _is_command(stmt) -> bool:
    """Registered as a CLI command by a click @group.command() decorator."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in stmt.decorator_list)


def _census():
    """(definitions, unreached): every module.name defined at module level
    in src/omlkit, and those that nothing outside their own tests reaches."""
    outside = set(omlkit.__all__)
    outside |= _names(ast.parse((ROOT / "tests" / "test_acceptance.py")
                                .read_text()))
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _names(ast.parse(path.read_text()), strings=True)

    # per top-level statement of each module: the names it references
    stmts = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            stmts.append((path.stem, stmt, _names(stmt)))

    defined, unreached = set(), set()
    for module, stmt, _ in stmts:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        name = "%s.%s" % (module, stmt.name)
        defined.add(name)
        if stmt.name in outside or _is_command(stmt):
            continue
        if not any(stmt.name in used for _, other, used in stmts
                   if other is not stmt):
            unreached.add(name)
    return defined, unreached


def test_every_definition_in_src_is_reachable():
    _, unreached = _census()
    extra = sorted(unreached - set(ALLOWED))
    assert not extra, "only tests reach these; delete them or move them " \
        "into tests/: %s" % ", ".join(extra)


def test_allowlist_names_only_unreached_definitions():
    defined, unreached = _census()
    assert set(ALLOWED) <= defined, sorted(set(ALLOWED) - defined)
    assert set(ALLOWED) <= unreached, sorted(set(ALLOWED) - unreached)
