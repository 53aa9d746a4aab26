"""Every module-level function and class in src/omlkit, and every method
of such a class, is one a user can reach: it is a CLI command, other
package code uses it, __all__ exports it, an acceptance criterion calls
it, or the benchmark runs it.  A definition that only its own unit tests
call belongs in tests/ (as an oracle) or nowhere; the few kept on purpose
are listed in ALLOWED with their reason.

A reference counts only when it resolves to the defining module: a bare
Name inside that module, a name bound by `from .m import x` (or `from
omlkit.m import x`), or an attribute of a module alias such as `la.x`
after `from . import linalg as la` or `import omlkit.linalg as la`.  A
definition's own statement does not count.  perfbench/ is only read;
there a string constant that is a dotted name also counts, part by part
and unqualified, so the tracer's WRAPPED table counts.

A method, named module.Class.method, is called on objects whose class
the source does not state, so any attribute of that name counts: an
x.method in src/omlkit outside the method's own definition, in the
acceptance tests or in perfbench/, or a perfbench string part.  Dunder
methods are reached by the language and are not listed."""

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


def _aliases(tree) -> dict:
    """Local name -> the dotted path in the package it is bound to by an
    import: la -> "linalg" for `import omlkit.linalg as la` or `from .
    import linalg as la`, sub_meet -> "subspaces.meet" for `from
    .subspaces import meet as sub_meet`, omlkit -> "" for `import omlkit`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "omlkit":
                    if a.asname:
                        out[a.asname] = a.name[len("omlkit."):]
                    else:
                        out["omlkit"] = ""
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base.split(".")[0] != "omlkit":
                    continue
                base = base[len("omlkit."):]
            for a in node.names:
                out[a.asname or a.name] = ".".join(
                    p for p in (base, a.name) if p)
    return out


def _refs(node, aliases, module=None) -> set:
    """The package paths node references, each with its prefixes: a Name,
    or the Name at the root of an attribute chain, resolved through
    aliases, or inside module, when no import binds it, to module.name."""
    out = set()
    for n in ast.walk(node):
        root, chain = n, []
        while isinstance(root, ast.Attribute):
            chain.append(root.attr)
            root = root.value
        if not isinstance(root, ast.Name):
            continue
        if root.id in aliases:
            head = aliases[root.id]
        elif module is not None:
            head = "%s.%s" % (module, root.id)
        else:
            continue
        parts = [p for p in head.split(".") if p] + chain[::-1]
        out.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
    return out


def _strings(tree) -> set:
    """The parts of every string constant that is a dotted name."""
    return {part for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and _DOTTED.fullmatch(n.value) for part in n.value.split(".")}


def _attrs(node) -> set:
    """Every attribute name node uses: x for each a.x."""
    return {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _methods(stmt):
    """The non-dunder methods of a class statement."""
    return [m for m in stmt.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (m.name.startswith("__") and m.name.endswith("__"))]


def _is_command(stmt) -> bool:
    """Registered as a CLI command by a click @group.command() decorator."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in stmt.decorator_list)


def _census():
    """(definitions, unreached): every module.name defined at module level
    in src/omlkit and every module.Class.method, and those that nothing
    outside their own tests reaches."""
    init = ast.parse((SRC / "__init__.py").read_text())
    outside = {_aliases(init)[name] for name in omlkit.__all__}
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py")
                           .read_text())
    outside |= _refs(acceptance, _aliases(acceptance))
    bare, attrs = set(), _attrs(acceptance)
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        outside |= _refs(tree, _aliases(tree))
        bare |= _strings(tree)
        attrs |= _attrs(tree)

    # per top-level statement of each module: the paths it references
    stmts = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = _aliases(tree)
        for stmt in tree.body:
            stmts.append((path.stem, stmt, _refs(stmt, aliases, path.stem)))

    defined, unreached = set(), set()
    for module, stmt, _ in stmts:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        name = "%s.%s" % (module, stmt.name)
        defined.add(name)
        if name in outside or stmt.name in bare or _is_command(stmt):
            continue
        if not any(name in used for _, other, used in stmts
                   if other is not stmt):
            unreached.add(name)

    # each class body is split into its statements, so that a method's
    # own definition is the only one left out when it is looked for
    units = [sub for _, stmt, _ in stmts
             for sub in (stmt.body if isinstance(stmt, ast.ClassDef)
                         else [stmt])]
    used = [(unit, _attrs(unit)) for unit in units]
    for module, stmt, _ in stmts:
        if not isinstance(stmt, ast.ClassDef):
            continue
        for m in _methods(stmt):
            name = "%s.%s.%s" % (module, stmt.name, m.name)
            defined.add(name)
            if m.name in attrs or m.name in bare:
                continue
            if not any(m.name in names for unit, names in used
                       if unit is not m):
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
