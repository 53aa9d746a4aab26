"""The decision procedures of matrixalg run on integer rows: the support
identity, the quantifier step and the commuting square read a GQ matrix
only as an input and build one only as a witness.

Inside DECIDERS no call may go to conditional_expectation or to a GQ
matrix helper of linalg (HELPERS), through a module alias such as la.x or
a name imported from linalg.  The same holds for the hyperplane test
_holds_hyperplane, and for Subspace._projector and ortho in subspaces
(SUBSPACE_DECIDERS), which the quantifier and the projector call.
Reading .basis or calling projector_onto
builds GQ matrices, so each is allowed only inside a witness: a tuple
whose first element is a string, such as ("expectation_order", L.basis[k]).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "omlkit"
DECIDERS = {"check_commuting_square",
            "check_exists_equals_range_of_expectation", "_exists_range",
            "_holds_hyperplane", "invariant_closure"}
SUBSPACE_DECIDERS = {"_projector", "ortho"}
HELPERS = {"mat", "adjoint", "transpose", "matmul", "matvec", "sub", "scale",
           "kron", "eye"}
WITNESS_ONLY = {"basis", "projector_onto"}


def _linalg_names(tree):
    """(aliases, helpers): the names bound to the linalg module, and the
    HELPERS imported from it by name."""
    aliases, helpers = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            for a in node.names:
                if a.name == "linalg" and mod in ("", "omlkit"):
                    aliases.add(a.asname or a.name)
                elif mod.split(".")[-1] == "linalg" and a.name in HELPERS:
                    helpers.add(a.asname or a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "omlkit.linalg" and a.asname:
                    aliases.add(a.asname)
    return aliases, helpers


def _in_witnesses(node) -> set:
    """The ids of every node inside a witness tuple under node."""
    out = set()
    for t in ast.walk(node):
        if isinstance(t, ast.Tuple) and t.elts \
                and isinstance(t.elts[0], ast.Constant) \
                and isinstance(t.elts[0].value, str):
            out.update(id(n) for n in ast.walk(t))
    return out


def gq_uses(source: str, functions=DECIDERS) -> list:
    """(function, line, what) for every GQ matrix use the rule forbids in
    the named functions of source."""
    tree = ast.parse(source)
    aliases, helpers = _linalg_names(tree)
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name not in functions:
            continue
        witness = _in_witnesses(fn)
        for node in ast.walk(fn):
            what = None
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name == "conditional_expectation":
                    what = name
                elif isinstance(f, ast.Attribute) and name in HELPERS \
                        and isinstance(f.value, ast.Name) \
                        and f.value.id in aliases:
                    what = "linalg.%s" % name
                elif isinstance(f, ast.Name) and name in helpers:
                    what = "linalg.%s" % name
                elif name in WITNESS_ONLY and id(node) not in witness:
                    what = "%s outside a witness" % name
            elif isinstance(node, ast.Attribute) and node.attr == "basis" \
                    and id(node) not in witness:
                what = "basis outside a witness"
            if what:
                out.append((fn.name, node.lineno, what))
    return out


def test_deciders_run_on_integer_rows():
    assert gq_uses((SRC / "matrixalg.py").read_text()) == []


def test_the_smaller_side_of_a_subspace_runs_on_integer_rows():
    tree = ast.parse((SRC / "subspaces.py").read_text())
    assert SUBSPACE_DECIDERS <= {n.name for n in ast.walk(tree)
                                 if isinstance(n, ast.FunctionDef)}
    assert gq_uses((SRC / "subspaces.py").read_text(),
                   SUBSPACE_DECIDERS) == []


def test_every_decider_is_defined_in_matrixalg():
    # the rule looks at functions by name, so a rename must not empty it
    tree = ast.parse((SRC / "matrixalg.py").read_text())
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert DECIDERS <= defined


def test_rule_flags_gq_arithmetic_and_allows_witnesses():
    head = "from . import linalg as la\nfrom .linalg import kron as k\n"
    flagged = [
        "la.matmul(p, p)", "la.adjoint(x)", "la.eye(n)", "k(a, b)",
        "conditional_expectation(N, x)", "ma.conditional_expectation(N, x)",
        "L.basis[0]", "projector_onto(r)", "w = (L.basis[0], 'late')",
    ]
    for body in flagged:
        src = head + "def _exists_range(N, sub):\n    %s\n" % body
        assert gq_uses(src), body
    allowed = [
        "la.echelon(rows)", "la.int_matvec(M, v)", "range_space(q)",
        "w = ('expectation_order', L.basis[k])",
        "w = w or ('quantifier_order', projector_onto(r))",
    ]
    for body in allowed:
        src = head + "def check_commuting_square(K, M, N, L):\n    %s\n" % body
        assert not gq_uses(src), body
    # functions outside the rule may use anything
    assert not gq_uses(head + "def exists_alg(N, p):\n    la.matmul(p, p)\n")
