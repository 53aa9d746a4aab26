"""No Fraction on the kernel paths: a GQ is one reduced integer triple
(a + b*i) / d, and the kernels read and write those ints directly.

In linalg, the boundary helpers (_den_row, gq_vector, _dot) and the
integer kernels (int_*, echelon, kernel, _primitive) may neither call
Fraction nor read a .re or .im part.  In gq, only the constructor, the re
and im properties, __hash__ and __reduce__ may; GQ's arithmetic,
comparisons and text form, and parse_gq, work on the triple.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "omlkit"
LINALG_KERNEL = {"_den_row", "gq_vector", "_dot", "echelon", "kernel",
                 "_primitive"}
GQ_ALLOWED = {"__new__", "re", "im", "__hash__", "__reduce__"}


def fraction_uses(source: str, judged) -> list:
    """(function, line, what) for each Fraction call or .re/.im read inside
    a function of source whose name judged(name) holds, nested functions
    included."""
    out, seen = [], set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or not judged(fn.name):
            continue
        for node in ast.walk(fn):
            what = None
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name) and f.id == "Fraction" or \
                        isinstance(f, ast.Attribute) and f.attr == "Fraction":
                    what = "Fraction()"
            elif isinstance(node, ast.Attribute) and node.attr in ("re", "im") \
                    and isinstance(node.ctx, ast.Load):
                what = ".%s" % node.attr
            if what and id(node) not in seen:
                seen.add(id(node))
                out.append((fn.name, node.lineno, what))
    return out


def in_linalg_kernel(name: str) -> bool:
    return name in LINALG_KERNEL or name.startswith("int_")


def in_gq_arithmetic(name: str) -> bool:
    return name not in GQ_ALLOWED


def _defined(path: Path) -> set:
    return {n.name for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.FunctionDef)}


def test_linalg_kernels_build_no_fraction():
    assert fraction_uses((SRC / "linalg.py").read_text(),
                         in_linalg_kernel) == []


def test_gq_arithmetic_builds_no_fraction():
    assert fraction_uses((SRC / "gq.py").read_text(), in_gq_arithmetic) == []


def test_the_rule_names_functions_that_exist():
    # the rule looks at functions by name, so a rename must not empty it
    linalg = _defined(SRC / "linalg.py")
    assert LINALG_KERNEL <= linalg
    assert {"int_dot", "int_orthogonal", "int_matvec", "int_row"} <= linalg
    gq = _defined(SRC / "gq.py")
    assert GQ_ALLOWED <= gq
    assert {"__add__", "__sub__", "__mul__", "__truediv__", "__eq__",
            "__neg__", "conj", "__repr__", "format_gq", "_gq",
            "parse_gq"} <= gq


def test_rule_flags_fraction_and_parts_and_allows_the_boundary():
    flagged = ["Fraction(x, d)", "fractions.Fraction(1)", "y = x.re",
               "return [q.im for q in row]",
               "def inner():\n        return Fraction(1)"]
    for body in flagged:
        src = "def _den_row(row):\n    %s\n" % body
        assert fraction_uses(src, in_linalg_kernel), body
        src = "def __mul__(self, o):\n    %s\n" % body
        assert fraction_uses(src, in_gq_arithmetic), body
    allowed = ["x._a * k", "isinstance(x, Fraction)", "re.compile(s)",
               "q.numerator"]
    for body in allowed:
        assert not fraction_uses("def _dot(r, c):\n    %s\n" % body,
                                 in_linalg_kernel), body
    # the constructor, the properties and functions outside the rule may
    assert not fraction_uses("def re(self):\n    return Fraction(a, d)\n",
                             in_gq_arithmetic)
    assert not fraction_uses("def mat(rows):\n    Fraction(1)\n",
                             in_linalg_kernel)
