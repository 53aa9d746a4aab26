"""Input is read in one module: no module of src/omlkit but formats.py
reads or decodes it.

A module reads input when it calls json.load or json.loads (also when
imported from json), read_text, read_bytes or decode, or opens a file for
reading: an open() or x.open() whose mode is not a constant that writes
("w", "a" or "x", without "+").  Writing the --json report stays allowed.
Inside formats.py only read_input opens a file for reading, and only it
and parse_json decode.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "omlkit"
BOUNDARY = "formats.py"
READ_CALLS = {"read_text", "read_bytes", "decode"}
JSON_READS = {"load", "loads"}


def _writes(mode) -> bool:
    return isinstance(mode, ast.Constant) and isinstance(mode.value, str) \
        and bool(set(mode.value) & set("wax")) and "+" not in mode.value


def _open_mode(call):
    """The mode node of an open() or x.open() call, None if it has none."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    # open(file, mode, ...) but Path.open(mode, ...)
    at = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[at] if len(call.args) > at else None


def input_reads(source: str) -> list:
    """(line, what) for every place the source reads or decodes input."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            out += [(node.lineno, "json.%s" % a.name) for a in node.names
                    if a.name in JSON_READS]
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else \
            f.attr if isinstance(f, ast.Attribute) else None
        if isinstance(f, ast.Attribute) and name in JSON_READS \
                and isinstance(f.value, ast.Name) and f.value.id == "json":
            out.append((node.lineno, "json.%s" % name))
        elif isinstance(f, ast.Attribute) and name in READ_CALLS:
            out.append((node.lineno, name))
        elif name == "open" and not _writes(_open_mode(node)):
            out.append((node.lineno, "open for reading"))
    return out


def test_only_formats_reads_input():
    found = {path.name: input_reads(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != BOUNDARY}
    found = {name: reads for name, reads in found.items() if reads}
    assert not found, "read input only in formats.py: %s" % found


def test_formats_is_where_input_is_read():
    # the rule sees the boundary's own reads, so it is not vacuous there
    whats = {what for _, what in input_reads((SRC / BOUNDARY).read_text())}
    assert {"json.loads", "decode", "open for reading"} <= whats


def test_files_are_read_only_by_read_input():
    # inside formats.py a file is opened for reading by read_input alone,
    # and there is no read_text, read_bytes or json.load, so every input
    # byte passes read_input's bound
    source = (SRC / BOUNDARY).read_text()
    where = {}
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef):
            for _, what in input_reads(ast.get_source_segment(source, fn)):
                where.setdefault(what, []).append(fn.name)
    assert where == {"open for reading": ["read_input"],
                     "decode": ["read_input"], "json.loads": ["parse_json"]}
    assert len(input_reads(source)) == 3  # none outside a function


def test_rule_flags_reads_and_allows_writes():
    reads = [
        "json.loads(s)", "json.load(fh)", "from json import loads",
        "Path(p).read_text()", "p.read_bytes()", "data.decode('utf-8')",
        "open(p)", "open(p, 'rb')", "open(p, 'r+')", "open(p, mode)",
        "Path(p).open()", "p.open('rb')", "open(p, mode='rt')",
    ]
    for src in reads:
        assert input_reads(src), src
    for src in ["open(p, 'w')", "open(p, 'a')", "open(p, mode='wb')",
                "Path(p).open('w')", "json.dumps(x)", "fh.write(text)"]:
        assert not input_reads(src), src
