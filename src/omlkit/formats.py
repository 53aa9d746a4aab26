"""Readers and writers for the on-disk exchange formats.

All structures move through plain JSON objects (and one line-oriented text
format for atom-block diagrams); loaders raise FormatError on malformed
input so the CLI can map them to its parse-error exit code.  Input is
read nowhere else: read_input reads files, and parse_json decodes JSON.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import lattice as lat
from .gq import format_gq, parse_gq
from .lattice import FiniteOL, bits
from .quantifiers import UnaryMap
from .cylindric import CylindricStructure
from .frames import Orthoframe
from .matrixalg import StarAlgebra, build_algebra
from .subspaces import MAX_AMBIENT_DIM, Subspace, TensorLayout


class FormatError(ValueError):
    pass


# most relations a frame file, and cylindrifications a cylindric file, may
# give: W4 and C4 visit k^3 index triples and the diagonals take k^2 entries
MAX_INDICES = 8

# at most dim*dim <= MAX_AMBIENT_DIM generators of an algebra are independent
MAX_ALGEBRA_GENERATORS = MAX_AMBIENT_DIM

# bytes read from one input file.  Without repeated entries every file within
# the default guards fits, the largest a 512-point frame with full relations
# (27.5 MB); a full leq (3.0 MB at 512) fits up to --max-size 1,700
MAX_INPUT_BYTES = 1 << 25


def read_input(path) -> tuple:
    """(UTF-8 text, SHA-256 hex digest) of the file at path; FormatError
    past MAX_INPUT_BYTES and on an OSError or ValueError (bad UTF-8, NUL)."""
    try:
        with open(path, "rb") as fh:  # the path as given names the error
            data = fh.read(MAX_INPUT_BYTES + 1)
        if len(data) > MAX_INPUT_BYTES:
            raise ValueError("%s is over %d bytes" % (path, MAX_INPUT_BYTES))
        return data.decode("utf-8"), hashlib.sha256(data).hexdigest()
    except (OSError, ValueError) as exc:
        raise FormatError(str(exc)) from exc


def parse_json(text: str):
    """The JSON value of text; FormatError on any failure: bad JSON, an int
    past int()'s digit limit (ValueError) or deep nesting (RecursionError)."""
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise FormatError("invalid JSON: %s" % exc) from exc


def _need(obj, key, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError("missing field %r" % key)
    v = obj[key]
    if kind is not None and not isinstance(v, kind):
        raise FormatError("field %r has the wrong type" % key)
    return v


def _index(value, n, what):
    """A JSON int in [0, n); bools, floats, strings and null are refused
    rather than coerced."""
    if type(value) is not int or not 0 <= value < n:
        raise FormatError("%s must be an index in [0, %d), got %r"
                          % (what, n, value))
    return value


def _key_index(text, n, what):
    """An index written as text, as JSON object keys are: str(i) for an int
    i in [0, n).  ' 1', '+1', '01' and '1_0' are refused, not coerced."""
    try:
        value = int(text)
    except ValueError:  # not a number, or too many digits
        value = text
    # any other spelling of the int is passed on as text, which _index refuses
    return _index(value if str(value) == text else text, n, what)


def _key_pair(text, n, what):
    """An 'i,j' key, each part a _key_index."""
    parts = text.split(",")
    if len(parts) != 2:
        raise FormatError("%s key %r is not 'i,j'" % (what, text))
    return tuple(_key_index(t, n, "%s key part" % what) for t in parts)


def _index_pair(pair, n, what):
    """A JSON [i, j] list of two _index values."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise FormatError("%s entries must be [i, j] index pairs" % what)
    return _index(pair[0], n, what), _index(pair[1], n, what)


def _list(value, what):
    if not isinstance(value, list):
        raise FormatError("%s must be a list" % what)
    return value


def _need_diagonals(indices, table):
    """FormatError unless table has a diagonal for every pair of indices."""
    for ij in ((i, j) for i in indices for j in indices):
        if ij not in table:
            raise FormatError("missing diagonal %d,%d" % ij)


# ---------------------------------------------------------------------------
# lattices


def load_lattice(obj, max_elements=lat.DEFAULT_MAX_ELEMENTS) -> FiniteOL:
    """{"elements": [...], "covers" or "leq": [[i,j]...], "ortho": [...]}"""
    labels = tuple(_need(obj, "elements", list))
    n = len(labels)
    for x in labels:
        if not isinstance(x, str):  # null and true are not read as labels
            raise FormatError("elements must be strings, got %r" % (x,))
    ortho = tuple(_index(x, n, "ortho image")
                  for x in _need(obj, "ortho", list))
    if sorted(ortho) != list(range(n)):
        raise FormatError("ortho must be a permutation of the indices")
    if "covers" in obj:
        key = "covers"
    elif "leq" in obj:
        key = "leq"
    else:
        raise FormatError("need either 'covers' or 'leq'")
    pairs = [_index_pair(pair, n, "order pair")
             for pair in _list(obj[key], key)]
    try:
        return lat.ol_from_leq(labels, pairs, ortho,
                               max_elements=max_elements)
    except lat.LatticeError as exc:
        raise FormatError(str(exc))


def _cover_pairs(L: FiniteOL):
    """[x, y] for each y covering x, row-major: nothing lies strictly
    between them, so the interval [x, y] is exactly {x, y}."""
    down, up = L.masks()
    return [[x, y] for x in L.elements() for y in bits(up[x])
            if y != x and up[x] & down[y] == 1 << x | 1 << y]


def dump_lattice(L: FiniteOL) -> dict:
    return {
        "elements": list(L.labels),
        "covers": _cover_pairs(L),
        "ortho": list(L.ortho_t),
    }


def parse_greechie(text: str):
    """One block per line, atoms as whitespace-separated tokens; blank
    lines and #-comments ignored."""
    blocks = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        blocks.append(tuple(line.split()))
    if not blocks:
        raise FormatError("no blocks given")
    return blocks


def greechie_to_lattice(text: str, max_elements=lat.DEFAULT_MAX_ELEMENTS
                        ) -> FiniteOL:
    try:
        return lat.greechie_lattice(parse_greechie(text),
                                    max_elements=max_elements)
    except lat.LatticeError as exc:
        raise FormatError(str(exc))


# ---------------------------------------------------------------------------
# quantifiers and cylindric structures


def _resolve_lattice(obj, base_dir, max_elements):
    sub = _need(obj, "lattice")
    if isinstance(sub, str):
        path = Path(base_dir or ".") / sub
        try:
            sub = parse_json(read_input(path)[0])
        except FormatError as exc:
            raise FormatError("cannot read lattice file %s: %s"
                              % (path, exc.__cause__)) from exc
    return load_lattice(sub, max_elements)


def _load_map(L: FiniteOL, data) -> UnaryMap:
    if not isinstance(data, list) or len(data) != L.n:
        raise FormatError("map must list one image per element")
    return UnaryMap(L, tuple(_index(x, L.n, "map image") for x in data))


def load_quantifier(obj, base_dir=None,
                    max_elements=lat.DEFAULT_MAX_ELEMENTS):
    """{"lattice": <inline or filename>, "map": [...]} -> (L, map)"""
    L = _resolve_lattice(obj, base_dir, max_elements)
    return L, _load_map(L, _need(obj, "map", list))


def dump_quantifier(L: FiniteOL, e: UnaryMap) -> dict:
    return {"lattice": dump_lattice(L), "map": list(e.map)}


def load_cylindric(obj, base_dir=None,
                   max_elements=lat.DEFAULT_MAX_ELEMENTS
                   ) -> CylindricStructure:
    """Adds "cylindrifications": {"i": map} and "diagonals": {"i,j": e}."""
    L = _resolve_lattice(obj, base_dir, max_elements)
    cyl = {}
    cyls = _need(obj, "cylindrifications", dict)
    if len(cyls) > MAX_INDICES:
        raise FormatError("%d cylindrifications, guard is %d"
                          % (len(cyls), MAX_INDICES))
    for key, data in cyls.items():
        cyl[_key_index(key, len(cyls), "cylindrification key")] = \
            _load_map(L, data)
    dims = tuple(sorted(cyl))
    diag = {}
    for key, val in _need(obj, "diagonals", dict).items():
        diag[_key_pair(key, len(cyls), "diagonal")] = \
            _index(val, L.n, "diagonal %r" % key)
    _need_diagonals(dims, diag)
    return CylindricStructure(L, dims, cyl, diag)


def dump_cylindric(C: CylindricStructure) -> dict:
    return {
        "lattice": dump_lattice(C.base),
        "cylindrifications": {str(i): list(m.map)
                              for i, m in C.cylindrifications.items()},
        "diagonals": {"%d,%d" % ij: e for ij, e in C.diagonals.items()},
    }


# ---------------------------------------------------------------------------
# subspaces


def dump_subspace(layout: TensorLayout, s: Subspace) -> dict:
    return {
        "factors": list(layout.factor_dims),
        "basis": [[format_gq(x) for x in row] for row in s.basis],
    }


# ---------------------------------------------------------------------------
# frames


def _pairs_to_rows(pairs, n, what):
    rows = [0] * n
    for pair in _list(pairs, what):
        i, j = _index_pair(pair, n, what)
        rows[i] |= 1 << j
    return tuple(rows)


def load_frame(obj, max_elements=lat.DEFAULT_MAX_ELEMENTS):
    """{"points", "perp", "R", "D"} -> (frame, relations, diagonals);
    relations and diagonals are empty dicts when absent.  Points are
    strings or ints, at most max_elements of them.  Relations are keyed
    0..k-1 with k <= MAX_INDICES; diagonals must cover every pair
    of them, and may be left out only when k <= 1."""
    points = _need(obj, "points", list)
    n = len(points)
    if n > max_elements:
        raise FormatError("frame has %d points, guard is %d"
                          % (n, max_elements))
    for p in points:
        # true and null are refused rather than read as labels
        if not isinstance(p, str) and type(p) is not int:
            raise FormatError("points must be strings or ints, got %r" % (p,))
    points = tuple(map(str, points))
    F = Orthoframe(points, _pairs_to_rows(_need(obj, "perp", list), n,
                                          "perp"))
    R = _need(obj, "R", dict) if "R" in obj else {}
    if len(R) > MAX_INDICES:
        raise FormatError("frame has %d relations, guard is %d"
                          % (len(R), MAX_INDICES))
    rels = {}
    for key, pairs in R.items():
        rels[_key_index(key, len(R), "R key")] = \
            _pairs_to_rows(pairs, n, "R[%s]" % key)
    D = _need(obj, "D", dict) if "D" in obj else {}
    diags = {}
    for key, members in D.items():
        m = 0
        for p in _list(members, "D[%s]" % key):
            m |= 1 << _index(p, n, "diagonal point")
        diags[_key_pair(key, len(R), "D")] = m
    if diags or len(rels) > 1:
        _need_diagonals(rels, diags)
    return F, rels, diags


def dump_frame(F: Orthoframe, rels=None, diags=None) -> dict:
    def row_pairs(rows):
        return [[i, j] for i in range(F.n) for j in range(F.n)
                if rows[i] >> j & 1]

    out = {"points": list(F.points), "perp": row_pairs(F.perp)}
    if rels:
        out["R"] = {str(i): row_pairs(r) for i, r in rels.items()}
    if diags:
        out["D"] = {"%d,%d" % ij: [p for p in range(F.n) if m >> p & 1]
                    for ij, m in diags.items()}
    return out


# ---------------------------------------------------------------------------
# matrix algebras


def parse_matrix(rows, n: int):
    if not isinstance(rows, list) or len(rows) != n:
        raise FormatError("matrix must have %d rows" % n)
    out = []
    for row in rows:
        if not isinstance(row, list) or len(row) != n:
            raise FormatError("matrix row has wrong length")
        try:
            out.append(tuple(parse_gq(str(x)) for x in row))
        except ValueError as exc:
            raise FormatError(str(exc))
    return tuple(out)


def format_matrix(m) -> list:
    return [[format_gq(x) for x in row] for row in m]


def load_algebra(obj) -> StarAlgebra:
    """{"dim": d, "generators": [matrix, ...]}; the commutant solves for
    d*d unknowns, so d*d is bounded by MAX_AMBIENT_DIM, and at most
    MAX_ALGEBRA_GENERATORS generators are read."""
    n = _need(obj, "dim")
    if type(n) is not int or n < 1 or n * n > MAX_AMBIENT_DIM:
        raise FormatError("dim must be an int with 1 <= dim*dim <= %d, got %r"
                          % (MAX_AMBIENT_DIM, n))
    gens = _need(obj, "generators", list)
    if len(gens) > MAX_ALGEBRA_GENERATORS:
        raise FormatError("%d generators exceed the limit of %d"
                          % (len(gens), MAX_ALGEBRA_GENERATORS))
    return build_algebra(n, [parse_matrix(g, n) for g in gens])


def dump_algebra(A: StarAlgebra) -> dict:
    return {"dim": A.n, "generators": [format_matrix(m) for m in A.basis]}
