"""Mutated fixtures through every loader: the only outcomes are exit 0, 1
or 2, never an exception other than SystemExit.

Each example takes one small fixture and mutates it.  A JSON fixture gets
one to three edits: a value replaced by another JSON type, a huge int or
deep nesting, a key or list entry dropped, or a key renamed.  An
atom-block text gets one or two text edits.  Either may then get a byte
that is not UTF-8.  The result runs through `check` of every kind
(cylindric in both modes) and `convert`, and, as the "lattice" file that
a quantifier and a cylindric file name, through those two checks.

The 96-element tensor closure and the dimension-8 algebra are left out
for time; they go through the same loaders.  The example budget is fixed
and the draws are derandomized, so every run tries the same inputs.
"""

import copy
import json
import tempfile
import traceback
from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from omlkit.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _json(name):
    return json.loads((FIXTURES / name).read_text())


CYLINDRIC = _json("classical_cylindric_2x2.json")
QUANTIFIER = _json("quantifier_mo2.json")
SEEDS = {name: _json(name) for name in (
    "mo2_lattice.json", "o6_lattice.json", "chain4_identity_ortho.json",
    "quantifier_mo2.json", "classical_cylindric_2x2.json",
    "frame_monadic.json", "frame_bad_perp.json", "algebra_diagonal.json")}
SEEDS["cylindric lattice"] = CYLINDRIC["lattice"]
SEEDS.update({name: (FIXTURES / name).read_text()
              for name in ("two_blocks.greechie", "q6_blocks.greechie")})

# stand-ins swapped for text json.dumps cannot write: an int past the
# 4,300-digit limit of int(), nesting past the recursion limit, and
# nesting that still decodes
SPLICES = {
    "@huge@": "7" * 5000,
    "@deep@": "[" * 100_000 + "]" * 100_000,
    "@nest@": "[" * 50 + "0" + "]" * 50,
}
BAD_BYTES = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]

# other JSON types, and values a loader may accept: small indices and
# scalar strings, so that edits also reach the structural checks
VALUES = st.one_of(
    st.integers(0, 16), st.sampled_from(["0", "1", "-i", "1/2", "a"]),
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.sampled_from([[], {}, [0, 1], {"0": 0}, *SPLICES]))


def _paths(obj, prefix=()):
    """The path of every node of obj, the root () first."""
    yield prefix
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _value(draw):
    return copy.deepcopy(draw(VALUES))  # later edits may change it in place


def _mutate(draw, obj):
    path = draw(st.sampled_from(list(_paths(obj))))
    op = draw(st.sampled_from(["replace", "drop", "rename"]))
    if not path:
        return _value(draw) if op == "replace" else obj
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "replace":
        parent[key] = _value(draw)
    elif op == "drop":
        del parent[key]
    elif isinstance(parent, dict):
        parent[draw(st.text(max_size=3))] = parent.pop(key)
    return obj


@st.composite
def mutated_inputs(draw):
    name = draw(st.sampled_from(sorted(SEEDS)))
    seed = SEEDS[name]
    if isinstance(seed, str):
        text = seed
        for _ in range(draw(st.integers(1, 2))):
            at = draw(st.integers(0, len(text)))
            cut = draw(st.integers(0, 3))
            text = text[:at] + draw(st.text(max_size=4)) + text[at + cut:]
    else:
        obj = copy.deepcopy(seed)
        for _ in range(draw(st.integers(1, 3))):
            obj = _mutate(draw, obj)
        text = json.dumps(obj)
        for stand_in, splice in SPLICES.items():
            text = text.replace(json.dumps(stand_in), splice)
    data = text.encode()
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return name, data


def _commands(tmp):
    """Every command the input file goes through."""
    path = str(tmp / "input.json")
    named_q = tmp / "named_quantifier.json"
    named_q.write_text(json.dumps({**QUANTIFIER, "lattice": "input.json"}))
    named_c = tmp / "named_cylindric.json"
    named_c.write_text(json.dumps({**CYLINDRIC, "lattice": "input.json"}))
    return ([["check", kind, path]
             for kind in ("lattice", "quantifier", "frame", "algebra")]
            + [["check", "cylindric", "--mode", mode, path]
               for mode in ("weak", "full")]
            + [["convert", path],
               ["check", "quantifier", str(named_q)],
               ["check", "cylindric", str(named_c)]])


@settings(max_examples=300, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_inputs())
def test_mutated_inputs_exit_0_1_or_2(case):
    name, data = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "input.json").write_bytes(data)
        for args in _commands(tmp):
            res = CliRunner().invoke(main, ["--json", "-", *args])
            crash = "".join(traceback.format_exception(res.exception)) \
                if not isinstance(res.exception, (SystemExit, type(None))) \
                else ""
            assert not crash, (name, args[:2], data[:200], crash)
            assert res.exit_code in (0, 1, 2), (name, args, res.output)
