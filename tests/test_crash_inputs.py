"""Malformed input files that used to end in a traceback with exit 1 are
refused with exit 2, and the refusal texts for unreadable and invalid
files stay as they were.

Each crash input is run through the CLI with `--json -`: nesting deeper
than the JSON decoder recurses (RecursionError), a byte that is not
UTF-8 (UnicodeDecodeError), an int with more digits than int() converts
(ValueError), inline or in the "lattice" file a quantifier names, and a
NUL in that file's name (ValueError from open).  A file, or a named
lattice file, longer than formats.MAX_INPUT_BYTES is refused after that
many bytes and one more are read, so an endless file ends too, and a FIFO
with no writer reads as empty instead of waiting for one."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import omlkit.formats as fo
from omlkit.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
HUGE = "7" * 5000  # past the 4,300-digit limit of int()


def _fixture(name):
    return (FIXTURES / name).read_text()


def _run(*args):
    return CliRunner().invoke(main, ["--json", "-", *map(str, args)])


def _refused(res):
    """The report of a clean refusal: exit 2, a SystemExit and JSON."""
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert "Traceback" not in res.output
    rep = json.loads(res.output)
    assert rep["status"] == "refused"
    return rep


def _inline_huge(name, old):
    """The fixture's text with its first `old` token made HUGE."""
    text = _fixture(name)
    assert old in text
    return text.replace(old, HUGE, 1)


def _lattice_ortho_huge():
    obj = json.loads(_fixture("mo2_lattice.json"))
    obj["ortho"][0] = "@"
    return json.dumps(obj).replace('"@"', HUGE)


def _frame_point_huge():
    obj = json.loads(_fixture("frame_monadic.json"))
    obj["points"][0] = "@"
    return json.dumps(obj).replace('"@"', HUGE)


CRASH_FILES = {
    "deep_lattice": ("check lattice", "[" * 100_000),
    "non_utf8_check": ("check lattice",
                       _fixture("mo2_lattice.json").encode() + b"\xff"),
    "non_utf8_convert": ("convert",
                         b"a b c\nc d \xe9\n"),
    "huge_algebra_entry": ("check algebra", _inline_huge(
        "algebra_diagonal.json", '"1"')),
    "huge_lattice_ortho": ("check lattice", _lattice_ortho_huge()),
    "huge_frame_point": ("check frame", _frame_point_huge()),
}


@pytest.mark.parametrize("command, data", list(CRASH_FILES.values()),
                         ids=list(CRASH_FILES))
def test_crash_input_is_refused(tmp_path, command, data):
    path = tmp_path / "input"
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    rep = _refused(_run(*command.split(), path))
    assert rep["error"]


def test_huge_int_in_named_lattice_file_is_refused(tmp_path):
    (tmp_path / "lattice.json").write_text(_lattice_ortho_huge())
    obj = json.loads(_fixture("quantifier_mo2.json"))
    obj["lattice"] = "lattice.json"
    (tmp_path / "q.json").write_text(json.dumps(obj))
    rep = _refused(_run("check", "quantifier", tmp_path / "q.json"))
    assert rep["error"].startswith("cannot read lattice file %s: "
                                   % (tmp_path / "lattice.json"))


def test_nul_in_named_lattice_file_is_refused(tmp_path):
    (tmp_path / "q.json").write_text(json.dumps(
        {"lattice": "a\u0000b", "map": [0]}))
    rep = _refused(_run("check", "quantifier", tmp_path / "q.json"))
    assert rep["error"] == "cannot read lattice file %s: embedded null byte" \
        % (tmp_path / "a\u0000b")


# ---------------------------------------------------------------------------
# refusal texts kept as they were


@pytest.mark.parametrize("command", ["check lattice", "convert"])
@pytest.mark.parametrize("name", ["missing.json", "."])
def test_unreadable_file_refusal_is_the_os_error(tmp_path, monkeypatch,
                                                 command, name):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(OSError) as exc:
        open(name, "rb")
    rep = _refused(_run(*command.split(), name))
    assert rep["error"] == str(exc.value)
    assert "input_sha256" not in rep


def test_invalid_json_refusal_text(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rep = _refused(_run("check", "lattice", path))
    assert rep["error"] == "invalid JSON: Expecting property name enclosed " \
        "in double quotes: line 1 column 2 (char 1)"
    assert rep["input_sha256"] == "92072df399cb74703f8e86f450d552bc0bb01eee" \
        "b98a90985a1b7772c8fd0016"


@pytest.mark.parametrize("text, reason", [
    (None, "[Errno 2] No such file or directory: '{path}'"),
    ("{not json", "Expecting property name enclosed in double quotes: "
                  "line 1 column 2 (char 1)"),
    ("", "Expecting value: line 1 column 1 (char 0)"),
])
def test_broken_lattice_file_refusal_text(tmp_path, text, reason):
    lattice = tmp_path / "lattice.json"
    if text is not None:
        lattice.write_text(text)
    (tmp_path / "q.json").write_text(json.dumps(
        {"lattice": "lattice.json", "map": [0]}))
    rep = _refused(_run("check", "quantifier", tmp_path / "q.json"))
    assert rep["error"] == "cannot read lattice file %s: %s" \
        % (lattice, reason.format(path=lattice))


# ---------------------------------------------------------------------------
# the input bound, made small


@pytest.fixture
def bound(monkeypatch):
    """A bound a little above the mo2 lattice file, so it fits."""
    size = len(_fixture("mo2_lattice.json").encode()) + 10
    monkeypatch.setattr(fo, "MAX_INPUT_BYTES", size)
    return size


def _lattice_of(tmp_path, size):
    """The mo2 lattice file padded with trailing spaces to size bytes."""
    text = _fixture("mo2_lattice.json")
    path = tmp_path / "lattice.json"
    path.write_text(text + " " * (size - len(text.encode())))
    assert path.stat().st_size == size
    return path


def test_file_at_the_bound_loads(tmp_path, bound):
    res = _run("check", "lattice", _lattice_of(tmp_path, bound))
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("command", ["check lattice", "convert"])
def test_file_past_the_bound_is_refused(tmp_path, bound, command):
    path = _lattice_of(tmp_path, bound + 1)
    rep = _refused(_run(*command.split(), path))
    assert rep["error"] == "%s is over %d bytes" % (path, bound)
    assert "input_sha256" not in rep


def test_named_lattice_file_past_the_bound_is_refused(tmp_path, bound):
    path = _lattice_of(tmp_path, bound + 1)
    (tmp_path / "q.json").write_text(json.dumps(
        {"lattice": "lattice.json", "map": [0]}))
    rep = _refused(_run("check", "quantifier", tmp_path / "q.json"))
    assert rep["error"] == "cannot read lattice file %s: %s is over %d " \
        "bytes" % (path, path, bound)


@pytest.mark.skipif(not Path("/dev/zero").exists(), reason="no /dev/zero")
@pytest.mark.parametrize("command", ["check lattice", "convert"])
def test_endless_file_is_refused(bound, command):
    rep = _refused(_run(*command.split(), "/dev/zero"))
    assert rep["error"] == "/dev/zero is over %d bytes" % bound


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
def test_fifo_with_no_writer_is_refused(tmp_path):
    # in a child process, so a wait for a writer ends at the timeout
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
    res = subprocess.run([sys.executable, "-m", "omlkit", "--json", "-",
                          "check", "lattice", str(fifo)],
                         env=env, capture_output=True, text=True, timeout=10)
    assert res.returncode == 2 and "Traceback" not in res.stderr, res.stderr
    assert json.loads(res.stdout)["error"] == \
        "invalid JSON: Expecting value: line 1 column 1 (char 0)"
