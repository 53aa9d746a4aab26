"""Command-line interface.

Exit codes: 0 all checks pass, 1 an axiom or reproduction fails, 2 the
input cannot be parsed or violates structural bounds, or the --json
destination cannot be written.
"""

from __future__ import annotations

import functools
import json
import random
import sys
import time
from pathlib import Path

import click

from . import formats, frames, lattice as lat, matrixalg as ma
from . import subspaces as sp
from .cylindric import check_cylindric
from .gq import GQ, format_gq
from .linalg import eye, kron, mat, scale
from .quantifiers import (check_quantifier, find_q6_counterexample,
                          quantifier_from_subalgebra)

PASS, FAIL, REFUSED = 0, 1, 2


def _write(ctx, obj):
    """Write obj as JSON to the --json destination, stdout for '-' or none;
    a destination that cannot be written refuses the run."""
    dest = ctx.obj["json"]
    try:
        with click.open_file("-" if dest is None else dest, "w") as fh:
            fh.write(json.dumps(obj, sort_keys=True, indent=2, default=str)
                     + "\n")
    except OSError as exc:
        click.echo("Error: cannot write %s: %s" % (dest, exc.strerror),
                   err=True)
        ctx.exit(REFUSED)


def _emit(ctx, report, code):
    report["status"] = {PASS: "pass", FAIL: "fail", REFUSED: "refused"}[code]
    if ctx.obj["json"] is not None:
        _write(ctx, report)
    else:
        click.echo("status: %s" % report["status"])
        for key, val in sorted(report.items()):
            if key in ("status", "timing"):
                continue
            click.echo("%s: %s" % (key, json.dumps(val, sort_keys=True,
                                                   default=str)))
    ctx.exit(code)


def _runs(name):
    """Run body(ctx, report, **args) as a command: name the report (name is
    formatted with the arguments), time it, refuse a loader or size-guard
    error with exit 2 and emit it.  The body returns PASS or FAIL."""
    def wrap(body):
        @click.pass_context
        @functools.wraps(body)
        def run(ctx, **args):
            t0 = time.monotonic()
            report = {"command": name.format(**args)}
            try:
                code = body(ctx, report, **args)
            except (formats.FormatError, lat.SizeGuardError) as exc:
                report["error"] = str(exc)
                code = REFUSED
            report["timing"] = time.monotonic() - t0
            _emit(ctx, report, code)
        return run
    return wrap


@click.group()
@click.option("--json", "json_out", default=None,
              help="Write the output as JSON to this file ('-' for stdout).")
@click.option("--max-size", default=lat.DEFAULT_MAX_ELEMENTS, type=int,
              help="Largest lattice size the loaders will accept.")
@click.pass_context
def main(ctx, json_out, max_size):
    """Checks, searches and reproductions for finite quantum monadic and
    cylindric structures."""
    ctx.obj = {"json": json_out, "max_size": max_size}


def _status_dict(status):
    return {name: {"ok": ok, "witness": wit}
            for name, (ok, wit) in sorted(status.items())}


@main.command()
@click.argument("kind", type=click.Choice(
    ["lattice", "quantifier", "cylindric", "frame", "algebra"]))
@click.argument("path", type=click.Path())
@click.option("--mode", default="weak", type=click.Choice(["weak", "full"]),
              help="Cylindric axiom set to check.")
@_runs("check {kind}")
def check(ctx, report, kind, path, mode):
    """Validate a structure file against its axioms."""
    text, report["input_sha256"] = formats.read_input(path)
    obj, max_size = formats.parse_json(text), ctx.obj["max_size"]
    if kind == "lattice":
        L = formats.load_lattice(obj, max_size)
        rep = lat.validate_ortholattice(L)
        oml = lat.check_orthomodular(L)
        report["checks"] = {
            "structural": [{"axiom": v.axiom, "witness": v.witness}
                           for v in rep.structural],
            "violations": [{"axiom": v.axiom,
                            "witness": [L.label(x) for x in v.witness]}
                           for v in rep.violations],
        }
        report["orthomodular"] = {"ok": oml.is_oml, "witness": oml.witness}
        return PASS if rep.ok else FAIL
    if kind == "quantifier":
        rep = check_quantifier(*formats.load_quantifier(
            obj, Path(path).parent, max_elements=max_size))
        status, ok = rep.status, rep.is_quantifier
    elif kind == "cylindric":
        rep = check_cylindric(formats.load_cylindric(
            obj, Path(path).parent, max_elements=max_size), mode)
        report["mode"] = mode
        status, ok = rep.status, rep.ok
    elif kind == "frame":
        F, rels, diags = formats.load_frame(obj, max_size)
        rep = frames.validate_orthoframe(F)
        if not rep.ok:
            report["checks"] = _status_dict(rep.status)
            raise formats.FormatError("perp is not an orthogonality relation")
        if diags:
            rep = frames.check_weak_cylindric_frame(F, rels, diags)
        elif rels:
            rep = frames.check_monadic_frame(F, rels[0])
        status, ok = rep.status, rep.ok
    else:
        A = formats.load_algebra(obj)
        C = ma.commutant(A)
        Z = ma.algebra_intersection(A, C)  # the center: a factor has Z = C1
        wit = next((z for z in Z.basis
                    if not ma.scalar_algebra(A.n).contains(z)), None)
        report.update(algebra_dim=A.dim, commutant_dim=C.dim, center_dim=Z.dim)
        status = {"factor": (wit is None, wit and formats.format_matrix(wit))}
        ok = wit is None
    report["checks"] = _status_dict(status)
    return PASS if ok else FAIL


def _repro_q6(report, rng):
    wit = find_q6_counterexample(max_blocks=4)
    if wit is None:
        report["found"] = False
        return False
    report["found"] = True
    report["witness"] = wit.summary()
    L = wit.lattice
    e = quantifier_from_subalgebra(L, wit.subalgebra)
    lhs = e(L.meet(wit.p, e(wit.q)))
    rhs = L.meet(e(wit.p), e(wit.q))
    report["lhs"] = L.label(lhs)
    report["rhs"] = L.label(rhs)
    return lhs == L.zero and rhs != L.zero


def _repro_c5(report, rng):
    rec = sp.c5_counterexample(3)
    report["subspace"] = formats.dump_subspace(rec.layout, rec.s)
    report["term_ranks"] = [rec.term_pos.rank, rec.term_neg.rank]
    report["meet_rank"] = rec.meet_of_terms.rank
    return rec.meet_of_terms.rank >= 3 and \
        rec.contained_line.leq(rec.meet_of_terms)


def _repro_diag(report, rng):
    layout = sp.TensorLayout((2, 2, 2, 2))
    ok = True
    results = {}
    for i, j, k in [(0, 1, 2), (1, 2, 3), (0, 2, 3), (2, 1, 0)]:
        good = sp.check_diagonal_composition(layout, i, j, k)
        results["%d,%d,%d" % (i, j, k)] = good
        ok = ok and good
    report["compositions"] = results
    return ok


def _repro_bell(report, rng):
    units2 = [[[1, 0], [0, 0]], [[0, 1], [0, 0]],
              [[0, 0], [1, 0]], [[0, 0], [0, 1]]]
    N = ma.build_algebra(4, [kron(mat(u), eye(2)) for u in units2])
    half = GQ(1) / GQ(2)
    bell = tuple(tuple(half * GQ(v) for v in row)
                 for row in [[1, 0, 0, 1], [0, 0, 0, 0],
                             [0, 0, 0, 0], [1, 0, 0, 1]])
    e = ma.conditional_expectation(N, bell)
    quarter = GQ(1) / GQ(4)
    report["expectation_is_quarter_identity"] = e == scale(quarter, eye(4))
    good = ma.check_pimsner_popa(N, bell, quarter)
    bad = ma.check_pimsner_popa(N, bell, GQ(1) / GQ(2))
    report["bound_holds_at_1_4"] = good.is_psd
    report["bound_fails_at_1_2"] = not bad.is_psd
    if bad.witness is not None:
        report["violation_witness"] = [format_gq(x) for x in bad.witness]
    report["support_identity"] = \
        ma.check_exists_equals_range_of_expectation(N, bell)
    return (e == scale(quarter, eye(4)) and good.is_psd
            and not bad.is_psd and report["support_identity"])


def _repro_commuting_square(report, rng):
    amb = ma.full_matrix_algebra(4)
    units = ([[1, 0], [0, 0]], [[0, 1], [0, 0]])
    M = ma.build_algebra(4, [kron(mat(u), eye(2)) for u in units])
    N = ma.build_algebra(4, [kron(eye(2), mat(u)) for u in units])
    K = ma.scalar_algebra(4)
    square = ma.check_commuting_square(K, M, N, amb, rng, samples=20)
    report["tensor_factors_commute"] = square.ok

    # a square of inclusions in dim 2 whose expectations do not commute
    diag = ma.diagonal_algebra(2)
    fifth = GQ(1) / GQ(5)
    q = tuple(tuple(fifth * GQ(v) for v in row)
              for row in [[1, 2], [2, 4]])
    skew = ma.build_algebra(2, [q])
    bad = ma.check_commuting_square(ma.scalar_algebra(2), diag, skew,
                                    ma.full_matrix_algebra(2))
    report["skew_expectations_commute"] = bad.expectations_commute
    if bad.witness is not None:
        report["skew_witness"] = formats.format_matrix(bad.witness[1])
    return square.ok and not bad.expectations_commute


def _repro_expectation(report, rng):
    diag = ma.diagonal_algebra(2)
    half = GQ(1) / GQ(2)
    p = tuple(tuple(half * GQ(1) for _ in range(2)) for _ in range(2))
    report["diagonal_case"] = \
        ma.check_exists_equals_range_of_expectation(diag, p) and \
        ma.exists_alg(diag, p) == eye(2)
    scal = ma.scalar_algebra(3)
    p3 = ma.random_rank_one_projection(3, rng)
    report["scalar_case"] = \
        ma.check_exists_equals_range_of_expectation(scal, p3) and \
        ma.exists_alg(scal, p3) == eye(3)
    return report["diagonal_case"] and report["scalar_case"]


_REPROS = {
    "q6": _repro_q6,
    "c5": _repro_c5,
    "diag": _repro_diag,
    "bell": _repro_bell,
    "commuting-square": _repro_commuting_square,
    "expectation": _repro_expectation,
}


@main.command()
@click.argument("name", type=click.Choice(list(_REPROS)))
@_runs("repro {name}")
def repro(ctx, report, name):
    """Rebuild a named counterexample or identity from scratch."""
    return PASS if _REPROS[name](report, random.Random(0)) else FAIL


@main.command()
@click.argument("target", type=click.Choice(["q6"]))
@click.option("--max-blocks", default=4, type=int,
              help="Atom-block count bound for the diagram search.")
@_runs("search {target}")
def search(ctx, report, target, max_blocks):
    """Search 3-atom-block pastings for a block quantifier that fails Q6."""
    if max_blocks < 1 or max_blocks > 6:
        raise lat.SizeGuardError("--max-blocks must be between 1 and 6")
    wit = find_q6_counterexample(max_blocks=max_blocks)
    report["found"] = wit is not None
    if wit is not None:
        report["witness"] = wit.summary()
    return PASS


@main.command()
@click.argument("path", type=click.Path())
@_runs("convert")
def convert(ctx, report, path):
    """Convert an atom-block diagram text file to lattice JSON."""
    text, report["input_sha256"] = formats.read_input(path)
    L = formats.greechie_to_lattice(text, ctx.obj["max_size"])
    _write(ctx, formats.dump_lattice(L))  # the bare lattice, not a report
    ctx.exit(PASS)


if __name__ == "__main__":
    sys.exit(main())
