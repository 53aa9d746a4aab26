"""Command-line interface.

Exit codes: 0 all checks pass, 1 an axiom or reproduction fails, 2 the
input cannot be parsed or violates structural bounds.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time

import click

from . import formats, frames, lattice as lat, matrixalg as ma
from . import subspaces as sp
from .cylindric import check_cylindric
from .gq import GQ, format_gq
from .linalg import eye, kron, mat, scale
from .quantifiers import (check_quantifier, find_q6_counterexample,
                          quantifier_from_subalgebra)

PASS, FAIL, REFUSED = 0, 1, 2


def _emit(ctx, report, code):
    report["status"] = {PASS: "pass", FAIL: "fail", REFUSED: "refused"}[code]
    dest = ctx.obj.get("json")
    if dest is not None:
        text = json.dumps(report, sort_keys=True, indent=2, default=str)
        if dest == "-":
            click.echo(text)
        else:
            with open(dest, "w") as fh:
                fh.write(text + "\n")
    else:
        click.echo("status: %s" % report["status"])
        for key, val in sorted(report.items()):
            if key in ("status", "timing"):
                continue
            click.echo("%s: %s" % (key, json.dumps(val, sort_keys=True,
                                                   default=str)))
    ctx.exit(code)


def _read_input(ctx, path, report):
    try:
        data = open(path, "rb").read()
    except OSError as exc:
        report["error"] = str(exc)
        _emit(ctx, report, REFUSED)
    report["input_sha256"] = hashlib.sha256(data).hexdigest()
    return data.decode("utf-8")


@click.group()
@click.option("--json", "json_out", default=None,
              help="Write the report as JSON to this file ('-' for stdout).")
@click.option("--seed", default=0, type=int, help="Seed for sampled checks.")
@click.option("--max-size", default=lat.DEFAULT_MAX_ELEMENTS, type=int,
              help="Largest lattice size the loaders will accept.")
@click.pass_context
def main(ctx, json_out, seed, max_size):
    """Checks, searches and reproductions for finite quantum monadic and
    cylindric structures."""
    ctx.ensure_object(dict)
    ctx.obj["json"] = json_out
    ctx.obj["seed"] = seed
    ctx.obj["max_size"] = max_size


def _status_dict(status):
    return {name: {"ok": ok, "witness": wit}
            for name, (ok, wit) in sorted(status.items())}


@main.command()
@click.argument("kind", type=click.Choice(
    ["lattice", "quantifier", "cylindric", "frame", "algebra"]))
@click.argument("path", type=click.Path())
@click.option("--mode", default="weak", type=click.Choice(["weak", "full"]),
              help="Cylindric axiom set to check.")
@click.pass_context
def check(ctx, kind, path, mode):
    """Validate a structure file against its axioms."""
    t0 = time.monotonic()
    report = {"command": "check %s" % kind}
    text = _read_input(ctx, path, report)
    max_size = ctx.obj["max_size"]
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        report["error"] = "invalid JSON: %s" % exc
        _emit(ctx, report, REFUSED)
    try:
        code = _run_check(kind, obj, mode, max_size, report)
    except (formats.FormatError, lat.SizeGuardError) as exc:
        report["error"] = str(exc)
        code = REFUSED
    report["timing"] = time.monotonic() - t0
    _emit(ctx, report, code)


def _run_check(kind, obj, mode, max_size, report):
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
        L, e = formats.load_quantifier(obj, max_elements=max_size)
        rep = check_quantifier(L, e)
        report["checks"] = _status_dict(rep.status)
        return PASS if rep.is_quantifier else FAIL
    if kind == "cylindric":
        C = formats.load_cylindric(obj, max_elements=max_size)
        rep = check_cylindric(C, mode)
        report["mode"] = mode
        report["checks"] = _status_dict(rep.status)
        return PASS if rep.ok else FAIL
    if kind == "frame":
        F, rels, diags = formats.load_frame(obj, max_size)
        base = frames.validate_orthoframe(F)
        if not base.ok:
            report["checks"] = _status_dict(base.status)
            report["error"] = "perp is not an orthogonality relation"
            return REFUSED
        if diags:
            rep = frames.check_weak_cylindric_frame(F, rels, diags)
        elif rels:
            rep = frames.check_monadic_frame(F, rels[min(rels)])
        else:
            rep = base
        report["checks"] = _status_dict(rep.status)
        return PASS if rep.ok else FAIL
    A = formats.load_algebra(obj)
    closed = ma.is_double_commutant_closed(A)
    report["checks"] = {"double_commutant": {"ok": closed, "witness": None}}
    report["algebra_dim"] = A.dim
    return PASS if closed else FAIL


@main.command()
@click.argument("name", type=click.Choice(
    ["q6", "c5", "diag", "bell", "commuting-square", "expectation"]))
@click.pass_context
def repro(ctx, name):
    """Rebuild a named counterexample or identity from scratch."""
    t0 = time.monotonic()
    report = {"command": "repro %s" % name}
    ok = _REPROS[name](report, random.Random(ctx.obj["seed"]))
    report["timing"] = time.monotonic() - t0
    _emit(ctx, report, PASS if ok else FAIL)


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
    M = ma.build_algebra(4, [kron(mat(u), eye(2)) for u in
                             ([[1, 0], [0, 0]], [[0, 1], [0, 0]])])
    N = ma.build_algebra(4, [kron(eye(2), mat(u)) for u in
                             ([[1, 0], [0, 0]], [[0, 1], [0, 0]])])
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
@click.argument("target", type=click.Choice(["q6", "expectation-gap"]))
@click.option("--max-blocks", default=4, type=int,
              help="Atom-block count bound for the diagram search.")
@click.option("--dim", default=4, type=int,
              help="Ambient matrix dimension for the expectation search.")
@click.option("--boolean-only", is_flag=True,
              help="Restrict the diagram search to Boolean lattices.")
@click.pass_context
def search(ctx, target, max_blocks, dim, boolean_only):
    """Run a bounded counterexample search."""
    t0 = time.monotonic()
    report = {"command": "search %s" % target}
    if target == "q6":
        if max_blocks < 1 or max_blocks > 6:
            report["error"] = "--max-blocks must be between 1 and 6"
            _emit(ctx, report, REFUSED)
        wit = find_q6_counterexample(max_blocks=max_blocks,
                                     boolean_only=boolean_only)
        report["found"] = wit is not None
        if wit is not None:
            report["witness"] = wit.summary()
        code = PASS
    else:
        if dim < 2 or dim > 8:
            report["error"] = "--dim must be between 2 and 8"
            _emit(ctx, report, REFUSED)
        rng = random.Random(ctx.obj["seed"])
        records = ma.search_expectation_gap(dim, rng)
        report["inclusions"] = [
            {"algebra_dim": r.algebra_dim, "checked": r.checked,
             "gaps": len(r.gaps)} for r in records]
        report["gap_found"] = any(r.gaps for r in records)
        code = PASS
    report["timing"] = time.monotonic() - t0
    _emit(ctx, report, code)


@main.command()
@click.argument("path", type=click.Path())
@click.pass_context
def convert(ctx, path):
    """Convert an atom-block diagram text file to lattice JSON."""
    report = {"command": "convert"}
    text = _read_input(ctx, path, report)
    try:
        L = formats.greechie_to_lattice(text, ctx.obj["max_size"])
    except (formats.FormatError, lat.SizeGuardError) as exc:
        report["error"] = str(exc)
        _emit(ctx, report, REFUSED)
    click.echo(json.dumps(formats.dump_lattice(L), sort_keys=True, indent=2))
    ctx.exit(PASS)


if __name__ == "__main__":
    sys.exit(main())
