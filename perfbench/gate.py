"""Golden-verdict gate, run before every benchmark run.

These verdicts are fixed facts about the fixtures and the deterministic
reproductions; a change that alters any of them is wrong however fast it
is, so the run stops before measuring anything.
"""

from __future__ import annotations

import json
import os

from omlkit import cylindric, formats, lattice, quantifiers, subspaces

# find_q6_counterexample(max_blocks=4).summary(), as `omlkit repro q6` prints it
Q6_WITNESS = {
    "blocks": [[0, 1, 2], [0, 3, 4]],
    "subalgebra": ["0", "1", "a0", "a0'", "a1", "a1'", "a2", "a2'"],
    "p": "a3",
    "q": "a1",
}
# c5_counterexample(3): ranks of the two C5 terms and of their meet
C5_TERM_RANKS = [6, 9]
C5_MEET_RANK = 6


def _load(fixtures, name):
    with open(os.path.join(fixtures, name)) as fh:
        return json.load(fh)


def run(root: str) -> list:
    """Return the failed verdicts, as readable strings; empty means pass."""
    fixtures = os.path.join(root, "fixtures")
    failed = []

    C = formats.load_cylindric(_load(fixtures, "tensor33_cylindric.json"),
                               base_dir=fixtures)
    if not cylindric.check_cylindric(C, "weak").ok:
        failed.append("tensor33_cylindric.json no longer passes weak")
    full = cylindric.check_cylindric(C, "full").failed()
    if full != ["C5"]:
        failed.append("tensor33_cylindric.json full failures %r, "
                      "expected ['C5']" % (full,))

    L = formats.load_lattice(_load(fixtures, "mo2_lattice.json"))
    if not lattice.check_orthomodular(L).is_oml:
        failed.append("mo2_lattice.json is no longer orthomodular")

    wit = quantifiers.find_q6_counterexample(max_blocks=4)
    if wit is None or wit.summary() != Q6_WITNESS:
        failed.append("repro q6 witness changed: %r"
                      % (wit and wit.summary(),))
    else:
        L, e = wit.lattice, quantifiers.quantifier_from_subalgebra(
            wit.lattice, wit.subalgebra)
        if e(L.meet(wit.p, e(wit.q))) != L.zero \
                or L.meet(e(wit.p), e(wit.q)) == L.zero:
            failed.append("repro q6 witness no longer violates Q6")

    rec = subspaces.c5_counterexample(3)
    ranks = [rec.term_pos.rank, rec.term_neg.rank]
    if ranks != C5_TERM_RANKS or rec.meet_of_terms.rank != C5_MEET_RANK \
            or not rec.contained_line.leq(rec.meet_of_terms):
        failed.append("c5_counterexample(3) ranks changed: terms %r, meet %d"
                      % (ranks, rec.meet_of_terms.rank))
    return failed
