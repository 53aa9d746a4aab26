"""lattice.close, the one worklist closure, against the loops it replaced.

closure_oracle holds the round-based subalgebra_closure and all_subalgebras
loops and the frontier loop of closed_sets, verbatim; each caller of close
must give the same sets, and closed_sets must refuse the same frames at its
size guard.

Every seed pair and all_subalgebras on all 241 pastings of up to four
blocks would take over 20 s, so pairs run on the pastings of up to three
blocks, all_subalgebras on those of up to two, and the 211 four-block
pastings are checked from every single seed.
"""

import random
from itertools import combinations

import pytest

import omlkit.frames as fr
import omlkit.lattice as lat
import closure_oracle as oracle

NAMED = [lat.mo(2), lat.o6(), lat.boolean_algebra(2), lat.boolean_algebra(3)]


def _pastings(blocks):
    return [lat.greechie_lattice(d) for d in lat.enumerate_greechie_diagrams(4)
            if len(d) == blocks]


def _check_closures(L, max_seed, exhaustive):
    for r in range(max_seed + 1):
        for seed in combinations(L.elements(), r):
            assert lat.subalgebra_closure(L, seed) == \
                oracle.subalgebra_closure(L, seed), seed
    if exhaustive:
        assert lat.all_subalgebras(L) == oracle.all_subalgebras(L)


@pytest.mark.parametrize("L", NAMED, ids=["mo2", "o6", "bool2", "bool3"])
def test_named_lattice_closures_match_the_oracle(L):
    _check_closures(L, 2, True)


@pytest.mark.parametrize("blocks,count", [(1, 1), (2, 4), (3, 25), (4, 211)])
def test_pasting_closures_match_the_oracle(blocks, count):
    pastings = _pastings(blocks)
    assert len(pastings) == count
    for L in pastings:
        _check_closures(L, 2 if blocks <= 3 else 1, blocks <= 2)


def _frames():
    out = []
    for seed in range(24):
        rng = random.Random("close-frames:%d" % seed)
        out.append(fr.random_orthoframe(rng.randint(2, 9), rng,
                                        density=rng.choice((0.2, 0.4, 0.6))))
    for seed in range(6):
        out.append(fr.random_monadic_frame(5, random.Random(seed))[0])
    return out


@pytest.mark.parametrize("F", _frames())
def test_closed_sets_match_the_oracle_and_refuse_alike(F):
    masks = oracle.closed_sets(F)
    assert fr.closed_sets(F) == masks
    m = len(masks)
    assert fr.closed_sets(F, max_elements=m) == masks
    with pytest.raises(lat.SizeGuardError):
        oracle.closed_sets(F, max_elements=m - 1)
    with pytest.raises(lat.SizeGuardError,
                       match="^closure exceeded %d closed sets$" % (m - 1)):
        fr.closed_sets(F, max_elements=m - 1)


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_each_element_and_each_unordered_pair_is_visited_once(n):
    calls = []

    def count_max(a, b):
        calls.append((a, b))
        return max(a, b)

    elems, (succ_t, max_t) = lat.close([0], [lambda x: min(x + 1, n - 1)],
                                       [count_max])
    assert elems == list(range(n))
    assert succ_t == [min(x + 1, n - 1) for x in range(n)]
    assert len(calls) == n * (n + 1) // 2
    assert sorted(max_t) == sorted((j, i) for i in range(n)
                                   for j in range(i + 1))
    assert all(max_t[(j, i)] == i for j, i in max_t)


def test_start_order_is_kept_and_duplicates_dropped():
    elems, (neg_t,) = lat.close([3, 1, 3, -1], [lambda x: -x])
    assert elems == [3, 1, -1, -3]
    assert neg_t == [3, 2, 1, 0]


@pytest.mark.parametrize("limit", range(1, 13))
def test_guard_raises_when_the_closure_reaches_limit_plus_one(limit):
    made = []

    def succ(x):
        made.append(x + 1)
        return min(x + 1, 9)

    if limit >= 10:
        assert lat.close([0], [succ], limit=limit)[0] == list(range(10))
        return
    with pytest.raises(lat.SizeGuardError,
                       match="^closure exceeded %d widgets$" % limit):
        lat.close([0], [succ], limit=limit, what="widgets")
    assert len(made) == limit  # the start element plus limit new ones
