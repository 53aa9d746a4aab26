"""GQ as one reduced integer triple against the two-Fraction GQ it
replaced (tests/gq_oracle.py): every value, text, pickle and linalg
boundary row must be the same, and every result must be reduced."""

import operator
import pickle
from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, strategies as st

import gq_oracle as old
from omlkit import linalg as la
from omlkit.gq import GQ, format_gq, parse_gq

# zero, small parts that meet and cancel, and denominators up to 2^70
parts = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80),
              st.integers(1, 2 ** 70)),
)
pairs = st.tuples(parts, parts)

OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def reduced(z: GQ) -> bool:
    return z._d > 0 and gcd(z._a, z._b, z._d) == 1


def same(z, o) -> bool:
    """z is a reduced GQ with o's value, and re, im are Fractions."""
    return (isinstance(z, GQ) and reduced(z)
            and type(z.re) is Fraction and type(z.im) is Fraction
            and (z.re, z.im) == (o.re, o.im))


def both(p):
    return GQ(*p), old.GQ(*p)


def outcome(f, *args):
    try:
        return f(*args)
    except ZeroDivisionError:
        return ZeroDivisionError


def agree(new, ref) -> bool:
    if ref is ZeroDivisionError:
        return new is ZeroDivisionError
    return same(new, ref)


@given(pairs)
def test_constructor_gives_the_reduced_triple_of_the_parts(p):
    z, o = both(p)
    assert same(z, o)
    assert z._d == lcm(o.re.denominator, o.im.denominator)


@given(pairs, pairs)
def test_binary_operators_agree(p, q):
    (x, ox), (y, oy) = both(p), both(q)
    for op in OPS:
        assert agree(outcome(op, x, y), outcome(op, ox, oy)), op
    assert (x == y) == (ox == oy)
    assert (x != y) == (ox != oy)


@given(pairs, pairs)
def test_results_of_equal_values_are_equal(p, q):
    # the triple is unique, so equal values have equal triples and hashes
    x, y = GQ(*p), GQ(*q)
    s = x * y
    t = y * x
    assert s == t and (s._a, s._b, s._d) == (t._a, t._b, t._d)
    assert hash(s) == hash(t)
    assert x - x == GQ(0) and (x - x)._d == 1


@given(pairs, parts)
def test_mixed_and_reflected_operators_agree(p, k):
    x, ox = both(p)
    for op in OPS:
        assert agree(outcome(op, x, k), outcome(op, ox, k)), op
        assert agree(outcome(op, k, x), outcome(op, k, ox)), op
    assert (x == k) == (ox == k) and (k == x) == (k == ox)


@given(pairs)
def test_unary_operators_truth_and_text_agree(p):
    z, o = both(p)
    assert same(-z, -o) and same(z.conj(), o.conj())
    assert bool(z) == bool(o)
    assert repr(z) == repr(o)
    assert str(z) == str(o) == format_gq(z) == old.format_gq(o)


@given(pairs)
def test_text_round_trip_and_pickle_agree(p):
    z, o = both(p)
    back = parse_gq(format_gq(z))
    assert back == z and same(back, old.parse_gq(old.format_gq(o)))
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        un = pickle.loads(pickle.dumps(z, proto))
        assert un == z and same(un, o) and type(un.re) is Fraction
    assert z.__reduce__()[1] == (o.re, o.im)


@given(st.one_of(st.text("0123456789/+-i "), st.text()))
def test_parser_agrees_on_grammar_text(text):
    try:
        ref = old.parse_gq(text)
    except ValueError:
        ref = ValueError
    try:
        z = parse_gq(text)
    except ValueError:
        assert ref is ValueError
        return
    assert same(z, ref)


# -- linalg boundary ------------------------------------------------------

entries = st.one_of(pairs.map(lambda p: ("gq", p)),
                    st.integers(-2 ** 40, 2 ** 40).map(lambda k: ("k", k)),
                    parts.map(lambda k: ("k", Fraction(k))))


def rows_of(spec):
    """The same row for the library and for the oracle."""
    new = [GQ(*v) if kind == "gq" else v for kind, v in spec]
    ref = [old.GQ(*v) if kind == "gq" else v for kind, v in spec]
    return new, ref


@given(st.lists(entries, min_size=1, max_size=8))
def test_den_row_agrees(spec):
    new, ref = rows_of(spec)
    assert la._den_row(new) == old._den_row(ref)
    assert la.int_row(new) == old._den_row(ref)[1:]


@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=n, max_size=n),
    st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=n, max_size=n))),
    st.one_of(st.integers(-2 ** 70, 2 ** 70), st.integers(-3, 3)))
def test_gq_vector_agrees(v, den):
    got = outcome(la.gq_vector, v, den)
    ref = outcome(old.gq_vector, v, den)
    if ref is ZeroDivisionError:
        assert got is ZeroDivisionError
    else:
        assert len(got) == len(ref)
        assert all(same(z, o) for z, o in zip(got, ref))


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(entries, min_size=n, max_size=n),
    st.lists(entries, min_size=n, max_size=n))))
def test_dot_agrees(specs):
    (r, ro), (c, co) = rows_of(specs[0]), rows_of(specs[1])
    assert same(la._dot(la._den_row(r), la._den_row(c)),
                old._dot(old._den_row(ro), old._den_row(co)))
