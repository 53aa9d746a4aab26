import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import parse_oracle
from omlkit import linalg as la
from omlkit.gq import GQ, I, ONE, ZERO, format_gq, parse_gq


def test_constructor_coerces_ints_and_fractions():
    x = GQ(1, Fraction(1, 2))
    assert x.re == 1 and x.im == Fraction(1, 2)
    assert GQ(Fraction(3, 4)).im == 0


def test_field_arithmetic():
    x = GQ(1, 2)
    y = GQ(Fraction(1, 3), -1)
    assert x + y == GQ(Fraction(4, 3), 1)
    assert x - x == ZERO
    assert x * y - y * x == ZERO
    assert (x / y) * y == x
    assert -x + x == ZERO


def test_i_squares_to_minus_one():
    assert I * I == GQ(-1)


def test_conj_and_norm():
    x = GQ(3, -4)
    assert x.conj() == GQ(3, 4)
    assert x * x.conj() == GQ(25)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_bool_and_hash():
    assert not ZERO
    assert ONE
    assert hash(GQ(1, 2)) == hash(GQ(Fraction(1), Fraction(2)))


def test_pickle_round_trip():
    x = GQ(Fraction(-3, 4), 2)
    back = pickle.loads(pickle.dumps(x))
    assert back == x and type(back.re) is Fraction
    assert repr(back) == repr(x)


def test_mixed_scalar_coercion():
    assert GQ(1, 1) + 1 == GQ(2, 1)
    assert 2 * GQ(1, 1) == GQ(2, 2)
    assert GQ(1) / 2 == GQ(Fraction(1, 2))


@pytest.mark.parametrize("text,val", [
    ("0", ZERO),
    ("3", GQ(3)),
    ("-2/5", GQ(Fraction(-2, 5))),
    ("i", I),
    ("-i", -I),
    ("2i", GQ(0, 2)),
    ("1/2+3/4i", GQ(Fraction(1, 2), Fraction(3, 4))),
    ("-1-i", GQ(-1, -1)),
    ("1/2-2/3i", GQ(Fraction(1, 2), Fraction(-2, 3))),
    ("1/2+3/4 i", GQ(Fraction(1, 2), Fraction(3, 4))),
])
def test_parse(text, val):
    assert parse_gq(text) == val


def test_parse_rejects_garbage():
    # zero denominators, and digits outside ASCII such as a fullwidth 1
    for bad in ("", "x", "1+", "i1", "1//2", "1.5", "1/0", "1/0i", "2+1/0i",
                "-0/0", "\uff11", "1/2+\u0663i"):
        with pytest.raises(ValueError):
            parse_gq(bad)


@pytest.mark.parametrize("text", ["1\n", "i\n", "1/2+i\n", "-2/5\n"])
def test_parse_rejects_a_trailing_newline(text):
    # a pattern ending in $ matches before a final newline
    with pytest.raises(ValueError):
        parse_gq(text)


def test_format_roundtrip():
    vals = [ZERO, ONE, -ONE, I, -I, GQ(0, -2), GQ(Fraction(1, 2)),
            GQ(Fraction(-3, 7), Fraction(5, 9)), GQ(2, -1)]
    for v in vals:
        assert parse_gq(format_gq(v)) == v


@given(st.one_of(st.text(), st.text("0123456789/+-i \n\uff11\u0663")))
def test_parse_returns_a_roundtrip_value_or_raises_value_error(text):
    # the grammar's own alphabet reaches zero denominators and near-misses
    # that arbitrary text almost never does
    try:
        z = parse_gq(text)
    except ValueError:
        return
    assert isinstance(z, GQ) and parse_gq(format_gq(z)) == z


def test_hash_agrees_with_eq_on_real_values():
    # a real GQ equals its int or Fraction, so it must hash as one
    assert hash(GQ(3)) == hash(3)
    assert len({GQ(3), 3}) == 1
    assert 3 in {GQ(3)} and GQ(3) in {3}
    assert Fraction(1, 2) in {GQ(Fraction(1, 2))}
    assert {GQ(Fraction(-2, 4)): "x"}[Fraction(-1, 2)] == "x"
    assert hash(GQ(1, 2)) == hash((Fraction(1), Fraction(2)))


@given(st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 20),
       st.integers(-3, 3))
def test_equal_values_hash_equal(n, d, im):
    q = Fraction(n, d)
    z = GQ(q, im)
    assert z == GQ(Fraction(n * 7, d * 7), im)
    assert hash(z) == hash(GQ(Fraction(n * 7, d * 7), im))
    if im == 0:
        assert z == q and hash(z) == hash(q)


@pytest.mark.parametrize("re,im", [
    (0.1, 0), (0, 0.5), ("1/2", 0), (True, 0), (1, False), (1j, 0),
    (None, 0), (GQ(1), 0),
])
def test_constructor_refuses_inexact_or_non_numeric_parts(re, im):
    with pytest.raises(TypeError):
        GQ(re, im)


OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


@pytest.mark.parametrize("other", [3, -2, Fraction(-5, 7)], ids=str)
def test_mixed_arithmetic_converts_ints_and_fractions(other):
    x = GQ(Fraction(1, 2), -3)
    for op in OPERATORS:
        assert op(x, other) == op(x, GQ(other))
        assert op(other, x) == op(GQ(other), x)
    assert x + other == other + x and (GQ(other) == other) is True


def test_mixed_arithmetic_refuses_floats_and_bools():
    for bad in (0.5, True, "1"):
        for op in OPERATORS:
            with pytest.raises(TypeError):
                op(ONE, bad)
            with pytest.raises(TypeError):
                op(bad, ONE)
        assert (ONE == bad) is False and (bad == ONE) is False
        assert ONE != bad
    with pytest.raises(TypeError):
        la.mat([[0.5]])
    with pytest.raises(TypeError):
        la.inner([GQ(1)], [0.5])


# ---------------------------------------------------------------------------
# parse_gq against the Fraction(str) parser it replaced


def _oracle_parse(text):
    """The oracle's value, or ValueError with its message."""
    try:
        return parse_oracle.parse_gq(text)
    except ValueError as e:
        return ValueError, str(e)


def _parse(text):
    try:
        return parse_gq(text)
    except ValueError as e:
        return ValueError, str(e)


_digits = st.text("0123456789", min_size=1, max_size=4)
_sign = st.sampled_from(("", "+", "-"))
_frac = st.tuples(_digits, st.sampled_from(("", "/")), _digits).map(
    lambda t: t[0] + (t[1] + t[2] if t[1] else ""))
# texts the grammar accepts, with zero denominators and stray spaces, and
# near-misses out of its own alphabet
_grammar = st.one_of(
    st.tuples(_sign, _frac).map("".join),
    st.tuples(_sign, st.one_of(st.just(""), _frac)).map(
        lambda t: "".join(t) + "i"),
    st.tuples(_sign, _frac, st.sampled_from("+-"),
              st.one_of(st.just(""), _frac)).map(lambda t: "".join(t) + "i"),
)


@settings(max_examples=400)
@given(st.one_of(_grammar, st.text("0123456789/+-i \n\uff11\u0663"),
                 st.text()))
def test_parse_matches_the_fraction_parser(text):
    got, want = _parse(text), _oracle_parse(text)
    assert got == want
    if isinstance(want, GQ):
        assert (got._a, got._b, got._d) == (want._a, want._b, want._d)
        assert repr(got) == repr(want)


def test_parse_reads_leading_zeros_and_unreduced_fractions():
    for text, val in (("007", GQ(7)), ("-0/5", ZERO),
                      ("2/4", GQ(Fraction(1, 2))),
                      ("+6/4-0/3i", GQ(Fraction(3, 2))),
                      ("3/005i", GQ(0, Fraction(3, 5))),
                      ("-00i", ZERO), ("+1/1+1/1i", GQ(1, 1))):
        assert parse_gq(text) == val == parse_oracle.parse_gq(text)


# ---------------------------------------------------------------------------
# the shared constants cannot be rebuilt


def test_a_second_init_leaves_the_constants_alone():
    for z, parts in ((ZERO, (0, 0)), (ONE, (1, 0)), (I, (0, 1))):
        z.__init__(2)
        GQ.__init__(z, 5, 3)
        assert (z.re, z.im) == parts
    assert la.eye(2) == la.mat([[1, 0], [0, 1]])
    with pytest.raises(AttributeError):
        ONE._a = 2
    for z in (ZERO, ONE, I, GQ(Fraction(-3, 4), 2)):
        back = pickle.loads(pickle.dumps(z))
        assert back == z and repr(back) == repr(z)
        assert (back._a, back._b, back._d) == (z._a, z._b, z._d)
