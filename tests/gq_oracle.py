"""Test-only oracle: the Gaussian rationals held as two Fractions.

This is the GQ that held a + b*i as two fractions.Fraction parts, with its
text form and parser, and the linalg boundary helpers that read and wrote
those parts (_den_row, gq_vector, _dot), kept verbatim.  omlkit.gq holds
each value as one reduced integer triple instead; the differential tests
check that every result, text and boundary row is the same.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from operator import mul


class GQ:
    """A complex number a + b*i with a, b rational."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GQ is immutable")

    def __reduce__(self):
        # the default slot-state pickling would go through __setattr__
        return (GQ, (self.re, self.im))

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "GQ":
        if isinstance(x, GQ):
            return x
        if isinstance(x, (int, Fraction)):
            return GQ(x)
        return NotImplemented

    def __add__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GQ(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GQ(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GQ(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GQ(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n2 = o.re * o.re + o.im * o.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GQ((self.re * o.re + self.im * o.im) / n2,
                  (self.im * o.re - self.re * o.im) / n2)

    def __rtruediv__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GQ(-self.re, -self.im)

    def conj(self) -> "GQ":
        return GQ(self.re, -self.im)

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        o = GQ._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    # -- text form --------------------------------------------------------

    def __repr__(self):
        return "GQ(%r, %r)" % (str(self.re), str(self.im))

    def __str__(self):
        return format_gq(self)


_set_re = GQ.re.__set__
_set_im = GQ.im.__set__


def _gq_of_fractions(re: Fraction, im: Fraction) -> GQ:
    """GQ from parts that are already normalised Fractions, without the
    re-coercion that GQ() does; for hot paths that build many scalars."""
    z = object.__new__(GQ)
    _set_re(z, re)
    _set_im(z, im)
    return z


ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)

# ASCII digits only; a denominator has a non-zero digit
_FRAC = r"\d+(?:/0*[1-9]\d*)?"
_RE_PURE_REAL = re.compile(r"(?P<re>[+-]?%s)" % _FRAC, re.ASCII)
_RE_PURE_IMAG = re.compile(r"(?P<im>[+-]?(?:%s)?)i" % _FRAC, re.ASCII)
_RE_BOTH = re.compile(r"(?P<re>[+-]?%s)(?P<im>[+-](?:%s)?)i"
                      % (_FRAC, _FRAC), re.ASCII)


def parse_gq(text: str) -> GQ:
    """Parse a scalar written like '3', '-1/2', 'i', '2i' or '1/2+3/4i'."""
    s = text.replace(" ", "")
    # fullmatch: a pattern ending in $ would also accept a trailing newline
    m = _RE_PURE_REAL.fullmatch(s)
    if m:
        return GQ(Fraction(m.group("re")))
    m = _RE_PURE_IMAG.fullmatch(s)
    if m:
        return GQ(0, _imag_frac(m.group("im")))
    m = _RE_BOTH.fullmatch(s)
    if m:
        return GQ(Fraction(m.group("re")), _imag_frac(m.group("im")))
    raise ValueError("cannot parse Gaussian rational: %r" % text)


def _imag_frac(s: str) -> Fraction:
    if s in ("", "+"):
        return Fraction(1)
    if s == "-":
        return Fraction(-1)
    return Fraction(s)


def format_gq(z: GQ) -> str:
    """Canonical text form; inverse of parse_gq."""
    if z.im == 0:
        return str(z.re)
    imag = "i" if abs(z.im) == 1 else "%si" % abs(z.im)
    sign = "-" if z.im < 0 else "+"
    if z.re == 0:
        return ("-" if z.im < 0 else "") + imag
    return "%s%s%s" % (z.re, sign, imag)


# -- linalg boundary helpers ---------------------------------------------

def _dot(r, c) -> GQ:
    """sum r_k * c_k for rows in (den, re, im) form: one Gaussian-integer
    sum, divided once by the product of the denominators."""
    re, im = int_dot(r[1:], c[1:])
    den = r[0] * c[0]
    return _gq_of_fractions(Fraction(re, den), Fraction(im, den))


def int_dot(a, b) -> tuple[int, int]:
    """sum a_k * b_k for Gaussian-integer rows (re, im), as (re, im)."""
    (x, y), (u, v) = a, b
    return (sum(map(mul, x, u)) - sum(map(mul, y, v)),
            sum(map(mul, x, v)) + sum(map(mul, y, u)))


def gq_vector(v, den: int) -> Vector:
    """The Gaussian-integer row v = (re, im) divided by the integer den."""
    return tuple(_gq_of_fractions(Fraction(x, den), Fraction(y, den))
                 for x, y in zip(*v))


def _den_row(row):
    """(den, re, im): the lcm den of the entry denominators and the
    Gaussian-integer parts of den * row, as lists of ints.  int and
    Fraction entries are accepted as GQ() accepts them."""
    try:
        re = [x.re for x in row]
        im = [x.im for x in row]
    except AttributeError:
        return _den_row([x if isinstance(x, GQ) else GQ(x) for x in row])
    den = lcm(*[q.denominator for q in re], *[q.denominator for q in im])
    return (den, [q.numerator * (den // q.denominator) for q in re],
            [q.numerator * (den // q.denominator) for q in im])
