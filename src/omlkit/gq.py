"""Exact Gaussian-rational scalars: complex numbers with rational parts.

All arithmetic is exact; there is no rounding anywhere in the package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import wraps
from math import gcd, lcm


def _operand(op):
    """The GQ method op, given its other operand as a GQ: an int (not a
    bool) or a Fraction is converted, and any other value gets
    NotImplemented, so no other value is silently coerced."""
    @wraps(op)
    def method(self, other):
        if not isinstance(other, GQ):
            if isinstance(other, bool) or \
                    not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = GQ(other)
        return op(self, other)
    return method


class GQ:
    """A complex number a + b*i with a, b rational, held as one reduced
    integer triple: (a + b*i) / d with d > 0 and gcd(a, b, d) = 1.  The
    triple is unique, so == compares it; re and im are derived from it."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        # built here, not in __init__, so that a second __init__ call on a
        # shared constant such as ONE cannot rewrite it
        a, da = _ratio(re)
        b, db = _ratio(im)
        d = lcm(da, db)  # lowest-terms parts over their lcm: reduced
        return _reduced(a * (d // da), b * (d // db), d)

    def __setattr__(self, name, value):
        raise AttributeError("GQ is immutable")

    def __reduce__(self):
        # the default slot-state pickling would go through __setattr__
        return (GQ, (self.re, self.im))

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic -------------------------------------------------------

    @_operand
    def __add__(self, o):
        d, e = self._d, o._d
        return _gq(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    @_operand
    def __sub__(self, o):
        d, e = self._d, o._d
        return _gq(self._a * e - o._a * d, self._b * e - o._b * d, d * e)

    @_operand
    def __rsub__(self, o):
        return o - self

    @_operand
    def __mul__(self, o):
        a, b, c, e = self._a, self._b, o._a, o._b
        return _gq(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    @_operand
    def __truediv__(self, o):
        a, b, c, e = self._a, self._b, o._a, o._b
        n2 = c * c + e * e
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + bi) / d * d' / (c + ei) = (a + bi)(c - ei) d' / (d (c² + e²))
        return _gq((a * c + b * e) * o._d, (b * c - a * e) * o._d,
                   self._d * n2)

    @_operand
    def __rtruediv__(self, o):
        return o / self

    def __neg__(self):
        return _reduced(-self._a, -self._b, self._d)

    def conj(self) -> "GQ":
        return _reduced(self._a, -self._b, self._d)

    # -- comparisons ------------------------------------------------------

    @_operand
    def __eq__(self, o):
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        # a real GQ equals its Fraction (and int), so it hashes as one
        return hash((self.re, self.im) if self._b else self.re)

    def __bool__(self):
        return bool(self._a or self._b)

    # -- text form --------------------------------------------------------

    def __repr__(self):
        return "GQ(%r, %r)" % (_part(self._a, self._d),
                               _part(self._b, self._d))

    def __str__(self):
        return format_gq(self)


_new = object.__new__
_set_a = GQ._a.__set__
_set_b = GQ._b.__set__
_set_d = GQ._d.__set__


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an int (not a bool) or a Fraction; no
    other value is silently coerced."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError("GQ part must be int or Fraction, not %s"
                    % type(x).__name__)


def _reduced(a: int, b: int, d: int) -> GQ:
    """The GQ of a triple that is already reduced, with d > 0."""
    z = _new(GQ)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _gq(a: int, b: int, d: int) -> GQ:
    """The GQ (a + b*i) / d of any ints with d != 0, reduced by one gcd."""
    if d <= 0:
        if not d:
            raise ZeroDivisionError("Gaussian rational with denominator 0")
        a, b, d = -a, -b, -d
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _reduced(a, b, d)


def _part(n: int, d: int) -> str:
    """The text of the rational n / d, as str() of its Fraction."""
    g = gcd(n, d)
    return str(n // g) if g == d else "%d/%d" % (n // g, d // g)


ZERO = GQ(0)
ONE = GQ(1)
I = GQ(0, 1)

# ASCII digits only; a denominator has a non-zero digit.  Groups: sign,
# numerator and denominator of the real part, then of the imaginary part.
# A real part ends the text or meets the imaginary part's sign, so '12i'
# is imaginary; the text is not empty
_DEN = r"(?:/(0*[1-9]\d*))?"
_RE_GQ = re.compile(r"(?=.)(?:([+-]?)(\d+)%s(?=[+-]|\Z))?"
                    r"(?:([+-]?)(?:(\d+)%s)?i)?" % (_DEN, _DEN), re.ASCII)


def parse_gq(text: str) -> GQ:
    """Parse a scalar written like '3', '-1/2', 'i', '2i' or '1/2+3/4i'."""
    # fullmatch: a pattern ending in $ would also accept a trailing newline
    m = _RE_GQ.fullmatch(text.replace(" ", ""))
    if not m:
        raise ValueError("cannot parse Gaussian rational: %r" % text)
    xs, xn, xd, ys, yn, yd = m.groups()
    a = int(xs + xn) if xn else 0
    # a bare i, +i or -i has coefficient 1
    b = 0 if ys is None else int(ys + (yn or "1"))
    da, db = int(xd or 1), int(yd or 1)
    return _gq(a * db, b * da, da * db)


def format_gq(z: GQ) -> str:
    """Canonical text form; inverse of parse_gq."""
    a, b, d = z._a, z._b, z._d
    if not b:
        return _part(a, d)
    imag = "i" if abs(b) == d else "%si" % _part(abs(b), d)
    if not a:
        return ("-" if b < 0 else "") + imag
    return "%s%s%s" % (_part(a, d), "-" if b < 0 else "+", imag)
