"""Exact Gaussian-rational scalars: complex numbers with rational parts.

All arithmetic is exact; there is no rounding anywhere in the package.
"""

from __future__ import annotations

import re
from fractions import Fraction


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
