"""Test-only oracle: parse_gq as it read each part through Fraction(str),
kept verbatim with its patterns.  omlkit.gq.parse_gq builds the triple
from the matched integers instead; the differential tests check that both
accept the same texts, give the same values and raise the same error."""

import re
from fractions import Fraction

from omlkit.gq import GQ

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
    m = _RE_PURE_IMAG.fullmatch(s) or _RE_BOTH.fullmatch(s)
    if m:
        im = m.group("im")
        # a bare i, +i or -i has coefficient 1
        im = im + "1" if im in ("", "+", "-") else im
        return GQ(Fraction(m.groupdict().get("re") or "0"), Fraction(im))
    raise ValueError("cannot parse Gaussian rational: %r" % text)
