"""Exact rational arithmetic and the canonical ``num/den`` text form.

Everything numeric in this package is exact: integers are Python's
unbounded ints and rationals are :class:`fractions.Fraction`, which keeps
itself in lowest terms with a positive denominator.  Floating point is
used nowhere; the decimal rendering below goes through :mod:`decimal`
and exists purely for human-readable output.
"""

from __future__ import annotations

import re
from decimal import Decimal, localcontext
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def format_exact(q: Fraction) -> str:
    """Machine form ``num/den``, lowest terms, sign on the numerator only.

    Integers keep their explicit denominator ("4/1"), so the format is
    uniform for downstream parsers.
    """
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def parse_exact(text: str) -> Fraction:
    """Parse ``num/den`` or a bare integer; anything else is rejected."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational: {text!r}")
    if "/" in text and not int(text.partition("/")[2]):
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return Fraction(text)


def decimal_approx(q: Fraction, digits: int = 12) -> str:
    """Decimal string with ``digits`` significant digits.

    Display only -- the division is done in base 10 with explicit
    precision, never through binary floating point.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        value = Decimal(q.numerator) / Decimal(q.denominator)
    return str(value)
