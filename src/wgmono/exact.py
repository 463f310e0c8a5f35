"""Exact integer and rational arithmetic, plus the small counting helpers.

Integers are Python's built-in unbounded ``int``; rationals are
``fractions.Fraction``, which keeps the canonical form we rely on
everywhere: denominator strictly positive, numerator and denominator
coprime, equal values have identical representation.  Strict inequality
of values is therefore decidable by exact comparison, never by floats.

Text form: rationals are ``"N/D"`` in lowest terms with ``D > 0``
(``format_rat`` always prints the denominator, so the integer one
renders as ``"1/1"``).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def rat(n: int, d: int = 1) -> Fraction:
    """Canonical reduced rational n/d.

    >>> rat(3, -6)
    Fraction(-1, 2)
    """
    if d == 0:
        raise ZeroDivisionError("division by zero")
    return Fraction(n, d)


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial of negative {n}")
    return math.factorial(n)


def int_pow(b: int, e: int) -> int:
    """b**e for a nonnegative integer exponent."""
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    return b ** e


def binomial(n: int, k: int) -> int:
    if n < 0 or k < 0:
        raise ValueError(f"binomial({n}, {k})")
    return math.comb(n, k)


def catalan(n: int) -> int:
    """n-th Catalan number, binomial(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"catalan of negative {n}")
    return math.comb(2 * n, n) // (n + 1)


def parse_rat(text: str) -> Fraction:
    """Parse "N/D" or integer "N"; anything else (floats included) is rejected."""
    m = _RAT_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational: {text!r} (expected N or N/D)")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    return rat(num, den)


def format_rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"
