"""The monotone-walk generating function and its series coefficients.

For a cycle type alpha of degree d the generating function of monotone
transposition walks is the character sum

    sum over shapes lambda of  chi(lambda, alpha)
        / product over cells of  h * (1 - c*x)

with h the hook length and c the content of the cell.  All evaluation
is exact; poles 1 - c*x = 0 are caller errors (the natural domain is
0 < x < 1/(d-1), which contains none).

Evaluation runs in integers over one common denominator.  For reduced
x = p/q, shape lambda contributes q^d / D_lambda with
D_lambda = H_lambda * prod over cells (q - c*p), so with L the lcm of
the D_lambda

    M_alpha(x) = (q^d / L) * sum over lambda of chi(lambda, alpha) * (L / D_lambda).

``table_weights`` computes the positive scale q^d / L and the integer
weights L / D_lambda once per point; a value is then one integer dot
product, and a ``Fraction`` appears only for the final result.  The
functions that build or check one import ``fractions`` (and ``numbers``)
themselves, so ``series_coeff``, which returns an integer, loads neither
(with ``decimal``, which ``fractions`` imports, about 2 ms of start-up).

``normalizer(d)`` = (d!)^2 / d^d rescales the value at the distinguished
point x = 1/d into the compact fractions the scanner reports.

Text form: rationals are ``"N/D"`` in lowest terms with ``D > 0``
(``format_rat`` always prints the denominator, so the integer one
renders as ``"1/1"``).
"""

from __future__ import annotations

import math
import re
from operator import mul
from typing import TYPE_CHECKING

from .errors import (CapExceededError, DegreeMismatchError, DomainError, PoleError,
                     TableVerificationError)
from .partitions import (DIGITS, INTEGER, Partition, _check_cap, _hook_product,
                         as_partition, dimension, lex_list)

if TYPE_CHECKING:
    from fractions import Fraction

    from .characters import CharacterTable

_RAT_RE = re.compile(f"({INTEGER})(?:/({DIGITS}))?")


def parse_rat(text: str) -> Fraction:
    """Parse "N/D" or integer "N"; anything else (floats included) is rejected."""
    from fractions import Fraction

    m = _RAT_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a rational: {text!r} (expected N or N/D)")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ZeroDivisionError("division by zero")
    return Fraction(num, den)


def format_rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def catalan(n: int) -> int:
    """n-th Catalan number, (2n choose n) / (n + 1)."""
    if n < 0:
        raise ValueError(f"catalan of negative {n}")
    return math.comb(2 * n, n) // (n + 1)


def normalizer(d: int) -> Fraction:
    """Rescale factor (d!)^2 / d^d for values at x = 1/d."""
    from fractions import Fraction

    return Fraction(math.factorial(d) ** 2, d ** d)


def _checked_point(d: int, x) -> Fraction:
    """x as a ``Fraction``, after checking it is rational and no pole at degree d.

    Floats and strings, which ``Fraction`` would also read, are refused.
    The contents of the shapes of d are exactly -(d-1)..d-1: (d) holds
    0..d-1 and (1^d) holds 0..-(d-1), and neither character vanishes.  In
    lowest terms p/q, 1 - c*x = 0 for an integer c iff p = +-1 and c = p*q,
    so the one test is |p| = 1 and q < d.
    """
    from fractions import Fraction
    from numbers import Rational

    if not isinstance(x, Rational):
        raise DomainError(f"x must be a rational number, got {x!r}")
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    if abs(p) == 1 and q < d:
        raise PoleError(p * q, x)
    return x


def _weights(d: int, shapes, x) -> tuple[Fraction, list[int]]:
    """Scale q^d / L and integer weights L / D_lambda over shapes of degree d.

    ``shapes`` may be any of the shapes of d, and L is the lcm over those
    only; a pole at degree d is refused whatever the shapes.  Part j of
    the stored form is row k - 1 - j from the top of the k rows, and its
    contents run up from -(k - 1 - j).
    """
    from fractions import Fraction

    x = _checked_point(d, x)
    p, q = x.numerator, x.denominator
    factors = [q - c * p for c in range(1 - d, d)]  # content c at c + d - 1
    denoms = []
    for lam in shapes:
        k = len(lam)
        denom = _hook_product(lam)
        for j, part in enumerate(lam):
            start = d - k + j
            denom *= math.prod(factors[start:start + part])
        denoms.append(denom)
    lcm = math.lcm(*denoms)
    return Fraction(q ** d, lcm), [lcm // denom for denom in denoms]


def table_weights(table: CharacterTable, x: Fraction) -> tuple[Fraction, list[int]]:
    """Scale q^d / L and integer weights L / D_lambda, in table order.

    The weight of shape lambda times the scale is 1 / prod(h * (1 - c*x)).
    The scale is positive, so comparing weighted integer sums compares
    the values they stand for.
    """
    return _weights(table.degree, table.order, x)


def _check_degree(d: int, table: CharacterTable | None) -> None:
    """The degree cap without a table, else the table's degree; with
    ``_support``, the one place that chooses between a table and the kernel."""
    if table is None:
        _check_cap(d)
    elif table.degree != d:
        raise DegreeMismatchError(f"degree {d} against table of degree {table.degree}")


def _support(a: Partition, table: CharacterTable | None) -> list[tuple[int, Partition]]:
    """(chi(shape, a), shape) where chi is nonzero, in ``lex_list(d)`` order (a
    table's order): the table's column, else the kernel's.  After ``_check_degree``."""
    from ._mnkernel_py import character_column

    shapes, column = ((lex_list(a.degree), character_column(a)) if table is None
                      else (table.order, table.column(a)))
    return [(chi, lam) for chi, lam in zip(column, shapes) if chi]


def _contents(lam) -> list[int]:
    """Contents of a stored-form shape: part j of k is row k - 1 - j from the top."""
    k = len(lam)
    return [c for j, part in enumerate(lam) for c in range(j + 1 - k, j + 1 - k + part)]


def eval_M(alpha, x, table: CharacterTable | None = None) -> Fraction:
    """Exact value of the walk generating function at rational x.

    The degree is checked first (the cap, or the table's degree), then
    the pole, and only then is the column read, so a pole is reported
    before any character.  The weights and their lcm cover only the
    shapes where the column is nonzero; the reduced value is the same.

    >>> from fractions import Fraction
    >>> eval_M((2,), Fraction(1, 2))
    Fraction(2, 3)
    """
    a = as_partition(alpha)
    _check_degree(a.degree, table)
    x = _checked_point(a.degree, x)
    chis, lams = zip(*_support(a, table))
    scale, weights = _weights(a.degree, lams, x)
    return scale * sum(map(mul, chis, weights))


def complete_homogeneous(values, r: int) -> int:
    """Sum of all degree-r monomials over the multiset, with repetition.

    Runs the one-value-at-a-time recurrence (multiplying the series of
    1 / (1 - v*x) in), so only integer arithmetic appears.
    """
    if r < 0:
        raise ValueError(f"negative degree {r}")
    acc = [0] * (r + 1)
    acc[0] = 1
    for v in values:
        for j in range(1, r + 1):
            acc[j] += v * acc[j - 1]
    return acc[r]


# Walk lengths above this cap are rejected before any column or list is
# built.  From r = 14,300 on the smallest nonzero count at degree 3 and up
# has more digits than Python's default 4300-digit limit on int-to-str
# conversion, so no count at d >= 3 above the cap could be printed.
MAX_R = 15_000


def series_coeff(alpha, r: int, table: CharacterTable | None = None) -> int:
    """Number of r-step monotone walks reaching cycle type alpha.

    Extracted from the character sum by expanding each shape's
    1 / prod(1 - c*x) into complete homogeneous sums of the contents, read
    from the stored form (``_contents``, as in ``_weights``); with
    d!/H_lambda = f^lambda the sum is an integer over d!.  A sum that is
    not a non-negative multiple of d! can only come from a wrong table, and
    raises ``TableVerificationError`` (also under ``python -O``).  r is
    capped at ``MAX_R``.

    The degree is checked first (the cap, or the table's degree).  Without
    a table the column is then read only when r is on the support: a walk
    reaching alpha takes at least d - l(alpha) steps, and each step flips
    the sign, so r below that or of the other parity gives 0 with no
    column and no shape list.  With a table the formula is always
    evaluated, so its zeros stay checked.
    """
    if r < 0:
        raise ValueError(f"negative length {r}")
    if r > MAX_R:
        raise CapExceededError(f"r {r} beyond configured maximum {MAX_R}")
    a = as_partition(alpha)
    _check_degree(a.degree, table)
    gap = r - vanishing_order(a)
    if table is None and (gap < 0 or gap % 2):
        return 0
    total = 0
    for chi, lam in _support(a, table):
        total += chi * dimension(lam) * complete_homogeneous(_contents(lam), r)
    fact = math.factorial(a.degree)
    count, rem = divmod(total, fact)
    if rem or count < 0:
        from fractions import Fraction

        raise TableVerificationError(
            "walk count",
            f"alpha={a}, r={r}: {Fraction(total, fact)} is not a non-negative integer")
    return count


def vanishing_order(alpha) -> int:
    """Minimal walk length d - l(alpha); the series vanishes below it."""
    a = as_partition(alpha)
    return a.degree - a.length


def m0_catalan(alpha) -> int:
    """Bottom series coefficient as a product of Catalan numbers."""
    return math.prod(catalan(p - 1) for p in as_partition(alpha))


def leading_ratio(alpha, beta) -> Fraction:
    """Small-x limit of M_beta / M_alpha for equal-length partitions."""
    from fractions import Fraction

    a, b = as_partition(alpha), as_partition(beta)
    if a.degree != b.degree:
        raise DegreeMismatchError(
            f"degrees differ: {a.degree} vs {b.degree}")
    if a.length != b.length:
        raise DegreeMismatchError(
            f"lengths differ ({a.length} vs {b.length}); "
            "the small-x ratio is 0 or divergent, not a finite number")
    return Fraction(m0_catalan(b), m0_catalan(a))


# The largest n whose ratio Cat_n / 2^n still prints under Python's default
# 4300-digit limit on int-to-str conversion.
FAMILY_MAX_N = 7156


def counterexample_family(n: int) -> tuple[Partition, Partition, Fraction]:
    """The equal-length pair whose small-x ratio grows without bound.

    alpha = (1, 3^n) precedes beta = (2^n, n+1) in dictionary order, yet
    the limiting ratio Cat_n / 2^n exceeds 1 from n = 5 on.  n is capped
    at ``FAMILY_MAX_N`` before any big-integer work.

    >>> counterexample_family(5)
    (Partition('1,3^5'), Partition('2^5,6'), Fraction(21, 16))
    """
    from fractions import Fraction

    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > FAMILY_MAX_N:
        raise CapExceededError(f"n {n} beyond configured maximum {FAMILY_MAX_N}")
    alpha = Partition((1,) + (3,) * n)
    beta = Partition((2,) * n + (n + 1,))
    assert alpha.degree == beta.degree == 3 * n + 1
    assert alpha < beta
    return alpha, beta, Fraction(catalan(n), 2 ** n)
