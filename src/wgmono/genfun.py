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
product, and a ``Fraction`` appears only for the final result.

``normalized_value`` rescales the value at the distinguished point
x = 1/d by ``normalizer(d)`` = (d!)^2 / d^d, which turns the walk series
into the compact fractions the scanner reports.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .characters import CharacterTable
from .errors import DegreeMismatchError, PoleError
from .exact import catalan, factorial, int_pow, rat
from .partitions import Partition, as_partition, cell_stats


def _check_degree(alpha: Partition, table: CharacterTable) -> None:
    if alpha.degree != table.degree:
        raise DegreeMismatchError(
            f"partition of {alpha.degree} against table of degree {table.degree}")


def normalizer(d: int) -> Fraction:
    """Rescale factor (d!)^2 / d^d for values at x = 1/d."""
    return rat(int_pow(factorial(d), 2), int_pow(d, d))


def table_weights(table: CharacterTable, x: Fraction) -> tuple[Fraction, list[int]]:
    """Scale q^d / L and integer weights L / D_lambda, in table order.

    The weight of shape lambda times the scale is 1 / prod(h * (1 - c*x)).
    The scale is positive, so comparing weighted integer sums compares
    the values they stand for.
    """
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    denoms = []
    for lam in table.order:
        stats = cell_stats(lam)
        denom = stats.hook_product
        for c in stats.contents:
            factor = q - c * p
            if factor == 0:
                raise PoleError(c, x)
            denom *= factor
        denoms.append(denom)
    lcm = math.lcm(*denoms)
    return Fraction(int_pow(q, table.degree), lcm), [lcm // denom for denom in denoms]


def eval_M(alpha, x, table: CharacterTable) -> Fraction:
    """Exact value of the walk generating function at rational x.

    >>> from wgmono.characters import build_table
    >>> eval_M((2,), Fraction(1, 2), build_table(2))
    Fraction(2, 3)
    """
    a = as_partition(alpha)
    _check_degree(a, table)
    scale, weights = table_weights(table, x)
    return scale * sum(map(mul, table.column(a), weights))


def normalized_value(alpha, table: CharacterTable) -> Fraction:
    """Value at x = 1/d rescaled by (d!)^2 / d^d."""
    d = table.degree
    return eval_M(alpha, rat(1, d), table) * normalizer(d)


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


def series_coeff(alpha, r: int, table: CharacterTable) -> int:
    """Number of r-step monotone walks reaching cycle type alpha.

    Extracted from the character sum by expanding each shape's
    1 / prod(1 - c*x) into complete homogeneous sums of the contents;
    with d!/H_lambda = f^lambda the sum is an integer over d!.
    """
    a = as_partition(alpha)
    _check_degree(a, table)
    if r < 0:
        raise ValueError(f"negative length {r}")
    fact = factorial(a.degree)
    total = 0
    for chi, lam in zip(table.column(a), table.order):
        if not chi:
            continue
        stats = cell_stats(lam)
        f_lam = fact // stats.hook_product
        total += chi * f_lam * complete_homogeneous(stats.contents, r)
    count, rem = divmod(total, fact)
    assert rem == 0, f"non-integer walk count for {a}, r={r}"
    assert count >= 0, f"negative walk count for {a}, r={r}"
    return count


def vanishing_order(alpha) -> int:
    """Minimal walk length d - l(alpha); the series vanishes below it."""
    a = as_partition(alpha)
    return a.degree - a.length


def m0_catalan(alpha) -> int:
    """Bottom series coefficient as a product of Catalan numbers."""
    prod = 1
    for p in as_partition(alpha):
        prod *= catalan(p - 1)
    return prod


def leading_ratio(alpha, beta) -> Fraction:
    """Small-x limit of M_beta / M_alpha for equal-length partitions."""
    a, b = as_partition(alpha), as_partition(beta)
    if a.degree != b.degree:
        raise DegreeMismatchError(
            f"degrees differ: {a.degree} vs {b.degree}")
    if a.length != b.length:
        raise DegreeMismatchError(
            f"lengths differ ({a.length} vs {b.length}); "
            "the small-x ratio is 0 or divergent, not a finite number")
    return rat(m0_catalan(b), m0_catalan(a))


def counterexample_family(n: int) -> tuple[Partition, Partition, Fraction]:
    """The equal-length pair whose small-x ratio grows without bound.

    alpha = (1, 3^n) precedes beta = (2^n, n+1) in dictionary order, yet
    the limiting ratio Cat_n / 2^n exceeds 1 from n = 5 on.

    >>> counterexample_family(5)
    (Partition('1,3^5'), Partition('2^5,6'), Fraction(21, 16))
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    alpha = Partition((1,) + (3,) * n)
    beta = Partition((2,) * n + (n + 1,))
    assert alpha.degree == beta.degree == 3 * n + 1
    assert alpha < beta
    return alpha, beta, rat(catalan(n), int_pow(2, n))
