from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wgmono.exact import (
    binomial,
    catalan,
    factorial,
    format_rat,
    int_pow,
    parse_rat,
    rat,
)


def slow_factorial(n):
    """Iterated-multiplication oracle."""
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def slow_pow(b, e):
    out = 1
    for _ in range(e):
        out *= b
    return out


def slow_binomial(n, k):
    if k > n:
        return 0
    return slow_factorial(n) // (slow_factorial(k) * slow_factorial(n - k))


def euclid_gcd(a, b):
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


class TestRat:
    def test_reduction(self):
        assert rat(2, 4) == Fraction(1, 2)
        assert rat(2, 4).numerator == 1 and rat(2, 4).denominator == 2

    def test_sign_normalization(self):
        q = rat(3, -6)
        assert q == Fraction(-1, 2)
        assert q.numerator == -1 and q.denominator == 2

    def test_printed_fraction_already_reduced(self):
        # the big scan-report fraction is coprime, so rat keeps it verbatim
        n, d = 426729597219, 16089728200
        assert euclid_gcd(n, d) == 1
        q = rat(n, d)
        assert (q.numerator, q.denominator) == (n, d)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            rat(1, 0)

    @given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12).filter(bool))
    def test_additive_inverse(self, a, b):
        assert rat(a, b) + rat(-a, b) == 0

    @given(st.integers(-10**9, 10**9).filter(bool),
           st.integers(-10**9, 10**9).filter(bool))
    def test_multiplicative_inverse(self, a, b):
        assert rat(a, b) * rat(b, a) == 1

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
    def test_canonical_idempotent(self, n, d):
        q = rat(n, d)
        again = rat(q.numerator, q.denominator)
        assert (again.numerator, again.denominator) == (q.numerator, q.denominator)

    def test_equal_values_identical_representation(self):
        assert (rat(2, 4).numerator, rat(2, 4).denominator) == \
               (rat(1, 2).numerator, rat(1, 2).denominator)


class TestFactorial:
    @pytest.mark.parametrize("n,expected", [(0, 1), (13, 6227020800),
                                            (20, 2432902008176640000)])
    def test_values(self, n, expected):
        assert slow_factorial(n) == expected
        assert factorial(n) == expected

    def test_recurrence(self):
        for n in range(1, 31):
            assert factorial(n) == n * factorial(n - 1)

    def test_negative(self):
        with pytest.raises(ValueError):
            factorial(-1)


class TestIntPow:
    @pytest.mark.parametrize("b,e,expected", [(5, 0, 1), (2, 20, 1048576),
                                              (13, 13, 302875106592253)])
    def test_values(self, b, e, expected):
        assert slow_pow(b, e) == expected
        assert int_pow(b, e) == expected

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            int_pow(2, -1)


class TestCatalan:
    @pytest.mark.parametrize("n,expected", [(0, 1), (2, 2), (5, 42)])
    def test_values(self, n, expected):
        assert slow_binomial(2 * n, n) // (n + 1) == expected
        assert catalan(n) == expected

    def test_recurrence(self):
        # Cat_{n+1} (n+2) = Cat_n 2 (2n+1), exactly
        for n in range(0, 65):
            assert catalan(n + 1) * (n + 2) == catalan(n) * 2 * (2 * n + 1)

    @given(st.integers(0, 30), st.integers(0, 30))
    def test_binomial_matches_oracle(self, n, k):
        assert binomial(n + k, k) == slow_binomial(n + k, k)


class TestSerialization:
    def test_format_rat_keeps_denominator(self):
        assert format_rat(Fraction(1)) == "1/1"
        assert format_rat(Fraction(-3, 7)) == "-3/7"

    @pytest.mark.parametrize("text,expected", [
        ("3/4", Fraction(3, 4)), ("-3/4", Fraction(-3, 4)),
        ("5", Fraction(5)), ("+2/6", Fraction(1, 3)),
    ])
    def test_parse_rat(self, text, expected):
        assert parse_rat(text) == expected

    @pytest.mark.parametrize("bad", ["3.5", "1/0x2", "a/b", "", "1/-2", "1e3"])
    def test_parse_rat_rejects(self, bad):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rat(bad)

    def test_parse_rat_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rat("1/0")

    @given(st.integers(-10**15, 10**15), st.integers(1, 10**15))
    def test_rat_round_trip(self, n, d):
        q = rat(n, d)
        assert parse_rat(format_rat(q)) == q
