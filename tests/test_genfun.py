import itertools
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import factorial, prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wgmono import _mnkernel_py, genfun, scanner
from wgmono.characters import CharacterTable
from wgmono.errors import (CapExceededError, DegreeMismatchError, DomainError,
                           PartitionError, PoleError, TableVerificationError)
from wgmono.genfun import (
    FAMILY_MAX_N,
    catalan,
    complete_homogeneous,
    counterexample_family,
    eval_M,
    format_rat,
    leading_ratio,
    m0_catalan,
    normalizer,
    parse_rat,
    series_coeff,
    table_weights,
    vanishing_order,
)
from wgmono.partitions import Partition, dimension, lex_list
from wgmono.scanner import scan

from cell_reference import cell_stats


def homogeneous_by_enumeration(values, r):
    """Oracle: sum every multiset of size r drawn with repetition."""
    total = 0
    for combo in itertools.combinations_with_replacement(values, r):
        prod = 1
        for v in combo:
            prod *= v
        total += prod
    return total


class TestCompleteHomogeneous:
    def test_degree_zero(self):
        assert complete_homogeneous((4, -2, 7), 0) == 1
        assert complete_homogeneous((), 0) == 1

    def test_zero_one_examples(self):
        assert complete_homogeneous((0, 1), 1) == 1
        assert complete_homogeneous((0, 1), 3) == 1  # only 1*1*1 survives

    @pytest.mark.parametrize("values", [(0, 1), (2, 3), (-1, 0, 2), (1, 1, -3, 5)])
    @pytest.mark.parametrize("r", range(0, 6))
    def test_against_enumeration(self, values, r):
        assert complete_homogeneous(values, r) == homogeneous_by_enumeration(values, r)


class TestEvalM:
    def test_single_cell(self, tables):
        t = tables.get(1)
        for x in (Fraction(1, 2), Fraction(-3, 7), Fraction(5, 1)):
            assert eval_M((1,), x, t) == 1

    def test_transposition_geometric_series(self, tables):
        # two-cell character sum collapses to x / (1 - x^2)
        t = tables.get(2)
        assert eval_M((2,), Fraction(1, 2), t) == Fraction(2, 3)
        for x in (Fraction(1, 3), Fraction(2, 5), Fraction(-1, 4)):
            assert eval_M((2,), x, t) == x / (1 - x * x)
            assert eval_M((1, 1), x, t) == 1 / (1 - x * x)

    def test_pole_names_content(self, tables):
        t = tables.get(3)
        with pytest.raises(PoleError, match="content 2"):
            eval_M((3,), Fraction(1, 2), t)
        with pytest.raises(PoleError, match="content -1"):
            eval_M((1, 2), Fraction(-1, 1), t)

    def test_pole_before_any_character(self, monkeypatch):
        def no_character(*args):
            raise AssertionError("character computed before the pole check")

        monkeypatch.setattr(_mnkernel_py, "class_vectors", no_character)
        monkeypatch.setattr(scanner, "class_sums", no_character)
        with pytest.raises(PoleError, match="^pole at x = 1/2: content 2 gives"):
            eval_M((1, 2), Fraction(1, 2))
        with pytest.raises(PoleError, match="^pole at x = -1/2: content -2 gives"):
            scan(3, Fraction(-1, 2))

    def test_degree_mismatch(self, tables):
        # one table-degree check, genfun._check_degree, before the pole
        # (1/2 is one at degree 3) and before series_coeff's off-support
        # return (r = 0 and 2 are off the support of 1,2)
        for call in (lambda: eval_M((1, 2), Fraction(1, 5), tables.get(4)),
                     lambda: eval_M((1, 2), Fraction(1, 2), tables.get(4)),
                     lambda: series_coeff((1, 2), 2, tables.get(4)),
                     lambda: series_coeff((1, 2), 0, tables.get(4)),
                     lambda: scan(3, table=tables.get(4)),
                     lambda: scan(3, Fraction(1, 2), table=tables.get(4)),
                     lambda: scan(5, table=tables.get(6))):
            with pytest.raises(DegreeMismatchError,
                               match=r"^degree \d against table of degree \d$"):
                call()


    @pytest.mark.parametrize("x", [0.25, 1 / 3, "1/3", "\u0661/\u0663", Decimal("0.1")])
    def test_point_must_be_rational(self, x, tables):
        # Fraction() would read each of these; an int or a Fraction is the point
        for call in (lambda: eval_M((1, 2), x), lambda: eval_M((1, 2), x, tables.get(3)),
                     lambda: scan(3, x), lambda: scan(3, x, table=tables.get(3))):
            with pytest.raises(DomainError, match="^x must be a rational number, got "):
                call()
        assert eval_M((1, 2), 0) == 0 and scan(3, 0).x == 0

    def test_float_parts_are_refused(self):
        with pytest.raises(PartitionError, match="^parts must be integers"):
            eval_M((1.5, 2.7), Fraction(1, 3))


def fraction_weights(table, x):
    """Reference: per-shape 1 / prod(h * (1 - c*x)) in Fraction arithmetic."""
    weights = []
    for lam in table.order:
        stats = cell_stats(lam)
        denom = Fraction(stats.hook_product)
        for c in stats.contents:
            factor = 1 - c * x
            if factor == 0:
                raise PoleError(c, x)
            denom *= factor
        weights.append(1 / denom)
    return weights


def fraction_eval(alpha, x, table):
    """Reference: the character sum accumulated one Fraction at a time."""
    total = Fraction(0)
    for chi, w in zip(table.column(alpha), fraction_weights(table, x)):
        if chi:
            total += chi * w
    return total


def count_lex_list(monkeypatch):
    """Record the degree of every ``lex_list`` call made from a loaded package module."""
    calls = []
    for name, module in list(sys.modules.items()):
        if name.startswith("wgmono.") and hasattr(module, "lex_list"):
            monkeypatch.setattr(module, "lex_list",
                                lambda d, f=module.lex_list: calls.append(d) or f(d))
    return calls


class TestIntegerPath:
    """Common-denominator evaluation against the Fraction reference."""

    @staticmethod
    def points(d):
        # -3/7 and 5/3 make some factors q - c*p negative
        return [Fraction(1, d), Fraction(0), Fraction(-3, 7), Fraction(5, 3),
                Fraction(2, 2 * d + 1)]

    @pytest.mark.parametrize("d", range(1, 11))
    def test_weights_match_reference(self, d, tables):
        t = tables.get(d)
        for x in self.points(d):
            scale, weights = table_weights(t, x)
            assert scale > 0
            assert all(isinstance(w, int) for w in weights)
            assert [scale * w for w in weights] == fraction_weights(t, x)

    @pytest.mark.parametrize("d", range(11, 21))
    def test_weights_match_cell_stats(self, d):
        # the first-column hook formula against hooks and contents cell by cell,
        # and the stored-form contents series_coeff reads against the cells'
        shapes = lex_list(d)
        stats = [cell_stats(lam) for lam in shapes]
        for x in (Fraction(1, d), Fraction(-3, 7), Fraction(5, 3)):
            p, q = x.numerator, x.denominator
            scale, weights = genfun._weights(d, shapes, x)
            reference = [Fraction(q ** d, cells.hook_product
                                  * prod(q - c * p for c in cells.contents))
                         for cells in stats]
            assert [scale * w for w in weights] == reference
        for lam, cells in zip(shapes, stats):
            assert sorted(genfun._contents(lam)) == list(cells.contents), lam

    @pytest.mark.parametrize("d", range(1, 11))
    def test_scan_and_eval_match_reference(self, d, tables):
        t = tables.get(d)
        for x in self.points(d):
            rep = scan(d, x, table=t)
            for mv in rep.values:
                expect = fraction_eval(mv.alpha, x, t)
                assert mv.value == expect
                assert eval_M(mv.alpha, x, t) == expect

    @pytest.mark.parametrize("d", range(1, 11))
    def test_table_free_matches_table(self, d, tables):
        t = tables.get(d)
        for alpha in t.order:
            for x in self.points(d)[:4]:
                assert eval_M(alpha, x) == eval_M(alpha, x, t)
            # without a table an off-support r returns 0 before any column;
            # with one the formula is evaluated, so the two meet here
            for r in range(max(2 * d, 12) + 1):
                assert series_coeff(alpha, r) == series_coeff(alpha, r, t), (alpha, r)

    @pytest.mark.parametrize("d", range(1, 15))
    def test_strip_removal_matches_columns(self, d, tables):
        t = tables.get(d)
        order = lex_list(d)
        for x in self.points(d):
            _, weights = table_weights(t, x)
            dots = [sum(map(mul, vec, weights))
                    for _, vec in _mnkernel_py.class_vectors(order)]
            assert _mnkernel_py.class_sums(order, weights) == dots
            assert _mnkernel_py.class_sums(order[::-1], weights) == dots[::-1]
            assert scan(d, x) == scan(d, x, table=t)

    def test_table_free_scan_computes_no_character(self, monkeypatch):
        def no_character(alphas):
            raise AssertionError("character computed by a table-free scan")

        monkeypatch.setattr(_mnkernel_py, "class_vectors", no_character)
        assert len(scan(13).violations) == 1

    def test_table_free_degree_cap(self):
        with pytest.raises(CapExceededError, match="^degree 21 beyond configured maximum 20$"):
            eval_M((21,), Fraction(1, 21))
        # both lengths are off the support, but the degree cap comes first
        with pytest.raises(CapExceededError, match="^degree 21 beyond configured maximum 20$"):
            series_coeff((1, 20), 3)
        with pytest.raises(CapExceededError, match="^degree 21 beyond configured maximum 20$"):
            series_coeff((1,) * 21, 1)

    def test_parity_shortcut_computes_no_column(self, monkeypatch):
        def no_column(alphas):
            raise AssertionError("column computed for an off-support length")

        calls = count_lex_list(monkeypatch)
        monkeypatch.setattr(_mnkernel_py, "class_vectors", no_column)
        alpha = Partition.parse("1^6,7")  # d - l = 6
        assert [series_coeff(alpha, r) for r in (0, 5, 7, 19)] == [0, 0, 0, 0]
        assert calls == []
        with pytest.raises(AssertionError, match="column computed"):
            series_coeff(alpha, 6)

    def test_table_free_enumerates_shapes_once(self, monkeypatch):
        calls = count_lex_list(monkeypatch)
        alpha = Partition.parse("1^6,7")
        assert eval_M(alpha, Fraction(1, 13)) * normalizer(13) == \
            Fraction(30132115571, 1149266300)
        assert calls == [13]
        series_coeff(alpha, 20)
        assert calls == [13, 13]
        assert len(scan(13).violations) == 1
        assert calls == [13, 13, 13]

    @pytest.mark.parametrize("d", range(2, 11))
    def test_poles_match_reference(self, d, tables):
        t = tables.get(d)
        alpha = t.order[-1]
        for c in [c for c in range(1 - d, d) if c]:
            x = Fraction(1, c)
            with pytest.raises(PoleError) as want:
                fraction_eval(alpha, x, t)
            for call in (lambda: eval_M(alpha, x, t), lambda: eval_M(alpha, x),
                         lambda: scan(d, x, table=t), lambda: scan(d, x)):
                with pytest.raises(PoleError) as got:
                    call()
                assert got.value.content == want.value.content
                assert got.value.x == want.value.x


class TestNormalizedValue:
    """A normalized value is the value at x = 1/d times ``normalizer(d)``."""

    def test_degree_one(self):
        assert eval_M((1,), Fraction(1)) * normalizer(1) == 1

    @pytest.mark.parametrize("d", list(range(1, 7)) + [13])
    def test_consistent_with_eval(self, d):
        # the scale that eval --normalized applies, computed outside the package
        assert normalizer(d) == Fraction(factorial(d) ** 2, d ** d)


class TestSeriesCoeff:
    def test_three_cycle_minimal_walks(self, tables):
        assert series_coeff((3,), 2, tables.get(3)) == 2  # Cat_2

    def test_wrong_parity(self, tables):
        assert series_coeff((2,), 2, tables.get(2)) == 0

    def test_identity_two_steps(self, tables):
        assert series_coeff((1, 1), 2, tables.get(2)) == 1

    @pytest.mark.parametrize("d", range(8, 13))
    def test_matches_cell_by_cell_sum(self, d, tables):
        # (1/d!) sum of chi * f * h_r(contents), with the contents taken cell
        # by cell, two steps past the minimal length of every class
        t = tables.get(d)
        for alpha in t.order:
            r = vanishing_order(alpha) + 2
            total = sum(t.chi(lam, alpha) * dimension(lam)
                        * complete_homogeneous(cell_stats(lam).contents, r)
                        for lam in t.order)
            count, rem = divmod(total, factorial(d))
            assert rem == 0 and count > 0, alpha
            assert series_coeff(alpha, r) == series_coeff(alpha, r, t) == count, alpha

    def test_negative_count_raises(self, tables):
        # chi((4), (2,2)) lowered by 4! keeps the sum a multiple of 4! but
        # moves the one-step count of 2^2 from 0 to -h_1(0,1,2,3) = -6.
        t = tables.get(4)
        values = [list(row) for row in t.values]
        values[t.position((4,))][t.position((2, 2))] -= factorial(4)
        bad = CharacterTable(4, tuple(map(tuple, values)))
        with pytest.raises(TableVerificationError,
                           match="alpha=2\\^2, r=1: -6 is not a non-negative integer"):
            series_coeff((2, 2), 1, bad)

    def test_wrong_table_raises(self, tables):
        # chi(1^5,3; 1^4,2^2) + 1 moves the true count 58 off the integers.
        # The check is not an assert, so python -O keeps it.
        t = tables.get(8)
        values = [list(row) for row in t.values]
        values[t.position((1, 1, 1, 1, 1, 3))][t.position((1, 1, 1, 1, 2, 2))] += 1
        bad = tuple(map(tuple, values))
        message = ("walk count failed: alpha=1^4,2^2, r=4: "
                   "38649/640 is not a non-negative integer")
        with pytest.raises(TableVerificationError) as err:
            series_coeff((1, 1, 1, 1, 2, 2), 4, CharacterTable(8, bad))
        assert str(err.value) == message
        src = str(Path(__file__).resolve().parents[1] / "src")
        run = subprocess.run(
            [sys.executable, "-O", "-c",
             "import ast, sys\n"
             "from wgmono.characters import CharacterTable\n"
             "from wgmono.genfun import series_coeff\n"
             "bad = CharacterTable(8, ast.literal_eval(sys.stdin.read()))\n"
             "series_coeff((1, 1, 1, 1, 2, 2), 4, bad)\n"],
            input=repr(bad), env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True)
        assert run.returncode == 1
        assert run.stderr.splitlines()[-1] == \
            f"wgmono.errors.TableVerificationError: {message}"


class TestVanishingOrder:
    def test_identity_type(self):
        assert vanishing_order(Partition((1,) * 9)) == 0

    @pytest.mark.parametrize("d", [2, 5, 13])
    def test_full_cycle(self, d):
        assert vanishing_order(Partition((d,))) == d - 1

    def test_arithmetic(self):
        assert vanishing_order(Partition.parse("1^5,2^4")) == 13 - 9

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_longer_partition_vanishes_later(self, d):
        # the small-x limit ordering reduces to this order gap
        for alpha in lex_list(d):
            for beta in lex_list(d):
                if alpha.length > beta.length:
                    assert vanishing_order(alpha) < vanishing_order(beta)


class TestM0Catalan:
    def test_all_ones(self):
        assert m0_catalan(Partition((1,) * 6)) == 1

    def test_family_members(self):
        assert m0_catalan(Partition.parse("1,3^5")) == 2 ** 5
        assert m0_catalan(Partition.parse("2^5,6")) == 42


class TestLeadingRatio:
    def test_equal_partitions(self):
        assert leading_ratio((1, 3), (1, 3)) == 1

    def test_family_at_n5(self):
        assert leading_ratio(Partition.parse("1,3^5"), Partition.parse("2^5,6")) \
            == Fraction(21, 16)

    def test_small_pair(self):
        assert leading_ratio((1, 3), (2, 2)) == Fraction(1, 2)

    def test_length_mismatch(self):
        with pytest.raises(DegreeMismatchError, match="length"):
            leading_ratio((1, 3), (4,))

    @pytest.mark.parametrize("d", range(2, 8))
    def test_matches_series_bottom(self, d, tables):
        # limit of the value ratio equals the ratio of bottom coefficients
        for alpha in lex_list(d):
            for beta in lex_list(d):
                if alpha.length != beta.length:
                    continue
                assert leading_ratio(alpha, beta) == \
                    Fraction(m0_catalan(beta), m0_catalan(alpha))


class TestCounterexampleFamily:
    def test_n1(self):
        alpha, beta, ratio = counterexample_family(1)
        assert alpha == Partition((1, 3)) and beta == Partition((2, 2))
        assert ratio == Fraction(1, 2)

    def test_n20(self):
        _, _, ratio = counterexample_family(20)
        assert ratio == Fraction(6564120420, 1048576)
        assert ratio == Fraction(catalan(20), 2 ** 20)

    def test_shape_and_order(self):
        for n in range(1, 25):
            alpha, beta, _ = counterexample_family(n)
            assert alpha.degree == beta.degree == 3 * n + 1
            assert alpha.length == beta.length == n + 1
            assert alpha < beta

    def test_ratio_recurrence(self):
        prev = counterexample_family(1)[2]
        for n in range(2, 41):
            cur = counterexample_family(n)[2]
            assert cur / prev == Fraction(2 * (n - 1) + 1, (n - 1) + 2)
            prev = cur

    def test_cap_prints(self):
        # the largest n whose ratio still converts to decimal text
        ratio = counterexample_family(FAMILY_MAX_N)[2]
        assert format_rat(ratio).startswith(str(ratio.numerator))
        n = FAMILY_MAX_N + 1
        with pytest.raises(ValueError, match="integer string conversion"):
            format_rat(Fraction(catalan(n), 2 ** n))

    def test_beyond_cap_raises_before_big_integers(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError,
                               match=f"^n {FAMILY_MAX_N + 1} beyond configured "
                                     f"maximum {FAMILY_MAX_N}$"):
                counterexample_family(FAMILY_MAX_N + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_violates_at_one_over_2d_not_at_one_over_d(self):
        # n = 5, d = 16: M_beta / M_alpha is 1.169 at x = 1/32, 0.759 at 1/16
        alpha, beta, _ = counterexample_family(5)
        assert alpha.degree == 16
        assert eval_M(beta, Fraction(1, 32)) > eval_M(alpha, Fraction(1, 32))
        assert eval_M(beta, Fraction(1, 16)) < eval_M(alpha, Fraction(1, 16))


def slow_factorial(n):
    """Iterated-multiplication oracle."""
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def slow_binomial(n, k):
    if k > n:
        return 0
    return slow_factorial(n) // (slow_factorial(k) * slow_factorial(n - k))


class TestCatalan:
    @pytest.mark.parametrize("n,expected", [(0, 1), (2, 2), (5, 42)])
    def test_values(self, n, expected):
        assert slow_binomial(2 * n, n) // (n + 1) == expected
        assert catalan(n) == expected

    def test_recurrence(self):
        # Cat_{n+1} (n+2) = Cat_n 2 (2n+1), exactly
        for n in range(0, 65):
            assert catalan(n + 1) * (n + 2) == catalan(n) * 2 * (2 * n + 1)


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

    @pytest.mark.parametrize("bad", ["3.5", "1/0x2", "a/b", "", "1/-2", "1e3",
                                     "\u0661/3", "1/\u0663", "1_3"])
    def test_parse_rat_rejects(self, bad):
        with pytest.raises((ValueError, ZeroDivisionError)):
            parse_rat(bad)

    def test_parse_rat_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rat("1/0")

    @given(st.integers(-10**15, 10**15), st.integers(1, 10**15))
    def test_rat_round_trip(self, n, d):
        q = Fraction(n, d)
        assert parse_rat(format_rat(q)) == q
