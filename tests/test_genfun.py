import itertools
from fractions import Fraction

import pytest

from wgmono.errors import DegreeMismatchError, PoleError
from wgmono.exact import catalan, factorial, rat
from wgmono.genfun import (
    complete_homogeneous,
    counterexample_family,
    eval_M,
    leading_ratio,
    m0_catalan,
    normalized_value,
    series_coeff,
    table_weights,
    vanishing_order,
)
from wgmono.partitions import Partition, cell_stats, lex_list
from wgmono.scanner import scan


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
        for x in (rat(1, 2), rat(-3, 7), rat(5, 1)):
            assert eval_M((1,), x, t) == 1

    def test_transposition_geometric_series(self, tables):
        # two-cell character sum collapses to x / (1 - x^2)
        t = tables.get(2)
        assert eval_M((2,), rat(1, 2), t) == Fraction(2, 3)
        for x in (rat(1, 3), rat(2, 5), rat(-1, 4)):
            assert eval_M((2,), x, t) == x / (1 - x * x)
            assert eval_M((1, 1), x, t) == 1 / (1 - x * x)

    def test_pole_names_content(self, tables):
        t = tables.get(3)
        with pytest.raises(PoleError, match="content 2"):
            eval_M((3,), rat(1, 2), t)
        with pytest.raises(PoleError, match="content -1"):
            eval_M((1, 2), rat(-1, 1), t)

    def test_degree_mismatch(self, tables):
        with pytest.raises(DegreeMismatchError):
            eval_M((1, 2), rat(1, 5), tables.get(4))

    @pytest.mark.parametrize("d", range(2, 8))
    def test_positive_inside_domain(self, d, tables):
        t = tables.get(d)
        xs = [rat(1, 10 * d), rat(1, 2 * d), rat(1, d), rat(99, 100 * (d - 1))]
        for alpha in t.order:
            for x in xs:
                assert eval_M(alpha, x, t) > 0


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


class TestIntegerPath:
    """Common-denominator evaluation against the Fraction reference."""

    @staticmethod
    def points(d):
        # -3/7 and 5/3 make some factors q - c*p negative
        return [rat(1, d), rat(0), rat(-3, 7), rat(5, 3), rat(2, 2 * d + 1)]

    @pytest.mark.parametrize("d", range(1, 11))
    def test_weights_match_reference(self, d, tables):
        t = tables.get(d)
        for x in self.points(d):
            scale, weights = table_weights(t, x)
            assert scale > 0
            assert all(isinstance(w, int) for w in weights)
            assert [scale * w for w in weights] == fraction_weights(t, x)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_scan_and_eval_match_reference(self, d, tables):
        t = tables.get(d)
        for x in self.points(d):
            rep = scan(d, x, table=t)
            for mv in rep.values:
                expect = fraction_eval(mv.alpha, x, t)
                assert mv.value == expect
                assert eval_M(mv.alpha, x, t) == expect

    @pytest.mark.parametrize("d", range(2, 11))
    def test_poles_match_reference(self, d, tables):
        t = tables.get(d)
        alpha = t.order[-1]
        for c in [c for c in range(1 - d, d) if c]:
            x = rat(1, c)
            with pytest.raises(PoleError) as want:
                fraction_eval(alpha, x, t)
            for call in (lambda: eval_M(alpha, x, t), lambda: scan(d, x, table=t)):
                with pytest.raises(PoleError) as got:
                    call()
                assert got.value.content == want.value.content
                assert got.value.x == want.value.x


class TestNormalizedValue:
    def test_degree_one(self, tables):
        assert normalized_value((1,), tables.get(1)) == 1

    @pytest.mark.parametrize("d", list(range(1, 7)) + [13])
    def test_consistent_with_eval(self, d, tables):
        t = tables.get(d)
        scale = rat(factorial(d) ** 2, d ** d)
        for alpha in t.order:
            assert eval_M(alpha, rat(1, d), t) * scale == normalized_value(alpha, t)


class TestSeriesCoeff:
    def test_three_cycle_minimal_walks(self, tables):
        assert series_coeff((3,), 2, tables.get(3)) == 2  # Cat_2

    def test_wrong_parity(self, tables):
        assert series_coeff((2,), 2, tables.get(2)) == 0

    def test_identity_two_steps(self, tables):
        assert series_coeff((1, 1), 2, tables.get(2)) == 1

    @pytest.mark.parametrize("d", range(2, 7))
    def test_parity_support(self, d, tables):
        t = tables.get(d)
        for alpha in t.order:
            base = vanishing_order(alpha)
            for r in range(0, 11):
                c = series_coeff(alpha, r, t)
                if r < base or (r - base) % 2 == 1:
                    assert c == 0, (alpha, r)
                elif r == base:
                    assert c > 0

    @pytest.mark.parametrize("d", range(1, 9))
    def test_bottom_equals_catalan_product(self, d, tables):
        t = tables.get(d)
        for alpha in t.order:
            assert series_coeff(alpha, vanishing_order(alpha), t) == m0_catalan(alpha)


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

    def test_n5_first_above_one(self):
        ratios = {n: counterexample_family(n)[2] for n in range(1, 7)}
        assert ratios[5] == Fraction(21, 16)
        assert all(ratios[n] <= 1 for n in range(1, 5))
        assert ratios[5] > 1

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

    def test_growth(self):
        r5 = counterexample_family(5)[2]
        r20 = counterexample_family(20)[2]
        assert r20 / r5 > 100
