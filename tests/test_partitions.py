import tracemalloc
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from wgmono.errors import CAPS, CapExceededError, PartitionError
from wgmono.partitions import (
    Partition,
    class_size,
    conjugate,
    dimension,
    lex_list,
    lex_successor,
    parse_int,
)

from cell_reference import cell_stats

partitions_st = st.lists(st.integers(1, 9), min_size=1, max_size=8).map(
    lambda xs: Partition(sorted(xs)))


def transpose_by_cells(p):
    """Brute-force conjugate: transpose the explicit cell set."""
    rows = tuple(reversed(tuple(p)))
    cells = {(i, j) for i, r in enumerate(rows) for j in range(r)}
    flipped = {(j, i) for (i, j) in cells}
    heights = {}
    for i, _ in flipped:
        heights[i] = heights.get(i, 0) + 1
    return Partition(sorted(heights.values()))


class TestPartitionType:
    def test_validation(self):
        with pytest.raises(PartitionError):
            Partition(())
        with pytest.raises(PartitionError):
            Partition((0, 1))
        with pytest.raises(PartitionError):
            Partition((2, 1))

    @pytest.mark.parametrize("parts", [(1.5, 2.7), (1, 2.0), ("\u0661", "2"), ("1", "2"),
                                       (Fraction(1), 2), 5, None])
    def test_parts_must_be_integers(self, parts):
        # int() would truncate the floats and read the strings, digits of any script;
        # tuple() would raise TypeError on 5 and None
        with pytest.raises(PartitionError, match="^parts must be integers, got "):
            Partition(parts)

    def test_degree_length(self):
        p = Partition((1, 1, 7))
        assert p.degree == 9 and p.length == 3
        assert p.rows == (7, 1, 1)

    @pytest.mark.parametrize("text,parts", [
        ("1,1,1,1,1,1,7", (1, 1, 1, 1, 1, 1, 7)),
        ("1^6,7", (1, 1, 1, 1, 1, 1, 7)),
        ("2^2", (2, 2)),
        ("5", (5,)),
        (" 1 , 2 ", (1, 2)),
    ])
    def test_parse(self, text, parts):
        assert Partition.parse(text) == Partition(parts)

    @pytest.mark.parametrize("bad", ["", "0", "2,1", "1^0", "1..2", "7,", "x",
                                     "\u0661^6,7", "2^\u0662", "1_3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(PartitionError):
            Partition.parse(bad)

    def test_parse_cap_boundary(self):
        assert Partition.parse("1^18,2", max_degree=20).degree == 20
        with pytest.raises(CapExceededError,
                           match="^degree 21 beyond configured maximum 20$"):
            Partition.parse("1^19,2", max_degree=20)

    @staticmethod
    def rejected_parse_peak(cap, *args):
        """Peak traced bytes while parse rejects 1^10000000000 at ``cap``."""
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError,
                               match=f"^degree 10000000000 beyond configured maximum {cap}$"):
                Partition.parse("1^10000000000", *args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_parse_checks_cap_before_expanding(self):
        assert self.rejected_parse_peak(20, 20) < 1 << 20

    def test_parse_is_bounded_by_default(self):
        assert self.rejected_parse_peak(CAPS["parse_degree"]) < 1 << 20

    def test_default_bound_is_the_largest_family_degree(self):
        cap = CAPS["parse_degree"]
        assert cap == 3 * CAPS["n"] + 1
        assert Partition.parse(f"1^{cap}").degree == cap

    @given(partitions_st)
    def test_text_round_trip(self, p):
        assert Partition.parse(str(p)) == p


class TestParseInt:
    @pytest.mark.parametrize("text,value", [("13", 13), ("-1", -1), ("+3", 3),
                                            (" 7 ", 7), ("007", 7)])
    def test_ascii_digits(self, text, value):
        assert parse_int(text) == value

    # Arabic-Indic and fullwidth digits, underscores: all taken by int()
    @pytest.mark.parametrize("bad", ["\u0661", "-\u0661", "\uff11\uff13", "1_3",
                                     "", "-", "1.0", "0x1"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="^not an integer: "):
            parse_int(bad)


def all_partitions(n):
    """Oracle: every partition of n as a sorted tuple, one part added at a time."""
    shapes = {(n,)}
    for k in range(1, n):
        shapes |= {tuple(sorted(p + (k,))) for p in all_partitions(n - k)}
    return shapes


class TestLexList:
    def test_d1(self):
        assert lex_list(1) == [Partition((1,))]

    @pytest.mark.parametrize("d,count", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7),
                                         (6, 11), (7, 15), (8, 22), (13, 101)])
    def test_counts(self, d, count):
        out = lex_list(d)
        assert len(out) == count
        assert len(set(out)) == count

    @pytest.mark.parametrize("d", range(1, 13))
    def test_matches_checked_partitions(self, d):
        # lex_list skips the constructor's checks; the checked construction
        # of an independent enumeration must give the same list
        out = lex_list(d)
        assert out == [Partition(t) for t in sorted(all_partitions(d))]
        assert all(type(p) is Partition for p in out)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_strictly_increasing_and_bounded(self, d):
        out = lex_list(d)
        assert out[0] == Partition((1,) * d) and out[-1] == Partition((d,))
        for a, b in zip(out, out[1:]):
            assert a < b


class TestLexSuccessor:
    @pytest.mark.parametrize("start,expected", [
        ("1^6,7", "1^5,2^4"),
        ("3^2", "6"),
        ("1^4,2", "1^3,3"),
    ])
    def test_examples(self, start, expected):
        assert lex_successor(Partition.parse(start)) == Partition.parse(expected)

    def test_last_has_none(self):
        assert lex_successor(Partition((6,))) is None

    @pytest.mark.parametrize("d", range(1, 12))
    def test_chain_visits_lex_list(self, d):
        chain = [Partition((1,) * d)]
        while (nxt := lex_successor(chain[-1])) is not None:
            chain.append(nxt)
        assert chain == lex_list(d)


class TestConjugate:
    @pytest.mark.parametrize("p,expected", [
        ((1, 1, 1, 1), (4,)),
        ((2, 2), (2, 2)),
        ((1, 1, 3), (1, 1, 3)),
        ((1, 2), (1, 2)),
    ])
    def test_examples(self, p, expected):
        assert conjugate(Partition(p)) == Partition(expected)

    @given(partitions_st)
    def test_matches_cell_transpose(self, p):
        assert conjugate(p) == transpose_by_cells(p)

    @given(partitions_st)
    def test_involution(self, p):
        assert conjugate(conjugate(p)) == p


class TestCellStats:
    def test_single_row(self):
        s = cell_stats(Partition((2,)))
        assert s.hook_lengths == (1, 2) and s.contents == (0, 1)

    def test_hook_shape(self):
        s = cell_stats(Partition((1, 2)))
        assert s.hook_lengths == (1, 1, 3) and s.contents == (-1, 0, 1)

    def test_repr_and_tuple(self):
        s = cell_stats(Partition((1, 2)))
        assert repr(s) == "CellStats(hook_lengths=(1, 1, 3), contents=(-1, 0, 1))"
        assert s == ((1, 1, 3), (-1, 0, 1)) and s.hook_product == 3
        with pytest.raises(AttributeError):
            s.hook_lengths = ()

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_single_column(self, d):
        s = cell_stats(Partition((1,) * d))
        assert s.contents == tuple(range(-(d - 1), 1))
        assert s.hook_lengths == tuple(range(1, d + 1))

    @pytest.mark.parametrize("d", range(1, 13))
    def test_dimension_integrality(self, d):
        for p in lex_list(d):
            stats = cell_stats(p)
            assert len(stats.hook_lengths) == d == len(stats.contents)
            assert factorial(d) % stats.hook_product == 0
            assert dimension(p) * stats.hook_product == factorial(d)

    @given(partitions_st)
    def test_content_range(self, p):
        s = cell_stats(p)
        assert min(s.contents) == -(p.length - 1)
        assert max(s.contents) == max(p) - 1


class TestClassSize:
    def count_by_enumeration(self, d):
        import itertools
        from wgmono.walks import cycle_type
        out = {}
        for perm in itertools.permutations(range(d)):
            t = cycle_type(perm)
            out[t] = out.get(t, 0) + 1
        return out

    @pytest.mark.parametrize("d", [1, 4, 6])
    def test_identity_class(self, d):
        assert class_size(Partition((1,) * d)) == 1

    def test_transpositions_of_s3(self):
        assert class_size(Partition((1, 2))) == 3

    @pytest.mark.parametrize("d", range(2, 9))
    def test_full_cycles(self, d):
        assert class_size(Partition((d,))) == factorial(d - 1)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_against_enumeration(self, d):
        counted = self.count_by_enumeration(d)
        for p in lex_list(d):
            assert class_size(p) == counted[p]

    @pytest.mark.parametrize("d", range(1, 13))
    def test_sizes_sum_to_group_order(self, d):
        assert sum(class_size(p) for p in lex_list(d)) == factorial(d)
