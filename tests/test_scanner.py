import csv
import io
import json
from fractions import Fraction

import pytest

from wgmono.errors import DomainError
from wgmono.exact import rat
from wgmono.genfun import eval_M, normalized_value
from wgmono.partitions import Partition, lex_list
from wgmono.scanner import (
    _classify,
    _runs,
    interval_stat,
    scan,
)


class TestClassify:
    def test_strictly_decreasing(self):
        values = [Fraction(5), Fraction(3), Fraction(1)]
        assert _classify(values) == ([], [])

    def test_violation_and_tie(self):
        values = [Fraction(5), Fraction(5), Fraction(7), Fraction(2)]
        violations, ties = _classify(values)
        assert violations == [1]
        assert ties == [0]

    def test_runs_split_after_violations(self):
        order = tuple(lex_list(4))  # 5 entries
        runs = _runs(order, [1, 3])
        assert [(r.start, r.end, r.length) for r in runs] == [
            (order[0], order[1], 2), (order[2], order[3], 2), (order[4], order[4], 1)]
        assert sum(r.length for r in runs) == 5


class TestScan:
    def test_d6_monotone(self, tables):
        rep = scan(6, table=tables.get(6))
        assert rep.x == rat(1, 6)
        assert rep.violations == ()
        assert rep.ties == ()
        runs = rep.runs
        assert len(runs) == 1 and runs[0].length == 11
        vals = [mv.value for mv in rep.values]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_no_violations_below_13(self, d, tables):
        rep = scan(d, table=tables.get(d))
        assert rep.violations == () and rep.ties == ()
        assert sum(r.length for r in rep.runs) == len(rep.values)

    def test_values_match_eval(self, tables):
        for d in (3, 5, 6):
            rep = scan(d, table=tables.get(d))
            t = tables.get(d)
            for mv in rep.values:
                assert mv.value == eval_M(mv.alpha, rep.x, t)

    def test_custom_x(self, tables):
        rep = scan(5, rat(1, 50), table=tables.get(5))
        assert rep.x == Fraction(1, 50)
        t = tables.get(5)
        for mv in rep.values:
            assert mv.value == eval_M(mv.alpha, rat(1, 50), t)

    def test_table_degree_checked(self, tables):
        with pytest.raises(DomainError):
            scan(5, table=tables.get(6))

    def test_jobs_do_not_change_report(self, tables):
        base = scan(8, table=tables.get(8), jobs=1)
        fanned = scan(8, table=tables.get(8), jobs=3)
        assert base.to_json() == fanned.to_json()
        assert base.to_csv() == fanned.to_csv()


class TestIntervalStat:
    def test_whole_range(self, tables):
        rep = scan(6, table=tables.get(6))
        stat = interval_stat(rep, Partition((1,) * 6), Partition((6,)))
        assert stat.cardinality == 10  # p(6) - 1
        assert stat.violations_inside == ()

    def test_order_enforced(self, tables):
        rep = scan(6, table=tables.get(6))
        with pytest.raises(DomainError, match="strictly before"):
            interval_stat(rep, Partition((6,)), Partition((1,) * 6))
        with pytest.raises(DomainError, match="strictly before"):
            interval_stat(rep, Partition((6,)), Partition((6,)))

    def test_bounds_must_belong(self, tables):
        rep = scan(6, table=tables.get(6))
        with pytest.raises(DomainError):
            interval_stat(rep, Partition((7,)), Partition((6,)))

    def test_violation_at_low_is_excluded(self, tables):
        # the degree-13 violating pair: the violation sits AT low, so the
        # half-open interval (low, successor] contains no violation
        rep = scan(13)
        low = Partition.parse("1^6,7")
        high = Partition.parse("1^5,2^4")
        stat = interval_stat(rep, low, high)
        assert stat.cardinality == 1
        assert stat.violations_inside == ()
        assert rep.violations == (low,)
        assert len(rep.runs) == len(rep.violations) + 1
        assert sum(r.length for r in rep.runs) == len(rep.values)


class TestSerialization:
    def test_json_schema(self, tables):
        rep = scan(6, table=tables.get(6))
        doc = json.loads(rep.to_json())
        assert doc["degree"] == 6
        assert doc["x"] == "1/6"
        assert len(doc["entries"]) == 11
        assert doc["entries"][0]["partition"] == "1^6"
        for entry in doc["entries"]:
            num, den = entry["value"].split("/")
            assert int(den) > 0
            int(num)
        assert doc["violations"] == [] and doc["ties"] == []
        assert doc["runs"] == [{"start": "1^6", "end": "6", "length": 11}]
        assert "intervals" not in doc

    def test_json_interval_block(self, tables):
        rep = scan(6, table=tables.get(6))
        stat = interval_stat(rep, Partition((1,) * 6), Partition((6,)))
        doc = json.loads(rep.to_json((stat,)))
        assert doc["intervals"] == [{
            "low": "1^6", "high": "6", "cardinality": 10, "violations_inside": []}]

    def test_normalized_column(self, tables):
        rep = scan(5, table=tables.get(5))
        doc = json.loads(rep.to_json())
        for entry, alpha in zip(doc["entries"], lex_list(5)):
            expect = normalized_value(alpha, tables.get(5))
            assert entry["normalized"] == f"{expect.numerator}/{expect.denominator}"

    def test_csv_round_trip(self, tables):
        rep = scan(6, table=tables.get(6))
        rows = list(csv.reader(io.StringIO(rep.to_csv())))
        assert rows[0] == ["partition", "normalized"]
        assert len(rows) == 12
        assert rows[1][0] == "1^6"
        # partitions with commas stay one field thanks to quoting
        assert rows[2][0] == "1^4,2"
