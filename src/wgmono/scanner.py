"""Monotonicity scan of the walk generating function over a full rank.

For every partition of d in dictionary order the scanner evaluates the
generating function at a common rational point (default 1/d), then
extracts the violation set (values that strictly increase into their
successor), exact ties (reported separately, never folded into either
side), and the maximal monotone runs between violations.

Reports serialize to JSON and to CSV of (partition, normalized value);
values are always exact "N/D" strings.  The records are named tuples,
so a record compares equal to the plain tuple of its fields.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING

from ._mnkernel_py import class_sums
from .errors import DomainError
from .genfun import _check_degree, _checked_point, _weights, format_rat, normalizer
from .partitions import Partition, as_partition, lex_list

if TYPE_CHECKING:
    from .characters import CharacterTable


class MValue(namedtuple("MValue", "alpha value")):
    """One partition and its value at the scan point."""

    __slots__ = ()


class Run(namedtuple("Run", "start end length")):
    """A maximal monotone stretch from start to end, both included."""

    __slots__ = ()


class ScanReport(namedtuple("ScanReport", "degree x values violations ties runs")):
    """Values at x of every partition of the degree, in lex order, classified."""

    __slots__ = ()

    def to_json(self, intervals: tuple[IntervalStat, ...] = ()) -> str:
        import json

        norm = normalizer(self.degree)
        doc = {
            "degree": self.degree,
            "x": format_rat(self.x),
            "entries": [
                {
                    "partition": str(mv.alpha),
                    "value": format_rat(mv.value),
                    "normalized": format_rat(mv.value * norm),
                }
                for mv in self.values
            ],
            "violations": [str(p) for p in self.violations],
            "ties": [str(p) for p in self.ties],
            "runs": [
                {"start": str(r.start), "end": str(r.end), "length": r.length}
                for r in self.runs
            ],
        }
        if intervals:
            doc["intervals"] = [
                {
                    "low": str(s.low),
                    "high": str(s.high),
                    "cardinality": s.cardinality,
                    "violations_inside": [str(p) for p in s.violations_inside],
                }
                for s in intervals
            ]
        return json.dumps(doc, indent=2)

    def to_csv(self) -> str:
        import csv
        import io

        norm = normalizer(self.degree)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["partition", "normalized"])
        for mv in self.values:
            writer.writerow([str(mv.alpha), format_rat(mv.value * norm)])
        return buf.getvalue()


class IntervalStat(namedtuple("IntervalStat", "low high cardinality violations_inside")):
    """The half-open interval (low, high]: its size and the violations in it."""

    __slots__ = ()


def _classify(values: list[int]) -> tuple[list[int], list[int]]:
    """Indices of violations (value < next) and ties (value == next)."""
    steps = list(enumerate(zip(values, values[1:])))
    return [i for i, (a, b) in steps if a < b], [i for i, (a, b) in steps if a == b]


def _runs(order: tuple[Partition, ...], violations: list[int]) -> tuple[Run, ...]:
    """Split the lex sequence after each violation index."""
    runs = []
    start = 0
    for v in violations:
        runs.append(Run(order[start], order[v], v - start + 1))
        start = v + 1
    runs.append(Run(order[start], order[-1], len(order) - start))
    return tuple(runs)


def scan(d: int, x: Fraction | None = None, *, table: CharacterTable | None = None,
         jobs: int = 1) -> ScanReport:
    """Evaluate every partition of d at x (default 1/d) and classify.

    Every value is one integer sum against the common-denominator weights
    (those of ``table_weights``); the sums are classified as integers (the
    shared scale is positive) and become ``Fraction`` values only in the
    report.  Without a table, ``_mnkernel_py.class_sums`` computes every
    sum at once by removing border strips from the weights, so no
    character is computed; with one, each is a dot product with a table
    column.  The degree is checked before x = 1/d is formed, and x as
    ``eval_M`` checks it.  ``jobs`` is accepted and has no effect.
    """
    _check_degree(d, table)
    x = _checked_point(d, Fraction(1, d) if x is None else x)
    order = lex_list(d) if table is None else table.order
    scale, weights = _weights(d, order, x)
    if table is None:
        sums = class_sums(order, weights)
    else:
        sums = [sum(map(mul, column, weights)) for column in zip(*table.values)]
    violations, ties = _classify(sums)
    return ScanReport(
        degree=d,
        x=x,
        values=tuple(MValue(a, scale * s) for a, s in zip(order, sums)),
        violations=tuple(order[i] for i in violations),
        ties=tuple(order[i] for i in ties),
        runs=_runs(order, violations),
    )


def interval_stat(report: ScanReport, low, high) -> IntervalStat:
    """Half-open interval (low, high]: cardinality and violations inside."""
    lo, hi = as_partition(low), as_partition(high)
    order = [mv.alpha for mv in report.values]
    pos = {p: k for k, p in enumerate(order)}
    if lo not in pos or hi not in pos:
        raise DomainError(f"interval bounds must be partitions of {report.degree}")
    if pos[lo] >= pos[hi]:
        raise DomainError(f"low {lo} must sort strictly before high {hi}")
    inside = set(order[pos[lo] + 1:pos[hi] + 1])
    return IntervalStat(
        low=lo,
        high=hi,
        cardinality=pos[hi] - pos[lo],
        violations_inside=tuple(p for p in report.violations if p in inside),
    )
