"""Monotonicity scan of the walk generating function over a full rank.

For every partition of d in dictionary order the scanner evaluates the
generating function at a common rational point (default 1/d), then
extracts the violation set (values that strictly increase into their
successor), exact ties (reported separately, never folded into either
side), and the maximal monotone runs between violations.

Reports serialize to JSON and to CSV of (partition, normalized value);
values are always exact "N/D" strings.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .characters import CharacterTable, build_table
from .errors import DomainError
from .genfun import format_rat, normalizer, table_weights
from .partitions import Partition, as_partition


@dataclass(frozen=True)
class MValue:
    alpha: Partition
    value: Fraction


@dataclass(frozen=True)
class Run:
    start: Partition
    end: Partition
    length: int


@dataclass(frozen=True)
class ScanReport:
    degree: int
    x: Fraction
    values: tuple[MValue, ...]
    violations: tuple[Partition, ...]
    ties: tuple[Partition, ...]
    runs: tuple[Run, ...]

    def to_json(self, intervals: tuple["IntervalStat", ...] = ()) -> str:
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
        norm = normalizer(self.degree)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["partition", "normalized"])
        for mv in self.values:
            writer.writerow([str(mv.alpha), format_rat(mv.value * norm)])
        return buf.getvalue()


@dataclass(frozen=True)
class IntervalStat:
    low: Partition
    high: Partition
    cardinality: int
    violations_inside: tuple[Partition, ...]


def _classify(values: list[int]) -> tuple[list[int], list[int]]:
    """Indices of violations (value < next) and ties (value == next)."""
    violations = []
    ties = []
    for i in range(len(values) - 1):
        if values[i] < values[i + 1]:
            violations.append(i)
        elif values[i] == values[i + 1]:
            ties.append(i)
    return violations, ties


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

    Every value is one integer dot product against the common-denominator
    weights of ``table_weights``; the sums are classified as integers
    (the shared scale is positive) and become ``Fraction`` values only in
    the report.  ``jobs`` is accepted and has no effect.
    """
    if table is None:
        table = build_table(d)
    elif table.degree != d:
        raise DomainError(f"table degree {table.degree} does not match d={d}")
    x = Fraction(1, d) if x is None else Fraction(x)

    scale, weights = table_weights(table, x)
    sums = [sum(map(mul, column, weights)) for column in zip(*table.values)]
    violations, ties = _classify(sums)
    return ScanReport(
        degree=d,
        x=x,
        values=tuple(MValue(a, scale * s) for a, s in zip(table.order, sums)),
        violations=tuple(table.order[i] for i in violations),
        ties=tuple(table.order[i] for i in ties),
        runs=_runs(table.order, violations),
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
