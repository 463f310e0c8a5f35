"""Built-in self checks behind the CLI selftest verb.

``CHECKS`` is the one catalogue of the package's exact checks and the
one home of the paper's regression values.  Each entry is
``(level, name, check)``; ``check()`` calls what the command line calls
(no table) and raises ``AssertionError`` on the first mismatch.  Only
``tables_verify`` and ``series_parity`` build tables: the first
certifies ``build_table``, and only ``series_coeff`` given a table
evaluates the formula off the support.  Three nested levels: quick
covers the exact identities up to degree 8, standard adds the degree-13
regression values and the walk oracle through degree 6, extended adds
the scans through degree 20 and widens the identities to degree 12.
Checks run in order and the first failure stops the run with a nonzero
status.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial

from . import _mnkernel_py
from .characters import build_table, verify_table
from .cli import LEVELS
from .genfun import (
    counterexample_family,
    eval_M,
    m0_catalan,
    normalizer,
    series_coeff,
    vanishing_order,
)
from .partitions import (
    Partition,
    class_size,
    conjugate,
    lex_list,
    lex_successor,
)
from .scanner import interval_stat, scan
from .walks import class_function_check, enumerate_counts

_LEX6 = ["1^6", "1^4,2", "1^3,3", "1^2,2^2", "1^2,4", "1,2,3", "1,5",
         "2^3", "2,4", "3^2", "6"]

_PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
_P20 = 627

_D13_LOW = ("1^6,7", Fraction(30132115571, 1149266300))
_D13_HIGH = ("1^5,2^4", Fraction(426729597219, 16089728200))
# 13^13 / (13!)^2: the raw value at x = 1/13 per unit of normalized value
_D13_SCALE = Fraction(302875106592253, 6227020800 ** 2)

_VIOLATIONS = {
    13: ["1^6,7"],
    14: ["1^7,7", "1^5,2,7", "1^5,9"],
    15: ["1^8,7", "1^6,2,7", "1^6,9", "1^4,11", "1^3,2,10", "1^3,3,9"],
    16: ["1^11,5", "1^9,7", "1^7,2,7", "1^7,9", "1^6,10", "1^5,2^2,7",
         "1^5,11", "1^4,2,10", "1^4,3,9", "1^3,13", "1,4,11"],
}


def _require(cond: bool, detail: str) -> None:
    if not cond:
        raise AssertionError(detail)


def lex_order_d6():
    got = [str(p) for p in lex_list(6)]
    _require(got == _LEX6, f"lex_list(6) = {got}")


def partition_counts():
    for d, n in _PARTITION_COUNTS.items():
        _require(len(lex_list(d)) == n, f"p({d}) != {n}")


def partition_count_d20():
    _require(len(lex_list(20)) == _P20, f"p(20) != {_P20}")


def successor_chain_d7():
    p = Partition((1,) * 7)
    seen = [p]
    while (p := lex_successor(p)) is not None:
        seen.append(p)
    _require(seen == lex_list(7), "successor chain disagrees with lex_list(7)")


def conjugate_involution():
    for d in range(1, 9):
        for p in lex_list(d):
            _require(conjugate(conjugate(p)) == p, f"conjugate not involutive at {p}")


def class_sizes_sum():
    for d in range(1, 9):
        total = sum(class_size(p) for p in lex_list(d))
        _require(total == factorial(d), f"class sizes of degree {d} sum to {total}")


def tables_verify(degrees):
    for d in degrees:
        verify_table(build_table(d))


def conjugate_sign_symmetry(degrees):
    for d in degrees:
        shapes = lex_list(d)
        pos = {lam: i for i, lam in enumerate(shapes)}
        flip = [pos[conjugate(lam)] for lam in shapes]
        for alpha, (_, column) in zip(shapes, _mnkernel_py.class_vectors(shapes)):
            sign = -1 if (d - alpha.length) % 2 else 1
            for lam, chi, i in zip(shapes, column, flip):
                _require(chi == sign * column[i],
                         f"conjugate symmetry fails at {lam}, {alpha}")


def walk_oracle(degrees, steps):
    for d in degrees:
        walks = enumerate_counts(d, steps)
        for (alpha, r), walked in sorted(walks.per_type.items()):
            formula = series_coeff(alpha, r)
            _require(walked == formula,
                     f"d={d} class {alpha}, r={r}: {walked} walks, formula {formula}")
        witness = class_function_check(walks)
        _require(witness is None,
                 f"walk counts not constant on classes at d={d}: {witness}")


def bottom_catalan(degrees):
    for d in degrees:
        for alpha in lex_list(d):
            _require(series_coeff(alpha, vanishing_order(alpha))
                     == m0_catalan(alpha), f"bottom coefficient at {alpha}")


def series_parity(degrees, steps):
    for d in degrees:
        t = build_table(d)
        for alpha in t.order:
            base = vanishing_order(alpha)
            for r in range(steps):
                if r < base or (r - base) % 2:
                    _require(series_coeff(alpha, r, t) == 0,
                             f"off-support coefficient at {alpha}, r={r}")


def scans_monotone(degrees):
    for d in degrees:
        rep = scan(d)
        vals = [mv.value for mv in rep.values]
        _require(not rep.violations and not rep.ties
                 and all(a > b for a, b in zip(vals, vals[1:])),
                 f"monotonicity fails at degree {d}")


def family_growth():
    ratios = {n: counterexample_family(n)[2] for n in range(1, 21)}
    first = min(n for n, q in ratios.items() if q > 1)
    _require(first == 5, f"ratio first exceeds 1 at n={first}")
    for n in range(1, 20):
        _require(ratios[n + 1] / ratios[n] == Fraction(2 * n + 1, n + 2),
                 f"ratio recurrence at n={n}")
    _require(ratios[20] / ratios[5] > 100, "ratio(20) / ratio(5) <= 100")


def positivity_samples(degrees):
    for d in degrees:
        for x in (Fraction(1, 10 * d), Fraction(1, 2 * d), Fraction(1, d),
                  Fraction(99, 100 * (d - 1))):
            for alpha, value in scan(d, x).values:
                _require(value > 0, f"non-positive value at {alpha}, x={x}")


def normalized_pair_d13():
    raw = []
    for text, expect in (_D13_LOW, _D13_HIGH):
        raw.append(eval_M(Partition.parse(text), Fraction(1, 13)))
        got = raw[-1] * normalizer(13)
        _require(got == expect, f"normalized value of {text} is {got}")
        _require(raw[-1] == _D13_SCALE * expect,
                 f"raw value of {text} at 1/13 is {raw[-1]}")
    _require(raw[0] < raw[1], "degree-13 violating pair not strictly ordered")


def violations_d13():
    rep = scan(13)
    got = [str(p) for p in rep.violations]
    _require(got == _VIOLATIONS[13], f"violations at 13: {got}")
    _require(len(rep.runs) == 2 and sum(r.length for r in rep.runs) == 101,
             "run structure at 13")


def violations_d14_d16():
    for d in (14, 15, 16):
        rep = scan(d)
        got = [str(p) for p in rep.violations]
        _require(got == _VIOLATIONS[d], f"violations at {d}: {got}")
        _require(not rep.ties, f"unexpected tie at degree {d}")


def scan_d20_census():
    rep = scan(20)
    _require(len(rep.values) == _P20, f"p(20) = {len(rep.values)}")
    _require(len(rep.violations) == 45, f"|violations| at 20: {len(rep.violations)}")
    stat = interval_stat(rep, Partition.parse("1,2^2,4,11"),
                         Partition.parse("2,5,13"))
    _require(stat.cardinality == 151, f"interval cardinality {stat.cardinality}")
    _require([str(p) for p in stat.violations_inside] == ["2,5,13"],
             f"interval violations {stat.violations_inside}")
    _require(max(r.length for r in rep.runs) >= 150, "no long monotone run")


CHECKS = [
    ("quick", "lex order d=6", lex_order_d6),
    ("quick", "partition counts d<=8", partition_counts),
    ("quick", "successor chain d=7", successor_chain_d7),
    ("quick", "conjugate involution d<=8", conjugate_involution),
    ("quick", "class sizes sum d<=8", class_sizes_sum),
    ("quick", "character tables verify d<=6",
     partial(tables_verify, degrees=range(1, 7))),
    ("quick", "conjugate sign symmetry d<=6",
     partial(conjugate_sign_symmetry, degrees=range(2, 7))),
    ("quick", "walk oracle d<=4",
     partial(walk_oracle, degrees=range(2, 5), steps=6)),
    ("quick", "bottom coefficient catalan d<=8",
     partial(bottom_catalan, degrees=range(1, 9))),
    ("quick", "series parity d<=5",
     partial(series_parity, degrees=range(2, 6), steps=10)),
    ("quick", "scans monotone d<=8",
     partial(scans_monotone, degrees=range(1, 9))),
    ("quick", "family ratio growth", family_growth),
    ("quick", "positivity samples d<=7",
     partial(positivity_samples, degrees=(3, 5, 7))),
    ("standard", "normalized pair d=13", normalized_pair_d13),
    ("standard", "violations d=13", violations_d13),
    ("standard", "walk oracle d<=6 r<=8",
     partial(walk_oracle, degrees=range(2, 7), steps=8)),
    ("standard", "scans empty below 13",
     partial(scans_monotone, degrees=range(9, 13))),
    ("standard", "tables verify d<=10",
     partial(tables_verify, degrees=range(1, 11))),
    ("extended", "partition count d=20", partition_count_d20),
    ("extended", "conjugate sign symmetry d<=10",
     partial(conjugate_sign_symmetry, degrees=range(2, 11))),
    ("extended", "bottom coefficient catalan d<=10",
     partial(bottom_catalan, degrees=range(1, 11))),
    ("extended", "series parity d<=6 r<=10",
     partial(series_parity, degrees=range(2, 7), steps=11)),
    ("extended", "positivity samples d<=10",
     partial(positivity_samples, degrees=range(2, 11))),
    ("extended", "violations d=14..16", violations_d14_d16),
    ("extended", "table verify d=11", partial(tables_verify, degrees=(11,))),
    ("extended", "table verify d=12", partial(tables_verify, degrees=(12,))),
    ("extended", "scan d=20 census", scan_d20_census),
]


def checks(level: str) -> list:
    """The catalogue entries at or below a level, in run order."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    top = LEVELS.index(level)
    return [c for c in CHECKS if LEVELS.index(c[0]) <= top]


def run_selftest(level: str = "quick") -> int:
    """Run checks up to the given level; 0 on success, 1 at first failure."""
    selected = checks(level)
    for _, name, check in selected:
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok {name}")
    print(f"selftest {level}: {len(selected)} checks passed")
    return 0
