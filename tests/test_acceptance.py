"""Acceptance gate: every check of the selftest catalogue, with a time budget.

The checks and the regression values they pin live in
``wgmono.selftest``; this file runs each one exactly (tolerance zero),
prints a PASS line with its elapsed time and asserts its budget.
Character tables are shared through the session store, which mirrors
normal operation (budgets allow reuse).
"""

import time

import pytest

from wgmono import selftest

# Seconds per check.  A check keeps the budget of the acceptance
# criterion whose content it carries; checks that carry none get 1 s.
BUDGETS = {
    # lex order and partition counts
    "lex order d=6": 1,
    "partition counts d<=8": 1,
    "partition count d=20": 1,
    "successor chain d=7": 1,
    "conjugate involution d<=8": 1,
    "class sizes sum d<=8": 1,
    # monotone below 13
    "scans monotone d<=8": 300,
    "scans empty below 13": 300,
    # the degree-13 pair
    "normalized pair d=13": 60,
    "violations d=13": 60,
    # violation sets at 14..16
    "violations d=14..16": 600,
    # the degree-20 census
    "scan d=20 census": 7200,
    # walk oracle
    "walk oracle d<=4": 120,
    "walk oracle d<=6 r<=8": 120,
    # Catalan identities and the family ratios
    "bottom coefficient catalan d<=8": 60,
    "bottom coefficient catalan d<=10": 60,
    "family ratio growth": 60,
    # character identities
    "character tables verify d<=6": 300,
    "tables verify d<=10": 300,
    "table verify d=11": 300,
    "table verify d=12": 300,
    "conjugate sign symmetry d<=6": 300,
    "conjugate sign symmetry d<=10": 300,
    # positivity and parity
    "positivity samples d<=7": 120,
    "positivity samples d<=10": 120,
    "series parity d<=5": 120,
    "series parity d<=6 r<=10": 120,
}

CHECKS = selftest.checks("extended")


@pytest.mark.parametrize("name,check", [(name, check) for _, name, check in CHECKS],
                         ids=[name for _, name, _ in CHECKS])
def test_check(name, check, tables):
    seconds = BUDGETS[name]
    start = time.perf_counter()
    check(tables.get)
    elapsed = time.perf_counter() - start
    print(f"PASS {name}: {elapsed:.2f}s (budget {seconds}s)")
    assert elapsed < seconds, f"{name} exceeded budget: {elapsed:.1f}s > {seconds}s"


def test_budgets_name_the_checks():
    # a renamed or removed check must not leave a stale budget behind
    assert set(BUDGETS) == {name for _, name, _ in CHECKS}
