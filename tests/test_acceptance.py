"""Acceptance gate: every check of the selftest catalogue, with a time budget.

The checks and the regression values they pin live in
``wgmono.selftest``; this file runs each one exactly (tolerance zero),
prints a PASS line with its elapsed time and asserts that it took less
than ``BUDGET`` seconds.  A check builds whatever it needs itself, as
``selftest`` runs it.
"""

import time

import pytest

from wgmono import selftest

# Seconds per check, the same for every check.
BUDGET = 1

CHECKS = selftest.checks("extended")


@pytest.mark.parametrize("name,check", [(name, check) for _, name, check in CHECKS],
                         ids=[name for _, name, _ in CHECKS])
def test_check(name, check):
    start = time.perf_counter()
    check()
    elapsed = time.perf_counter() - start
    print(f"PASS {name}: {elapsed:.2f}s (budget {BUDGET}s)")
    assert elapsed < BUDGET, f"{name} exceeded budget: {elapsed:.1f}s > {BUDGET}s"

