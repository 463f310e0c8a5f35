"""Exception types shared across the package, and the one table of size caps.

Everything raised on bad caller input derives from :class:`DomainError`,
which the CLI maps to exit status 1.  Every size cap lives in ``CAPS``,
and every path refuses a request past its cap with
:class:`CapExceededError` before any work that grows with the size.
This module imports nothing, so every module can read the table.
"""

# Every size cap, in one home.  Each comment names the worst request at the
# bound: wall time and peak RSS of one ``python -m wgmono.cli`` process
# (best of 5; 2 vCPU, Python 3.11.7, where ``python -c pass`` took 67 ms),
# and the peak that tracemalloc traces while the request runs, its modules
# already loaded.  The tests hold that traced peak under the budget named.
CAPS = {
    # Every character computation: table, column, eval, coeff and scan.
    # scan --d 20 --format json: 148 ms, 17 MB, traced 2.4 MiB (budget
    # 4 MiB); coeff --alpha 1^20 --r 38: 168 ms, 15 MB, traced 0.7 MiB.
    "degree": 20,
    # The brute-force walk DP.  walks --d 7 --R 12: 186 ms, 18 MB, traced
    # 4.0 MiB (budget 6 MiB); d = 8 holds 8 times the counts of d = 7.
    "walk_degree": 7,
    "walk_length": 12,
    # coeff --r.  From r = 14,300 on, no count at degree 3 or more prints
    # under Python's 4,300-digit limit.  coeff --alpha 2 --r 15000: 78 ms,
    # 14 MB.  The budget is breached below the cap: a count on the support
    # at large r takes seconds (coeff --alpha 1^20 --r 2000: 2.7 s, 30 MB),
    # or is refused by the digit check at the output only after the work
    # (coeff --alpha 1^8,2 --r 14299: 4.5 s, 261 MB).
    "r": 15_000,
    # family --n: the largest n whose ratio Cat_n / 2^n still prints under
    # that limit.  family --n 7156: 92 ms, 15 MB, traced 0.2 MiB (budget
    # 1 MiB).
    "n": 7156,
}
# The degree of the largest built-in family pair (1, 3^n), (2^n, n + 1),
# which ``Partition.parse`` checks by default before it expands p^mult.
# family --alpha 1,3^7156 --beta 2^7156,7157: 102 ms, 15 MB, traced
# 0.2 MiB (budget 1 MiB).
CAPS["parse_degree"] = 3 * CAPS["n"] + 1


class DomainError(ValueError):
    """Invalid input to a library operation."""


class PartitionError(DomainError):
    """Malformed partition (empty, non-positive part, not nondecreasing)."""


class DegreeMismatchError(DomainError):
    """Two partitions (or a partition and a table) of different degrees."""


class PoleError(DomainError):
    """Evaluation point hits a pole 1 - c*x = 0 of the generating function."""

    def __init__(self, content, x):
        self.content = content
        self.x = x
        super().__init__(f"pole at x = {x}: content {content} gives 1 - c*x = 0")


class CapExceededError(DomainError):
    """Requested size is beyond the supported envelope."""

    @classmethod
    def check(cls, what: str, value: int, cap: int) -> None:
        """Raise "<what> <value> beyond configured maximum <cap>" if value > cap."""
        if value > cap:
            raise cls(f"{what} {value} beyond configured maximum {cap}")


class TableVerificationError(AssertionError):
    """An exact character-table identity failed; names the offending pair."""

    def __init__(self, check, detail):
        self.check = check
        self.detail = detail
        super().__init__(f"{check} failed: {detail}")
