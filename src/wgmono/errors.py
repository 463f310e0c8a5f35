"""Exception types shared across the package.

Everything raised on bad caller input derives from :class:`DomainError`,
which the CLI maps to exit status 1.
"""


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
    def for_degree(cls, degree, cap) -> "CapExceededError":
        return cls(f"degree {degree} beyond configured maximum {cap}")


class TableVerificationError(AssertionError):
    """An exact character-table identity failed; names the offending pair."""

    def __init__(self, check, detail):
        self.check = check
        self.detail = detail
        super().__init__(f"{check} failed: {detail}")
