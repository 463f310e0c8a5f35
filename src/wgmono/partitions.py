"""Integer partitions as nondecreasing part sequences.

The ordering used throughout is plain dictionary order on the
nondecreasing sequences (alphabet 1 < 2 < ...), so for fixed degree d
the list runs from (1^d) up to (d).  Young-diagram routines view the
same partition with rows in nonincreasing order; only the nondecreasing
form is ever stored.

Text forms: ``"1,1,2"`` (plain) and ``"1^2,2"`` (exponent shorthand) are
both accepted on input; ``str()`` renders the exponent form.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from math import factorial, prod

from .errors import CapExceededError, PartitionError

_PART_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")

# The largest degree any entry point accepts: the largest built-in family
# pair, 3 * genfun.FAMILY_MAX_N + 1.  ``Partition.parse`` checks it by default.
MAX_PARSE_DEGREE = 21469


class Partition(tuple):
    """Nondecreasing tuple of positive parts; hashable, totally ordered.

    Tuple comparison on the nondecreasing form *is* the dictionary order
    used for the monotonicity scan, with a strict prefix sorting before
    its extensions (prefixes never occur between partitions of equal
    degree, since their sums differ).
    """

    __slots__ = ()

    def __new__(cls, parts) -> "Partition":
        t = tuple(int(p) for p in parts)
        if not t:
            raise PartitionError("partition needs at least one part")
        prev = 1
        for p in t:
            if p < prev:
                raise PartitionError(
                    f"parts must be positive and nondecreasing, got {t}")
            prev = p
        return tuple.__new__(cls, t)

    @property
    def degree(self) -> int:
        return sum(self)

    @property
    def length(self) -> int:
        return len(self)

    @property
    def rows(self) -> tuple[int, ...]:
        """Young-diagram row lengths, largest first."""
        return tuple(reversed(self))

    @classmethod
    def parse(cls, text: str, max_degree: int = MAX_PARSE_DEGREE) -> "Partition":
        """Parse "1,1,2" or the exponent shorthand "1^2,2".

        The degree is checked against ``max_degree`` before ``p^mult`` is expanded.

        >>> Partition.parse("1^6,7")
        Partition('1^6,7')
        """
        pairs: list[tuple[int, int]] = []
        for chunk in text.split(","):
            m = _PART_RE.match(chunk.strip())
            if m is None:
                raise PartitionError(f"bad partition syntax: {text!r}")
            p = int(m.group(1))
            mult = int(m.group(2)) if m.group(2) is not None else 1
            if mult < 1:
                raise PartitionError(f"exponent must be >= 1 in {text!r}")
            pairs.append((p, mult))
        degree = sum(p * mult for p, mult in pairs)
        if degree > max_degree:
            raise CapExceededError.for_degree(degree, max_degree)
        return cls(p for p, mult in pairs for _ in range(mult))

    def __str__(self) -> str:
        groups = []
        i = 0
        while i < len(self):
            j = i
            while j < len(self) and self[j] == self[i]:
                j += 1
            groups.append(f"{self[i]}^{j - i}" if j - i > 1 else f"{self[i]}")
            i = j
        return ",".join(groups)

    def __repr__(self) -> str:
        return f"Partition('{self}')"


def as_partition(alpha) -> Partition:
    return alpha if isinstance(alpha, Partition) else Partition(alpha)


def lex_list(d: int) -> list[Partition]:
    """All partitions of d in dictionary order, (1^d) first, (d) last."""
    if d < 1:
        raise PartitionError(f"degree must be >= 1, got {d}")

    def gen(remaining: int, min_part: int):
        if remaining == 0:
            yield ()
            return
        for p in range(min_part, remaining + 1):
            for rest in gen(remaining - p, p):
                yield (p,) + rest

    # gen yields only nondecreasing tuples of positive parts: no re-check
    return [tuple.__new__(Partition, t) for t in gen(d, 1)]


def lex_successor(alpha) -> Partition | None:
    """Next partition of the same degree in dictionary order, None after (d).

    The successor bumps the second-to-last part and refills the tail with
    the smallest admissible parts:

    >>> lex_successor(Partition.parse("1^6,7"))
    Partition('1^5,2^4')
    """
    a = as_partition(alpha)
    if len(a) == 1:
        return None
    budget = a[-2] + a[-1]
    x = a[-2] + 1
    if 2 * x > budget:
        # refill as a single part; always > a[-2], hence a strict step up
        return Partition(a[:-2] + (budget,))
    tail = []
    while budget >= 2 * x:
        tail.append(x)
        budget -= x
    tail.append(budget)
    return Partition(a[:-2] + tuple(tail))


def conjugate(lam) -> Partition:
    """Transpose of the Young diagram, returned in stored (nondecreasing) form."""
    rows = as_partition(lam).rows
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])]
    return Partition(sorted(cols))


class CellStats(namedtuple("CellStats", "hook_lengths contents")):
    """Hook lengths and contents of a diagram, as sorted multisets."""

    __slots__ = ()

    @property
    def hook_product(self) -> int:
        return prod(self.hook_lengths)


def cell_stats(lam) -> CellStats:
    """Hook length 1 + arm + leg and content (column - row) per cell.

    >>> cell_stats(Partition((1, 2)))
    CellStats(hook_lengths=(1, 1, 3), contents=(-1, 0, 1))
    """
    return _cell_stats(as_partition(lam))


@lru_cache(maxsize=None)
def _cell_stats(p: Partition) -> CellStats:
    rows = p.rows
    cols = conjugate(p).rows
    hooks = []
    contents = []
    for i, r in enumerate(rows):
        for j in range(r):
            hooks.append((r - j) + (cols[j] - i) - 1)
            contents.append(j - i)
    return CellStats(tuple(sorted(hooks)), tuple(sorted(contents)))


def dimension(lam) -> int:
    """Number of standard tableaux of the shape, d! / product of hooks."""
    p = as_partition(lam)
    num = factorial(p.degree)
    den = cell_stats(p).hook_product
    q, r = divmod(num, den)
    assert r == 0, f"hook product does not divide {p.degree}! for {p}"
    return q


def class_size(alpha) -> int:
    """Size of the conjugacy class with cycle type alpha in S(degree)."""
    a = as_partition(alpha)
    denom = 1
    mult = 1
    prev = None
    for p in a:
        if p == prev:
            mult += 1
        else:
            mult = 1
            prev = p
        denom *= p * mult
    return factorial(a.degree) // denom
