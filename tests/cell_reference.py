"""Hook lengths and contents cell by cell: the tests' reference for the
first-column hook product (``partitions._hook_product``), the content
factors of ``genfun._weights`` and the row-by-row content series of
``genfun.series_coeff``."""

from bisect import bisect_right
from collections import namedtuple
from math import prod

from wgmono.partitions import as_partition


class CellStats(namedtuple("CellStats", "hook_lengths contents")):
    """Hook lengths and contents of a diagram, as sorted multisets."""

    __slots__ = ()

    @property
    def hook_product(self) -> int:
        return prod(self.hook_lengths)


def cell_stats(lam) -> CellStats:
    """Hook length 1 + arm + leg and content (column - row) per cell, not cached."""
    p = as_partition(lam)
    rows = p.rows
    k = len(p)
    # cell (i, j) has hook (rows[i] - i - 1) + (height of column j - j)
    down = [k - bisect_right(p, j) - j for j in range(rows[0])]
    hooks = []
    contents = []
    for i, r in enumerate(rows):
        hooks.extend(map((r - i - 1).__add__, down[:r]))
        contents.extend(range(-i, r - i))
    return CellStats(tuple(sorted(hooks)), tuple(sorted(contents)))
