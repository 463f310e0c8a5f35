"""Irreducible characters of the symmetric group via border-strip recursion.

A :class:`CharacterTable` holds the complete integer table for one
degree, rows and columns both indexed by the lex-ordered partition list.
Construction strips the largest remaining part of the class partition
first and memoizes on (shape, remaining parts), so one table build
shares subproblems across all columns.  The inner recursion lives in a
kernel module: the compiled ``_mnkernel_c`` when importable (build with
``python setup.py build_ext --inplace``), else the pure-Python twin.
Set ``WG_PURE_PYTHON=1`` to force the fallback.

Tables persist to a versioned, checksummed text file; ``WG_CACHE_DIR``
selects the directory and an unset variable disables persistence.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import _mnkernel_py
from .errors import CapExceededError, DegreeMismatchError, TableVerificationError
from .exact import factorial
from .partitions import Partition, as_partition, cell_stats, class_size, lex_list
from ._mnkernel_py import shape_mask

try:
    from . import _mnkernel_c
except ImportError:
    _mnkernel_c = None

DEFAULT_MAX_DEGREE = 20
CACHE_MAGIC = "WGCT1"
CACHE_ENV = "WG_CACHE_DIR"


def active_kernel(d: int):
    """Kernel module used for degree d (compiled when present and in range)."""
    if os.environ.get("WG_PURE_PYTHON"):
        return _mnkernel_py
    if _mnkernel_c is not None and d <= _mnkernel_c.MAX_DEGREE:
        return _mnkernel_c
    return _mnkernel_py


class CharacterTable:
    """Complete character table of S(d), lex order shared by rows and columns.

    ``values[i][j]`` is the character of the representation labeled by
    ``order[i]`` on the class with cycle type ``order[j]``.
    """

    def __init__(self, degree: int, order: tuple[Partition, ...],
                 values: tuple[tuple[int, ...], ...]):
        self.degree = degree
        self.order = order
        self.values = values
        self._pos = {p: k for k, p in enumerate(order)}

    def position(self, alpha) -> int:
        return self._pos[as_partition(alpha)]

    def chi(self, lam, alpha) -> int:
        return self.values[self.position(lam)][self.position(alpha)]

    def row(self, lam) -> tuple[int, ...]:
        return self.values[self.position(lam)]

    def column(self, alpha) -> tuple[int, ...]:
        j = self.position(alpha)
        return tuple(row[j] for row in self.values)

    def dimension(self, lam) -> int:
        return self.values[self.position(lam)][0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, CharacterTable)
                and self.degree == other.degree
                and self.order == other.order
                and self.values == other.values)

    def __repr__(self) -> str:
        return f"<CharacterTable d={self.degree}, {len(self.order)} classes>"


def mn_character(lam, alpha) -> int:
    """Single character value by the border-strip recursion.

    >>> mn_character((1, 2), (3,))
    -1
    """
    l, a = as_partition(lam), as_partition(alpha)
    if l.degree != a.degree:
        raise DegreeMismatchError(
            f"shape has degree {l.degree}, class has degree {a.degree}")
    kernel = active_kernel(l.degree)
    return kernel.compute_columns([shape_mask(tuple(l))], [tuple(a)])[0][0]


def _columns_chunk(args):
    masks, alphas, d = args
    return active_kernel(d).compute_columns(masks, alphas)


def build_table(d: int, *, jobs: int = 1,
                max_degree: int = DEFAULT_MAX_DEGREE) -> CharacterTable:
    """Build the complete table for degree d.

    Work may fan out over column blocks (each worker re-deriving shared
    subproblems); the assembled table is identical for any job count.
    """
    if d < 1:
        raise CapExceededError(f"degree must be >= 1, got {d}")
    if d > max_degree:
        raise CapExceededError(
            f"degree {d} beyond configured maximum {max_degree}")
    order = tuple(lex_list(d))
    masks = [shape_mask(tuple(p)) for p in order]
    alphas = [tuple(p) for p in order]

    if jobs <= 1 or len(order) < 4 * jobs:
        cols = active_kernel(d).compute_columns(masks, alphas)
    else:
        step = (len(alphas) + jobs - 1) // jobs
        chunks = [(masks, alphas[k:k + step], d)
                  for k in range(0, len(alphas), step)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cols = []
            for part in pool.map(_columns_chunk, chunks):
                cols.extend(part)

    values = tuple(tuple(cols[j][i] for j in range(len(order)))
                   for i in range(len(order)))
    return CharacterTable(d, order, values)


def verify_table(table: CharacterTable) -> dict[str, int]:
    """Run the exact self-consistency identities; raise on the first failure.

    Returns a map check-name -> number of instances verified, for
    reporting.  Checks: the dimension column against the hook product,
    sum of squared dimensions, and row and column orthogonality.
    """
    d = table.degree
    order = table.order
    n = len(order)
    fact = factorial(d)
    sizes = [class_size(a) for a in order]
    counts: dict[str, int] = {}

    dims = []
    for i, lam in enumerate(order):
        hooks = cell_stats(lam).hook_product
        expect, rem = divmod(fact, hooks)
        if rem != 0 or table.values[i][0] != expect:
            raise TableVerificationError(
                "dimension column",
                f"lambda={lam}: table {table.values[i][0]}, hooks give {fact}/{hooks}")
        dims.append(expect)
    counts["dimension column"] = n

    if sum(f * f for f in dims) != fact:
        raise TableVerificationError(
            "sum of squared dimensions", f"degree {d}: != {d}!")
    counts["sum of squared dimensions"] = 1

    for i in range(n):
        for j in range(i, n):
            ri, rj = table.values[i], table.values[j]
            s = sum(sizes[k] * ri[k] * rj[k] for k in range(n))
            if s != (fact if i == j else 0):
                raise TableVerificationError(
                    "row orthogonality",
                    f"lambda={order[i]}, mu={order[j]}: got {s}")
    counts["row orthogonality"] = n * (n + 1) // 2

    for j in range(n):
        for k in range(j, n):
            s = sum(row[j] * row[k] for row in table.values)
            expect = fact // sizes[j] if j == k else 0
            if s != expect:
                raise TableVerificationError(
                    "column orthogonality",
                    f"alpha={order[j]}, beta={order[k]}: got {s}, want {expect}")
    counts["column orthogonality"] = n * (n + 1) // 2

    return counts


# ---------------------------------------------------------------- cache

def default_cache_path(d: int, cache_dir: str | os.PathLike | None = None) -> Path | None:
    """Cache file for degree d, or None when persistence is disabled."""
    base = cache_dir if cache_dir is not None else os.environ.get(CACHE_ENV)
    if not base:
        return None
    return Path(base) / f"chartable_d{d}.wgct"


def cache_store(table: CharacterTable, path: str | os.PathLike) -> None:
    """Write the table atomically (temp file + rename) with a checksum."""
    path = Path(path)
    lines = [CACHE_MAGIC, f"degree {table.degree}", f"count {len(table.order)}"]
    lines.extend(str(p) for p in table.order)
    lines.extend(" ".join(str(v) for v in row) for row in table.values)
    body = ("\n".join(lines) + "\n").encode("ascii")
    digest = hashlib.sha256(body).hexdigest()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
            fh.write(f"sha256 {digest}\n".encode("ascii"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cache_load(d: int, path: str | os.PathLike) -> CharacterTable | None:
    """Load a table back, or None (plus a warning) on any mismatch.

    Missing file, wrong magic or version, wrong degree, truncation and
    checksum failures all return None; a partial table is never built.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return None

    def reject(reason: str) -> None:
        warnings.warn(f"ignoring character cache {path}: {reason}")

    head, _, tail = raw.rpartition(b"sha256 ")
    if not head:
        reject("no checksum line")
        return None
    if hashlib.sha256(head).hexdigest().encode("ascii") != tail.strip():
        reject("checksum mismatch")
        return None
    try:
        lines = head.decode("ascii").splitlines()
        if lines[0] != CACHE_MAGIC:
            reject(f"bad magic {lines[0]!r}")
            return None
        degree = int(lines[1].removeprefix("degree "))
        count = int(lines[2].removeprefix("count "))
        if degree != d:
            reject(f"degree {degree}, wanted {d}")
            return None
        order = tuple(Partition.parse(t) for t in lines[3:3 + count])
        rows = lines[3 + count:3 + 2 * count]
        if len(rows) != count:
            reject("truncated")
            return None
        values = tuple(tuple(int(v) for v in row.split()) for row in rows)
        if any(len(row) != count for row in values):
            reject("ragged rows")
            return None
    except (ValueError, IndexError) as exc:
        reject(f"parse error ({exc})")
        return None
    return CharacterTable(degree, order, values)


def load_or_build(d: int, *, jobs: int = 1, use_cache: bool = True,
                  cache_dir: str | os.PathLike | None = None,
                  max_degree: int = DEFAULT_MAX_DEGREE) -> CharacterTable:
    """Table for degree d, through the cache when one is configured.

    The cache is optional: a failed write warns and the built table is
    returned anyway.
    """
    path = default_cache_path(d, cache_dir) if use_cache else None
    if path is not None:
        table = cache_load(d, path)
        if table is not None:
            return table
    table = build_table(d, jobs=jobs, max_degree=max_degree)
    if path is not None:
        try:
            cache_store(table, path)
        except OSError as exc:
            warnings.warn(f"not caching character table at {path}: {exc}")
    return table
