"""Irreducible characters of the symmetric group via border strips.

A :class:`CharacterTable` holds the complete integer table for one
degree, rows and columns both indexed by the lex-ordered partition list.
Construction runs the column DP of ``_mnkernel_py``, which adds the
parts of each class partition as border strips to the empty shape, so
classes that share their smaller parts share that work.

Tables persist to a versioned, checksummed text file of rows only (the
class order is always ``lex_list(d)``); ``WG_CACHE_DIR`` selects the
directory and an unset variable disables persistence.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from operator import mul
from pathlib import Path

from . import _mnkernel_py
from .errors import CapExceededError, DegreeMismatchError, TableVerificationError
from .exact import factorial
from .partitions import as_partition, cell_stats, class_size, lex_list
from ._mnkernel_py import shape_mask

MAX_DEGREE = 20
CACHE_MAGIC = "WGCT2"
CACHE_ENV = "WG_CACHE_DIR"


def active_kernel(d: int):
    """Kernel module used for degree d: always the column DP."""
    return _mnkernel_py


class CharacterTable:
    """Complete character table of S(d), lex order shared by rows and columns.

    ``values[i][j]`` is the character of the representation labeled by
    ``order[i]`` on the class with cycle type ``order[j]``.  The order is
    ``lex_list(degree)``, derived here and never stored; ``values`` must
    be p(d) x p(d), and this is the only place the shape is checked.
    """

    def __init__(self, degree: int, values: tuple[tuple[int, ...], ...]):
        self.degree = degree
        self.order = tuple(lex_list(degree))
        n = len(self.order)
        if len(values) != n or any(len(row) != n for row in values):
            raise TableVerificationError(
                "shape", f"degree {degree}: values are not {n} x {n}")
        self.values = values
        self._pos = {p: k for k, p in enumerate(self.order)}

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
                and self.values == other.values)

    def __repr__(self) -> str:
        return f"<CharacterTable d={self.degree}, {len(self.order)} classes>"


def mn_character(lam, alpha) -> int:
    """Single character value, degree at most ``MAX_DEGREE``.

    The column DP runs over every shape of each smaller degree, so one
    value costs about what one column of the table costs.

    >>> mn_character((1, 2), (3,))
    -1
    """
    l, a = as_partition(lam), as_partition(alpha)
    if l.degree != a.degree:
        raise DegreeMismatchError(
            f"shape has degree {l.degree}, class has degree {a.degree}")
    _check_cap(l.degree)
    return _mnkernel_py.compute_columns([shape_mask(tuple(l))], [tuple(a)])[0][0]


def _check_cap(d: int) -> None:
    if d < 1:
        raise CapExceededError(f"degree must be >= 1, got {d}")
    if d > MAX_DEGREE:
        raise CapExceededError(
            f"degree {d} beyond configured maximum {MAX_DEGREE}")


def build_table(d: int, *, jobs: int = 1) -> CharacterTable:
    """Build the complete table for degree d, at most ``MAX_DEGREE``.

    The build runs in one process; ``jobs`` is accepted and has no effect.
    """
    _check_cap(d)
    order = lex_list(d)
    cols = _mnkernel_py.compute_columns([shape_mask(tuple(p)) for p in order],
                                        [tuple(p) for p in order])
    return CharacterTable(d, tuple(zip(*cols)))


def verify_table(table: CharacterTable) -> dict[str, int]:
    """Run the exact self-consistency identities; raise on the first failure.

    Returns a map check-name -> number of instances verified, for
    reporting.  The table is square by construction: ``CharacterTable``
    checks the shape.  Checks: the dimension column against the hook
    product, sum of squared dimensions, and column orthogonality
    ``X^T X = D`` with ``D = diag(d!/|C_j|)``, every (j, k) pair exactly.

    Row orthogonality is implied and not run separately.  X is square and
    D is invertible, so ``X^T X = D`` gives ``(D^-1 X^T) X = I``: the left
    inverse of a square matrix is also its right inverse, so
    ``X D^-1 X^T = I``, which is ``sum_k |C_k| X[i][k] X[j][k] = d! [i = j]``.
    Its pair count is still reported under "row orthogonality".

    The column pass packs each row into one integer with w-bit slots,
    ``P_i = sum_k X[i][k] 2^(w k)``, so ``sum_i X[i][j] P_i`` carries the
    whole Gram row ``sum_k G[j][k] 2^(w k)``.  With m the largest |entry|,
    ``|G[j][k]| <= n m^2 < 2^(w-2)``, and so is every expected value, since
    ``d!/|C_j| <= d! = sum_i f_i^2 <= n m^2`` once the dimension checks
    passed.  Digits that small have one balanced base-2^w expansion, so the
    packed integers are equal exactly when every slot is.
    """
    d = table.degree
    order = table.order
    values = table.values
    n = len(order)
    fact = factorial(d)
    sizes = [class_size(a) for a in order]
    counts: dict[str, int] = {}

    dims = []
    for i, lam in enumerate(order):
        hooks = cell_stats(lam).hook_product
        expect, rem = divmod(fact, hooks)
        if rem != 0 or values[i][0] != expect:
            raise TableVerificationError(
                "dimension column",
                f"lambda={lam}: table {values[i][0]}, hooks give {fact}/{hooks}")
        dims.append(expect)
    counts["dimension column"] = n

    if sum(f * f for f in dims) != fact:
        raise TableVerificationError(
            "sum of squared dimensions", f"degree {d}: != {d}!")
    counts["sum of squared dimensions"] = 1

    m = max(max(max(row), -min(row)) for row in values)
    # w is the least multiple of 8 with n m^2 < 2^(w-2)
    nbytes = ((n * m * m).bit_length() + 2 + 7) // 8
    w = 8 * nbytes
    # Slots are packed biased by 2^(w-1) so each is a non-negative w-bit
    # field; subtracting the packed bias restores the signed entries.
    bias = 1 << (w - 1)
    unbias = int.from_bytes(bias.to_bytes(nbytes, "little") * n, "little")
    packed = [int.from_bytes(b"".join([(v + bias).to_bytes(nbytes, "little")
                                       for v in row]), "little") - unbias
              for row in values]
    cols = tuple(zip(*values))
    for j, col in enumerate(cols):
        if sum(map(mul, col, packed)) != (fact // sizes[j]) << (w * j):
            # Earlier columns passed, so G[j][k] = G[k][j] is right for k < j.
            for k in range(j, n):
                s = sum(map(mul, col, cols[k]))
                expect = fact // sizes[j] if j == k else 0
                if s != expect:
                    raise TableVerificationError(
                        "column orthogonality",
                        f"alpha={order[j]}, beta={order[k]}: got {s}, want {expect}")
    counts["row orthogonality"] = n * (n + 1) // 2
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
    """Write the table atomically (temp file + rename) with a checksum.

    The file is the header ``WGCT2 <d>``, one line per row and a
    ``sha256 <hex>`` line over everything before it.
    """
    path = Path(path)
    lines = [f"{CACHE_MAGIC} {table.degree}"]
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

    A missing file is a silent miss.  A failed checksum, a header other
    than ``WGCT2 <d>`` (an older format, another degree) and rows that do
    not parse or do not form a p(d) x p(d) table each give one warning.
    The class order is ``lex_list(d)``, never read from the file.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    body, _, digest = raw.rpartition(b"sha256 ")
    try:
        if hashlib.sha256(body).hexdigest().encode("ascii") != digest.strip():
            raise ValueError("checksum mismatch")
        header, _, rows = body.decode("ascii").partition("\n")
        if header != f"{CACHE_MAGIC} {d}":
            raise ValueError(f"header {header!r}, wanted '{CACHE_MAGIC} {d}'")
        return CharacterTable(
            d, tuple(tuple(map(int, row.split())) for row in rows.splitlines()))
    except (ValueError, TableVerificationError) as exc:
        warnings.warn(f"ignoring character cache {path}: {exc}")
        return None


def load_or_build(d: int, *, jobs: int = 1, use_cache: bool = True,
                  cache_dir: str | os.PathLike | None = None) -> CharacterTable:
    """Table for degree d, through the cache when one is configured.

    The degree cap is checked before any file is read.  The cache is
    optional: a failed write warns and the built table is returned anyway.
    ``jobs`` is accepted and has no effect.
    """
    _check_cap(d)
    path = default_cache_path(d, cache_dir) if use_cache else None
    if path is not None:
        table = cache_load(d, path)
        if table is not None:
            return table
    table = build_table(d)
    if path is not None:
        try:
            cache_store(table, path)
        except OSError as exc:
            warnings.warn(f"not caching character table at {path}: {exc}")
    return table
