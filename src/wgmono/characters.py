"""Irreducible characters of the symmetric group via border strips.

A :class:`CharacterTable` holds the complete integer table for one
degree, rows and columns both indexed by the lex-ordered partition list.
Construction runs the column DP of ``_mnkernel_py``, which adds the
parts of each class partition as border strips to the empty shape, so
classes that share their smaller parts share that work.

Tables persist to a versioned, checksummed text file of rows only (the
class order is always ``lex_list(d)``); ``WG_CACHE_DIR`` selects the
directory and an unset variable disables persistence.  The cache is kept
for the benchmark: nothing in the package or the command line reads it,
and ``wgmono`` does not export it, so import ``load_or_build``,
``cache_load`` and ``cache_store`` from this module.
"""

from __future__ import annotations

import os
import random
import tempfile
import warnings
from math import prod
from operator import mul
from pathlib import Path

from . import _mnkernel_py
from .errors import CapExceededError, TableVerificationError
from .partitions import Partition, as_partition, conjugate, dimension, lex_list
from ._mnkernel_py import shape_mask

MAX_DEGREE = 20
CACHE_MAGIC = "WGCT2"
CACHE_ENV = "WG_CACHE_DIR"
_PRIME = (1 << 127) - 1  # the modulus of the verify_table certificate


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

    def column(self, alpha) -> tuple[int, ...]:
        j = self.position(alpha)
        return tuple(row[j] for row in self.values)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CharacterTable)
                and self.degree == other.degree
                and self.values == other.values)

    def __repr__(self) -> str:
        return f"<CharacterTable d={self.degree}, {len(self.order)} classes>"


def character_column(alpha) -> tuple[int, ...]:
    """chi(lam, alpha) for every shape lam in ``lex_list(d)``, d at most ``MAX_DEGREE``.

    The column DP runs over every shape of each smaller degree, so one
    column costs about what one class of ``build_table`` costs.

    >>> character_column((3,))  # shapes 1^3, 1,2 and 3
    (1, -1, 1)
    """
    return _column_and_shapes(alpha)[0]


def _column_and_shapes(alpha) -> tuple[tuple[int, ...], list[Partition]]:
    """The character column of alpha and the ``lex_list(d)`` it runs over."""
    _check_cap(sum(alpha))
    a = as_partition(alpha)
    shapes = lex_list(a.degree)
    masks = [shape_mask(tuple(p)) for p in shapes]
    return tuple(_mnkernel_py.compute_columns(masks, [tuple(a)])[0]), shapes


def _check_cap(d: int) -> None:
    if d < 1:
        raise CapExceededError(f"degree must be >= 1, got {d}")
    if d > MAX_DEGREE:
        raise CapExceededError.for_degree(d, MAX_DEGREE)


def build_table(d: int, *, jobs: int = 1) -> CharacterTable:
    """Build the complete table for degree d, at most ``MAX_DEGREE``.

    The build runs in one process; ``jobs`` is accepted and has no effect.
    """
    _check_cap(d)
    order = lex_list(d)
    cols = _mnkernel_py.compute_columns([shape_mask(tuple(p)) for p in order],
                                        [tuple(p) for p in order])
    return CharacterTable(d, tuple(zip(*cols)))


def _det_mod(m: list[list[int]]) -> int:
    """Determinant modulo ``_PRIME`` by elimination; m is reduced and consumed."""
    det = 1
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv], det = m[piv], m[c], -det
        det = det * m[c][c] % _PRIME
        inv = pow(m[c][c], -1, _PRIME)
        for r in range(c + 1, len(m)):
            f = m[r][c] * inv % _PRIME
            m[r] = [(a - f * b) % _PRIME for a, b in zip(m[r], m[c])]
    return det


def verify_table(table: CharacterTable) -> dict[str, int]:
    """Certify the table by the Frobenius formula; raise on the first failure.

    Returns a map check-name -> number of instances verified, for
    reporting.  The table is square by construction: ``CharacterTable``
    checks the shape.  Checks, in order: the dimension column against the
    hook product, ``|chi^lam(mu)| <= f^lam`` on every entry, and
    ``p_mu(y) = sum_lam chi^lam(mu) s_lam(y) (mod P)`` for every class mu,
    at one point y of F_P^d seeded by d, with P = 2^127 - 1.

    The Schur functions are a basis, so a wrong column leaves a nonzero
    difference polynomial of degree d.  After the bound check each of its
    coefficients is at most sum_lam 2 f^lam K_lam,nu <= 2 d! < P in size
    (2 * 20! is about 5e18), so it stays nonzero mod P; by Schwartz-Zippel
    a wrong table passes with probability at most d/P < 2^-122.
    """
    d = table.degree
    order = table.order
    values = table.values
    n = len(order)

    for lam, row in zip(order, values):
        f = dimension(lam)
        if row[0] != f:
            raise TableVerificationError(
                "dimension column", f"lambda={lam}: table {row[0]}, hooks give {f}")
        if max(row) > f or min(row) < -f:
            j = next(j for j, v in enumerate(row) if abs(v) > f)
            raise TableVerificationError(
                "character bound", f"lambda={lam}, alpha={order[j]}: |{row[j]}| > {f}")

    rng = random.Random(d)
    y = [rng.randrange(_PRIME) for _ in range(d)]
    h, e = [1] + [0] * d, [1] + [0] * d
    for v in y:
        for k in range(1, d + 1):
            h[k] = (h[k] + v * h[k - 1]) % _PRIME
        for k in range(d, 0, -1):
            e[k] = (e[k] + v * e[k - 1]) % _PRIME
    power = [sum(pow(v, k, _PRIME) for v in y) for k in range(d + 1)]
    h += [0] * d  # negative Jacobi-Trudi indices wrap round into the zeros
    e += [0] * d
    schur = []
    for lam in order:
        rows, seq = (lam.rows, h) if len(lam) <= lam[-1] else (conjugate(lam).rows, e)
        schur.append(_det_mod([[seq[r - a + b] for b in range(len(rows))]
                               for a, r in enumerate(rows)]))

    for col, mu in zip(zip(*values), order):
        if (sum(map(mul, col, schur)) - prod(power[k] for k in mu)) % _PRIME:
            raise TableVerificationError("frobenius formula", f"alpha={mu}")

    return {"dimension column": n, "character bound": n * n, "frobenius formula": n}


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
    import hashlib  # here, not at the top: the command line never caches

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
    import hashlib

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


def load_or_build(d: int, *, jobs: int = 1,
                  cache_dir: str | os.PathLike | None = None) -> CharacterTable:
    """Table for degree d, through the cache when one is configured.

    The degree cap is checked before any file is read.  The cache is
    optional: a failed write warns and the built table is returned anyway.
    ``jobs`` is accepted and has no effect.
    """
    _check_cap(d)
    path = default_cache_path(d, cache_dir)
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
