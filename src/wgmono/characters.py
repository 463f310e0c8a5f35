"""Irreducible characters of the symmetric group via border strips.

A :class:`CharacterTable` holds the complete integer table for one
degree, rows and columns both indexed by the lex-ordered partition list.
``build_table`` reads every column from ``_mnkernel_py.class_vectors``,
the column DP that adds the parts of each class as border strips to the
empty shape, for degrees up to the cap ``errors.CAPS["degree"]``;
``verify_table`` certifies a table by the Frobenius formula, its Schur
values from one Jacobi-Trudi expansion in the complete homogeneous
sums, shared by every shape of the degree through a memo that reference
counting frees when the expansion returns.  The command line's
``eval``, ``coeff`` and ``scan`` build no table and never import this
module.

Tables persist to a versioned, checksummed file of rows only (the class
order is always ``lex_list(d)``): the header line ``WGCT3 <d>``, the
entries as little-endian int64, row-major, and a ``sha256`` line.  Every
entry is at most f^lam <= sqrt(d!) in size, so int64 holds every table
through d = 33; the files are 0.71 / 1.92 / 3.15 MB at d = 17 / 19 / 20.
A file in an older format (``WGCT1``, ``WGCT2``) is rejected with one
warning, and ``load_or_build`` rebuilds and rewrites it once.
``WG_CACHE_DIR`` selects the directory and an unset variable disables
persistence.  The cache is kept for the benchmark: nothing in the
package or the command line reads it, and ``wgmono`` does not export
it, so import ``load_or_build``, ``cache_load`` and ``cache_store`` from
this module.
"""

from __future__ import annotations

import os
from math import prod
from operator import mul

from . import _mnkernel_py
from .errors import TableVerificationError
from .partitions import _check_cap, as_partition, dimension, lex_list

CACHE_MAGIC = "WGCT3"
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


def build_table(d: int, *, jobs: int = 1) -> CharacterTable:
    """Build the complete table for degree d, at most ``errors.CAPS["degree"]``.

    The build runs in one process; ``jobs`` is accepted and has no effect.
    """
    _check_cap(d)
    columns = (vec for _, vec in _mnkernel_py.class_vectors(lex_list(d)))
    return CharacterTable(d, tuple(zip(*columns)))


def _schur_values(seq, shapes) -> list[int]:
    """det(seq[lam_a - a + b]) for each row tuple lam (largest first) in
    ``shapes``, down the first column: s_lam = sum_i (-1)^i seq[lam_i - i]
    s_mu(i), mu(i) being lam less row i with each row above it one cell
    longer, up to the first i with lam_i < i.  The minors are straight
    shapes again, shared through a memo that lives for this call only:
    ``value`` refers to itself, so it is deleted before the return, and
    reference counting frees the memo then, with no collector pass.
    Nothing is divided, so the values are exact in the entries of seq.
    """
    memo = {(): 1}
    def value(rows):
        v = memo.get(rows)
        if v is None:
            v = 0
            for i, r in enumerate(rows):
                if r < i:
                    break
                t = seq[r - i] * value(tuple(x + 1 for x in rows[:i]) + rows[i + 1:])
                v = v - t if i & 1 else v + t
            memo[rows] = v
        return v

    out = [value(rows) for rows in shapes]
    del value
    return out


def _point_values(d: int, order) -> tuple[list[int], list[int]]:
    """The certificate's values at its point y of F_P^d, seeded by d:
    s_lam(y) mod P for each lam in ``order``, and the power sums p_k(y)
    for k = 0..d, each congruent to its value mod P.

    Every Schur value is the Jacobi-Trudi determinant in the complete
    homogeneous sums h, from one ``_schur_values`` call over all of
    ``order``, reduced mod P once.
    """
    import random  # here, not at the top: only the certificate draws a point

    rng = random.Random(d)
    y = [rng.randrange(_PRIME) for _ in range(d)]
    h = [1] + [0] * d
    power = [d] + [0] * d
    for v in y:
        t = 1
        for k in range(1, d + 1):
            h[k] = (h[k] + v * h[k - 1]) % _PRIME
            t = t * v % _PRIME
            power[k] += t
    return [s % _PRIME for s in _schur_values(h, [lam.rows for lam in order])], power


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

    schur, power = _point_values(d, order)
    for col, mu in zip(zip(*values), order):
        if (sum(map(mul, col, schur)) - prod(power[k] for k in mu)) % _PRIME:
            raise TableVerificationError("frobenius formula", f"alpha={mu}")

    return {"dimension column": n, "character bound": n * n, "frobenius formula": n}


# ---------------------------------------------------------------- cache

def default_cache_path(d: int, cache_dir: str | os.PathLike | None = None) -> Path | None:
    """Cache file for degree d, or None when persistence is disabled."""
    from pathlib import Path  # here and below: the command line never caches

    base = cache_dir if cache_dir is not None else os.environ.get(CACHE_ENV)
    if not base:
        return None
    return Path(base) / f"chartable_d{d}.wgct"


def cache_store(table: CharacterTable, path: str | os.PathLike) -> None:
    """Write the table atomically (temp file + rename) with a checksum.

    The file is the header line ``WGCT3 <d>``, the p(d) rows as
    little-endian signed 64-bit integers, row-major, and a ``sha256 <hex>``
    line over everything before it.  Rows are packed and hashed one at a
    time, straight into the temp file.  An entry outside int64 raises
    ``struct.error`` and leaves no file behind.
    """
    import hashlib
    import struct
    import tempfile
    from pathlib import Path

    path = Path(path)
    pack = struct.Struct(f"<{len(table.order)}q").pack
    digest = hashlib.sha256()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            header = f"{CACHE_MAGIC} {table.degree}\n".encode("ascii")
            digest.update(header)
            fh.write(header)
            for row in table.values:
                packed = pack(*row)
                digest.update(packed)
                fh.write(packed)
            fh.write(f"sha256 {digest.hexdigest()}\n".encode("ascii"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def cache_load(d: int, path: str | os.PathLike) -> CharacterTable | None:
    """Load a table back, or None (plus a warning) on any mismatch.

    A missing file is a silent miss.  A failed checksum, a header other
    than ``WGCT3 <d>`` (an older format, another degree) and a payload
    that is not 8 n^2 bytes, or whose n is not p(d), each give one
    warning.  The checksum is checked first.  The class order is
    ``lex_list(d)``, never read from the file.
    """
    import hashlib
    import struct
    import warnings
    from math import isqrt
    from pathlib import Path

    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    view = memoryview(raw)
    cut = raw.rfind(b"sha256 ")
    try:
        if cut < 0 or (hashlib.sha256(view[:cut]).hexdigest().encode("ascii")
                       != raw[cut + 7:].strip()):
            raise ValueError("checksum mismatch")
        nl = raw.find(b"\n", 0, cut)
        header = raw[:max(nl, 0)].decode("ascii")
        if nl < 0 or header != f"{CACHE_MAGIC} {d}":
            raise ValueError(f"header {header!r}, wanted '{CACHE_MAGIC} {d}'")
        size = cut - nl - 1
        n = isqrt(size // 8)
        if not n or 8 * n * n != size:
            raise ValueError(f"payload of {size} bytes is not 8 n^2 bytes")
        rows = struct.Struct(f"<{n}q").iter_unpack(view[nl + 1:cut])
        return CharacterTable(d, tuple(rows))
    except (ValueError, TableVerificationError) as exc:
        warnings.warn(f"ignoring character cache {path}: {exc}")
        return None


def load_or_build(d: int, *, jobs: int = 1,
                  cache_dir: str | os.PathLike | None = None) -> CharacterTable:
    """Table for degree d, through the cache when one is configured.

    The degree cap is checked before any file is read.  The cache is
    optional: a failed write (an ``OSError``, or an entry outside int64)
    warns and the built table is returned anyway.
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
        import struct

        try:
            cache_store(table, path)
        except (OSError, struct.error) as exc:
            import warnings

            warnings.warn(f"not caching character table at {path}: {exc}")
    return table
