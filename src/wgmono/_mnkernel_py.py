"""Character kernel: two DPs over one table of border strips, and the
column API every character the package reads comes through.

Shapes travel as bead masks: bit b is set when some row i (1-based, rows
nonincreasing, no zero rows) has first-column hook lam_i + rows - i = b.
Adding a border strip of size r is moving one bead from b up to the free
slot b + r; the strip height is the number of beads strictly between,
and the sign its parity.  A shape is first padded with r empty rows (r
extra beads at the bottom) so a strip can open up to r new rows, and
the result renormalized by shifting out the low set bits, so equal
shapes always share a mask.

By the Murnaghan-Nakayama rule the vector sum_lambda chi(lambda, alpha)
s_lambda is p_alpha = p_a1 ... p_ak applied to the empty shape, one part
at a time, and multiplying by p_r adds every border strip of size r with
its sign.  The classes are visited in sorted order with a stack of
prefix vectors, so classes that share their smaller parts share that
work.  The vector of size n is indexed by the shapes of n in
``lex_list(n)`` order, and only the sizes some prefix of a class reaches
are enumerated: the column of (1, 1, 18) visits the shapes of 1, 2 and
20 only.

Read downwards, the same rule gives every class sum at once:
sum_lambda chi(lambda, alpha) w_lambda is p_alpha^perp applied to
sum_lambda w_lambda s_lambda, and p_r^perp removes every border strip
of size r.  ``class_sums`` reads the addition tables of ``_strip_moves``
as that removal step, with the largest parts removed first.

A strip table depends only on (n, r), so the tables live in one store
for the life of the process: each is built on first use, kept as tuples
no caller can change, and shared by both DPs and by every call.  The
store holds at most the 210 tables with n + r <= 20 (46,014 strips,
about 1.7 MB) at the degree cap, and one call at degree 20 already
builds most of them.

This module computes characters and nothing else: it takes no character
table.  ``character_column`` checks its class and the degree cap
``partitions.MAX_DEGREE``, then reads one column; ``genfun`` alone
chooses a table or this kernel, and reads it for ``eval`` and ``coeff``.
"""

from __future__ import annotations

from .partitions import _check_cap, as_partition

KERNEL_NAME = "pure-python"


def shape_mask(parts: tuple[int, ...]) -> int:
    """Bead mask of a partition given in nondecreasing stored form."""
    mask = 0
    n = len(parts)
    for i, p in enumerate(parts):
        mask |= 1 << (p + i)  # row n-i has hook p + (n - (n - i)) = p + i
    assert mask.bit_count() == n
    return mask


def lex_masks(n: int) -> list[int]:
    """Bead masks of the partitions of n, in ``lex_list(n)`` order; [0] for n = 0."""
    out = []

    def gen(remaining: int, least: int, i: int, mask: int) -> None:
        # parts i, i+1, ... still to place, each at least ``least``
        for p in range(least, remaining // 2 + 1):
            gen(remaining - p, p, i + 1, mask | 1 << (p + i))
        out.append(mask | 1 << (remaining + i))  # the last part takes the rest

    if n:
        gen(n, 1, 0, 0)
    else:
        out.append(0)
    return out


def _strip_moves(masks: tuple[int, ...], r: int,
                 at: dict[int, int]) -> tuple[tuple[tuple, tuple], ...]:
    """Per mask, (even, odd): the positions ``at[child]`` of the shapes one
    border strip of size r adds, split by the parity of the strip height.
    """
    fill = (1 << r) - 1
    out = []
    for mask in masks:
        padded = (mask << r) | fill
        signed = ([], [])
        free = padded & ~(padded >> r)  # beads whose slot b + r is free
        while free:
            low = free & -free
            free ^= low
            high = low << r
            child = padded ^ low ^ high
            child >>= (~child & (child + 1)).bit_length() - 1  # drop empty rows
            signed[(padded & (high - (low << 1))).bit_count() & 1].append(at[child])
        out.append((tuple(signed[0]), tuple(signed[1])))
    return tuple(out)


# The strip store of the module docstring, filled on first use and never
# emptied.  Two threads may both build a missing entry; they store equal
# values, so the race costs time only.
_SHAPES: dict[int, tuple[int, ...]] = {}  # size -> masks in lex_list order
_AT: dict[int, dict[int, int]] = {}  # size -> {mask: position}
_STRIPS: dict[tuple[int, int], tuple] = {}  # (n, r) -> _strip_moves(shapes of n, r)


def _shapes(n: int) -> tuple[int, ...]:
    masks = _SHAPES.get(n)
    if masks is None:
        masks = _SHAPES[n] = tuple(lex_masks(n))
    return masks


def _moves(n: int, r: int) -> tuple[tuple[tuple, tuple], ...]:
    """``_strip_moves`` from the shapes of n to those of n + r, from the store."""
    table = _STRIPS.get((n, r))
    if table is None:
        at = _AT.get(n + r)
        if at is None:
            at = _AT[n + r] = {m: i for i, m in enumerate(_shapes(n + r))}
        table = _STRIPS[n, r] = _strip_moves(_shapes(n), r, at)
    return table


def _common_prefix(a: tuple, b: tuple) -> int:
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    return k


def class_vectors(alphas):
    """Yield (class, vector) for every distinct class, in sorted order.

    A class is a nondecreasing tuple of parts summing to d, and
    ``vector[i]`` is chi(lex_list(d)[i], class).  Sorted order on the
    classes of one degree is ``lex_list(d)`` order.  The vectors are
    never changed after they are yielded.
    """
    stack = [[1]]  # stack[k]: vector of the first k parts of prev
    prev: tuple[int, ...] = ()
    for alpha in sorted({tuple(a) for a in alphas}):
        k = _common_prefix(prev, alpha)
        del stack[k + 1:]
        n = sum(alpha[:k])
        for r in alpha[k:]:
            vec = [0] * len(_shapes(n + r))
            for c, (plus, minus) in zip(stack[-1], _moves(n, r)):
                if c:
                    for i in plus:
                        vec[i] += c
                    for i in minus:
                        vec[i] -= c
            stack.append(vec)
            n += r
        prev = alpha
        yield alpha, stack[-1]


def class_sums(classes, weights) -> list[int]:
    """sum_i chi(lex_list(d)[i], alpha) * weights[i] for each class alpha, in order.

    Every class is a nondecreasing tuple of parts summing to d, and
    ``weights`` has one entry per shape of d.  The sum is p_alpha^perp
    applied to W = sum_i weights[i] s_i, read at the empty shape: each
    part r removes every border strip of size r, each with its sign, so
    u[mu] is the signed sum of v[lam] over the shapes lam one r-strip
    above mu (the addition table of ``_strip_moves``, read as a pull).
    Parts are removed largest first and the classes visited in order of
    their reversed parts, so classes that share their largest parts share
    those vectors.
    """
    classes = [tuple(a) for a in classes]
    sums = [0] * len(classes)
    stack = [list(weights)]  # stack[k]: after removing the k largest parts of prev
    prev: tuple[int, ...] = ()
    for j in sorted(range(len(classes)), key=lambda j: classes[j][::-1]):
        parts = classes[j][::-1]
        k = _common_prefix(prev, parts)
        del stack[k + 1:]
        n = sum(parts[k:])
        for r in parts[k:]:
            v, u = stack[-1], []
            n -= r
            for plus, minus in _moves(n, r):
                s = 0
                for i in plus:
                    s += v[i]
                for i in minus:
                    s -= v[i]
                u.append(s)
            stack.append(u)
        sums[j] = stack[-1][0]
        prev = parts
    return sums


def compute_columns(masks: list[int], alphas: list[tuple[int, ...]]) -> list[list[int]]:
    """Character values column by column: result[j][i] = chi(masks[i], alphas[j]).

    ``masks`` must be ``lex_masks(d)`` and every class of degree d, else
    ``ValueError``.  The classes may come in any order, with repeats;
    given in stored (nondecreasing) form they share the most work.  Its
    callers are the benchmark's kernel probe and the tests.
    """
    alphas = [tuple(a) for a in alphas]
    if any(tuple(masks) != _shapes(n) for n in {sum(a) for a in alphas}):
        raise ValueError("masks must be lex_masks(d) for the classes' degree d")
    vectors = dict(class_vectors(alphas))
    return [list(vectors[a]) for a in alphas]


def character_column(alpha) -> tuple[int, ...]:
    """chi(lam, alpha) for every shape lam in ``lex_list(d)``.

    d is at most ``partitions.MAX_DEGREE``.  The column DP visits only the
    degrees the class's prefix sums reach, so a class with few parts costs
    little more than its last level.

    >>> character_column((3,))  # shapes 1^3, 1,2 and 3
    (1, -1, 1)
    """
    a = as_partition(alpha) if alpha else ()  # () keeps the degree error
    _check_cap(sum(a))
    return tuple(next(class_vectors((a,)))[1])
