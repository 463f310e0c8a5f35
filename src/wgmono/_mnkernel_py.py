"""Character kernel: a bottom-up column DP over border strips.

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
work.
"""

from __future__ import annotations

KERNEL_NAME = "pure-python"


def shape_mask(parts: tuple[int, ...]) -> int:
    """Bead mask of a partition given in nondecreasing stored form."""
    mask = 0
    n = len(parts)
    for i, p in enumerate(parts):
        mask |= 1 << (p + i)  # row n-i has hook p + (n - (n - i)) = p + i
    assert mask.bit_count() == n
    return mask


def _add_strips(mask: int, r: int) -> list[tuple[int, int]]:
    """(child mask, height parity) for every border strip of size r added."""
    padded = (mask << r) | ((1 << r) - 1)
    out = []
    m = padded
    while m:
        low = m & -m
        m ^= low
        if not padded & (low << r):
            between = padded & ((low << r) - (low << 1))
            child = padded ^ low ^ (low << r)
            while child & 1:
                child >>= 1
            out.append((child, between.bit_count() & 1))
    return out


def compute_columns(masks: list[int], alphas: list[tuple[int, ...]]) -> list[list[int]]:
    """Character values column by column: result[j][i] = chi(masks[i], alphas[j]).

    Every mask must be a shape of its alpha's degree.  Any lists work,
    in any order; classes given in stored (nondecreasing) form share
    the most work.
    """
    top = max((sum(a) for a in alphas), default=0)
    # shapes[n]: masks of every partition of n, in a fixed order
    shapes = [[0]]
    for n in range(top):
        shapes.append(sorted({c for m in shapes[n] for c, _ in _add_strips(m, 1)}))
    pos = [{m: i for i, m in enumerate(s)} for s in shapes]

    strips = {}  # (n, r) -> per shape of size n: (plus, minus) positions at n + r

    def moves(n: int, r: int):
        table = strips.get((n, r))
        if table is None:
            at = pos[n + r]
            table = []
            for m in shapes[n]:
                signed = ([], [])
                for child, odd in _add_strips(m, r):
                    signed[odd].append(at[child])
                table.append(signed)
            strips[n, r] = table
        return table

    out = [None] * len(alphas)
    stack = [[1]]  # stack[k]: vector of the first k parts of prev
    prev: tuple[int, ...] = ()
    for j in sorted(range(len(alphas)), key=lambda j: tuple(alphas[j])):
        alpha = tuple(alphas[j])
        k = 0
        while k < len(prev) and k < len(alpha) and prev[k] == alpha[k]:
            k += 1
        del stack[k + 1:]
        n = sum(alpha[:k])
        for r in alpha[k:]:
            vec = [0] * len(shapes[n + r])
            for c, (plus, minus) in zip(stack[-1], moves(n, r)):
                if c:
                    for i in plus:
                        vec[i] += c
                    for i in minus:
                        vec[i] -= c
            stack.append(vec)
            n += r
        prev = alpha
        vec, at = stack[-1], pos[n]
        out[j] = [vec[at[m]] for m in masks]
    return out
