"""Brute-force monotone walk counting on the transposition Cayley graph.

A walk starts at the identity and multiplies one transposition per step
on the right; the edge for (i j) with i < j is labeled j, and a walk is
monotone when its label sequence is weakly increasing.  Such a walk is a
run of label-1 steps, then a run of label-2 steps, and so on (Matsumoto
and Novak's product of the (1 - x J_b)^-1 over b).  The dynamic program
keeps one count per (permutation, length) and adds the label blocks
b = 1..d-1 in turn: within block b, lengths rise from 0 and every count
of length r feeds length r + 1 through each (a b), a < b, in place, so a
walk may repeat label b.  It runs on permutations only, with no cycle
types or characters, and serves as the independent oracle for the
character-formula series coefficients and for their constancy on classes.
The comparison with the formula lives in ``selftest.walk_oracle``, so this
module imports no character code.

Degrees are capped at 7 and lengths at 12, as hard errors; both caps
live in ``errors.CAPS`` (``walk_degree``, ``walk_length``), and the
refusal names the supported range, not the cap alone.  The degree cap
is where the cost jumps: d = 8 holds 8 times the counts of d = 7
and, at R = 12, takes 1.3 s and 46 MB against 0.09 s and 19 MB (one
run, 2 vCPU).  Each length adds only one count per permutation (d = 7,
R = 24: 0.17 s), so the length cap bounds the envelope the tests cover,
not the cost.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import itemgetter

from .errors import CAPS, CapExceededError
from .partitions import Partition


def cycle_type(perm: tuple[int, ...]) -> Partition:
    """Cycle type of a permutation in one-line form on 0..d-1."""
    seen = [False] * len(perm)
    lens = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        n = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = perm[k]
            n += 1
        lens.append(n)
    return Partition(sorted(lens))


class WalkCounts(namedtuple("WalkCounts", "degree max_length per_permutation per_type")):
    """Monotone walk counts for lengths 0..max_length.

    ``per_permutation`` maps each permutation to its counts by length;
    ``per_type`` maps (cycle type, r) to the count of one representative.
    """

    __slots__ = ()


def enumerate_counts(d: int, R: int) -> WalkCounts:
    """Monotone walk counts for every permutation and length r <= R."""
    for what, v, lo, hi in (("degree", d, 2, CAPS["walk_degree"]),
                            ("length", R, 0, CAPS["walk_length"])):
        if not lo <= v <= hi:
            raise CapExceededError(f"{what} {v} outside supported range {lo}..{hi}")

    perms = list(itertools.permutations(range(d)))
    index = {p: i for i, p in enumerate(perms)}

    def times(a, b):
        """Right multiplication by (a b): positions a and b exchanged."""
        order = list(range(d))
        order[a], order[b] = b, a
        return [index[q] for q in map(itemgetter(*order), perms)]

    # counts[i][r]: walks of length r ending at perms[i] whose labels are
    # at most the current block's; perms[0] is the identity
    counts = [[0] * (R + 1) for _ in perms]
    counts[0][0] = 1
    for b in range(1, d):
        moves = list(zip(*[times(a, b) for a in range(b)]))
        # rising r, in place: a length-r count already holds the walks
        # that end in label b, so the next step may repeat it
        for r in range(R):
            for row, targets in zip(counts, moves):
                c = row[r]
                if c:
                    for j in targets:
                        counts[j][r + 1] += c

    per_permutation = {p: tuple(row) for p, row in zip(perms, counts)}
    per_type: dict[tuple[Partition, int], int] = {}
    for p, row in zip(perms, counts):
        t = cycle_type(p)
        if (t, 0) not in per_type:  # first permutation of the class in index order
            per_type.update(((t, r), c) for r, c in enumerate(row))

    return WalkCounts(d, R, per_permutation, per_type)


def class_function_check(w: WalkCounts) -> tuple[tuple, tuple, int] | None:
    """First (representative, permutation, r) whose counts differ, or None.

    Permutations run in sorted order, a class's representative is its
    first permutation, and r is the shortest length where the rows differ.
    """
    rows = w.per_permutation
    rep: dict[Partition, tuple[int, ...]] = {}
    for perm in itertools.permutations(range(w.degree)):  # sorted order
        first = rep.setdefault(cycle_type(perm), perm)
        if rows[perm] != rows[first]:
            r = next(r for r, (a, b) in enumerate(zip(rows[first], rows[perm]))
                     if a != b)
            return first, perm, r
    return None
