import itertools

import pytest

from wgmono import _mnkernel_py, selftest
from wgmono.errors import CapExceededError
from wgmono.partitions import Partition
from wgmono.walks import (
    WalkCounts,
    class_function_check,
    cycle_type,
    enumerate_counts,
)


def walks_by_full_enumeration(d, R):
    """Oracle: materialize every monotone transposition sequence."""
    pairs = [(a, b) for b in range(1, d) for a in range(b)]
    counts = {}
    identity = tuple(range(d))
    counts[(identity, 0)] = 1
    for r in range(1, R + 1):
        for seq in itertools.product(pairs, repeat=r):
            labels = [b for _, b in seq]
            if any(x > y for x, y in zip(labels, labels[1:])):
                continue
            perm = list(identity)
            for a, b in seq:
                perm[a], perm[b] = perm[b], perm[a]
            key = (tuple(perm), r)
            counts[key] = counts.get(key, 0) + 1
    return counts


def unconstrained_totals(d, R):
    """Total transposition sequences of each length, no label filter."""
    m = d * (d - 1) // 2
    return {r: m ** r for r in range(R + 1)}


class TestCycleType:
    def test_identity(self):
        assert cycle_type((0, 1, 2)) == Partition((1, 1, 1))

    def test_full_cycle(self):
        assert cycle_type((1, 2, 3, 0)) == Partition((4,))

    def test_mixed(self):
        assert cycle_type((1, 0, 2, 4, 3)) == Partition((1, 2, 2))


class TestEnumerateCounts:
    def test_caps(self):
        for bad in (1, 8):
            with pytest.raises(CapExceededError):
                enumerate_counts(bad, 4)
        with pytest.raises(CapExceededError):
            enumerate_counts(4, 13)

    def test_time_zero_row(self):
        w = enumerate_counts(3, 2)
        identity = (0, 1, 2)
        assert w.per_permutation[identity][0] == 1
        for perm in itertools.permutations(range(3)):
            if perm != identity:
                assert w.per_permutation[perm][0] == 0

    def test_unique_transposition_step(self):
        w = enumerate_counts(2, 1)
        assert w.per_type[(Partition((2,)), 1)] == 1

    def test_minimal_three_cycle(self):
        w = enumerate_counts(3, 2)
        assert w.per_type[(Partition((3,)), 2)] == 2  # Cat_2

    def test_minimal_four_cycle(self):
        w = enumerate_counts(4, 3)
        assert w.per_type[(Partition((4,)), 3)] == 5  # Cat_3

    @pytest.mark.parametrize("d,R", [(2, 4), (3, 4), (4, 3), (5, 4)])
    def test_against_full_enumeration(self, d, R):
        w = enumerate_counts(d, R)
        oracle = walks_by_full_enumeration(d, R)
        for perm in itertools.permutations(range(d)):
            for r in range(R + 1):
                assert w.per_permutation[perm][r] == oracle.get((perm, r), 0)

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_parity(self, d):
        w = enumerate_counts(d, 6)
        for (t, r), count in w.per_type.items():
            if (r - (d - t.length)) % 2:
                assert count == 0

    @pytest.mark.parametrize("d", [3, 4])
    def test_label_filter_binds(self, d):
        w = enumerate_counts(d, 4)
        free = unconstrained_totals(d, 4)
        for r in range(2, 5):
            monotone_total = sum(w.per_permutation[p][r]
                                 for p in itertools.permutations(range(d)))
            assert monotone_total < free[r]

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_inverse_symmetry(self, d):
        w = enumerate_counts(d, 5)
        for perm in itertools.permutations(range(d)):
            inv = tuple(sorted(range(d), key=lambda k: perm[k]))
            for r in range(6):
                assert w.per_permutation[perm][r] == w.per_permutation[inv][r]


class TestClassFunctionCheck:
    @pytest.mark.parametrize("d,R", [(7, 12)])
    def test_passes(self, d, R):
        assert class_function_check(enumerate_counts(d, R)) is None

    def test_perturbation_caught_with_witness(self):
        w = enumerate_counts(4, 4)
        perturbed = dict(w.per_permutation)
        victim = (1, 0, 2, 3)
        row = list(perturbed[victim])
        row[4] += 1
        perturbed[victim] = tuple(row)
        bad = WalkCounts(w.degree, w.max_length, perturbed, w.per_type)
        first, second, r = class_function_check(bad)
        assert (first, second, r) == ((0, 1, 3, 2), victim, 4)
        assert cycle_type(first) == cycle_type(second)
        assert bad.per_permutation[first][r] != bad.per_permutation[second][r]


class TestOracleCompare:
    @pytest.mark.parametrize("d,R", [(2, 10), (7, 12)])
    def test_passes(self, d, R):
        selftest.walk_oracle(degrees=(d,), steps=R)

    def test_swapped_columns_caught(self, monkeypatch):
        # the kernel hands out the column of 4 for 1,3 and that of 1,3 for 4
        true_vectors = _mnkernel_py.class_vectors
        swap = {(1, 3): (4,), (4,): (1, 3)}

        def swapped(alphas):
            for alpha, vec in true_vectors(alphas):
                if alpha in swap:
                    _, vec = next(true_vectors([swap[alpha]]))
                yield alpha, vec

        monkeypatch.setattr(_mnkernel_py, "class_vectors", swapped)
        with pytest.raises(AssertionError,
                           match=r"^d=4 class 1,3, r=2: 2 walks, formula 0$"):
            selftest.walk_oracle(degrees=(4,), steps=6)

    def test_single_generator_column(self):
        w = enumerate_counts(2, 10)
        for r in range(11):
            expected = 1 if r % 2 else 0
            assert w.per_type[(Partition((2,)), r)] == expected
