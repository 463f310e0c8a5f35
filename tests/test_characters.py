import hashlib
import itertools
import random
import warnings
from math import factorial

import pytest

from wgmono.characters import (
    CharacterTable,
    build_table,
    cache_load,
    cache_store,
    character_column,
    default_cache_path,
    load_or_build,
    verify_table,
)
from wgmono.errors import CapExceededError, TableVerificationError
from wgmono.partitions import Partition, cell_stats, class_size, conjugate, lex_list
from wgmono.scanner import scan
from wgmono import _mnkernel_py


def frobenius_character(lam, alpha):
    """Independent oracle: coefficient extraction from the alternant.

    The character is the coefficient of x^(lam + delta) in the product
    of the Vandermonde alternant with the power sums of alpha, computed
    here with dict-backed polynomials in l(lam)..d variables.
    """
    d = lam.degree
    n = d  # enough variables for any shape of degree d
    rows = list(lam.rows) + [0] * (n - lam.length)
    delta = list(range(n - 1, -1, -1))
    target = tuple(r + e for r, e in zip(rows, delta))

    def perm_sign(perm):
        sign = 1
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        return sign

    poly = {}
    for perm in itertools.permutations(range(n)):
        expo = tuple(delta[k] for k in perm)
        poly[expo] = poly.get(expo, 0) + perm_sign(perm)

    for k in alpha:
        nxt = {}
        for expo, coeff in poly.items():
            for var in range(n):
                bumped = list(expo)
                bumped[var] += k
                bumped = tuple(bumped)
                nxt[bumped] = nxt.get(bumped, 0) + coeff
        poly = nxt

    return poly.get(target, 0)


class TestMnCharacter:
    """``character_column``: one Murnaghan-Nakayama column, shapes in lex order."""

    def test_trivial_representation(self):
        for d in range(1, 7):
            for alpha in lex_list(d):
                assert character_column(alpha)[-1] == 1  # the shape (d) is last

    def test_sign_on_transposition(self):
        assert character_column((1, 2))[0] == -1  # the shape 1^3 is first

    def test_hook_on_three_cycle(self):
        assert character_column((3,)) == (1, -1, 1)

    def test_beyond_maximum(self):
        with pytest.raises(CapExceededError, match="^degree 21 beyond configured maximum 20$"):
            character_column((1, 20))

    def test_degree_zero_rejected(self):
        with pytest.raises(CapExceededError, match="degree must be >= 1, got 0"):
            character_column(())

    @pytest.mark.parametrize("d", range(1, 11))
    def test_matches_table_every_class(self, d, tables):
        t = tables.get(d)
        for alpha in t.order:
            assert character_column(alpha) == t.column(alpha), alpha

    @pytest.mark.parametrize("d", range(11, 21))
    def test_matches_table_seeded_classes(self, d, tables):
        t = tables.get(d)
        for alpha in random.Random(d).sample(t.order, 3):
            assert character_column(alpha) == t.column(alpha), alpha

    @pytest.mark.parametrize("d", range(1, 6))
    def test_against_frobenius_oracle(self, d, tables):
        t = tables.get(d)
        for lam in t.order:
            for alpha in t.order:
                assert t.chi(lam, alpha) == frobenius_character(lam, alpha), \
                    f"chi({lam}, {alpha})"


def reference_verify(table):
    """Orthogonality oracle: dimensions, then rows and columns by double loop.

    Orthogonality does not pin a table: it also accepts a negated
    non-dimension column and a swap of conjugate rows, both of which
    ``verify_table`` must reject.
    """
    d = table.degree
    order = table.order
    n = len(order)
    fact = factorial(d)
    sizes = [class_size(a) for a in order]
    counts = {}

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


CHECK_NAMES = ("dimension column", "character bound", "frobenius formula")
PRIME = 2 ** 127 - 1  # the certificate's modulus


def accepts(check, table):
    try:
        check(table)
    except TableVerificationError:
        return False
    return True


def with_values(table, rows):
    return CharacterTable(table.degree, tuple(tuple(r) for r in rows))


def write_checksummed(path, body):
    digest = hashlib.sha256(body).hexdigest()
    path.write_bytes(body + f"sha256 {digest}\n".encode())


def body_of(lines):
    return ("\n".join(lines) + "\n").encode("utf-8")


def wgct1_body(degree, order, values):
    """The older layout: degree, count and class-order lines before the rows."""
    return body_of(["WGCT1", f"degree {degree}", f"count {len(order)}"]
                   + [str(p) for p in order]
                   + [" ".join(map(str, row)) for row in values])


# Damaged WGCT2 bodies of the d = 4 table, as functions of its lines; the
# last row is the trivial character, "1 1 1 1 1".
DAMAGED_BODIES = {
    "too few rows": lambda lines: body_of(lines[:-1]),
    "extra row": lambda lines: body_of(lines + lines[-1:]),
    "short row": lambda lines: body_of(lines[:-1] + [lines[-1][:-2]]),
    "long row": lambda lines: body_of(lines[:-1] + [lines[-1] + " 1"]),
    "non-integer token": lambda lines: body_of(lines[:-1] + ["1 1 1.5 1 1"]),
    # U+FF11 FULLWIDTH DIGIT ONE, which int() would read as 1
    "non-ascii bytes": lambda lines: body_of(lines[:-1] + ["1 1 \uff11 1 1"]),
    "empty body": lambda lines: b"",
    "wrong degree header": lambda lines: body_of(["WGCT2 5"] + lines[1:]),
}


class TestBuildTable:
    def test_d1(self):
        t = build_table(1)
        assert t.values == ((1,),)

    def test_d2(self):
        t = build_table(2)
        assert t.order == (Partition((1, 1)), Partition((2,)))
        assert t.values[t.position((2,))] == (1, 1)
        assert t.values[t.position((1, 1))] == (1, -1)

    def test_d3_dimension_column(self, tables):
        t = tables.get(3)
        assert [t.values[t.position(lam)][0] for lam in t.order] == [1, 2, 1]

    def test_beyond_maximum(self):
        with pytest.raises(CapExceededError):
            build_table(21)
        with pytest.raises(CapExceededError):
            build_table(0)

    def test_repeat_builds_identical(self):
        assert build_table(9) == build_table(9)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_conjugate_sign_symmetry(self, d, tables):
        t = tables.get(d)
        for lam in t.order:
            conj_row = t.values[t.position(conjugate(lam))]
            row = t.values[t.position(lam)]
            for j, alpha in enumerate(t.order):
                sign = -1 if (d - alpha.length) % 2 else 1
                assert row[j] == sign * conj_row[j]

    @pytest.mark.parametrize("d", range(1, 11))
    def test_dimension_column_matches_hooks(self, d, tables):
        t = tables.get(d)
        for lam in t.order:
            assert t.values[t.position(lam)][0] == factorial(d) // cell_stats(lam).hook_product


def reference_columns(masks, alphas):
    """Reference oracle: the memoized border-strip recursion.

    This is the kernel ``build_table`` ran before the column DP: it
    removes the largest remaining part of the class as a border strip,
    recurses on the smaller shape and memoizes on (shape, remaining
    parts), interned as a prefix trie.  Same bead masks and signs.
    """
    parent, last, ids = [0], [0], {(): 0}

    def intern(t):
        pid = ids.get(t)
        if pid is None:
            par = intern(t[:-1])
            ids[t] = pid = len(parent)
            parent.append(par)
            last.append(t[-1])
        return pid

    memo = {}

    def value(mask, pid):
        if pid == 0:
            return 1  # empty class partition forces the empty shape
        v = memo.get((mask, pid))
        if v is not None:
            return v
        r, par, total, m = last[pid], parent[pid], 0, mask
        while m:
            low = m & -m
            m ^= low
            nb = low.bit_length() - 1 - r
            if nb >= 0 and not (mask >> nb) & 1:
                between = (mask >> (nb + 1)) & ((1 << (r - 1)) - 1)
                sub = (mask ^ low) | (1 << nb)
                while sub & 1:
                    sub >>= 1
                child = value(sub, par)
                total += -child if between.bit_count() & 1 else child
        memo[mask, pid] = total
        return total

    return [[value(m, intern(tuple(a))) for m in masks] for a in alphas]


def kernel_inputs(shapes, classes):
    return [_mnkernel_py.shape_mask(tuple(p)) for p in shapes], [tuple(p) for p in classes]


class TestKernelReference:
    @pytest.mark.parametrize("d", range(1, 15))
    def test_full_table(self, d):
        masks, alphas = kernel_inputs(lex_list(d), lex_list(d))
        assert _mnkernel_py.compute_columns(masks, alphas) == \
            reference_columns(masks, alphas)

    def test_random_subsets_shuffled(self):
        # compute_columns takes any lists: subsets, repeats, any order
        rng = random.Random(20261018)
        for case in range(50):
            order = lex_list(rng.randint(1, 12))
            shapes = rng.choices(order, k=rng.randint(1, len(order)))
            classes = rng.choices(order, k=rng.randint(1, len(order)))
            masks, alphas = kernel_inputs(shapes, classes)
            assert _mnkernel_py.compute_columns(masks, alphas) == \
                reference_columns(masks, alphas), case

    def test_single_values(self):
        rng = random.Random(7)
        pairs = [(lam, alpha) for d in range(1, 8)
                 for lam in lex_list(d) for alpha in lex_list(d)]
        pairs += [tuple(rng.sample(lex_list(d), 2)) for d in range(13, 21)]
        for lam, alpha in pairs:
            masks, alphas = kernel_inputs([lam], [alpha])
            assert character_column(alpha)[lex_list(lam.degree).index(lam)] == \
                reference_columns(masks, alphas)[0][0], (lam, alpha)


class TestVerifyTable:
    def test_passes_to_d8(self, tables):
        for d in range(1, 9):
            counts = verify_table(tables.get(d))
            assert counts["frobenius formula"] == len(lex_list(d))

    def test_perturbed_entry_caught(self, tables):
        t = tables.get(5)
        rows = [list(r) for r in t.values]
        rows[2][3] += 1
        bad = CharacterTable(5, tuple(tuple(r) for r in rows))
        with pytest.raises(TableVerificationError) as err:
            verify_table(bad)
        assert err.value.check == "frobenius formula"
        assert err.value.detail == f"alpha={t.order[3]}"

    def test_perturbed_dimension_names_shape(self, tables):
        t = tables.get(4)
        rows = [list(r) for r in t.values]
        rows[1][0] += 1
        bad = CharacterTable(4, tuple(tuple(r) for r in rows))
        with pytest.raises(TableVerificationError, match="dimension"):
            verify_table(bad)

    def test_ragged_table_rejected(self, tables):
        t = tables.get(4)
        rows = list(t.values)
        rows[-1] = rows[-1][:-1]
        with pytest.raises(TableVerificationError, match="shape"):
            verify_table(with_values(t, rows))

    @pytest.mark.parametrize("d", range(1, 7))
    def test_every_single_entry_perturbation_rejected(self, d, tables):
        t = tables.get(d)
        n = len(t.order)
        deltas = [sign << k for k in range(71) for sign in (1, -1)]
        for i, j, delta in itertools.product(range(n), range(n), deltas):
            rows = list(t.values)
            rows[i] = rows[i][:j] + (rows[i][j] + delta,) + rows[i][j + 1:]
            bad = with_values(t, rows)
            assert not accepts(reference_verify, bad), (i, j, delta)
            try:
                verify_table(bad)
            except TableVerificationError as err:
                assert err.check in CHECK_NAMES
            else:
                pytest.fail(f"accepted entry ({i}, {j}) changed by {delta}")

    def test_random_perturbations_rejected(self, tables):
        # Entry changes mixed with moves that keep the columns orthogonal:
        # negating non-dimension columns, or swapping the rows of a
        # conjugate pair (equal dimensions).
        rng = random.Random(20260101)
        orthogonal = 0
        for trial in range(300):
            t = tables.get(rng.randint(4, 7))
            n = len(t.order)
            rows = [list(r) for r in t.values]
            moves = rng.sample(("entries", "signs", "swap"), rng.randint(1, 3))
            if "signs" in moves:
                for j in rng.sample(range(1, n), rng.randint(1, n - 1)):
                    for r in rows:
                        r[j] = -r[j]
            if "swap" in moves:
                lam = rng.choice([p for p in t.order if conjugate(p) != p])
                a, b = t.position(lam), t.position(conjugate(lam))
                rows[a], rows[b] = rows[b], rows[a]
            if "entries" in moves:
                for _ in range(rng.randint(2, 5)):
                    rows[rng.randrange(n)][rng.randrange(n)] += \
                        rng.choice((1, -1)) << rng.randrange(71)
            bad = with_values(t, rows)
            assert not accepts(verify_table, bad), (trial, moves)
            orthogonal += accepts(reference_verify, bad)
        assert orthogonal > 0  # the gap the certificate closes

    def test_conjugate_row_swap_rejected(self, tables):
        # At d = 8 the swap turns a monotone scan into one with 5 violations.
        t = tables.get(8)
        rows = list(t.values)
        a, b = t.position(Partition.parse("1^6,2")), t.position(Partition.parse("1,7"))
        rows[a], rows[b] = rows[b], rows[a]
        bad = with_values(t, rows)
        assert accepts(reference_verify, bad)
        with pytest.raises(TableVerificationError, match="frobenius formula"):
            verify_table(bad)

    def test_negated_column_rejected(self, tables):
        t = tables.get(8)
        j = t.position(Partition.parse("1^4,2^2"))
        bad = with_values(t, [row[:j] + (-row[j],) + row[j + 1:] for row in t.values])
        assert accepts(reference_verify, bad)
        with pytest.raises(TableVerificationError, match="frobenius formula"):
            verify_table(bad)

    def test_entry_raised_by_prime_rejected(self, tables):
        # Mod P the change is invisible to the Frobenius sum; the bound sees it.
        t = tables.get(6)
        rows = [list(r) for r in t.values]
        rows[3][4] += PRIME
        with pytest.raises(TableVerificationError) as err:
            verify_table(with_values(t, rows))
        assert err.value.check == "character bound"

    def test_passes_at_d18(self, tables):
        counts = verify_table(tables.get(18))
        assert counts["frobenius formula"] == 385

    def test_passes_at_d20(self, tables):
        counts = verify_table(tables.get(20))
        assert counts == {"dimension column": 627, "character bound": 627 * 627,
                          "frobenius formula": 627}


class TestCache:
    def test_round_trip(self, tmp_path, tables):
        path = tmp_path / "t6.wgct"
        cache_store(tables.get(6), path)
        loaded = cache_load(6, path)
        assert loaded == tables.get(6)

    def test_missing_file(self, tmp_path):
        assert cache_load(7, tmp_path / "absent.wgct") is None

    def test_corrupted_checksum(self, tmp_path, tables):
        path = tmp_path / "t4.wgct"
        cache_store(tables.get(4), path)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0x01  # flip inside the checksum hex
        path.write_bytes(bytes(raw))
        with pytest.warns(UserWarning, match="checksum"):
            assert cache_load(4, path) is None

    def test_corrupted_body(self, tmp_path, tables):
        path = tmp_path / "t4.wgct"
        cache_store(tables.get(4), path)
        raw = path.read_bytes().replace(b"WGCT2 4", b"WGCT2 5", 1)
        path.write_bytes(raw)
        with pytest.warns(UserWarning, match="checksum"):
            assert cache_load(4, path) is None

    def test_version_mismatch(self, tmp_path, tables):
        path = tmp_path / "t3.wgct"
        cache_store(tables.get(3), path)
        body = path.read_bytes().split(b"sha256 ")[0].replace(b"WGCT2", b"WGCT3", 1)
        write_checksummed(path, body)
        with pytest.warns(UserWarning, match="header"):
            assert cache_load(3, path) is None

    def test_truncation(self, tmp_path, tables):
        path = tmp_path / "t5.wgct"
        cache_store(tables.get(5), path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.warns(UserWarning):
            assert cache_load(5, path) is None

    def test_wrong_degree_requested(self, tmp_path, tables):
        path = tmp_path / "t5.wgct"
        cache_store(tables.get(5), path)
        with pytest.warns(UserWarning, match="header 'WGCT2 5', wanted 'WGCT2 6'"):
            assert cache_load(6, path) is None

    @pytest.mark.parametrize("damage", DAMAGED_BODIES.values(),
                             ids=DAMAGED_BODIES.keys())
    def test_damaged_body_one_warning(self, tmp_path, tables, damage):
        path = tmp_path / "t4.wgct"
        cache_store(tables.get(4), path)
        lines = path.read_bytes().split(b"sha256 ")[0].decode().splitlines()
        assert lines[0] == "WGCT2 4" and lines[-1] == "1 1 1 1 1"
        write_checksummed(path, damage(lines))
        with pytest.warns(UserWarning) as record:
            assert cache_load(4, path) is None
        assert len(record) == 1

    def test_constructor_checks_shape(self, tables):
        rows = tables.get(4).values
        for bad in (rows[:-1], rows + rows[-1:], rows[:-1] + (rows[-1][:-1],),
                    rows[:-1] + (rows[-1] + (1,),)):
            with pytest.raises(TableVerificationError, match="shape"):
                CharacterTable(4, bad)

    def test_order_is_derived(self, tables):
        t = CharacterTable(6, tables.get(6).values)
        assert t.order == tuple(lex_list(6)) and t == tables.get(6)

    def test_wgct1_reversed_order_does_not_change_scan(self, tmp_path, tables):
        # A valid d = 13 table listed in reversed class order under a valid
        # checksum.  Trusting its order lines gives 99 violations, not 1^6,7.
        t = tables.get(13)
        reversed_rows = [row[::-1] for row in t.values[::-1]]
        write_checksummed(tmp_path / "chartable_d13.wgct",
                          wgct1_body(13, t.order[::-1], reversed_rows))
        with pytest.warns(UserWarning, match="header 'WGCT1'"):
            cached = scan(13, table=load_or_build(13, cache_dir=tmp_path))
        assert cached == scan(13, table=t)
        assert [str(p) for p in cached.violations] == ["1^6,7"]

    def test_failed_cache_write_warns_and_continues(self, tmp_path, tables):
        # cache_dir names a regular file, so no table can be stored
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        with pytest.warns(UserWarning) as record:
            assert load_or_build(3, cache_dir=blocker) == tables.get(3)
        [warning] = record
        assert str(warning.message).startswith(
            f"not caching character table at {blocker / 'chartable_d3.wgct'}")

    def test_wgct1_file_rewritten_once(self, tmp_path, tables):
        path = default_cache_path(6, tmp_path)
        t = tables.get(6)
        write_checksummed(path, wgct1_body(6, t.order, t.values))
        with pytest.warns(UserWarning) as record:
            assert load_or_build(6, cache_dir=tmp_path) == t
        assert len(record) == 1
        assert "header 'WGCT1', wanted 'WGCT2 6'" in str(record[0].message)
        assert path.read_bytes().startswith(b"WGCT2 6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_or_build(6, cache_dir=tmp_path) == t

    def test_cap_checked_before_any_file_is_read(self, tmp_path):
        # the derived order would cost lex_list(21) before the rows are seen
        write_checksummed(default_cache_path(21, tmp_path), b"WGCT2 21\n1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapExceededError, match="beyond configured maximum 20"):
                load_or_build(21, cache_dir=tmp_path)

    def test_default_path_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv("WG_CACHE_DIR", raising=False)
        assert default_cache_path(9) is None

    def test_load_or_build_uses_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WG_CACHE_DIR", str(tmp_path))
        first = load_or_build(6)
        assert default_cache_path(6).exists()
        again = load_or_build(6)
        assert first == again

    def test_cache_identical_bytes_across_builds(self, tmp_path):
        a, b = tmp_path / "a.wgct", tmp_path / "b.wgct"
        cache_store(build_table(8), a)
        cache_store(build_table(8), b)
        assert a.read_bytes() == b.read_bytes()
