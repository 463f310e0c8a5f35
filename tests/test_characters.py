import gc
import hashlib
import itertools
import random
import struct
import tracemalloc
import warnings
from math import factorial, prod

import pytest

from wgmono.characters import (
    CharacterTable,
    build_table,
    cache_load,
    cache_store,
    default_cache_path,
    load_or_build,
    verify_table,
)
from wgmono.errors import CapExceededError, PartitionError, TableVerificationError
from wgmono.partitions import Partition, class_size, conjugate, lex_list
from wgmono.scanner import scan
from wgmono import _mnkernel_py, characters
from wgmono._mnkernel_py import character_column

from cell_reference import cell_stats


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

    def test_parts_checked_before_the_degree(self):
        # sum() would fail on the strings with TypeError
        with pytest.raises(PartitionError, match="^parts must be integers, got "):
            character_column(("1", "2"))

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


def det_mod(m):
    """Reference determinant modulo ``PRIME``: elimination with a modular
    inverse per pivot; m is reduced and consumed."""
    det = 1
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv], det = m[piv], m[c], -det
        det = det * m[c][c] % PRIME
        inv = pow(m[c][c], -1, PRIME)
        for r in range(c + 1, len(m)):
            f = m[r][c] * inv % PRIME
            m[r] = [(a - f * b) % PRIME for a, b in zip(m[r], m[c])]
    return det


def reference_point_values(d):
    """Schur values by ``det_mod`` and power sums by ``pow`` at the
    certificate's point, drawn as ``verify_table`` draws it."""
    rng = random.Random(d)
    y = [rng.randrange(PRIME) for _ in range(d)]
    h, e = [1] + [0] * d, [1] + [0] * d
    for v in y:
        for k in range(1, d + 1):
            h[k] = (h[k] + v * h[k - 1]) % PRIME
        for k in range(d, 0, -1):
            e[k] = (e[k] + v * e[k - 1]) % PRIME
    h += [0] * d
    e += [0] * d
    schur = []
    for lam in lex_list(d):
        rows, seq = (lam.rows, h) if len(lam) <= lam[-1] else (conjugate(lam).rows, e)
        schur.append(det_mod([[seq[r - a + b] for b in range(len(rows))]
                              for a, r in enumerate(rows)]))
    return schur, [sum(pow(v, k, PRIME) for v in y) for k in range(d + 1)]


def tableau_sum(rows, y):
    """Sum of y^T over the semistandard tableaux T of shape ``rows`` (largest
    first) with entries in 1..len(y), filled cell by cell: rows weakly
    increasing, columns strictly increasing."""
    cells = [(a, b) for a, r in enumerate(rows) for b in range(r)]
    filling = {}

    def fill(k):
        if k == len(cells):
            return prod(y[filling[c] - 1] for c in cells)
        a, b = cells[k]
        total = 0
        for v in range(max(filling.get((a, b - 1), 1), filling.get((a - 1, b), 0) + 1),
                       len(y) + 1):
            filling[a, b] = v
            total += fill(k + 1)
        filling.pop((a, b), None)
        return total

    return fill(0)


class TestCertificateValues:
    @pytest.mark.parametrize("d", range(1, 21))
    def test_schur_values_match_modular_elimination(self, d):
        assert characters._point_values(d, lex_list(d)) == reference_point_values(d)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_expansion_matches_tableau_sums(self, d):
        # Exact integers at y = (1, ..., d); h and e are sums over multisets
        # and sets, so the reference uses no Jacobi-Trudi.  Both calls run in
        # one process, so a memo that outlived a call would show.
        y = list(range(1, d + 1))
        h = [sum(map(prod, itertools.combinations_with_replacement(y, k)))
             for k in range(d + 1)]
        e = [sum(map(prod, itertools.combinations(y, k))) for k in range(d + 1)]
        shapes = lex_list(d)
        want = [tableau_sum(lam.rows, y) for lam in shapes]
        assert characters._schur_values(h, [lam.rows for lam in shapes]) == want
        assert characters._schur_values(e, [conjugate(lam).rows for lam in shapes]) == want

    def test_schur_memo_freed_on_return(self):
        # The memo's closure refers to itself.  Unless the call breaks that
        # cycle, the memo (about 600 KB at d = 20) outlives it until a
        # collector pass, which is off here.  The first call fills the
        # interpreter's free lists, which tracemalloc would otherwise count.
        order = lex_list(20)
        enabled = gc.isenabled()
        gc.disable()
        try:
            characters._point_values(20, order)
            tracemalloc.start()
            try:
                characters._point_values(20, order)
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
        finally:
            if enabled:
                gc.enable()
        ours = snapshot.filter_traces([tracemalloc.Filter(True, characters.__file__)])
        assert sum(stat.size for stat in ours.statistics("filename")) < 64 << 10


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


def wgct2_body(degree, values):
    """The text layout: a header line, then one line of decimal integers per row."""
    return body_of([f"WGCT2 {degree}"] + [" ".join(map(str, row)) for row in values])


# Damaged WGCT3 bodies of the d = 4 table (5 x 5), as functions of its
# header line and its payload of 25 packed int64 entries, each with the
# warning it must give.
DAMAGED_BODIES = {
    "too few rows": (lambda head, payload: head + payload[:-40],
                     "payload of 160 bytes is not 8 n^2 bytes"),
    "extra row": (lambda head, payload: head + payload + payload[-40:],
                  "payload of 240 bytes"),
    "short row": (lambda head, payload: head + payload[:-8], "payload of 192 bytes"),
    "long row": (lambda head, payload: head + payload + payload[-8:], "payload of 208 bytes"),
    "payload length not a multiple of 8": (
        lambda head, payload: head + payload + b"\x00", "payload of 201 bytes"),
    "non-ascii byte in the header": (
        lambda head, payload: b"WGCT\xb3 4\n" + payload, "can't decode byte 0xb3"),
    "empty body": (lambda head, payload: b"", "header '', wanted 'WGCT3 4'"),
    "header only": (lambda head, payload: head, "payload of 0 bytes"),
    "wrong degree header": (lambda head, payload: b"WGCT3 5\n" + payload,
                            "header 'WGCT3 5', wanted 'WGCT3 4'"),
    # a square payload, but 4 x 4: only the shape check against p(4) = 5 sees it
    "square payload of another degree": (
        lambda head, payload: head + payload[:16 * 8], "values are not 5 x 5"),
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

    @pytest.mark.parametrize("d", range(0, 21))
    def test_lex_masks_follow_lex_list(self, d):
        shapes = lex_list(d) if d else [()]
        assert _mnkernel_py.lex_masks(d) == [_mnkernel_py.shape_mask(tuple(p)) for p in shapes]

    @pytest.mark.parametrize("d", range(1, 13))
    def test_class_vectors_in_lex_order(self, d):
        masks, alphas = kernel_inputs(lex_list(d), lex_list(d))
        got = list(_mnkernel_py.class_vectors(reversed(alphas)))
        assert [alpha for alpha, _ in got] == alphas
        assert [vec for _, vec in got] == reference_columns(masks, alphas)

    @pytest.mark.parametrize("alpha", ["1,1,18", "20", "2,4,6,8", "2,4,6,7", "1^20"])
    def test_column_skipping_levels_matches_table(self, alpha, tables):
        a = Partition.parse(alpha)  # 2,4,6,7 is of degree 19, the rest of 20
        assert character_column(a) == tables.get(a.degree).column(a)

    def test_random_subsets_shuffled(self):
        # compute_columns takes lex_masks(d) and any class list: repeats, any order
        rng = random.Random(20261018)
        for case in range(50):
            d = rng.randint(1, 12)
            order, masks = lex_list(d), _mnkernel_py.lex_masks(d)
            alphas = [tuple(p) for p in rng.choices(order, k=rng.randint(1, len(order)))]
            assert _mnkernel_py.compute_columns(masks, alphas) == \
                reference_columns(masks, alphas), case
        for masks, alphas in ((_mnkernel_py.lex_masks(6)[::-1], [(6,)]),
                              (_mnkernel_py.lex_masks(3), [(3,), (1, 3)])):
            with pytest.raises(ValueError, match="lex_masks"):
                _mnkernel_py.compute_columns(masks, alphas)

    def test_single_values(self):
        rng = random.Random(7)
        pairs = [(lam, alpha) for d in range(1, 8)
                 for lam in lex_list(d) for alpha in lex_list(d)]
        pairs += [tuple(rng.sample(lex_list(d), 2)) for d in range(13, 21)]
        for lam, alpha in pairs:
            masks, alphas = kernel_inputs([lam], [alpha])
            assert character_column(alpha)[lex_list(lam.degree).index(lam)] == \
                reference_columns(masks, alphas)[0][0], (lam, alpha)


def clear_strip_store():
    for part in (_mnkernel_py._SHAPES, _mnkernel_py._AT, _mnkernel_py._STRIPS):
        part.clear()


def kernel_results(d):
    """Every column DP vector and strip-removal sum at degree d, seeded weights."""
    order, rng = lex_list(d), random.Random(d)
    weights = [rng.randint(-10 ** 6, 10 ** 6) for _ in order]
    return (list(_mnkernel_py.class_vectors(order)),
            _mnkernel_py.class_sums(order, weights),
            character_column(order[len(order) // 2]))


class TestStripStore:
    @pytest.mark.parametrize("first", [(), (20,), (13, 20), (20, 13, 5)])
    def test_same_results_cold_or_warm(self, first):
        cold = {}
        for d in (7, 13, 20):
            clear_strip_store()
            cold[d] = kernel_results(d)
        clear_strip_store()
        for d in first:
            build_table(d)
            scan(d)
        for d in (7, 13, 20):
            assert kernel_results(d) == cold[d], (first, d)

    def test_second_call_builds_nothing(self):
        clear_strip_store()
        kernel_results(12)
        kept = dict(_mnkernel_py._STRIPS)
        kernel_results(12)
        build_table(12)
        assert _mnkernel_py._STRIPS.keys() == kept.keys()
        assert all(_mnkernel_py._STRIPS[key] is table for key, table in kept.items())

    def test_bounded_at_the_cap(self):
        import gc
        import tracemalloc

        clear_strip_store()
        tracemalloc.start()
        try:
            build_table(20)
            scan(20)
            for alpha in ("20", "1^20", "1,1,18", "2,4,6,8", "5^4"):
                character_column(Partition.parse(alpha))
            gc.collect()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        keys = _mnkernel_py._STRIPS.keys()
        assert len(keys) <= 210 and all(n + r <= 20 for n, r in keys)
        store = snapshot.filter_traces(
            [tracemalloc.Filter(True, _mnkernel_py.__file__)])
        assert sum(stat.size for stat in store.statistics("filename")) < 4 << 20

    def test_tables_are_tuples(self):
        kernel_results(11)
        assert _mnkernel_py._STRIPS
        for table in _mnkernel_py._STRIPS.values():
            assert type(table) is tuple
            for signed in table:
                assert type(signed) is tuple and len(signed) == 2
                assert all(type(positions) is tuple for positions in signed)
        assert all(type(masks) is tuple for masks in _mnkernel_py._SHAPES.values())


class TestVerifyTable:
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
        raw = path.read_bytes().replace(b"WGCT3 4", b"WGCT3 5", 1)
        path.write_bytes(raw)
        with pytest.warns(UserWarning, match="checksum"):
            assert cache_load(4, path) is None

    def test_version_mismatch(self, tmp_path, tables):
        path = tmp_path / "t3.wgct"
        cache_store(tables.get(3), path)
        body = path.read_bytes().rpartition(b"sha256 ")[0].replace(b"WGCT3", b"WGCT4", 1)
        write_checksummed(path, body)
        with pytest.warns(UserWarning, match="header 'WGCT4 3', wanted 'WGCT3 3'") as record:
            assert cache_load(3, path) is None
        assert len(record) == 1

    def test_truncation(self, tmp_path, tables):
        path = tmp_path / "t5.wgct"
        cache_store(tables.get(5), path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.warns(UserWarning):
            assert cache_load(5, path) is None

    def test_wrong_degree_requested(self, tmp_path, tables):
        path = tmp_path / "t5.wgct"
        cache_store(tables.get(5), path)
        with pytest.warns(UserWarning, match="header 'WGCT3 5', wanted 'WGCT3 6'") as record:
            assert cache_load(6, path) is None
        assert len(record) == 1

    @pytest.mark.parametrize("damage", DAMAGED_BODIES.values(),
                             ids=DAMAGED_BODIES.keys())
    def test_damaged_body_one_warning(self, tmp_path, tables, damage):
        damage, message = damage
        path = tmp_path / "t4.wgct"
        cache_store(tables.get(4), path)
        body = path.read_bytes().rpartition(b"sha256 ")[0]
        head, payload = body[:8], body[8:]
        assert head == b"WGCT3 4\n" and payload[-40:] == struct.pack("<5q", *[1] * 5)
        write_checksummed(path, damage(head, payload))
        with pytest.warns(UserWarning) as record:
            assert cache_load(4, path) is None
        [warning] = record
        assert message in str(warning.message)

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

    @staticmethod
    def rewritten_once(tmp_path, t, body, header):
        """An older file of table t is rejected once, then rewritten as WGCT3."""
        path = default_cache_path(t.degree, tmp_path)
        write_checksummed(path, body)
        with pytest.warns(UserWarning) as record:
            assert load_or_build(t.degree, cache_dir=tmp_path) == t
        assert len(record) == 1
        assert f"header {header!r}, wanted 'WGCT3 {t.degree}'" in str(record[0].message)
        assert path.read_bytes().startswith(f"WGCT3 {t.degree}\n".encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_or_build(t.degree, cache_dir=tmp_path) == t

    def test_wgct1_file_rewritten_once(self, tmp_path, tables):
        t = tables.get(6)
        self.rewritten_once(tmp_path, t, wgct1_body(6, t.order, t.values), "WGCT1")

    def test_wgct2_file_rewritten_once(self, tmp_path, tables):
        t = tables.get(6)
        self.rewritten_once(tmp_path, t, wgct2_body(6, t.values), "WGCT2 6")

    def test_cap_checked_before_any_file_is_read(self, tmp_path):
        # the derived order would cost lex_list(21) before the rows are seen
        write_checksummed(default_cache_path(21, tmp_path), b"WGCT3 21\n" + struct.pack("<q", 1))
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

    def test_exact_bytes_at_d3(self, tmp_path, tables):
        # rows 1^3, 1,2 and 3 in lex order: little-endian int64, row-major
        path = tmp_path / "t3.wgct"
        cache_store(tables.get(3), path)
        body = (b"WGCT3 3\n" + struct.pack("<3q", 1, -1, 1)
                + struct.pack("<3q", 2, 0, -1) + struct.pack("<3q", 1, 1, 1))
        digest = hashlib.sha256(body).hexdigest()
        assert path.read_bytes() == body + f"sha256 {digest}\n".encode("ascii")

    def test_entry_outside_int64_is_not_stored(self, tmp_path, tables, monkeypatch):
        rows = [list(row) for row in tables.get(3).values]
        rows[0][0] = 2**63
        wide = CharacterTable(3, tuple(map(tuple, rows)))
        with pytest.raises(struct.error):
            cache_store(wide, tmp_path / "t3.wgct")
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setattr(characters, "build_table", lambda d: wide)
        with pytest.warns(UserWarning) as record:
            assert load_or_build(3, cache_dir=tmp_path) is wide
        [warning] = record
        assert str(warning.message).startswith(
            f"not caching character table at {tmp_path / 'chartable_d3.wgct'}")
        assert list(tmp_path.iterdir()) == []

    def test_store_is_streamed(self, tmp_path, tables):
        # the d = 20 file is 3.1 MB; one row packed at a time stays far below
        t = tables.get(20)
        tracemalloc.start()
        try:
            cache_store(t, tmp_path / "t20.wgct")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
