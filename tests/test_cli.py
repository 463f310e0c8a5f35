import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from wgmono import cli, scanner, selftest
from wgmono.characters import (CharacterTable, build_table, cache_load, cache_store,
                               default_cache_path)
from wgmono.partitions import Partition
from wgmono.scanner import scan


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """One ``python -m wgmono.cli`` run in a child process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "wgmono.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)


def assert_one_error_line(run):
    assert run.returncode == 1
    assert run.stdout == ""
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error: ")


class TestEval:
    def test_single_cell(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--alpha", "1", "--x", "1/2")
        assert code == 0
        assert out == "1/1\n"

    def test_normalized_degree13_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--alpha", "1^6,7",
                               "--x", "1/13", "--normalized")
        assert code == 0
        assert out == "30132115571/1149266300\n"

    def test_default_x_is_one_over_d(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--alpha", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["x"] == "1/2"
        assert doc["value"] == "2/3"
        assert set(doc) == {"alpha", "x", "value", "normalized"}

    def test_pole_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--alpha", "1,2", "--x", "1/2")
        assert code == 1
        assert "pole" in err

    def test_malformed_partition(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--alpha", "2,1", "--x", "1/3")
        assert code == 1
        assert "error" in err

    def test_malformed_rational(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--alpha", "2", "--x", "0.5")
        assert code == 1
        assert "rational" in err

    def test_unprintable_csv_value_prints_nothing(self):
        # the value has more digits than Python converts to str
        assert_one_error_line(run_module(
            "eval", "--alpha", "1,2", "--x", "1/" + "9" * 4000, "--format", "csv"))


class TestCoeff:
    def test_three_cycle(self, capsys):
        code, out, _ = run_cli(capsys, "coeff", "--alpha", "3", "--r", "2")
        assert code == 0
        assert out == "2\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "coeff", "--alpha", "1,1", "--r", "2",
                               "--format", "json")
        assert code == 0
        assert json.loads(out) == {"alpha": "1^2", "r": 2, "count": "1"}

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
    def test_wrong_table_is_one_error_line(self, flags):
        # chi(1^5,3; 1^4,2^2) + 1 moves the true count 58 off the integers;
        # a wrong column must not print a number, also when asserts are stripped.
        src = str(Path(cli.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, *flags, "-c",
             "import sys\n"
             "from wgmono import _mnkernel_py, cli\n"
             "from wgmono.partitions import Partition, lex_list\n"
             "true_columns = _mnkernel_py.compute_columns\n"
             "def wrong_columns(masks, alphas):\n"
             "    columns = true_columns(masks, alphas)\n"
             "    columns[0][lex_list(8).index(Partition.parse('1^5,3'))] += 1\n"
             "    return columns\n"
             "_mnkernel_py.compute_columns = wrong_columns\n"
             "sys.exit(cli.main(['coeff', '--alpha', '1^4,2^2', '--r', '4']))\n"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr.splitlines() == [
            "error: walk count failed: alpha=1^4,2^2, r=4: "
            "38649/640 is not a non-negative integer"]

    def test_unprintable_csv_count_prints_nothing(self):
        # the count has more digits than Python converts to str
        assert_one_error_line(run_module(
            "coeff", "--alpha", "1,2", "--r", "20001", "--format", "csv"))


class TestScan:
    def test_text_d6(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--d", "6")
        assert code == 0
        assert "degree 6" in out
        assert "violations 0" in out
        assert "runs 1" in out
        assert "1^6 .. 6 length 11" in out

    def test_json_d6(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--d", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == []
        assert doc["runs"][0]["length"] == 11

    def test_interval_query(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--d", "6", "--low", "1^6",
                               "--high", "6", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["intervals"][0]["cardinality"] == 10

    def test_interval_needs_both_bounds(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--d", "6", "--low", "1^6")
        assert code == 1
        assert "together" in err

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--d", "5", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["partition", "normalized"]
        assert len(rows) == 8

    def test_degree_beyond_cap(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--d", "21")
        assert code == 1
        assert "maximum" in err

    def test_bounds_capped_before_the_table(self, capsys, monkeypatch):
        def no_table(d):
            raise AssertionError("table built before the bounds were parsed")

        monkeypatch.setattr(scanner, "build_table", no_table)
        code, out, err = run_cli(capsys, "scan", "--d", "20",
                                 "--low", "1^1000000", "--high", "20")
        assert (code, out) == (1, "")
        assert err == "error: degree 1000000 beyond configured maximum 20\n"

    def test_bound_of_another_degree(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--d", "6", "--low", "1^5", "--high", "6")
        assert code == 1
        assert err == "error: interval bounds must be partitions of 6\n"


class TestWalks:
    def test_csv_counts(self, capsys):
        code, out, _ = run_cli(capsys, "walks", "--d", "3", "--R", "4")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["type", "r", "count"]
        assert ["3", "2", "2"] in rows
        assert ["1^3", "0", "1"] in rows

    def test_caps_rejected(self, capsys):
        code, _, err = run_cli(capsys, "walks", "--d", "9", "--R", "4")
        assert code == 1
        assert "range" in err


class TestFamily:
    def test_builtin_family(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--n", "5")
        assert code == 0
        assert "alpha 1,3^5" in out
        assert "beta 2^5,6" in out
        assert "ratio 21/16" in out

    def test_custom_pair(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--alpha", "1,3",
                               "--beta", "2,2", "--format", "json")
        assert code == 0
        assert json.loads(out)["ratio"] == "1/2"

    def test_needs_arguments(self, capsys):
        code, _, err = run_cli(capsys, "family")
        assert code == 1
        assert "--n" in err

    def test_n_capped_before_big_integers(self, capsys):
        code, out, err = run_cli(capsys, "family", "--n", "100000")
        assert (code, out) == (1, "")
        assert err == "error: n 100000 beyond configured maximum 7156\n"

    def test_custom_pair_capped_by_largest_builtin_degree(self):
        run = run_module("family", "--alpha", "1^3000000", "--beta", "1^2999998,2")
        assert_one_error_line(run)
        assert run.stderr == "error: degree 3000000 beyond configured maximum 21469\n"

    def test_custom_pair_capped_before_expanding(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "family", "--alpha", "1^10000000000",
                                     "--beta", "1^9999999998,2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == "error: degree 10000000000 beyond configured maximum 21469\n"
        assert peak < 1 << 20

    def test_largest_builtin_pair_accepted_as_custom(self, capsys):
        custom = run_cli(capsys, "family", "--alpha", "1,3^7156", "--beta", "2^7156,7157")
        assert custom == run_cli(capsys, "family", "--n", "7156")
        assert custom[0] == 0

    def test_unprintable_ratio_prints_nothing(self, capsys):
        # the ratio has more digits than Python converts to str
        code, out, err = run_cli(capsys, "family", "--n", "20000")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


TABLE_VERBS = (["eval", "--alpha", "2"], ["coeff", "--alpha", "2", "--r", "1"],
               ["scan", "--d", "3"], ["selftest"])


class TestUsageErrors:
    def test_unknown_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["eval", "--alpha", "2", "--bogus"])
        assert err.value.code == 2

    def test_unknown_level_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["selftest", "--level", "bogus"])
        assert err.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_missing_required_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["scan"])
        assert err.value.code == 2

    def test_jobs_flag_rejected(self, capsys):
        for argv in TABLE_VERBS:
            with pytest.raises(SystemExit) as err:
                cli.main([*argv, "--jobs", "2"])
            assert err.value.code == 2

    def test_cache_flag_rejected(self, capsys):
        # the command line keeps no cache to switch
        for argv in TABLE_VERBS:
            with pytest.raises(SystemExit) as err:
                cli.main([*argv, "--cache", "off"])
            assert err.value.code == 2


# Requests on the classes whose rows the poisoned table swaps.
POISON_REQUESTS = (["scan", "--d", "8"], ["eval", "--alpha", "1^6,2"],
                   ["eval", "--alpha", "1,7", "--format", "json"],
                   ["coeff", "--alpha", "1^6,2", "--r", "5"],
                   ["coeff", "--alpha", "1,7", "--r", "8", "--format", "csv"])


class TestCache:
    def test_cache_off_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("WG_CACHE_DIR", str(tmp_path))
        for argv in POISON_REQUESTS:
            code, _, _ = run_cli(capsys, *argv)
            assert code == 0
        assert list(tmp_path.iterdir()) == []

    def test_poisoned_cache_never_reaches_cli(self, capsys, tmp_path, monkeypatch):
        # Rows 1^6,2 and 1,7 swapped under a valid checksum: trusted, the
        # file scans 5 violations at d = 8 instead of 0.
        good = build_table(8)
        rows = list(good.values)
        i, j = good.position(Partition.parse("1^6,2")), good.position(Partition.parse("1,7"))
        rows[i], rows[j] = rows[j], rows[i]
        path = default_cache_path(8, tmp_path)
        cache_store(CharacterTable(8, tuple(rows)), path)
        assert len(scan(8, table=cache_load(8, path)).violations) == 5
        before = {p: p.read_bytes() for p in tmp_path.iterdir()}

        def replies():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                return [run_cli(capsys, *argv) for argv in POISON_REQUESTS]

        monkeypatch.delenv("WG_CACHE_DIR", raising=False)
        reference = replies()
        monkeypatch.setenv("WG_CACHE_DIR", str(tmp_path))
        assert replies() == reference
        assert all(code == 0 and err == "" for code, _, err in reference)
        assert "violations 0\n" in reference[0][1]
        assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def probe(code):
    """stdout of ``python -c code`` in a fresh process, which must exit 0."""
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


# Modules a request that runs none of them must leave unloaded.
UNUSED_BY_COLUMN = ("wgmono.scanner", "wgmono.walks", "wgmono.selftest",
                    "dataclasses", "hashlib")


class TestStartup:
    def test_import_leaves_process_pool_unloaded(self):
        assert probe("import sys, wgmono.cli; "
                     "print(sorted(m for m in sys.modules "
                     "if m.split('.')[0] in ('concurrent', 'multiprocessing')))") == "[]\n"

    def test_import_loads_only_the_front_end(self):
        assert probe("import sys, wgmono.cli; "
                     "print(sorted(m for m in sys.modules if m.startswith('wgmono')), "
                     "'dataclasses' in sys.modules, 'hashlib' in sys.modules)") == \
            "['wgmono', 'wgmono.cli', 'wgmono.errors'] False False\n"

    @pytest.mark.parametrize("argv", [["eval", "--alpha", "1^6,7", "--x", "1/13"],
                                      ["coeff", "--alpha", "1^6,7", "--r", "20"]],
                             ids=["eval", "coeff"])
    def test_column_verbs_leave_the_rest_unloaded(self, argv):
        out = probe("import sys\n"
                    "from wgmono import cli\n"
                    f"assert cli.main({argv!r}) == 0\n"
                    f"print([m for m in {UNUSED_BY_COLUMN!r} if m in sys.modules])\n")
        assert out.splitlines()[-1] == "[]"

    def test_lazy_namespace(self):
        assert probe(
            "import wgmono\n"
            "names = {n: getattr(wgmono, n) for n in wgmono.__all__}\n"
            "assert set(wgmono.__all__) <= set(dir(wgmono))\n"
            "ns = {}\n"
            "exec('from wgmono import *', ns)\n"
            "assert all(ns[n] is v for n, v in names.items())\n"
            "from wgmono import characters, scanner\n"
            "assert wgmono.scan is scanner.scan and characters.build_table is wgmono.build_table\n"
            "try:\n"
            "    wgmono.nope\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
            "try:\n"
            "    from wgmono import _mnkernel_c\n"
            "except ImportError:\n"
            "    print('no _mnkernel_c')\n") == \
            "module 'wgmono' has no attribute 'nope'\nno _mnkernel_c\n"

    def test_public_names_unchanged(self):
        import wgmono
        assert sorted(wgmono.__all__) == sorted(PUBLIC_NAMES)


class TestSelftest:
    def test_quick_level_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--level", "quick")
        assert code == 0
        assert "ok lex order d=6" in out
        assert "selftest quick:" in out

    def test_check_names_unique(self):
        names = [name for _, name, _ in selftest.CHECKS]
        assert len(names) == len(set(names))

    def test_levels_have_one_home(self):
        assert selftest.LEVELS is cli.LEVELS == ("quick", "standard", "extended")

    def test_levels_nest_as_prefixes(self):
        quick, standard, extended = (selftest.checks(level)
                                     for level in selftest.LEVELS)
        assert standard[:len(quick)] == quick
        assert extended[:len(standard)] == standard
        assert extended == selftest.CHECKS

    def test_standard_output_pinned(self):
        lines = []
        assert selftest.run_selftest("standard", emit=lines.append) == 0
        assert lines == [f"ok {name}" for name in STANDARD_NAMES] + [
            "selftest standard: 18 checks passed"]

    def test_failed_identity_prints_fail_line(self, monkeypatch):
        # chi(1^4,2^2; 1^3,2,3) + 1 at d = 8, past the tables the quick
        # level verifies
        good = build_table(8)
        values = [list(row) for row in good.values]
        values[good.position((1, 1, 1, 1, 2, 2))][good.position((1, 1, 1, 2, 3))] += 1
        bad = CharacterTable(8, tuple(map(tuple, values)))
        monkeypatch.setattr(selftest, "build_table",
                            lambda d: bad if d == 8 else build_table(d))
        lines = []
        assert selftest.run_selftest("standard", emit=lines.append) == 1
        assert lines[-1].startswith("FAIL bottom coefficient catalan d<=8: ")


PUBLIC_NAMES = [
    "CapExceededError", "DegreeMismatchError", "DomainError", "PartitionError",
    "PoleError", "TableVerificationError",
    "CellStats", "Partition", "cell_stats", "class_size",
    "conjugate", "dimension", "lex_list", "lex_successor",
    "CharacterTable", "build_table", "character_column", "verify_table",
    "catalan", "complete_homogeneous", "counterexample_family", "eval_M",
    "format_rat", "leading_ratio", "m0_catalan", "normalized_value", "parse_rat",
    "series_coeff", "vanishing_order",
    "WalkCounts", "class_function_check", "enumerate_counts", "oracle_compare",
    "IntervalStat", "MValue", "Run", "ScanReport", "interval_stat", "scan",
    "__version__",
]

STANDARD_NAMES = [
    "lex order d=6",
    "partition counts d<=8",
    "successor chain d=7",
    "conjugate involution d<=8",
    "class sizes sum d<=8",
    "character tables verify d<=6",
    "conjugate sign symmetry d<=6",
    "walk oracle d<=4",
    "bottom coefficient catalan d<=8",
    "series parity d<=5",
    "scans monotone d<=8",
    "family ratio growth",
    "positivity samples d<=7",
    "normalized pair d=13",
    "violations d=13",
    "walk oracle d<=6 r<=8",
    "scans empty below 13",
    "tables verify d<=10",
]
