import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wgmono import cli, selftest
from wgmono.characters import CharacterTable, build_table, cache_store
from wgmono.partitions import Partition


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """One ``python -m wgmono.cli`` run with the cache disabled."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "wgmono.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src, WG_CACHE_DIR=""),
                          capture_output=True, text=True)


def assert_one_error_line(run):
    assert run.returncode == 1
    assert run.stdout == ""
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("error: ")


def bad_d8_cache_env(tmp_path, lam, alpha):
    """Environment whose cache holds a d = 8 table with chi(lam, alpha) + 1.

    The file carries a valid checksum, so only the arithmetic can notice.
    """
    good = build_table(8)
    values = [list(row) for row in good.values]
    values[good.position(lam)][good.position(alpha)] += 1
    cache_store(CharacterTable(8, tuple(map(tuple, values))),
                tmp_path / "chartable_d8.wgct")
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src, WG_CACHE_DIR=str(tmp_path))


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

    def test_unprintable_csv_count_prints_nothing(self):
        # the count has more digits than Python converts to str
        assert_one_error_line(run_module(
            "coeff", "--alpha", "1,2", "--r", "20001", "--format", "csv"))

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
    def test_wrong_table_is_one_error_line(self, tmp_path, flags):
        # The true count is 58; a wrong table must not print a number,
        # also when asserts are stripped.
        env = bad_d8_cache_env(tmp_path, Partition.parse("1^5,3"),
                               Partition.parse("1^4,2^2"))
        run = subprocess.run(
            [sys.executable, *flags, "-m", "wgmono.cli", "coeff",
             "--alpha", "1^4,2^2", "--r", "4"], env=env, capture_output=True, text=True)
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr.splitlines() == [
            "error: walk count failed: alpha=1^4,2^2, r=4: "
            "38649/640 is not a non-negative integer"]


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
        # an empty WG_CACHE_DIR is the one way to switch the cache off
        for argv in TABLE_VERBS:
            with pytest.raises(SystemExit) as err:
                cli.main([*argv, "--cache", "off"])
            assert err.value.code == 2


class TestCache:
    def test_cache_file_created_and_reused(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("WG_CACHE_DIR", str(tmp_path))
        code, first, _ = run_cli(capsys, "scan", "--d", "6", "--format", "json")
        assert code == 0
        assert (tmp_path / "chartable_d6.wgct").exists()
        code, second, _ = run_cli(capsys, "scan", "--d", "6", "--format", "json")
        assert code == 0
        assert first == second

    def test_cache_off_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("WG_CACHE_DIR", "")
        code, _, _ = run_cli(capsys, "scan", "--d", "6")
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    def test_failed_cache_write_warns_and_continues(self, tmp_path):
        # WG_CACHE_DIR names a regular file, so no table can be stored
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, WG_CACHE_DIR=str(blocker))
        broken = subprocess.run(
            [sys.executable, "-m", "wgmono.cli", "eval", "--alpha", "1,2"],
            env=env, capture_output=True, text=True)
        reference = run_module("eval", "--alpha", "1,2")
        assert broken.returncode == 0
        assert broken.stdout == reference.stdout == "27/40\n"
        [line] = broken.stderr.splitlines()
        assert line.startswith(f"warning: not caching character table at {blocker}")

    def test_rejected_cache_file_is_one_warning_line(self, tmp_path):
        path = tmp_path / "chartable_d3.wgct"
        cache_store(build_table(3), path)
        path.write_bytes(path.read_bytes().replace(b"WGCT2 3", b"WGCT2 4"))
        src = str(Path(cli.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "wgmono.cli", "eval", "--alpha", "1,2"],
            env=dict(os.environ, PYTHONPATH=src, WG_CACHE_DIR=str(tmp_path)),
            capture_output=True, text=True)
        assert run.returncode == 0
        assert run.stdout == "27/40\n"
        assert run.stderr.splitlines() == [
            f"warning: ignoring character cache {path}: checksum mismatch"]


class TestStartup:
    def test_import_leaves_process_pool_unloaded(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, wgmono.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout == "[]\n"


class TestSelftest:
    def test_quick_level_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--level", "quick")
        assert code == 0
        assert "ok lex order d=6" in out
        assert "selftest quick:" in out

    def test_check_names_unique(self):
        names = [name for _, name, _ in selftest.CHECKS]
        assert len(names) == len(set(names))

    def test_levels_nest_as_prefixes(self):
        quick, standard, extended = (selftest.checks(level)
                                     for level in selftest.LEVELS)
        assert standard[:len(quick)] == quick
        assert extended[:len(standard)] == standard
        assert extended == selftest.CHECKS

    def test_standard_output_pinned(self, monkeypatch):
        monkeypatch.setenv("WG_CACHE_DIR", "")
        lines = []
        assert selftest.run_selftest("standard", emit=lines.append) == 0
        assert lines == [f"ok {name}" for name in STANDARD_NAMES] + [
            "selftest standard: 18 checks passed"]

    def test_failed_identity_prints_fail_line(self, tmp_path):
        env = bad_d8_cache_env(tmp_path, Partition.parse("1^4,2^2"),
                               Partition.parse("1^3,2,3"))
        run = subprocess.run(
            [sys.executable, "-m", "wgmono.cli", "selftest", "--level", "standard"],
            env=env, capture_output=True, text=True)
        assert run.returncode == 1
        assert run.stdout.splitlines()[-1].startswith("FAIL ")
        assert "Traceback" not in run.stderr


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
