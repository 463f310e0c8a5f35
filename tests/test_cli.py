import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wgmono import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_single_cell(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--alpha", "1", "--x", "1/2")
        assert code == 0
        assert out == "1/1\n"

    def test_normalized_degree13_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--alpha", "1^6,7",
                               "--x", "1/13", "--normalized", "--jobs", "1")
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

    def test_worker_count_invariance(self, capsys):
        _, base, _ = run_cli(capsys, "scan", "--d", "7", "--format", "json",
                             "--jobs", "1")
        _, fanned, _ = run_cli(capsys, "scan", "--d", "7", "--format", "json",
                               "--jobs", "3")
        assert base == fanned

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
        monkeypatch.setenv("WG_CACHE_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "scan", "--d", "6", "--cache", "off")
        assert code == 0
        assert list(tmp_path.iterdir()) == []

    def test_failed_cache_write_warns_and_continues(self, tmp_path):
        # WG_CACHE_DIR names a regular file, so no table can be stored
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, WG_CACHE_DIR=str(blocker))

        def run(*extra):
            return subprocess.run(
                [sys.executable, "-m", "wgmono.cli", "eval", "--alpha", "1,2", *extra],
                env=env, capture_output=True, text=True)

        broken, reference = run(), run("--cache", "off")
        assert broken.returncode == 0
        assert broken.stdout == reference.stdout == "27/40\n"
        assert "Traceback" not in broken.stderr
        assert "not caching character table" in broken.stderr


class TestSelftest:
    def test_quick_level_passes(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--level", "quick", "--jobs", "1")
        assert code == 0
        assert "ok lex order d=6" in out
        assert "selftest quick:" in out
