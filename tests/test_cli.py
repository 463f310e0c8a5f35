import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wgmono import _mnkernel_py, characters, cli, selftest
from wgmono.characters import (CharacterTable, build_table, cache_load, cache_store,
                               default_cache_path)
from wgmono.errors import CAPS
from wgmono.partitions import Partition, lex_list
from wgmono.scanner import scan

from test_cli_corpus import replay


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeff:
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
             "true_vectors = _mnkernel_py.class_vectors\n"
             "def wrong_vectors(alphas):\n"
             "    for alpha, vec in true_vectors(alphas):\n"
             "        vec = list(vec)\n"
             "        vec[lex_list(8).index(Partition.parse('1^5,3'))] += 1\n"
             "        yield alpha, vec\n"
             "_mnkernel_py.class_vectors = wrong_vectors\n"
             "sys.exit(cli.main(['coeff', '--alpha', '1^4,2^2', '--r', '4']))\n"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr.splitlines() == [
            "error: walk count failed: alpha=1^4,2^2, r=4: "
            "38649/640 is not a non-negative integer"]

    def test_r_capped_before_any_list(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "coeff", "--alpha", "2", "--r", str(10 ** 26))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == f"error: r {10 ** 26} beyond configured maximum 15000\n"
        assert peak < 1 << 20


class TestScan:
    def test_bounds_capped_before_the_table(self, capsys, monkeypatch):
        # a table-free scan streams its class vectors from the kernel seam
        def no_table(alphas):
            raise AssertionError("characters computed before the bounds were parsed")

        monkeypatch.setattr(_mnkernel_py, "class_vectors", no_table)
        code, out, err = run_cli(capsys, "scan", "--d", "20",
                                 "--low", "1^1000000", "--high", "20")
        assert (code, out) == (1, "")
        assert err == "error: degree 1000000 beyond configured maximum 20\n"

    def test_interval_rejected_with_csv_before_the_table(self, capsys, monkeypatch):
        def no_table(alphas):
            raise AssertionError("characters computed for a request csv cannot show")

        monkeypatch.setattr(_mnkernel_py, "class_vectors", no_table)
        code, out, err = run_cli(capsys, "scan", "--d", "3", "--low", "1^3",
                                 "--high", "3", "--format", "csv")
        assert (code, out) == (1, "")
        assert err == "error: --low/--high need --format text or json\n"


class TestUsage:
    @pytest.mark.parametrize("argv,line", [
        (["coeff", "--alpha", "2", "--r", "\u0661"],
         "wgmono coeff: error: argument --r: not an integer: '\u0661'"),
        (["scan", "--d", "1_3"], "wgmono scan: error: argument --d: not an integer: '1_3'"),
    ], ids=["coeff --r", "scan --d"])
    def test_refused_integer_names_the_rule(self, capsys, argv, line):
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        err = capsys.readouterr().err.splitlines()
        assert stop.value.code == 2
        assert err[0].startswith("usage: wgmono ")
        assert err[-1] == line


def argparse_reads(argv):
    """``vars`` of what the ``argparse`` parser reads, or None where it stops."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


CORPUS_ARGVS = [json.loads(line)["argv"] for line in
                Path(__file__).with_name("cli_corpus.jsonl").read_text().splitlines()]
# Words a command line is drawn from: every option, values argparse takes
# and refuses, abbreviations, "=" forms and help.
WORDS = [f"--{name}" for _, options in cli.VERBS.values() for name, *_ in options] + [
    "json", "csv", "text", "xml", "quick", "extended", "1^6,7", "2", "13", "1/13",
    "-1", "-1/2", "--x=1/2", "--alp", "--form", "-h", "--help", "--", "", "\u0661", "1_3"]


class TestPlainArgs:
    @pytest.mark.parametrize("argv", CORPUS_ARGVS, ids=range(len(CORPUS_ARGVS)))
    def test_corpus_lines_read_as_argparse_reads_them(self, argv):
        plain = cli.plain_args(argv)
        assert plain is None or vars(plain) == argparse_reads(argv)

    @given(st.sampled_from(list(cli.VERBS)), st.lists(st.sampled_from(WORDS), max_size=8))
    def test_any_line_reads_as_argparse_reads_it(self, verb, words):
        plain = cli.plain_args([verb, *words])
        assert plain is None or vars(plain) == argparse_reads([verb, *words])

    @pytest.mark.parametrize("argv", [
        ["eval", "--alpha", "1,1,18", "--x", "2/43", "--normalized", "--format", "json"],
        ["eval", "--alpha", "1^6,7"],
        ["coeff", "--alpha", "2,4,6,7", "--r", "31", "--format", "json"],
        ["scan", "--d", "13", "--format", "csv"],
        ["scan", "--d", "20", "--low", "1,2^2,4,11", "--high", "2,5,13"],
        ["walks", "--d", "5", "--R", "8", "--format", "text"],
        ["family", "--n", "5"],
        ["selftest", "--level", "quick"],
        ["eval", "--format", "csv", "--alpha", "2", "--format", "json"],
    ])
    def test_requests_are_plain(self, argv):
        plain = cli.plain_args(argv)
        assert plain is not None and vars(plain) == argparse_reads(argv)

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["eval", "-h"], ["eval"], ["eval", "--alpha"],
        ["eval", "--alp", "2"], ["eval", "--alpha", "2", "--x=1/2"],
        ["eval", "--alpha", "2", "--format", "xml"], ["coeff", "--alpha", "2", "--r", "-1"],
        ["coeff", "--alpha", "2", "--r", "\u0661"], ["scan", "--d", "1_3"],
        ["eval", "--alpha", "2", "extra"], ["eval", "--alpha", "--x", "1/2"],
    ])
    def test_other_lines_are_left_to_argparse(self, argv):
        assert cli.plain_args(argv) is None


class TestClosedPipe:
    def test_reader_closing_early_is_one_error_line(self):
        # 627 JSON entries are more than a pipe holds, so a write must fail
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "wgmono.cli", "scan", "--d", "20", "--format", "json"],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline() == "{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == "error: output closed before it was all written\n"


class TestProcessEntry:
    """``python -m wgmono.cli`` runs ``cli.run``, which freezes the heap and
    exits with ``main``'s status.  No test here calls the real ``run`` in
    process: it would freeze the test process's heap for good."""

    @pytest.mark.parametrize("argv, status", [
        (["eval", "--alpha", "1^6,7", "--x", "1/13"], 0),
        (["coeff", "--alpha", "1^4,2^2", "--r", "6", "--format", "json"], 0),
        (["scan", "--d", "6", "--format", "csv"], 0),
        (["eval", "--alpha", "1,,2"], 1),
        (["scan", "--d", "5", "--format", "xml"], 2),
        (["--help"], 0),
    ], ids=["eval", "coeff-json", "scan-csv", "malformed", "bad-format", "help"])
    def test_process_matches_in_process_main(self, argv, status, monkeypatch):
        # argparse wraps help and usage to COLUMNS, so both sides get one width
        monkeypatch.setenv("COLUMNS", "80")
        src = str(Path(cli.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-m", "wgmono.cli", *argv],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == replay(argv)
        assert run.returncode == status
        if status == 0:
            assert run.stdout and run.stderr == ""
        else:
            assert run.stdout == ""
            first = "error: " if status == 1 else "usage: "
            assert run.stderr.startswith(first), run.stderr
        if status == 1:
            assert len(run.stderr.splitlines()) == 1, run.stderr

    def test_run_freezes_before_main_and_exits_with_its_status(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c",
                              "import gc\n"
                              "from wgmono import cli\n"
                              "assert gc.get_freeze_count() == 0\n"
                              "def stub():\n"
                              "    print(gc.get_freeze_count() > 0)\n"
                              "    return 3\n"
                              "cli.main = stub\n"
                              "cli.run()\n"],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True)
        assert (run.returncode, run.stdout, run.stderr) == (3, "True\n", "")


class TestFamily:
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


def cap_cases():
    """(cap, a request at the bound, the request one past it, its refusal)
    for every cap of ``errors.CAPS``, each read from the table."""
    d, wd, wr = CAPS["degree"], CAPS["walk_degree"], CAPS["walk_length"]
    r, n, p = CAPS["r"], CAPS["n"], CAPS["parse_degree"]
    walks = ["walks", "--d", str(wd), "--R", str(wr)]
    return [
        ("degree", ["scan", "--d", str(d)], ["scan", "--d", str(d + 1)],
         f"degree {d + 1} beyond configured maximum {d}"),
        ("degree", ["eval", "--alpha", f"1^{d}"], ["eval", "--alpha", f"1^{d - 1},2"],
         f"degree {d + 1} beyond configured maximum {d}"),
        ("degree", ["coeff", "--alpha", f"1^{d}", "--r", "38"],
         ["coeff", "--alpha", f"1^{d + 1}", "--r", "38"],
         f"degree {d + 1} beyond configured maximum {d}"),
        ("walk_degree", walks, ["walks", "--d", str(wd + 1), "--R", str(wr)],
         f"degree {wd + 1} outside supported range 2..{wd}"),
        ("walk_length", walks, ["walks", "--d", str(wd), "--R", str(wr + 1)],
         f"length {wr + 1} outside supported range 0..{wr}"),
        ("r", ["coeff", "--alpha", "2", "--r", str(r)],
         ["coeff", "--alpha", "2", "--r", str(r + 1)],
         f"r {r + 1} beyond configured maximum {r}"),
        ("n", ["family", "--n", str(n)], ["family", "--n", str(n + 1)],
         f"n {n + 1} beyond configured maximum {n}"),
        # the largest built-in pair as a custom one, then each a part longer
        ("parse_degree", ["family", "--alpha", f"1,3^{n}", "--beta", f"2^{n},{n + 1}"],
         ["family", "--alpha", f"1^2,3^{n}", "--beta", f"1,2^{n},{n + 1}"],
         f"degree {p + 1} beyond configured maximum {p}"),
    ]


# The traced peak each cap's comment in ``errors.CAPS`` allows at its bound,
# for the request that allocates most there.
PEAK_BUDGETS = {
    "degree": (["scan", "--d", str(CAPS["degree"]), "--format", "json"], 4 << 20),
    "walk_degree": (["walks", "--d", str(CAPS["walk_degree"]),
                     "--R", str(CAPS["walk_length"])], 6 << 20),
    "n": (["family", "--n", str(CAPS["n"])], 1 << 20),
    "parse_degree": (["family", "--alpha", f"1,3^{CAPS['n']}",
                      "--beta", f"2^{CAPS['n']},{CAPS['n'] + 1}"], 1 << 20),
}


class TestCaps:
    @pytest.mark.parametrize("cap, at, past, refusal", cap_cases(),
                             ids=[f"{c[0]} {c[1][0]}" for c in cap_cases()])
    def test_bound_runs_and_one_past_is_one_error_line(self, capsys, cap, at, past,
                                                        refusal):
        code, out, err = run_cli(capsys, *at)
        assert (code, err) == (0, "") and out
        assert run_cli(capsys, *past) == (1, "", f"error: {refusal}\n")

    def test_every_cap_is_tested(self):
        assert {case[0] for case in cap_cases()} == set(CAPS)
        assert set(PEAK_BUDGETS) <= set(CAPS)

    @pytest.mark.parametrize("cap", sorted(PEAK_BUDGETS))
    def test_peak_at_bound_within_the_stated_memory(self, cap):
        # a fresh process, with the modules loaded before tracing: the
        # request's own allocations, strip tables included
        argv, budget = PEAK_BUDGETS[cap]
        peak = probe("import contextlib, csv, fractions, io, json, tracemalloc\n"
                     "from wgmono import cli, genfun, scanner, walks\n"
                     "tracemalloc.start()\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     f"    code = cli.main({argv!r})\n"
                     "print(code, tracemalloc.get_traced_memory()[1])\n")
        code, peak = map(int, peak.split())
        assert code == 0
        assert peak < budget


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
UNUSED_BY_COLUMN = ("wgmono.characters", "wgmono.scanner", "wgmono.walks",
                    "wgmono.selftest", "dataclasses", "inspect", "hashlib", "json", "csv",
                    "argparse")


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

    # eval prints fractions; coeff prints an integer and loads no fractions
    @pytest.mark.parametrize("argv, unused, fractions", [
        (["eval", "--alpha", "1^6,7", "--x", "1/13", "--format", "text"],
         UNUSED_BY_COLUMN, True),
        (["coeff", "--alpha", "1^6,7", "--r", "20", "--format", "text"],
         UNUSED_BY_COLUMN + ("fractions", "decimal", "numbers"), False),
    ], ids=["eval", "coeff"])
    def test_column_verbs_leave_the_rest_unloaded(self, argv, unused, fractions):
        out = probe("import sys\n"
                    "from wgmono import cli\n"
                    f"assert cli.main({argv!r}) == 0\n"
                    f"print([m for m in {unused!r} if m in sys.modules], "
                    "'fractions' in sys.modules)\n")
        assert out.splitlines()[-1] == f"[] {fractions}"

    def test_walks_verb_leaves_the_formula_unloaded(self):
        out = probe("import sys\n"
                    "from wgmono import cli\n"
                    "assert cli.main(['walks', '--d', '3', '--R', '1']) == 0\n"
                    "print([m for m in ('wgmono.characters', 'wgmono.genfun', "
                    "'wgmono._mnkernel_py', 'fractions', 'dataclasses', 'inspect') "
                    "if m in sys.modules])\n")
        assert out.splitlines()[-1] == "[]"

    def test_family_verb_leaves_the_characters_unloaded(self):
        out = probe("import sys\n"
                    "import wgmono.genfun\n"
                    "from wgmono import cli\n"
                    "assert cli.main(['family', '--n', '5']) == 0\n"
                    "print([m for m in ('wgmono.characters', 'wgmono._mnkernel_py') "
                    "if m in sys.modules])\n")
        assert out.splitlines()[-1] == "[]"

    def test_scan_csv_leaves_the_records_machinery_unloaded(self):
        out = probe("import sys\n"
                    "from wgmono import cli\n"
                    "assert cli.main(['scan', '--d', '5', '--format', 'csv']) == 0\n"
                    "print([m for m in ('dataclasses', 'inspect', 'json', 'hashlib', "
                    "'wgmono.characters', 'wgmono.walks', 'wgmono.selftest', 'argparse') "
                    "if m in sys.modules])\n")
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

    def test_failed_identity_prints_fail_line(self, monkeypatch, capsys):
        # chi(1^4,2^2; 1^3,2,3) + 1 from the kernel, at d = 8, past the
        # tables the quick level verifies
        true_vectors = _mnkernel_py.class_vectors
        row = lex_list(8).index(Partition.parse("1^4,2^2"))

        def wrong_vectors(alphas):
            for alpha, vec in true_vectors(alphas):
                if alpha == (1, 1, 1, 2, 3):
                    vec = list(vec)
                    vec[row] += 1
                yield alpha, vec

        monkeypatch.setattr(_mnkernel_py, "class_vectors", wrong_vectors)
        assert selftest.run_selftest("standard") == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("FAIL bottom coefficient catalan d<=8: ")

    def test_one_class_columns_are_checked(self, monkeypatch, capsys):
        # a wrong column only where eval and coeff read one class alone
        true_vectors = _mnkernel_py.class_vectors

        def wrong_vectors(alphas):
            alphas = list(alphas)
            for alpha, vec in true_vectors(alphas):
                if len(alphas) == 1 and sum(alpha) == 8:
                    vec = [vec[0] + 1, *vec[1:]]
                yield alpha, vec

        monkeypatch.setattr(_mnkernel_py, "class_vectors", wrong_vectors)
        assert selftest.run_selftest("extended") == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("FAIL bottom coefficient catalan d<=8: ")

    def test_only_the_table_checks_build_tables(self, monkeypatch):
        def no_table(d):
            raise RuntimeError(f"table of degree {d} built")

        monkeypatch.setattr(selftest, "build_table", no_table)
        monkeypatch.setattr(characters, "build_table", no_table)
        table_checks = (selftest.tables_verify, selftest.series_parity)
        for *_, check in selftest.CHECKS:
            if getattr(check, "func", check) in table_checks:
                with pytest.raises(RuntimeError, match="table of degree"):
                    check()
            else:
                check()


PUBLIC_NAMES = [
    "CapExceededError", "DegreeMismatchError", "DomainError", "PartitionError",
    "PoleError", "TableVerificationError",
    "Partition", "class_size", "conjugate", "dimension", "lex_list", "lex_successor",
    "CharacterTable", "build_table", "character_column", "verify_table",
    "catalan", "complete_homogeneous", "counterexample_family", "eval_M",
    "format_rat", "leading_ratio", "m0_catalan", "normalizer", "parse_rat",
    "series_coeff", "vanishing_order",
    "WalkCounts", "class_function_check", "enumerate_counts",
    "IntervalStat", "MValue", "Run", "ScanReport", "interval_stat", "scan",
    "__version__",
]
