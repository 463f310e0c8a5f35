"""Byte identity of the command line: replay every run of ``cli_corpus.jsonl``.

Each corpus line is one run, ``{"argv", "exit", "stdout_sha256",
"stderr"}``.  The run is replayed in process through ``cli.main`` and
must give the same exit status, stdout digest and stderr.  Where stderr
is text that Python itself writes and that differs between Python
versions (argparse usage, the int-to-str digit limit), the line holds
``"stderr": null``: the run must then print nothing on stdout, and
either one ``error:`` line with exit 1 or a usage message with exit 2.

A failing line prints the line the current code produces.  A deliberate
change of output is that line pasted over the old one, with its reason
in CHANGES.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from wgmono import cli

LINES = [json.loads(text) for text in
         Path(__file__).with_name("cli_corpus.jsonl").read_text().splitlines()]


def replay(argv):
    """Exit status, stdout and stderr of one in-process ``cli.main`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def label(argv):
    return " ".join(a if len(a) <= 40 else a[:12] + "..." for a in argv)


@pytest.mark.parametrize("line", LINES, ids=[label(line["argv"]) for line in LINES])
def test_run(line):
    code, out, err = replay(line["argv"])
    fresh = {"argv": line["argv"], "exit": code,
             "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
             "stderr": None if line["stderr"] is None else err}
    assert fresh == line, "replacement line:\n" + json.dumps(fresh)
    if line["stderr"] is None:
        assert out == ""
        if code == 1:
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        else:
            assert code == 2 and err.startswith("usage: "), err


def test_every_verb_and_format_has_a_run():
    parser = cli.build_parser()
    verbs = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    defined = {(verb, fmt) for verb, sub in verbs.items()
               for fmt in next((a.choices for a in sub._actions if a.dest == "format"),
                               (None,))}
    runs = [parser.parse_args(line["argv"]) for line in LINES if line["exit"] == 0]
    assert {(args.verb, getattr(args, "format", None)) for args in runs} == defined
    assert len({tuple(line["argv"]) for line in LINES}) == len(LINES)
