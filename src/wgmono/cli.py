"""Command-line front end.

Verbs: eval, coeff, scan, walks, family, selftest.  Output goes to
stdout; diagnostics to stderr.  Exit status 0 on success, 1 on domain
errors (pole, malformed partition, caps exceeded) and on a character
table that fails an exact identity, 2 on usage errors.

Partitions are written "1,1,2" or "1^2,2" on input and always rendered
in exponent form; rationals are "N/D" or "N" on input and always "N/D"
reduced on output; every number is written in ASCII digits.  Nothing
is read from or written to disk: eval and coeff compute the one
character column they need, scan removes border strips from the
weights to get every class sum at once without a table, and selftest
builds tables only in its two table checks.
Each verb imports the modules it runs when it runs, and ``json`` and
``csv`` load only with the format that prints them, so a request
compiles only those.  The options of every verb are one table,
``VERBS``: ``plain_args`` reads a plain command line from it without
importing ``argparse``, and ``build_parser`` makes from it the
``argparse`` parser that prints help and usage errors.

``run`` is the process entry of ``python -m wgmono.cli`` and of the
installed ``wgmono`` script.  It calls ``gc.freeze()`` before ``main``:
at exit the interpreter runs full collections over every object alive,
and most were made at start-up, so freezing them moves them where no
collection looks.  On a 2-vCPU machine (Python 3.11.7) one ``eval``
request is about 31 ms of interpreter and ``site``, 10 ms of imports,
1 ms of work, then 6 ms of exit, which the freeze cuts to 2 ms; ``-X
importtime`` shows the imports but not the exit.  Most of the 31 ms is
``site``, which there imports ``certifi`` from a ``.pth`` file
(``python -S -c pass`` 7 ms, ``python -c pass`` 34 ms), and the objects
it leaves are most of what the exit walks, so with a lighter ``site``
the saving is smaller.  The freeze stays out of ``main`` and the
library: the tests and the benchmark call ``main`` in long-lived
processes, where frozen cyclic garbage would never be freed.
"""

from __future__ import annotations

import os
import sys

from .errors import CAPS, DomainError, TableVerificationError

# The selftest levels, nested: each runs the checks of the ones before it.
# Their home is here so that reading the options does not import selftest.
LEVELS = ("quick", "standard", "extended")

# Every verb: its help line and its options, each (name, kind, required,
# default, help).  A kind is str, int (the ASCII integer grammar of
# ``partitions.parse_int``), bool (a flag) or a tuple of choices.
_FORMAT = ("format", ("json", "csv", "text"), False, "text", None)
VERBS = {
    "eval": ("evaluate the generating function at one point", (
        ("alpha", str, True, None, "cycle type, e.g. 1^6,7"),
        ("x", str, False, None, "rational point N/D (default 1/d)"),
        ("normalized", bool, False, False, "rescale by (d!)^2 / d^d"),
        _FORMAT)),
    "coeff": ("series coefficient: r-step walk count", (
        ("alpha", str, True, None, None),
        ("r", int, True, None, None),
        _FORMAT)),
    "scan": ("scan all partitions of a degree", (
        ("d", int, True, None, None),
        ("x", str, False, None, None),
        ("low", str, False, None, "interval query: open lower bound"),
        ("high", str, False, None, "interval query: closed upper bound"),
        _FORMAT)),
    "walks": ("brute-force monotone walk counts", (
        ("d", int, True, None, None),
        ("R", int, True, None, None),
        _FORMAT)),
    "family": ("equal-length pair with growing small-x ratio", (
        ("n", int, False, None, None),
        ("alpha", str, False, None, "custom pair: first partition"),
        ("beta", str, False, None, "custom pair: second partition"),
        _FORMAT)),
    "selftest": ("run the built-in check suite", (
        ("level", LEVELS, False, "quick", None),)),
}


def build_parser():
    """The ``argparse`` parser of ``VERBS``: usage, help and every refusal."""
    import argparse

    from .partitions import parse_int

    def integer(text):
        # a refusal names the grammar, as "argument --r: not an integer: ..."
        try:
            return parse_int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    parser = argparse.ArgumentParser(
        prog="wgmono",
        description="Exact monotone-walk generating functions and monotonicity scans.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (summary, options) in VERBS.items():
        p = sub.add_parser(verb, help=summary)
        for name, kind, required, default, text in options:
            if kind is bool:
                p.add_argument(f"--{name}", action="store_true", help=text)
            elif isinstance(kind, tuple):
                p.add_argument(f"--{name}", choices=kind, default=default, help=text)
            else:
                p.add_argument(f"--{name}", type=integer if kind is int else None,
                               required=required, default=default, help=text)
    return parser


def plain_args(argv: list[str]):
    """The options ``build_parser()`` reads from a plain command line, or None.

    Plain is a verb, then options spelled in full, each value the next
    word and not starting with "-", every value valid and every required
    option given.  Any other line (help, an abbreviation, ``--x=...``, a
    refusal) is None, and ``main`` hands it to ``argparse``, which then
    need not be imported for a plain one.
    """
    if not argv or argv[0] not in VERBS:
        return None
    from .partitions import parse_int

    options = {f"--{option[0]}": option for option in VERBS[argv[0]][1]}
    values = {name: default for name, _, _, default, _ in options.values()}
    given = set()
    words = iter(argv[1:])
    for word in words:
        if word not in options:
            return None
        name, kind = options[word][:2]
        given.add(name)
        if kind is bool:
            values[name] = True
            continue
        value = next(words, "-")
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = parse_int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[name] = value
    if any(option[2] and option[0] not in given for option in options.values()):
        return None
    from types import SimpleNamespace

    return SimpleNamespace(verb=argv[0], **values)


def _print_record(form: str, fields: dict, text: str) -> None:
    """Print one record: JSON of ``fields``, their CSV header and row with
    partitions quoted, or ``text``.

    The caller formats every number first: formatting a huge one can
    fail, and then nothing has been printed.
    """
    from .partitions import Partition

    if form == "json":
        import json

        text = json.dumps({k: str(v) if isinstance(v, Partition) else v
                           for k, v in fields.items()}, indent=2)
    elif form == "csv":
        row = (f'"{v}"' if isinstance(v, Partition) else str(v) for v in fields.values())
        text = ",".join(fields) + "\n" + ",".join(row)
    print(text)


def _cmd_eval(args) -> int:
    from fractions import Fraction

    from .genfun import eval_M, format_rat, normalizer, parse_rat
    from .partitions import Partition

    alpha = Partition.parse(args.alpha, CAPS["degree"])
    d = alpha.degree
    x = parse_rat(args.x) if args.x is not None else Fraction(1, d)
    value = eval_M(alpha, x)
    normalized = value * normalizer(d)
    fields = {"alpha": alpha, "x": format_rat(x)}
    if args.format == "json":
        fields.update(value=format_rat(value), normalized=format_rat(normalized))
    else:
        fields["value"] = format_rat(normalized if args.normalized else value)
    _print_record(args.format, fields, fields["value"])
    return 0


def _cmd_coeff(args) -> int:
    from .genfun import series_coeff
    from .partitions import Partition

    alpha = Partition.parse(args.alpha, CAPS["degree"])
    count = str(series_coeff(alpha, args.r))
    _print_record(args.format, {"alpha": alpha, "r": args.r, "count": count}, count)
    return 0


def _cmd_scan(args) -> int:
    from .genfun import format_rat, parse_rat
    from .partitions import Partition
    from .scanner import interval_stat, scan

    x = parse_rat(args.x) if args.x is not None else None
    bounds = ()
    if args.low is not None or args.high is not None:
        if args.low is None or args.high is None:
            raise DomainError("--low and --high must be given together")
        # both bounds before any character: a bound's degree is capped like --d
        bounds = (Partition.parse(args.low, CAPS["degree"]),
                  Partition.parse(args.high, CAPS["degree"]))
        if args.format == "csv":
            raise DomainError("--low/--high need --format text or json")
    report = scan(args.d, x)
    intervals = (interval_stat(report, *bounds),) if bounds else ()
    if args.format == "json":
        print(report.to_json(intervals))
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        print(f"degree {report.degree}")
        print(f"x {format_rat(report.x)}")
        print(f"partitions {len(report.values)}")
        print(f"violations {len(report.violations)}")
        for p in report.violations:
            print(f"  {p}")
        print(f"ties {len(report.ties)}")
        for p in report.ties:
            print(f"  {p}")
        print(f"runs {len(report.runs)}")
        for r in report.runs:
            print(f"  {r.start} .. {r.end} length {r.length}")
        for stat in intervals:
            inside = ",".join(str(p) for p in stat.violations_inside) or "none"
            print(f"interval ({stat.low}, {stat.high}] cardinality "
                  f"{stat.cardinality} violations {inside}")
    return 0


def _cmd_walks(args) -> int:
    from .walks import enumerate_counts

    counts = enumerate_counts(args.d, args.R)
    rows = sorted(counts.per_type.items())
    if args.format == "json":
        import json

        doc = [{"type": str(t), "r": r, "count": str(c)} for (t, r), c in rows]
        print(json.dumps(doc, indent=2))
    else:
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["type", "r", "count"])
        for (t, r), c in rows:
            writer.writerow([str(t), r, c])
        sys.stdout.write(buf.getvalue())
    return 0


def _cmd_family(args) -> int:
    from .genfun import counterexample_family, format_rat, leading_ratio
    from .partitions import Partition

    pair = (args.alpha, args.beta)
    if args.n is not None and pair == (None, None):
        alpha, beta, ratio = counterexample_family(args.n)
    elif args.n is None and None not in pair:
        # parse's default bound is the degree of the largest built-in pair
        alpha = Partition.parse(args.alpha)
        beta = Partition.parse(args.beta)
        ratio = leading_ratio(alpha, beta)
    else:
        raise DomainError("family needs --n, or both --alpha and --beta")
    ratio = format_rat(ratio)
    _print_record(args.format, {"alpha": alpha, "beta": beta, "ratio": ratio},
                  f"alpha {alpha}\nbeta {beta}\nratio {ratio}")
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    return selftest.run_selftest(args.level)


_COMMANDS = {
    "eval": _cmd_eval,
    "coeff": _cmd_coeff,
    "scan": _cmd_scan,
    "walks": _cmd_walks,
    "family": _cmd_family,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = plain_args(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.verb](args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
    except BrokenPipeError:
        # Python's recipe: stdout goes to devnull, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: output closed before it was all written", file=sys.stderr)
        return 1
    except (TableVerificationError, ZeroDivisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def run() -> None:
    """The process entry of ``python -m wgmono.cli`` and the ``wgmono``
    script: freeze the start-up heap (see the module docstring), then exit
    with the status of ``main``."""
    import gc

    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
