"""Command-line front end.

Verbs: eval, coeff, scan, walks, family, selftest.  Output goes to
stdout; diagnostics to stderr.  Exit status 0 on success, 1 on domain
errors (pole, malformed partition, caps exceeded) and on a character
table that fails an exact identity, 2 on usage errors.

Partitions are written "1,1,2" or "1^2,2" on input and always rendered
in exponent form; rationals are "N/D" or "N" on input and always "N/D"
reduced on output.  Nothing is read from or written to disk: eval and
coeff compute the one character column they need, scan and selftest
build their tables.  Each verb imports the modules it runs when it
runs, so a request compiles only those.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .errors import DomainError, TableVerificationError

# The selftest levels, nested: each runs the checks of the ones before it.
# Their home is here so that building the parser does not import selftest.
LEVELS = ("quick", "standard", "extended")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgmono",
        description="Exact monotone-walk generating functions and monotonicity scans.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def formats(p):
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p = sub.add_parser("eval", help="evaluate the generating function at one point")
    p.add_argument("--alpha", required=True, help="cycle type, e.g. 1^6,7")
    p.add_argument("--x", default=None, help="rational point N/D (default 1/d)")
    p.add_argument("--normalized", action="store_true",
                   help="rescale by (d!)^2 / d^d")
    formats(p)

    p = sub.add_parser("coeff", help="series coefficient: r-step walk count")
    p.add_argument("--alpha", required=True)
    p.add_argument("--r", type=int, required=True)
    formats(p)

    p = sub.add_parser("scan", help="scan all partitions of a degree")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--low", default=None, help="interval query: open lower bound")
    p.add_argument("--high", default=None, help="interval query: closed upper bound")
    formats(p)

    p = sub.add_parser("walks", help="brute-force monotone walk counts")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    formats(p)

    p = sub.add_parser("family", help="equal-length pair with growing small-x ratio")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", default=None, help="custom pair: first partition")
    p.add_argument("--beta", default=None, help="custom pair: second partition")
    formats(p)

    p = sub.add_parser("selftest", help="run the built-in check suite")
    p.add_argument("--level", choices=LEVELS, default="quick")

    return parser


def _cmd_eval(args) -> int:
    from fractions import Fraction

    from .characters import MAX_DEGREE
    from .genfun import eval_M, format_rat, normalizer, parse_rat
    from .partitions import Partition

    alpha = Partition.parse(args.alpha, MAX_DEGREE)
    d = alpha.degree
    x = parse_rat(args.x) if args.x is not None else Fraction(1, d)
    value = eval_M(alpha, x)
    normalized = value * normalizer(d)
    shown = normalized if args.normalized else value
    # the whole text first: formatting a huge value can fail
    if args.format == "json":
        text = json.dumps({"alpha": str(alpha), "x": format_rat(x),
                           "value": format_rat(value),
                           "normalized": format_rat(normalized)}, indent=2)
    elif args.format == "csv":
        text = f'alpha,x,value\n"{alpha}",{format_rat(x)},{format_rat(shown)}'
    else:
        text = format_rat(shown)
    print(text)
    return 0


def _cmd_coeff(args) -> int:
    from .characters import MAX_DEGREE
    from .genfun import series_coeff
    from .partitions import Partition

    alpha = Partition.parse(args.alpha, MAX_DEGREE)
    count = series_coeff(alpha, args.r)
    # the whole text first: formatting a huge count can fail
    if args.format == "json":
        text = json.dumps({"alpha": str(alpha), "r": args.r, "count": str(count)},
                          indent=2)
    elif args.format == "csv":
        text = f'alpha,r,count\n"{alpha}",{args.r},{count}'
    else:
        text = str(count)
    print(text)
    return 0


def _cmd_scan(args) -> int:
    from .characters import MAX_DEGREE
    from .genfun import format_rat, parse_rat
    from .partitions import Partition
    from .scanner import interval_stat, scan

    x = parse_rat(args.x) if args.x is not None else None
    bounds = ()
    if args.low is not None or args.high is not None:
        if args.low is None or args.high is None:
            raise DomainError("--low and --high must be given together")
        # both bounds before the table: a bound's degree is capped like --d
        bounds = (Partition.parse(args.low, MAX_DEGREE),
                  Partition.parse(args.high, MAX_DEGREE))
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
        doc = [{"type": str(t), "r": r, "count": str(c)} for (t, r), c in rows]
        print(json.dumps(doc, indent=2))
    else:
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

    if args.n is not None:
        alpha, beta, ratio = counterexample_family(args.n)
    elif args.alpha is not None and args.beta is not None:
        # parse's default bound is the degree of the largest built-in pair
        alpha = Partition.parse(args.alpha)
        beta = Partition.parse(args.beta)
        ratio = leading_ratio(alpha, beta)
    else:
        raise DomainError("family needs --n, or both --alpha and --beta")
    # the whole text first: formatting a huge ratio can fail
    if args.format == "json":
        text = json.dumps({"alpha": str(alpha), "beta": str(beta),
                           "ratio": format_rat(ratio)}, indent=2)
    elif args.format == "csv":
        text = f'alpha,beta,ratio\n"{alpha}","{beta}",{format_rat(ratio)}'
    else:
        text = f"alpha {alpha}\nbeta {beta}\nratio {format_rat(ratio)}"
    print(text)
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
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (TableVerificationError, ZeroDivisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
