"""Command-line front end.

Verbs: eval, coeff, scan, walks, family, selftest.  Output goes to
stdout; diagnostics to stderr.  Exit status 0 on success, 1 on domain
errors (pole, malformed partition, caps exceeded), 2 on usage errors.

Partitions are written "1,1,2" or "1^2,2" on input and always rendered
in exponent form; rationals are "N/D" or "N" on input and always "N/D"
reduced on output.  WG_CACHE_DIR (with --cache on, the default) selects
a directory for persistent character tables.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import selftest
from .characters import DEFAULT_MAX_DEGREE, load_or_build
from .errors import DomainError
from .exact import format_rat, parse_rat, rat
from .genfun import (counterexample_family, eval_M, leading_ratio, normalizer,
                     series_coeff)
from .partitions import Partition
from .scanner import interval_stat, scan
from .walks import enumerate_counts


def _default_jobs() -> int:
    return os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgmono",
        description="Exact monotone-walk generating functions and monotonicity scans.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, cache=True):
        p.add_argument("--format", choices=("json", "csv", "text"), default="text")
        p.add_argument("--jobs", type=int, default=_default_jobs(),
                       help="worker count for table builds (scans run in one process)")
        if cache:
            p.add_argument("--cache", choices=("on", "off"), default="on",
                           help="use WG_CACHE_DIR for character tables")

    p = sub.add_parser("eval", help="evaluate the generating function at one point")
    p.add_argument("--alpha", required=True, help="cycle type, e.g. 1^6,7")
    p.add_argument("--x", default=None, help="rational point N/D (default 1/d)")
    p.add_argument("--normalized", action="store_true",
                   help="rescale by (d!)^2 / d^d")
    common(p)

    p = sub.add_parser("coeff", help="series coefficient: r-step walk count")
    p.add_argument("--alpha", required=True)
    p.add_argument("--r", type=int, required=True)
    common(p)

    p = sub.add_parser("scan", help="scan all partitions of a degree")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--low", default=None, help="interval query: open lower bound")
    p.add_argument("--high", default=None, help="interval query: closed upper bound")
    common(p)

    p = sub.add_parser("walks", help="brute-force monotone walk counts")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    common(p, cache=False)

    p = sub.add_parser("family", help="equal-length pair with growing small-x ratio")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--alpha", default=None, help="custom pair: first partition")
    p.add_argument("--beta", default=None, help="custom pair: second partition")
    common(p, cache=False)

    p = sub.add_parser("selftest", help="run the built-in check suite")
    p.add_argument("--level", choices=selftest.LEVELS, default="quick")
    common(p)

    return parser


def _table_for(d, args):
    use_cache = getattr(args, "cache", "on") == "on"
    return load_or_build(d, jobs=args.jobs, use_cache=use_cache,
                         max_degree=DEFAULT_MAX_DEGREE)


def _cmd_eval(args) -> int:
    alpha = Partition.parse(args.alpha)
    d = alpha.degree
    x = parse_rat(args.x) if args.x is not None else rat(1, d)
    table = _table_for(d, args)
    value = eval_M(alpha, x, table)
    normalized = value * normalizer(d)
    shown = normalized if args.normalized else value
    if args.format == "json":
        doc = {"alpha": str(alpha), "x": format_rat(x),
               "value": format_rat(value), "normalized": format_rat(normalized)}
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        print("alpha,x,value")
        print(f'"{alpha}",{format_rat(x)},{format_rat(shown)}')
    else:
        print(format_rat(shown))
    return 0


def _cmd_coeff(args) -> int:
    alpha = Partition.parse(args.alpha)
    table = _table_for(alpha.degree, args)
    count = series_coeff(alpha, args.r, table)
    if args.format == "json":
        print(json.dumps({"alpha": str(alpha), "r": args.r, "count": str(count)},
                         indent=2))
    elif args.format == "csv":
        print("alpha,r,count")
        print(f'"{alpha}",{args.r},{count}')
    else:
        print(count)
    return 0


def _cmd_scan(args) -> int:
    x = parse_rat(args.x) if args.x is not None else None
    table = _table_for(args.d, args)
    report = scan(args.d, x, table=table, jobs=args.jobs)
    intervals = ()
    if args.low is not None or args.high is not None:
        if args.low is None or args.high is None:
            raise DomainError("--low and --high must be given together")
        intervals = (interval_stat(report, Partition.parse(args.low),
                                   Partition.parse(args.high)),)
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
    if args.n is not None:
        alpha, beta, ratio = counterexample_family(args.n)
    elif args.alpha is not None and args.beta is not None:
        alpha = Partition.parse(args.alpha)
        beta = Partition.parse(args.beta)
        ratio = leading_ratio(alpha, beta)
    else:
        raise DomainError("family needs --n, or both --alpha and --beta")
    if args.format == "json":
        print(json.dumps({"alpha": str(alpha), "beta": str(beta),
                          "ratio": format_rat(ratio)}, indent=2))
    elif args.format == "csv":
        print("alpha,beta,ratio")
        print(f'"{alpha}","{beta}",{format_rat(ratio)}')
    else:
        print(f"alpha {alpha}")
        print(f"beta {beta}")
        print(f"ratio {format_rat(ratio)}")
    return 0


def _cmd_selftest(args) -> int:
    use_cache = getattr(args, "cache", "on") == "on"
    return selftest.run_selftest(args.level, jobs=args.jobs, use_cache=use_cache)


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
    except (DomainError, ZeroDivisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
