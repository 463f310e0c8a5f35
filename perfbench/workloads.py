"""The benchmark workloads and the paper-anchor correctness gate.

Each workload owns a pool of seeded inputs.  One round runs every pool
item once, in a seeded order, so every round has the same mix of
degrees and verbs; a run measures whole rounds.  ``run`` is the timed
part of an op, ``digest`` fingerprints its output, and ``validate``
compares an output against the reference built in set-up (once per
pool item; later rounds must reproduce the validated digest).
``probe`` runs only in a traced run: it replays inputs through the
layers one public call at a time so per-layer time can be attributed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction

import oracle
from wgmono import _mnkernel_py, characters, cli, genfun, scanner, walks
from wgmono._mnkernel_py import shape_mask
from wgmono.partitions import Partition, lex_list

try:
    from wgmono import _mnkernel_c
except ImportError:
    _mnkernel_c = None


class Mismatch(Exception):
    """An output differs from its reference."""


def kernel_choice(d: int) -> tuple[str, str]:
    """Name of the kernel ``active_kernel(d)`` picks, and why."""
    kernel = characters.active_kernel(d)
    if os.environ.get("WG_PURE_PYTHON"):
        why = "WG_PURE_PYTHON is set"
    elif _mnkernel_c is None:
        why = "compiled kernel missing"
    elif kernel is _mnkernel_py:
        why = f"d={d} above compiled MAX_DEGREE {_mnkernel_c.MAX_DEGREE}"
    else:
        why = "compiled kernel present and in range"
    return kernel.KERNEL_NAME, why


def random_x(rng: random.Random, d: int) -> Fraction:
    """Seeded rational p/q with 0 < x < 1/(d-1)."""
    q = rng.randint(3 * d, 6 * d)
    return Fraction(rng.randint(1, (q - 1) // (d - 1)), q)


def sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


class Context:
    """What every workload shares: paths, job count, seed, tracer, CLI runner."""

    def __init__(self, root, work, jobs, seed, smoke, tracer):
        self.root = root
        self.work = work
        self.jobs = jobs
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.work)

    def cli(self, argv, cache_dir=None) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        if cache_dir is not None:
            env[characters.CACHE_ENV] = cache_dir
        return subprocess.run([sys.executable, "-m", "wgmono.cli", *argv],
                              cwd=self.root, env=env, capture_output=True,
                              timeout=150)


class Workload:
    name = ""
    cache_state = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.pool: list = []
        self.tables: dict = {}
        self.validated: dict[int, str] = {}

    def round_order(self, r: int) -> list[int]:
        order = list(range(len(self.pool)))
        random.Random(f"{self.ctx.seed}:{self.name}:round{r}").shuffle(order)
        return order

    def table(self, d: int):
        """Table for the gate: the set-up's own, else built into a private cache."""
        if d not in self.tables:
            self.tables[d] = characters.load_or_build(
                d, jobs=self.ctx.jobs, cache_dir=self.ctx.work / "gate")
        return self.tables[d]

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, k: int):
        raise NotImplementedError

    def digest(self, k: int, out) -> str:
        raise NotImplementedError

    def validate(self, k: int, out) -> None:
        raise NotImplementedError

    def cleanup(self, k: int, out) -> None:
        pass

    def check(self, k: int, out) -> None:
        """Validate the first output of an item; later ones must repeat its digest."""
        digest = self.digest(k, out)
        if k not in self.validated:
            self.validate(k, out)
            self.validated[k] = digest
        elif self.validated[k] != digest:
            raise Mismatch(f"item {k} output changed between rounds")

    def validated_digest(self, k: int) -> str | None:
        return self.validated.get(k)

    def probe(self, items: list[int]) -> list[str]:
        """Per-layer replays for a traced run; returns mismatch messages."""
        return []


# --------------------------------------------------------------- table-build

class TableBuild(Workload):
    """Cold-cache table builds at d = 14..20, read back and verified.

    The kernel, table assembly, the build pool, verify_table (d <= 16) and
    the cache writer do the work: the workload for a compiled kernel or a
    cheaper verification.
    """

    name = "table-build"
    cache_state = "a new empty private cache directory for every op"
    verify_max = 16

    def __init__(self, ctx):
        super().__init__(ctx)
        # A round builds every degree once plus a few again: about 8 s with
        # the pure kernel on 2 cores, so a 40 s run measures five rounds.
        self.degrees, self.extra = ((range(6, 11), (7, 9)) if ctx.smoke
                                    else (range(14, 21), (15, 17, 18, 19)))

    def setup(self):
        # References from our own partition list: twelve evenly spaced
        # columns by the Murnaghan-Nakayama rule (column 0 is the dimension
        # column) and the centralizer orders d!/|class| that every column's
        # norm must equal.  The full tables are pinned by digest as well.
        self.columns, self.centralizers = {}, {}
        for d in self.degrees:
            parts = oracle.partitions(d)
            self.columns[d] = {j: oracle.character_column(parts[j], parts)
                               for j in range(0, len(parts), max(1, len(parts) // 12))}
            self.centralizers[d] = [math.factorial(d) // oracle.class_size(p) for p in parts]
        self.pool = list(self.degrees) + list(self.extra)

    def run(self, k):
        d = self.pool[k]
        tr = self.ctx.tracer
        cache_dir = self.ctx.fresh_dir("op-")
        with tr.span("characters.load_or_build", d=d, jobs=self.ctx.jobs):
            built = characters.load_or_build(d, jobs=self.ctx.jobs, cache_dir=cache_dir)
        path = characters.default_cache_path(d, cache_dir)
        with tr.span("characters.cache_load", d=d) as a:
            loaded = characters.cache_load(d, path)
            a["bytes"] = path.stat().st_size
            a["rejects"] = int(loaded is None)
        counts = None
        if d <= self.verify_max:
            with tr.span("characters.verify_table", d=d) as a:
                counts = characters.verify_table(built)
                a["checks"] = sum(counts.values())
        return cache_dir, built, loaded, counts

    def digest(self, k, out):
        _, built, loaded, counts = out
        if loaded != built:
            raise Mismatch(f"cache_load returned a different table for d={built.degree}")
        if (counts is not None) != (built.degree <= self.verify_max):
            raise Mismatch("verify_table did not run")
        return oracle.table_digest(built.order, built.values)

    def validate(self, k, out):
        d = self.pool[k]
        built = out[1]
        for j, col in self.columns[d].items():
            if [row[j] for row in built.values] != col:
                raise Mismatch(f"column {j} of d={d} differs from the reference")
        norms = [sum(chi * chi for chi in col) for col in zip(*built.values)]
        if norms != self.centralizers[d]:
            raise Mismatch(f"column norms of d={d} differ from the centralizer orders")
        if self.digest(k, out) != oracle.TABLE_SHA256[d]:
            raise Mismatch(f"table d={d} differs from the pinned digest")

    def cleanup(self, k, out):
        shutil.rmtree(out[0], ignore_errors=True)

    def probe(self, items):
        """Per degree: lex_list, the kernel alone, and build_table at jobs=1 and J."""
        tr = self.ctx.tracer
        jobs = self.ctx.jobs
        errors = []
        for d in sorted({self.pool[k] for k in items}):
            with tr.span("partitions.lex_list", d=d):
                order = lex_list(d)
            masks = [shape_mask(tuple(p)) for p in order]
            alphas = [tuple(p) for p in order]
            active = characters.active_kernel(d)
            kernels = [active] + [m for m in (_mnkernel_py, _mnkernel_c)
                                  if m is not None and m is not active
                                  and (m.MAX_DEGREE is None or d <= m.MAX_DEGREE)]
            columns = []
            for kernel in kernels:
                attrs = {"d": d, "kernel": kernel.KERNEL_NAME,
                         "entries": len(order) ** 2}
                if kernel is not active:
                    attrs["ref"] = "other-kernel"
                with tr.span("kernel.compute_columns", **attrs):
                    columns.append(kernel.compute_columns(masks, alphas))
            if any(c != columns[0] for c in columns[1:]):
                errors.append(f"kernels disagree at d={d}")
            with tr.span("characters.build_table", d=d, jobs=1, ref="jobs1"):
                table = characters.build_table(d, jobs=1)
            with tr.span("characters.build_table", d=d, jobs=jobs):
                characters.build_table(d, jobs=jobs)
            path = characters.default_cache_path(d, self.ctx.fresh_dir("probe-"))
            with tr.span("characters.cache_store", d=d) as a:
                characters.cache_store(table, path)
                a["bytes"] = path.stat().st_size
            shutil.rmtree(path.parent, ignore_errors=True)
            if oracle.table_digest(table.order, table.values) != oracle.TABLE_SHA256[d]:
                errors.append(f"build_table(jobs=1) d={d} differs from the pinned digest")
        return errors


# --------------------------------------------------------------- cli-requests

BAD_KINDS = ("pole", "malformed", "degree21", "negative_r")
MALFORMED = ("3,2", "1,,2", "1^0,3", "2,x")


class CliRequests(Workload):
    """One ``python -m wgmono.cli`` process per request, on a warm cache.

    Each request pays interpreter start-up and import, a full checksummed
    cache_load and table_weights again, so a costlier load or start-up
    shows here even when it pays off elsewhere.  One request per round
    (1 in 28, about 4%) is a bad input that must exit 1 with one
    ``error:`` line.
    """

    name = "cli-requests"
    cache_state = "private WG_CACHE_DIR filled in set-up; every request reads it"

    def __init__(self, ctx):
        super().__init__(ctx)
        if ctx.smoke:
            self.degrees, self.scan_degrees, self.walk_degrees = (
                range(6, 11), range(6, 11), (3, 4))
        else:
            self.degrees, self.scan_degrees, self.walk_degrees = (
                range(12, 21), range(12, 19), (5, 6))

    def setup(self):
        rng = random.Random(f"{self.ctx.seed}:{self.name}")
        self.cache_dir = self.ctx.fresh_dir("cache-")
        os.environ[characters.CACHE_ENV] = self.cache_dir
        self.tables = {d: characters.load_or_build(d, jobs=self.ctx.jobs)
                       for d in self.degrees}
        for d in self.walk_degrees:
            self.tables.setdefault(d, characters.build_table(d))
        refs = {d: oracle.Reference(t) for d, t in self.tables.items()}

        def pick(d):
            name = rng.choice(refs[d].names)
            return name if rng.random() < 0.5 else ",".join(
                map(str, refs[d].order[refs[d].names.index(name)]))

        def balanced(values, n):
            """n choices spread evenly over values, in seeded order."""
            out = [values[i % len(values)] for i in range(n)]
            rng.shuffle(out)
            return out

        # Options are balanced across each verb's requests, so every seed
        # sends the same mix and only the concrete inputs change.
        n = len(self.degrees)
        reqs = []
        for d, with_x, normalized, fmt in zip(
                self.degrees, balanced((True, False), n), balanced((True, False), n),
                balanced(("text", "json"), n)):
            ref = refs[d]
            alpha = pick(d)
            argv = ["eval", "--alpha", alpha]
            x = Fraction(1, d)
            if with_x:
                x = random_x(rng, d)
                argv += ["--x", oracle.fmt(x)]
            if normalized:
                argv.append("--normalized")
            argv += ["--format", fmt]
            key = Partition.parse(alpha)
            value = ref.value(key, x)
            norm = value * ref.normalizer
            if fmt == "text":
                expect = ("text", oracle.fmt(norm if normalized else value) + "\n")
            else:
                expect = ("json", {"alpha": oracle.partition_str(key), "x": oracle.fmt(x),
                                   "value": oracle.fmt(value), "normalized": oracle.fmt(norm)})
            reqs.append((argv, expect, ("eval", d, key, x, value)))
        for d, step, fmt in zip(self.degrees, balanced(range(n), n),
                                balanced(("text", "json"), n)):
            alpha = pick(d)
            key = Partition.parse(alpha)
            r = (2 * step + 1) * d // n  # lengths spread evenly over 0..2d
            count = refs[d].coeff(key, r)
            expect = (("text", f"{count}\n") if fmt == "text" else
                      ("json", {"alpha": oracle.partition_str(key), "r": r,
                                "count": str(count)}))
            reqs.append((["coeff", "--alpha", alpha, "--r", str(r), "--format", fmt],
                         expect, ("coeff", d, key, r, count)))
        for d, fmt in zip(self.scan_degrees,
                          balanced(("csv", "json"), len(self.scan_degrees))):
            doc = refs[d].scan_doc(Fraction(1, d))
            expect = ("json", doc) if fmt == "json" else ("csv", oracle.scan_csv_rows(doc))
            reqs.append((["scan", "--d", str(d), "--format", fmt], expect, ("scan", d, fmt)))
        for d, R, fmt in zip(self.walk_degrees, balanced((5, 8), 2),
                             balanced(("text", "json"), 2)):
            rows = [(name, r, refs[d].coeff(p, r))
                    for name, p in zip(refs[d].names, refs[d].order) for r in range(R + 1)]
            expect = (("csv", [["type", "r", "count"]] +
                       [[t, str(r), str(c)] for t, r, c in rows]) if fmt == "text" else
                      ("json", [{"type": t, "r": r, "count": str(c)} for t, r, c in rows]))
            reqs.append((["walks", "--d", str(d), "--R", str(R), "--format", fmt],
                         expect, ("walks", d, R, rows)))
        kind = rng.choice(BAD_KINDS)
        d = rng.choice(self.degrees)
        if kind == "pole":
            argv = ["eval", "--alpha", pick(d), "--x", f"1/{rng.randint(2, d - 1)}"]
        elif kind == "malformed":
            argv = ["eval", "--alpha", rng.choice(MALFORMED)]
        elif kind == "degree21":
            argv = ["eval", "--alpha", rng.choice(("21", "1,20", "1^21"))]
        else:
            argv = ["coeff", "--alpha", pick(d), "--r", str(-rng.randint(1, 5))]
        reqs.append((argv, ("error", None), ("bad",)))
        self.pool = reqs

    def run(self, k):
        argv = self.pool[k][0]
        with self.ctx.tracer.span("cli.request", verb=argv[0]):
            return self.ctx.cli(argv)

    def digest(self, k, out):
        if b"Traceback" in out.stderr:
            raise Mismatch(f"traceback from {self.pool[k][0]}")
        bad = self.pool[k][1][0] == "error"
        return sha(out.returncode, out.stdout, out.stderr if bad else b"")

    def validate(self, k, out):
        argv, (kind, want), _ = self.pool[k]
        text = out.stdout.decode()
        if kind == "error":
            lines = out.stderr.decode().splitlines()
            if out.returncode != 1 or text or len(lines) != 1 \
                    or not lines[0].startswith("error: "):
                raise Mismatch(f"{argv}: want exit 1 and one error line, got "
                               f"{out.returncode} {out.stderr[-200:]!r}")
            return
        if out.returncode != 0:
            raise Mismatch(f"{argv}: exit {out.returncode} {out.stderr[-200:]!r}")
        got = (text if kind == "text" else json.loads(text) if kind == "json"
               else list(csv.reader(io.StringIO(text))))
        if got != want:
            raise Mismatch(f"{argv}: output differs from reference")

    def probe(self, items):
        """Start-up cost, in-process replays through cli.main and the layers."""
        tr = self.ctx.tracer
        errors = []
        for _ in range(5):
            with tr.span("cli.startup"):
                out = self.ctx.cli(["family", "--n", "5"])
            if out.stdout != b"alpha 1,3^5\nbeta 2^5,6\nratio 21/16\n":
                errors.append(f"family --n 5 printed {out.stdout!r}")
        for k in items:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                with tr.span("cli.main", item=k, verb=self.pool[k][0][0]):
                    rc = cli.main(self.pool[k][0])
            replay = subprocess.CompletedProcess(self.pool[k][0], rc,
                                                 stdout.getvalue().encode(),
                                                 stderr.getvalue().encode())
            if self.digest(k, replay) != self.validated_digest(k):
                errors.append(f"cli.main replay of {self.pool[k][0]} differs")
            errors.extend(self._layers(k))
        return errors

    def _layers(self, k):
        """The calls the verb makes, one span each; table_weights also on its own."""
        tr = self.ctx.tracer
        argv, _, spec = self.pool[k]
        verb = spec[0]
        if verb == "bad":
            return []
        if verb == "walks":
            _, d, R, rows = spec
            with tr.span("walks.enumerate_counts", d=d, R=R):
                counts = walks.enumerate_counts(d, R)
            got = [(str(t), r, c) for (t, r), c in sorted(counts.per_type.items())]
            return [] if got == rows else [f"walks d={d} R={R} differs"]
        d = spec[1]
        with tr.span("characters.cache_load", d=d) as a:
            path = characters.default_cache_path(d)
            table = characters.cache_load(d, path)
            a["bytes"] = path.stat().st_size
            a["rejects"] = int(table is None)
        if table is None:
            return [f"warm cache rejected d={d}"]
        if verb == "eval":
            _, _, alpha, x, value = spec
            with tr.span("genfun.table_weights", d=d, item=k):
                genfun.table_weights(table, x)
            with tr.span("genfun.eval_M", d=d):
                got = genfun.eval_M(alpha, x, table)
            return [] if got == value else [f"eval_M {argv} differs"]
        if verb == "coeff":
            _, _, alpha, r, count = spec
            with tr.span("genfun.series_coeff", d=d, r=r):
                got = genfun.series_coeff(alpha, r, table)
            return [] if got == count else [f"series_coeff {argv} differs"]
        # the CLI's scan (jobs=J), replayed at jobs=1 and against
        # table_weights alone for scanner.scan.sums_s and pool_speedup
        _, _, fmt = spec
        errors = []
        with tr.span("genfun.table_weights", d=d, item=k):
            genfun.table_weights(table, Fraction(1, d))
        for jobs, ref in ((self.ctx.jobs, {}), (1, {"ref": "jobs1"})):
            with tr.span("scanner.scan", d=d, jobs=jobs, item=k, **ref):
                report = scanner.scan(d, None, table=table, jobs=jobs)
            with tr.span("scanner.render", d=d, fmt=fmt, **ref) as a:
                text = report.to_json() + "\n" if fmt == "json" else report.to_csv()
                a["bytes"] = len(text)
            out = subprocess.CompletedProcess(argv, 0, text.encode(), b"")
            if self.digest(k, out) != self.validated_digest(k):
                errors.append(f"in-process scan {argv} at jobs={jobs} differs")
        return errors


WORKLOADS = {w.name: w for w in (TableBuild, CliRequests)}


# --------------------------------------------------------------- gate

def paper_anchors(wl: Workload) -> tuple[list[str], list[str]]:
    """The paper's headline values; returns (outputs, failures)."""
    ctx = wl.ctx
    outputs, failures = [], []

    def expect(label, got, want):
        outputs.append(f"{label}={got}")
        if got != want:
            failures.append(f"{label}: got {got!r}, want {want!r}")

    r13 = scanner.scan(13, table=wl.table(13), jobs=ctx.jobs)
    expect("first violation d=13", str(r13.violations[0]) if r13.violations else None,
           "1^6,7")
    out = ctx.cli(["eval", "--alpha", "1^6,7", "--x", "1/13", "--normalized"],
                  cache_dir=str(ctx.work / "gate"))
    expect("eval 1^6,7 x=1/13 normalized", out.stdout.decode(), "30132115571/1149266300\n")
    r20 = scanner.scan(20, table=wl.table(20), jobs=ctx.jobs)
    expect("partitions d=20", len(r20.values), 627)
    expect("violations d=20", len(r20.violations), 45)
    stat = scanner.interval_stat(r20, Partition.parse("1,2^2,4,11"), Partition.parse("2,5,13"))
    expect("interval (1,2^2,4,11 .. 2,5,13] cardinality", stat.cardinality, 151)
    out = ctx.cli(["coeff", "--alpha", "3", "--r", "2"], cache_dir=str(ctx.work / "gate"))
    expect("coeff 3 r=2", out.stdout.decode(), "2\n")
    return outputs, failures
