#!/usr/bin/env python3
"""Benchmark for wgmono: seeded workloads, end-to-end metrics, a traced run.

Run from the root of a source checkout (nothing needs building; the
package is imported from ``src``):

    python3 perfbench/run.py --workload table-build --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``table-build`` and ``cli-requests``,
each a closed loop with one caller; ``--workload all`` runs both in
turn, one process each.  ``--trace 0``
measures the workload and reports the end-to-end metrics; ``--trace 1``
runs it untraced for half the time, traced for the other half, then
replays inputs through the layers, and reports the per-layer metrics.
Spans are kept in memory and written at the end to
``.perfbench/trace-<workload>-seed<seed>.jsonl``.  ``--smoke`` keeps
every workload at d <= 10.  ``--kernel pure`` sets WG_PURE_PYTHON;
otherwise it is removed, so ``active_kernel`` picks the kernel.

Every output is checked against references built in set-up, and the
paper's anchor values are checked once per run.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3  # set-up runs at least this often; setup_s is the median
SETUP_REPEATS_CHEAP = 9  # and up to this often while the total stays under 3 s
TAIL_Q = 0.75  # latency_tail_s percentile; a run has at least ten samples beyond it

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "kernel.compute_columns.busy_s": "s",
    "kernel.compute_columns.entries": "count",
    "kernel.entries_per_s": "1/s",
    "characters.build_table.busy_s": "s",
    "characters.build_table.assembly_s": "s",
    "characters.build_table.pool_speedup": "ratio",
    "characters.verify_table.busy_s": "s",
    "characters.verify_table.checks": "count",
    "characters.cache_store.busy_s": "s",
    "characters.cache_store.bytes": "B",
    "characters.cache_load.busy_s": "s",
    "characters.cache_load.bytes": "B",
    "characters.cache_load.rejects": "count",
    "partitions.lex_list.busy_s": "s",
    "genfun.table_weights.busy_s": "s",
    "genfun.eval_M.busy_s": "s",
    "genfun.series_coeff.busy_s": "s",
    "scanner.scan.busy_s": "s",
    "scanner.scan.sums_s": "s",
    "scanner.scan.pool_speedup": "ratio",
    "scanner.render.busy_s": "s",
    "scanner.render.bytes": "B",
    "walks.enumerate_counts.busy_s": "s",
    "cli.startup_s": "s",
    "cli.request.compute_s": "s",
    "trace.overhead_ratio": "ratio",
}


def min_rounds(pool_size: int) -> int:
    """Fewest whole rounds that leave at least ten samples beyond TAIL_Q."""
    return math.ceil(10 / ((1 - TAIL_Q) * pool_size))


def measure(wl, seconds: float, phase: str, rounds: int = 1) -> dict:
    """Whole rounds over the pool until `seconds` have passed, and at least `rounds`."""
    tr = wl.ctx.tracer
    latencies, items, errors = [], [], []
    failed = 0
    start = time.perf_counter()
    r = 0
    while True:
        for k in wl.round_order(r):
            out = error = None
            t0 = time.perf_counter()
            try:
                with tr.op(f"{phase}-{r}-{k}", "bench.op", item=k):
                    out = wl.run(k)
            except Exception as exc:  # an op that fails is counted, not fatal
                error = exc
            latencies.append(time.perf_counter() - t0)
            items.append(k)
            if out is not None:
                try:
                    wl.check(k, out)
                except Exception as exc:
                    error = exc
                finally:
                    wl.cleanup(k, out)
            if error is not None:
                failed += 1
                errors.append(f"{type(error).__name__}: {error}")
        r += 1
        if r >= rounds and time.perf_counter() - start >= seconds:
            break
    return {"latencies": latencies, "items": items, "failed": failed,
            "errors": errors, "rounds": r}


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """The TAIL_Q percentile (nearest rank) of the latencies.

    A fixed percentile reads the same part of the pool's mix whatever the
    number of rounds; "the highest with ten beyond" moved from one degree
    to the next as the round count changed with machine speed.
    Returns (value, k, n): the k-th smallest of n samples, n - k beyond it.
    """
    s = sorted(latencies)
    k = max(1, math.ceil(TAIL_Q * len(s)))
    return s[k - 1], k, len(s)


def item_means(res: dict) -> list[float]:
    """Each pool item's mean latency over the rounds of a run.

    Every round runs the same pool, so these describe one round with the
    machine's speed averaged over the whole run; the plain median of all
    ops would read only the few ops near the middle of the mix, and with
    them the speed of the host at a few moments.
    """
    per_item: dict[int, list[float]] = {}
    for k, dt in zip(res["items"], res["latencies"]):
        per_item.setdefault(k, []).append(dt)
    return [statistics.mean(v) for v in per_item.values()]


def ops_per_s(res: dict) -> float:
    """Correct ops per second of a closed loop with one caller."""
    return (len(res["latencies"]) - res["failed"]) / sum(res["latencies"])


def e2e_metrics(res: dict, setup_times: list[float]) -> dict:
    lat = res["latencies"]
    # this process's peak plus the largest peak among its finished children
    # (CLI requests, pool workers); ru_maxrss is in KiB on Linux
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "ops_per_s": ops_per_s(res),
        "latency_p50_s": statistics.median(item_means(res)),
        "latency_tail_s": tail(lat)[0],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": usage / 1024.0,
    }


def layer_metrics(tr, jobs: int, overhead: float) -> dict:
    dur = tr.duration
    m = {}
    kernel = [s for s in tr.select("kernel.compute_columns") if "ref" not in s["attrs"]]
    busy = sum((dur(s) for s in kernel), 0.0)
    entries = sum(s["attrs"]["entries"] for s in kernel)
    m["kernel.compute_columns.busy_s"] = busy
    m["kernel.compute_columns.entries"] = entries
    m["kernel.entries_per_s"] = entries / busy if busy else 0.0

    kernel_by_d = {s["attrs"]["d"]: dur(s) for s in kernel}
    build_1 = {s["attrs"]["d"]: dur(s) for s in tr.select("characters.build_table", ref="jobs1")}
    build_j = {s["attrs"]["d"]: dur(s) for s in tr.select("characters.build_table")
               if "ref" not in s["attrs"]}
    paired = [d for d in build_1 if d in build_j]
    m["characters.build_table.busy_s"] = sum(build_j.values(), 0.0)
    m["characters.build_table.assembly_s"] = sum(
        (build_1[d] - kernel_by_d.get(d, 0.0) for d in build_1), 0.0)
    m["characters.build_table.pool_speedup"] = (
        sum(build_1[d] for d in paired) / sum(build_j[d] for d in paired) if paired else 0.0)

    for layer, counts in (("characters.verify_table", ("checks",)),
                          ("characters.cache_store", ("bytes",)),
                          ("characters.cache_load", ("bytes", "rejects")),
                          ("partitions.lex_list", ()),
                          ("genfun.table_weights", ()),
                          ("genfun.eval_M", ()),
                          ("genfun.series_coeff", ()),
                          ("scanner.scan", ()),
                          ("scanner.render", ("bytes",)),
                          ("walks.enumerate_counts", ())):
        m[f"{layer}.busy_s"] = tr.busy(layer)
        for c in counts:
            m[f"{layer}.{c}"] = tr.count(layer, c)

    # the probe's in-process scans per item: jobs=1 against table_weights
    # alone and against the jobs=J scan the CLI makes
    scan_1 = {s["attrs"]["item"]: dur(s) for s in tr.select("scanner.scan", ref="jobs1")}
    weights = {s["attrs"]["item"]: dur(s) for s in tr.select("genfun.table_weights")
               if s["attrs"].get("item") in scan_1}
    scan_j = {}
    for s in tr.select("scanner.scan", jobs=jobs):
        if "ref" not in s["attrs"] and s["attrs"].get("item") in scan_1:
            scan_j.setdefault(s["attrs"]["item"], dur(s))
    m["scanner.scan.sums_s"] = sum((scan_1[k] - weights.get(k, 0.0) for k in scan_1), 0.0)
    m["scanner.scan.pool_speedup"] = (
        sum(scan_1[k] for k in scan_j) / sum(scan_j.values()) if scan_j else 0.0)

    startup = [dur(s) for s in tr.select("cli.startup")]
    replay = [dur(s) for s in tr.select("cli.main")]
    m["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    m["cli.request.compute_s"] = statistics.median(replay) if replay else 0.0
    m["trace.overhead_ratio"] = overhead
    return {name: m[name] for name in LAYER_UNITS}


def degree_breakdown(tr, d: int) -> str:
    """Median time per call of each layer at degree d, for reading against baselines."""
    groups: dict[str, list[dict]] = {}
    for s in tr.spans:
        if s["attrs"].get("d") == d:
            ref = s["attrs"].get("ref")
            groups.setdefault(s["name"] + (f"[{ref}]" if ref else ""), []).append(s)
    parts = []
    for name, spans in sorted(groups.items()):
        text = f"{name} {statistics.median(tr.duration(s) for s in spans):.4f} s"
        if "bytes" in spans[0]["attrs"]:
            text += f" {spans[0]['attrs']['bytes']} B"
        parts.append(f"{text} (n={len(spans)})")
    return f"layers at d={d}: " + "; ".join(parts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="table-build, cli-requests, or all (one process each)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload at d <= 10")
    ap.add_argument("--kernel", choices=("auto", "pure"), default="auto",
                    help="pure sets WG_PURE_PYTHON; auto lets active_kernel choose")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wgmono" / "__init__.py").is_file():
        print(f"error: no wgmono sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports wgmono, so only after the path is set

    if args.workload == "all":
        rc = 0
        for name in workloads.WORKLOADS:
            print(f"== {name}", flush=True)
            rc = max(rc, subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--kernel", args.kernel] + (["--smoke"] if args.smoke else [])).returncode)
        return rc
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    os.environ.pop("WG_PURE_PYTHON", None)
    if args.kernel == "pure":
        os.environ["WG_PURE_PYTHON"] = "1"

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    os.environ["WG_CACHE_DIR"] = str(work / "cache")  # never the user's cache
    try:
        return run(args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path, out_dir: Path) -> int:
    import workloads
    from tracing import Tracer

    jobs = os.cpu_count() or 1  # the CLI's default job count
    tracer = Tracer(enabled=False)
    ctx = workloads.Context(ROOT, work, jobs, args.seed, args.smoke, tracer)
    wl = workloads.WORKLOADS[args.workload](ctx)

    dmax = max(wl.degrees)
    kernel, why = workloads.kernel_choice(dmax)
    env = {"workload": wl.name, "seed": args.seed, "smoke": args.smoke,
           "kernel": kernel, "kernel_reason": why, "nproc": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "jobs": jobs,
           "cache": wl.cache_state}
    print("env " + json.dumps(env))

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or (
            len(setup_times) < SETUP_REPEATS_CHEAP and sum(setup_times) < 3.0):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)

    try:
        gate_outputs, gate_failures = workloads.paper_anchors(wl)
    except Exception as exc:  # a crash in the program fails the gate
        gate_outputs, gate_failures = [], [f"{type(exc).__name__}: {exc}"]
    for f in gate_failures:
        print(f"gate FAILED: {f}")
    if not gate_failures:
        print(f"gate ok: {len(gate_outputs)} paper anchors")

    probe_errors = []
    if args.trace:
        plain = measure(wl, args.seconds / 2, "untraced")
        tracer.enabled = True
        traced = measure(wl, args.seconds / 2, "traced")
        first_round = traced["items"][:len(wl.pool)]
        with tracer.op("probe", "bench.probe"):
            probe_errors = wl.probe(first_round)
        results = [plain, traced]
        overhead = ops_per_s(traced) / ops_per_s(plain)
        metrics = layer_metrics(tracer, jobs, overhead)
        print(degree_breakdown(tracer, dmax))
        units = LAYER_UNITS
        trace_path = out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(trace_path, env)
        print(f"trace {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    else:
        res = measure(wl, args.seconds, "untraced", min_rounds(len(wl.pool)))
        results = [res]
        metrics = e2e_metrics(res, setup_times)
        units = E2E_UNITS

    attempted = sum(len(r["latencies"]) for r in results) + len(probe_errors)
    failed = sum(r["failed"] for r in results) + len(probe_errors)
    for msg in [e for r in results for e in r["errors"]] + probe_errors:
        print(f"op FAILED: {msg}", file=sys.stderr)

    digest = workloads.sha(*gate_outputs, *(f"{k}:{wl.validated.get(k)}"
                                            for k in range(len(wl.pool))))
    print(f"outputs_sha256 {digest} (workload {wl.name}, seed {args.seed})")
    rounds = sum(r["rounds"] for r in results)
    print(f"ops {attempted} in {rounds} rounds of {len(wl.pool)}, failed {failed}")
    print(f"failed_ratio {failed / attempted} ratio (failed/attempted)")
    notes = {}
    if not args.trace:
        _, k, n = tail(results[0]["latencies"])
        notes = {"latency_tail_s": f" (p{100 * k / n:.1f} of n={n}, {n - k} beyond)",
                 "setup_s": f" (median of {len(setup_times)} set-ups)"}
    for name, unit in units.items():
        print(f"{name} {metrics[name]} {unit}{notes.get(name, '')}")

    correct = not gate_failures and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
