"""Benchmark of the ipqgr engine: one workload per run, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tokens --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55 --trace 0

With `--trace 0` the run reports the end-to-end metrics. With `--trace 1` it
runs one unit of the workload with every layer wrapped (see tracing.py)
between two untraced units, checks that all three give identical results,
and reports per-layer calls, self times and counts. Spans are written to
`.perfbench_out/`. The last line of standard output is the result object;
`--workload all` runs every workload in turn and prints one table. See
README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: BLAS threads read these once, at import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Each end-to-end metric: unit and direction. Times are CPU time of this
# process; the definitions per workload are in perfbench/README.md.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_cpu_ms_p50": ("ms", "lower"),
    "items_per_cpu_s": ("1/s", "higher"),
    "state_bytes_per_doc": ("B", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Retrieval quality of the final scored queries. It is exact for a seed but
# spreads widely across seeds, so it is reported with the per-layer figures.
QUALITY = {"mrr10": "higher", "ap": "higher", "bwt": "lower", "fwt": "higher"}


def _import_engine():
    src = ROOT / "src"
    if not (src / "ipqgr" / "__init__.py").is_file():
        sys.exit(f"error: engine sources not found at {src / 'ipqgr'}; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(workload, seed, seconds, work):
    import numpy as np
    from workloads import Ops, run

    ops = Ops()
    setup_times, units, figs = run(workload, seed, seconds, work, ops)
    # Rounds repeat identical work, so each operation counts with its median
    # time over the rounds. The host's speed drifts for tens of seconds at a
    # time, up and down; the median follows its usual speed, where the fastest
    # round would follow a rare fast spell that one run may or may not catch.
    op_s = np.concatenate([np.median([u.op_s for u in done], axis=0) for done in units])
    items_s = sum(np.median([u.items_s for u in done], axis=0).sum() for done in units)
    values = {
        "setup_s": statistics.median(setup_times),
        "op_cpu_ms_p50": 1e3 * float(np.percentile(op_s, 50)),
        "items_per_cpu_s": sum(done[0].items for done in units) / float(items_s),
        "state_bytes_per_doc": sum(f["state_bytes"] for f in figs) / sum(f["docs"] for f in figs),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"# {workload.name}: {len(figs)} corpora, {len(units[0])} rounds, "
          f"{len(op_s)} timed operations, {len(setup_times)} set-ups; "
          f"failed_ratio {ops.failed}/{ops.attempted}", flush=True)
    # The tail is reported but not bounded: no workload has ten samples
    # beyond its p99, so it reads as the slowest operation.
    print(f"# op_cpu_ms_p99        {1e3 * float(np.percentile(op_s, 99)):>14.6g} ms   "
          f"(lower is better; {len(op_s)} samples)")
    for k, v in figs[0]["quality"].items():
        print(f"# quality.{k:<12} {v:>14.6g} 1    ({QUALITY[k]} is better; first corpus)")
    return ops, values


def run_traced(workload, seed, work, out_dir):
    """One unit traced, between two untraced ones; per-layer metrics of the traced one.

    Each unit covers set-up, timed phase and checks of the first corpus only.
    The tracing overhead is the traced wall time minus the mean of the two
    untraced ones, which bracket it so that warm-up is not counted as overhead.
    """
    import tracing
    from workloads import Ops, run

    ops = Ops()
    untraced = []

    def plain_unit():
        t0 = time.perf_counter()
        _, _, (fig,) = run(workload, seed, 0, work, ops, corpora=1, setups=1)
        untraced.append(time.perf_counter() - t0)
        return fig

    plain = plain_unit()
    tracer = tracing.Tracer(run_id=f"{workload.name}-seed{seed}-{os.getpid()}")
    with tracing.installed(tracer), tracer.span("bench"):
        _, _, (traced,) = run(workload, seed, 0, work, ops, corpora=1, setups=1)
    again = plain_unit()
    traced_wall = sum(end - start for _, _, start, end, parent in tracer.spans if parent is None)
    untraced_wall = statistics.mean(untraced)
    overhead = traced_wall - untraced_wall
    noise = abs(untraced[1] - untraced[0])
    for key in ("fingerprint", "exact", "quality"):
        for other in (plain, again):
            ops.record("trace-compare", None if traced[key] == other[key]
                       else f"{key} differs between traced and untraced runs")

    values = tracing.layer_metrics(tracer)
    values.update(traced["exact"])
    values.update({f"quality.{k}": v for k, v in traced["quality"].items()})
    values.update({
        "trace.spans": len(tracer.spans),
        "trace.wall_s": traced_wall,
        # Share of the traced time outside every wrapped layer function.
        "trace.bench_share": values["bench.self_s"] / traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.untraced_spread_s": noise,
        "trace.overhead_s": overhead,
    })
    out_dir.mkdir(exist_ok=True)
    tracer.write_jsonl(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    verdict = "unresolved: within" if abs(overhead) <= noise else "beyond"
    print(f"# {workload.name}: traced {traced_wall:.3f} s, untraced {untraced[0]:.3f} and "
          f"{untraced[1]:.3f} s, overhead {overhead:+.3f} s ({verdict} the untraced spread), "
          f"{len(tracer.spans)} spans; failed_ratio {ops.failed}/{ops.attempted}", flush=True)
    return ops, values


def run_one(args) -> int:
    _import_engine()
    import tracing
    import workloads

    table = workloads.build(args.scale)
    if args.workload not in table:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(table)} or all")
    workload = table[args.workload]
    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)
    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            ops, values = run_traced(workload, args.seed, str(work), ROOT / ".perfbench_out")
            metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in values.items()}
        else:
            ops, values = run_plain(workload, args.seed, args.seconds, str(work))
            metrics = {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
            for k, m in metrics.items():
                print(f"# {k:<20} {m['value']:>14.6g} {m['unit']:<4} ({END_TO_END[k][1]} is better)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only when no other run is using it
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, in turn; prints one table."""
    _import_engine()
    import workloads

    merged, attempted, failed = {}, 0, 0
    for name in workloads.build(args.scale):
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{name}: failed_ratio {result['failed']}/{result['attempted']}")
        print("\n".join(f"  {line}" for line in lines[:-1] if line.startswith("# quality.")))
        for k, m in result["metrics"].items():
            print(f"  {k:<44} {m['value']:>14.6g} {m['unit']}")
            merged[f"{name}.{k}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink document counts (smoke tests only)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
