"""Benchmark of the slowfast package, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory. After one untimed warm-up round, the run repeats whole
rounds of the workload until ``--seconds`` have passed and prints, as the
last line of standard output,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (median round wall
time, set-up time, peak resident set). With ``--trace 1`` untraced and traced
rounds alternate, and the metrics are the per-layer ones from the traced
rounds (medians), plus the tracing overhead. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    """Import the package from the checkout; seconds spent importing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "slowfast", "__init__.py")):
        sys.exit(f"perfbench: no slowfast source under {src}; run from a checkout of the repository")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import workloads  # noqa: F401  (imports numpy, scipy and slowfast)

    return time.perf_counter() - start


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    args = _parse(argv)
    # the workload's own threads are the only parallelism: pin BLAS and
    # OpenMP pools to one thread before numpy is imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # numpy seed sequences take non-negative integers only
    seed = args.seed % (1 << 63)
    import_s = _import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    out_dir = os.path.join(HERE, "out", workload.name)
    os.makedirs(out_dir, exist_ok=True)

    prepare_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = workload.prepare(seed, out_dir)
        prepare_s.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(prepare_s)

    ops = workloads.Ops()
    # the first round fills caches and the heap; its outputs are the ones
    # checked, and the timed rounds must reproduce them bit for bit
    outputs = workload.round(inputs, ops)
    reference = workload.digest(inputs, outputs)
    problems = workload.check(inputs, outputs)
    outputs = None

    tracer = tracing.Tracer() if args.trace else None
    walls = {False: [], True: []}
    tables = []
    began = time.perf_counter()
    while True:
        traced = bool(tracer) and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
        outputs = None
        start = time.perf_counter()
        outputs = workload.round(inputs, ops)
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            table = tracer.take_round()
            table["_wall_s"] = wall
            tables.append(table)
        walls[traced].append(wall)
        if workload.digest(inputs, outputs) != reference:
            problems.append(f"timed round {len(walls[False]) + len(walls[True])} differs from the first round")
        if time.perf_counter() - began >= args.seconds and (not tracer or walls[True]):
            break
    peak_rss_mb = _peak_rss_mb()
    problems += workload.after(inputs, outputs)
    with open(os.path.join(HERE, "out", f"{workload.name}-run.json"), "w") as fh:
        json.dump({"seed": seed, "import_s": import_s, "prepare_s": prepare_s,
                   "untraced_walls": walls[False], "traced_walls": walls[True]}, fh, indent=1)

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(walls[False]), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(tracer, tables, walls, problems, workload.name)

    for line in problems:
        print(f"perfbench: CHECK FAILED: {line}", file=sys.stderr)
    for line in ops.errors:
        print(f"perfbench: operation failed: {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_metrics(tracer, tables, walls, problems, workload_name):
    import tracing

    med = tracing.median_table(tables)
    traced_wall = med.pop("_wall_s")
    self_sum = med.pop("_self_sum_s")
    overhead = traced_wall - statistics.median(walls[False])
    unattributed = traced_wall - self_sum
    # every call of the round goes through a traced layer, so self times
    # cover the traced wall time up to the round loop's own glue
    if abs(unattributed) > 0.01 * traced_wall:
        problems.append(f"layer self times {self_sum} s leave {unattributed} s of the traced round unattributed")
    absent = tracer.absent_metrics()
    with open(os.path.join(HERE, "out", f"{workload_name}-trace.json"), "w") as fh:
        json.dump({"rounds": tables, "untraced_walls": walls[False], "absent": absent}, fh, indent=1)
    out = {name: (med[name], unit) for name, (unit, _) in tracing.METRICS.items() if name not in absent}
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.unattributed_s"] = (unattributed, "s")
    if absent:
        print(f"perfbench: absent (their helpers are gone): {absent}", file=sys.stderr)
    return out


if __name__ == "__main__":
    sys.exit(main())
