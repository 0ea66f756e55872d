"""Check the result line of one perfbench run against BENCHMARK.json.

    python3 perfbench/run.py --workload W --seed 0 --seconds 1 --trace T > bench.out
    python3 .github/check_bench_result.py BENCHMARK.json T < bench.out

The last line of the run's output must be a JSON object whose ``correct`` is
true, that carries every metric the benchmark declares for its mode
(``per_layer`` when traced, ``end_to_end`` otherwise), and whose metric values
are all finite numbers: ``json.dumps`` writes NaN and Infinity, which JSON
does not allow. Exits 1 and names every problem on standard error otherwise.
"""

from __future__ import annotations

import json
import math
import sys


def problems(line, benchmark, traced):
    """Reasons the result line is not an acceptable result; empty when it is."""
    try:
        result = json.loads(line)
    except ValueError as exc:
        return [f"the last line is not JSON: {exc}"]
    if not isinstance(result, dict):
        return [f"the last line is not a JSON object: {line!r}"]
    bad = []
    if result.get("correct") is not True:
        bad.append(f"correct is {result.get('correct')!r}")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return bad + ["no metrics object"]
    declared = benchmark["per_layer" if traced else "end_to_end"]
    bad += [f"metric {m['name']} is missing" for m in declared if m["name"] not in metrics]
    for name, entry in metrics.items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            bad.append(f"metric {name} is not a finite number: {value!r}")
    return bad


def main(argv=None):
    benchmark_path, trace = sys.argv[1:] if argv is None else argv
    with open(benchmark_path) as fh:
        benchmark = json.load(fh)
    lines = sys.stdin.read().splitlines()
    bad = problems(lines[-1] if lines else "", benchmark, trace == "1")
    for line in bad:
        print(f"check_bench_result: {line}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
