"""The benchmark's layer tracer and result check against the simulators."""

import importlib.util
import json
import math
import pathlib

import pytest

from slowfast import SimConfig, experiments, get_builtin
from slowfast import simulate as sim

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(relative, name):
    spec = importlib.util.spec_from_file_location(name, ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("perfbench/tracing.py", "perfbench_tracing")
check_bench_result = _load(".github/check_bench_result.py", "check_bench_result")


def _rung(config, eps):
    """(n_paths, slow steps, fast steps per slow step) of one rung of the ladder."""
    n_slow = math.ceil(config.horizon / min(config.dt, sim._STIFFNESS_GUARD * eps) - 1e-12)
    dt = config.horizon / n_slow
    n_sub = max(1, math.ceil(dt / (eps * config.fast_substep) - 1e-12))
    return config.n_paths, n_slow, n_sub


def _convergence_normals(config, epsilons):
    # per rung: slow and fast noise of the coupled run, one averaged run;
    # then two averaged runs for the noise floor at the finest rung
    rungs = [_rung(config, e) for e in epsilons]
    n, n_slow, _ = rungs[-1]
    return sum(n * s * (2 * k + 1) for n, s, k in rungs) + 2 * n * n_slow


def _l2_normals(config, epsilons):
    # per rung: the paired run draws its slow noise once, plus one
    # independent averaged run; then one averaged run for the noise floor
    rungs = [_rung(config, e) for e in epsilons]
    n, n_slow, _ = rungs[-1]
    return sum(n * s * (2 * k + 1) for n, s, k in rungs) + n * n_slow


_CONFIG = SimConfig(epsilon=1.0, dt=0.01, horizon=0.2, n_paths=40, seed=4, x0=0.5, y0=1.0,
                    chunk_size=16)


@pytest.mark.parametrize("block_bytes", [None, 2048], ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize(
    "run, normals",
    [
        (lambda: experiments.run_averaging_convergence(get_builtin("ou-coupled"), [0.1, 0.03], _CONFIG,
                                                      workers=1),
         _convergence_normals(_CONFIG, [0.1, 0.03])),
        (lambda: experiments.run_l2_failure(_CONFIG, [0.05], workers=1), _l2_normals(_CONFIG, [0.05])),
    ],
    ids=["convergence", "l2"],
)
def test_tracer_reports_every_layer_metric_finite(monkeypatch, run, normals, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(sim, "_BLOCK_BYTES", block_bytes)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    assert tracer.absent_metrics() == []
    table = tracer.take_round()
    assert set(tracing.METRICS) <= set(table)
    assert all(math.isfinite(v) for v in table.values()), table
    assert table["simulate.normals"] == normals
    assert 0 < table["simulate.noise_peak_mb"] <= sim._BLOCK_BYTES / float(1 << 20)


_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _line(correct=True, traced=False, **values):
    names = [m["name"] for m in _BENCHMARK["per_layer" if traced else "end_to_end"]]
    metrics = {name: {"value": 1.0, "unit": "s"} for name in names}
    metrics.update({name: {"value": v, "unit": "s"} for name, v in values.items()})
    return json.dumps({"correct": correct, "attempted": 3, "failed": 0, "metrics": metrics})


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_bench_result_check_needs_every_declared_metric_finite(traced):
    check = check_bench_result.problems
    assert check(_line(traced=traced), _BENCHMARK, traced) == []
    assert check(_line(correct=False, traced=traced), _BENCHMARK, traced) == ["correct is False"]
    for bad in (float("nan"), float("inf"), -float("inf"), None, "1.0"):
        problems = check(_line(traced=traced, extra=bad), _BENCHMARK, traced)
        assert problems == [f"metric extra is not a finite number: {bad!r}"]
    declared = _BENCHMARK["per_layer" if traced else "end_to_end"][0]["name"]
    line = json.loads(_line(traced=traced))
    del line["metrics"][declared]
    assert check(json.dumps(line), _BENCHMARK, traced) == [f"metric {declared} is missing"]
    # a traced result does not stand in for an untraced one, nor the reverse
    assert check(_line(traced=not traced), _BENCHMARK, traced) != []
    assert check("perfbench: no result", _BENCHMARK, traced)[0].startswith("the last line is not JSON")
