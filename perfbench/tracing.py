"""Per-layer spans recorded from outside the program.

The tracer replaces module-level functions of ``slowfast`` by thin wrappers,
each installed under the name through which the *calling* module looks the
function up (``slowfast.experiments.simulate_coupled`` wraps the simulator as
the runners see it, ``slowfast.simulate._draw_rows`` the noise helper as the
simulators see it). A wrapper records one span: layer name, start, end, the
span that was open when it was entered, and an optional amount of work read
from the call arguments. Spans stay in memory; a round's spans are reduced to
one table of layer metrics when the round ends.

Self time is a span's attributed time minus the part of it covered by its
child spans. Spans entered on a pool thread take the innermost open span of
the main thread as parent, and where such siblings overlap, each instant is
shared equally among the ones running, so the self times of all layers add up
to the wall time the spans cover.

Targets whose attribute no longer exists are skipped; the metrics that rest
only on them are then left out of the report (see ``absent_metrics``).
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import threading
import time

_MB = float(1 << 20)


def _draws(seed, p0, p1, tag, variant, n_draws):
    return (p1 - p0) * n_draws


# Euler steps times paths of one run, by the fast-grid rule documented in
# slowfast.simulate: h = dt / ceil(dt / (epsilon * fast_substep)) for coupled
# runs, dt / ceil(dt / fast_substep) for frozen ones, dt for averaged ones.
def _steps_coupled(model, config, workers=1):
    n_sub = math.ceil(config.dt / (config.epsilon * config.fast_substep) - 1e-12)
    return config.n_paths * config.n_slow_steps() * max(1, n_sub)


def _steps_frozen(model, x, config, *args, **kwargs):
    n_sub = math.ceil(config.dt / config.fast_substep - 1e-12)
    return config.n_paths * config.n_slow_steps() * max(1, n_sub)


def _steps_averaged(avg, config, *args, **kwargs):
    return config.n_paths * config.n_slow_steps()


def _quadrature_nodes(model, x_grid, workers=1):
    """Nodes the build averages by quadrature, i.e. without closed forms."""
    analytic = model.analytic
    closed = all(getattr(analytic, name, None) is not None
                 for name in ("averaged_drift", "averaged_diffusion"))
    return 0 if closed else len(x_grid)


def _atoms(measure, n_atoms):
    # densities are atomized into n_atoms bins, sample measures keep their
    # distinct values
    samples = getattr(measure, "samples", None)
    if samples is None:
        return n_atoms
    return len(set(samples.tolist()))


def _lp_vars(p, q, n_atoms=256):
    return _atoms(p, n_atoms) * _atoms(q, n_atoms)


# (module, attribute, layer, amount of work from the call arguments)
TARGETS = (
    ("simulate", "_draw_rows", "simulate.noise", _draws),
    ("simulate", "_check_finite", "simulate.finite", None),
    ("experiments", "simulate_coupled", "simulate.step", _steps_coupled),
    ("experiments", "simulate_averaged", "simulate.step", _steps_averaged),
    ("stationary", "simulate_frozen", "simulate.step", _steps_frozen),
    ("stationary", "frozen_pair_gap", "simulate.step", _steps_frozen),
    ("ergodicity", "frozen_pair_gap", "simulate.step", _steps_frozen),
    ("stationary", "default_grid", "stationary.grid", None),
    ("ergodicity", "default_grid", "stationary.grid", None),
    ("stationary", "stationary_density", "stationary.density", None),
    ("averaging", "stationary_density", "stationary.density", None),
    ("ergodicity", "stationary_density", "stationary.density", None),
    ("experiments", "stationary_density", "stationary.density", None),
    ("stationary", "empirical_invariant", "stationary.empirical", None),
    ("averaging", "build_averaged_model", "averaging.build", _quadrature_nodes),
    ("experiments", "build_averaged_model", "averaging.build", _quadrature_nodes),
    ("metrics", "tv_distance", "metrics.tv", None),
    ("ergodicity", "tv_distance", "metrics.tv", None),
    ("metrics", "w1_distance", "metrics.w1", None),
    ("experiments", "w1_empirical", "metrics.w1", None),
    ("metrics", "wbl_distance", "metrics.wbl", _lp_vars),
    ("ergodicity", "classify", "ergodicity.classify", None),
    ("ergodicity", "tv_decay_curve", "ergodicity.pde", None),
    ("ergodicity", "forward_pde_solve", "ergodicity.pde", None),
    ("experiments", "check_assumptions", "models.assumptions", None),
    ("experiments", "sample_tuple_grid", "models.assumptions", None),
    ("experiments", "run_averaging_convergence", "experiments", None),
    ("experiments", "run_l2_failure", "experiments", None),
    ("experiments", "cli_main", "experiments", None),
)

# metric -> (unit, layers it is computed from); a metric is absent, not zero,
# once one of its layers has lost every target
METRICS = {
    "simulate.noise_s": ("s", ("simulate.noise",)),
    "simulate.normals": ("count", ("simulate.noise",)),
    "simulate.noise_peak_mb": ("MB", ("simulate.noise",)),
    "simulate.step_s": ("s", ("simulate.step",)),
    "simulate.path_steps": ("count", ("simulate.step",)),
    "simulate.path_steps_per_s": ("1/s", ("simulate.step",)),
    "simulate.finite_check_s": ("s", ("simulate.finite",)),
    "simulate.finite_checks": ("count", ("simulate.finite",)),
    "simulate.cpu_per_wall": ("ratio", ("simulate.step",)),
    "stationary.grid_s": ("s", ("stationary.grid",)),
    "stationary.density_s": ("s", ("stationary.density",)),
    "stationary.density_calls": ("count", ("stationary.density",)),
    "stationary.empirical_s": ("s", ("stationary.empirical",)),
    "averaging.nodes": ("count", ("averaging.build",)),
    "averaging.build_s": ("s", ("averaging.build",)),
    "averaging.nodes_per_s": ("1/s", ("averaging.build",)),
    "averaging.densities_per_node": ("ratio", ("averaging.build", "stationary.density")),
    "metrics.tv_s": ("s", ("metrics.tv",)),
    "metrics.w1_s": ("s", ("metrics.w1",)),
    "metrics.wbl_s": ("s", ("metrics.wbl",)),
    "metrics.wbl_calls": ("count", ("metrics.wbl",)),
    "metrics.wbl_lp_vars": ("count", ("metrics.wbl",)),
    "ergodicity.classify_s": ("s", ("ergodicity.classify",)),
    "ergodicity.pde_s": ("s", ("ergodicity.pde",)),
    "models.assumptions_s": ("s", ("models.assumptions",)),
    "experiments.self_s": ("s", ("experiments",)),
}


class Tracer:
    """Installs the wrappers, collects spans, and reduces them per round."""

    def __init__(self):
        self._saved = []
        self._local = threading.local()
        self._main_stack = None
        self.spans = []
        self.missing = []

    # -- installation --------------------------------------------------------

    def install(self):
        self.missing = []
        for module_name, attr, layer, amount in TARGETS:
            module = importlib.import_module(f"slowfast.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer, amount))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def absent_metrics(self):
        present = {layer for m, a, layer, _ in TARGETS if f"{m}.{a}" not in self.missing}
        return sorted(
            name for name, (_, layers) in METRICS.items() if not set(layers) <= present
        )

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _wrap(self, fn, layer, amount):
        timed_cpu = layer == "simulate.step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            work = amount(*args, **kwargs) if amount is not None else 0
            # [layer, start, end, parent, work, cpu seconds]
            span = [layer, 0.0, 0.0, parent, work, 0.0]
            self.spans.append(span)
            stack.append(span)
            cpu0 = time.process_time() if timed_cpu else 0.0
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if timed_cpu:
                    span[5] = time.process_time() - cpu0
                stack.pop()

        return wrapper

    # -- reduction -----------------------------------------------------------

    def take_round(self):
        """Reduce and forget the spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return reduce_spans(spans)


def _share(intervals):
    """Split the union of (start, end) intervals equally among overlaps.

    Returns the time attributed to each interval and the covered length.
    """
    events = []
    for i, (t0, t1) in enumerate(intervals):
        events.append((t0, 1, i))
        events.append((t1, 0, i))
    events.sort()
    shares = [0.0] * len(intervals)
    active = []
    covered = 0.0
    last = None
    for t, starts, i in events:
        if active:
            dt = t - last
            covered += dt
            part = dt / len(active)
            for j in active:
                shares[j] += part
        last = t
        if starts:
            active.append(i)
        else:
            active.remove(i)
    return shares, covered


def _has_ancestor(span, layer):
    parent = span[3]
    while parent is not None:
        if parent[0] == layer:
            return True
        parent = parent[3]
    return False


def reduce_spans(spans):
    """Layer metrics of one round: self times, counts, and rates."""
    children = {}
    roots = []
    for span in spans:
        if span[3] is None:
            roots.append(span)
        else:
            children.setdefault(id(span[3]), []).append(span)

    attributed = {id(s): s[2] - s[1] for s in roots}
    self_time = {}
    # parents are recorded before their children, so one pass in order works
    for span in spans:
        kids = children.get(id(span), ())
        covered = 0.0
        if kids:
            shares, covered = _share([(k[1], k[2]) for k in kids])
            for kid, share in zip(kids, shares):
                attributed[id(kid)] = share
        own = attributed[id(span)] - covered
        self_time[span[0]] = self_time.get(span[0], 0.0) + own

    def spans_of(layer):
        return [s for s in spans if s[0] == layer]

    noise = spans_of("simulate.noise")
    step = spans_of("simulate.step")
    build = spans_of("averaging.build")
    density = spans_of("stationary.density")
    wbl = spans_of("metrics.wbl")
    outer_step = [s for s in step if not _has_ancestor(s, "simulate.step")]
    outer_build = [s for s in build if s[4] and not _has_ancestor(s, "averaging.build")]
    step_s = self_time.get("simulate.step", 0.0)
    nodes = sum(s[4] for s in outer_build)
    build_wall = sum(s[2] - s[1] for s in outer_build)
    sim_wall = sum(s[2] - s[1] for s in outer_step)
    densities_in_build = sum(1 for s in density if _has_ancestor(s, "averaging.build"))

    out = {
        "simulate.noise_s": self_time.get("simulate.noise", 0.0),
        "simulate.normals": sum(s[4] for s in noise),
        "simulate.noise_peak_mb": max((s[4] for s in noise), default=0) * 8 / _MB,
        "simulate.step_s": step_s,
        "simulate.path_steps": sum(s[4] for s in outer_step),
        "simulate.path_steps_per_s": (
            sum(s[4] for s in outer_step) / step_s if step_s > 0 else 0.0
        ),
        "simulate.finite_check_s": self_time.get("simulate.finite", 0.0),
        "simulate.finite_checks": len(spans_of("simulate.finite")),
        "simulate.cpu_per_wall": (
            sum(s[5] for s in outer_step) / sim_wall if sim_wall > 0 else 0.0
        ),
        "stationary.grid_s": self_time.get("stationary.grid", 0.0),
        "stationary.density_s": self_time.get("stationary.density", 0.0),
        "stationary.density_calls": len(density),
        "stationary.empirical_s": self_time.get("stationary.empirical", 0.0),
        "averaging.nodes": nodes,
        "averaging.build_s": self_time.get("averaging.build", 0.0),
        "averaging.nodes_per_s": nodes / build_wall if build_wall > 0 else 0.0,
        "averaging.densities_per_node": densities_in_build / nodes if nodes else 0.0,
        "metrics.tv_s": self_time.get("metrics.tv", 0.0),
        "metrics.w1_s": self_time.get("metrics.w1", 0.0),
        "metrics.wbl_s": self_time.get("metrics.wbl", 0.0),
        "metrics.wbl_calls": len(wbl),
        "metrics.wbl_lp_vars": sum(s[4] for s in wbl),
        "ergodicity.classify_s": self_time.get("ergodicity.classify", 0.0),
        "ergodicity.pde_s": self_time.get("ergodicity.pde", 0.0),
        "models.assumptions_s": self_time.get("models.assumptions", 0.0),
        "experiments.self_s": self_time.get("experiments", 0.0),
    }
    out["_self_sum_s"] = sum(self_time.values())
    return out


def median_table(tables):
    """Per-metric median over the rounds' tables."""
    return {key: statistics.median(t[key] for t in tables) for key in tables[0]}
