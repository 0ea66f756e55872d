"""Experiment drivers and the command line entry point.

Two headline studies plus plumbing:

* run_averaging_convergence drives the coupled system down an epsilon
  ladder against one averaged baseline per epsilon and reports the
  terminal-law W1 gaps. The comparison is deliberately marginal (time T
  only, plus an optional bounded-functional battery): it certifies less
  than path-space weak convergence, and the report says which ensembles
  produced every number.
* run_l2_failure integrates the coupled and averaged equations on the
  same Brownian path and reports the pathwise mean-square gap next to
  the quadrature prediction it converges to. The two numbers moving in
  opposite directions (weak distance down, pathwise gap to a positive
  constant) is the point of the experiment.

Every public runner embeds its full parameter set in the report, and the
CLI writes a run manifest next to each artifact so any result can be
reproduced bit for bit (random streams are keyed per path). The runners
and the CLI take ``workers`` as in ``simulate_coupled``.

Each subcommand handler only computes: it returns the report payload,
either None (the csv form is the payload's dotted key,value flattening) or
a callable producing its own csv table, and the SimConfig it resolved
(converge and l2fail) or None. cli_main alone renders and records: it
refuses an unwritable --out before any computation, and its manifest
holds the parsed arguments but command, seed, out and config, the argv,
the resolved ``sim_config``, and the seed the run used. A failed write is
a ConfigError that names the path. No other module of the package
renders text output or touches a file. One converter, ``models._plain``, turns payloads into plain data: every
report's ``as_dict`` is ``_plain`` of its dataclass fields, and both
renderings run it over the payload they are handed.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .averaging import _expectation, _squared_dispersion_mean, build_averaged_model, discontinuity_probe, holder_fit
from .ergodicity import classify, tv_decay_curve, w1_decay_coupling
from .errors import ConfigError, SlowfastError
from .metrics import _DISTANCES, measure_distance, w1_empirical
from .models import (
    FAIL,
    CoefficientSet,
    ModelSpec,
    _plain,
    _Report,
    check_assumptions,
    get_builtin,
    list_builtin_models,
    sample_tuple_grid,
)
from .simulate import _STIFFNESS_GUARD, SimConfig, _check_workers, simulate_averaged, simulate_coupled, simulate_paired
from .stationary import EmpiricalMeasure, stationary_density

ARTIFACT_VERSION = "1"
# conditions a model must not fail outright before the averaging study;
# caveats (suprema growing toward an unbounded edge) are tolerated
_REQUIRED_CHECKS = ("slow-elliptic", "fast-nondegenerate", "fast-coupled-lipschitz")

_FUNCTIONALS = {
    "sin": np.sin,
    "cos": np.cos,
    "clip-linear": lambda v: np.clip(v, -2.0, 2.0),
    "clip-square": lambda v: np.clip(v * v, 0.0, 4.0),
}


def _w1_samples(a, b) -> float:
    return float(w1_empirical(EmpiricalMeasure.from_samples(a), EmpiricalMeasure.from_samples(b)))


def _config_for_epsilon(config, eps):
    """Per-epsilon copy of the config with dt capped by the stiffness guard."""
    target = min(config.dt, _STIFFNESS_GUARD * eps)
    n = int(np.ceil(config.horizon / target - 1e-12))
    return replace(config, epsilon=eps, dt=config.horizon / n)


def _validate_epsilons(epsilons, surrogate=True):
    """The ladder as floats; ``surrogate=False`` refuses the inf surrogate too."""
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ConfigError("need at least one epsilon")
    finite = [e for e in eps if np.isfinite(e)]
    if any(e <= 0.0 for e in eps) or any(not np.isfinite(e) and e != np.inf for e in eps):
        raise ConfigError("epsilons must be positive (inf allowed as a surrogate)")
    if any(np.isfinite(e) for e, later in zip(eps, eps[1:]) if later == np.inf):
        raise ConfigError("the inf surrogate must precede the finite ladder")
    if any(b >= a for a, b in zip(finite, finite[1:])):
        raise ConfigError("finite epsilons must be strictly decreasing")
    if not surrogate and np.inf in eps:
        raise ConfigError("the mean-square study needs finite epsilons")
    return eps


def _frozen_coupling_surrogate(model):
    """The coupled system with the fast equation switched off (Y stays at y0)."""
    zero = lambda x, y: 0.0
    return replace(
        model,
        name=model.name + "-frozen-fast",
        coefficients=CoefficientSet(
            b=model.coefficients.b, sigma=model.coefficients.sigma, f=zero, g=zero
        ),
        analytic=None,
    )


@dataclass(frozen=True)
class ConvergenceReport(_Report):
    """Terminal-law W1 between coupled and averaged runs per epsilon."""

    model: str
    horizon: float
    epsilons: tuple
    w1_terminal: tuple
    n_paths: int
    noise_floor: float
    functional_gaps: dict | None = None

    def as_dict(self) -> dict:
        out = super().as_dict()
        out["epsilons"] = ["inf" if e == np.inf else e for e in out["epsilons"]]
        if out["functional_gaps"] is None:
            del out["functional_gaps"]
        return out


def _slow_grid(model, x0):
    """The 1025-node table grid of the averaged runs: the slow domain, cut to x0 +- 10 where it is open."""
    dom = model.slow_domain
    lo = dom.lower if dom.bounded_below else x0 - 10.0
    hi = dom.upper if dom.bounded_above else x0 + 10.0
    return np.linspace(lo, hi, 1025)


def run_averaging_convergence(
    model: ModelSpec, epsilons, config: SimConfig, functionals=False, workers=1
) -> ConvergenceReport:
    """Terminal-law distance between the coupled slow state and its averaged limit.

    For each epsilon the coupled system runs at dt small enough for the
    stiffness guard, and an averaged ensemble runs at the same dt so the
    two terminal clouds share the discretization bias they can share. The
    noise floor is the W1 between two independent averaged ensembles
    (sub-seed variants 1 and 2) at the finest dt of the ladder: the
    resolution below which terminal-law distances mean nothing.

    ``epsilon = inf`` is accepted as a surrogate that freezes the fast
    state at y0, giving the O(1) un-averaged gap the ladder descends from.
    ``workers`` as in ``simulate_coupled``.
    """
    _check_workers(workers)
    eps = _validate_epsilons(epsilons)
    report = check_assumptions(model, sample_tuple_grid(model, 256, seed=config.seed))
    for name in _REQUIRED_CHECKS:
        if report[name].status == FAIL:
            raise ConfigError(
                f"model {model.name!r} fails the {name} condition at "
                f"{report[name].witness}; the averaging study does not apply"
            )
    avg = build_averaged_model(model, _slow_grid(model, config.x0))

    w1_terminal = []
    gaps = {name: [] for name in _FUNCTIONALS} if functionals else None
    finest = None
    for e in eps:
        if e == np.inf:
            cfg = replace(config, epsilon=1.0)
            coupled = simulate_coupled(_frozen_coupling_surrogate(model), cfg, workers=workers)
        else:
            cfg = _config_for_epsilon(config, e)
            finest = cfg
            coupled = simulate_coupled(model, cfg, workers=workers)
        averaged = simulate_averaged(avg, cfg, variant=0, workers=workers)
        xc, xa = coupled.terminal_slow(), averaged.terminal_slow()
        w1_terminal.append(_w1_samples(xc, xa))
        if gaps is not None:
            for name, phi in _FUNCTIONALS.items():
                gaps[name].append(float(abs(np.mean(phi(xc)) - np.mean(phi(xa)))))
    cfg = finest if finest is not None else replace(config, epsilon=1.0)
    floor_a = simulate_averaged(avg, cfg, variant=1, workers=workers)
    floor_b = simulate_averaged(avg, cfg, variant=2, workers=workers)
    noise_floor = _w1_samples(floor_a.terminal_slow(), floor_b.terminal_slow())
    return ConvergenceReport(
        model=model.name,
        horizon=config.horizon,
        epsilons=tuple(eps),
        w1_terminal=tuple(w1_terminal),
        n_paths=config.n_paths,
        noise_floor=noise_floor,
        functional_gaps=gaps,
    )


@dataclass(frozen=True)
class L2Report(_Report):
    """Pathwise mean-square gap on shared Brownian paths per epsilon."""

    epsilons: tuple
    mean_square_gap: tuple
    predicted_limit: float
    relative_error: tuple
    w1_terminal: tuple
    noise_floor: float
    horizon: float
    n_paths: int


def run_l2_failure(config: SimConfig, epsilons, workers=1) -> L2Report:
    """Mean-square gap between coupled and averaged runs on the same noise.

    Uses the built-in pure-fast-l2 model. The averaged path is stepped in
    the coupled loop on the coupled run's own slow Brownian increments
    (``simulate_paired``), so the gap is the pathwise one the ergodic limit
    predicts: T times the invariant mean of (sigma(y) - sigmabar)^2.
    Terminal W1 against an independent averaged ensemble is reported
    alongside: the laws merge while the paths refuse to. ``workers`` as
    in ``simulate_coupled``.
    """
    _check_workers(workers)
    eps = _validate_epsilons(epsilons, surrogate=False)
    model = get_builtin("pure-fast-l2")
    avg = build_averaged_model(model, _slow_grid(model, config.x0))
    rho = stationary_density(model, config.x0)
    sigma_bar = np.sqrt(_squared_dispersion_mean(model, config.x0, rho))
    predicted = config.horizon * _expectation(
        rho, lambda y: (model.coefficients.sigma(config.x0, y) - sigma_bar) ** 2, "the predicted gap"
    )

    gap, w1s = [], []
    for e in eps:
        cfg = _config_for_epsilon(config, e)
        coupled, paired = simulate_paired(model, avg, cfg, workers=workers)
        xc, xp = coupled.terminal_slow(), paired.terminal_slow()
        gap.append(float(np.mean((xc - xp) ** 2)))
        independent = simulate_averaged(avg, cfg, variant=1, workers=workers)
        w1s.append(_w1_samples(xc, independent.terminal_slow()))
    # the last rung's independent run (variant 1) is one half of the noise floor
    floor = simulate_averaged(avg, cfg, variant=2, workers=workers)
    noise_floor = _w1_samples(independent.terminal_slow(), floor.terminal_slow())
    rel = [abs(g - predicted) / predicted for g in gap] if predicted > 0 else [np.inf] * len(gap)
    return L2Report(
        epsilons=tuple(eps),
        mean_square_gap=tuple(gap),
        predicted_limit=float(predicted),
        relative_error=tuple(float(r) for r in rel),
        w1_terminal=tuple(w1s),
        noise_floor=noise_floor,
        horizon=config.horizon,
        n_paths=config.n_paths,
    )


# ---------------------------------------------------------------------------
# command line

_CONFIG_DEFAULTS = dict(dt=0.01, horizon=1.0, n_paths=10_000)
MAX_X_GRID_NODES = 2**20
_SIM_CONFIG_HELP = "JSON file with SimConfig fields (flat key-value)"
# parsed arguments the manifest holds elsewhere (seed, the resolved config) or not at all
_UNRECORDED = ("command", "seed", "out", "config")


def _dump_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _flatten(obj, prefix=""):
    """Dotted-key key,value rows for the csv rendering of a report."""
    rows = []
    if isinstance(obj, dict):
        for k in obj:
            rows.extend(_flatten(obj[k], f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], obj))
    return rows


def _csv_table(header, *columns) -> str:
    """One csv row per index of the columns, every cell a float repr."""
    rows = (",".join(f"{float(v)!r}" for v in row) for row in zip(*columns))
    return "\n".join([header, *rows]) + "\n"


def _check_writable(path):
    """Refuse a path that names a directory or sits in a missing one, before anything is computed."""
    missing = not os.path.isdir(os.path.dirname(path) or ".")
    if missing or os.path.isdir(path):
        raise ConfigError(f"cannot write {path!r}: {os.strerror(errno.ENOENT if missing else errno.EISDIR)}")


def _write(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path!r}: {err.strerror or err}") from None


def _dump_csv_report(obj) -> str:
    lines = ["key,value"]
    for key, value in _flatten(_plain(obj)):
        lines.append(f"{key},{value!r}" if isinstance(value, float) else f"{key},{value}")
    return "\n".join(lines) + "\n"


def _parse_floats(text, flag):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _parse_x_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--x-grid expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--x-grid expects numbers start:stop:step, got {text!r}") from None
    if not np.all(np.isfinite((start, stop, step))) or step <= 0.0 or stop <= start:
        raise ConfigError("--x-grid needs finite numbers with stop > start and step > 0")
    count = (stop - start) / step
    if not count <= MAX_X_GRID_NODES - 1:  # also refuses a count that overflowed to inf
        raise ConfigError(f"--x-grid asks for more than {MAX_X_GRID_NODES} nodes")
    n = int(round(count))
    if abs(start + n * step - stop) > 1e-9 * max(1.0, abs(stop)):
        raise ConfigError("--x-grid step must divide the range")
    return np.linspace(start, stop, n + 1)


def _parse_workers(text):
    try:
        return _check_workers(int(text))
    except ValueError:
        raise ConfigError(f"--workers expects a positive integer, got {text!r}") from None


def _parse_pairs(text):
    pairs = []
    for tok in filter(str.strip, text.split(";")):
        halves = tok.split(",")
        if len(halves) != 2:
            raise ConfigError(f"--pairs expects 'x1,x2;x1,x2;...', got {text!r}")
        try:
            pairs.append((float(halves[0]), float(halves[1])))
        except ValueError:
            raise ConfigError(f"--pairs expects numbers 'x1,x2;x1,x2;...', got {text!r}") from None
    if not pairs:
        raise ConfigError("--pairs is empty")
    return pairs


def _read_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:
        raise ConfigError(f"cannot read {what} {path!r}: {err}") from None


def _read_config(path, known):
    """The --config file: a flat JSON object with keys among ``known``."""
    overrides = _read_json(path, "--config")
    if not isinstance(overrides, dict):
        raise ConfigError("--config must hold a flat JSON object")
    unknown = set(overrides) - set(known)
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return overrides


def _load_sim_config(args, epsilon):
    """SimConfig from defaults, the --config file, and the --seed flag."""
    merged = dict(_CONFIG_DEFAULTS)
    if args.config is not None:
        merged.update(_read_config(args.config, {f.name for f in fields(SimConfig)}))
    eps = merged.get("epsilon", epsilon)
    merged["epsilon"] = float(eps) if type(eps) in (int, float) else eps  # SimConfig names a mistyped one
    merged["seed"] = args.seed if args.seed is not None else merged.get("seed", 0)
    return SimConfig(**merged)


def _cmd_list_models(args, model):
    rows = [
        {"name": m.name, "dim_slow": m.dim_slow, "dim_fast": m.dim_fast, "description": m.description}
        for m in map(get_builtin, list_builtin_models())
    ]

    def csv():
        lines = ["name,dim_slow,dim_fast,description"]
        for r in rows:
            desc = r["description"].replace('"', '""')
            lines.append(f"{r['name']},{r['dim_slow']},{r['dim_fast']},\"{desc}\"")
        return "\n".join(lines) + "\n"

    return rows, csv, None


def _cmd_stationary(args, model):
    rho = stationary_density(model, args.x)
    payload = {"model": args.model, "x": args.x, "grid": rho.grid, "values": rho.values}
    return payload, lambda: _csv_table("y,density", rho.grid, rho.values), None


def _cmd_classify(args, model):
    return classify(model, args.x).as_dict(), None, None


def _cmd_distance(args, model):
    report = measure_distance(args.metric, stationary_density(model, args.x1), stationary_density(model, args.x2))
    return {"model": args.model, "x1": args.x1, "x2": args.x2, **report.as_dict()}, None, None


def _cmd_averaged(args, model):
    avg = build_averaged_model(model, _parse_x_grid(args.x_grid))
    payload = {"source": avg.source, "method": avg.method, "x_grid": avg.x_grid,
               "b_bar": avg.b_bar, "a_bar": avg.a_bar, "sigma_bar": avg.sigma_bar}
    csv = lambda: _csv_table("x,b_bar,a_bar,sigma_bar", avg.x_grid, avg.b_bar, avg.a_bar, avg.sigma_bar)
    return payload, csv, None


def _cmd_holder(args, model):
    report = holder_fit(args.metric, model, _parse_pairs(args.pairs), lambda2=args.lambda2, k3=args.k3)
    return report.as_dict(), None, None


def _cmd_probe(args, model):
    record = discontinuity_probe(model, args.x0, _parse_floats(args.deltas, "--deltas"))
    return {"model": args.model, "x0": args.x0, **record}, None, None


def _cmd_converge(args, model):
    eps = _parse_floats(args.epsilons, "--epsilons")
    anchor = next((e for e in eps if np.isfinite(e)), None)
    if anchor is None:
        raise ConfigError("the epsilon ladder needs at least one finite value")
    config = _load_sim_config(args, anchor)
    report = run_averaging_convergence(model, eps, config, functionals=args.functionals,
                                       workers=args.workers)
    return report.as_dict(), None, config


def _cmd_l2fail(args, model):
    if args.model not in (None, "pure-fast-l2"):
        raise ConfigError("the mean-square study runs on the pure-fast-l2 model only")
    eps = _validate_epsilons(_parse_floats(args.epsilons, "--epsilons"), surrogate=False)
    config = _load_sim_config(args, eps[0])
    report = run_l2_failure(config, eps, workers=args.workers)
    return report.as_dict(), None, config


def _cmd_decay(args, model):
    times = np.array(_parse_floats(args.times, "--times"))
    if args.mode == "pde":
        if args.config is not None:
            raise ConfigError("--config holds n_paths for --mode coupling; --mode pde reads none")
        curve = tv_decay_curve(model, args.x, args.y0, times)
    else:
        if args.y_other is None:
            raise ConfigError("--mode coupling needs --y-other")
        n_paths = 256
        if args.config is not None:
            n_paths = _read_config(args.config, {"n_paths"}).get("n_paths", n_paths)
        curve = w1_decay_coupling(
            model, args.x, args.y0, args.y_other, times,
            n_paths=n_paths, seed=args.seed or 0, workers=args.workers,
        )
    return curve.as_dict(), lambda: _csv_table("t,value", curve.times, curve.values), None


_HANDLERS = {
    "list-models": _cmd_list_models,
    "stationary": _cmd_stationary,
    "classify": _cmd_classify,
    "distance": _cmd_distance,
    "averaged": _cmd_averaged,
    "holder": _cmd_holder,
    "probe": _cmd_probe,
    "converge": _cmd_converge,
    "l2fail": _cmd_l2fail,
    "decay": _cmd_decay,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="slowfast",
        description="Numerical laboratory for fully coupled slow-fast diffusions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, model_required=True, config_help=None):
        sp.add_argument("--model", required=model_required, default=None,
                        help="built-in model name (see list-models)")
        sp.add_argument("--seed", type=int, default=None, help="root random seed (default 0)")
        sp.add_argument("--out", default=None,
                        help="artifact path; a .manifest.json is written beside it")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--workers", default=1,
                        help="processes for converge, l2fail and decay --mode coupling (default 1); "
                             "no result depends on it")
        if config_help is not None:
            sp.add_argument("--config", default=None, help=config_help)

    sp = sub.add_parser("list-models", help="names and shapes of the built-in models")
    common(sp, model_required=False)

    sp = sub.add_parser("stationary", help="invariant density of the frozen fast process")
    common(sp)
    sp.add_argument("--x", type=float, required=True, help="frozen slow state")

    sp = sub.add_parser("classify", help="ergodicity classification at a frozen slow state")
    common(sp)
    sp.add_argument("--x", type=float, required=True)

    sp = sub.add_parser("distance", help="distance between two frozen invariant densities")
    common(sp)
    sp.add_argument("--metric", choices=tuple(_DISTANCES), required=True)
    sp.add_argument("--x1", type=float, required=True)
    sp.add_argument("--x2", type=float, required=True)

    sp = sub.add_parser("averaged", help="tabulated averaged coefficients (csv: x,b_bar,a_bar,sigma_bar)")
    common(sp)
    sp.add_argument("--x-grid", dest="x_grid", required=True,
                    help=f"start:stop:step, at most {MAX_X_GRID_NODES} nodes; a value starting with - needs the = form, --x-grid=-2:2:0.01")

    sp = sub.add_parser("holder", help="power-law fit of invariant-measure distances")
    common(sp)
    sp.add_argument("--metric", choices=tuple(_DISTANCES), required=True)
    sp.add_argument("--pairs", required=True,
                    help="'x1,x2;x1,x2;...'; a value starting with - needs the = form, --pairs='-1,0'")
    sp.add_argument("--lambda2", type=float, default=None)
    sp.add_argument("--k3", type=float, default=None)

    sp = sub.add_parser("probe", help="one-sided limit of the averaged drift")
    common(sp)
    sp.add_argument("--x0", type=float, required=True)
    sp.add_argument("--deltas", default="0.1,0.03,0.01,0.003",
                    help="decreasing probe offsets")

    sp = sub.add_parser("converge", help="terminal-law W1 down an epsilon ladder")
    common(sp, config_help=_SIM_CONFIG_HELP)
    sp.add_argument("--epsilons", default="0.1,0.03,0.01",
                    help="comma-separated, decreasing ('inf' allowed first)")
    sp.add_argument("--functionals", action="store_true",
                    help="also report bounded-functional gaps")

    sp = sub.add_parser("l2fail", help="pathwise mean-square gap on shared noise")
    common(sp, model_required=False, config_help=_SIM_CONFIG_HELP)
    sp.add_argument("--epsilons", default="0.1,0.03,0.01")

    sp = sub.add_parser("decay", help="distance-to-stationarity decay of the fast process")
    common(sp, config_help='JSON file {"n_paths": N} for --mode coupling')
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--y0", type=float, required=True)
    sp.add_argument("--times", required=True, help="comma-separated increasing times")
    sp.add_argument("--mode", choices=("pde", "coupling"), default="pde")
    sp.add_argument("--y-other", dest="y_other", type=float, default=None)

    return parser


def cli_main(argv=None) -> int:
    """Entry point. Returns 0 on success, 2 on usage error, 3 on numerical error."""
    if argv is None:
        argv = sys.argv[1:]
    argv = [str(a) for a in argv]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.workers = _parse_workers(args.workers)
        if args.out is not None:
            _check_writable(args.out)
            _check_writable(args.out + ".manifest.json")
        # l2fail validates its optional --model itself; list-models has none
        model = None if args.command in ("list-models", "l2fail") else get_builtin(args.model)
        payload, csv, config = _HANDLERS[args.command](args, model)
        if args.format == "json":
            artifact = _dump_json(payload)
        else:
            artifact = _dump_csv_report(payload) if csv is None else csv()
        if args.out is None:
            sys.stdout.write(artifact)
            return 0
        _write(args.out, artifact)
        params = {k: v for k, v in vars(args).items() if k not in _UNRECORDED}
        params["argv"] = argv
        if config is not None:
            params["sim_config"] = asdict(config)
        manifest = {
            "command": args.command,
            "seed": (args.seed or 0) if config is None else config.seed,
            "params": params,
            "artifact_version": ARTIFACT_VERSION,
        }
        _write(args.out + ".manifest.json", _dump_json(manifest))
    except SlowfastError as err:
        sys.stderr.write(_dump_json(err.diagnostic()))
        return 3
    return 0


def rerun_from_manifest(manifest_path, out=None, workers=None) -> int:
    """Re-run a CLI invocation from its manifest, optionally redirected.

    The manifest stores the exact argv; ``out`` and ``workers`` override
    the corresponding flags so a rerun can write elsewhere. No result
    depends on ``--workers``, so a manifest replays to the same artifact
    at any worker count. A manifest that is missing, is not JSON or holds
    no ``params.argv`` is a ConfigError naming its path.
    """
    manifest = _read_json(manifest_path, "manifest")
    try:
        argv = list(manifest["params"]["argv"])
    except (KeyError, TypeError):
        raise ConfigError(f"manifest {manifest_path!r} has no params.argv") from None

    def override(flag, value):
        if value is None:
            return
        if flag in argv:
            i = argv.index(flag)
            argv[i + 1] = str(value)
        else:
            argv.extend([flag, str(value)])

    override("--out", out)
    override("--workers", workers)
    return cli_main(argv)
