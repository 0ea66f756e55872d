"""The benchmark's workloads: inputs from a seed, one round, and its checks.

Each workload is a class with

* ``prepare(seed, out_dir)``: model lookup and input generation (set-up);
* ``round(inputs, ops)``: the timed operations, each counted by ``ops``;
* ``check(inputs, outputs)``: failure messages from comparing the outputs
  with computations made apart from the program, or with properties the
  method must have;
* ``digest(inputs, outputs)``: bytes that identical rounds reproduce exactly;
* ``after(inputs, outputs)``: checks that must stay out of the timed region.

Every round performs the same operations on the same inputs, so each run
attempts whole rounds and its share of failed operations is fixed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os

import numpy as np

from slowfast import averaging, ergodicity, experiments, metrics, models, stationary
from slowfast.errors import SlowfastError
from slowfast.simulate import SimConfig


class Ops:
    """Counts the operations of a run and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, name, fn, *args, **kwargs):
        """Result of fn, or None when it raises a SlowfastError."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except SlowfastError as err:
            self.failed += 1
            self.errors.append(f"{name}: {type(err).__name__}: {err}")
            return None

    def cli(self, argv):
        """Exit code of one in-process CLI call; non-zero counts as failed."""
        self.attempted += 1
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = experiments.cli_main(argv)
        if code != 0:
            self.failed += 1
            self.errors.append(f"slowfast {argv[0]}: exit {code}: {err.getvalue().strip()}")
        return code


def _hash(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.digest()


# ---------------------------------------------------------------------------
# closed forms of example21, tabulated by the benchmark itself


def e21_cdf(x, y):
    """CDF of pi^x(dy) = (x^2 e^{-xy} + (1 - x) e^{-y}) dy on [0, inf)."""
    return 1.0 - x * np.exp(-x * y) - (1.0 - x) * np.exp(-y)


def e21_pdf(x, y):
    return x * x * np.exp(-x * y) + (1.0 - x) * np.exp(-y)


def e21_averaged_errors(x, b_bar, a_bar, what):
    """b_bar = 2 - x and a_bar = 2/x + 2(1 - x) on (0, 1]; 1 and 2 at x = 0."""
    pos = x > 0.0
    safe = np.where(pos, x, 1.0)
    b_ref = np.where(pos, 2.0 - x, 1.0)
    a_ref = np.where(pos, 2.0 / safe + 2.0 * (1.0 - x), 2.0)
    bad = []
    for name, got, ref in (("b_bar", b_bar, b_ref), ("a_bar", a_bar, a_ref)):
        rel = np.abs(got - ref) / np.abs(ref)
        if not np.all(rel <= 1e-6):
            i = int(np.argmax(rel))
            bad.append(f"{what}: {name}({x[i]!r}) = {got[i]!r}, closed form {ref[i]!r}")
    return bad


def e21_tv_to_zero(x):
    """TV(pi^x, pi^0) = x TV(Exp(x), Exp(1)); the densities cross once at y*."""
    y_star = np.log(1.0 / x) / (1.0 - x)
    return 2.0 * x * (np.exp(-x * y_star) - np.exp(-y_star))


def _e21_grid(x):
    # fine near the origin, geometric out to where the slow tail e^{-xy} is gone
    far = 60.0 / max(x, 1e-3) + 60.0
    return np.unique(np.concatenate([np.linspace(0.0, 60.0, 300_001), np.geomspace(60.0, far, 200_001)]))


def e21_w1_to_steps(x, sorted_points):
    """W1 between pi^x and the uniform measure on sorted points."""
    y = _e21_grid(x)
    gap = np.abs(np.searchsorted(sorted_points, y, side="right") / sorted_points.size - e21_cdf(x, y))
    return float(np.sum(0.5 * (gap[1:] + gap[:-1]) * np.diff(y)))


def e21_tv_to_density(x, density):
    """TV between pi^x and a tabulated density, counting mass off its grid."""
    g = density.grid
    gap = np.abs(density.values - e21_pdf(x, g))
    inside = float(np.sum(0.5 * (gap[1:] + gap[:-1]) * np.diff(g)))
    return inside + float(e21_cdf(x, g[0])) + float(1.0 - e21_cdf(x, g[-1]))


# ---------------------------------------------------------------------------


class LadderOU:
    """Criterion 6: run_averaging_convergence on ou-coupled, workers=1."""

    name = "ladder-ou"
    epsilons = (0.1, 0.03, 0.01)
    n_paths = 2048
    # Mean W1 between two independent 2048-path averaged ensembles at T = 1
    # from x0 = 0.5 (300 seeds: mean 0.0338, sd 0.0137, 99th percentile
    # 0.077, largest 0.090). Every ladder value is the true gap plus noise of
    # this size; four units keep the checks from failing by chance on any
    # seed, where criterion 6's w1[-1] <= 2 floor fails on seed 0.
    noise_unit = 0.034
    margin = 4.0

    def prepare(self, seed, out_dir):
        return {
            "model": models.get_builtin("ou-coupled"),
            "config": SimConfig(epsilon=0.1, dt=0.01, horizon=1.0, n_paths=self.n_paths,
                                seed=seed, x0=0.5, y0=1.0),
        }

    def round(self, inputs, ops):
        report = ops.call("run_averaging_convergence", experiments.run_averaging_convergence,
                          inputs["model"], list(self.epsilons), inputs["config"], workers=1)
        return {"report": report}

    def check(self, inputs, outputs):
        report = outputs["report"]
        if report is None:
            return ["the ladder did not run"]
        w1, floor = report.w1_terminal, report.noise_floor
        slack = self.margin * self.noise_unit
        bad = []
        if len(w1) != len(self.epsilons) or report.n_paths != self.n_paths:
            bad.append(f"report shape: {report.as_dict()}")
        for i in range(len(w1) - 1):
            if not w1[i + 1] <= w1[i] + slack:
                bad.append(f"W1 rises down the ladder: {w1[i]} -> {w1[i + 1]}")
        if not 0.0 < floor <= slack:
            bad.append(f"noise floor {floor} outside (0, {slack}]")
        if not w1[-1] <= slack:
            bad.append(f"W1 at the finest epsilon {w1[-1]} above the noise margin {slack}")
        return bad

    def digest(self, inputs, outputs):
        report = outputs["report"]
        return _hash(None if report is None else json.dumps(report.as_dict(), sort_keys=True))

    def after(self, inputs, outputs):
        return []


class L2Paired:
    """Criterion 7 through the CLI: slowfast l2fail --epsilons 0.01 --workers 2."""

    name = "l2-paired"
    calls = 8
    horizon = 0.4
    n_paths = 2048

    def prepare(self, seed, out_dir):
        # y0 = 0 is the fast stationary mean, so the start-up transient lowers
        # the expected gap by only epsilon / (4 T) = 0.6 %. Eight seeds pool
        # 16384 paths: the pooled gap's standard error is about 1.2 % of 2T,
        # and the 5 % tolerance sits 3.8 of them below the expected gap.
        config = os.path.join(out_dir, "l2-config.json")
        with open(config, "w") as fh:
            json.dump({"n_paths": self.n_paths, "horizon": self.horizon, "dt": 0.01,
                       "x0": 0.5, "y0": 0.0}, fh)
        seeds = np.random.SeedSequence(seed).generate_state(self.calls).tolist()
        argvs = [
            ["l2fail", "--epsilons", "0.01", "--workers", "2", "--config", config,
             "--seed", str(s), "--out", os.path.join(out_dir, f"l2-{j}.json")]
            for j, s in enumerate(seeds)
        ]
        return {"argvs": argvs, "out_dir": out_dir}

    def round(self, inputs, ops):
        codes = [ops.cli(argv) for argv in inputs["argvs"]]
        return {"codes": codes}

    def _artifacts(self, inputs):
        out = []
        for argv in inputs["argvs"]:
            with open(argv[-1], "rb") as fh:
                out.append(fh.read())
        return out

    def check(self, inputs, outputs):
        if any(code != 0 for code in outputs["codes"]):
            return [f"l2fail exit codes {outputs['codes']}"]
        reports = [json.loads(a) for a in self._artifacts(inputs)]
        two_t = 2.0 * self.horizon
        bad = []
        for r in reports:
            if abs(r["predicted_limit"] - two_t) > 1e-6:
                bad.append(f"predicted_limit {r['predicted_limit']} is not 2T = {two_t}")
        gap = float(np.mean([r["mean_square_gap"][0] for r in reports]))
        if abs(gap - two_t) > 0.05 * two_t:
            bad.append(f"pooled mean-square gap {gap} not within 5% of 2T = {two_t}")
        return bad

    def digest(self, inputs, outputs):
        return _hash(outputs["codes"], *self._artifacts(inputs))

    def after(self, inputs, outputs):
        """Replay the first call from its manifest at --workers 1."""
        first = inputs["argvs"][0][-1]
        replay = os.path.join(inputs["out_dir"], "l2-replay.json")
        with contextlib.redirect_stderr(io.StringIO()):
            code = experiments.rerun_from_manifest(first + ".manifest.json", out=replay, workers=1)
        if code != 0:
            return [f"manifest replay exited {code}"]
        with open(first, "rb") as a, open(replay, "rb") as b:
            if a.read() != b.read():
                return ["manifest replay at --workers 1 differs from the artifact"]
        return []


class MeasureE21:
    """example21 through the frozen-measure layers, simulators nearly idle."""

    name = "measure-e21"
    nodes = 33
    # the distance ladder toward x = 0; fixed, because the transport solve
    # behind wbl takes from 0.5 s to 1.1 s depending on x
    ladder = (0.3, 0.1, 0.03, 0.01)
    classify_at = (0.1, 0.5, 0.9)
    pde_x, pde_y0 = 0.5, 3.0
    # criterion 5's empirical measure, seed included: at 4000 paths its W1
    # distance to pi^x averaged 0.018 over 24 seeds and reached 0.042, so a
    # seed from the run would fail the 0.03 check by chance; seed 42 gives
    # 0.015
    emp_x = 0.5
    emp_config = SimConfig(epsilon=1.0, dt=0.02, horizon=60.0, n_paths=4000, seed=42,
                           x0=0.5, y0=1.0, store="full")
    # fails today: AveragedModel checks sigma_bar^2 = a_bar with an absolute
    # 1e-12 tolerance, and a_bar reaches 8192 at x = 1/4096
    failing_argv = ["averaged", "--model", "example21", "--x-grid", f"0:1:{1 / 4096!r}"]

    def prepare(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        h = 1.0 / (self.nodes - 1)
        grid = np.linspace(0.0, 1.0, self.nodes)
        grid[1:-1] += rng.uniform(-0.35 * h, 0.35 * h, self.nodes - 2)
        return {
            "model": models.get_builtin("example21"),
            "quadrature_model": dataclasses.replace(models.get_builtin("example21"), analytic=None),
            "grid": grid,
            "failing_argv": self.failing_argv + ["--out", os.path.join(out_dir, "e21-averaged.json")],
        }

    def round(self, inputs, ops):
        m = inputs["model"]
        out = {"avg": ops.call("build_averaged_model", averaging.build_averaged_model,
                               inputs["quadrature_model"], inputs["grid"])}
        rho0 = ops.call("stationary_density", stationary.stationary_density, m, 0.0)
        out["rho0"] = rho0
        rows = []
        for x in self.ladder:
            rho = ops.call("stationary_density", stationary.stationary_density, m, x)
            rows.append((
                x,
                rho,
                ops.call("tv_distance", metrics.tv_distance, rho, rho0),
                ops.call("w1_distance", metrics.w1_distance, rho, rho0),
                ops.call("wbl_distance", metrics.wbl_distance, rho, rho0),
            ))
        out["distances"] = rows
        out["classify"] = [ops.call("classify", ergodicity.classify, m, x) for x in self.classify_at]
        curve = ops.call("tv_decay_curve", ergodicity.tv_decay_curve, m, self.pde_x, self.pde_y0,
                         np.linspace(1.0, 4.0, 7))
        out["curve"] = curve
        rate = curve.fit["rate"] if curve is not None else 1.0
        out["pde_time"] = 20.0 / rate if rate > 0 else 20.0
        out["pde"] = ops.call("forward_pde_solve", ergodicity.forward_pde_solve, m, self.pde_x,
                              self.pde_y0, out["pde_time"])
        out["emp"] = ops.call("empirical_invariant", stationary.empirical_invariant, m, self.emp_x,
                              self.emp_config)
        out["failing_code"] = ops.cli(inputs["failing_argv"])
        return out

    def check(self, inputs, outputs):
        results = [outputs[k] for k in ("avg", "rho0", "curve", "pde", "emp")]
        results += outputs["classify"] + [v for row in outputs["distances"] for v in row]
        if any(v is None for v in results):
            return ["an operation other than the known failing CLI call failed"]
        bad = []
        avg = outputs["avg"]
        if avg.method != "quadrature":
            bad.append(f"build on the analytic-free model used method {avg.method!r}")
        bad += e21_averaged_errors(avg.x_grid, avg.b_bar, avg.a_bar, "quadrature build")
        for x, rho, tv, w1, wbl in outputs["distances"]:
            if not tv <= 2.0 * x:
                bad.append(f"TV {tv} above 2x at x = {x}")
            if abs(tv - e21_tv_to_zero(x)) > 1e-6:
                bad.append(f"TV {tv} differs from the closed form {e21_tv_to_zero(x)} at x = {x}")
            if abs(w1 - (1.0 - x)) > 1e-4:
                bad.append(f"W1 {w1} differs from 1 - x at x = {x}")
            if not wbl <= w1 + 1e-9:
                bad.append(f"wbl {wbl} above W1 {w1} at x = {x}")
            # wbl is computed between the two densities' atomizations, so it
            # may exceed TV by at most each density's W1 distance to its atoms
            atoms_x = np.sort(metrics.atomize(rho)[0])
            atoms_0 = np.sort(metrics.atomize(outputs["rho0"])[0])
            budget = tv + e21_w1_to_steps(x, atoms_x) + e21_w1_to_steps(0.0, atoms_0)
            if not wbl <= budget + 1e-9:
                bad.append(f"wbl {wbl} above TV plus atomization error {budget} at x = {x}")
        for x, rep in zip(self.classify_at, outputs["classify"]):
            verdict = (rep.ergodic, rep.exp_ergodic, rep.strongly_ergodic)
            if verdict != (True, True, False):
                bad.append(f"classify at x = {x} gave {verdict}")
        if not outputs["curve"].fit["rate"] > 0.0:
            bad.append(f"decay fit {outputs['curve'].fit} has no positive rate")
        tv_pde = e21_tv_to_density(self.pde_x, outputs["pde"])
        if not tv_pde < 1e-3:
            bad.append(f"PDE solution at t = {outputs['pde_time']} is {tv_pde} from pi^x in TV")
        w1_emp = e21_w1_to_steps(self.emp_x, outputs["emp"].samples)
        if not w1_emp < 0.03:
            bad.append(f"empirical measure is {w1_emp} from pi^x in W1")
        code = outputs["failing_code"]
        if code == 0:
            bad += self._check_cli_averaged(inputs["failing_argv"][-1])
        elif code != 3:
            bad.append(f"slowfast averaged exited {code}, expected 0 or 3")
        return bad

    @staticmethod
    def _check_cli_averaged(path):
        with open(path) as fh:
            art = json.load(fh)
        return e21_averaged_errors(np.array(art["x_grid"]), np.array(art["b_bar"]),
                                   np.array(art["a_bar"]), "slowfast averaged")

    def digest(self, inputs, outputs):
        parts = [outputs["failing_code"], outputs["pde_time"]]
        avg = outputs["avg"]
        parts += [None] if avg is None else [avg.b_bar, avg.a_bar]
        for x, rho, tv, w1, wbl in outputs["distances"]:
            parts += [x, tv, w1, wbl, None if rho is None else rho.values]
        parts += [None if r is None else (r.ergodic, r.exp_ergodic, r.strongly_ergodic)
                  for r in outputs["classify"]]
        for key in ("pde", "emp"):
            v = outputs[key]
            parts.append(None if v is None else (v.values if key == "pde" else v.samples))
        return _hash(*parts)

    def after(self, inputs, outputs):
        return []


WORKLOADS = {w.name: w for w in (LadderOU, L2Paired, MeasureE21)}
