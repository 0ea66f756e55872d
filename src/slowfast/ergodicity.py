"""Ergodicity classification, forward equation, and decay-rate estimates.

Classification uses the classical scale/speed criteria for 1-D diffusions
with scale density s(y) = exp(-Phi_x(y)) and speed density
m(y) = exp(Phi_x(y)) / g(x,y)^2:

* positive recurrence: the speed measure is finite and the scale-times-
  speed recurrence integral diverges toward every open end;
* exponential ergodicity: sup_z M([z, inf)) * int_0^z s stays bounded;
* strong (uniform) ergodicity: int M([y, inf)) s(y) dy converges.

Each criterion is evaluated on a doubling ladder of domains, the walk
``stationary._segments`` from the mode of m in each open direction. A
criterion is declared finite when the last doubling adds less than 1e-10,
divergent when the contributions of successive doublings stop decaying
(with a growth cap of 1e6 flagging fast blowups), and inconclusive
otherwise. These thresholds are reported, never silent.

The ladder works with potential differences across single panels rather
than with the potential itself: quantities like s(z) * M([z, inf)) are
ratios of astronomically large and small exponentials whose logs cancel
to garbage at large radii (a cumulative log-sum-exp over the raw
potential loses them below the 1e-10 increment floor), but they obey one
local recurrence in which every term stays moderate:

    v[0] = -inf,  v[i+1] = logaddexp(v[i] + a[i], b[i]),

with a[i] = +-delta[i] the potential drop across panel i and b[i] the log
of that panel's exponential-fitted mass (the same phi-function that
underlies ``_flux_operator``). s(z) M([0, z]), e^{Phi(z)} int_0^z s
and, run from the far end, s(z) M([z, end]) are its three instances.

The forward solver hands ``stationary._frozen_generator``, whose discrete
stationary state is exp(Phi)/g^2 at the nodes, to ``numerics.march``, so
the invariant density is preserved by construction, not approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConservationError, FitError
from .metrics import tv_distance
from .models import FULL_LINE, INTERVAL, ModelSpec
from .numerics import cumulative_gauss, fit_exponential_decay, log_trapezoid, logsumexp, march
from .simulate import SimConfig, frozen_pair_gap
from .stationary import (_PDE_CELLS, Density1D, _default_pde_grid, _frozen_axis, _frozen_generator, _mode,
                         _segments, stationary_density)

GROWTH_CAP = 1e6
INCREMENT_FLOOR = 1e-10
MAX_DOUBLINGS = 20
_LOG_CAP = np.log(GROWTH_CAP)
_LOG_FLOOR = np.log(INCREMENT_FLOOR)
# a non-decaying ladder is only called divergent above this increment, so
# a converging tail can never be misread as slow divergence
_LOG_SLOW = np.log(1e-8)
_LOG2 = math.log(2.0)  # numpy's NPY_LOGE2

FINITE = "finite"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"

_CRITERIA = ("speed_total", "scale_recurrence", "exponential_sup", "strong_tail")


@dataclass(frozen=True)
class ErgodicityReport:
    """Three-way verdicts for one frozen slow state.

    Verdicts are True / False / None, None meaning the numerics could not
    decide within the ladder limits. ``integrals`` records each criterion
    integral with its verdict and the probed radius.
    """

    x: float
    ergodic: bool | None
    exp_ergodic: bool | None
    strongly_ergodic: bool | None
    integrals: dict

    @staticmethod
    def _word(v):
        return INCONCLUSIVE if v is None else ("true" if v else "false")

    def as_dict(self):
        return {
            "x": self.x,
            "ergodic": self._word(self.ergodic),
            "exp_ergodic": self._word(self.exp_ergodic),
            "strongly_ergodic": self._word(self.strongly_ergodic),
            "integrals": self.integrals,
        }


@dataclass(frozen=True)
class DecayCurve:
    """Distance to stationarity over time with an exponential fit."""

    times: np.ndarray
    values: np.ndarray
    fit: dict

    def as_dict(self):
        return {
            "times": [float(t) for t in self.times],
            "values": [float(v) for v in self.values],
            "fit": self.fit,
        }


def _log_phi1(d):
    """log of (e^d - 1)/d, stable from huge-negative to huge-positive d."""
    d = np.asarray(d, dtype=float)
    out = np.empty_like(d)
    small = np.abs(d) < 1e-8
    neg = d <= -30.0
    pos = d >= 30.0
    mid = ~(small | neg | pos)
    out[small] = 0.5 * d[small]
    out[neg] = -np.log(-d[neg])
    out[pos] = d[pos] - np.log(d[pos])
    out[mid] = np.log(np.expm1(d[mid]) / d[mid])
    return out


def _judge(ladder):
    """(verdict, last log value) for one criterion's doubling ladder.

    lincs[k] is the log of what doubling k added, so diff(lincs) is the
    per-octave log-slope of the increments: a converging tail settles at
    a negative slope, logarithmic divergence at slope 0, divergence like
    z^p at slope p log 2 > 0. Divergence is declared when

    * the value passed the cap while the increments were not decaying, or
    * the slope has stabilized (four consecutive diffs inside a 0.1 band)
      at a level >= -0.05.

    The stability requirement is what keeps the rise toward a distant
    plateau from being misread: such a rise sweeps its slope from large
    positive to large negative and holds no narrow band on the way, while
    a genuinely divergent tail locks onto its limiting slope and stays.
    """
    v = np.asarray(ladder, dtype=float)
    if v.size < 2:
        return INCONCLUSIVE, float(v[-1]) if v.size else -np.inf
    prev, last = v[-2], v[-1]
    if np.isnan(last) or last == np.inf:
        return INCONCLUSIVE, float(last)
    if last <= prev:
        lincs = np.full(v.size - 1, -np.inf)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            lincs = np.where(
                v[1:] > v[:-1],
                v[1:] + np.log1p(-np.exp(np.minimum(v[:-1] - v[1:], -1e-300))),
                -np.inf,
            )
    if lincs[-1] < _LOG_FLOOR:
        return FINITE, float(last)
    diffs = np.diff(lincs)
    if last > _LOG_CAP and diffs.size >= 2 and np.all(diffs[-2:] >= -0.05):
        return DIVERGENT, float(last)
    if diffs.size >= 4 and lincs[-1] > _LOG_SLOW:
        recent = diffs[-4:]
        if np.all(np.isfinite(recent)) and np.ptp(recent) <= 0.1 and np.mean(recent) >= -0.05:
            return DIVERGENT, float(last)
    return INCONCLUSIVE, float(last)


def _log_recurrence(a, b):
    """v with v[0] = -inf and v[i+1] = logaddexp(v[i] + a[i], b[i]).

    That is log V for V[i+1] = e^{a[i]} V[i] + e^{b[i]}, the one recurrence
    of the ladder (see the module docstring).
    """
    vi = -math.inf
    v = [vi]
    # np.logaddexp's branches (numpy's npy_logaddexp) on Python floats, which
    # skips numpy's scalar dispatch: same libm exp and log1p, same bits
    for ai, bi in zip(a.tolist(), b.tolist()):
        x = vi + ai
        if x == bi:
            vi = x + _LOG2
        else:
            d = x - bi
            if d > 0.0:
                vi = x + math.log1p(math.exp(-d))
            elif d <= 0.0:
                vi = bi + math.log1p(math.exp(d))
            else:
                # NaN: the sum of two NaNs takes the sign of one of them, and
                # which one CPython's float add picks varies; numpy's is fixed
                vi = float(np.logaddexp(np.float64(vi) + ai, bi))
        v.append(vi)
    return np.array(v)


def _direction_verdicts(ratio, log_gsq, anchor, sign):
    """Doubling ladder of the criterion integrals in one escape direction.

    ``ratio`` and ``log_gsq`` are the frozen axis of :func:`_frozen_axis`.
    Returns {criterion: (verdict, log value)} and the last probed radius.
    """
    r = delta = lgsq = np.zeros(0)  # the nodes, panel potential increments and log g^2 so far
    ladders = {name: [] for name in _CRITERIA}
    verdicts, values = {}, {}
    settled_at = None  # doubling at which the speed mass was found finite
    for k, (seg, seg_delta, seg_lgsq, _) in zip(range(1, MAX_DOUBLINGS + 1), _segments(ratio, log_gsq, anchor, sign)):
        # each segment starts on the last node of the one before
        r = np.concatenate([r[:-1], seg])
        delta = np.concatenate([delta, seg_delta])
        lgsq = np.concatenate([lgsq[:-1], seg_lgsq])

        logh = np.log(np.diff(r))
        gsq_edge = 0.5 * (lgsq[:-1] + lgsq[1:])
        log_phi_up = _log_phi1(delta)
        phi = np.concatenate([[0.0], np.cumsum(delta)])
        # total speed mass: sum of exponential-fitted panel masses
        ladders["speed_total"].append(logsumexp(phi[:-1] + logh + log_phi_up - gsq_edge))
        mcum = _log_recurrence(-delta, logh + _log_phi1(-delta) - gsq_edge)  # s(z) M([0, z])
        scum = _log_recurrence(delta, logh + log_phi_up)  # e^{phi(z)} int_0^z s
        # s(z) M([z, end]), the same recurrence run from the far end
        mtail = _log_recurrence(delta[::-1], (logh + log_phi_up - gsq_edge)[::-1])[::-1]
        ladders["scale_recurrence"].append(log_trapezoid(mcum, r))
        ladders["exponential_sup"].append(float(np.max(mtail + scum)))
        ladders["strong_tail"].append(log_trapezoid(mtail, r))

        # tail-dependent criteria wait two extra doublings after the speed
        # mass settles, so M([z, end]) is a trusted stand-in for M([z, inf))
        tails_ready = settled_at is not None and k >= settled_at + 2
        for name in _CRITERIA:
            if name in verdicts:
                continue
            verdict, value = _judge(ladders[name])
            tail = name in ("exponential_sup", "strong_tail")
            if verdict == DIVERGENT or (verdict == FINITE and (tails_ready or not tail)):
                verdicts[name], values[name] = verdict, value
                if name == "speed_total" and verdict == FINITE:
                    settled_at = k
        # no point refining tails of a non-recurrent direction
        if (
            len(verdicts) == len(_CRITERIA)
            or verdicts.get("speed_total") == DIVERGENT
            or verdicts.get("scale_recurrence") == FINITE
        ):
            break
    out = {
        name: (verdicts.get(name, INCONCLUSIVE), values.get(name, float(ladders[name][-1])))
        for name in _CRITERIA
    }
    return out, float(r[-1])


def _combine(per_direction, name):
    """Three-valued AND across directions.

    ``speed_total``, ``exponential_sup``, ``strong_tail``: finite iff finite
    in every direction. ``scale_recurrence``: divergent iff divergent in
    every direction (escape must be blocked on every open end).
    """
    verdicts = [d[name][0] for d in per_direction]
    if name == "scale_recurrence":
        if all(v == DIVERGENT for v in verdicts):
            return DIVERGENT
        if any(v == FINITE for v in verdicts):
            return FINITE
        return INCONCLUSIVE
    if all(v == FINITE for v in verdicts):
        return FINITE
    if any(v == DIVERGENT for v in verdicts):
        return DIVERGENT
    return INCONCLUSIVE


def classify(model: ModelSpec, x) -> ErgodicityReport:
    """Scale/speed-measure ergodicity verdicts for the frozen equation at x.

    Never silently guesses: each verdict is backed by a recorded criterion
    value, and undecidable ladders yield None with the partial value kept
    in ``integrals``. A criterion that cannot be evaluated raises its
    SlowfastError.
    """
    if model.dim_fast != 1:
        raise ConfigError("classification handles one-dimensional fast components only")
    dom = model.fast_domain
    xval = float(x)
    ratio, log_gsq = _frozen_axis(model, xval)

    if dom.kind == INTERVAL:
        grid = np.linspace(dom.lower, dom.upper, 4097)
        phi = cumulative_gauss(ratio, grid)
        total = log_trapezoid(phi - log_gsq(grid), grid)
        integrals = {
            "speed_total": {"verdict": FINITE, "log_value": float(total), "radius": dom.upper - dom.lower},
            "note": "compact reflecting fast domain: recurrence is automatic and convergence is uniform",
        }
        return ErgodicityReport(
            x=xval, ergodic=True, exp_ergodic=True, strongly_ergodic=True, integrals=integrals
        )

    signs = [1.0] if dom.kind != FULL_LINE else [1.0, -1.0]
    mode = _mode(ratio, log_gsq, dom)
    per_direction, radii = zip(*(_direction_verdicts(ratio, log_gsq, mode, sign) for sign in signs))

    combined = {name: _combine(per_direction, name) for name in _CRITERIA}

    def tri(verdict, good):
        if verdict == INCONCLUSIVE:
            return None
        return verdict == good

    recurrent = tri(combined["speed_total"], FINITE)
    no_escape = tri(combined["scale_recurrence"], DIVERGENT)
    if recurrent is False or no_escape is False:
        ergodic = False
    elif recurrent and no_escape:
        ergodic = True
    else:
        ergodic = None

    if ergodic is False:
        exp_erg = strong = False
    else:
        exp_erg = tri(combined["exponential_sup"], FINITE)
        strong = tri(combined["strong_tail"], FINITE)
        if ergodic is None:
            exp_erg = None if exp_erg else exp_erg
            strong = None if strong else strong
        elif strong and not exp_erg:
            # Mao's tail criterion is the stronger statement
            exp_erg = True

    integrals = {}
    for i, (sign, result) in enumerate(zip(signs, per_direction)):
        key_suffix = "" if len(signs) == 1 else ("_up" if sign > 0 else "_down")
        for name, (verdict, logv) in result.items():
            integrals[name + key_suffix] = {
                "verdict": verdict,
                "log_value": None if not np.isfinite(logv) else float(logv),
                "value": float(np.exp(logv)) if np.isfinite(logv) and logv < 700.0 else None,
                "radius": float(radii[i]),
            }
    integrals["thresholds"] = {
        "growth_cap": GROWTH_CAP,
        "increment_floor": INCREMENT_FLOOR,
        "max_doublings": MAX_DOUBLINGS,
    }
    return ErgodicityReport(
        x=xval, ergodic=ergodic, exp_ergodic=exp_erg, strongly_ergodic=strong, integrals=integrals
    )


def _density_from_state(grid, u, domain):
    u = np.asarray(u, dtype=float).copy()
    floor = -1e-8 * max(u.max(), 1e-300)
    if u.min() < floor:
        raise ConservationError("forward solution developed significant negative mass")
    np.clip(u, 0.0, None, out=u)
    return Density1D.from_unnormalized(grid, u, domain)


def _pde_snapshots(model, x, y0, times, grid=None):
    """Forward solutions at several times from one march of ``_frozen_generator``."""
    times = np.asarray(times, dtype=float)
    finite = np.all(np.isfinite(times))
    if times.size == 0 or not finite or np.any(times < 0.0) or np.any(np.diff(times) <= 0.0):
        raise ConfigError("snapshot times must be finite, increasing and nonnegative")
    point = not isinstance(y0, Density1D)
    if point:
        y0 = float(y0)
        if grid is None:
            grid = _default_pde_grid(model, x, y0)
    elif grid is None:
        grid = y0.grid
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 8 or np.any(np.diff(grid) <= 0.0):
        raise ConfigError("pde grid must be strictly increasing with at least 8 nodes")
    if not np.all(model.fast_domain.contains(grid, tol=1e-12)):
        raise ConfigError("pde grid leaves the fast domain")
    vol, bands = _frozen_generator(model, x, grid)
    if point:
        if not grid[0] <= y0 <= grid[-1]:
            raise ConfigError("y0 outside the pde grid")
        # mollified point mass two default cells (span / _PDE_CELLS) wide, so a
        # refined grid resolves the same initial datum, not a narrower one
        width = 2.0 * (grid[-1] - grid[0]) / _PDE_CELLS
        u = np.exp(-0.5 * ((grid - y0) / width) ** 2)
        u = u / np.dot(vol, u)
    else:
        u = np.clip(y0.interpolate(grid), 0.0, None)
        total = float(np.dot(vol, u))
        if total <= 0.0:
            raise ConfigError("initial density has no mass on the pde grid")
        u = u / total

    out = []
    prev = 0.0
    for t in times:
        if t > prev:
            u = march((vol, bands), u, t - prev)
        prev = t
        mass = float(np.dot(vol, u))
        if abs(mass - 1.0) > 1e-4:
            raise ConservationError(f"mass drifted to {mass:.6f} at t = {t:g}; refine the grid")
        out.append(_density_from_state(grid, u, model.fast_domain))
    return grid, out


def forward_pde_solve(model: ModelSpec, x, y0, t, grid=None) -> Density1D:
    """Law of the frozen fast state at time t from a near-point start.

    ``y0`` may be a float (mollified point mass two cells of a 2049-node
    grid on the same span wide) or a Density1D initial condition. With ``grid=None`` a
    uniform grid over the stationary support is used (the initial density's
    own grid when one is given). ``numerics.march`` doubles the time steps
    until their error is at most 1e-6 relative L1, well under the default
    grid's error of about 1e-4, and raises ConservationError if 8192 steps
    do not reach that; mass drift beyond 1e-4 raises ConservationError.
    """
    _, states = _pde_snapshots(model, x, y0, [float(t)], grid=grid)
    return states[0]


def _decay_fit(times, values, **window):
    """Exponential fit over the ``window`` of values; where none exists, null numbers and the reason."""
    try:
        amp, rate, r2 = fit_exponential_decay(times, values, **window)
    except FitError as err:
        return {"amplitude": None, "rate": None, "r_squared": None, "reason": str(err)}
    return {"amplitude": amp, "rate": max(rate, 0.0), "r_squared": min(max(r2, 0.0), 1.0)}


def tv_decay_curve(model: ModelSpec, x, y0, times, grid=None) -> DecayCurve:
    """Total variation between the forward solution and stationarity.

    The stationary target is tabulated on the solver grid, so the reported
    values measure dynamics rather than cross-grid interpolation. The fit
    window keeps values below 1 (the tail region of the decay).
    """
    times = np.asarray(times, dtype=float)
    pde_grid, states = _pde_snapshots(model, x, y0, times, grid=grid)
    target = stationary_density(model, x, grid=pde_grid)
    values = np.array([tv_distance(state, target) for state in states])
    fit = _decay_fit(times, values, value_ceiling=1.0, value_floor=1e-3)
    return DecayCurve(times=times, values=values, fit=fit)


def w1_decay_coupling(model: ModelSpec, x, y, y_other, times, n_paths=256, seed=0,
                      workers=None) -> DecayCurve:
    """Mean gap of synchronously coupled frozen paths started at y and y'.

    The two copies consume identical Brownian increments, so the mean
    |Y_t - Y'_t| decays at the coupling rate; its exponential fit is the
    W1-decay rate estimate (a lower-bound-style, per-initial-pair figure,
    not a certified supremum). The paths fork as in ``frozen_pair_gap``,
    by default one process per usable core; the curve does not depend on it.
    """
    times = np.asarray(times, dtype=float)
    finite = np.all(np.isfinite(times))
    if times.size == 0 or not finite or np.any(times <= 0.0) or np.any(np.diff(times) <= 0.0):
        raise ConfigError("times must be finite, increasing and positive")
    t_max = float(times[-1])
    dt = 0.01
    n = int(np.ceil(t_max / dt - 1e-12))
    cfg = SimConfig(
        epsilon=1.0,
        dt=dt,
        horizon=(n + 1) * dt,
        n_paths=n_paths,
        seed=seed,
        store="strided",
        stride=max(1, (n + 1) // 2048),
        y0=float(y),
        fast_substep=dt,
    )
    t_grid, gaps = frozen_pair_gap(model, x, cfg, float(y_other), workers=workers)
    mean_gap = gaps.mean(axis=0)
    values = np.interp(times, t_grid, mean_gap)
    fit = _decay_fit(times, values, value_floor=1e-6)
    return DecayCurve(times=times, values=values, fit=fit)
