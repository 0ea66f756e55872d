"""Invariant measures of the frozen fast equation.

For a frozen slow state x the fast process

    dY = f(x, Y) dt + g(x, Y) dB

has (when positive recurrent) the invariant density

    pi_x(y)  proportional to  exp(Phi_x(y)) / g(x, y)^2,
    Phi_x(y) = integral from y_ref to y of 2 f(x, z) / g(x, z)^2 dz,

with y_ref the lower domain bound, or 0 on the full line. This module
computes Phi_x, tabulates the normalized density on an accuracy-driven
grid, and estimates the same measure empirically from long trajectories.

Here and in ``ergodicity`` the coefficients are read through one helper,
``_frozen_axis``, which supplies 2 f / g^2 and log g^2 (the log shape is
phi - log g^2) and alone rejects a slow state outside the slow domain and
a diffusion with g^2 <= 1e-24.

Grid construction
-----------------
The default grid spans the region found by doubling the extent until the
(moment-weighted) tail mass drops below 1e-9 of the total, then places
4096 nodes by equidistributing the cube-root-curvature weight of
(1 + |y - y_ref|) * pi_x. That weight keeps the composite trapezoid rule
(used for normalization, so that the stored values integrate to exactly 1)
below 1e-6 relative error even for mixtures with tails as slow as
exp(-0.03 y), while leaving enough nodes in the tail for first and second
moment integrands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad, trapezoid

from .errors import (
    ConfigError,
    DegenerateDiffusionError,
    InfiniteMomentError,
    NotPositiveRecurrentError,
    SlowfastError,
)
from .models import INTERVAL, ModelSpec
from .numerics import (
    cumulative_gauss,
    curvature_weight,
    equidistribute,
    fit_exponential_decay,
    log_trapezoid,
)
from .simulate import SimConfig, frozen_pair_gap, simulate_frozen

DEFAULT_GRID_POINTS = 4096
_PROBE_POINTS = 8193
_TAIL_FRACTION = 1e-9
_MAX_DOUBLINGS = 34
_DIVERGENCE_RUN = 3
_DIVERGENCE_FRACTION = 0.01


@dataclass(frozen=True)
class Density1D:
    """Probability density tabulated on an increasing grid.

    ``values`` are normalized so their trapezoid integral over ``grid`` is
    exactly 1; ``cdf`` is the running trapezoid integral rescaled to end at
    exactly 1. Values are nonnegative and the grid is strictly increasing.
    """

    grid: np.ndarray
    values: np.ndarray
    cdf: np.ndarray

    @classmethod
    def from_unnormalized(cls, grid, raw):
        grid = np.asarray(grid, dtype=float)
        raw = np.asarray(raw, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
            raise ConfigError("density grid must be strictly increasing with >= 2 nodes")
        if np.any(~np.isfinite(raw)) or np.any(raw < 0.0):
            raise ConfigError("density values must be finite and nonnegative")
        total = trapezoid(raw, grid)
        if not np.isfinite(total) or total <= 0.0:
            raise NotPositiveRecurrentError("unnormalized density has no finite positive mass")
        values = raw / total
        cdf = cumulative_trapezoid(values, grid, initial=0.0)
        cdf /= cdf[-1]
        values.flags.writeable = False
        cdf.flags.writeable = False
        grid = grid.copy()
        grid.flags.writeable = False
        return cls(grid=grid, values=values, cdf=cdf)

    def interpolate(self, points):
        """Density linearly interpolated at points, zero outside the grid."""
        return np.interp(points, self.grid, self.values, left=0.0, right=0.0)

    def cdf_at(self, points):
        """CDF interpolated at points, 0 left of the grid and 1 right of it."""
        return np.interp(points, self.grid, self.cdf, left=0.0, right=1.0)

    def to_csv(self, path=None):
        text = "y,density\n" + "".join(
            f"{float(y)!r},{float(v)!r}\n" for y, v in zip(self.grid, self.values)
        )
        if path is None:
            return text
        with open(path, "w") as fh:
            fh.write(text)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform-weight empirical measure backed by sorted samples."""

    samples: np.ndarray

    @classmethod
    def from_samples(cls, samples):
        s = np.sort(np.asarray(samples, dtype=float).ravel())
        if s.size == 0:
            raise ConfigError("empirical measure needs at least one sample")
        if np.any(~np.isfinite(s)):
            raise ConfigError("samples must be finite")
        s.flags.writeable = False
        return cls(samples=s)

    @property
    def n_samples(self):
        return self.samples.size

    def to_csv(self, path=None):
        text = "y\n" + "".join(f"{float(y)!r}\n" for y in self.samples)
        if path is None:
            return text
        with open(path, "w") as fh:
            fh.write(text)


def _frozen_axis(model, x):
    """(ratio, log_gsq) of the frozen fast equation at slow state x.

    ``ratio(y) = 2 f / g^2`` integrates to the potential Phi_x, and
    ``log_gsq(y) = log g^2``, so the log of the unnormalized invariant shape
    is ``phi - log_gsq(y)``. ``log_gsq`` raises DegenerateDiffusionError
    where g^2 <= 1e-24. Raises ConfigError when x leaves the slow domain.
    """
    xval = float(x)
    if not model.slow_domain.contains(xval):
        raise ConfigError(f"frozen slow coordinate {xval!r} outside the slow domain")
    c = model.coefficients

    def ratio(ys):
        g = c.g(xval, ys)
        return 2.0 * c.f(xval, ys) / (g * g)

    def log_gsq(ys):
        g = c.g(xval, ys)
        gg = g * g
        if np.any(gg <= 1e-24):
            raise DegenerateDiffusionError(
                f"fast diffusion vanishes on the probed range at x = {xval!r}"
            )
        return np.log(gg)

    return ratio, log_gsq


def potential(model: ModelSpec, x, y, y_ref=None) -> float:
    """Potential Phi_x(y) by adaptive quadrature with absolute tolerance 1e-10.

    ``y_ref`` defaults to the fast domain's lower bound, or 0 on the line.
    """
    ratio, log_gsq = _frozen_axis(model, x)
    anchor = model.fast_domain.anchor() if y_ref is None else float(y_ref)
    yv = float(y)
    if not model.fast_domain.contains(yv):
        raise ConfigError(f"point {yv!r} outside the fast domain")
    log_gsq(np.linspace(anchor, yv, 65) if yv != anchor else np.array([anchor]))
    val, _err = quad(lambda z: float(ratio(np.array(z))), anchor, yv, epsabs=1e-10, epsrel=1e-10, limit=400)
    return float(val)


def _extend_direction(model, x, anchor, sign):
    """Doubling search for the extent of the invariant mass in one direction.

    Returns the distance from the anchor. Raises NotPositiveRecurrentError
    when segment masses fail to decay (the normalization integral diverges
    on an extending grid).
    """
    ratio, log_gsq = _frozen_axis(model, x)
    # raw segment masses decide divergence of the measure itself; the
    # weighted masses only decide when the grid may stop, and their
    # (1 + |y|)^2 factor can rise for several doublings while a shallow
    # exponential tail fights the polynomial, so they must not be the
    # divergence signal. The raw rule additionally requires the newest
    # segment to carry a visible fraction of the running total: a truly
    # divergent tail reaches 1/k of the total by doubling k, whereas a
    # convergent tail that is merely flat on this scale (density nearly
    # constant out to 1/x for small x) stays below its own tiny mass share.
    raw_logmass = []
    total = -np.inf
    total_raw = -np.inf
    edge = 0.0
    phi_edge = 0.0
    length = 1.0
    for k in range(_MAX_DOUBLINGS):
        seg = anchor + sign * np.linspace(edge, edge + length, 257)
        order = np.argsort(seg)
        seg_sorted = seg[order]
        phi = cumulative_gauss(ratio, seg_sorted)
        # carry the potential from the anchor side of the segment
        phi = phi - phi[0 if sign > 0 else -1] + phi_edge
        shape = phi - log_gsq(seg_sorted)
        weight = 2.0 * np.log1p(np.abs(seg_sorted - anchor))
        lm = log_trapezoid(shape + weight, seg_sorted)
        phi_edge = phi[-1] if sign > 0 else phi[0]
        raw_logmass.append(log_trapezoid(shape, seg_sorted))
        total = np.logaddexp(total, lm)
        total_raw = np.logaddexp(total_raw, raw_logmass[-1])
        edge += length
        if lm < total + np.log(_TAIL_FRACTION):
            return edge
        if len(raw_logmass) >= _DIVERGENCE_RUN + 5:
            tail = raw_logmass[-_DIVERGENCE_RUN:]
            nondecaying = all(tail[i + 1] >= tail[i] - 1e-9 for i in range(len(tail) - 1))
            if nondecaying and tail[-1] > total_raw + np.log(_DIVERGENCE_FRACTION):
                raise NotPositiveRecurrentError(
                    f"invariant mass diverges at x = {float(x)!r} "
                    f"(segment masses stopped decaying beyond |y| = {edge:g})"
                )
        length *= 2.0
    raise NotPositiveRecurrentError(
        f"tail mass did not converge within {_MAX_DOUBLINGS} doublings at x = {float(x)!r}"
    )


def default_grid(model: ModelSpec, x) -> np.ndarray:
    """Accuracy-driven grid for the invariant density at slow state x."""
    ratio, log_gsq = _frozen_axis(model, x)
    dom = model.fast_domain
    anchor = dom.anchor()
    log_gsq(np.array([anchor]))
    if dom.kind == INTERVAL:
        lo, hi = dom.lower, dom.upper
    else:
        hi = anchor + _extend_direction(model, x, anchor, +1.0)
        lo = anchor - _extend_direction(model, x, anchor, -1.0) if not dom.bounded_below else dom.lower

    def side_weight(a, b):
        probe = np.linspace(a, b, _PROBE_POINTS)
        phi = cumulative_gauss(ratio, probe)
        ls = phi - log_gsq(probe)
        ls -= ls.max()
        m = np.exp(ls) * (1.0 + np.abs(probe - anchor))
        return probe, curvature_weight(m, probe[1] - probe[0])

    if lo < anchor < hi:
        pl, wl = side_weight(lo, anchor)
        pr, wr = side_weight(anchor, hi)
        probe = np.concatenate([pl, pr[1:]])
        weight = np.concatenate([wl, wr[1:]])
        weight[pl.size - 1] = max(wl[-1], wr[0])
    else:
        probe, weight = side_weight(lo, hi)

    # normalize the two sides against a common scale, then cap max spacing
    cw = trapezoid(weight, probe)
    weight = np.maximum(weight, cw * 256.0 / (DEFAULT_GRID_POINTS * (hi - lo)))
    return equidistribute(probe, weight, DEFAULT_GRID_POINTS)


def stationary_density(model: ModelSpec, x, grid=None) -> Density1D:
    """Normalized invariant density of the frozen fast equation at x.

    With ``grid=None`` the default accuracy-driven grid is used; explicit
    grids are trusted to cover the support (the caller coarsens or extends
    as needed). Raises NotPositiveRecurrentError when the normalization
    integral diverges on the extending default grid,
    DegenerateDiffusionError when g vanishes on the probed range, and
    ConfigError when x leaves the slow domain.
    """
    ratio, log_gsq = _frozen_axis(model, x)
    if grid is None:
        grid = default_grid(model, x)
    grid = np.asarray(grid, dtype=float)
    if not np.all(model.fast_domain.contains(grid, tol=1e-12)):
        raise ConfigError("grid leaves the fast domain")
    # Phi_x by panelwise Gauss-Legendre, zero at the domain anchor when the
    # grid spans it; the shift is kept because it sets the rounding of ls
    phi = cumulative_gauss(ratio, grid)
    anchor = model.fast_domain.anchor()
    if grid[0] <= anchor <= grid[-1]:
        phi -= np.interp(anchor, grid, phi)
    ls = phi - log_gsq(grid)
    raw = np.exp(ls - ls.max())
    return Density1D.from_unnormalized(grid, raw)


def moment(measure, k) -> float:
    """k-th moment: trapezoid rule for densities, sample mean for samples.

    Raises InfiniteMomentError when the density integrand is still growing
    at the edge of the grid, which signals a divergent tail rather than a
    resolvable value.
    """
    if isinstance(measure, EmpiricalMeasure):
        return float(np.mean(measure.samples**k))
    d = measure
    integrand = d.grid**k * d.values
    tail = np.abs(integrand[-6:])
    if np.all(np.diff(tail) >= 0.0) and tail[-1] > 1e-9 * np.abs(integrand).max():
        raise InfiniteMomentError(f"moment of order {k} has a non-decaying tail")
    return float(trapezoid(integrand, d.grid))


def _estimate_burn_in(model, x, config):
    """Ten relaxation times from a cheap synchronous-coupling probe."""
    horizon = min(10.0, config.horizon / 2.0)
    n = max(2, int(round(horizon / config.dt)))
    probe_cfg = SimConfig(
        epsilon=1.0,
        dt=config.dt,
        horizon=n * config.dt,
        n_paths=64,
        seed=config.seed + 1,
        store="full",
        x0=config.x0,
        y0=config.y0,
        fast_substep=config.fast_substep,
    )
    span = 1.0 if not model.fast_domain.bounded_above else 0.5 * (
        model.fast_domain.upper - model.fast_domain.lower
    )
    try:
        times, gap = frozen_pair_gap(model, x, probe_cfg, float(config.y0) + span)
        values = gap.mean(axis=0)
        _, rate, _ = fit_exponential_decay(times[1:], values[1:], value_floor=1e-10)
        if rate > 0.0:
            return min(10.0 / rate, config.horizon / 2.0)
    except SlowfastError:
        pass
    return config.horizon / 2.0


def empirical_invariant(model: ModelSpec, x, config: SimConfig) -> EmpiricalMeasure:
    """Pooled post-burn-in fast states of a frozen-run ensemble.

    ``config.store`` must keep trajectories (``full`` or ``strided``). The
    burn-in is ten relaxation times estimated from a quick synchronous-
    coupling probe, capped at (and falling back to) half the horizon, so
    the stored state at t = horizon always survives it.
    """
    if config.store == "terminal":
        raise ConfigError("empirical invariant needs store='full' or 'strided'")
    burn_in = _estimate_burn_in(model, x, config)
    ens = simulate_frozen(model, x, config)
    return EmpiricalMeasure.from_samples(ens.fast[:, ens.times >= burn_in])
