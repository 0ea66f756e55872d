"""Invariant measures of the frozen fast equation.

For a frozen slow state x the fast process

    dY = f(x, Y) dt + g(x, Y) dB

has (when positive recurrent) the invariant density

    pi_x(y)  proportional to  exp(Phi_x(y)) / g(x, y)^2,
    Phi_x(y) = integral from y_ref to y of 2 f(x, z) / g(x, z)^2 dz,

with y_ref the lower domain bound, or 0 on the full line. This module
computes Phi_x, tabulates the normalized density on an accuracy-driven
grid, gives the frozen generator's spectral gap lambda(x), and estimates
the same measure empirically from long trajectories.

Here and in ``ergodicity`` the coefficients are read in two places.
``_frozen_axis`` supplies 2 f / g^2 and log g^2 (the log shape is
phi - log g^2) broadcast over the fast states, and alone rejects a slow
state outside the slow domain and a diffusion with g^2 <= 1e-24.
``_frozen_generator`` builds the forward operator, drift f and diffusion g^2/2.

Grid construction
-----------------
``_mode`` walks uphill from y_ref to the mode of the log shape, and from
there ``_extent`` doubles the region in each open direction (a half-line
keeps its wall) until the (moment-weighted) tail mass drops below 1e-9 of
the total; both walk ``_segments``. The default grid places 4096 nodes on
it by equidistributing the cube-root-curvature weight of
(1 + |y - y_ref|) * pi_x over one probe. That weight keeps the composite
trapezoid rule (used for normalization, so that the stored values
integrate to exactly 1) below 1e-6 relative error even for mixtures with
tails as slow as exp(-0.03 y), while leaving enough nodes in the tail for
first and second moment integrands. ``numerics.march`` and
``numerics.spectral_gap`` solve the forward equation and the gap on
``_frozen_generator`` at 2049 uniform nodes on the same extent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ConfigError, DegenerateDiffusionError, NotPositiveRecurrentError
from .models import FULL_LINE, INTERVAL, ModelSpec, StateDomain, _evaluate
from .numerics import (_flux_operator, check_tail_decays, cumulative_gauss, cumulative_trapezoid, curvature_weight, equidistribute,
                       gauss_panels, log_trapezoid, spectral_gap, trapezoid)
from .simulate import SimConfig, simulate_frozen

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
    ``domain`` is the state space the law lives on: a bounded side is a
    reflecting wall, which has no tail, so ``open_ends`` tells every
    integral's tail guard which ends to judge. ``stationary_density`` and the
    forward equation set it to the model's fast domain; a bare grid gets the
    full line, and both its ends are judged.
    """

    grid: np.ndarray
    values: np.ndarray
    cdf: np.ndarray
    domain: StateDomain = StateDomain(FULL_LINE)

    @classmethod
    def from_unnormalized(cls, grid, raw, domain=StateDomain(FULL_LINE)):
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
        cdf = cumulative_trapezoid(values, grid)
        cdf /= cdf[-1]
        values.flags.writeable = False
        cdf.flags.writeable = False
        grid = grid.copy()
        grid.flags.writeable = False
        return cls(grid=grid, values=values, cdf=cdf, domain=domain)

    @property
    def open_ends(self):
        """(lower, upper): whether each end is open, where an integrand's mass must decay."""
        return not self.domain.bounded_below, not self.domain.bounded_above

    def interpolate(self, points):
        """Density linearly interpolated at points, zero outside the grid."""
        return np.interp(points, self.grid, self.values, left=0.0, right=0.0)

    def cdf_at(self, points):
        """CDF interpolated at points, 0 left of the grid and 1 right of it."""
        return np.interp(points, self.grid, self.cdf, left=0.0, right=1.0)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform-weight empirical measure backed by sorted samples."""

    samples: np.ndarray

    @classmethod
    def from_samples(cls, samples):
        return cls._from_sorted(np.sort(np.asarray(samples, dtype=float).ravel()))

    @classmethod
    def _from_sorted(cls, s):
        """The measure on the sorted 1-D float array ``s``, which it makes read-only."""
        if s.size == 0:
            raise ConfigError("empirical measure needs at least one sample")
        # sorting puts -inf first and +inf and nan last
        if not (np.isfinite(s[0]) and np.isfinite(s[-1])):
            raise ConfigError("samples must be finite")
        s.flags.writeable = False
        return cls(samples=s)

    @property
    def n_samples(self):
        return self.samples.size


def _frozen_axis(model, x):
    """(ratio, log_gsq) of the frozen fast equation at slow state x.

    ``ratio(y) = 2 f / g^2`` integrates to the potential Phi_x, and
    ``log_gsq(y) = log g^2``, so the log of the unnormalized invariant shape
    is ``phi - log_gsq(y)``; both broadcast a constant f or g to the shape of
    ``ys``. ``log_gsq`` raises DegenerateDiffusionError where g^2 <= 1e-24.
    Raises ConfigError when x leaves the slow domain.
    """
    xval = float(x)
    if not model.slow_domain.contains(xval):
        raise ConfigError(f"frozen slow coordinate {xval!r} outside the slow domain")
    c = model.coefficients

    def ratio(ys):
        g = _evaluate(c.g, xval, ys)
        return 2.0 * _evaluate(c.f, xval, ys) / (g * g)

    def log_gsq(ys):
        g = _evaluate(c.g, xval, ys)
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
    from scipy.integrate import quad

    ratio, log_gsq = _frozen_axis(model, x)
    anchor = model.fast_domain.anchor() if y_ref is None else float(y_ref)
    yv = float(y)
    if not model.fast_domain.contains(yv):
        raise ConfigError(f"point {yv!r} outside the fast domain")
    log_gsq(np.linspace(anchor, yv, 65) if yv != anchor else np.array([anchor]))
    val, _err = quad(lambda z: float(ratio(np.array(z))), anchor, yv, epsabs=1e-10, epsrel=1e-10, limit=400)
    return float(val)


def _segments(ratio, log_gsq, anchor, sign):
    """The doubling walk from ``anchor`` in direction ``sign``, one segment at a time.

    Segment k covers the distances r in [2^k - 1, 2^(k+1) - 1] in 256 panels.
    Yields r, the potential increments across the panels along the walk,
    log g^2 and the log shape phi - log g^2, phi carried from 0 at the anchor.
    """
    edge, length, phi_edge = 0.0, 1.0, 0.0
    while True:
        r = np.linspace(edge, edge + length, 257)
        delta = sign * gauss_panels(lambda s: ratio(anchor + sign * s), r)
        phi = phi_edge + np.concatenate([[0.0], np.cumsum(delta)])
        lgsq = log_gsq(anchor + sign * r)
        yield r, delta, lgsq, phi - lgsq
        edge, length, phi_edge = edge + length, 2.0 * length, phi[-1]


def _mode(ratio, log_gsq, dom):
    """Mode of the log shape phi - log g^2: uphill walks until the anchor stops moving.

    Each walk moves to the last node of the shape's strict rise. ``dom.anchor()``
    is kept when the shape falls away from it on every open side, or when a walk never turns.
    """
    anchor = dom.anchor()
    for _ in range(_MAX_DOUBLINGS):
        tops = []
        for sign in (1.0, -1.0) if dom.kind == FULL_LINE else (1.0,):
            for r, _, _, shape in islice(_segments(ratio, log_gsq, anchor, sign), _MAX_DOUBLINGS):
                stop = np.flatnonzero(np.diff(shape) <= 0.0)
                if stop.size:
                    tops.append(float(anchor + sign * r[stop[0]]))
                    break
            else:
                return dom.anchor()
        moved = [top for top in tops if top != anchor]
        if not moved:
            return anchor
        anchor = moved[0]
    return anchor


def _extend_direction(model, x, anchor, sign):
    """Doubling search for the extent of the invariant mass in one direction.

    Returns the distance from the anchor. Raises NotPositiveRecurrentError
    when segment masses fail to decay (the normalization integral diverges
    on an extending grid).
    """
    ratio, log_gsq = _frozen_axis(model, x)
    # raw segment masses decide divergence of the measure itself; the
    # weighted masses only decide when the grid may stop, and their
    # (1 + r)^2 factor can rise for several doublings while a shallow
    # exponential tail fights the polynomial, so they must not be the
    # divergence signal. The raw rule additionally requires the newest
    # segment to carry a visible fraction of the running total: a truly
    # divergent tail reaches 1/k of the total by doubling k, whereas a
    # convergent tail that is merely flat on this scale (density nearly
    # constant out to 1/x for small x) stays below its own tiny mass share.
    raw_logmass = []
    total = -np.inf
    total_raw = -np.inf
    for r, _, _, shape in islice(_segments(ratio, log_gsq, anchor, sign), _MAX_DOUBLINGS):
        lm = log_trapezoid(shape + 2.0 * np.log1p(r), r)
        raw_logmass.append(log_trapezoid(shape, r))
        total = np.logaddexp(total, lm)
        total_raw = np.logaddexp(total_raw, raw_logmass[-1])
        if lm < total + np.log(_TAIL_FRACTION):
            return float(r[-1])
        if len(raw_logmass) >= _DIVERGENCE_RUN + 5:
            tail = raw_logmass[-_DIVERGENCE_RUN:]
            nondecaying = all(tail[i + 1] >= tail[i] - 1e-9 for i in range(len(tail) - 1))
            if nondecaying and tail[-1] > total_raw + np.log(_DIVERGENCE_FRACTION):
                raise NotPositiveRecurrentError(
                    f"invariant mass diverges at x = {float(x)!r} "
                    f"(segment masses stopped decaying beyond distance {r[-1]:g})"
                )
    raise NotPositiveRecurrentError(
        f"tail mass did not converge within {_MAX_DOUBLINGS} doublings at x = {float(x)!r}"
    )


def _extent(model, x):
    """(lo, hi) of the invariant mass at x: a bounded interval, or the doubling searches'.

    Both searches start at the mode; a half-line keeps its wall as ``lo``.
    Raises NotPositiveRecurrentError when the mass diverges.
    """
    ratio, log_gsq = _frozen_axis(model, x)
    dom = model.fast_domain
    if dom.kind == INTERVAL:
        return dom.lower, dom.upper
    mode = _mode(ratio, log_gsq, dom)
    hi = mode + _extend_direction(model, x, mode, +1.0)
    lo = mode - _extend_direction(model, x, mode, -1.0) if not dom.bounded_below else dom.lower
    return lo, hi


def default_grid(model: ModelSpec, x) -> np.ndarray:
    """Accuracy-driven grid for the invariant density at slow state x, ends at ``_extent``."""
    ratio, log_gsq = _frozen_axis(model, x)
    lo, hi = _extent(model, x)
    probe = np.linspace(lo, hi, _PROBE_POINTS)
    ls = cumulative_gauss(ratio, probe) - log_gsq(probe)
    ls -= ls.max()
    m = np.exp(ls) * (1.0 + np.abs(probe - model.fast_domain.anchor()))
    weight = curvature_weight(m, probe[1] - probe[0])
    # cap the max spacing against the weight's own scale
    weight = np.maximum(weight, trapezoid(weight, probe) * 256.0 / (DEFAULT_GRID_POINTS * (hi - lo)))
    return equidistribute(probe, weight, DEFAULT_GRID_POINTS)


_PDE_CELLS = 2048


def _default_pde_grid(model, x, y0):
    """Uniform forward-equation grid on ``_extent``, widened to hold a start y0 if given."""
    lo, hi = _extent(model, x)
    span = hi - lo
    if y0 is not None:
        lo = min(lo, y0 - 0.05 * span)
        hi = max(hi, y0 + 0.05 * span)
    if model.fast_domain.bounded_below:
        lo = max(lo, model.fast_domain.lower)
    if model.fast_domain.bounded_above:
        hi = min(hi, model.fast_domain.upper)
    return np.linspace(lo, hi, _PDE_CELLS + 1)


def _frozen_generator(model, x, grid):
    """``(vol, bands)`` of the frozen fast equation's forward operator on ``grid``.

    The only code that turns the model into ``numerics._flux_operator``'s
    drift f(x, .) and diffusion g(x, .)^2 / 2.
    """
    _, log_gsq = _frozen_axis(model, x)
    log_gsq(grid)  # raises where g vanishes on the grid
    c = model.coefficients
    return _flux_operator(grid, lambda y: _evaluate(c.f, x, y), lambda y: 0.5 * _evaluate(c.g, x, y) ** 2)


def _spectral_gap(model, x):
    """Spectral gap lambda(x) of the frozen generator on ``_default_pde_grid``."""
    return spectral_gap(_frozen_generator(model, x, _default_pde_grid(model, x, None))[1])


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
    # Phi_x by panelwise Gauss-Legendre, zero at grid[0]
    ls = cumulative_gauss(ratio, grid) - log_gsq(grid)
    return Density1D.from_unnormalized(grid, np.exp(ls - ls.max()), model.fast_domain)


def moment(measure, k) -> float:
    """k-th moment: trapezoid rule for densities, sample mean for samples.

    Raises InfiniteMomentError when the mass of y^k rho still grows toward
    an open end of the density's domain (``numerics.check_tail_decays``):
    a divergent tail, not a resolvable value. A reflecting wall, where
    y^k rho may peak, is not judged.
    """
    if isinstance(measure, EmpiricalMeasure):
        return float(np.mean(measure.samples**k))
    d = measure
    integrand = d.grid**k * d.values
    check_tail_decays(d.grid, integrand, *d.open_ends, f"the moment of order {k}")
    return float(trapezoid(integrand, d.grid))


def _estimate_burn_in(model, x, config):
    """Ten relaxation times 10 / lambda(x), capped at half the horizon."""
    return min(10.0 / _spectral_gap(model, x), config.horizon / 2.0)


def empirical_invariant(model: ModelSpec, x, config: SimConfig, workers=None) -> EmpiricalMeasure:
    """Pooled post-burn-in fast states of a frozen-run ensemble.

    ``config.store`` must keep trajectories (``full`` or ``strided``). The
    burn-in is ten relaxation times 10 / lambda(x) of the frozen generator's
    spectral gap, capped at half the horizon, so the stored state at
    t = horizon always survives it; a process with no invariant law raises
    NotPositiveRecurrentError before any path runs. Only the stored times
    from the burn-in on are ever held, and they are sorted in place, so the
    memory is the pooled samples plus one noise block per process. The run
    forks as ``simulate_frozen`` does, by default one process per usable
    core (``workers=None``); the samples do not depend on it.
    """
    if config.store == "terminal":
        raise ConfigError("empirical invariant needs store='full' or 'strided'")
    burn_in = _estimate_burn_in(model, x, config)
    # the path-major view of the one buffer the run allocated
    samples = simulate_frozen(model, x, config, burn_in=burn_in, workers=workers).fast.ravel()
    samples.sort()
    return EmpiricalMeasure._from_sorted(samples)
