"""Averaged coefficients and continuity diagnostics for the slow variable.

The averaged slow equation replaces b(x, y) and a(x, y) = sigma(x, y)^2 by
their means under the frozen invariant density: bbar(x) = int b(x, y)
pi^x(dy) and abar(x) = int a(x, y) pi^x(dy), with sigmabar = sqrt(abar).
Both integrals are Simpson quadratures on the stationary grid; numerator
and denominator share the grid, so the trapezoid normalization of the
stored density cancels exactly instead of polluting the average.

Continuity of x -> bbar(x) is not automatic even when x -> pi^x is
continuous in total variation: an unbounded integrand can ride on the
escaping tail mass. discontinuity_probe measures the jump by comparing
bbar(x0) with a Richardson extrapolation of bbar(x0 + delta) to delta = 0,
and holder_fit quantifies the continuity of x -> pi^x itself in a chosen
metric, against a two-regime reference bound: linear in |x1 - x2| where
that is smaller, a power law with the reference exponent otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateDiffusionError, InfiniteMomentError, SlowfastError
from .metrics import measure_distance
from .models import ModelSpec, StateDomain
from .numerics import extrapolate_to_zero, fit_power_law, simpson_ratio
from .stationary import stationary_density

TV_REFERENCE_EXPONENT = 2.0 / 3.0
_BOUND_SLACK = 1e-9
# how far the fitted exponent may sit below the reference before the
# relation is called unsatisfied
_EXPONENT_TOL = 0.05
# a tail is called divergent when this many trailing panel masses fail to
# decay while still carrying weight relative to the whole integral
_TAIL_PANELS = 6
_TAIL_WEIGHT = 1e-9


def _check_integrand_tail(grid, integrand, domain):
    """Reject expectation integrands whose mass is still growing at an open end."""
    panels = 0.5 * np.abs(integrand[1:] + integrand[:-1]) * np.diff(grid)
    total = float(np.sum(panels))
    if total == 0.0:
        return
    for tail in (
        panels[-_TAIL_PANELS:] if not domain.bounded_above else None,
        panels[:_TAIL_PANELS][::-1] if not domain.bounded_below else None,
    ):
        if tail is None or tail.size < _TAIL_PANELS:
            continue
        # tolerance so a flat integrand wobbling at roundoff still counts
        if np.all(np.diff(tail) >= -1e-9 * np.abs(tail[:-1])) and float(
            tail[-1]
        ) > _TAIL_WEIGHT * total:
            raise InfiniteMomentError(
                "integrand mass does not decay toward the domain end; "
                "the averaged coefficient does not exist"
            )


def _expectation(model, rho, factor):
    """int factor(y) rho(dy) by Simpson quadrature on the density's grid; a constant broadcasts."""
    values = np.broadcast_to(np.asarray(factor(rho.grid), dtype=float), rho.grid.shape)
    _check_integrand_tail(rho.grid, values * rho.values, model.fast_domain)
    return simpson_ratio(values * rho.values, rho.values, rho.grid)


def _drift_mean(model, x, rho):
    return _expectation(model, rho, lambda y: model.coefficients.b(x, y))


def _squared_dispersion_mean(model, x, rho):
    abar = _expectation(model, rho, lambda y: model.coefficients.sigma(x, y) ** 2)
    if not abar > 0.0:
        raise DegenerateDiffusionError(
            f"averaged squared dispersion {abar!r} at x={x!r} is not positive"
        )
    return abar


def averaged_drift(model: ModelSpec, x: float) -> float:
    """Mean of the slow drift b(x, .) under the frozen invariant density."""
    return _drift_mean(model, x, stationary_density(model, x))


def averaged_diffusion(model: ModelSpec, x: float):
    """(abar, sigmabar): mean of sigma(x, .)^2 and its square root."""
    abar = _squared_dispersion_mean(model, x, stationary_density(model, x))
    return abar, float(np.sqrt(abar))


@dataclass(frozen=True)
class AveragedModel:
    """Tabulated averaged coefficients with piecewise-linear interpolation.

    ``sigma_bar`` is derived as the square root of ``a_bar``. Linear
    interpolation is deliberate: the averaged coefficients are in
    general only Holder continuous between nodes, so a smoother
    interpolant would claim regularity the functions need not have.

    ``drift`` and ``sigma`` are ``np.interp`` on the table.
    ``drift_and_sigma``, the averaged simulators' lookup, returns both bit
    for bit from one search of the nodes: a floor division where the grid
    is uniform enough that it lands at most one panel off, a binary search
    otherwise, with the slopes computed here as ``np.interp`` computes them.
    The nodes and their spacing must be finite, which keeps every
    ``np.interp`` value to its first formula.
    """

    source: str
    x_grid: np.ndarray
    b_bar: np.ndarray
    a_bar: np.ndarray
    sigma_bar: np.ndarray = field(init=False)
    slow_domain: StateDomain
    method: str

    def __post_init__(self):
        grid = np.asarray(self.x_grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
            raise ConfigError("x_grid must be increasing with at least two nodes")
        if not np.all(np.isfinite(np.diff(grid))):
            raise ConfigError("x_grid nodes and their spacing must be finite")
        fields = {}
        for name in ("b_bar", "a_bar"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != grid.shape or not np.all(np.isfinite(v)):
                raise ConfigError(f"{name} must be finite with one value per node")
            fields[name] = v
        if not np.all(fields["a_bar"] > 0.0):
            raise DegenerateDiffusionError("averaged squared dispersion must stay positive")
        fields["sigma_bar"] = np.sqrt(fields["a_bar"])
        for name, v in (("x_grid", grid), *fields.items()):
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        # the joint lookup's tables: slopes as np.interp computes them, zero past the last node
        with np.errstate(over="ignore"):  # where np.interp's slopes overflow, silently
            slopes = [np.append(np.diff(v) / np.diff(grid), 0.0) for v in (fields["b_bar"], fields["sigma_bar"])]
        object.__setattr__(self, "_panels", tuple(zip(slopes, (fields["b_bar"], fields["sigma_bar"]))))
        object.__setattr__(self, "_panel_ends", np.append(grid[1:], np.inf))
        object.__setattr__(self, "_inv_h", _floor_scale(grid))

    def drift(self, x):
        return np.interp(x, self.x_grid, self.b_bar)

    def sigma(self, x):
        return np.interp(x, self.x_grid, self.sigma_bar)

    def drift_and_sigma(self, x):
        """``(drift(x), sigma(x))`` bit for bit, NaN included, from one search of the nodes."""
        x = np.asarray(x, dtype=float)
        grid = self.x_grid
        xc = np.maximum(x.reshape(-1), grid[0])  # NaN stays NaN
        np.minimum(xc, grid[-1], out=xc)
        # j: the panel grid[j] <= xc < grid[j + 1], or the last node at it or for NaN
        if self._inv_h is None:
            j = np.searchsorted(grid, xc, "right") - 1
        else:
            j = _floor_guess(xc, grid, self._inv_h)
            j -= grid.take(j) > xc
            j += self._panel_ends.take(j) <= xc
        d = xc - grid.take(j)
        at_node = d == 0.0  # np.interp returns the node value itself there
        out = []
        for slope, values in self._panels:
            yj = values.take(j)
            v = slope.take(j)
            v *= d
            v += yj
            np.copyto(v, yj, where=at_node)
            out.append(v.reshape(x.shape))
        return tuple(out)


def _floor_guess(x, grid, inv_h):
    """floor((x - x0) / h) on x >= x0, capped at the last node, which also takes NaN."""
    return np.fmin((x - grid[0]) * inv_h, float(grid.size - 1)).astype(np.intp)


def _floor_scale(grid):
    """1/h when ``_floor_guess`` lands within one panel of every x on the grid, else None.

    The guess and the panel holding x both rise with x, so it is enough
    that the guess at each node is at least its panel minus one and the
    guess just below the next node at most its panel plus one.
    """
    inv_h = (grid.size - 1) / (float(grid[-1]) - float(grid[0]))
    if not 0.0 < inv_h < np.inf:
        return None
    nodes = np.arange(grid.size)
    below_next = np.nextafter(grid[1:], -np.inf)
    if (np.all(_floor_guess(grid, grid, inv_h) >= nodes - 1)
            and np.all(_floor_guess(below_next, grid, inv_h) <= nodes[:-1] + 1)):
        return inv_h
    return None


def build_averaged_model(model: ModelSpec, x_grid) -> AveragedModel:
    """Tabulate bbar, abar, sigmabar on a slow-variable grid.

    Closed forms from the model's analytic record are used where present;
    the remaining coefficients fall back to quadrature node by node, from
    one frozen invariant density per node. A node failure aborts the build
    and names the offending node.
    """
    grid = np.asarray(x_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise ConfigError("x_grid must be increasing with at least two nodes")
    if not np.all(model.slow_domain.contains(grid)):
        raise ConfigError("x_grid leaves the slow domain")

    analytic = model.analytic
    drift_fn = getattr(analytic, "averaged_drift", None)
    diff_fn = getattr(analytic, "averaged_diffusion", None)

    if drift_fn is not None and diff_fn is not None:
        method = "analytic"
    elif drift_fn is None and diff_fn is None:
        method = "quadrature"
    else:
        method = "mixed"

    def node(x):
        try:
            rho = None if method == "analytic" else stationary_density(model, x)
            b = float(drift_fn(x)) if drift_fn is not None else _drift_mean(model, x, rho)
            a = float(diff_fn(x)) if diff_fn is not None else _squared_dispersion_mean(model, x, rho)
        except SlowfastError as err:
            raise type(err)(f"averaged coefficients failed at node x={x!r}: {err}") from err
        return b, a

    rows = [node(x) for x in grid]
    b_bar = np.array([r[0] for r in rows])
    a_bar = np.array([r[1] for r in rows])
    return AveragedModel(
        source=model.name,
        x_grid=grid,
        b_bar=b_bar,
        a_bar=a_bar,
        slow_domain=model.slow_domain,
        method=method,
    )


def discontinuity_probe(model: ModelSpec, x0: float, deltas) -> dict:
    """Gap between bbar(x0) and the one-sided limit of bbar at x0.

    The limit is a Richardson extrapolation through the last three probe
    points, so a polynomial approach to the limit is reproduced exactly
    and the probe values never need to get expensively close to x0.
    """
    d = np.asarray(deltas, dtype=float)
    if d.ndim != 1 or d.size < 3:
        raise ConfigError("need at least three probe offsets")
    if not (np.all(d > 0.0) and np.all(np.diff(d) < 0.0)):
        raise ConfigError("probe offsets must be positive and decreasing")
    value_at_x0 = averaged_drift(model, x0)
    values = np.array([averaged_drift(model, x0 + delta) for delta in d])
    right = extrapolate_to_zero(d, values)
    return {
        "right_limit_estimate": right,
        "value_at_x0": value_at_x0,
        "gap": abs(right - value_at_x0),
        "deltas": [float(v) for v in d],
        "values": [float(v) for v in values],
    }


@dataclass(frozen=True)
class HolderFitReport:
    """Pairwise invariant-measure distances with a power-law fit.

    ``bound_satisfied`` checks each pair against the two-regime reference
    distance <= max(|x1 - x2|, C |x1 - x2|^reference_exponent) with C the
    recorded ceiling constant (``constants["ceiling_constant"]``): the
    linear branch covers well-separated pairs, the power branch is the
    continuity statement under test.  Any finite pair set admits some
    ceiling, so the verdict also requires the fitted exponent to reach
    the reference within a small tolerance; distances that grow as the
    separation shrinks fail there.
    """

    metric: str
    pairs: tuple
    fitted_exponent: float
    fitted_constant: float
    r_squared: float
    reference_exponent: float
    bound_satisfied: bool
    constants: dict

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "pairs": [
                {"x1": x1, "x2": x2, "distance": dist} for x1, x2, dist in self.pairs
            ],
            "fitted_exponent": self.fitted_exponent,
            "fitted_constant": self.fitted_constant,
            "r_squared": self.r_squared,
            "reference_exponent": self.reference_exponent,
            "bound_satisfied": self.bound_satisfied,
            "constants": dict(self.constants),
        }


def holder_fit(metric: str, model: ModelSpec, pairs, lambda2=None, k3=None) -> HolderFitReport:
    """Fit distance(pi^x1, pi^x2) ~ C |x1 - x2|^alpha over the given pairs.

    The reference exponent is 2/3 for total variation and
    lambda2 / (lambda2 + K3) otherwise, with lambda2 taken from the
    argument (a fitted decay rate) before the model's assumption
    constants, and K3 from the assumption constants; both default to 1.
    Identical pairs contribute a zero distance but are excluded from the
    log-log fit.
    """
    if metric not in ("tv", "w1", "wbl"):
        raise ConfigError(f"unknown metric {metric!r}")
    if metric == "tv":
        ref = TV_REFERENCE_EXPONENT
        constants = {}
    else:
        lam = float(lambda2 if lambda2 is not None else model.assumption_constants.get("lambda2", 1.0))
        kk = float(k3 if k3 is not None else model.assumption_constants.get("K3", 1.0))
        if not (np.isfinite(lam) and np.isfinite(kk)) or lam <= 0.0 or kk < 0.0:
            raise ConfigError("need finite lambda2 > 0 and K3 >= 0 for the reference exponent")
        ref = lam / (lam + kk)
        constants = {"lambda2": lam, "K3": kk}

    cache = {}

    def density(x):
        if x not in cache:
            cache[x] = stationary_density(model, x)
        return cache[x]

    rows = []
    for x1, x2 in pairs:
        x1, x2 = float(x1), float(x2)
        dist = 0.0 if x1 == x2 else measure_distance(metric, density(x1), density(x2)).value
        rows.append((x1, x2, dist))

    seps = np.array([abs(x1 - x2) for x1, x2, _ in rows])
    dists = np.array([dist for _, _, dist in rows])
    keep = (seps > 0.0) & (dists > 0.0)
    constant, exponent, r2 = fit_power_law(seps[keep], dists[keep])

    ceiling = float(np.max(dists[keep] / seps[keep] ** ref))
    reference = np.maximum(seps[keep], ceiling * seps[keep] ** ref)
    within = bool(np.all(dists[keep] <= reference + _BOUND_SLACK))
    satisfied = within and bool(exponent >= ref - _EXPONENT_TOL)
    constants = dict(constants)
    constants["ceiling_constant"] = ceiling
    return HolderFitReport(
        metric=metric,
        pairs=tuple(rows),
        fitted_exponent=exponent,
        fitted_constant=constant,
        r_squared=r2,
        reference_exponent=ref,
        bound_satisfied=satisfied,
        constants=constants,
    )
