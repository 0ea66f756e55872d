"""Shared numerical kernels.

Small, model-free helpers used across the package: fixed-order
Gauss-Legendre panels for cumulative integrals, overflow-safe log-domain
trapezoid sums, weight-equidistributed grids, the 1-D forward equation
(``_flux_operator``'s fitted generator, its ``march`` and ``spectral_gap``),
mirror reflection, the least-squares fits of the decay and Holder studies,
and ``check_tail_decays``, the one judge of whether an integral against a
tabulated law has a tail that decays.

Four sum kernels stand in for scipy's: ``trapezoid``, ``cumulative_trapezoid``
(always zero at the first node), ``logsumexp`` and ``simpson``. Each copies
scipy 1.17's order of operations, so on 1-D float input it gives scipy's
bits, and importing this package loads no scipy module. The compiled solvers,
LAPACK's tridiagonal LU in ``march``, ``eigh_tridiagonal`` in
``spectral_gap`` and, elsewhere, HiGHS in ``metrics`` and ``quad`` in
``stationary.potential``, are imported inside the function that calls them,
once per call.

``march`` chooses its own step count by step doubling: 16 steps, then 32,
64, ..., until the change between two levels, over 3, is at most
``MARCH_TOLERANCE`` = 1e-6 in vol-weighted L1 relative to the state's mass;
8192 steps that still miss it raise ConservationError.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConservationError, FitError, InfiniteMomentError

_GL_NODES, _GL_WEIGHTS = leggauss(10)


def trapezoid(y, x):
    """Trapezoid integral of ``y`` over the grid ``x``."""
    return np.sum((x[1:] - x[:-1]) * (y[1:] + y[:-1]) / 2.0)


def cumulative_trapezoid(y, x):
    """Running trapezoid integral of ``y`` over the grid ``x``, zero at x[0]."""
    out = np.zeros(len(y))
    np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0, out=out[1:])
    return out


def logsumexp(a):
    """log(sum(exp(a))) without overflow; -inf for an empty ``a``.

    The entries at the maximum m are taken out of the shifted sum s, so
    the result is log1p(s / count) + log(count) + m; where that is not
    finite (all -inf, a +inf or a NaN) it is log(sum(exp(a))) itself.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.float64(-np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.max(a)
        at_top = a == top
        count = np.count_nonzero(at_top)
        s = np.sum(np.exp(np.where(at_top, -np.inf, a) - top))
        out = np.log1p(s if s == 0 else s / count) + np.log(count) + top
        return out if np.isfinite(out) else np.log(np.sum(np.exp(a)))


def _ratio(num, den):
    """num / den, zero where den is zero."""
    return np.divide(num, den, out=np.zeros_like(den), where=den != 0)


def simpson(y, x):
    """Composite Simpson integral of ``y`` over the (possibly irregular) grid ``x``.

    Pairs of panels from the left take the irregular three-point rule; an
    even node count adds Cartwright's correction for the last panel, and
    two nodes are a trapezoid.
    """
    n = len(y)
    if n == 2:
        return 0.0 + 0.5 * (x[-1] - x[-2]) * (y[-1] + y[-2])
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(x)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    y0, y1, y2 = y[0:stop:2], y[1:stop + 1:2], y[2:stop + 2:2]
    hsum = h0 + h1
    h0divh1 = _ratio(h0, h1)
    result = np.sum(hsum / 6.0 * (y0 * (2.0 - _ratio(1.0, h0divh1)) + y1 * (hsum * _ratio(hsum, h0 * h1))
                                  + y2 * (2.0 - h0divh1)))
    if n % 2:
        return result
    # 0-d arrays: their powers run numpy's array loops, a float64 scalar's do not
    h0, h1 = np.asarray(h[-2]), np.asarray(h[-1])
    alpha = _ratio(2 * h1**2 + 3 * h0 * h1, 6 * (h1 + h0))
    beta = _ratio(h1**2 + 3.0 * h0 * h1, 6 * h0)
    eta = _ratio(h1**3, 6 * h0 * (h0 + h1))
    # scipy adds 0.0 last (the N = 2 case first), which turns a -0.0 into 0.0
    return result + (alpha * y[-1] + beta * y[-2] - eta * y[-3]) + 0.0


def gauss_panels(func, edges):
    """Integrate ``func`` over each panel [edges[i], edges[i+1]].

    Uses a 10-point Gauss-Legendre rule per panel, vectorized over panels.
    ``func`` must accept an ndarray and return one of the same shape.
    Returns the per-panel integrals, shape ``(len(edges) - 1,)``.
    """
    edges = np.asarray(edges, dtype=float)
    a = edges[:-1]
    h = np.diff(edges)
    pts = a[:, None] + (0.5 * (_GL_NODES + 1.0))[None, :] * h[:, None]
    vals = func(pts)
    return 0.5 * h * (vals @ _GL_WEIGHTS)


def cumulative_gauss(func, grid):
    """Antiderivative of ``func`` sampled on ``grid``, zero at grid[0]."""
    grid = np.asarray(grid, dtype=float)
    out = np.empty(grid.size)
    out[0] = 0.0
    np.cumsum(gauss_panels(func, grid), out=out[1:])
    return out


def log_trapezoid_panels(logf, y):
    """Per-panel log of the trapezoid rule applied to exp(logf), overflow-safe."""
    logf = np.asarray(logf, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(divide="ignore"):
        logh = np.log(np.diff(y))
    return np.logaddexp(logf[:-1], logf[1:]) + logh - np.log(2.0)


def log_trapezoid(logf, y):
    """log of the trapezoid integral of exp(logf) over y, overflow-safe."""
    return float(logsumexp(log_trapezoid_panels(logf, y)))


def equidistribute(probe, weight, n):
    """Place ``n`` nodes on the probe range with local density proportional to weight.

    ``probe`` must be increasing. Endpoints are pinned exactly; interior nodes
    come from inverting the cumulative weight integral, so regions where the
    weight is large receive proportionally more nodes.
    """
    cw = cumulative_trapezoid(weight, probe)
    targets = np.linspace(0.0, cw[-1], n)
    grid = np.interp(targets, cw, probe)
    grid[0] = probe[0]
    grid[-1] = probe[-1]
    return np.unique(grid)


def curvature_weight(values, step):
    """Equidistribution weight |d2 values|^(1/3) with a relative floor.

    The cube-root of the second difference is the classical weight that
    minimizes composite-trapezoid error for a fixed node budget. The floor
    keeps a trickle of nodes in flat regions.
    """
    d2 = np.empty_like(values)
    d2[1:-1] = np.abs(values[2:] - 2.0 * values[1:-1] + values[:-2]) / step**2
    d2[0] = d2[1]
    d2[-1] = d2[-2]
    top = d2.max()
    if top <= 0.0:
        return np.ones_like(values)
    return np.maximum(d2, 1e-12 * top) ** (1.0 / 3.0)


def _bernoulli(p):
    """B(p) = p / (e^p - 1), the exponential-fitting flux weight."""
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    small = np.abs(p) < 1e-8
    big = p > 700.0
    mid = ~(small | big)
    out[small] = 1.0 - 0.5 * p[small]
    out[big] = 0.0
    with np.errstate(over="ignore"):
        out[mid] = p[mid] / np.expm1(p[mid])
    return out


def _flux_operator(grid, drift, diffusion):
    """Generator A of u_t = -(drift u)' + (diffusion u)'' on ``grid``.

    Finite volumes with exponentially fitted (Scharfetter-Gummel) edge
    fluxes in this Ito form. Each edge's Peclet number is the exact panel
    integral of drift/diffusion minus the jump in log diffusion, so
    exp(int drift/diffusion)/diffusion is the exact discrete stationary
    state at the nodes and A is reversible.

    ``drift`` and ``diffusion`` map arrays of points to coefficient arrays.
    Returns the cell volumes ``vol`` and the bands ``(lower, diag, upper)``
    of the tridiagonal A, (A u)[i] = lower[i-1] u[i-1] + diag[i] u[i] +
    upper[i] u[i+1]. No flux leaves through the ends, so vol @ (A u) = 0.
    """
    h = np.diff(grid)
    dcoef = diffusion(grid)
    p = gauss_panels(lambda y: drift(y) / diffusion(y), grid) - np.diff(np.log(dcoef))
    w = np.sqrt(dcoef[:-1] * dcoef[1:]) / h
    a_edge = w * _bernoulli(-p)  # multiplies the left node
    c_edge = w * _bernoulli(p)  # multiplies the right node
    vol = np.empty(grid.size)
    vol[0] = h[0] / 2.0
    vol[-1] = h[-1] / 2.0
    vol[1:-1] = (h[:-1] + h[1:]) / 2.0
    diag = np.zeros(grid.size)
    diag[:-1] -= a_edge / vol[:-1]
    diag[1:] -= c_edge / vol[1:]
    return vol, (a_edge / vol[1:], diag, c_edge / vol[:-1])


# well under the default grid's space error of about 1e-4; 1e-8 made the short
# transient intervals of a decay curve take up to 8192 steps each
MARCH_TOLERANCE = 1e-6
_FIRST_LEVEL = 16
_LAST_LEVEL = 8192


def march(operator, u, duration):
    """u(duration) for u' = A u, with ``operator`` the ``(vol, bands)`` of ``_flux_operator``.

    Step doubling picks the step count: Rannacher-started Crank-Nicolson
    marches the whole interval in n = 16 steps, then 2n, 4n, ..., and the 2n
    result is returned once its error estimate, the change from the n result
    over 3 (the method is second order), is at most ``MARCH_TOLERANCE`` in
    vol-weighted L1 relative to the state's own vol-weighted L1 mass. No
    level up to 8192 steps meeting it raises ConservationError, as does a
    level that ends non-finite (an operator that blows up).
    """
    vol, bands = operator
    coarse = _rannacher_crank_nicolson(bands, u, duration, _FIRST_LEVEL)
    n_steps = 2 * _FIRST_LEVEL
    while n_steps <= _LAST_LEVEL:
        fine = _rannacher_crank_nicolson(bands, u, duration, n_steps)
        if vol @ np.abs(fine - coarse) <= 3.0 * MARCH_TOLERANCE * (vol @ np.abs(fine)):
            return fine
        coarse = fine
        n_steps *= 2
    raise ConservationError(
        f"march over {duration:g} missed the {MARCH_TOLERANCE:g} time tolerance at {_LAST_LEVEL} steps"
    )


def _rannacher_crank_nicolson(bands, u, duration, n_steps):
    """``n_steps`` Crank-Nicolson steps of u' = A u, the first two replaced by a Rannacher start.

    Four backward-Euler half steps replace the first two, or Crank-Nicolson leaves a mode mu
    with dt mu >> 1 ringing; all steps solve with I - (dt/2) A, LU-factored once per call, and a
    Crank-Nicolson step is u -> 2 (I - (dt/2) A)^-1 u - u, since I + (dt/2) A = 2 I - (I - (dt/2) A).
    """
    from scipy.linalg.lapack import dgttrf, dgttrs

    lower, diag, upper = bands
    scale = duration / n_steps / 2.0
    dl, d, du, du2, ipiv, info = dgttrf(-scale * lower, 1.0 - scale * diag, -scale * upper)
    if info != 0:
        raise ConservationError(f"Crank-Nicolson matrix is singular (LAPACK dgttrf info {info})")

    def solve(rhs):
        out, info = dgttrs(dl, d, du, du2, ipiv, rhs)
        if info != 0:
            raise ConservationError(f"tridiagonal solve failed (LAPACK dgttrs info {info})")
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(4):
            u = solve(u)
        for _ in range(n_steps - 2):
            u = 2.0 * solve(u) - u
    if not np.all(np.isfinite(u)):
        raise ConservationError(f"march over {duration:g} in {n_steps} steps left a non-finite state")
    return u


def spectral_gap(bands):
    """Minus the second eigenvalue of the reversible A of ``_flux_operator``, solved on the
    similar symmetric tridiagonal with off-diagonal sqrt(lower * upper)."""
    from scipy.linalg import eigh_tridiagonal

    lower, diag, upper = bands
    n = diag.size
    top = eigh_tridiagonal(diag, np.sqrt(lower * upper), eigvals_only=True, select="i", select_range=(n - 2, n - 1))
    return -float(top[0])


def simpson_ratio(numerator, denominator, grid):
    """Ratio of two Simpson integrals on a shared (possibly irregular) grid.

    Sharing the grid makes any common normalization factor cancel exactly,
    which is what makes density-weighted averages accurate even when the
    stored density is normalized by the cruder trapezoid rule.
    """
    num = simpson(numerator, grid)
    den = simpson(denominator, grid)
    return num / den


def check_tail_decays(grid, integrand, lower, upper, what):
    """Raise InfiniteMomentError naming ``what`` if the integrand's mass grows at an open end.

    ``lower`` and ``upper`` say which ends are open; a wall has no tail. An
    open end fails when its last six trapezoid panel masses
    |v_i + v_{i+1}| h_i / 2 never shrink outward by more than 1e-9 relative
    and the outermost holds more than 1e-9 of the total. Mass, not height,
    is what truncation loses. Grids of fewer than seven nodes pass.
    """
    panels = 0.5 * np.abs(integrand[1:] + integrand[:-1]) * np.diff(grid)
    total = float(np.sum(panels))
    if total == 0.0 or panels.size < 6:
        return
    for is_open, end, tail in ((upper, "upper", panels[-6:]), (lower, "lower", panels[5::-1])):
        # tolerance so a flat integrand wobbling at roundoff still counts
        if is_open and np.all(np.diff(tail) >= -1e-9 * tail[:-1]) and tail[-1] > 1e-9 * total:
            raise InfiniteMomentError(
                f"{what} is undefined: the integrand's mass does not decay toward the {end} end"
            )


def reflect_fold(values, lower=None, upper=None):
    """Mirror (Skorokhod) reflection of values into the declared interval.

    Handles multiple boundary crossings in one call: the two-sided case folds
    through the triangle wave of period twice the interval length, which is
    the exact result of repeated mirror reflections.
    """
    if lower is None and upper is None:
        return values
    if lower is not None and upper is None:
        return lower + np.abs(values - lower)
    if lower is None and upper is not None:
        return upper - np.abs(upper - values)
    span = upper - lower
    z = np.mod(values - lower, 2.0 * span)
    return lower + span - np.abs(z - span)


def _log_linear_fit(u, v):
    """Least squares of log(v) against u: (slope, intercept, r_squared)."""
    slope, intercept = np.polyfit(u, np.log(v), 1)
    resid = np.log(v) - (slope * u + intercept)
    total = np.log(v) - np.mean(np.log(v))
    denom = float(np.dot(total, total))
    r2 = 1.0 if denom == 0.0 else 1.0 - float(np.dot(resid, resid)) / denom
    return slope, intercept, r2


def fit_exponential_decay(times, values, value_ceiling=None, value_floor=1e-12):
    """Least squares of log(values) against times.

    Returns (amplitude, rate, r_squared) for the model A * exp(-rate * t).
    Points outside (value_floor, value_ceiling) are dropped before fitting;
    the ceiling selects the tail region of a decay curve.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = v > value_floor
    if value_ceiling is not None:
        keep &= v < value_ceiling
    t, v = t[keep], v[keep]
    if t.size < 2:
        window = f"{value_floor!r} < value" + ("" if value_ceiling is None else f" < {value_ceiling!r}")
        raise FitError(f"need at least two points inside the fit window {window}, found {t.size}")
    slope, intercept, r2 = _log_linear_fit(t, v)
    return float(np.exp(intercept)), float(-slope), r2


def fit_power_law(deltas, values):
    """Least squares of log(values) against log(deltas).

    Returns (constant, exponent, r_squared) for the model C * delta**exponent.
    """
    d = np.asarray(deltas, dtype=float)
    v = np.asarray(values, dtype=float)
    keep = (d > 0.0) & (v > 0.0)
    d, v = d[keep], v[keep]
    if d.size < 2:
        raise FitError("need at least two positive (delta, value) pairs")
    slope, intercept, r2 = _log_linear_fit(np.log(d), v)
    return float(np.exp(intercept)), float(slope), r2


def extrapolate_to_zero(deltas, values):
    """Polynomial extrapolation of (deltas, values) to delta = 0.

    Lagrange interpolation through the last three points (or fewer when
    fewer are supplied), evaluated at zero. Richardson-style: exact for
    data polynomial in delta of matching degree.
    """
    d = np.asarray(deltas, dtype=float)[-3:]
    v = np.asarray(values, dtype=float)[-3:]
    if d.size == 1:
        return float(v[0])
    out = 0.0
    for i in range(d.size):
        term = v[i]
        for j in range(d.size):
            if j != i:
                term *= (0.0 - d[j]) / (d[i] - d[j])
        out += term
    return float(out)


def union_grid(*grids):
    """Sorted union of several 1-D grids."""
    return np.unique(np.concatenate([np.asarray(g, dtype=float) for g in grids]))


def abs_linear_integral(left, right, widths):
    """Exact integral of |v| for v piecewise linear with nodal values given.

    ``left`` and ``right`` are the values at the two ends of each cell and
    ``widths`` the cell lengths. Unlike the plain trapezoid rule this stays
    exact across sign changes, so integrals of |p - q| inherit the triangle
    inequality of the underlying functions up to roundoff.
    """
    a = np.asarray(left, dtype=float)
    b = np.asarray(right, dtype=float)
    h = np.asarray(widths, dtype=float)
    same = a * b >= 0.0
    denom = np.abs(a) + np.abs(b)
    cross = np.divide(a * a + b * b, 2.0 * denom, out=np.zeros_like(denom), where=denom > 0.0)
    per_cell = np.where(same, 0.5 * (np.abs(a) + np.abs(b)), cross)
    return float(np.sum(per_cell * h))
