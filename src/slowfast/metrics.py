"""Distances between probability measures on the line.

Three metrics, each available for the representation it makes sense on:

* total variation with the factor-2 convention (range [0, 2]), as the L1
  distance of densities or the unmatched atom mass of sample measures;
* L1-Wasserstein, as the integral of |F_p - F_q| for densities and the
  exact sorted-sample transport cost for empirical measures (mixed pairs
  integrate the two CDF representations against each other exactly);
* bounded-Lipschitz (Fortet-Mourier), as the exact transport cost for the
  truncated ground cost min(|u - v|, 2) between atomized measures, solved
  in its Kantorovich-Rubinstein dual: a chain program on the sorted atoms.

The truncated cost is a metric on the line, and both CDF routes are exact
for the discretized inputs, so on sample measures symmetry, the triangle
inequality, and the orderings wbl <= w1 and wbl <= tv hold at solver
precision, not just up to quadrature error. That is what the property
suite leans on. Densities enter wbl as 256 equal-mass atoms at their bins'
centroids, which keeps wbl <= w1 but lets wbl exceed tv by up to each
density's W1 distance to its atoms: on ``example21``, pi^0.01 against pi^0
gives wbl 0.0306 against tv 0.0189. W1 of a density first passes
``numerics.check_tail_decays`` on |y| rho at the density's open ends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResolutionError, SlowfastError
from .numerics import abs_linear_integral, check_tail_decays, cumulative_trapezoid, union_grid
from .stationary import Density1D, EmpiricalMeasure

ATOM_CAP = 512
DEFAULT_ATOMS = 256


@dataclass(frozen=True)
class DistanceReport:
    """One computed distance with its method and resolution on record."""

    metric: str
    value: float
    method: str
    resolution: int

    def as_dict(self):
        return {
            "metric": self.metric,
            "value": self.value,
            "method": self.method,
            "resolution": self.resolution,
        }


def _is_density(m):
    if isinstance(m, Density1D):
        return True
    if isinstance(m, EmpiricalMeasure):
        return False
    raise ConfigError(f"expected Density1D or EmpiricalMeasure, got {type(m).__name__}")


def tv_distance(p, q) -> float:
    """Total variation, factor-2 convention: identical -> 0, disjoint -> 2.

    Density pairs integrate |rho_p - rho_q| exactly for the piecewise-linear
    interpolants on the union grid (zero extension outside each grid).
    Sample pairs count unmatched atom mass: 2 (1 - shared mass).
    """
    pd, qd = _is_density(p), _is_density(q)
    if pd != qd:
        raise ConfigError("tv_distance needs two densities or two sample measures")
    if pd:
        u = union_grid(p.grid, q.grid)
        diff = p.interpolate(u) - q.interpolate(u)
        return abs_linear_integral(diff[:-1], diff[1:], np.diff(u))
    ap, wp = _atomize_empirical(p, cap=None)
    aq, wq = _atomize_empirical(q, cap=None)
    # identical atom systems short-circuit so self-distance is exactly 0
    if ap.size == aq.size and np.array_equal(ap, aq) and np.array_equal(wp, wq):
        return 0.0
    shared, ip, iq = np.intersect1d(ap, aq, return_indices=True)
    overlap = np.minimum(wp[ip], wq[iq]).sum() if shared.size else 0.0
    return float(max(2.0 * (1.0 - overlap), 0.0))


def w1_density(p: Density1D, q: Density1D) -> float:
    """W1 between densities: integral of |F_p - F_q| over the union grid."""
    if not (_is_density(p) and _is_density(q)):
        raise ConfigError("w1_density needs two densities")
    return w1_distance(p, q)


def w1_empirical(a: EmpiricalMeasure, b: EmpiricalMeasure) -> float:
    """Exact W1 between empirical measures.

    Equal sizes reduce to the mean gap of sorted samples; unequal sizes
    integrate the step CDFs, which is the same transport cost.
    """
    if _is_density(a) or _is_density(b):
        raise ConfigError("w1_empirical needs two sample measures")
    if a.n_samples == b.n_samples:
        return float(np.mean(np.abs(a.samples - b.samples)))
    return w1_distance(a, b)


def w1_distance(p, q) -> float:
    """W1 for any mix of density and sample representations.

    Both CDFs are piecewise linear (densities) or piecewise constant
    (samples) on the union of their nodes, so each segment integrates in
    closed form.
    """
    for m in (p, q):
        if _is_density(m):
            check_tail_decays(m.grid, np.abs(m.grid) * m.values, *m.open_ends, "W1")
    points = union_grid(
        p.grid if _is_density(p) else p.samples,
        q.grid if _is_density(q) else q.samples,
    )
    if points.size < 2:
        return 0.0

    def ends(m):
        # CDF values at the left and right end of every union segment
        if _is_density(m):
            c = m.cdf_at(points)
            return c[:-1], c[1:]
        c = np.searchsorted(m.samples, points, side="right") / m.n_samples
        return c[:-1], c[:-1]

    pl, pr = ends(p)
    ql, qr = ends(q)
    return abs_linear_integral(pl - ql, pr - qr, np.diff(points))


def _atomize_empirical(m: EmpiricalMeasure, cap=ATOM_CAP):
    atoms, counts = np.unique(m.samples, return_counts=True)
    if cap is not None and atoms.size > cap:
        raise ResolutionError(
            f"{atoms.size} distinct atoms exceed the transport cap {cap}; coarsen first"
        )
    return atoms, counts / m.n_samples


def _atomize_density(d: Density1D, n_atoms):
    # equal-mass bins; each atom sits at its bin's mass centroid
    edges_q = np.linspace(0.0, 1.0, n_atoms + 1)
    edges_y = np.interp(edges_q, d.cdf, d.grid)
    m1 = cumulative_trapezoid(d.grid * d.values, d.grid)
    m1_at = np.interp(edges_y, d.grid, m1)
    centroids = (m1_at[1:] - m1_at[:-1]) * n_atoms
    lo, hi = edges_y[:-1], edges_y[1:]
    centroids = np.clip(centroids, lo, hi)
    return centroids, np.full(n_atoms, 1.0 / n_atoms)


def atomize(measure, n_atoms=DEFAULT_ATOMS):
    """(positions, weights) with at most ATOM_CAP atoms.

    Sample measures keep their distinct atoms (error beyond the cap);
    densities are aggregated into ``n_atoms`` equal-mass bins at the bins'
    centroids.
    """
    if n_atoms > ATOM_CAP:
        raise ResolutionError(f"n_atoms = {n_atoms} exceeds the transport cap {ATOM_CAP}")
    if _is_density(measure):
        return _atomize_density(measure, n_atoms)
    return _atomize_empirical(measure)


def _transport_cost(u, wu, v, wv):
    from scipy.optimize import linprog
    from scipy.sparse import diags, vstack

    # up to a constant, f is 1-Lipschitz for min(|u - v|, 2) on the sorted
    # atoms exactly when 0 <= f <= 2 and |f_{i+1} - f_i| <= gap_i
    points, at = np.unique(np.concatenate([u, v]), return_inverse=True)
    c = np.bincount(at, weights=np.concatenate([wu, -wv]))
    gaps = np.diff(points)
    diff = diags([-1.0, 1.0], [0, 1], shape=(gaps.size, points.size))
    res = linprog(
        -c,
        A_ub=vstack([diff, -diff]).tocsr(),
        b_ub=np.concatenate([gaps, gaps]),
        bounds=(0.0, 2.0),
        method="highs",
    )
    if not res.success:
        raise SlowfastError(f"transport solve failed: {res.message}")
    return max(0.0, -float(res.fun))


def wbl_distance(p, q) -> float:
    """Bounded-Lipschitz distance via exact transport with cost min(|u-v|, 2).

    Inputs are atomized (see :func:`atomize`) and the transport program is
    solved exactly in its dual: maximize the integral of f against the mass
    difference over f with values in [0, 2] that steps between neighbouring
    atoms by at most their gap, one variable per distinct atom. The optimum
    is the transport cost, so the value inherits the metric axioms of the
    truncated ground cost. Argument order is canonicalized before the
    solve, making symmetry exact rather than approximate.
    """
    u, wu = atomize(p)
    v, wv = atomize(q)
    if u.size == v.size and np.array_equal(u, v) and np.array_equal(wu, wv):
        return 0.0
    ku = (u.tobytes(), wu.tobytes())
    kv = (v.tobytes(), wv.tobytes())
    if kv < ku:
        u, wu, v, wv = v, wv, u, wu
    return _transport_cost(u, wu, v, wv)


def measure_distance(metric, p, q) -> DistanceReport:
    """Uniform entry point used by the command line: one metric, one report."""
    pd = _is_density(p)
    qd = _is_density(q)
    if metric == "tv":
        value = tv_distance(p, q)
        method = "quadrature" if pd else "sorted-samples"
        resolution = union_grid(p.grid, q.grid).size if pd else p.n_samples + q.n_samples
    elif metric == "w1":
        value = w1_distance(p, q)
        if pd and qd:
            method = "cdf-integral"
            resolution = union_grid(p.grid, q.grid).size
        elif not pd and not qd:
            method = "sorted-samples"
            resolution = p.n_samples + q.n_samples
        else:
            method = "cdf-integral"
            resolution = (p.grid.size if pd else p.n_samples) + (q.grid.size if qd else q.n_samples)
    elif metric == "wbl":
        value = wbl_distance(p, q)
        method = "discrete-transport"
        resolution = atomize(p)[0].size + atomize(q)[0].size
    else:
        raise ConfigError(f"unknown metric {metric!r}; expected tv, w1, or wbl")
    return DistanceReport(metric=metric, value=value, method=method, resolution=int(resolution))
