"""Model registry for fully coupled slow-fast diffusion pairs.

A model couples a slow equation

    dX = b(X, Y) dt + sigma(X, Y) dW

to a fast equation run at relative speed 1/epsilon

    dY = (1/epsilon) f(X, Y) dt + (1/sqrt(epsilon)) g(X, Y) dB,

with W, B independent Brownian motions and each coordinate confined to its
declared domain by mirror reflection where the domain has a boundary.

Three built-in models are registered:

``example21``
    Slow state reflected on [0, 1], fast state reflected on [0, inf).
    b(x, y) = sigma(x, y) = y; the fast drift is built so that the frozen
    fast process has the exact mixture density
    pi_x(y) = x^2 exp(-x y) + (1 - x) exp(-y), which makes the averaged
    drift 2 - x on (0, 1] but 1 at x = 0: a jump discontinuity of the
    averaged equation at the boundary.

``ou-coupled``
    Both states on the full line. The frozen fast process is an
    Ornstein-Uhlenbeck process centered at the slow state, so all averaged
    quantities have closed Gaussian forms.

``pure-fast-l2``
    Slow equation dX = Y dW driven by an autonomous fast Ornstein-Uhlenbeck
    process. The averaged equation dXbar = dW (same driving W) matches X in
    law as epsilon -> 0 while the mean-square gap E|X_T - Xbar_T|^2 tends to
    2 T: weak convergence without L2 convergence.

Coefficients are plain numpy formulas of float arrays ``(x, y)`` that may
return anything broadcasting against them, Python float constants
included; the consumers that tabulate them along a grid broadcast them
through ``_evaluate``. Evaluation is pure: identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, UnknownModelError
from .numerics import reflect_fold

FULL_LINE = "full-line"
HALF_LINE = "half-line-reflecting"
INTERVAL = "interval-reflecting"


@dataclass(frozen=True)
class StateDomain:
    """Domain of one state coordinate.

    Parameters
    ----------
    kind : str
        One of ``full-line``, ``half-line-reflecting`` (lower bound only),
        ``interval-reflecting`` (both bounds).
    lower, upper : float or None
        Finite bounds where the kind requires them.
    """

    kind: str
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        if self.kind not in (FULL_LINE, HALF_LINE, INTERVAL):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.kind == HALF_LINE and self.lower is None:
            raise DomainError("half-line domain needs a lower bound")
        if self.kind == INTERVAL and (self.lower is None or self.upper is None):
            raise DomainError("interval domain needs both bounds")
        if self.lower is not None and self.upper is not None and not self.lower < self.upper:
            raise DomainError("domain bounds must satisfy lower < upper")

    @property
    def bounded_below(self):
        return self.lower is not None

    @property
    def bounded_above(self):
        return self.upper is not None

    def contains(self, values, tol=0.0):
        v = np.asarray(values, dtype=float)
        ok = np.isfinite(v)
        if self.lower is not None:
            ok &= v >= self.lower - tol
        if self.upper is not None:
            ok &= v <= self.upper + tol
        return ok

    def reflect(self, values):
        """Mirror-fold values back into the domain."""
        return reflect_fold(values, self.lower, self.upper)

    def anchor(self):
        """Reference point for potential integrals: lower bound, or 0 on the line."""
        return 0.0 if self.lower is None else self.lower


@dataclass(frozen=True)
class CoefficientSet:
    """Plain numpy formulas (x, y) -> values that broadcast against (x, y), constants included."""

    b: callable
    sigma: callable
    f: callable
    g: callable


@dataclass(frozen=True)
class AnalyticInfo:
    """Optional closed forms used as overrides and test oracles.

    ``stationary_density`` maps (x, y) to the frozen invariant density,
    ``averaged_drift`` and ``averaged_diffusion`` map x to bbar(x) and
    abar(x) respectively. Any field may be None.
    """

    stationary_density: callable | None = None
    averaged_drift: callable | None = None
    averaged_diffusion: callable | None = None


@dataclass(frozen=True)
class ModelSpec:
    """Complete description of one slow-fast pair."""

    name: str
    coefficients: CoefficientSet
    slow_domain: StateDomain
    fast_domain: StateDomain
    dim_slow: int = 1
    dim_fast: int = 1
    description: str = ""
    analytic: AnalyticInfo | None = None
    assumption_constants: dict = field(default_factory=dict)


def _evaluate(coef, x, y):
    """coef(x, y) as a read-only float array of the broadcast shape of (x, y)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return np.broadcast_to(np.asarray(coef(x, y), dtype=float), np.broadcast_shapes(x.shape, y.shape))


def eval_coefficients(model, x, y):
    """(b, sigma, f, g) at a state as read-only arrays of the broadcast shape of (x, y).

    Raises
    ------
    DomainError
        If either coordinate lies outside its domain; the message names the
        offending coordinate and value.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if not np.all(model.slow_domain.contains(xv)):
        bad = xv[~model.slow_domain.contains(xv)].flat[0]
        raise DomainError(f"slow coordinate {bad!r} outside {model.slow_domain.kind} domain")
    if not np.all(model.fast_domain.contains(yv)):
        bad = yv[~model.fast_domain.contains(yv)].flat[0]
        raise DomainError(f"fast coordinate {bad!r} outside {model.fast_domain.kind} domain")
    c = model.coefficients
    return tuple(_evaluate(coef, xv, yv) for coef in (c.b, c.sigma, c.f, c.g))


# ---------------------------------------------------------------------------
# built-in models


def _example21_fast_drift(x, y):
    # f(x, y) = -(x^3 e^{-xy} + (1-x) e^{-y}) / (x^2 e^{-xy} + (1-x) e^{-y})
    # evaluated through shifted exponentials so that neither term can
    # overflow or produce 0/0 anywhere on [0,1] x [0,inf).
    with np.errstate(divide="ignore"):
        la = 2.0 * np.log(np.maximum(x, 0.0)) - x * y       # log(x^2 e^{-xy})
        lb = np.log1p(-np.minimum(x, 1.0)) - y              # log((1-x) e^{-y})
    m = np.maximum(la, lb)
    wa = np.exp(la - m)
    wb = np.exp(lb - m)
    return -(x * wa + wb) / (wa + wb)


def _example21_density(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return x * x * np.exp(-x * y) + (1.0 - x) * np.exp(-y)


def _example21_bbar(x):
    x = np.asarray(x, dtype=float)
    return np.where(x > 0.0, 2.0 - x, 1.0)


def _example21_abar(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x > 0.0, 2.0 / np.maximum(x, 1e-300) + 2.0 * (1.0 - x), 2.0)


_SQRT2 = math.sqrt(2.0)
_EXP_HALF = math.exp(-0.5)


def _gaussian_density(mean):
    def density(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        m = mean(x)
        return np.exp(-0.5 * (y - m) ** 2) / math.sqrt(2.0 * math.pi)

    return density


_REGISTRY: dict[str, ModelSpec] = {}


def _register(model):
    _REGISTRY[model.name] = model
    return model


_register(
    ModelSpec(
        name="example21",
        coefficients=CoefficientSet(
            b=lambda x, y: y,
            sigma=lambda x, y: y,
            f=_example21_fast_drift,
            g=lambda x, y: _SQRT2,
        ),
        slow_domain=StateDomain(INTERVAL, 0.0, 1.0),
        fast_domain=StateDomain(HALF_LINE, 0.0),
        description=(
            "reflected pair on [0,1] x [0,inf) whose averaged drift jumps at x = 0; "
            "frozen invariant density is the exponential mixture "
            "x^2 exp(-x y) + (1-x) exp(-y)"
        ),
        analytic=AnalyticInfo(
            stationary_density=_example21_density,
            averaged_drift=_example21_bbar,
            averaged_diffusion=_example21_abar,
        ),
    )
)

_register(
    ModelSpec(
        name="ou-coupled",
        coefficients=CoefficientSet(
            b=lambda x, y: -x + np.sin(y),
            sigma=lambda x, y: np.sqrt(1.0 + 0.5 * np.cos(y)),
            f=lambda x, y: x - y,
            g=lambda x, y: _SQRT2,
        ),
        slow_domain=StateDomain(FULL_LINE),
        fast_domain=StateDomain(FULL_LINE),
        description=(
            "fully coupled pair on the line; frozen fast process is "
            "Ornstein-Uhlenbeck centered at the slow state, so the invariant "
            "measure is normal(x, 1) and averaged coefficients are Gaussian "
            "integrals with closed forms"
        ),
        analytic=AnalyticInfo(
            stationary_density=_gaussian_density(lambda x: np.asarray(x, float)),
            averaged_drift=lambda x: -np.asarray(x, float) + np.sin(np.asarray(x, float)) * _EXP_HALF,
            averaged_diffusion=lambda x: 1.0 + 0.5 * np.cos(np.asarray(x, float)) * _EXP_HALF,
        ),
        assumption_constants={"K3": 1.0, "lambda2": 1.0},
    )
)

_register(
    ModelSpec(
        name="pure-fast-l2",
        coefficients=CoefficientSet(
            b=lambda x, y: 0.0,
            sigma=lambda x, y: y,
            f=lambda x, y: -y,
            g=lambda x, y: _SQRT2,
        ),
        slow_domain=StateDomain(FULL_LINE),
        fast_domain=StateDomain(FULL_LINE),
        description=(
            "slow equation dX = Y dW driven by an autonomous fast "
            "Ornstein-Uhlenbeck process with standard normal invariant law; "
            "the averaged equation dXbar = dW shares the driving Brownian "
            "motion, exhibiting weak convergence with mean-square gap 2T"
        ),
        analytic=AnalyticInfo(
            stationary_density=_gaussian_density(lambda x: np.zeros(np.shape(x))),
            averaged_drift=lambda x: np.zeros(np.shape(np.asarray(x, float))),
            averaged_diffusion=lambda x: np.ones(np.shape(np.asarray(x, float))),
        ),
        assumption_constants={"lambda2": 1.0},
    )
)


def list_builtin_models():
    """Names of the registered models, sorted."""
    return sorted(_REGISTRY)


def get_builtin(name):
    """Look up a registered model by name.

    Raises UnknownModelError listing the available names when absent.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownModelError(
            f"no model named {name!r}; available: {', '.join(list_builtin_models())}"
        ) from None


# ---------------------------------------------------------------------------
# assumption checking

PASS = "pass"
FAIL = "fail"
CAVEAT = "caveat"

_WITNESS_TOL = 1e-9


def _plain(obj):
    """The JSON-ready copy of ``obj``: tuples and arrays become lists, numpy scalars Python ones."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


class _Report:
    """Base of every report dataclass: ``as_dict`` is its fields, in order, as plain data."""

    def as_dict(self) -> dict:
        return _plain(asdict(self))


@dataclass
class ConditionCheck(_Report):
    """Outcome of one sampled inequality family."""

    name: str
    status: str
    estimated_constant: float | None = None
    witness: tuple | None = None
    note: str = ""


@dataclass
class AssumptionReport(_Report):
    """Sampled evidence for the structural conditions of one model.

    A ``pass`` is evidence on the sampled grid, not a proof; ``fail``
    carries a concrete witness tuple where the inequality is violated
    beyond tolerance; ``caveat`` flags suprema that keep growing toward
    an unbounded domain edge, where no finite constant can exist.
    """

    model: str
    n_samples: int
    checks: dict

    def __getitem__(self, key):
        return self.checks[key]


def _sup_with_growth(values, order_by):
    """Sampled supremum plus a flag for growth toward the sample edge.

    Splits the sample at the median of |order_by|; when the outer half's
    supremum exceeds the inner half's by more than 20 percent the supremum
    is still growing with the probed range.
    """
    mag = np.abs(order_by)
    cut = np.median(mag)
    inner = values[mag <= cut]
    outer = values[mag > cut]
    if inner.size == 0 or outer.size == 0:
        return float(np.max(values)), False
    grows = float(np.max(outer)) > 1.2 * max(float(np.max(inner)), 1e-300)
    return float(np.max(values)), grows


def _bounded_check(name, values, order_by, unbounded):
    """sup of values; a caveat when it grows toward an unbounded domain edge."""
    k, grows = _sup_with_growth(values, order_by)
    if grows and unbounded:
        return ConditionCheck(name, CAVEAT, k, note="sampled supremum grows with the probed range")
    return ConditionCheck(name, PASS, k)


def _nondegenerate_check(name, squares, xs, ys, note):
    """inf of squares; a failure with the witness state (x, y) when it is <= _WITNESS_TOL."""
    i = int(np.argmin(squares))
    low = float(squares[i])
    if low <= _WITNESS_TOL:
        return ConditionCheck(name, FAIL, low, witness=(xs[i], ys[i]), note=note)
    return ConditionCheck(name, PASS, low)


def check_assumptions(model, grid):
    """Evaluate sampled versions of the structural conditions on a tuple grid.

    Parameters
    ----------
    model : ModelSpec
    grid : array-like, shape (n, 4)
        Sample tuples (x, y, x', y'). All coordinates must lie in the
        respective domains; rows are interpreted as two slow-fast states
        plus, for the coupled-drift condition, a displacement read from
        the fourth column.

    Returns
    -------
    AssumptionReport
        One ConditionCheck per condition: slow-lipschitz, slow-bounded,
        slow-elliptic, fast-coupled-lipschitz, fast-bounded,
        fast-nondegenerate.

    Notes
    -----
    Estimated constants are maxima (or infima) of the sampled inequality
    ratios; tuples where a denominator vanishes are skipped. Boundedness
    checks on unbounded domains report a caveat whenever the sampled
    supremum keeps increasing toward the edge of the probed box, since no
    finite bound can hold there.
    """
    pts = np.asarray(grid, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ConfigError("tuple grid must have shape (n, 4)")
    x1, y1, x2, y2 = pts.T
    # both states of every tuple in one sample; row i of the grid is entries i and n + i
    n = x1.size
    xs, ys = np.concatenate([x1, x2]), np.concatenate([y1, y2])
    b, s, f, g = eval_coefficients(model, xs, ys)
    (b1, b2), (s1, s2), (f1, f2), (g1, g2) = ((v[:n], v[n:]) for v in (b, s, f, g))
    order = np.abs(xs) + np.abs(ys)
    checks = {}

    # slow-lipschitz: |b(p1)-b(p2)|^2 + |sigma(p1)-sigma(p2)|^2
    #                 <= K1 (|x1-x2|^2 + |y1-y2|^2)
    den = (x1 - x2) ** 2 + (y1 - y2) ** 2
    num = (b1 - b2) ** 2 + (s1 - s2) ** 2
    mask = den > 0.0
    k1 = float(np.max(num[mask] / den[mask])) if np.any(mask) else 0.0
    checks["slow-lipschitz"] = ConditionCheck("slow-lipschitz", PASS, k1)

    # slow-bounded: sup |b| + |sigma|; slow-elliptic: inf sigma sigma^T > 0
    unbounded = model.slow_domain.kind == FULL_LINE or model.fast_domain.kind != INTERVAL
    checks["slow-bounded"] = _bounded_check("slow-bounded", np.abs(b) + np.abs(s), order, unbounded)
    checks["slow-elliptic"] = _nondegenerate_check(
        "slow-elliptic", s**2, xs, ys, "diffusion matrix degenerate at witness"
    )

    # fast-coupled-lipschitz, first family:
    # (f(x1, y) - f(x2, y)) . z <= K3 |x1 - x2| |z| with y = y1, z = y2
    num1 = (f1 - eval_coefficients(model, x2, y1)[2]) * y2
    den1 = np.abs(x1 - x2) * np.abs(y2)
    m1 = den1 > 0.0
    r1 = float(np.max(num1[m1] / den1[m1])) if np.any(m1) else 0.0
    # second family:
    # (f(p1) - f(p2)) . (y1 - y2) + |g(p1) - g(p2)|^2 <= K3 (|x1-x2|^2 + |y1-y2|^2)
    num2 = (f1 - f2) * (y1 - y2) + (g1 - g2) ** 2
    r2 = float(np.max(num2[mask] / den[mask])) if np.any(mask) else 0.0
    checks["fast-coupled-lipschitz"] = ConditionCheck(
        "fast-coupled-lipschitz", PASS, max(r1, r2, 0.0)
    )

    # fast-bounded: sup |f| + |g|; fast-nondegenerate: inf g g^T > 0
    unbounded = model.fast_domain.kind != INTERVAL
    checks["fast-bounded"] = _bounded_check("fast-bounded", np.abs(f) + np.abs(g), order, unbounded)
    checks["fast-nondegenerate"] = _nondegenerate_check(
        "fast-nondegenerate", g**2, xs, ys, "fast diffusion degenerate at witness"
    )

    return AssumptionReport(model=model.name, n_samples=pts.shape[0], checks=checks)


def sample_tuple_grid(model, n, seed=0, slow_box=None, fast_box=None):
    """Draw n random (x, y, x', y') tuples inside the model domains.

    Unbounded directions default to the box [-3, 3] (or [bound, bound + 6]).
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def box(dom, given):
        if given is not None:
            return given
        lo = dom.lower if dom.lower is not None else -3.0
        hi = dom.upper if dom.upper is not None else lo + 6.0
        return lo, hi

    sl, sh = box(model.slow_domain, slow_box)
    fl, fh = box(model.fast_domain, fast_box)
    x = rng.uniform(sl, sh, size=(n, 2))
    y = rng.uniform(fl, fh, size=(n, 2))
    return np.column_stack([x[:, 0], y[:, 0], x[:, 1], y[:, 1]])
