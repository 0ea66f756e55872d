"""Euler-Maruyama integration of coupled, frozen, and averaged equations.

Discretization
--------------
Coupled runs advance both states on a single uniform fast grid of step
h = dt / ceil(dt / (epsilon * fast_substep)), so h never exceeds
epsilon * fast_substep and an integer number of fast steps tiles each slow
step dt. States are pushed back into their domains by mirror reflection
after every step. Frozen runs integrate the fast equation alone at unit
time scale; averaged runs step the one-dimensional averaged equation
directly on the dt grid.

Randomness
----------
Every path owns counter-based streams keyed by
(seed, path index, equation tag, variant) through Philox. The key layout
makes ensembles reproducible bit for bit regardless of chunking, and
lets an averaged run replay exactly the slow-equation Gaussian
increments that a coupled run consumed (``paired=True``), which is what
makes pathwise comparisons of the two equations meaningful.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import BlowUpError, ConfigError
from .models import ModelSpec

EQ_SLOW = 0
EQ_FAST = 1
EQ_AVG = 2

_STORE_MODES = ("terminal", "full", "strided")
# SimConfig fields by their annotation (a string under postponed evaluation)
_NUMBER_KINDS = {"int": numbers.Integral, "float": numbers.Real}

# dt may not exceed this multiple of epsilon in coupled runs; larger ratios
# mean the caller is silently under-resolving the fast equation.
_STIFFNESS_GUARD = 0.1


def path_stream(seed, path_index, equation_tag, variant=0):
    """Counter-based generator for one (path, equation) pair."""
    ss = np.random.SeedSequence(entropy=(seed, path_index, equation_tag, variant))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class SimConfig:
    """Ensemble configuration shared by all simulators.

    Attributes
    ----------
    epsilon : float
        Time-scale separation; must be positive.
    dt : float
        Slow storage/reporting step. Coupled runs refine it internally.
    horizon : float
        Final time T; must exceed dt.
    n_paths : int
        Ensemble size.
    seed : int
        Root of every stream key; nonnegative.
    store : str
        ``terminal`` keeps only t = T, ``full`` keeps every slow step,
        ``strided`` keeps every ``stride``-th slow step plus the endpoint.
    x0, y0 : float
        Deterministic initial states.
    fast_substep : float
        Fast-grid calibration h0: coupled runs use h <= epsilon * h0,
        frozen runs h <= h0.
    chunk_size : int
        Paths integrated per vectorized block; affects memory only, never
        results.
    """

    epsilon: float
    dt: float
    horizon: float
    n_paths: int
    seed: int
    store: str = "terminal"
    stride: int = 1
    x0: float = 0.5
    y0: float = 1.0
    fast_substep: float = 1e-2
    chunk_size: int = 1024

    def __post_init__(self):
        for f in fields(self):
            v, kind = getattr(self, f.name), _NUMBER_KINDS.get(f.type)
            if kind and (isinstance(v, bool) or not isinstance(v, kind) or not abs(v) < np.inf):
                word = "an integer" if f.type == "int" else "a finite real number"
                raise ConfigError(f"{f.name} must be {word}, got {v!r}")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.epsilon <= 0.0:
            raise ConfigError("epsilon must be positive")
        if self.dt <= 0.0:
            raise ConfigError("dt must be positive")
        if not self.dt < self.horizon:
            raise ConfigError("dt must be smaller than horizon")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be at least 1")
        if self.store not in _STORE_MODES:
            raise ConfigError(f"store must be one of {_STORE_MODES}")
        if self.store == "strided" and self.stride < 1:
            raise ConfigError("stride must be at least 1")
        if self.fast_substep <= 0.0:
            raise ConfigError("fast_substep must be positive")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be at least 1")

    def n_slow_steps(self):
        n = int(round(self.horizon / self.dt))
        if abs(n * self.dt - self.horizon) > 1e-9 * max(1.0, self.horizon):
            raise ConfigError("horizon must be an integer multiple of dt")
        return n

    def stored_indices(self):
        n = self.n_slow_steps()
        if self.store == "terminal":
            return np.array([n])
        if self.store == "full":
            return np.arange(n + 1)
        idx = np.arange(0, n + 1, self.stride)
        if idx[-1] != n:
            idx = np.append(idx, n)
        return idx


@dataclass(frozen=True)
class Ensemble:
    """Stored states of many paths on the slow grid.

    ``slow`` and ``fast`` have shape (n_paths, n_stored); ``fast`` is None
    for averaged runs. Row i holds path i, whose random streams are keyed
    by the path index i.
    """

    times: np.ndarray
    slow: np.ndarray
    fast: np.ndarray | None

    @property
    def n_paths(self):
        return self.slow.shape[0]

    def terminal_slow(self):
        return self.slow[:, -1]


def _draw_rows(seed, p0, p1, tag, variant, n_draws):
    out = np.empty((p1 - p0, n_draws))
    for i, p in enumerate(range(p0, p1)):
        out[i] = path_stream(seed, p, tag, variant).standard_normal(n_draws)
    return out


def _check_finite(x, step, p0):
    if np.all(np.isfinite(x)):
        return
    bad = int(np.flatnonzero(~np.isfinite(x))[0])
    raise BlowUpError(
        f"path {p0 + bad} became non-finite at fast step {step}",
        path_index=p0 + bad,
        step=step,
    )


def _euler_loop(config, n_sub, draw, start, step, record=lambda state: state):
    """The Euler-Maruyama loop behind every simulator, one chunk of paths at a time.

    ``draw(p0, p1)`` returns the chunk's noise as a tuple of arrays with one
    row per path, column k feeding step k + 1. ``start(n)`` is the initial
    state of n paths, a tuple of arrays, and ``step(state, columns)`` the
    next one; every component is checked for finiteness after every step.
    ``record(state)``, the state itself by default, gives the arrays stored
    on the ``config.store`` grid, whose slow step spans ``n_sub`` loop steps. Returns the stored times and
    one (n_paths, n_stored) array per recorded quantity.
    """
    stored = config.stored_indices()
    store_at = {int(j) * n_sub: k for k, j in enumerate(stored)}
    n_steps = config.n_slow_steps() * n_sub
    out = None
    for p0 in range(0, config.n_paths, config.chunk_size):
        p1 = min(p0 + config.chunk_size, config.n_paths)
        noise = draw(p0, p1)
        state = start(p1 - p0)
        if out is None:
            out = [np.empty((config.n_paths, stored.size)) for _ in record(state)]
        for k in range(n_steps + 1):
            if k > 0:
                state = step(state, [w[:, k - 1] for w in noise])
                for v in state:
                    _check_finite(v, k, p0)
            col = store_at.get(k)
            if col is not None:
                for o, v in zip(out, record(state)):
                    o[p0:p1, col] = v
        # drop this chunk's noise before the next chunk draws its own, so that
        # two chunks' noise matrices are never alive at once
        del noise
    return stored * config.dt, out


def _coupled_substeps(config):
    """Fast steps per dt of a coupled run, and of the averaged runs paired with it."""
    return max(1, int(np.ceil(config.dt / (config.epsilon * config.fast_substep) - 1e-12)))


def simulate_coupled(model: ModelSpec, config: SimConfig) -> Ensemble:
    """Integrate the coupled pair for every path in the ensemble.

    Both states advance on the shared fast grid; slow states are recorded
    on the dt grid according to ``config.store``. Raises ConfigError when
    dt / epsilon exceeds the stiffness guard, and BlowUpError naming the
    path and step if any state leaves the representable range.
    """
    if config.dt / config.epsilon > _STIFFNESS_GUARD + 1e-12:
        raise ConfigError(
            f"dt/epsilon = {config.dt / config.epsilon:.3g} exceeds the "
            f"stiffness guard {_STIFFNESS_GUARD}; reduce dt for this epsilon"
        )
    if not np.all(model.slow_domain.contains(config.x0)):
        raise ConfigError("x0 outside the slow domain")
    if not np.all(model.fast_domain.contains(config.y0)):
        raise ConfigError("y0 outside the fast domain")

    n_sub = _coupled_substeps(config)
    h = config.dt / n_sub
    n_fast = config.n_slow_steps() * n_sub
    sqrt_h = np.sqrt(h)
    inv_eps = 1.0 / config.epsilon
    sqrt_inv_eps = 1.0 / np.sqrt(config.epsilon)
    c = model.coefficients

    def draw(p0, p1):
        return (
            _draw_rows(config.seed, p0, p1, EQ_SLOW, 0, n_fast),
            _draw_rows(config.seed, p0, p1, EQ_FAST, 0, n_fast),
        )

    def step(state, noise):
        x, y = state
        xi, eta = noise
        b = c.b(x, y)
        s = c.sigma(x, y)
        f = c.f(x, y)
        g = c.g(x, y)
        x = x + b * h + s * (sqrt_h * xi)
        y = y + f * (h * inv_eps) + g * (sqrt_h * sqrt_inv_eps * eta)
        return model.slow_domain.reflect(x), model.fast_domain.reflect(y)

    def start(n):
        return np.full(n, float(config.x0)), np.full(n, float(config.y0))

    times, (slow, fast) = _euler_loop(config, n_sub, draw, start, step)
    return Ensemble(times=times, slow=slow, fast=fast)


def _frozen_copies(model: ModelSpec, x, config: SimConfig, y0s, record=lambda ys: ys):
    """Copies of the frozen fast equation started at ``y0s``, all on the same noise."""
    if not np.all(model.slow_domain.contains(x)):
        raise ConfigError("frozen slow coordinate outside the slow domain")
    for y0 in y0s:
        if not np.all(model.fast_domain.contains(y0)):
            raise ConfigError("initial fast state outside the fast domain")

    n_sub = max(1, int(np.ceil(config.dt / config.fast_substep - 1e-12)))
    h = config.dt / n_sub
    n_fast = config.n_slow_steps() * n_sub
    sqrt_h = np.sqrt(h)
    c = model.coefficients
    xval = float(x)

    def step(ys, noise):
        dw = sqrt_h * noise[0]
        return tuple(model.fast_domain.reflect(y + c.f(xval, y) * h + c.g(xval, y) * dw) for y in ys)

    return _euler_loop(
        config,
        n_sub,
        lambda p0, p1: (_draw_rows(config.seed, p0, p1, EQ_FAST, 0, n_fast),),
        lambda n: tuple(np.full(n, float(y0)) for y0 in y0s),
        step,
        record,
    )


def simulate_frozen(model: ModelSpec, x, config: SimConfig) -> Ensemble:
    """Integrate the frozen fast equation dY = f(x, Y) dt + g(x, Y) dB.

    The slow coordinate is pinned at ``x`` and the fast equation runs at
    unit time scale (epsilon plays no role). For a uniform layout ``slow``
    holds the constant slow coordinate as a read-only broadcast view of the
    fast table's shape, so it costs no memory.
    """
    times, (fast,) = _frozen_copies(model, x, config, (config.y0,))
    return Ensemble(times=times, slow=np.broadcast_to(float(x), fast.shape), fast=fast)


def frozen_pair_gap(model: ModelSpec, x, config: SimConfig, y0_other):
    """Gap |Y - Y'| of two synchronously coupled frozen trajectories.

    Both copies start from ``config.y0`` and ``y0_other`` and consume the
    same Brownian increments, so the gap decays at the coupling rate of the
    frozen equation. Returns (times, gaps) with gaps of shape
    (n_paths, n_stored) on the grid selected by ``config.store``.
    """
    times, (gap,) = _frozen_copies(
        model, x, config, (config.y0, y0_other), lambda ys: (np.abs(ys[0] - ys[1]),)
    )
    return times, gap


def simulate_averaged(avg, config: SimConfig, paired=False, variant=0) -> Ensemble:
    """Integrate the averaged slow equation dXbar = bbar dt + sigmabar dW.

    Parameters
    ----------
    avg : object
        Anything exposing vectorized ``drift(x)`` and ``sigma(x)`` plus a
        ``slow_domain`` (an AveragedModel, or a ModelSpec-free stub).
    paired : bool
        Replay the slow-equation streams of the coupled run with the same
        config: the Gaussian increments are the fast-grid draws aggregated
        over each dt block, so both runs see the same Brownian path W.
    variant : int
        Sub-seed for independent unpaired copies (noise-floor estimates).
    """
    if paired and variant != 0:
        raise ConfigError("paired runs replay variant 0 of the slow streams")
    n_slow = config.n_slow_steps()
    dt = config.dt
    domain = getattr(avg, "slow_domain", None)

    if paired:
        n_sub = _coupled_substeps(config)
        sqrt_h = np.sqrt(dt / n_sub)
    else:
        n_sub = 1
        sqrt_h = np.sqrt(dt)

    def draw(p0, p1):
        if paired:
            raw = _draw_rows(config.seed, p0, p1, EQ_SLOW, 0, n_slow * n_sub)
            return (sqrt_h * raw.reshape(p1 - p0, n_slow, n_sub).sum(axis=2),)
        return (sqrt_h * _draw_rows(config.seed, p0, p1, EQ_AVG, variant, n_slow),)

    def step(state, noise):
        (x,) = state
        x = x + avg.drift(x) * dt + avg.sigma(x) * noise[0]
        return (x if domain is None else domain.reflect(x),)

    times, (slow,) = _euler_loop(config, 1, draw, lambda n: (np.full(n, float(config.x0)),), step)
    return Ensemble(times=times, slow=slow, fast=None)

