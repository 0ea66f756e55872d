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
Every path owns counter-based streams keyed by (seed, path index,
equation tag, variant) through Philox. The key layout makes ensembles
bit-identical at any chunking and worker count. The Philox keys of a
chunk's paths are hashed together, in uint32 arithmetic over the chunk,
to the bits numpy's SeedSequence gives each path alone
(``path_stream``). A simulator names only the (equation tag, variant)
keys of its noise; the shared loop draws them for each chunk in time
blocks of at most 16 MiB per noise array, continuing each path's stream
from block to block, so its memory does not grow with horizon/epsilon and
the draws are those of one full-length call. The state is checked for
finiteness once per block; a block that fails is replayed step by step,
so a blow-up is still reported at its first path and step.
``simulate_paired`` steps an averaged path inside the coupled loop on the
coupled run's own slow draws, summed over each slow step, which makes
pathwise comparisons of the two equations meaningful.

Workers and chunks
------------------
``workers > 1`` (None: one per usable core) forks at most one child per
chunk and usable core, none beside other live threads; the children write
into one output shared with the parent, and one that dies unreported
raises SlowfastError. ``SimConfig.chunk_size`` None gives one equal chunk
per process, cut into equal chunks of at most 4096 paths; an integer cuts
chunks of that many. Coupled and averaged runs default to ``workers=1``,
frozen runs to None.
"""

from __future__ import annotations

import mmap
import numbers
import operator
import os
import pickle
import threading
from dataclasses import dataclass, fields

import numpy as np

from .errors import BlowUpError, ConfigError, SlowfastError
from .models import ModelSpec

EQ_SLOW = 0
EQ_FAST = 1
EQ_AVG = 2

_STORE_MODES = ("terminal", "full", "strided")
# SimConfig fields by their annotation (a string under postponed evaluation)
_NUMBER_KINDS = {"int": numbers.Integral, "float": numbers.Real, "int | None": numbers.Integral}

# dt may not exceed this multiple of epsilon in coupled runs; larger ratios
# mean the caller is silently under-resolving the fast equation.
_STIFFNESS_GUARD = 0.1

# bytes of one noise array's time block; smaller blocks pay the fixed cost
# of a standard_normal call per path more often
_BLOCK_BYTES = 16 << 20
# paths of a default chunk at most: a 16 MiB block then still holds 512
# steps per path, enough to amortise each path's standard_normal call
_MAX_CHUNK = 4096
# the live streams of the chunk this thread integrates, by stream key
_LIVE = threading.local()
# numpy SeedSequence's hash constants; path indices below 2**32 are one
# entropy word each, so all paths of a chunk hash the same word layout
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MAX_PATHS = 1 << 32


def path_stream(seed, path_index, equation_tag, variant=0):
    """Counter-based generator for one (path, equation) pair; ``_draw_rows`` builds the same a chunk at a time."""
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
        Ensemble size, at most 2**32.
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
    chunk_size : int or None
        Paths per vectorized block, as in ``simulate_coupled``; never
        changes results. A blow-up is reported at the first path and step
        of the first chunk that has one, so a default-chunk run may name
        another path than a run in smaller chunks.
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
    chunk_size: int | None = None

    def __post_init__(self):
        for f in fields(self):
            v, kind = getattr(self, f.name), _NUMBER_KINDS.get(f.type)
            if v is None and f.type.endswith("| None"):
                continue
            if kind and (isinstance(v, bool) or not isinstance(v, kind) or not abs(v) < np.inf):
                word = "an integer" if kind is numbers.Integral else "a finite real number"
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
        if self.n_paths > _MAX_PATHS:
            raise ConfigError("n_paths must be at most 2**32")
        if self.store not in _STORE_MODES:
            raise ConfigError(f"store must be one of {_STORE_MODES}")
        if self.store == "strided" and self.stride < 1:
            raise ConfigError("stride must be at least 1")
        if self.fast_substep <= 0.0:
            raise ConfigError("fast_substep must be positive")
        if self.chunk_size is not None and self.chunk_size < 1:
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


def _words(n):
    """The 32-bit words of a nonnegative integer, low first, as SeedSequence splits its entropy."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hasher(const, mult):
    """SeedSequence's hashmix on uint32 arrays; its multiplier advances call by call."""
    def hashmix(v):
        nonlocal const
        v = v ^ np.uint32(const)
        const = const * mult & _MASK32
        v = v * np.uint32(const)
        return v ^ (v >> 16)
    return hashmix


def _chunk_keys(seed, p0, p1, tag, variant):
    """The Philox keys of ``path_stream(seed, p, tag, variant)`` for p in p0..p1-1, shape (p1 - p0, 2).

    Replays SeedSequence's entropy pool and ``generate_state(2, uint64)``
    on one uint32 array per entropy word, over the chunk's paths; only the
    path index word varies. Each path index must be one word: p1 <= 2**32.
    """
    if not 0 <= p0 <= p1 <= _MAX_PATHS:
        raise ValueError(f"paths {p0}..{p1} outside 0..2**32")
    n = p1 - p0
    entropy = ([np.full(n, w, np.uint32) for w in _words(seed)]
               + [np.arange(p0, p1, dtype=np.int64).astype(np.uint32)]
               + [np.full(n, w, np.uint32) for w in _words(tag) + _words(variant)])
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return r ^ (r >> 16)

    # the four words always fill the pool, which then absorbs the rest
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w))
    out = _hasher(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (out(w).astype(np.uint64) for w in pool)
    return np.stack([lo0 | hi0 << 32, lo1 | hi1 << 32], axis=1)


class _Key(np.random.bit_generator.ISeedSequence):
    """Seeds a Philox with a key hashed beforehand, without a SeedSequence of its own."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _draw_rows(seed, p0, p1, tag, variant, n_draws):
    """The next ``n_draws`` normals of paths p0..p1-1, one row per path: inside
    a chunk its streams run on from the previous block, outside one they start fresh."""
    live = getattr(_LIVE, "streams", {})
    key = (seed, p0, p1, tag, variant)
    if key not in live:
        live[key] = [np.random.Generator(np.random.Philox(_Key(k))) for k in _chunk_keys(*key)]
    out = np.empty((p1 - p0, n_draws))
    for stream, row in zip(live[key], out):
        stream.standard_normal(n_draws, out=row)
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


def _check_workers(workers):
    if isinstance(workers, bool) or not isinstance(workers, numbers.Integral) or workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")
    return workers


def _pool_size(workers, n_chunks):
    """Processes that run ``n_chunks`` chunks: at most one per chunk and usable core.

    ``workers=None`` asks for one per usable core. One while other threads
    run (a forked child holds only the calling thread, not the locks the
    others hold), and one where the platform reports no CPU affinity, as
    where it cannot fork.
    """
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if threading.active_count() > 1:
        cores = 1
    return min(cores if workers is None else _check_workers(workers), n_chunks, cores)


def _layout(config, workers):
    """The (p0, p1) path ranges of a run's chunks, in order, and the processes that run them.

    An explicit ``chunk_size`` cuts chunks of that many paths. By default
    each process gets an equal share of the paths, cut into equal chunks
    of at most ``_MAX_CHUNK``: one chunk per process up to that size.
    """
    n = config.n_paths
    if config.chunk_size is not None:
        chunks = [(p0, min(p0 + config.chunk_size, n)) for p0 in range(0, n, config.chunk_size)]
        return chunks, _pool_size(workers, len(chunks))
    size = _pool_size(workers, n)
    k = size * -(-n // (size * _MAX_CHUNK))
    return [(i * n // k, (i + 1) * n // k) for i in range(k)], size


def _euler_loop(config, stored, n_sub, streams, initial, step, workers=1):
    """The Euler-Maruyama loop behind every simulator, one chunk of paths at a time (``_layout``).

    ``streams`` holds the (equation tag, variant) key of each noise array;
    the loop draws them with ``_draw_rows`` in blocks of whole slow steps, at
    most ``_BLOCK_BYTES`` per array. ``initial`` holds one float per state
    component, every path starting there. ``step(state, j, noise)`` returns
    the state after the block's j-th step (from 1), reading column j - 1 of
    each noise array. A non-finite value stays non-finite through an Euler
    step (x plus an increment, reflected), so the state is checked once per
    block; a block that ends non-finite, or raises, is replayed from its
    start state on the same noise with ``_check_finite`` on every component
    each step replaces, which raises what a per-step check would have
    raised. Each component is stored at the slow step indices
    ``stored`` (increasing), each slow step spanning ``n_sub`` loop steps;
    nothing is allocated for the others. With ``workers > 1``, or None (one
    per usable core), child ``rank`` of ``size`` forked ones runs chunks
    ``rank, rank + size, ...``, writing rows in place into one shared
    anonymous mapping, and stops at its first error, pickled down its own
    pipe (a RuntimeError naming it if it would not unpickle). With all
    reaped, the parent raises the lowest chunk's error, the serial loop's,
    or a SlowfastError for a child that died unreported, killed say by a
    signal. Returns the stored times and one (n_paths, n_stored) array per
    state component.
    """
    store_at = {int(j) * n_sub: k for k, j in enumerate(stored)}
    n_steps = config.n_slow_steps() * n_sub
    chunks, size = _layout(config, workers)

    def run(p0, p1):
        block = max(1, _BLOCK_BYTES // (8 * (p1 - p0) * n_sub)) * n_sub

        def put(k, state):
            col = store_at.get(k)
            if col is not None:
                for o, v in zip(out, state):
                    o[p0:p1, col] = v

        def advance(state, k0, n, noise, checked):
            # loop steps k0 + 1 .. k0 + n, the block's columns 0 .. n - 1
            for j in range(1, n + 1):
                new = step(state, j, noise)
                if checked:
                    for v, old in zip(new, state):
                        if v is not old:
                            _check_finite(v, k0 + j, p0)
                state = new
                put(k0 + j, state)
            return state

        state = tuple(np.full(p1 - p0, float(v)) for v in initial)
        put(0, state)
        _LIVE.streams = {}
        try:
            for k0 in range(0, n_steps, block):
                n = min(block, n_steps - k0)
                noise = None  # release the old block before drawing the next
                noise = tuple(_draw_rows(config.seed, p0, p1, tag, variant, n) for tag, variant in streams)
                try:
                    new = advance(state, k0, n, noise, False)
                    clean = all(np.isfinite(v).all() for v in new)
                except Exception:
                    clean = False  # an error after an unchecked blow-up must not hide it
                state = new if clean else advance(state, k0, n, noise, True)
        finally:
            del _LIVE.streams

    shape = (len(initial), config.n_paths, stored.size)
    if size == 1:
        out = [np.empty(shape[1:]) for _ in initial]
        for p0, p1 in chunks:
            run(p0, p1)
        return stored * config.dt, out

    out = list(np.frombuffer(mmap.mmap(-1, 8 * np.prod(shape)), float).reshape(shape))
    children, errors = [], []
    try:
        for rank in range(size):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for i in range(rank, len(chunks), size):
                        run(*chunks[i])
                    code = 0
                except Exception as exc:
                    try:  # the parent must be able to raise what it is sent
                        pickle.loads(pickle.dumps(exc))
                    except Exception:
                        exc = RuntimeError(repr(exc))
                    data = pickle.dumps((i, exc))
                    while data:
                        data = data[os.write(w, data):]
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append((pid, r))
    finally:
        # read each pipe to its end before reaping, so no child blocks on a full pipe
        for pid, r in children:
            data = b""
            while part := os.read(r, 1 << 16):
                data += part
            os.close(r)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                errors.append((len(chunks), SlowfastError(f"worker process {pid} died with exit code {code}")))
            elif data:
                errors.append(pickle.loads(data))
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    return stored * config.dt, out


def _averaged_step(avg, x, dt, dw):
    drift, sigma = avg.drift_and_sigma(x)
    return avg.slow_domain.reflect(x + drift * dt + sigma * dw)


def _coupled(model: ModelSpec, config: SimConfig, workers, avg=None):
    """The coupled pair, plus an averaged path on its slow noise when ``avg`` is given."""
    _check_workers(workers)
    if config.dt / config.epsilon > _STIFFNESS_GUARD + 1e-12:
        raise ConfigError(
            f"dt/epsilon = {config.dt / config.epsilon:.3g} exceeds the "
            f"stiffness guard {_STIFFNESS_GUARD}; reduce dt for this epsilon"
        )
    if not np.all(model.slow_domain.contains(config.x0)):
        raise ConfigError("x0 outside the slow domain")
    if not np.all(model.fast_domain.contains(config.y0)):
        raise ConfigError("y0 outside the fast domain")

    n_sub = max(1, int(np.ceil(config.dt / (config.epsilon * config.fast_substep) - 1e-12)))
    h = config.dt / n_sub
    sqrt_h = np.sqrt(h)
    inv_eps = 1.0 / config.epsilon
    sqrt_inv_eps = 1.0 / np.sqrt(config.epsilon)
    c = model.coefficients

    def step(state, j, noise):
        x, y = state[:2]
        xi, eta = noise[0][:, j - 1], noise[1][:, j - 1]
        b = c.b(x, y)
        s = c.sigma(x, y)
        f = c.f(x, y)
        g = c.g(x, y)
        x = x + b * h + s * (sqrt_h * xi)
        y = y + f * (h * inv_eps) + g * (sqrt_h * sqrt_inv_eps * eta)
        new = model.slow_domain.reflect(x), model.fast_domain.reflect(y)
        if avg is None:
            return new
        # the averaged path moves once per slow step, on the sum of that step's slow draws
        xbar = state[2]
        if j % n_sub == 0:
            xbar = _averaged_step(avg, xbar, config.dt, sqrt_h * noise[0][:, j - n_sub:j].sum(axis=1))
        return new + (xbar,)

    initial = (config.x0, config.y0) if avg is None else (config.x0, config.y0, config.x0)
    times, out = _euler_loop(config, config.stored_indices(), n_sub, ((EQ_SLOW, 0), (EQ_FAST, 0)),
                             initial, step, workers=workers)
    coupled = Ensemble(times=times, slow=out[0], fast=out[1])
    if avg is None:
        return coupled
    return coupled, Ensemble(times=times, slow=out[2], fast=None)


def simulate_coupled(model: ModelSpec, config: SimConfig, workers=1) -> Ensemble:
    """Integrate the coupled pair for every path in the ensemble.

    Both states advance on the shared fast grid; slow states are recorded
    on the dt grid according to ``config.store``. ``workers`` and the
    chunks follow the module docstring's rule. Raises ConfigError when
    dt / epsilon exceeds the stiffness guard, and BlowUpError naming the
    path and step if any state leaves the representable range.
    """
    return _coupled(model, config, workers)


def simulate_paired(model: ModelSpec, avg, config: SimConfig, workers=1):
    """The coupled ensemble of ``simulate_coupled`` and an averaged one on the same Brownian path.

    The averaged equation (``avg`` as in ``simulate_averaged``) steps on the
    dt grid inside the coupled loop; its increment over a dt block is sqrt(h)
    times the sum of the coupled run's slow draws in it, drawn only once.
    """
    return _coupled(model, config, workers, avg)


def _frozen_copies(model: ModelSpec, x, config: SimConfig, y0s, burn_in=0.0, workers=None):
    """Copies of the frozen fast equation started at ``y0s`` on one noise, stored from ``burn_in`` on.

    ``workers`` as in ``simulate_frozen``.
    """
    if not np.all(model.slow_domain.contains(x)):
        raise ConfigError("frozen slow coordinate outside the slow domain")
    for y0 in y0s:
        if not np.all(model.fast_domain.contains(y0)):
            raise ConfigError("initial fast state outside the fast domain")

    n_sub = max(1, int(np.ceil(config.dt / config.fast_substep - 1e-12)))
    h = config.dt / n_sub
    sqrt_h = np.sqrt(h)
    c = model.coefficients
    xval = float(x)

    def step(ys, j, noise):
        dw = sqrt_h * noise[0][:, j - 1]
        return tuple(model.fast_domain.reflect(y + c.f(xval, y) * h + c.g(xval, y) * dw) for y in ys)

    stored = config.stored_indices()
    return _euler_loop(config, stored[stored * config.dt >= burn_in], n_sub, ((EQ_FAST, 0),), y0s, step,
                       workers=workers)


def simulate_frozen(model: ModelSpec, x, config: SimConfig, *, burn_in=0.0, workers=None) -> Ensemble:
    """Integrate the frozen fast equation dY = f(x, Y) dt + g(x, Y) dB.

    The slow coordinate is pinned at ``x`` and the fast equation runs at
    unit time scale (epsilon plays no role). Only the ``config.store`` times
    t >= ``burn_in`` are kept: earlier ones are neither allocated nor
    written, although every step is still taken and checked. For a uniform
    layout ``slow`` holds the constant slow coordinate as a read-only
    broadcast view of the fast table's shape, so it costs no memory.
    ``workers`` as in ``simulate_coupled``, but None by default: one
    process per usable core.
    """
    times, (fast,) = _frozen_copies(model, x, config, (config.y0,), burn_in=burn_in, workers=workers)
    return Ensemble(times=times, slow=np.broadcast_to(float(x), fast.shape), fast=fast)


def frozen_pair_gap(model: ModelSpec, x, config: SimConfig, y0_other, workers=None):
    """Gap |Y - Y'| of two synchronously coupled frozen trajectories.

    Both copies start from ``config.y0`` and ``y0_other`` and consume the
    same Brownian increments, so the gap decays at the coupling rate of the
    frozen equation. Returns (times, gaps) with gaps of shape
    (n_paths, n_stored) on the grid selected by ``config.store``.
    ``workers`` as in ``simulate_frozen``.
    """
    times, (y, y_other) = _frozen_copies(model, x, config, (config.y0, y0_other), workers=workers)
    return times, np.abs(y - y_other)


def simulate_averaged(avg, config: SimConfig, variant=0, workers=1) -> Ensemble:
    """Integrate the averaged slow equation dXbar = bbar dt + sigmabar dW.

    Parameters
    ----------
    avg : object
        Anything exposing ``drift_and_sigma(x)``, the pair (bbar(x),
        sigmabar(x)) on an array of slow states, NaN included, plus a
        ``slow_domain`` (an AveragedModel, or a ModelSpec-free stub).
    variant : int
        Sub-seed for independent copies (noise-floor estimates).
    """
    _check_workers(workers)
    sqrt_dt = np.sqrt(config.dt)

    def step(state, j, noise):
        return (_averaged_step(avg, state[0], config.dt, sqrt_dt * noise[0][:, j - 1]),)

    times, (slow,) = _euler_loop(config, config.stored_indices(), 1, ((EQ_AVG, variant),), (config.x0,),
                                 step, workers=workers)
    return Ensemble(times=times, slow=slow, fast=None)
