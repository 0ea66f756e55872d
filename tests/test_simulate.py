import multiprocessing
import os
import resource
import signal
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slowfast import (
    AveragedModel,
    BlowUpError,
    CoefficientSet,
    ConfigError,
    Ensemble,
    ModelSpec,
    SimConfig,
    build_averaged_model,
    simulate_averaged,
    simulate_coupled,
    simulate_frozen,
    simulate_paired,
)
from slowfast.models import FULL_LINE, StateDomain
from slowfast import simulate as simulate_module
from slowfast.simulate import EQ_FAST, EQ_SLOW, _chunk_keys, _draw_rows, _pool_size, frozen_pair_gap, path_stream


def flat_brownian(span=200.0):
    grid = np.array([-span, span])
    return AveragedModel(
        source="flat",
        x_grid=grid,
        b_bar=np.zeros(2),
        a_bar=np.ones(2),
        slow_domain=StateDomain(FULL_LINE),
        method="analytic",
    )


def cubic_blowup_model():
    return ModelSpec(
        name="cubic-blowup",
        coefficients=CoefficientSet(
            b=lambda x, y: x ** 3,
            sigma=lambda x, y: 1.0,
            f=lambda x, y: -y,
            g=lambda x, y: np.sqrt(2.0),
        ),
        slow_domain=StateDomain(FULL_LINE),
        fast_domain=StateDomain(FULL_LINE),
    )


def test_path_stream_reproducible_and_separated():
    a = path_stream(seed=5, path_index=17, equation_tag=EQ_SLOW).standard_normal(8)
    b = path_stream(seed=5, path_index=17, equation_tag=EQ_SLOW).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    c = path_stream(seed=5, path_index=17, equation_tag=EQ_FAST).standard_normal(8)
    d = path_stream(seed=5, path_index=17, equation_tag=EQ_SLOW, variant=1).standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**63 - 1)),
    tag=st.integers(0, 2),
    variant=st.integers(0, 3),
    p0=st.one_of(st.just(0), st.integers(0, 2**32 - 5)),
    n=st.integers(1, 5),
)
@example(seed=2**63 - 1, tag=2, variant=3, p0=2**32 - 5, n=5)  # the last path index there is
def test_chunk_keys_and_streams_are_path_streams(seed, tag, variant, p0, n):
    keys = _chunk_keys(seed, p0, p0 + n, tag, variant)
    for p, key in zip(range(p0, p0 + n), keys):
        np.testing.assert_array_equal(key, np.random.SeedSequence(entropy=(seed, p, tag, variant))
                                      .generate_state(2, np.uint64))
    rows = _draw_rows(seed, p0, p0 + n, tag, variant, 7)
    for p, row in zip(range(p0, p0 + n), rows):
        np.testing.assert_array_equal(row, path_stream(seed, p, tag, variant).standard_normal(7))


def test_path_indices_are_one_entropy_word():
    # from 2**32 on a path index would be two words; no ensemble is that large
    SimConfig(epsilon=1.0, dt=0.1, horizon=1.0, n_paths=2**32, seed=0)
    with pytest.raises(ConfigError, match="n_paths must be at most 2\\*\\*32"):
        SimConfig(epsilon=1.0, dt=0.1, horizon=1.0, n_paths=2**32 + 1, seed=0)
    with pytest.raises(ValueError, match="outside"):
        _chunk_keys(0, 2**32 - 1, 2**32 + 1, EQ_SLOW, 0)


def test_averaged_integrator_is_brownian_for_flat_coefficients():
    cfg = SimConfig(
        epsilon=1.0, dt=0.01, horizon=1.0, n_paths=4000, seed=2, x0=0.0, y0=0.0
    )
    ens = simulate_averaged(flat_brownian(), cfg)
    xt = ens.terminal_slow()
    assert abs(np.mean(xt)) < 0.05
    assert np.var(xt) == pytest.approx(1.0, rel=0.08)


def test_chunking_does_not_change_results(ou):
    cfg = SimConfig(
        epsilon=0.1, dt=0.01, horizon=0.3, n_paths=37, seed=9, x0=0.5, y0=1.0, chunk_size=8
    )
    base = simulate_coupled(ou, cfg)
    rechunk = simulate_coupled(ou, cfg.__class__(**{**cfg.__dict__, "chunk_size": 5}))
    np.testing.assert_array_equal(base.slow, rechunk.slow)


def _paired_oracle(avg, config):
    """Reference paired path: re-draw the coupled run's slow noise, sum it over
    each dt block, and step the averaged equation on the sums."""
    n_slow = config.n_slow_steps()
    n_sub = max(1, int(np.ceil(config.dt / (config.epsilon * config.fast_substep) - 1e-12)))
    raw = _draw_rows(config.seed, 0, config.n_paths, EQ_SLOW, 0, n_slow * n_sub)
    dw = np.sqrt(config.dt / n_sub) * raw.reshape(config.n_paths, n_slow, n_sub).sum(axis=2)
    x = np.full(config.n_paths, float(config.x0))
    path = [x]
    for j in range(n_slow):
        x = avg.slow_domain.reflect(x + avg.drift(x) * config.dt + avg.sigma(x) * dw[:, j])
        path.append(x)
    return np.stack(path, axis=1)


def test_paired_averaged_replays_the_coupled_slow_noise(pure_fast, ou, monkeypatch):
    cfg = SimConfig(epsilon=0.05, dt=0.005, horizon=0.25, n_paths=16, seed=3, x0=0.5, y0=0.0,
                    store="full", chunk_size=6)
    # on a model with a non-trivial averaged equation the one-loop paired path
    # is the oracle's bit for bit, and its coupled half is simulate_coupled's
    avg = build_averaged_model(ou, np.linspace(-10.0, 11.0, 257))
    coupled, paired = simulate_paired(ou, avg, cfg)
    np.testing.assert_array_equal(paired.slow, _paired_oracle(avg, cfg))
    alone = simulate_coupled(ou, cfg)
    np.testing.assert_array_equal(coupled.slow, alone.slow)
    np.testing.assert_array_equal(coupled.fast, alone.fast)
    assert paired.fast is None
    # with sigma == sigmabar == 1 and zero drifts both slow paths are x0 plus
    # the same Brownian sum, so they agree to roundoff
    unit = replace(pure_fast, name="unit-slow-noise",
                   coefficients=replace(pure_fast.coefficients, sigma=lambda x, y: 1.0))
    coupled, paired = simulate_paired(unit, flat_brownian(), cfg)
    np.testing.assert_allclose(paired.terminal_slow(), coupled.terminal_slow(), rtol=0.0, atol=1e-12)
    np.testing.assert_array_equal(paired.slow, _paired_oracle(flat_brownian(), cfg))
    # 150 and 300 draws per slow step, past numpy's 128-element pairwise
    # summation block; at 300, blocks of 3 slow steps (6 paths) and 4 (4 paths)
    for fast_substep, block_bytes in ((1 / 1500, simulate_module._BLOCK_BYTES), (1 / 3000, 43200)):
        monkeypatch.setattr(simulate_module, "_BLOCK_BYTES", block_bytes)
        fine = replace(cfg, horizon=0.05, fast_substep=fast_substep)
        np.testing.assert_array_equal(simulate_paired(ou, avg, fine)[1].slow, _paired_oracle(avg, fine))


def _arrays(result):
    parts = result if isinstance(result, tuple) else (result,)
    return [a for p in parts for a in ((p.times, p.slow, p.fast) if isinstance(p, Ensemble) else (p,))
            if a is not None]


_WORKER_CONFIG = SimConfig(epsilon=0.1, dt=0.01, horizon=0.2, n_paths=37, seed=9, x0=0.5, y0=1.0,
                           chunk_size=8, store="strided", stride=3)


@pytest.mark.parametrize(
    "run",
    [
        lambda m, avg, w: simulate_coupled(m, _WORKER_CONFIG, workers=w),
        lambda m, avg, w: simulate_averaged(avg, _WORKER_CONFIG, variant=1, workers=w),
        lambda m, avg, w: simulate_paired(m, avg, _WORKER_CONFIG, workers=w),
    ],
    ids=["coupled", "averaged", "paired"],
)
def test_ensembles_do_not_depend_on_workers(ou, run, forks):
    # 37 paths in chunks of 8: five chunks, the last one short
    avg = build_averaged_model(ou, np.linspace(-10.0, 11.0, 257))
    serial = _arrays(run(ou, avg, 1))
    for workers in (2, 3, 10**6):
        forked = _arrays(run(ou, avg, workers))
        assert len(forked) == len(serial)
        for a, b in zip(serial, forked):
            np.testing.assert_array_equal(a, b)
        assert multiprocessing.active_children() == []


def test_pool_size_never_exceeds_chunks_or_cores():
    cores = len(os.sched_getaffinity(0))
    assert _pool_size(10**6, 5) == min(5, cores)
    assert _pool_size(10**6, 10**9) == cores
    assert _pool_size(10**6, 1) == 1
    assert _pool_size(1, 5) == 1
    # a forked child holds only the calling thread, so a run beside other threads stays serial
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _pool_size(10**6, 5) == 1
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


@pytest.mark.parametrize("workers", [0, -2, 1.5, 2.0, True, "2", None])
def test_bad_worker_count_raises_config_error(ou, workers):
    cfg = SimConfig(epsilon=0.1, dt=0.01, horizon=0.1, n_paths=4, seed=0)
    with pytest.raises(ConfigError, match="workers must be a positive integer"):
        simulate_coupled(ou, cfg, workers=workers)
    with pytest.raises(ConfigError, match="workers must be a positive integer"):
        simulate_averaged(flat_brownian(), cfg, workers=workers)


def test_stiffness_guard(ou):
    with pytest.raises(ConfigError, match="dt"):
        cfg = SimConfig(epsilon=0.01, dt=0.01, horizon=0.1, n_paths=2, seed=0)
        simulate_coupled(ou, cfg)
    # equality dt = 0.1 epsilon is allowed
    cfg = SimConfig(epsilon=0.1, dt=0.01, horizon=0.1, n_paths=2, seed=0)
    simulate_coupled(ou, cfg)


def test_horizon_must_be_step_multiple(ou):
    cfg = SimConfig(epsilon=1.0, dt=0.03, horizon=1.0, n_paths=2, seed=0)
    with pytest.raises(ConfigError, match="multiple"):
        simulate_coupled(ou, cfg)


@settings(max_examples=15, deadline=None)
@given(
    x0=st.floats(0.0, 1.0),
    y0=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**20),
)
def test_reflected_paths_stay_in_domain(x0, y0, seed):
    from slowfast import get_builtin

    model = get_builtin("example21")
    cfg = SimConfig(
        epsilon=0.1,
        dt=0.01,
        horizon=0.2,
        n_paths=8,
        seed=seed,
        x0=x0,
        y0=y0,
        store="full",
    )
    ens = simulate_coupled(model, cfg)
    assert np.all(ens.slow >= 0.0) and np.all(ens.slow <= 1.0)
    assert np.all(ens.fast >= 0.0)


def test_path_storage_stride(ou):
    cfg = SimConfig(
        epsilon=0.1, dt=0.01, horizon=0.1, n_paths=3, seed=1, store="strided", stride=2
    )
    ens = simulate_coupled(ou, cfg)
    np.testing.assert_allclose(ens.times, [0.0, 0.02, 0.04, 0.06, 0.08, 0.1])
    assert ens.slow.shape == (3, 6)


def test_terminal_storage_is_single_column(ou, small_config):
    ens = simulate_coupled(ou, small_config)
    assert ens.slow.shape == (small_config.n_paths, 1)
    np.testing.assert_allclose(ens.times, [small_config.horizon])


def strict_cubic_model():
    # cubic_blowup_model with a drift that refuses non-finite input, as a
    # coefficient may: a loop that runs on past a blow-up meets this error
    def b(x, y):
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite slow state")
        return x ** 3

    base = cubic_blowup_model()
    return replace(base, coefficients=replace(base.coefficients, b=b))


def cubic_fast_model():
    # the frozen fast drift y^3 explodes in finite time, first on the paths
    # whose noise pushes y away from zero
    base = cubic_blowup_model()
    cubic = replace(base.coefficients, f=lambda x, y: y ** 3)
    return replace(base, name="cubic-fast", coefficients=cubic)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize(
    "run, path_index, step",
    [
        (
            lambda: simulate_coupled(
                cubic_blowup_model(),
                SimConfig(epsilon=0.5, dt=0.05, horizon=5.0, n_paths=2, seed=0, x0=5.0, y0=0.0),
            ),
            0,
            13,
        ),
        # an error raised after the blow-up in the same noise block does not hide it
        (
            lambda: simulate_coupled(
                strict_cubic_model(),
                SimConfig(epsilon=0.5, dt=0.05, horizon=5.0, n_paths=2, seed=0, x0=5.0, y0=0.0),
            ),
            0,
            13,
        ),
        # the path that blows up lies in the second chunk: its index includes the offset
        (
            lambda: simulate_frozen(
                cubic_fast_model(),
                0.0,
                SimConfig(epsilon=1.0, dt=0.05, horizon=1.0, n_paths=37, seed=1, y0=0.0,
                          fast_substep=0.05, chunk_size=8),
            ),
            14,
            13,
        ),
        # fast step 13 is t = 0.65, before the burn-in: steps whose times are not stored are still checked
        (
            lambda: simulate_frozen(
                cubic_fast_model(),
                0.0,
                SimConfig(epsilon=1.0, dt=0.05, horizon=1.0, n_paths=37, seed=1, y0=0.0,
                          fast_substep=0.05, chunk_size=8, store="full"),
                burn_in=0.9,
            ),
            14,
            13,
        ),
    ],
    ids=["coupled", "error-after-blowup", "frozen", "frozen-before-burn-in"],
)
def test_blowup_raises_with_step_context(run, path_index, step):
    with pytest.raises(BlowUpError, match="non-finite") as info:
        run()
    assert (info.value.path_index, info.value.step) == (path_index, step)


def cubic_drift_model():
    # x' = x^3 explodes in finite time from wherever the noise carries x far enough
    base = cubic_blowup_model()
    return replace(base, coefficients=replace(base.coefficients, sigma=lambda x, y: y, f=lambda x, y: -y))


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize(
    "run",
    [
        lambda cfg, w: simulate_coupled(cubic_drift_model(), cfg, workers=w),
        lambda cfg, w: simulate_paired(cubic_drift_model(), flat_brownian(), cfg, workers=w),
    ],
    ids=["coupled", "paired"],
)
def test_blowup_in_a_later_chunk_is_the_same_at_any_worker_count(run, forks):
    # paths 0-7 survive the horizon; path 12, in the second chunk, is the first to blow up
    cfg = SimConfig(epsilon=0.1, dt=0.01, horizon=1.0, n_paths=24, seed=5, x0=0.0, y0=0.0, chunk_size=8)
    seen = []
    for workers in (1, 2, 3):
        with pytest.raises(BlowUpError) as info:
            run(cfg, workers)
        seen.append((str(info.value), info.value.path_index, info.value.step))
        assert multiprocessing.active_children() == []
    assert seen[0][1:] == (12, 833)
    assert seen == [seen[0]] * 3



class _TwoArgError(Exception):
    # unpickling calls the class with the one message argument, which fails
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def _raising_model(exc):
    def b(x, y):
        raise exc

    base = cubic_blowup_model()
    return replace(base, coefficients=replace(base.coefficients, b=b))


def test_a_coefficient_error_reaches_the_caller_at_any_worker_count(forks):
    cfg = SimConfig(epsilon=0.1, dt=0.01, horizon=0.1, n_paths=24, seed=5, x0=0.0, y0=0.0, chunk_size=8)
    for workers in (1, 2):
        with pytest.raises(ValueError, match="bad coefficient"):
            simulate_coupled(_raising_model(ValueError("bad coefficient")), cfg, workers=workers)
        assert multiprocessing.active_children() == []
    odd = _raising_model(_TwoArgError("bad coefficient", "x = 0"))
    with pytest.raises(_TwoArgError):
        simulate_coupled(odd, cfg, workers=1)
    # one that does not survive pickling comes back from a pool process as a
    # RuntimeError naming it; lost in the pool, it would leave the run waiting
    def hung(signum, frame):
        raise TimeoutError("the pool lost an error it could not unpickle")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(RuntimeError, match=r"_TwoArgError\('bad coefficient at x = 0'\)"):
            simulate_coupled(odd, cfg, workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []

def test_frozen_sim_fixes_the_slow_state(example21):
    cfg = SimConfig(
        epsilon=0.05, dt=0.005, horizon=0.25, n_paths=12, seed=7, x0=0.5, y0=1.0, store="full"
    )
    ens = simulate_frozen(example21, 0.25, cfg)
    assert np.all(ens.fast >= 0.0)
    assert ens.slow.shape == ens.fast.shape
    np.testing.assert_array_equal(ens.slow, np.full_like(ens.slow, 0.25))
    assert not ens.slow.flags.writeable


def test_pair_gap_is_two_frozen_runs_on_one_noise(ou, example21):
    # 37 paths in chunks of 8, 5 fast steps per slow step, every third slow step stored
    cfg = SimConfig(epsilon=1.0, dt=0.01, horizon=0.2, n_paths=37, seed=6, y0=1.0, chunk_size=8,
                    store="strided", stride=3, fast_substep=0.002)
    for model, x, y_other in ((ou, 0.5, -1.0), (example21, 0.5, 0.2)):
        times, gap = frozen_pair_gap(model, x, cfg, y_other)
        a = simulate_frozen(model, x, cfg)
        b = simulate_frozen(model, x, replace(cfg, y0=y_other))
        np.testing.assert_array_equal(times, a.times)
        np.testing.assert_array_equal(gap, np.abs(a.fast - b.fast))


def _full_row_oracle(seed, p0, p1, tag, variant, n_draws):
    # every row from a fresh stream: right when one call draws a chunk's whole run
    return np.stack([path_stream(seed, p, tag, variant).standard_normal(n_draws) for p in range(p0, p1)])


# 37 paths in chunks of 8; the coupled runs take 10 fast steps per slow step
# (200 in all), the averaged and frozen ones 1 (20 in all)
_BLOCK_CONFIG = SimConfig(epsilon=0.1, dt=0.01, horizon=0.2, n_paths=37, seed=6, x0=0.5, y0=1.0,
                          chunk_size=8, store="full")

_BLOCK_RUNS = {
    "coupled": (lambda m, w: simulate_coupled(m, _BLOCK_CONFIG, workers=w), (1, 2)),
    "paired": (lambda m, w: simulate_paired(m, flat_brownian(), _BLOCK_CONFIG, workers=w), (1, 2)),
    "averaged": (lambda m, w: simulate_averaged(flat_brownian(), _BLOCK_CONFIG, variant=3, workers=w), (1, 2)),
    "frozen": (lambda m, w: simulate_frozen(m, 0.5, _BLOCK_CONFIG), (1,)),
    "pair-gap": (lambda m, w: frozen_pair_gap(m, 0.5, _BLOCK_CONFIG, -1.0), (1,)),
}


# 1 byte: blocks of exactly one slow step. 448: blocks of 7 steps (8 paths) and
# 11 (5 paths) for the averaged and frozen runs, the last one partial. 1920:
# 30 steps (8 paths) and 40 (5 paths) for the coupled runs, the last 8-path
# block partial; the frozen and averaged runs fit in one block.
@pytest.mark.parametrize("block_bytes", [1, 448, 1920])
@pytest.mark.parametrize("name", list(_BLOCK_RUNS))
def test_noise_blocks_match_full_row_draws(ou, monkeypatch, name, block_bytes):
    run, worker_counts = _BLOCK_RUNS[name]
    with monkeypatch.context() as m:
        m.setattr(simulate_module, "_draw_rows", _full_row_oracle)
        m.setattr(simulate_module, "_BLOCK_BYTES", 1 << 62)
        oracle = _arrays(run(ou, 1))
    monkeypatch.setattr(simulate_module, "_BLOCK_BYTES", block_bytes)
    for workers in worker_counts:
        if workers > 1 and _pool_size(workers, 2) < 2:
            continue  # the serial fallback would compare the serial loop with itself
        blocked = _arrays(run(ou, workers))
        assert len(blocked) == len(oracle)
        for a, b in zip(oracle, blocked):
            np.testing.assert_array_equal(a, b)
        assert multiprocessing.active_children() == []


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_blowup_in_a_later_block_names_the_same_path_and_step(monkeypatch):
    # one slow step per block: every blow-up of the tests above happens blocks after the first
    monkeypatch.setattr(simulate_module, "_BLOCK_BYTES", 1)
    late = SimConfig(epsilon=0.1, dt=0.01, horizon=1.0, n_paths=24, seed=5, x0=0.0, y0=0.0, chunk_size=8)
    cases = [
        (lambda w: simulate_coupled(
            cubic_blowup_model(),
            SimConfig(epsilon=0.5, dt=0.05, horizon=5.0, n_paths=2, seed=0, x0=5.0, y0=0.0),
            workers=w), (0, 13)),
        (lambda w: simulate_frozen(
            cubic_fast_model(), 0.0,
            SimConfig(epsilon=1.0, dt=0.05, horizon=1.0, n_paths=37, seed=1, y0=0.0, fast_substep=0.05,
                      chunk_size=8)), (14, 13)),
        (lambda w: simulate_coupled(cubic_drift_model(), late, workers=w), (12, 833)),
        (lambda w: simulate_paired(cubic_drift_model(), flat_brownian(), late, workers=w), (12, 833)),
    ]
    for run, where in cases:
        for workers in (1, 2):
            with pytest.raises(BlowUpError, match="non-finite") as info:
                run(workers)
            assert (info.value.path_index, info.value.step) == where
            assert multiprocessing.active_children() == []


def test_huge_finite_states_are_not_a_blowup(monkeypatch):
    # x stays at 1.5e308, which the noise cannot move and any two of which sum
    # to infinity: the per-block check must neither fail nor replay
    base = cubic_blowup_model()
    still = replace(base, coefficients=replace(base.coefficients, b=lambda x, y: 0.0))
    checks = []
    monkeypatch.setattr(simulate_module, "_check_finite", lambda *args: checks.append(args))
    cfg = SimConfig(epsilon=0.1, dt=0.01, horizon=0.5, n_paths=9, seed=4, x0=1.5e308, y0=0.0,
                    chunk_size=4, store="full")
    coupled, paired = simulate_paired(still, flat_brownian(), cfg)
    for ens in (coupled, paired):
        np.testing.assert_array_equal(ens.slow, np.full((9, 51), 1.5e308))
    assert np.all(np.isfinite(coupled.fast))
    assert checks == []


def test_no_stream_outlives_its_run(ou):
    def fresh(seed, n_paths):
        return _full_row_oracle(seed, 0, n_paths, EQ_SLOW, 0, 5)

    simulate_coupled(ou, _BLOCK_CONFIG)
    np.testing.assert_array_equal(_draw_rows(6, 0, 37, EQ_SLOW, 0, 5), fresh(6, 37))
    with pytest.raises(BlowUpError), np.errstate(over="ignore", invalid="ignore"):
        simulate_coupled(cubic_blowup_model(),
                         SimConfig(epsilon=0.5, dt=0.05, horizon=5.0, n_paths=2, seed=0, x0=5.0, y0=0.0))
    np.testing.assert_array_equal(_draw_rows(0, 0, 2, EQ_SLOW, 0, 5), fresh(0, 2))


def test_two_threads_simulating_at_once_give_the_serial_results(ou, monkeypatch):
    # the same stream keys in both threads, drawn a slow step at a time, with
    # the interpreter switching threads as often as it can
    monkeypatch.setattr(simulate_module, "_BLOCK_BYTES", 1)
    configs = [replace(_BLOCK_CONFIG, horizon=0.5), replace(_BLOCK_CONFIG, horizon=0.5, chunk_size=5)]
    serial = [simulate_coupled(ou, cfg) for cfg in configs]
    results = [None, None]
    start = threading.Barrier(2)

    def work(i):
        start.wait()
        results[i] = simulate_coupled(ou, configs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for a, b in zip(serial, results):
        np.testing.assert_array_equal(a.slow, b.slow)
        np.testing.assert_array_equal(a.fast, b.fast)


def _resident_growth(fn):
    """Growth of the peak resident set, in bytes, while ``fn()`` runs in a forked child.

    A forked child's peak starts at its resident set at the fork, so the
    growth is what the run itself added, measured as the benchmark's
    ``peak_rss_mb`` is (tracemalloc peaks also move with numpy's warm-up).
    """
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)

    def child():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        fn()
        send.send(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)

    process = ctx.Process(target=child)
    process.start()
    try:
        assert receive.poll(120), "the measuring child sent nothing"
        return receive.recv() * 1024  # ru_maxrss counts KiB on Linux
    finally:
        process.join(timeout=60)
        assert not process.is_alive()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="measures in a forked child")
@pytest.mark.parametrize(
    "run, n_noise",
    [
        (lambda m, cfg: simulate_coupled(m, cfg), 2),
        (lambda m, cfg: simulate_paired(m, flat_brownian(), cfg), 2),
        (lambda m, cfg: simulate_frozen(m, 0.5, replace(cfg, fast_substep=0.001)), 1),
    ],
    ids=["coupled", "paired", "frozen"],
)
def test_noise_memory_does_not_grow_with_the_horizon(ou, monkeypatch, run, n_noise):
    # one 256-path chunk, 1000 fast steps per unit of time, blocks of 1 MiB:
    # drawn whole, the noise of horizon 8 would take 16 MiB per array
    monkeypatch.setattr(simulate_module, "_BLOCK_BYTES", 1 << 20)
    config = SimConfig(epsilon=0.1, dt=0.01, horizon=1.0, n_paths=256, seed=1, chunk_size=256)
    run(ou, replace(config, horizon=0.2))  # first calls fill caches before the fork
    short = _resident_growth(lambda: run(ou, config))
    long = _resident_growth(lambda: run(ou, replace(config, horizon=8.0)))
    assert abs(long - short) <= 0.1 * short
    # the blocks, plus per path its streams (about 4 KiB each), state, temporaries and output
    assert long <= n_noise * simulate_module._BLOCK_BYTES + config.n_paths * (32 << 10)
