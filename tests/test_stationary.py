import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from slowfast import (
    CoefficientSet,
    ConfigError,
    InfiniteMomentError,
    ModelSpec,
    NotPositiveRecurrentError,
    SimConfig,
    averaged_drift,
    classify,
    empirical_invariant,
    forward_pde_solve,
    get_builtin,
    moment,
    potential,
    simulate_frozen,
    stationary_density,
)
from slowfast import simulate, stationary
from slowfast.models import FULL_LINE, StateDomain
from slowfast.stationary import Density1D, EmpiricalMeasure, default_grid

from conftest import gaussian_pdf


def line_model(f, name="adhoc"):
    return ModelSpec(
        name=name,
        coefficients=CoefficientSet(
            b=lambda x, y: 0.0,
            sigma=lambda x, y: 1.0,
            f=f,
            g=lambda x, y: np.sqrt(2.0),
        ),
        slow_domain=StateDomain(FULL_LINE),
        fast_domain=StateDomain(FULL_LINE),
    )


@pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_example21_density_matches_mixture(example21, x):
    rho = stationary_density(example21, x)
    expected = x * x * np.exp(-x * rho.grid) + (1.0 - x) * np.exp(-rho.grid)
    np.testing.assert_allclose(rho.values, expected, atol=1e-6)


@pytest.mark.parametrize("x", [-1.0, 0.0, 2.5])
def test_ou_density_is_gaussian(ou, x):
    rho = stationary_density(ou, x)
    np.testing.assert_allclose(rho.values, gaussian_pdf(rho.grid, x), atol=1e-6)


def test_density_normalization(example21):
    for x in (0.0, 0.37, 1.0):
        rho = stationary_density(example21, x)
        assert np.trapezoid(rho.values, rho.grid) == pytest.approx(1.0, abs=1e-8)


def test_potential_closed_form(ou):
    # Phi_x(y) - Phi_x(x) integrates 2 f / g^2 = (x - y), an exact parabola
    for y in (-1.0, 0.3, 2.0):
        assert potential(ou, 0.5, y, y_ref=0.5) == pytest.approx(
            -0.5 * (y - 0.5) ** 2, abs=1e-10
        )


def test_moments_ou(ou):
    rho = stationary_density(ou, 1.5)
    assert moment(rho, 1) == pytest.approx(1.5, abs=1e-6)
    assert moment(rho, 2) - moment(rho, 1) ** 2 == pytest.approx(1.0, abs=1e-6)


def test_moments_example21(example21):
    # mixture mean: 0.25 * (1/x) * 2 ... at x=0.5 the component means are 2 and 1
    rho = stationary_density(example21, 0.5)
    assert moment(rho, 1) == pytest.approx(0.25 * 4.0 + 0.5 * 1.0, abs=1e-5)


@pytest.mark.parametrize(
    "grid, a, k",
    [
        (np.linspace(0.0, 400.0, 4001), 1.0, 1),
        # node heights of y rho fall toward the edge, panel masses do not
        (np.geomspace(1e-3, 400.0, 4001), 2.0, 1),
        (np.geomspace(1e-3, 400.0, 4001), 3.0, 2),
    ],
    ids=["uniform-a1", "geometric-a2", "geometric-a3-second"],
)
def test_moment_rejects_a_heavy_upper_tail(grid, a, k):
    rho = Density1D.from_unnormalized(grid, (1.0 + grid) ** -a)
    with pytest.raises(InfiniteMomentError, match=f"^the moment of order {k} is undefined"):
        moment(rho, k)


def test_moment_rejects_a_heavy_lower_tail():
    # the mirror image of uniform-a1: the lower end of a bare grid is open too
    grid = np.linspace(-400.0, 0.0, 4001)
    rho = Density1D.from_unnormalized(grid, 1.0 / (1.0 + np.abs(grid)))
    with pytest.raises(InfiniteMomentError, match="^the moment of order 1 is undefined: .* toward the lower end$"):
        moment(rho, 1)


def test_moment_on_samples():
    m = EmpiricalMeasure.from_samples([1.0, 2.0, 3.0, 6.0])
    assert moment(m, 1) == pytest.approx(3.0)
    assert moment(m, 2) == pytest.approx((1 + 4 + 9 + 36) / 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_empirical_measure_rejects_non_finite_samples(bad):
    with pytest.raises(ConfigError, match="finite"):
        EmpiricalMeasure.from_samples([1.0, bad, -2.0, 3.0])
    with pytest.raises(ConfigError, match="at least one"):
        EmpiricalMeasure.from_samples([])


def test_repelling_drift_raises():
    repelling = line_model(lambda x, y: y, name="repelling")
    with pytest.raises(NotPositiveRecurrentError):
        stationary_density(repelling, 0.0)


def test_logarithmic_divergence_raises():
    # f = -y / (1 + y^2) gives density ~ (1 + y^2)^{-1/2}: infinite mass,
    # but so slowly that only the late raw-mass plateau can reveal it
    slow_tails = line_model(
        lambda x, y: -y / (1.0 + y ** 2),
        name="log-divergent",
    )
    with pytest.raises(NotPositiveRecurrentError):
        stationary_density(slow_tails, 0.0)


@pytest.mark.parametrize("x", [0.03, 0.01, 0.003])
def test_shallow_tails_are_not_mistaken_for_divergence(example21, x):
    # the x^2 e^{-x y} component is nearly flat out to y ~ 1/x; the grid
    # must chase it without declaring the measure infinite
    rho = stationary_density(example21, x)
    assert rho.grid[-1] >= 2.0 / x
    assert np.trapezoid(rho.values, rho.grid) == pytest.approx(1.0, abs=1e-8)


def test_default_grid_anchored_and_increasing(example21):
    g = default_grid(example21, 0.5)
    assert np.all(np.diff(g) > 0)
    assert g[0] == pytest.approx(0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda m: stationary_density(m, 2.0),
        lambda m: default_grid(m, -0.5),
        lambda m: classify(m, -1.0),
        lambda m: forward_pde_solve(m, 1.5, 1.0, 1.0, grid=np.linspace(0.0, 20.0, 257)),
        lambda m: averaged_drift(m, 1.1),
        lambda m: potential(m, 1.5, 1.0),
    ],
    ids=["stationary_density", "default_grid", "classify", "forward_pde_solve", "averaged_drift", "potential"],
)
def test_frozen_state_outside_the_slow_domain_is_rejected(example21, call):
    # example21's slow domain is [0, 1]; its coefficients still evaluate
    # outside it, so nothing but the domain check can refuse these states
    with pytest.raises(ConfigError, match="outside the slow domain"):
        call(example21)


def test_density_constructor_rejects_negative_mass():
    grid = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ConfigError):
        Density1D.from_unnormalized(grid, -np.ones(5))


def test_empirical_invariant_matches_analytic_law(ou):
    # the frozen process runs on the unit time scale, so the horizon must
    # cover several relaxation times plus the burn-in it discards
    cfg = SimConfig(
        epsilon=1.0, dt=0.02, horizon=16.0, n_paths=100, seed=21, x0=0.8, y0=0.0, store="full"
    )
    emp = empirical_invariant(ou, 0.8, cfg)
    assert emp.n_samples >= 2000
    mean = moment(emp, 1)
    var = moment(emp, 2) - mean**2
    assert mean == pytest.approx(0.8, abs=0.1)
    assert var == pytest.approx(1.0, abs=0.15)


def test_empirical_invariant_refuses_a_process_without_invariant_law():
    # Brownian motion on the line is null recurrent: there is no law to sample
    brownian = line_model(lambda x, y: 0.0, name="brownian")
    cfg = SimConfig(epsilon=1.0, dt=0.02, horizon=4.0, n_paths=20, seed=1, y0=0.0, store="full")
    with pytest.raises(NotPositiveRecurrentError):
        empirical_invariant(brownian, 0.0, cfg)


@pytest.mark.parametrize("x", [0.0, 1.0, 6.0])
def test_spectral_gap_of_ou_is_one(ou, x):
    assert stationary._spectral_gap(ou, x) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("x", [0.0, 1e-3, 0.01, 0.1, 0.5])
def test_spectral_gap_of_example21_closes_at_the_wall(example21, x):
    # x^2 / 4 from the potential plus the lowest mode (pi / L)^2 of the
    # truncated grid; at x = 0 the law is exp(-y) and the rate is 1/4 again
    grid = stationary._default_pde_grid(example21, x, None)
    length = grid[-1] - grid[0]
    expected = (0.25 if x == 0.0 else x * x / 4.0) + (np.pi / length) ** 2
    assert stationary._spectral_gap(example21, x) == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize("horizon, expected", [(8.0, 4.0), (40.0, 10.0)])
def test_burn_in_is_ten_relaxation_times_capped_at_half_the_horizon(ou, horizon, expected, monkeypatch):
    # the burn-in comes from the generator alone: no path may run
    monkeypatch.setattr(simulate, "_euler_loop", None)
    cfg = SimConfig(epsilon=1.0, dt=0.02, horizon=horizon, n_paths=4, seed=1, y0=0.0, store="full")
    assert stationary._estimate_burn_in(ou, 1.0, cfg) == pytest.approx(expected, rel=1e-4)


def test_criterion_5_burn_in_is_the_half_horizon_cap(example21):
    # 10 / lambda(0.5) is about 158, so the T/2 cap of 30 binds and the
    # pooled samples start only 1.9 relaxation times after the start
    assert 10.0 / stationary._spectral_gap(example21, 0.5) == pytest.approx(158.4, rel=1e-3)
    cfg = SimConfig(epsilon=1.0, dt=0.02, horizon=60.0, n_paths=4000, seed=42, x0=0.5, y0=1.0, store="full")
    assert stationary._estimate_burn_in(example21, 0.5, cfg) == 30.0


@pytest.mark.parametrize(
    "name, x",
    [("example21", 0.0), ("example21", 0.5), ("example21", 1.0), ("ou-coupled", -5.0),
     ("ou-coupled", 6.0), ("pure-fast-l2", 0.5)],
)
def test_extent_is_the_ends_of_the_default_grid(name, x):
    model = get_builtin(name)
    ends = np.array(stationary._extent(model, x), dtype=float)
    assert ends.tobytes() == default_grid(model, x)[[0, -1]].tobytes()


@pytest.mark.parametrize("x", [-1000.0, -6.0, 6.0, 127.0, 1000.0])
def test_ou_far_from_zero_is_as_accurate_as_at_zero(ou, x):
    # every frozen law is normal(x, 1); the walks start at its mode, so
    # moving x moves the grid and leaves the accuracy and the gap alone
    def error(x):
        rho = stationary_density(ou, x)
        return np.max(np.abs(rho.values - gaussian_pdf(rho.grid, x)))

    assert error(x) <= error(0.0)
    assert stationary._spectral_gap(ou, x) == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("x", [-1e6, -1000.0, 0.3, 127.0, 1e6])
def test_mode_walk_lands_within_one_fine_panel_of_the_ou_mode(ou, x):
    ratio, log_gsq = stationary._frozen_axis(ou, x)
    assert stationary._mode(ratio, log_gsq, ou.fast_domain) == pytest.approx(x, abs=1.0 / 256.0)


def test_mode_walk_keeps_the_domain_anchor_when_the_shape_never_turns():
    repelling = line_model(lambda x, y: y + 1.0, name="repelling")
    ratio, log_gsq = stationary._frozen_axis(repelling, 0.0)
    assert stationary._mode(ratio, log_gsq, repelling.fast_domain) == 0.0


@pytest.mark.parametrize("where", ["estimated", "on-a-stored-time", "between-stored-times"])
@pytest.mark.parametrize("store", ["full", "strided"])
@pytest.mark.parametrize("name, x", [("example21", 0.5), ("ou-coupled", 0.8)])
def test_empirical_invariant_pools_the_columns_from_the_burn_in_on(name, x, store, where, monkeypatch):
    # 200 steps, so stride 7 leaves a short last stride; chunks of 6 split the 20 paths unevenly
    model = get_builtin(name)
    cfg = SimConfig(epsilon=1.0, dt=0.02, horizon=4.0, n_paths=20, seed=9, x0=x, y0=1.0,
                    store=store, stride=7, chunk_size=6)
    whole = simulate_frozen(model, x, cfg)
    assert whole.fast.shape[1] == (201 if store == "full" else 30)
    b = stationary._estimate_burn_in(model, x, cfg)
    if where != "estimated":
        k = whole.times.size // 3
        b = whole.times[k] if where == "on-a-stored-time" else 0.5 * (whole.times[k] + whole.times[k + 1])
        monkeypatch.setattr(stationary, "_estimate_burn_in", lambda *args: b)
    kept = whole.times >= b
    assert 0 < kept.sum() < kept.size
    emp = empirical_invariant(model, x, cfg)
    oracle = np.sort(whole.fast[:, kept].ravel())
    assert emp.samples.tobytes() == oracle.tobytes()
    assert not emp.samples.flags.writeable

    late = simulate_frozen(model, x, cfg, burn_in=b)
    assert late.times.tobytes() == whole.times[kept].tobytes()
    assert late.fast.tobytes() == whole.fast[:, kept].tobytes()
    assert late.slow.shape == late.fast.shape
    at_zero = simulate_frozen(model, x, cfg, burn_in=0.0)
    np.testing.assert_array_equal(at_zero.times, cfg.stored_indices() * cfg.dt)
    assert at_zero.fast.tobytes() == whole.fast.tobytes()


_POOLED_CONFIG = SimConfig(epsilon=1.0, dt=0.02, horizon=8.0, n_paths=500, seed=3, x0=0.8, y0=0.0,
                           store="full", chunk_size=48)


def _traced_peak(run):
    run()  # first-call imports and caches are not the run's memory
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_empirical_invariant_holds_only_the_pooled_samples(ou, monkeypatch):
    # in one process, so tracemalloc sees the noise blocks. The burn-in is
    # capped at half the horizon, so the whole trajectory would be twice the
    # samples; the slack covers a chunk's 48 generators (about 0.9 kB each),
    # the stored-step table and the step temporaries
    block = 64 << 10
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", block)
    emp, peak = _traced_peak(lambda: empirical_invariant(ou, 0.8, _POOLED_CONFIG, workers=1))
    assert emp.samples.shape == (500 * 201,)
    assert peak < emp.samples.nbytes + 2 * block + (128 << 10)


def test_empirical_invariant_draws_no_noise_in_the_parent_by_default(ou, monkeypatch, forks):
    # tracemalloc sees only this process. In one process the run holds a
    # noise block beside the samples; forked, the children draw the noise
    # and write the samples into a shared mapping, which is not traced. The
    # burn-in is the T/2 cap here, set directly: the spectral gap that
    # finds it builds a grid larger than a block
    monkeypatch.setattr(stationary, "_estimate_burn_in", lambda model, x, config: config.horizon / 2.0)
    block = 256 << 10
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", block)
    cfg = replace(_POOLED_CONFIG, chunk_size=None)
    serial, serial_peak = _traced_peak(lambda: empirical_invariant(ou, 0.8, cfg, workers=1))
    forked, peak = _traced_peak(lambda: empirical_invariant(ou, 0.8, cfg))
    assert peak < block < serial_peak - serial.samples.nbytes
    assert forked.samples.tobytes() == serial.samples.tobytes()
