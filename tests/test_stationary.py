import numpy as np
import pytest

from slowfast import (
    CoefficientSet,
    ConfigError,
    ModelSpec,
    NotPositiveRecurrentError,
    SimConfig,
    averaged_drift,
    classify,
    empirical_invariant,
    forward_pde_solve,
    moment,
    potential,
    stationary_density,
)
from slowfast import stationary
from slowfast.models import FULL_LINE, StateDomain
from slowfast.stationary import Density1D, EmpiricalMeasure, default_grid

from conftest import gaussian_pdf


def line_model(f, name="adhoc"):
    return ModelSpec(
        name=name,
        coefficients=CoefficientSet(
            b=lambda x, y: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape),
            sigma=lambda x, y: np.ones(np.broadcast(np.asarray(x), np.asarray(y)).shape),
            f=f,
            g=lambda x, y: np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, np.sqrt(2.0)),
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


def test_moment_on_samples():
    m = EmpiricalMeasure.from_samples([1.0, 2.0, 3.0, 6.0])
    assert moment(m, 1) == pytest.approx(3.0)
    assert moment(m, 2) == pytest.approx((1 + 4 + 9 + 36) / 4)


def test_repelling_drift_raises():
    repelling = line_model(lambda x, y: np.asarray(y, float), name="repelling")
    with pytest.raises(NotPositiveRecurrentError):
        stationary_density(repelling, 0.0)


def test_logarithmic_divergence_raises():
    # f = -y / (1 + y^2) gives density ~ (1 + y^2)^{-1/2}: infinite mass,
    # but so slowly that only the late raw-mass plateau can reveal it
    slow_tails = line_model(
        lambda x, y: -np.asarray(y, float) / (1.0 + np.asarray(y, float) ** 2),
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


def test_burn_in_probe_propagates_program_errors(ou, monkeypatch):
    # only a SlowfastError from the probe falls back to half the horizon
    def broken(*args, **kwargs):
        raise RuntimeError("probe bug")

    monkeypatch.setattr(stationary, "frozen_pair_gap", broken)
    cfg = SimConfig(epsilon=1.0, dt=0.02, horizon=1.0, n_paths=4, seed=1, y0=0.0, store="full")
    with pytest.raises(RuntimeError, match="probe bug"):
        empirical_invariant(ou, 0.0, cfg)


def test_density_csv_round_trip(ou, tmp_path):
    rho = stationary_density(ou, 0.0)
    text = rho.to_csv()
    assert text.startswith("y,density\n")
    p = tmp_path / "rho.csv"
    rho.to_csv(p)
    back = np.loadtxt(p, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(back[:, 0], rho.grid)
    np.testing.assert_array_equal(back[:, 1], rho.values)
