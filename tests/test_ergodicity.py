import numpy as np
import pytest

from slowfast import (
    CoefficientSet,
    DegenerateDiffusionError,
    ModelSpec,
    classify,
    forward_pde_solve,
    stationary_density,
    tv_decay_curve,
    tv_distance,
    w1_decay_coupling,
)
from slowfast.ergodicity import _flux_operator, _log_recurrence
from slowfast.models import FULL_LINE, StateDomain
from slowfast.numerics import cumulative_gauss

from conftest import gaussian_pdf


def line_model(f, name, g=None):
    if g is None:
        g = lambda x, y: np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, np.sqrt(2.0))
    return ModelSpec(
        name=name,
        coefficients=CoefficientSet(
            b=lambda x, y: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape),
            sigma=lambda x, y: np.ones(np.broadcast(np.asarray(x), np.asarray(y)).shape),
            f=f,
            g=g,
        ),
        slow_domain=StateDomain(FULL_LINE),
        fast_domain=StateDomain(FULL_LINE),
    )


def test_classify_example21_middle(example21):
    report = classify(example21, 0.5)
    assert (report.ergodic, report.exp_ergodic, report.strongly_ergodic) == (True, True, False)
    d = report.as_dict()
    assert d["strongly_ergodic"] == "false"
    assert d["ergodic"] == "true"


def test_classify_ou(ou):
    report = classify(ou, 0.0)
    assert (report.ergodic, report.exp_ergodic, report.strongly_ergodic) == (True, True, False)


def test_classify_cubic_restoring_is_strongly_ergodic():
    cubic = line_model(lambda x, y: -np.asarray(y, float) ** 3, "cubic-restoring")
    report = classify(cubic, 0.0)
    assert (report.ergodic, report.exp_ergodic, report.strongly_ergodic) == (True, True, True)


def test_classify_repelling_fails_everything():
    repelling = line_model(lambda x, y: np.asarray(y, float), "repelling")
    report = classify(repelling, 0.0)
    assert (report.ergodic, report.exp_ergodic, report.strongly_ergodic) == (
        False,
        False,
        False,
    )


def test_classify_records_criterion_integrals(example21):
    report = classify(example21, 0.5)
    for name in ("speed_total", "scale_recurrence", "exponential_sup", "strong_tail"):
        assert {"verdict", "value", "radius"} <= set(report.integrals[name])
    # the supremum criterion integral saturates at 1/(2 x^2) = 2 here
    assert report.integrals["exponential_sup"]["value"] == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("a", [-0.3, 0.0, 0.3])
def test_log_recurrence_is_a_geometric_sum(a):
    # constant a and b: V[n] = e^b (1 + e^a + ... + e^{(n-1) a})
    n, b = 60, 0.7
    v = _log_recurrence(np.full(n, a), np.full(n, b))
    k = np.arange(1, n + 1)
    expected = b + (np.log(k) if a == 0.0 else np.log(np.expm1(a * k) / np.expm1(a)))
    assert v[0] == -np.inf
    np.testing.assert_allclose(v[1:], expected, rtol=1e-13, atol=0.0)


def test_flux_operator_keeps_the_ito_form():
    # with a non-constant diffusion D the zero-flux state of
    # u_t = -(b u)' + (D u)'' is exp(int b/D) / D; the 1/D factor exists
    # only through the -delta log D term of the edge Peclet number
    drift = lambda y: -y
    diffusion = lambda y: 1.0 + 0.5 * np.tanh(y)
    grid = np.linspace(-6.0, 6.0, 401)
    vol, (lower, diag, upper) = _flux_operator(grid, drift, diffusion)
    a = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    s = np.exp(cumulative_gauss(lambda y: drift(y) / diffusion(y), grid)) / diffusion(grid)
    assert np.max(np.abs(a @ s)) <= 1e-13 * np.max(np.abs(diag) * s)
    # zero flux through both ends: the generator conserves mass exactly
    u = np.random.default_rng(7).random(grid.size)
    assert abs(vol @ (a @ u)) <= 1e-13 * (vol @ (np.abs(diag) * u))


@pytest.mark.parametrize(
    "solve",
    [
        lambda m, grid: forward_pde_solve(m, 0.0, 1.0, 1.0, grid=grid),
        lambda m, grid: tv_decay_curve(m, 0.0, 1.0, [1.0], grid=grid),
    ],
    ids=["forward_pde_solve", "tv_decay_curve"],
)
def test_pde_rejects_diffusion_vanishing_on_an_explicit_grid(solve):
    vanishing = line_model(lambda x, y: -np.asarray(y, float), "vanishing-g", g=lambda x, y: np.tanh(y))
    grid = np.linspace(-4.0, 4.0, 81)  # holds the node y = 0 where g = 0
    with pytest.raises(DegenerateDiffusionError):
        solve(vanishing, grid)


def test_heat_kernel():
    # f = 0 with g = sqrt(2) is the plain heat equation; compare the
    # forward solution against the exact Gaussian at t = 1/2 (variance 1)
    heat = line_model(lambda x, y: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape), "heat")
    grid = np.linspace(-12.0, 12.0, 4097)
    rho = forward_pde_solve(heat, 0.0, 0.0, 0.5, grid=grid)
    err = np.trapezoid(np.abs(rho.values - gaussian_pdf(grid, 0.0)), grid)
    assert err < 1e-3


def test_pde_reaches_stationarity(ou):
    # twenty relaxation times of the unit-rate frozen process
    rho = forward_pde_solve(ou, 0.3, 2.0, 20.0)
    target = stationary_density(ou, 0.3, grid=rho.grid)
    err = np.trapezoid(np.abs(rho.values - target.values), rho.grid)
    assert err < 1e-3


def test_pde_preserves_stationarity(ou):
    # starting from the invariant density, the forward march must not move
    target = stationary_density(ou, -0.5)
    rho = forward_pde_solve(ou, -0.5, target, 1.0)
    resampled = stationary_density(ou, -0.5, grid=rho.grid)
    assert tv_distance(rho, resampled) < 1e-8


def test_tv_decay_rate_matches_spectral_gap(ou):
    curve = tv_decay_curve(ou, 0.0, 3.0, np.linspace(1.0, 4.0, 7))
    assert np.all(np.diff(curve.values) < 0)
    assert curve.fit["rate"] == pytest.approx(1.0, abs=0.05)
    assert curve.fit["r_squared"] > 0.999


def test_w1_coupling_decay_rate(ou):
    # synchronous Euler coupling contracts by (1 - h) per step, i.e. at
    # rate -ln(1 - h)/h = 1.00503 for the h = 0.01 grid used inside
    times = np.linspace(0.5, 3.0, 6)
    curve = w1_decay_coupling(ou, 0.0, 3.0, -1.0, times, n_paths=64, seed=5)
    assert curve.fit["rate"] == pytest.approx(1.00503, abs=1e-3)
    assert curve.fit["r_squared"] > 0.999999
    assert curve.fit["amplitude"] == pytest.approx(4.0, rel=1e-3)


def test_decay_curve_csv(ou, tmp_path):
    curve = w1_decay_coupling(ou, 0.0, 1.0, 0.0, [0.5, 1.0], n_paths=8, seed=0)
    text = curve.to_csv()
    assert text.splitlines()[0] == "t,value"
    p = tmp_path / "curve.csv"
    curve.to_csv(p)
    assert p.read_text() == text
