import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from slowfast import (
    AveragedModel,
    CoefficientSet,
    ConfigError,
    DegenerateDiffusionError,
    DomainError,
    InfiniteMomentError,
    ModelSpec,
    averaged_diffusion,
    averaged_drift,
    build_averaged_model,
    discontinuity_probe,
    get_builtin,
    holder_fit,
)
from slowfast.models import FULL_LINE, HALF_LINE, AnalyticInfo, StateDomain


def ou_like(b, sigma=None, name="adhoc-ou"):
    if sigma is None:
        sigma = lambda x, y: 1.0
    return ModelSpec(
        name=name,
        coefficients=CoefficientSet(
            b=b,
            sigma=sigma,
            f=lambda x, y: x - y,
            g=lambda x, y: np.sqrt(2.0),
        ),
        slow_domain=StateDomain(FULL_LINE),
        fast_domain=StateDomain(FULL_LINE),
    )


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
def test_example21_averaged_drift_closed_form(example21, x):
    quad = averaged_drift(replace(example21, analytic=None), x)
    assert quad == pytest.approx(2.0 - x, abs=1e-6)


@pytest.mark.parametrize("x", [0.03, 0.01])
def test_example21_averaged_drift_near_the_wall(example21, x):
    quad = averaged_drift(replace(example21, analytic=None), x)
    assert quad == pytest.approx(2.0 - x, abs=1e-6)


def test_example21_averaged_diffusion(example21):
    stripped = replace(example21, analytic=None)
    abar, sbar = averaged_diffusion(stripped, 0.5)
    assert abar == pytest.approx(5.0, abs=1e-6)
    assert sbar == pytest.approx(np.sqrt(5.0), abs=1e-6)


def test_ou_averaged_coefficients(ou):
    stripped = replace(ou, analytic=None)
    e = np.exp(-0.5)
    for x in (-1.0, 0.0, 0.8):
        assert averaged_drift(stripped, x) == pytest.approx(-x + np.sin(x) * e, abs=1e-8)
        abar, _ = averaged_diffusion(stripped, x)
        assert abar == pytest.approx(1.0 + 0.5 * np.cos(x) * e, abs=1e-8)


def test_build_prefers_analytic_forms(ou):
    grid = np.linspace(-2.0, 2.0, 41)
    avg = build_averaged_model(ou, grid)
    assert avg.method == "analytic"
    quad = build_averaged_model(replace(ou, analytic=None), grid)
    assert quad.method == "quadrature"
    np.testing.assert_allclose(avg.b_bar, quad.b_bar, atol=1e-8)
    np.testing.assert_allclose(avg.a_bar, quad.a_bar, atol=1e-8)
    partial = replace(ou, analytic=replace(ou.analytic, averaged_diffusion=None))
    assert build_averaged_model(partial, grid).method == "mixed"


def test_averaged_model_interpolates(ou):
    grid = np.linspace(-2.0, 2.0, 81)
    avg = build_averaged_model(ou, grid)
    x = 0.537
    i = np.searchsorted(grid, x)
    frac = (x - grid[i - 1]) / (grid[i] - grid[i - 1])
    expected = (1 - frac) * avg.b_bar[i - 1] + frac * avg.b_bar[i]
    assert avg.drift(x) == pytest.approx(expected, rel=1e-12)


def test_discontinuity_probe_measures_the_jump(example21):
    probe = discontinuity_probe(example21, 0.0, [0.1, 0.03, 0.01])
    assert probe["value_at_x0"] == pytest.approx(1.0, abs=1e-9)
    assert probe["right_limit_estimate"] == pytest.approx(2.0, abs=0.02)
    assert probe["gap"] == pytest.approx(1.0, abs=0.02)


def test_discontinuity_probe_validates_deltas(example21):
    with pytest.raises(ConfigError):
        discontinuity_probe(example21, 0.0, [0.01, 0.03, 0.1])
    with pytest.raises(ConfigError):
        discontinuity_probe(example21, 0.0, [0.1, -0.03, 0.01])


def test_holder_fit_ou_w1_is_lipschitz(ou):
    pairs = [(0.5, 0.3), (0.5, 0.4), (0.5, 0.45), (0.5, 0.48)]
    rep = holder_fit("w1", ou, pairs)
    assert rep.reference_exponent == pytest.approx(0.5)
    assert rep.fitted_exponent == pytest.approx(1.0, abs=1e-4)
    assert rep.fitted_constant == pytest.approx(1.0, abs=1e-3)
    assert rep.bound_satisfied
    d = rep.as_dict()
    assert d["metric"] == "w1"
    assert len(d["pairs"]) == 4


def test_holder_fit_example21_tv_follows_reference(example21):
    pairs = [(0.3, 0.0), (0.1, 0.0), (0.03, 0.0)]
    rep = holder_fit("tv", example21, pairs)
    assert rep.reference_exponent == pytest.approx(2.0 / 3.0)
    assert 0.55 <= rep.fitted_exponent <= 0.8
    assert rep.bound_satisfied


def test_holder_fit_example21_w1_is_not_holder_at_the_wall(example21):
    # W1 distances grow toward 1 as x -> 0, so no Holder bound can hold
    pairs = [(0.3, 0.0), (0.1, 0.0), (0.03, 0.0)]
    rep = holder_fit("w1", example21, pairs)
    assert rep.fitted_exponent < 0.0
    assert not rep.bound_satisfied


def test_averaged_drift_requires_integrable_integrand():
    grower = ou_like(
        b=lambda x, y: np.exp(np.minimum(y ** 2 / 2.0, 700.0)),
        name="first-moment-diverges",
    )
    with pytest.raises(InfiniteMomentError, match="^the averaged drift is undefined"):
        averaged_drift(grower, 0.0)
    grower = ou_like(
        b=lambda x, y: 0.0,
        sigma=lambda x, y: np.exp(np.minimum(y ** 2 / 4.0, 350.0)),
        name="second-moment-diverges",
    )
    with pytest.raises(InfiniteMomentError, match="^the averaged squared dispersion is undefined"):
        averaged_diffusion(grower, 0.0)


def test_averaged_drift_does_not_judge_a_reflecting_wall():
    # pi is the exponential law above the wall at 5, largest at the wall, so
    # b(y) = y has mass that grows toward 5; a wall holds no tail
    walled = ModelSpec(
        name="wall-at-five",
        coefficients=CoefficientSet(
            b=lambda x, y: y,
            sigma=lambda x, y: 1.0,
            f=lambda x, y: -1.0,
            g=lambda x, y: np.sqrt(2.0),
        ),
        slow_domain=StateDomain(FULL_LINE),
        fast_domain=StateDomain(HALF_LINE, 5.0),
    )
    assert averaged_drift(walled, 0.0) == pytest.approx(6.0, abs=1e-6)


def test_vanishing_dispersion_rejected():
    flat = ou_like(
        b=lambda x, y: 0.0,
        sigma=lambda x, y: 0.0,
        name="zero-sigma",
    )
    with pytest.raises(DegenerateDiffusionError):
        averaged_diffusion(flat, 0.0)


def test_build_failure_names_the_node():
    grower = ou_like(
        b=lambda x, y: np.exp(np.minimum(y ** 2 / 2.0, 700.0)),
        name="first-moment-diverges",
    )
    with pytest.raises(InfiniteMomentError, match="node x=0.0: the averaged drift is undefined"):
        build_averaged_model(grower, np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("name", ["example21", "ou-coupled", "pure-fast-l2"])
def test_analytic_table_has_the_bits_of_the_closed_forms_node_by_node(name):
    model = get_builtin(name)
    lo, hi = (0.0, 1.0) if name == "example21" else (-20.0, 20.0)
    grids = [np.linspace(lo, hi, 4097), np.sort(np.random.default_rng(3).uniform(lo, hi, 1000))]
    for grid in grids:
        avg = build_averaged_model(model, grid)
        assert avg.method == "analytic"
        for table, closed_form in ((avg.b_bar, model.analytic.averaged_drift),
                                   (avg.a_bar, model.analytic.averaged_diffusion)):
            by_node = np.array([float(closed_form(x)) for x in grid])
            np.testing.assert_array_equal(table.view(np.int64), by_node.view(np.int64))


def test_mixed_and_failing_analytic_builds_name_the_node():
    # sigma^2 = e^{y^2/2} has no mean under the standard normal law from x = 0.5 on
    grower = ou_like(
        b=lambda x, y: 0.0,
        sigma=lambda x, y: np.exp(np.minimum(y ** 2 / 4.0, 350.0)) if x >= 0.5 else 1.0,
        name="second-moment-diverges-past-a-half",
    )
    mixed = replace(grower, analytic=AnalyticInfo(averaged_drift=lambda x: np.zeros(np.shape(x))))
    with pytest.raises(InfiniteMomentError, match="node x=0.5: the averaged squared dispersion is undefined"):
        build_averaged_model(mixed, np.linspace(0.0, 1.0, 5))

    def refuses_past_a_half(x):
        if np.any(np.asarray(x) > 0.6):
            raise DomainError(f"no closed form at {x}")
        return np.ones(np.shape(x))

    closed = replace(mixed, analytic=AnalyticInfo(averaged_drift=lambda x: np.zeros(np.shape(x)),
                                                  averaged_diffusion=refuses_past_a_half))
    with pytest.raises(DomainError, match="node x=0.75: no closed form"):
        build_averaged_model(closed, np.linspace(0.0, 1.0, 5))
    assert build_averaged_model(closed, np.linspace(0.0, 0.5, 5)).method == "analytic"


def test_averaged_model_validation():
    grid = np.linspace(0.0, 1.0, 3)
    with pytest.raises(ConfigError, match="increasing"):
        AveragedModel(
            source="m",
            x_grid=grid[::-1],
            b_bar=np.zeros(3),
            a_bar=np.ones(3),
            slow_domain=StateDomain(FULL_LINE),
            method="analytic",
        )
    # a node at infinity has no finite slope to interpolate on
    for bad in ([0.0, 1.0, np.inf], [-np.inf, 0.0]):
        with pytest.raises(ConfigError, match="spacing must be finite"):
            AveragedModel(source="m", x_grid=np.array(bad), b_bar=np.zeros(len(bad)), a_bar=np.ones(len(bad)),
                          slow_domain=StateDomain(FULL_LINE), method="analytic")
    # finite spacing over a span too wide to subtract: the binary search, still np.interp's bits
    wide = np.array([-1e308, 0.0, 1e308, 1.7e308])
    avg = AveragedModel(source="m", x_grid=wide, b_bar=np.array([1.0, -2.0, 3.0, 0.5]), a_bar=np.arange(1.0, 5.0),
                        slow_domain=StateDomain(FULL_LINE), method="analytic")
    assert avg._inv_h is None
    x = np.array([-np.inf, -1e308, -3e307, 0.0, 5e307, 1e308, 1.2e308, 1.7e308, np.inf, np.nan])
    drift, sigma = avg.drift_and_sigma(x)
    np.testing.assert_array_equal(drift, avg.drift(x))
    np.testing.assert_array_equal(sigma, avg.sigma(x))


def _table_grid(kind, n, lo, span, rng):
    if kind == "linspace":
        return np.linspace(lo, lo + span, n)
    if kind == "geometric":
        return lo + np.geomspace(span * 1e-6, span, n)
    # jittered: each inner node moved by up to 0.45 of a panel, so the order holds
    grid = np.linspace(lo, lo + span, n)
    grid[1:-1] += rng.uniform(-0.45, 0.45, n - 2) * (span / (n - 1))
    return grid


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["linspace", "geometric", "jittered"]),
    n=st.integers(2, 1025),
    lo=st.floats(-1e3, 1e3),
    span=st.floats(1e-2, 1e4),
    seed=st.integers(0, 2**32 - 1),
)
def test_joint_lookup_is_np_interp_bit_for_bit(kind, n, lo, span, seed):
    rng = np.random.default_rng(seed)
    grid = _table_grid(kind, n, lo, span, rng)
    b_bar = rng.normal(0.0, 10.0, n)
    b_bar[rng.integers(n)] = -0.0  # np.interp returns a node's own value, sign of zero included
    avg = AveragedModel(source="m", x_grid=grid, b_bar=b_bar, a_bar=rng.uniform(0.1, 10.0, n),
                        slow_domain=StateDomain(FULL_LINE), method="analytic")
    if kind == "linspace":
        assert avg._inv_h is not None  # the floor-division search, not the binary one
    x = np.concatenate([
        grid, np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf),
        rng.uniform(lo - span, lo + 2.0 * span, 500),
        [lo - span, lo + 2.0 * span, np.nan, np.inf, -np.inf],
    ])
    # NaN reaches the lookup after a blow-up: no cast warning (pytest turns warnings into errors)
    drift, sigma = avg.drift_and_sigma(x)
    for got, want in ((drift, avg.drift(x)), (sigma, avg.sigma(x))):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    scalar = avg.drift_and_sigma(grid[-1])
    assert scalar == (avg.drift(grid[-1]), avg.sigma(grid[-1]))
