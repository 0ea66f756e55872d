import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from slowfast import (
    CoefficientSet,
    DomainError,
    ModelSpec,
    SimConfig,
    UnknownModelError,
    build_averaged_model,
    check_assumptions,
    classify,
    eval_coefficients,
    forward_pde_solve,
    get_builtin,
    list_builtin_models,
    sample_tuple_grid,
    simulate_coupled,
    simulate_frozen,
    stationary_density,
)
from slowfast.models import CAVEAT, FAIL, FULL_LINE, PASS, StateDomain


def test_registry_names():
    assert list_builtin_models() == ["example21", "ou-coupled", "pure-fast-l2"]
    with pytest.raises(UnknownModelError, match="example21"):
        get_builtin("nope")


def test_example21_coefficients(example21):
    x = np.array([0.2, 0.8])
    y = np.array([1.0, 3.0])
    b, s, f, g = eval_coefficients(example21, x, y)
    np.testing.assert_allclose(b, y)
    np.testing.assert_allclose(s, y)
    np.testing.assert_allclose(g, np.sqrt(2.0))
    # fast drift is the log-derivative of the invariant shape; check it
    # against a centered finite difference of the density itself
    rho = example21.analytic.stationary_density
    h = 1e-6
    expected = (np.log(rho(x, y + h)) - np.log(rho(x, y - h))) / (2 * h)
    np.testing.assert_allclose(f, expected, atol=1e-7)


def test_example21_fast_drift_degenerate_mixture_ends(example21):
    # at x = 0 and x = 1 the mixture collapses to a single exponential
    f = example21.coefficients.f
    np.testing.assert_allclose(f(0.0, 2.3), -1.0)
    np.testing.assert_allclose(f(1.0, 2.3), -1.0)


def test_ou_coefficients(ou):
    b, s, f, g = eval_coefficients(ou, 0.7, -0.2)
    assert b == pytest.approx(-0.7 + np.sin(-0.2))
    assert s == pytest.approx(np.sqrt(1.0 + 0.5 * np.cos(-0.2)))
    assert f == pytest.approx(0.9)
    assert g == pytest.approx(np.sqrt(2.0))


def test_domain_rejects_outside_states(example21):
    with pytest.raises(DomainError, match="slow"):
        eval_coefficients(example21, 1.2, 1.0)
    with pytest.raises(DomainError, match="fast"):
        eval_coefficients(example21, 0.5, -0.1)


@given(st.floats(-50, 50))
def test_interval_reflection_lands_inside(v):
    dom = StateDomain("interval-reflecting", 0.0, 1.0)
    r = dom.reflect(np.array([v]))[0]
    assert 0.0 <= r <= 1.0


@given(st.floats(-50, 50))
def test_half_line_reflection_is_folding(v):
    dom = StateDomain("half-line-reflecting", 0.0)
    r = dom.reflect(np.array([v]))[0]
    assert r == pytest.approx(abs(v))


def test_full_line_reflection_is_identity():
    dom = StateDomain("full-line")
    vals = np.array([-3.0, 0.0, 7.5])
    np.testing.assert_array_equal(dom.reflect(vals.copy()), vals)


def test_tuple_grid_shape_and_domains(example21):
    grid = sample_tuple_grid(example21, 200, seed=4)
    assert grid.shape == (200, 4)
    x1, y1, x2, y2 = grid.T
    assert example21.slow_domain.contains(x1).all()
    assert example21.slow_domain.contains(x2).all()
    assert example21.fast_domain.contains(y1).all()
    assert example21.fast_domain.contains(y2).all()
    np.testing.assert_array_equal(grid, sample_tuple_grid(example21, 200, seed=4))
    assert not np.array_equal(grid, sample_tuple_grid(example21, 200, seed=5))


def test_assumptions_ou(ou):
    report = check_assumptions(ou, sample_tuple_grid(ou, 2000, seed=0))
    assert report["slow-elliptic"].status == PASS
    assert report["fast-nondegenerate"].status == PASS
    # f = x - y gives exactly unit coupling constant
    assert report["fast-coupled-lipschitz"].status == PASS
    assert report["fast-coupled-lipschitz"].estimated_constant == pytest.approx(1.0, abs=1e-9)


def test_unbounded_drift_reports_caveat(ou):
    # wide slow box makes the growing supremum of |b| = |-x + sin y| unambiguous
    grid = sample_tuple_grid(ou, 2000, seed=0, slow_box=(-30.0, 30.0))
    report = check_assumptions(ou, grid)
    assert report["slow-bounded"].status == CAVEAT
    assert "grows" in report["slow-bounded"].note


def test_assumptions_degenerate_slow_noise(pure_fast):
    # sampling is evidence only, so hand the checker the degenerate point:
    # sigma(x, 0) = 0 must fail ellipticity with that witness
    grid = np.vstack([sample_tuple_grid(pure_fast, 500, seed=1), [0.3, 0.0, 1.0, 1.0]])
    report = check_assumptions(pure_fast, grid)
    check = report["slow-elliptic"]
    assert check.status == FAIL
    assert check.witness == (0.3, 0.0)
    d = report.as_dict()
    assert d["checks"]["slow-elliptic"]["status"] == FAIL


def test_tall_fast_box_flags_unbounded_slow_coefficients(example21):
    # b(x, y) = y keeps growing along the fast direction
    grid = sample_tuple_grid(example21, 2000, seed=3, fast_box=(0.0, 1000.0))
    report = check_assumptions(example21, grid)
    assert report["slow-bounded"].status == CAVEAT


def test_assumptions_example21(example21):
    report = check_assumptions(example21, sample_tuple_grid(example21, 2000, seed=2))
    assert report["slow-elliptic"].status == PASS
    assert report["fast-nondegenerate"].status == PASS
    assert report["fast-nondegenerate"].estimated_constant == pytest.approx(2.0)


def _constant_twin(constant):
    """OU-type model whose b, sigma and g are the constants 0.5, 1.5, sqrt(2), each made by ``constant``."""
    return ModelSpec(
        name="constant-twin",
        coefficients=CoefficientSet(
            b=constant(0.5), sigma=constant(1.5), f=lambda x, y: x - y, g=constant(math.sqrt(2.0))
        ),
        slow_domain=StateDomain(FULL_LINE),
        fast_domain=StateDomain(FULL_LINE),
    )


_TWIN_CONFIG = SimConfig(epsilon=0.1, dt=0.01, horizon=0.1, n_paths=8, seed=3, x0=0.3, y0=1.0, store="full")


@pytest.mark.parametrize(
    "consume",
    [
        lambda m: stationary_density(m, 0.3).values,
        lambda m: classify(m, 0.3).as_dict(),
        lambda m: forward_pde_solve(m, 0.3, 1.0, 0.5).values,
        lambda m: (lambda avg: (avg.b_bar, avg.a_bar))(build_averaged_model(m, np.linspace(-1.0, 1.0, 5))),
        lambda m: check_assumptions(m, sample_tuple_grid(m, 64, seed=1)).as_dict(),
        lambda m: (lambda ens: (ens.slow, ens.fast))(simulate_coupled(m, _TWIN_CONFIG)),
        lambda m: simulate_frozen(m, 0.3, _TWIN_CONFIG).fast,
    ],
    ids=["stationary_density", "classify", "forward_pde_solve", "build_averaged_model",
         "check_assumptions", "simulate_coupled", "simulate_frozen"],
)
def test_float_constants_give_the_bits_of_constant_arrays(consume):
    # a coefficient may return a Python float; every consumer must treat it
    # exactly like an array holding that value at every state
    floats = _constant_twin(lambda c: lambda x, y: c)
    arrays = _constant_twin(lambda c: lambda x, y: np.full_like(x + y, c))

    def bits(model):
        return json.dumps(consume(model), default=lambda a: np.asarray(a).tolist())

    assert bits(floats) == bits(arrays)
