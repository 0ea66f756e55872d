import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slowfast import (
    CoefficientSet,
    ConservationError,
    DegenerateDiffusionError,
    ModelSpec,
    classify,
    forward_pde_solve,
    get_builtin,
    stationary_density,
    tv_decay_curve,
    tv_distance,
    w1_decay_coupling,
)
import scipy.linalg.lapack
from scipy.linalg.lapack import dgttrf, dgttrs

from slowfast import ergodicity, numerics
from slowfast.ergodicity import _log_recurrence
from slowfast.models import FULL_LINE, HALF_LINE, INTERVAL, StateDomain
from slowfast.numerics import _flux_operator, cumulative_gauss
from slowfast.stationary import _default_pde_grid

from conftest import gaussian_pdf


def line_model(f, name, g=None, fast_domain=StateDomain(FULL_LINE)):
    if g is None:
        g = lambda x, y: np.sqrt(2.0)
    return ModelSpec(
        name=name,
        coefficients=CoefficientSet(
            b=lambda x, y: 0.0,
            sigma=lambda x, y: 1.0,
            f=f,
            g=g,
        ),
        slow_domain=StateDomain(FULL_LINE),
        fast_domain=fast_domain,
    )


_TEST_MODELS = {
    "cubic": dict(f=lambda x, y: -y ** 3),
    "repelling": dict(f=lambda x, y: y),
    "sign-drift": dict(f=lambda x, y: -np.sign(y)),
    # density (1 + y^2)^(-1/2): infinite mass, diverging only logarithmically
    "logarithmic": dict(f=lambda x, y: -y / (1.0 + y ** 2)),
    # mode at y = 1, inside the half-line
    "half-line": dict(f=lambda x, y: 1.0 - y, fast_domain=StateDomain(HALF_LINE, 0.0)),
    "interval": dict(f=lambda x, y: -y, fast_domain=StateDomain(INTERVAL, -1.0, 1.0)),
    "growing-g": dict(f=lambda x, y: -y, g=lambda x, y: np.sqrt(2.0 * (1.0 + y ** 2))),
}

_REFERENCE_VERDICTS = [
    ("example21", 1e-3, (True, True, False)),
    ("example21", 0.01, (True, True, False)),
    ("example21", 0.1, (True, True, False)),
    ("example21", 0.5, (True, True, False)),
    ("example21", 0.9, (True, True, False)),
    ("example21", 1.0, (True, True, False)),
    ("ou-coupled", -1.0, (True, True, False)),
    ("ou-coupled", 0.0, (True, True, False)),
    ("ou-coupled", 0.5, (True, True, False)),
    ("pure-fast-l2", 0.5, (True, True, False)),
    ("cubic", 0.0, (True, True, True)),
    ("repelling", 0.0, (False, False, False)),
    ("sign-drift", 0.0, (True, True, False)),
    ("logarithmic", 0.0, (False, False, False)),
    ("half-line", 0.0, (True, True, False)),
    ("interval", 0.0, (True, True, True)),
    ("growing-g", 0.0, (True, True, False)),
]


@pytest.mark.parametrize("name, x, expected", _REFERENCE_VERDICTS, ids=[f"{n}@{x:g}" for n, x, _ in _REFERENCE_VERDICTS])
def test_reference_verdicts(name, x, expected):
    # at x = 1e-3 example21's exponential criterion settles only at the
    # ladder's last doubling, radius 2^20 - 1; lambda(x) > 0 says it must
    if name in _TEST_MODELS:
        model = line_model(name=name, **_TEST_MODELS[name])
    else:
        model = get_builtin(name)
    report = classify(model, x)
    assert (report.ergodic, report.exp_ergodic, report.strongly_ergodic) == expected


@pytest.mark.parametrize("x", [-1000.0, -6.0, 6.0, 127.0, 1000.0])
def test_classify_ou_far_from_zero_gives_the_verdicts_at_zero(ou, x):
    # the log shape rises by x^2 / 2 from y = 0 to the mode y = x; the
    # ladder starts at the mode, so that rise is never read as divergence
    at_zero = classify(ou, 0.0)
    report = classify(ou, x)
    verdicts = lambda r: (r.ergodic, r.exp_ergodic, r.strongly_ergodic)
    assert verdicts(report) == verdicts(at_zero) == (True, True, False)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_classify_ou_finds_no_false_verdict_over_a_wide_x_range(x):
    # every frozen law is normal(x, 1): ergodic and exponentially ergodic,
    # and, like any Ornstein-Uhlenbeck process, not uniformly ergodic
    d = classify(get_builtin("ou-coupled"), x).as_dict()
    assert (d["ergodic"], d["exp_ergodic"], d["strongly_ergodic"]) == ("true", "true", "false")


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
    cubic = line_model(lambda x, y: -y ** 3, "cubic-restoring")
    report = classify(cubic, 0.0)
    assert (report.ergodic, report.exp_ergodic, report.strongly_ergodic) == (True, True, True)


def test_classify_repelling_fails_everything():
    repelling = line_model(lambda x, y: y, "repelling")
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


def test_classify_raises_where_the_fast_diffusion_vanishes():
    # g = tanh y vanishes at the anchor y = 0; classify raises like the density does
    vanishing = line_model(lambda x, y: -y, "vanishing-g", g=lambda x, y: np.tanh(y))
    for solve in (stationary_density, classify):
        with pytest.raises(DegenerateDiffusionError):
            solve(vanishing, 0.5)


@pytest.mark.parametrize("a", [-0.3, 0.0, 0.3])
def test_log_recurrence_is_a_geometric_sum(a):
    # constant a and b: V[n] = e^b (1 + e^a + ... + e^{(n-1) a})
    n, b = 60, 0.7
    v = _log_recurrence(np.full(n, a), np.full(n, b))
    k = np.arange(1, n + 1)
    expected = b + (np.log(k) if a == 0.0 else np.log(np.expm1(a * k) / np.expm1(a)))
    assert v[0] == -np.inf
    np.testing.assert_allclose(v[1:], expected, rtol=1e-13, atol=0.0)


def _numpy_log_recurrence(a, b):
    v = [-np.inf]
    for ai, bi in zip(a.tolist(), b.tolist()):
        v.append(np.logaddexp(v[-1] + ai, bi))
    return np.array(v)


_LADDER_FLOATS = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([np.inf, -np.inf, np.nan, -np.nan]))


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(_LADDER_FLOATS, _LADDER_FLOATS), max_size=40))
def test_log_recurrence_has_the_bits_of_numpy_logaddexp(pairs):
    a = np.array([p[0] for p in pairs], dtype=float)
    b = np.array([p[1] for p in pairs], dtype=float)
    with np.errstate(invalid="ignore"):  # np.logaddexp flags comparisons with NaN
        expected, got = _numpy_log_recurrence(a, b), _log_recurrence(a, b)
    # the int64 view compares NaN signs and payloads too
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


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


def test_forward_state_with_significant_negative_mass_raises():
    grid = np.linspace(0.0, 1.0, 11)
    u = np.ones(grid.size)
    u[3] = -1.01e-8  # below the floor of -1e-8 times the maximum
    with pytest.raises(ConservationError, match="significant negative mass"):
        ergodicity._density_from_state(grid, u, StateDomain(FULL_LINE))


def test_forward_state_just_above_the_negative_floor_is_clipped():
    grid = np.linspace(0.0, 1.0, 11)
    u = np.ones(grid.size)
    u[3] = -0.99e-8
    density = ergodicity._density_from_state(grid, u, StateDomain(FULL_LINE))
    assert density.values[3] == 0.0
    assert np.all(density.values[np.arange(grid.size) != 3] > 0.0)
    assert u[3] == -0.99e-8  # the caller's state is not clipped in place


@pytest.mark.parametrize(
    "solve",
    [
        lambda m, grid: forward_pde_solve(m, 0.0, 1.0, 1.0, grid=grid),
        lambda m, grid: tv_decay_curve(m, 0.0, 1.0, [1.0], grid=grid),
    ],
    ids=["forward_pde_solve", "tv_decay_curve"],
)
def test_pde_rejects_diffusion_vanishing_on_an_explicit_grid(solve):
    vanishing = line_model(lambda x, y: -y, "vanishing-g", g=lambda x, y: np.tanh(y))
    grid = np.linspace(-4.0, 4.0, 81)  # holds the node y = 0 where g = 0
    with pytest.raises(DegenerateDiffusionError):
        solve(vanishing, grid)


def test_heat_kernel():
    # f = 0 with g = sqrt(2) is the plain heat equation; compare the
    # forward solution against the exact Gaussian at t = 1/2 (variance 1)
    heat = line_model(lambda x, y: 0.0, "heat")
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


def test_every_law_carries_the_fast_domain(example21, ou, monkeypatch):
    compared = []

    def recording(p, q):
        compared.extend((p, q))
        return tv_distance(p, q)

    monkeypatch.setattr(ergodicity, "tv_distance", recording)
    for model in (example21, ou):
        compared.clear()
        tv_decay_curve(model, 0.5, 1.0, [0.1, 0.2])
        laws = [stationary_density(model, 0.5), forward_pde_solve(model, 0.5, 1.0, 0.1), *compared]
        assert len(laws) == 6
        assert all(law.domain == model.fast_domain for law in laws)
    assert stationary_density(example21, 0.5).open_ends == (False, True)
    assert stationary_density(ou, 0.5).open_ends == (True, True)


def test_pde_preserves_stationarity(ou):
    # starting from the invariant density, the forward march must not move
    target = stationary_density(ou, -0.5)
    rho = forward_pde_solve(ou, -0.5, target, 1.0)
    resampled = stationary_density(ou, -0.5, grid=rho.grid)
    assert tv_distance(rho, resampled) < 1e-8


@pytest.mark.parametrize("x", [0.5, 0.01])
def test_one_long_interval_reaches_stationarity(example21, x):
    # from t = 1 to 1e9 the march takes steps of 1e9 / 16 or so, so every
    # stiff mode has dt mu >> 1; only the backward-Euler restart damps them
    curve = tv_decay_curve(example21, x, 1.0, [1.0, 1e9])
    assert curve.values[-1] == pytest.approx(0.0, abs=1e-4)


def fixed_step_march(bands, u, duration, n_steps):
    """Rannacher-started Crank-Nicolson in ``n_steps`` equal steps, the right side by band mat-vec."""
    lower, diag, upper = bands
    scale = duration / n_steps / 2.0
    factors = dgttrf(-scale * lower, 1.0 - scale * diag, -scale * upper)[:5]
    for _ in range(4):
        u = dgttrs(*factors, u)[0]
    for _ in range(n_steps - 2):
        au = diag * u
        au[:-1] += upper * u[1:]
        au[1:] += lower * u[:-1]
        u = dgttrs(*factors, u + scale * au)[0]
    return u


@pytest.mark.parametrize(
    "name, x, y0, times",
    [
        ("example21", 0.5, 3.0, np.linspace(1.0, 4.0, 7)),  # [0, 1] and the decay intervals
        ("ou-coupled", 0.0, 3.0, [1.0]),
        ("example21", 0.01, 1.0, [1.0, 1e4]),
    ],
)
def test_march_is_within_its_tolerance_of_a_4x_finer_march(monkeypatch, name, x, y0, times):
    levels, marches = [], []
    inner = numerics._rannacher_crank_nicolson

    def level(bands, u, duration, n_steps):
        levels.append(n_steps)
        return inner(bands, u, duration, n_steps)

    def recording(operator, u, duration):
        out = numerics.march(operator, u, duration)
        marches.append((operator, u, duration, levels[-1], out))
        return out

    monkeypatch.setattr(numerics, "_rannacher_crank_nicolson", level)
    monkeypatch.setattr(ergodicity, "march", recording)
    tv_decay_curve(get_builtin(name), x, y0, times)
    assert len(marches) == len(times)
    for (vol, bands), u, duration, n_steps, out in marches:
        reference = fixed_step_march(bands, u, duration, 4 * n_steps)
        assert vol @ np.abs(out - reference) <= 1e-6 * (vol @ np.abs(reference))


def test_criterion_5_march_solves_few_systems(monkeypatch, example21):
    # t = 20 / rate, criterion 5's march to stationarity; 8192 steps before
    # the step count followed the error
    solves = []

    def counting(*args):
        solves.append(1)
        return dgttrs(*args)

    monkeypatch.setattr(scipy.linalg.lapack, "dgttrs", counting)
    forward_pde_solve(example21, 0.5, 3.0, 37.15)
    assert 0 < len(solves) <= 256


def test_refining_the_grid_keeps_the_point_start(example21):
    # the start is two default cells wide on any grid over the same span, so
    # refining moves TV by its grid error (about 1e-4), not by a narrower
    # initial datum (1.7e-3 when the start was two cells of the given grid)
    default = _default_pde_grid(example21, 0.5, 3.0)
    times = [1.0, 2.0, 4.0]
    base = tv_decay_curve(example21, 0.5, 3.0, times).values
    for refine in (2, 4):
        finer = np.linspace(default[0], default[-1], refine * (default.size - 1) + 1)
        moved = tv_decay_curve(example21, 0.5, 3.0, times, grid=finer).values
        assert np.max(np.abs(moved - base)) <= 2e-4


def test_tv_decay_rate_matches_spectral_gap(ou):
    curve = tv_decay_curve(ou, 0.0, 3.0, np.linspace(1.0, 4.0, 7))
    assert np.all(np.diff(curve.values) < 0)
    assert curve.fit["rate"] == pytest.approx(1.0, abs=0.05)
    assert curve.fit["r_squared"] > 0.999


def test_a_curve_without_a_fit_says_so(example21):
    # TV falls from 0.776 to 9.1e-5; only the first value lies in the window (1e-3, 1)
    curve = tv_decay_curve(example21, 0.5, 3.0, [1.0, 37.2])
    assert curve.values[0] > 0.7 and curve.values[1] < 1e-4
    assert curve.fit == {"amplitude": None, "rate": None, "r_squared": None,
                         "reason": "need at least two points inside the fit window 0.001 < value < 1.0, found 1"}
    fitted = tv_decay_curve(example21, 0.5, 3.0, [1.0, 2.0, 37.2])
    assert sorted(fitted.fit) == ["amplitude", "r_squared", "rate"]
    assert fitted.fit["rate"] > 0.0


def test_w1_coupling_decay_rate(ou):
    # synchronous Euler coupling contracts by (1 - h) per step, i.e. at
    # rate -ln(1 - h)/h = 1.00503 for the h = 0.01 grid used inside
    times = np.linspace(0.5, 3.0, 6)
    curve = w1_decay_coupling(ou, 0.0, 3.0, -1.0, times, n_paths=64, seed=5)
    assert curve.fit["rate"] == pytest.approx(1.00503, abs=1e-3)
    assert curve.fit["r_squared"] > 0.999999
    assert curve.fit["amplitude"] == pytest.approx(4.0, rel=1e-3)
