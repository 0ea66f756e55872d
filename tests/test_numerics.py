import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid as scipy_cumulative, simpson as scipy_simpson, trapezoid as scipy_trapezoid
from scipy.special import logsumexp as scipy_logsumexp

from slowfast import ConservationError, InfiniteMomentError, moment, w1_distance
from slowfast.models import FULL_LINE, INTERVAL, StateDomain
from slowfast.numerics import (_flux_operator, check_tail_decays, cumulative_gauss, cumulative_trapezoid, logsumexp, march,
                               simpson, spectral_gap, trapezoid)
from slowfast.stationary import Density1D


def same_bits(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return ours.dtype == theirs.dtype and ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()


log_terms = st.lists(
    st.one_of(st.floats(-800.0, 800.0), st.sampled_from([0.0, -1.5, 3.25, -np.inf, np.inf, np.nan])),
    max_size=40,
)


@settings(max_examples=500, deadline=None)
@given(log_terms)
def test_logsumexp_gives_scipys_bits(terms):
    a = np.array(terms, dtype=float)
    assert same_bits(logsumexp(a), scipy_logsumexp(a))


@pytest.mark.parametrize(
    "terms",
    [[], [-np.inf], [-np.inf] * 5, [np.inf, 0.0], [np.nan, 1.0], [2.0, 2.0, -1.0], [1e308, 1e308], [-1e308, -np.inf]],
)
def test_logsumexp_gives_scipys_bits_at_the_edges(terms):
    a = np.array(terms, dtype=float)
    assert same_bits(logsumexp(a), scipy_logsumexp(a))


@st.composite
def sampled_functions(draw, min_size):
    """(x, y) on n nodes, min_size <= n <= 601; x uniform or not, y from a drawn seed."""
    n = draw(st.integers(min_size, 601))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = np.full(n - 1, rng.uniform(1e-3, 10.0)) if draw(st.booleans()) else rng.uniform(1e-3, 10.0, n - 1)
    x = rng.uniform(-100.0, 100.0) + np.concatenate([[0.0], np.cumsum(gaps)])
    return x, rng.uniform(-1e6, 1e6, n)


@settings(max_examples=500, deadline=None)
@given(sampled_functions(min_size=2))
def test_simpson_gives_scipys_bits(case):
    x, y = case
    assert same_bits(simpson(y, x), scipy_simpson(y, x=x))


@settings(max_examples=300, deadline=None)
@given(sampled_functions(min_size=1))
def test_trapezoids_give_scipys_bits(case):
    x, y = case
    assert same_bits(trapezoid(y, x), scipy_trapezoid(y, x))
    assert same_bits(cumulative_trapezoid(y, x), scipy_cumulative(y, x, initial=0.0))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_small_grids_give_scipys_bits(n):
    x = np.array([0.0, 0.1, 0.35, 0.4, 1.3])[:n]
    # negative zeros: scipy's Simpson adds 0.0 last, which makes its zero positive
    for y in (np.array([1.0, -2.0, 0.5, 3.0, -0.25])[:n], np.full(n, -0.0)):
        assert same_bits(simpson(y, x), scipy_simpson(y, x=x))
        assert same_bits(trapezoid(y, x), scipy_trapezoid(y, x))
        assert same_bits(cumulative_trapezoid(y, x), scipy_cumulative(y, x, initial=0.0))


def test_simpsons_last_panel_correction_gives_scipys_bits():
    # on 4 and 6 nodes the even-N correction carries much of the sum; taking its
    # powers of a float64 scalar, not a 0-d array, changes a few of these results
    rng = np.random.default_rng(1)
    for _ in range(2000):
        n = rng.choice([4, 6])
        x = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 10.0, n - 1))])
        y = rng.uniform(-1.0, 1.0, n)
        assert same_bits(simpson(y, x), scipy_simpson(y, x=x))


def raises(grid, integrand, lower, upper):
    try:
        check_tail_decays(grid, integrand, lower, upper, "the test integral")
    except InfiniteMomentError as err:
        assert str(err).startswith("the test integral is undefined")
        return True
    return False


def decisions(density):
    """Which of the first and second moments and W1 raise for a tail."""
    out = []
    for judge in (lambda: moment(density, 1), lambda: moment(density, 2), lambda: w1_distance(density, density)):
        try:
            judge()
        except InfiniteMomentError:
            out.append(True)
        else:
            out.append(False)
    return out


def shaped(values, shape):
    v = np.asarray(values, dtype=float)
    if shape == "increasing":
        return np.sort(np.abs(v))
    if shape == "decreasing":
        return np.sort(np.abs(v))[::-1]
    if shape == "valley":
        s = np.sort(np.abs(v))
        return np.concatenate([s[::-2], s[v.size % 2 :: 2]])
    return v


cases = st.integers(2, 24).flatmap(
    lambda n: st.tuples(
        st.floats(-50.0, 50.0),
        st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1),
        st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n),
        st.sampled_from(["raw", "increasing", "decreasing", "valley"]),
        st.booleans(),
        st.booleans(),
        st.sampled_from([FULL_LINE, INTERVAL]),
    )
)


@settings(max_examples=300, deadline=None)
@given(cases)
def test_tail_decision_is_mirror_symmetric(case):
    start, widths, values, shape, lower, upper, kind = case
    grid = start + np.concatenate([[0.0], np.cumsum(widths)])
    integrand = shaped(values, shape)
    # y -> -y reverses the grid and turns the lower end into the upper end
    assert raises(grid, integrand, lower, upper) == raises(-grid[::-1], integrand[::-1], upper, lower)
    # a density judges the ends its domain leaves open, and the mirror
    # image of its domain leaves the mirrored ends open
    top = np.max(np.abs(integrand))
    if top == 0.0:
        return
    raw = np.abs(integrand) / top
    if kind == INTERVAL:
        domain, mirrored = StateDomain(INTERVAL, grid[0], grid[-1]), StateDomain(INTERVAL, -grid[-1], -grid[0])
    else:
        domain = mirrored = StateDomain(FULL_LINE)
    density = Density1D.from_unnormalized(grid, raw, domain)
    image = Density1D.from_unnormalized(-grid[::-1], raw[::-1], mirrored)
    assert image.open_ends == density.open_ends[::-1]
    assert decisions(density) == decisions(image)


@pytest.mark.parametrize(
    "integrand, lower, upper, expected",
    [
        (np.ones(8), True, False, True),
        (np.ones(8), False, False, False),
        (np.arange(8.0), True, False, False),
        (np.arange(8.0), False, True, True),
        (np.exp(-np.arange(8.0)), True, True, True),
        (np.exp(-np.abs(np.arange(8.0) - 3.5)), True, True, False),
        (np.ones(6), True, True, False),
        (np.zeros(8), True, True, False),
    ],
    ids=["flat", "flat-walls", "rising-lower", "rising-upper", "falling", "peaked", "six-nodes", "zero"],
)
def test_tail_decision_judges_only_the_open_ends(integrand, lower, upper, expected):
    assert raises(np.arange(integrand.size, dtype=float), integrand, lower, upper) == expected


# ---------------------------------------------------------------------------
# the forward-equation engine: march and spectral_gap on a flux operator

_ENGINE_DRIFT = lambda y: -y + 0.3 * np.sin(y)
_ENGINE_DIFFUSION = lambda y: 1.0 + 0.2 * np.cos(y)
_ENGINE_GRID = np.linspace(-6.0, 6.0, 201)


def engine_operator():
    return _flux_operator(_ENGINE_GRID, _ENGINE_DRIFT, _ENGINE_DIFFUSION)


def test_march_conserves_mass():
    vol, bands = engine_operator()
    u = np.exp(-0.5 * ((_ENGINE_GRID - 2.5) / 0.3) ** 2)
    u /= vol @ u
    for duration in (0.05, 1.0, 7.3):
        assert abs(vol @ march((vol, bands), u, duration) - 1.0) <= 1e-12


def test_march_leaves_the_discrete_stationary_state_fixed():
    ratio = lambda y: _ENGINE_DRIFT(y) / _ENGINE_DIFFUSION(y)
    s = np.exp(cumulative_gauss(ratio, _ENGINE_GRID)) / _ENGINE_DIFFUSION(_ENGINE_GRID)
    np.testing.assert_allclose(march(engine_operator(), s, 3.0), s, rtol=1e-12, atol=0.0)


def test_spectral_gap_matches_the_dense_second_eigenvalue():
    _, (lower, diag, upper) = engine_operator()
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    eig = np.sort(np.linalg.eigvals(dense).real)
    assert spectral_gap((lower, diag, upper)) == pytest.approx(-eig[-2], rel=1e-10)


def test_march_raises_on_a_singular_crank_nicolson_matrix():
    # duration 1 first marches 16 steps of dt = 1/16, and diag = 2/dt makes
    # I - (dt/2) A exactly zero
    n, dt = 5, 1.0 / 16.0
    bands = (np.zeros(n - 1), np.full(n, 2.0 / dt), np.zeros(n - 1))
    with pytest.raises(ConservationError, match="dgttrf"):
        march((np.ones(n), bands), np.ones(n), 1.0)


def test_march_raises_on_an_operator_that_blows_up():
    # u' = 50 u over 20 grows by e^1000, past the largest double; the suite
    # turns warnings into errors, so an overflow warning would fail here too
    n = 5
    bands = (np.zeros(n - 1), np.full(n, 50.0), np.zeros(n - 1))
    with pytest.raises(ConservationError, match="non-finite"):
        march((np.ones(n), bands), np.ones(n), 20.0)


def test_march_raises_when_8192_steps_miss_the_tolerance():
    # a skew-symmetric A rotates without decay, and over a duration of 100
    # Crank-Nicolson's phase error at 8192 steps is still far above 1e-6
    n = 5
    bands = (np.full(n - 1, -1.0), np.zeros(n), np.full(n - 1, 1.0))
    with pytest.raises(ConservationError, match="8192 steps"):
        march((np.ones(n), bands), np.eye(n)[0], 100.0)
