import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.stats import wasserstein_distance

from slowfast import (
    CoefficientSet,
    InfiniteMomentError,
    ModelSpec,
    atomize,
    measure_distance,
    stationary_density,
    tv_distance,
    w1_density,
    w1_distance,
    w1_empirical,
    wbl_distance,
)
from slowfast.models import FULL_LINE, HALF_LINE, INTERVAL, StateDomain
from slowfast.stationary import Density1D, EmpiricalMeasure


def em(values):
    return EmpiricalMeasure.from_samples(np.asarray(values, dtype=float))


def test_example21_tv_jump_at_zero(example21):
    # the invariant measures at x and 0 share the (1-x) e^{-y} component;
    # the rest separates cleanly, leaving exactly x - x^2 + x^2 int|...| = 1/4 at x = 1/2
    p = stationary_density(example21, 0.5)
    q = stationary_density(example21, 0.0)
    assert tv_distance(p, q) == pytest.approx(0.25, abs=1e-5)


@pytest.mark.parametrize("x", [0.3, 0.1, 0.03])
def test_example21_tv_vanishes_linearly(example21, x):
    q = stationary_density(example21, 0.0)
    p = stationary_density(example21, x)
    assert tv_distance(p, q) <= 2.0 * x + 1e-6


@pytest.mark.parametrize("x", [0.9, 0.5, 0.2])
def test_example21_w1_does_not_vanish(example21, x):
    p = stationary_density(example21, x)
    q = stationary_density(example21, 0.0)
    assert w1_density(p, q) == pytest.approx(1.0 - x, abs=1e-4)


def test_ou_w1_is_mean_shift(ou):
    p = stationary_density(ou, 0.3)
    q = stationary_density(ou, -0.9)
    assert w1_density(p, q) == pytest.approx(1.2, abs=1e-4)


def test_w1_empirical_cross_check_against_scipy():
    rng = np.random.default_rng(6)
    a = rng.normal(size=300)
    b = rng.normal(1.0, 2.0, size=450)
    ours = w1_empirical(em(a), em(b))
    assert ours == pytest.approx(wasserstein_distance(a, b), abs=1e-12)


def test_w1_empirical_equal_sizes_is_sorted_mean_gap():
    a = np.array([0.0, 1.0, 4.0])
    b = np.array([2.0, -1.0, 5.0])
    assert w1_empirical(em(a), em(b)) == pytest.approx((1 + 1 + 1) / 3)


def test_tv_disjoint_samples_saturates():
    assert tv_distance(em([0.0, 1.0]), em([2.0, 3.0])) == pytest.approx(2.0)


def test_tv_shared_atoms():
    # half the mass overlaps
    assert tv_distance(em([0.0, 1.0]), em([1.0, 2.0])) == pytest.approx(1.0)


def test_wbl_point_masses_truncate():
    assert wbl_distance(em([0.0]), em([0.5])) == pytest.approx(0.5, abs=1e-9)
    assert wbl_distance(em([0.0]), em([10.0])) == pytest.approx(2.0, abs=1e-9)


def test_atomize_density_equal_mass(ou):
    rho = stationary_density(ou, 0.0)
    atoms, weights = atomize(rho, 64)
    assert atoms.size == 64
    np.testing.assert_allclose(weights, 1.0 / 64)
    assert np.all(np.diff(atoms) > 0)
    # centroid cloud reproduces the mean to the bin resolution
    assert np.sum(atoms * weights) == pytest.approx(0.0, abs=1e-3)


def test_w1_rejects_unresolved_tail_mass():
    # |y| rho stays level at the grid edge for rho ~ 1/(1+|y|): the
    # truncation is hiding transport mass, so the guard must fire
    y = np.linspace(-400.0, 400.0, 4001)
    heavy = Density1D.from_unnormalized(y, 1.0 / (1.0 + np.abs(y)))
    light = Density1D.from_unnormalized(y, np.exp(-0.5 * y * y))
    with pytest.raises(InfiniteMomentError, match="^W1 is undefined"):
        w1_distance(heavy, light)
    # on a geometric grid the node heights of |y| rho ~ 1/y fall toward the
    # edge while the panel masses grow: the guard must count mass
    y = np.geomspace(1e-3, 400.0, 4001)
    heavy = Density1D.from_unnormalized(y, (1.0 + y) ** -2.0)
    light = Density1D.from_unnormalized(y, np.exp(-0.5 * y * y))
    for p, q in ((heavy, light), (light, heavy)):
        with pytest.raises(InfiniteMomentError, match="^W1 is undefined"):
            w1_distance(p, q)


def test_w1_does_not_judge_a_reflecting_wall():
    # pi is the exponential law above the wall at 5 on the grid [5, 68], so
    # |y| rho is largest at the wall; a wall holds no tail
    walled = ModelSpec(
        name="wall-at-five",
        coefficients=CoefficientSet(
            b=lambda x, y: 0.0,
            sigma=lambda x, y: 1.0,
            f=lambda x, y: -1.0 - 0.1 * x**2,
            g=lambda x, y: np.sqrt(2.0),
        ),
        slow_domain=StateDomain(FULL_LINE),
        fast_domain=StateDomain(HALF_LINE, 5.0),
    )
    p = stationary_density(walled, 0.0)
    assert (p.grid[0], p.open_ends) == (5.0, (False, True))
    assert w1_distance(p, p) == 0.0


def test_w1_of_a_uniform_density_between_walls():
    y = np.linspace(0.0, 1.0, 1025)
    walled = Density1D.from_unnormalized(y, np.ones_like(y), StateDomain(INTERVAL, 0.0, 1.0))
    assert w1_distance(walled, walled) == 0.0
    # a bare grid lies on the full line, where level mass at an end is a cut tail
    bare = Density1D.from_unnormalized(y, np.ones_like(y))
    with pytest.raises(InfiniteMomentError, match="^W1 is undefined"):
        w1_distance(bare, bare)


def test_measure_distance_reports(ou):
    p = stationary_density(ou, 0.0)
    q = stationary_density(ou, 1.0)
    rep = measure_distance("w1", p, q)
    assert rep.metric == "w1"
    assert rep.value == pytest.approx(1.0, abs=1e-4)
    d = rep.as_dict()
    assert set(d) == {"metric", "value", "method", "resolution"}


triples = st.tuples(
    st.lists(st.integers(-8, 8), min_size=1, max_size=12),
    st.lists(st.integers(-8, 8), min_size=1, max_size=12),
    st.lists(st.integers(-8, 8), min_size=1, max_size=12),
)


def primal_wbl(p, q):
    """The transport program itself: cheapest coupling for cost min(|u - v|, 2)."""
    (u, nu), (v, nv) = (np.unique(m.samples, return_counts=True) for m in (p, q))
    cost = np.minimum(np.abs(u[:, None] - v[None, :]), 2.0).ravel()
    marginals = np.vstack([np.kron(np.eye(u.size), np.ones(v.size)),
                           np.kron(np.ones(u.size), np.eye(v.size))])
    res = linprog(cost, A_eq=marginals, b_eq=np.concatenate([nu / p.n_samples, nv / q.n_samples]),
                  bounds=(0.0, None), method="highs")
    assert res.success
    return res.fun


@settings(max_examples=60, deadline=None)
@given(triples)
def test_metric_axioms_on_atomic_triples(tri):
    a, b, c = (em(np.asarray(v, dtype=float) / 2.0) for v in tri)
    for dist in (tv_distance, w1_empirical, wbl_distance):
        assert dist(a, a) == 0.0
        assert dist(a, b) == dist(b, a)
        assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9
    assert wbl_distance(a, b) <= min(w1_empirical(a, b), tv_distance(a, b)) + 1e-9
    assert wbl_distance(a, c) == pytest.approx(primal_wbl(a, c), rel=0.0, abs=1e-12)
