"""End-to-end acceptance checks, one test per advertised capability.

Each test states a quantitative claim about the package as a whole and
asserts it at full working size, including the runtime budget where one
is part of the claim. Tolerances are the contract, not a wish: if one of
these fails, the package is wrong, not the test.
"""

import json
import time

import numpy as np
import pytest

from slowfast.averaging import averaged_drift, discontinuity_probe, holder_fit
from slowfast.ergodicity import classify, forward_pde_solve, tv_decay_curve
from slowfast.experiments import (
    cli_main,
    rerun_from_manifest,
    run_averaging_convergence,
    run_l2_failure,
)
from slowfast.metrics import tv_distance, w1_density, w1_distance, w1_empirical, wbl_distance
from slowfast.models import check_assumptions, sample_tuple_grid
from slowfast.simulate import SimConfig
from slowfast.stationary import EmpiricalMeasure, empirical_invariant, stationary_density

_WORKERS = 4


def test_criterion_1_averaged_drift_closed_form(example21):
    """Quadrature reproduces b_bar(x) = 2 - x on (0, 1] and 1 at x = 0."""
    start = time.monotonic()
    for x in np.linspace(0.1, 1.0, 10):
        assert averaged_drift(example21, float(x)) == pytest.approx(2.0 - x, abs=1e-6)
    assert averaged_drift(example21, 0.0) == pytest.approx(1.0, abs=1e-6)
    probe = discontinuity_probe(example21, 0.0, [0.1, 0.03, 0.01, 0.003])
    assert probe["gap"] == pytest.approx(1.0, abs=0.02)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0


def test_criterion_2_ergodicity_classification(example21):
    """Frozen fast process: ergodic and exp. ergodic but not strongly ergodic."""
    start = time.monotonic()
    for x in (0.1, 0.5, 0.9):
        report = classify(example21, x)
        assert (report.ergodic, report.exp_ergodic, report.strongly_ergodic) == (
            True,
            True,
            False,
        )
    elapsed = time.monotonic() - start
    assert elapsed < 5.0


def test_criterion_3_invariant_measure_dichotomy(example21):
    """pi^x -> pi^0 in TV at rate <= 2x while W1 sticks at 1 - x."""
    rho0 = stationary_density(example21, 0.0)
    for x in (0.3, 0.1, 0.03):
        rho = stationary_density(example21, x)
        assert tv_distance(rho, rho0) <= 2.0 * x + 1e-6
        assert abs(w1_density(rho, rho0) - (1.0 - x)) <= 1e-4


def test_criterion_4_holder_bound_with_fitted_constants(ou):
    """W1 equals |x1 - x2| and sits under the two-regime reference bound.

    The reference exponent lambda2 / (lambda2 + K3) uses the decay rate
    fitted from the forward equation and the coupled-Lipschitz constant
    estimated from sampled coefficient tuples, not hand-entered values.
    """
    pairs = [(0.0, 1.0), (0.25, 0.75), (0.5, 0.45), (-0.3, 0.7), (0.0, 0.03), (0.9, 0.2)]
    for x1, x2 in pairs:
        d = w1_density(stationary_density(ou, x1), stationary_density(ou, x2))
        assert d == pytest.approx(abs(x1 - x2), abs=1e-4)

    lam = tv_decay_curve(ou, 0.0, 3.0, np.linspace(1.0, 4.0, 7)).fit["rate"]
    assert 0.9 <= lam <= 1.1
    k3 = check_assumptions(ou, sample_tuple_grid(ou, 512, seed=2))[
        "fast-coupled-lipschitz"
    ].estimated_constant
    assert 0.99 <= k3 <= 1.01

    rep = holder_fit("w1", ou, pairs, lambda2=lam, k3=k3)
    assert rep.reference_exponent == pytest.approx(lam / (lam + k3))
    assert rep.bound_satisfied
    for x1, x2, dist in rep.pairs:
        delta = abs(x1 - x2)
        assert dist <= max(delta, delta**rep.reference_exponent) + 1e-9


def test_criterion_5_stationary_machinery_cross_check(example21, ou):
    """Ensemble pooling, quadrature density, and the forward PDE agree."""
    start = time.monotonic()

    emp = empirical_invariant(
        example21,
        0.5,
        SimConfig(epsilon=1.0, dt=0.02, horizon=60.0, n_paths=4000, seed=42,
                  x0=0.5, y0=1.0, store="full"),
    )
    assert emp.n_samples >= 100_000
    rho_e21 = stationary_density(example21, 0.5)
    assert w1_distance(emp, rho_e21) < 0.03

    emp_ou = empirical_invariant(
        ou,
        1.0,
        SimConfig(epsilon=1.0, dt=0.02, horizon=40.0, n_paths=2000, seed=42,
                  x0=1.0, y0=1.0, store="full"),
    )
    assert emp_ou.n_samples >= 100_000
    rho_ou = stationary_density(ou, 1.0)
    assert w1_distance(emp_ou, rho_ou) < 0.03

    # example21 marches to 20 / (fitted TV rate 0.538) = 37.2, which is only
    # 2.3 / lambda(0.5) (gap 0.0631), not twenty relaxation times; ou-coupled
    # has gap 1, so its t = 20 is twenty
    rate = tv_decay_curve(example21, 0.5, 3.0, np.linspace(1.0, 4.0, 7)).fit["rate"]
    assert tv_distance(forward_pde_solve(example21, 0.5, 3.0, 20.0 / rate), rho_e21) < 1e-3
    assert tv_distance(forward_pde_solve(ou, 1.0, 3.0, 20.0), rho_ou) < 1e-3

    elapsed = time.monotonic() - start
    assert elapsed < 60.0


def test_criterion_6_averaging_convergence_at_desk_scale(ou):
    """Terminal-law W1 descends the epsilon ladder down to the noise floor."""
    start = time.monotonic()
    config = SimConfig(epsilon=0.1, dt=0.01, horizon=1.0, n_paths=10_000, seed=0,
                       x0=0.5, y0=1.0)
    report = run_averaging_convergence(ou, [0.1, 0.03, 0.01], config, workers=_WORKERS)
    floor = report.noise_floor
    w1 = report.w1_terminal
    assert all(w1[i + 1] <= w1[i] + floor for i in range(len(w1) - 1))
    assert w1[-1] <= 2.0 * floor
    elapsed = time.monotonic() - start
    assert elapsed < 300.0


def test_criterion_7_mean_square_failure():
    """Pathwise mean-square gap persists at its predicted size while laws merge."""
    start = time.monotonic()
    config = SimConfig(epsilon=0.01, dt=0.01, horizon=1.0, n_paths=10_000, seed=0,
                       x0=0.5, y0=1.0)
    report = run_l2_failure(config, [0.01], workers=_WORKERS)
    assert report.predicted_limit == pytest.approx(2.0, abs=1e-6)
    assert abs(report.mean_square_gap[0] - 2.0) <= 0.05 * 2.0
    assert report.w1_terminal[0] <= 2.0 * report.noise_floor
    elapsed = time.monotonic() - start
    assert elapsed < 180.0


def test_criterion_8_metric_axioms_on_random_atom_triples():
    """Symmetry, triangle inequality, wbl domination, and the exact identities."""
    rng = np.random.default_rng(2024)
    metrics = (tv_distance, w1_empirical, wbl_distance)
    for _ in range(100):
        p, q, r = (
            EmpiricalMeasure.from_samples(
                rng.integers(-8, 9, size=int(rng.integers(1, 13))) / 2.0
            )
            for _ in range(3)
        )
        for dist in metrics:
            assert dist(p, p) == 0.0
            assert dist(p, q) == dist(q, p)
            assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-9
        assert wbl_distance(p, q) <= min(w1_empirical(p, q), tv_distance(p, q)) + 1e-9

    left = EmpiricalMeasure.from_samples([-1.0, -2.0])
    right = EmpiricalMeasure.from_samples([3.0, 4.0, 5.0])
    assert tv_distance(left, right) == 2.0
    a, b = -0.75, 2.5
    point = w1_empirical(
        EmpiricalMeasure.from_samples([a]), EmpiricalMeasure.from_samples([b])
    )
    assert point == abs(a - b)


def test_criterion_9_manifest_reruns_are_bit_identical(tmp_path):
    """A rerun from the manifest reproduces the artifact byte for byte."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"n_paths": 64, "horizon": 0.2, "dt": 0.01, "x0": 0.0, "y0": 0.0})
    )
    first = tmp_path / "conv.json"
    assert cli_main(
        ["converge", "--model", "ou-coupled", "--epsilons", "0.5,0.25",
         "--config", str(cfg), "--seed", "5", "--out", str(first), "--workers", "1"]
    ) == 0

    same = tmp_path / "again.json"
    assert rerun_from_manifest(str(first) + ".manifest.json", out=str(same)) == 0
    assert same.read_bytes() == first.read_bytes()

    more_workers = tmp_path / "parallel.json"
    assert (
        rerun_from_manifest(str(first) + ".manifest.json", out=str(more_workers), workers=3)
        == 0
    )
    assert more_workers.read_bytes() == first.read_bytes()
