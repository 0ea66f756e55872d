"""Both halves of the averaging story at desk scale.

First the positive half: on ou-coupled the terminal law of the slow state
walks down to the averaged one as epsilon shrinks (W1 against an averaged
ensemble at the same dt, compared to the Monte Carlo noise floor). Then
the negative half: on pure-fast-l2 the pathwise mean-square gap against
the averaged equation driven by the same Brownian motion refuses to
vanish and settles at T * E (sigma - sigma_bar)^2 = 2 T.

Usage: python scripts/ladder_study.py [--n-paths 10000]
"""

import argparse
import sys
import time

from slowfast.experiments import run_averaging_convergence, run_l2_failure
from slowfast.models import get_builtin
from slowfast.simulate import SimConfig

LADDER = [0.1, 0.03, 0.01]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-paths", type=int, default=10_000)
    parser.add_argument("--horizon", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    config = SimConfig(
        epsilon=LADDER[0], dt=0.01, horizon=args.horizon,
        n_paths=args.n_paths, seed=args.seed, x0=0.5, y0=1.0,
    )

    start = time.monotonic()
    conv = run_averaging_convergence(get_builtin("ou-coupled"), LADDER, config)
    print(f"averaging convergence ({time.monotonic() - start:.1f}s)")
    print(f"{'epsilon':>8}  {'w1 terminal':>12}")
    for eps, w1 in zip(conv.epsilons, conv.w1_terminal):
        print(f"{eps:>8.3g}  {w1:>12.6f}")
    print(f"noise floor {conv.noise_floor:.6f}")

    start = time.monotonic()
    l2 = run_l2_failure(config, LADDER)
    print(f"\nmean-square failure ({time.monotonic() - start:.1f}s)")
    print(f"{'epsilon':>8}  {'E gap^2':>10}  {'rel err':>8}  {'w1':>10}")
    for eps, gap, rel, w1 in zip(
        l2.epsilons, l2.mean_square_gap, l2.relative_error, l2.w1_terminal
    ):
        print(f"{eps:>8.3g}  {gap:>10.4f}  {rel:>8.2%}  {w1:>10.6f}")
    print(f"predicted limit {l2.predicted_limit:.4f}, noise floor {l2.noise_floor:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
