"""Numerical laboratory for fully coupled slow-fast diffusions.

The package simulates the coupled pair, computes the frozen fast
process's invariant measure exactly and empirically, measures distances
between invariant measures, classifies ergodicity through scale/speed
integrals, tabulates averaged coefficients, and runs the two headline
experiments: weak convergence of the slow component to its averaged
limit, and the failure of the same convergence in mean square.
"""

from .averaging import (
    AveragedModel,
    HolderFitReport,
    averaged_diffusion,
    averaged_drift,
    build_averaged_model,
    discontinuity_probe,
    holder_fit,
)
from .ergodicity import (
    DecayCurve,
    ErgodicityReport,
    classify,
    forward_pde_solve,
    tv_decay_curve,
    w1_decay_coupling,
)
from .errors import (
    BlowUpError,
    ConfigError,
    ConservationError,
    DegenerateDiffusionError,
    DomainError,
    FitError,
    InfiniteMomentError,
    NotPositiveRecurrentError,
    ResolutionError,
    SlowfastError,
    UnknownModelError,
)
from .experiments import (
    ConvergenceReport,
    L2Report,
    cli_main,
    rerun_from_manifest,
    run_averaging_convergence,
    run_l2_failure,
)
from .metrics import (
    DistanceReport,
    atomize,
    measure_distance,
    tv_distance,
    w1_density,
    w1_distance,
    w1_empirical,
    wbl_distance,
)
from .models import (
    AnalyticInfo,
    AssumptionReport,
    CoefficientSet,
    ModelSpec,
    StateDomain,
    check_assumptions,
    eval_coefficients,
    get_builtin,
    list_builtin_models,
    sample_tuple_grid,
)
from .simulate import (
    Ensemble,
    SimConfig,
    simulate_averaged,
    simulate_coupled,
    simulate_frozen,
)
from .stationary import (
    Density1D,
    EmpiricalMeasure,
    empirical_invariant,
    moment,
    potential,
    stationary_density,
)

__version__ = "0.1.0"
