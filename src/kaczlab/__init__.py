"""kaczlab: randomized Kaczmarz on noisy overdetermined linear systems.

Exact per-iteration MSE prediction and error floors via the lifted
second-moment recursion, noise-averaged variants, the classical geometric
upper bounds, and a reproducible Monte Carlo harness to verify them all.
"""

__version__ = "0.1.0"

from .bounds import zf_general_bound_curve
from .lifted import (
    DenseLift,
    LiftedModel,
    MseCurve,
    SolverError,
    apply_D,
    apply_Q,
    build_model,
    dense_lift_oracle,
    exact_mse_at,
    exact_mse_curve,
    g_apply,
    lambda_max_P,
    lambda_max_Q,
    limiting_mse,
    solve_v1,
    solve_v2,
    vec_e,
    vec_f,
)
from .problems import (
    FixedNoise,
    IidNoise,
    LinearSystem,
    MatrixFileError,
    gen_gaussian,
    gen_identity,
    gen_tomography,
    load_system,
    load_vector,
    make_measurements,
    save_system,
    save_vector,
)
from .rka import (
    EmpiricalCurve,
    RowDistribution,
    make_distribution,
    monte_carlo_mse,
    row_norm_distribution,
    uniform_distribution,
)
from .validate import enumerated_mse_curve, run_suite
