"""Gaussian process regression for mixed continuous and categorical inputs.

Modules
-------
corrparam
    Cross-correlation matrix parameterizations (EC, MC, UC, LRC_r).
gpcore
    Ordinary Kriging with a compound Matern(5/2) x cross-correlation
    covariance: likelihood, fitting, prediction, persistence.
design
    Latin hypercube and clustered sliced Latin hypercube designs.
testbed
    Sliced continuous benchmark functions with optional upended slices.
bench
    Simulation-study harness with CSV outputs.
"""

from .corrparam import (
    CorrMatrix,
    FamilySpec,
    build_correlation,
    embed_lrc_in_uc,
    param_count,
    regularize,
)
from .design import ClusterMap, Design, cslhd, lhd, scale_to_bounds
from .gpcore import (
    FitOptions,
    GPFit,
    KernelConfig,
    TrainingSet,
    concentrated_nll,
    fit,
    load_fit,
    predict_batch,
    save_fit,
)
from .testbed import (
    ContinuousFunction,
    CrossCorrEstimate,
    SlicedFunction,
    empirical_cross_corr,
    make_benchmark_suite,
    make_sliced,
    slice_positions,
    standard_functions,
    swap_optimum,
)
from .bench import (
    BenchRecord,
    ExperimentConfig,
    extract_tau_hat,
    load_config,
    make_test_set,
    q_squared,
    rmse_corr,
    run_experiment,
    summarize,
)

__version__ = "0.1.0"
