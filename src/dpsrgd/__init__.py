"""Differentially private stochastic convex optimization with correlated
noise.

Layer map (each imports only from layers above it):

  geometry     projections and the L2 constraint ball
  objectives   convex per-example losses with exact population metrics
  optim        the optimizer runners (accelerated recursive-gradient,
               baselines, multi-epoch variants) and diagnostics; they take
               noise rows from the caller and know no mechanism
  counting     noise-row streams: identity, binary tree, matrix factorization
  accounting   sensitivity/noise calibration and budget conversions
  harness      experiment specs, dataset IO, sweeps, CSV emission
  verify       the ten end-to-end acceptance criteria
  cli          the dpsrgd command-line entry point
"""

from .accounting import (
    RegimeReport,
    batch_and_beta,
    build_regime_report,
    clip_norm,
    gdp_to_dp,
    mu_for_dp,
    rho_for_dp,
    sensitivity_bound,
    srgd_sigma,
    zcdp_to_dp,
)
from .counting import (
    StrategyMatrix,
    TreeState,
    build_strategy,
    factorize,
    identity_strategy,
    mf_noise_stream,
    prefix_nodes,
    tree_baseline_objective,
    tree_error_bound,
    tree_ingest,
    tree_prefix,
    tree_rows,
    tree_sens,
)
from .geometry import ConstraintBall, project_ball
from .harness import (
    ExperimentSpec,
    MetricRow,
    MetricTable,
    emit_csv,
    load_dataset,
    parse_summary_csv,
    run_experiment,
)
from .objectives import (
    GradientNoiseWrapper,
    LogisticTask,
    LossProblem,
    SyntheticQuadratic,
)
from .optim import (
    MemfConfig,
    RunAborted,
    RunRecord,
    SrgdConfig,
    frozen_srg_estimates,
    linear_fit,
    potential,
    run_accelerated_dp_srgd,
    run_dp_srg_memf,
    run_independent_variant,
    variance_probe,
)
from .verify import CriterionResult, run_all

__version__ = "0.1.0"

__all__ = [
    "RegimeReport", "batch_and_beta", "build_regime_report",
    "clip_norm", "gdp_to_dp", "mu_for_dp", "rho_for_dp",
    "sensitivity_bound", "srgd_sigma", "zcdp_to_dp",
    "StrategyMatrix", "TreeState", "build_strategy", "factorize",
    "identity_strategy", "mf_noise_stream", "prefix_nodes",
    "tree_baseline_objective", "tree_error_bound", "tree_ingest", "tree_prefix",
    "tree_rows", "tree_sens",
    "ConstraintBall", "project_ball",
    "ExperimentSpec", "MetricRow", "MetricTable", "emit_csv", "load_dataset",
    "parse_summary_csv", "run_experiment",
    "GradientNoiseWrapper", "LogisticTask", "LossProblem",
    "SyntheticQuadratic",
    "MemfConfig", "RunAborted", "RunRecord", "SrgdConfig", "linear_fit",
    "potential", "run_accelerated_dp_srgd", "run_dp_srg_memf",
    "run_independent_variant", "frozen_srg_estimates", "variance_probe",
    "CriterionResult", "run_all",
    "__version__",
]
