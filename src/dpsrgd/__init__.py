"""Differentially private stochastic convex optimization with correlated
noise.

Layer map (each imports only from layers above it):

  geometry     projections, the L2 constraint ball and the one bound check
  objectives   convex per-example losses with exact population metrics
  optim        the optimizer runners only (accelerated recursive-gradient,
               baselines, multi-epoch variants) and their potential; they
               take noise rows from the caller and know no mechanism
  counting     noise-row streams: identity, binary tree, matrix factorization
  accounting   sensitivity/noise calibration and budget conversions
  harness      experiment specs, dataset IO, sweeps, CSV emission
  verify       the ten end-to-end acceptance criteria, with the probes
               that only they run
  cli          the dpsrgd command-line entry point
"""

from .accounting import (
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
    tree_baseline_objective,
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
    LogisticTask,
    LossProblem,
    SyntheticQuadratic,
)
from .optim import (
    MemfConfig,
    RunAborted,
    RunRecord,
    SrgdConfig,
    potential,
    run_accelerated_dp_srgd,
    run_dp_srg_memf,
    run_independent_variant,
)
from .verify import CriterionResult, run_all

__version__ = "0.1.0"

__all__ = [
    "batch_and_beta", "build_regime_report", "clip_norm", "gdp_to_dp",
    "mu_for_dp", "rho_for_dp", "sensitivity_bound", "srgd_sigma", "zcdp_to_dp",
    "StrategyMatrix", "TreeState", "build_strategy", "factorize",
    "identity_strategy", "mf_noise_stream", "tree_baseline_objective",
    "tree_ingest", "tree_prefix", "tree_rows", "tree_sens",
    "ConstraintBall", "project_ball",
    "ExperimentSpec", "MetricRow", "MetricTable", "emit_csv", "load_dataset",
    "parse_summary_csv", "run_experiment",
    "LogisticTask", "LossProblem", "SyntheticQuadratic",
    "MemfConfig", "RunAborted", "RunRecord", "SrgdConfig", "potential",
    "run_accelerated_dp_srgd", "run_dp_srg_memf", "run_independent_variant",
    "CriterionResult", "run_all",
    "__version__",
]
