"""Brier score library and Monte Carlo simulation harness.

Empirical scoring of binary probability predictions, closed-form behavior
under Bernoulli outcomes, an exhaustive enumeration oracle for small n, and
a reproducible scenario engine with CSV/SVG reporting.
"""

from .analytic import (
    AsymptoticSummary,
    JensenBound,
    Ordering,
    PerturbationSpec,
    clt_normal_approx,
    effectiveness_compare,
    expected_bs,
    expected_bs_perfect_single,
    expected_bs_single,
    jensen_bound,
    perfect_bs_lower_bound,
    perturb_difference,
    shift_difference,
    variance_single,
)
from .dgm import (
    EmpiricalProbabilityPool,
    PredictorTransformSpec,
    TrueDistributionSpec,
    apply_predictor_transform,
    derive_stream,
    load_empirical_pool,
    make_synthetic_pool,
    sample_outcomes,
    sample_true_probs,
)
from .engine import (
    CellResult,
    Scenario,
    ScenarioResult,
    StudyConfig,
    SummaryStats,
    load_study_config,
    run_scenario,
    run_study,
    summarize,
    scenarios_for,
)
from .errors import (
    BrierLabError,
    ConfigError,
    DimensionError,
    EnumerationBudgetError,
    InsufficientPoolError,
    ValidationError,
)
from .oracle import (
    ExactScoreDistribution,
    exact_distribution,
    exact_exceedance_probability,
    exact_expected_bs,
)
from .presets import DEFAULT_SEED
from .scoring import (
    ScoreReport,
    brier_score,
    cil,
    diagnose,
    mae,
    read_pair_file,
    reference_scores,
    rmse,
    score_report,
)

__version__ = "0.1.0"
