"""Joint estimation of sparse Gaussian precision matrices across populations,
with debiased z-tests, confidence intervals, theory diagnostics, and a Monte
Carlo experiment harness."""

__version__ = "0.1.0"

from .core import (
    CovarianceSet,
    MultiPopDataset,
    PrecisionSet,
    derive_seed,
    draw_mvn,
    draw_mvn_dataset,
    edge_mask,
    invert_pd,
    population_seed,
    sample_covariance,
    symmetrize,
)
from .diagnostics import (
    DiagnosticsReport,
    check_between_group,
    check_irrepresentability,
    diagnostics_report,
    graph_stats,
    rate_delta,
    restricted_hessian,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DataFormatError,
    DimensionMismatchError,
    MultiGGMError,
    NotPositiveDefiniteError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    run_coverage,
    run_normality,
    run_sign_consistency,
    run_supnorm,
    run_tpfp,
)
from .graphs import GraphSpec, chain_precision, two_population_chain_spec, two_population_star_spec, star_precision
from .inference import (
    ConfidenceIntervalResult,
    EdgeTestResult,
    combine,
    confidence_interval,
    debias,
    entry_variances,
    normal_quantile,
    test_linear_combo,
    upper_quantile,
)
from .io import ingest_csv, write_csv_atomic, write_json_atomic
from .selection import EbicScore, TuningGrid, ebic, penalty_scale, tune_penalties
from .solver import (
    PenaltyPair,
    SolveReport,
    SolverOptions,
    kkt_residual,
    solve_ggl,
)

__all__ = [name for name in dir() if not name.startswith("_")]
