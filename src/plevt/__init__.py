"""Pseudo-Lindley distribution toolkit.

Evaluation, sampling, method-of-moments fitting, tail-index estimation
(Hill and weighted-spacing variants), record-value asymptotics, and a
deterministic Monte Carlo harness checking each limit theorem.
"""

from .distribution import (
    FitResult,
    Params,
    cdf,
    fit_method_of_moments,
    moment,
    moment_radius_sequence,
    pdf,
    survival,
    von_mises_ratio,
)
from .errors import (
    CsvFormatError,
    DegenerateSampleError,
    DomainError,
    ExperimentRefusedError,
    FitInfeasibleError,
    NotEvaluableError,
    ParameterError,
    PlevtError,
)
from .harness import (
    Experiment,
    McReport,
    Thresholds,
    default_thresholds,
    derived_rerun_seed,
    report_to_json,
    run_experiment,
    run_suite,
    standard_suite,
)
from .quantile import (
    QuantileResult,
    quantile_exact,
    quantile_from_log_tail,
    quantile_tail_expansion,
    quantile_values,
)
from .records import (
    RecordSequence,
    extract_records,
    simulate_record,
    standardized_record,
)
from .sampling import (
    SeedSpec,
    SortedSample,
    mixture_values,
    read_values_csv,
    sample_inverse_cdf,
    sample_mixture,
    spacings,
    top_order_statistics,
    write_values_csv,
)
from .tail import (
    TailStatistics,
    WeightFunction,
    check_dh_conditions,
    default_k,
    dh_statistic,
    hill,
    standardize_dh,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distribution
    "Params",
    "pdf",
    "survival",
    "cdf",
    "moment",
    "moment_radius_sequence",
    "von_mises_ratio",
    "FitResult",
    "fit_method_of_moments",
    # quantile
    "QuantileResult",
    "quantile_exact",
    "quantile_from_log_tail",
    "quantile_values",
    "quantile_tail_expansion",
    # sampling
    "SeedSpec",
    "SortedSample",
    "mixture_values",
    "sample_mixture",
    "sample_inverse_cdf",
    "top_order_statistics",
    "spacings",
    "read_values_csv",
    "write_values_csv",
    # tail estimation
    "WeightFunction",
    "TailStatistics",
    "hill",
    "dh_statistic",
    "standardize_dh",
    "check_dh_conditions",
    "default_k",
    # records
    "RecordSequence",
    "extract_records",
    "simulate_record",
    "standardized_record",
    # harness
    "Experiment",
    "McReport",
    "Thresholds",
    "default_thresholds",
    "derived_rerun_seed",
    "run_experiment",
    "run_suite",
    "standard_suite",
    "report_to_json",
    # errors
    "PlevtError",
    "ParameterError",
    "DomainError",
    "NotEvaluableError",
    "FitInfeasibleError",
    "DegenerateSampleError",
    "CsvFormatError",
    "ExperimentRefusedError",
]
