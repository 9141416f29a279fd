"""Pseudo-Lindley distribution toolkit.

Evaluation, sampling, method-of-moments fitting, tail-index estimation
(Hill and weighted-spacing variants), record-value asymptotics, and a
deterministic Monte Carlo harness checking each limit theorem.
"""

from .distribution import (
    FitResult,
    MixtureWeights,
    Params,
    cdf,
    fit_method_of_moments,
    mixture_weights,
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
    tail_expansion_terms,
)
from .records import (
    RecordSequence,
    extract_records,
    record_value_from_log_tail,
    simulate_record,
    standardized_record,
)
from .sampling import (
    SeedSpec,
    SortedSample,
    load_sample_csv,
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
    check_k1,
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
    "MixtureWeights",
    "mixture_weights",
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
    "tail_expansion_terms",
    # sampling
    "SeedSpec",
    "SortedSample",
    "mixture_values",
    "sample_mixture",
    "sample_inverse_cdf",
    "top_order_statistics",
    "spacings",
    "read_values_csv",
    "load_sample_csv",
    "write_values_csv",
    # tail estimation
    "WeightFunction",
    "TailStatistics",
    "hill",
    "dh_statistic",
    "standardize_dh",
    "check_k1",
    "check_dh_conditions",
    "default_k",
    # records
    "RecordSequence",
    "extract_records",
    "simulate_record",
    "record_value_from_log_tail",
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
