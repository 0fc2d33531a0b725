"""Analytic Stockwell transform of sampled signals, its zero set, and the
hyperbolic spatial statistics comparing those zeros to the zeros of the
hyperbolic Gaussian analytic function."""

from .geometry import cayley_to_disk, pseudo_hyperbolic_distance
from .windows import (
    WindowParams,
    basis_ft,
    cauchy_wavelet_ft,
    closed_form_ast_basis,
    eta_beta,
    laguerre,
    lambda_factor,
)
from .transform import (
    CauchyWindowKernel,
    DiscreteSignal,
    LogFreqGrid,
    TFMatrix,
    TimeGrid,
    cauchy_riemann_residual,
    dast_direct,
    dast_spectral,
    extract_analytic_part,
    multiplier_cutoff,
    sample_white_noise,
)
from .zeros import GuardSpec, ZeroSet, detect_zeros, time_guard_margin
from .gaf import (
    GafSample,
    expected_count,
    gaf_zeros,
    sample_gaf,
    theoretical_pair_correlation,
    truncation_order,
)
from .spatial import (
    ObservationWindow,
    RadialStats,
    classify_inner,
    estimate_pair_correlation,
)
from .experiment import (
    ExperimentConfig,
    ResultBundle,
    compare_to_theory,
    run_experiment,
    write_bundle,
)

__version__ = "0.1.0"

__all__ = [
    "cayley_to_disk",
    "pseudo_hyperbolic_distance",
    "WindowParams",
    "basis_ft",
    "cauchy_wavelet_ft",
    "closed_form_ast_basis",
    "eta_beta",
    "laguerre",
    "lambda_factor",
    "CauchyWindowKernel",
    "DiscreteSignal",
    "LogFreqGrid",
    "TFMatrix",
    "TimeGrid",
    "cauchy_riemann_residual",
    "dast_direct",
    "dast_spectral",
    "extract_analytic_part",
    "multiplier_cutoff",
    "sample_white_noise",
    "GuardSpec",
    "ZeroSet",
    "detect_zeros",
    "time_guard_margin",
    "GafSample",
    "expected_count",
    "gaf_zeros",
    "sample_gaf",
    "theoretical_pair_correlation",
    "truncation_order",
    "ObservationWindow",
    "RadialStats",
    "classify_inner",
    "estimate_pair_correlation",
    "ExperimentConfig",
    "ResultBundle",
    "compare_to_theory",
    "run_experiment",
    "write_bundle",
    "__version__",
]
