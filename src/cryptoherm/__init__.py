"""Metric operators, Dyson maps, and perturbation series for
finite-dimensional quasi-Hermitian Hamiltonians.

A Hamiltonian H that is non-Hermitian in its working space but satisfies
H^dag Theta = Theta H for some Hermitian positive-definite Theta generates
unitary evolution under the Theta inner product.  This package constructs
the (ambiguous) family of such metrics, removes the ambiguity with
candidate observables, factors Dyson maps Omega^dag Omega = Theta, expands
the metric order by order when H is perturbed, and maps the stability
domains where all of this remains possible.
"""

from .dyson import DysonMap, dyson_map, hermitize, pullback_observable
from .errors import (
    BetaOutOfRangeError,
    CryptohermError,
    DefectiveError,
    DegenerateObservableError,
    DegenerateSpectrumError,
    InconsistentError,
    InvalidBracketError,
    MatrixFileError,
    NonFiniteError,
    NonPositiveWeightError,
    NoPositiveSolutionError,
    NotPositiveDefiniteError,
    NotQuasiHermitianError,
    SeriesOverflowError,
    ShapeMismatchError,
    SingularResolventError,
    SolvabilityViolatedError,
    SpectrumNotRealError,
    UnderdeterminedError,
)
from .matrixio import matrix_from_doc, matrix_to_doc, read_matrix, write_matrix
from .metric import (
    MetricFamily,
    MetricOperator,
    assemble_metric,
    fix_ambiguity,
    kg_beta,
    kg_hamiltonian,
    kg_metric,
    metric_from_matrix,
    quasi_hermiticity_residual,
)
from .perturbation import (
    GAUGE_TAG,
    DysonSeries,
    MetricSeries,
    PerturbationProblem,
    commutator_gap,
    dyson_from_metric,
    hidden_hermiticity_test,
    leading_delta,
    metric_series,
    solve_order,
    v_from_w,
    w_from_v,
)
from .spectra import (
    BiorthogonalSystem,
    as_matrix,
    diagonalize,
    ep_proximity,
    spectrum_is_real,
)
from .stability import (
    FamilySpec,
    ScanPoint,
    ScanReport,
    exact_matched_metric,
    lambda_max,
    reality_scan,
    series_vs_exact,
)

__version__ = "0.1.0"

__all__ = [
    "BetaOutOfRangeError",
    "BiorthogonalSystem",
    "CryptohermError",
    "DefectiveError",
    "DegenerateObservableError",
    "DegenerateSpectrumError",
    "DysonMap",
    "DysonSeries",
    "FamilySpec",
    "GAUGE_TAG",
    "InconsistentError",
    "InvalidBracketError",
    "MatrixFileError",
    "MetricFamily",
    "MetricOperator",
    "MetricSeries",
    "NonFiniteError",
    "NonPositiveWeightError",
    "NoPositiveSolutionError",
    "NotPositiveDefiniteError",
    "NotQuasiHermitianError",
    "PerturbationProblem",
    "ScanPoint",
    "ScanReport",
    "SeriesOverflowError",
    "ShapeMismatchError",
    "SingularResolventError",
    "SolvabilityViolatedError",
    "SpectrumNotRealError",
    "UnderdeterminedError",
    "as_matrix",
    "assemble_metric",
    "commutator_gap",
    "diagonalize",
    "dyson_from_metric",
    "dyson_map",
    "ep_proximity",
    "exact_matched_metric",
    "fix_ambiguity",
    "hermitize",
    "hidden_hermiticity_test",
    "kg_beta",
    "kg_hamiltonian",
    "kg_metric",
    "lambda_max",
    "leading_delta",
    "matrix_from_doc",
    "matrix_to_doc",
    "metric_from_matrix",
    "metric_series",
    "pullback_observable",
    "quasi_hermiticity_residual",
    "read_matrix",
    "reality_scan",
    "series_vs_exact",
    "solve_order",
    "spectrum_is_real",
    "v_from_w",
    "w_from_v",
    "write_matrix",
]
