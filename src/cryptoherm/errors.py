"""Exception hierarchy shared across the package.

Every domain failure raises a distinct subclass of :class:`CryptohermError`
so callers (and the command-line front end) can dispatch on the failure
kind rather than on message text.
"""

__all__ = [
    "BetaOutOfRangeError",
    "CryptohermError",
    "DefectiveError",
    "DegenerateObservableError",
    "DegenerateSpectrumError",
    "InconsistentError",
    "InvalidBracketError",
    "MatrixFileError",
    "NoPositiveSolutionError",
    "NonFiniteError",
    "NonPositiveWeightError",
    "NotPositiveDefiniteError",
    "NotQuasiHermitianError",
    "SeriesOverflowError",
    "ShapeMismatchError",
    "SingularResolventError",
    "SolvabilityViolatedError",
    "SpectrumNotRealError",
    "UnderdeterminedError",
]


class CryptohermError(Exception):
    """Base class for all domain errors raised by this package."""


class NonFiniteError(CryptohermError):
    """An input contains NaN/Inf entries, or a computed result leaves the float range."""


class ShapeMismatchError(CryptohermError):
    """Operands are not square or their dimensions disagree."""


class DefectiveError(CryptohermError):
    """The eigenvector basis is numerically defective (near a Jordan
    block / exceptional point), so no reliable biorthogonal system
    exists.

    The failed gate's measured value sits next to its threshold:
    ``condition_number`` and ``bound`` for the eigenvector-basis condition
    gate, ``residual`` and ``bound`` for the biorthogonal residual gate
    (``residual`` is ``None`` for the other).  Both gates carry the
    measured ``condition_number`` and the complex ``eigenvalues`` in the
    eigensolver's order, so the matrix needs no second decomposition.
    """

    def __init__(self, message: str, *, condition_number: float | None = None,
                 eigenvalues=None, residual: float | None = None,
                 bound: float | None = None):
        self.condition_number = condition_number
        self.eigenvalues = eigenvalues
        self.residual = residual
        self.bound = bound
        super().__init__(message)


class SpectrumNotRealError(CryptohermError):
    """An operation that requires a real spectrum was given a matrix with
    genuinely complex eigenvalues; no positive metric exists for it."""


class DegenerateSpectrumError(CryptohermError):
    """Eigenvalue gaps fall below tolerance; the weighted-projector metric
    parametrization and the eigenbasis division are ill-posed there."""


class NonPositiveWeightError(CryptohermError):
    """A metric weight vector contains entries <= 0."""


class NoPositiveSolutionError(CryptohermError):
    """The observable constraints single out a weight line that contains
    no strictly positive vector (the selected metric is not positive
    definite)."""


class UnderdeterminedError(CryptohermError):
    """The observable constraints leave more than one free weight ratio;
    the observable set is not irreducible."""


class InconsistentError(CryptohermError):
    """The observable constraints admit only the zero solution; no metric
    makes the whole set quasi-Hermitian."""


class BetaOutOfRangeError(CryptohermError):
    """The closed-form two-level metric requires |beta| < 1 to stay
    positive definite."""


class DegenerateObservableError(CryptohermError):
    """A 2x2 observable with equal diagonal entries cannot pin down the
    off-diagonal metric parameter."""


class NotPositiveDefiniteError(CryptohermError):
    """A matrix that must be Hermitian positive definite is not, at
    working precision."""


class NotQuasiHermitianError(CryptohermError):
    """The quasi-Hermiticity precondition H^dag Theta = Theta H fails
    beyond tolerance."""


class SolvabilityViolatedError(CryptohermError):
    """The order-k metric-correction equation has no solution: the
    right-hand side has nonzero diagonal biorthogonal components, i.e.
    the perturbation drives the order-k energy corrections complex."""

    def __init__(self, order: int, residual: float):
        self.order = int(order)
        self.residual = float(residual)
        super().__init__(
            f"order-{order} solvability condition violated: kernel residual "
            f"{residual:.3e} (energy corrections are not real at this order)"
        )


class SeriesOverflowError(CryptohermError):
    """The metric coefficient T^(order) lies outside the double-precision
    range: past the convergence radius r the coefficients grow like r**-k."""

    def __init__(self, order: int):
        self.order = int(order)
        super().__init__(
            f"order-{order} metric coefficient exceeds the double-precision "
            "range (series past its convergence radius)"
        )


class SingularResolventError(CryptohermError):
    """1 + lambda*Delta is numerically singular; the perturbation map is
    not invertible at this parameter value."""


class InvalidBracketError(CryptohermError):
    """A boundary-search bracket does not straddle a spectral-reality
    transition.

    ``lo`` and ``hi`` are the bracket endpoints; ``real_at_lo`` and
    ``real_at_hi`` are the reality verdicts measured there (a valid
    bracket is real at ``lo`` and non-real at ``hi``).
    """

    def __init__(self, message: str, *, lo: float, hi: float,
                 real_at_lo: bool, real_at_hi: bool):
        self.lo = lo
        self.hi = hi
        self.real_at_lo = real_at_lo
        self.real_at_hi = real_at_hi
        super().__init__(message)


class MatrixFileError(CryptohermError):
    """A structured matrix document failed to parse or validate."""
