"""Biorthogonal eigendecomposition and spectral-reality diagnostics.

Dense, desk-scale routines for non-Hermitian matrices.  All operations are
pure functions of their inputs; returned arrays are marked read-only so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DefectiveError,
    DegenerateSpectrumError,
    NonFiniteError,
    ShapeMismatchError,
    SpectrumNotRealError,
)

__all__ = [
    "BiorthogonalSystem",
    "as_matrix",
    "diagonalize",
    "ep_proximity",
    "require_real_nondegenerate",
    "spectrum_is_real",
]

_EPS = float(np.finfo(float).eps)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square complex array, rejecting NaN/Inf entries."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ShapeMismatchError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{name} contains NaN/Inf entries")
    return m


def _check_tol(tol: float) -> float:
    tol = float(tol)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    return tol


def _spectral_scale(eigenvalues: np.ndarray) -> float:
    return max(1.0, float(np.abs(eigenvalues).max()))


def _pow2_scale(a: np.ndarray) -> float:
    """``2**-e`` with ``2**(e + 1)`` above max |a| and ``e >= 0``.

    Multiplying by a power of two is exact, so norms and residual ratios
    formed on ``a * _pow2_scale(a)`` equal those of ``a`` but cannot
    overflow, even for entries near the float limit.  The scale is at
    least ``2**-1023``, so dividing a scaled result by it is exact too.
    """
    return 2.0 ** -max(math.frexp(float(np.abs(a).max(initial=0.0)))[1] - 1, 0)


def _reality(eigenvalues: np.ndarray, tol: float) -> tuple[bool, float]:
    """``(max |Im E| <= tol * max(1, max |E|), max |Im E|)``.

    ``tol`` is not validated here: ``lambda_max`` accepts any positive value.
    """
    max_imag = float(np.abs(eigenvalues.imag).max())
    return max_imag <= tol * _spectral_scale(eigenvalues), max_imag


def _eigvec_cond(vr: np.ndarray) -> float:
    """Spectral condition number of the column-normalized eigenvectors;
    ``inf`` for a singular basis."""
    sv = np.linalg.svd(vr / np.linalg.norm(vr, axis=0), compute_uv=False)
    return float(sv[0] / sv[-1]) if sv[-1] > 0.0 else float("inf")


def _min_gap(eigenvalues: np.ndarray) -> float:
    """Smallest pairwise eigenvalue separation; ``inf`` below two values."""
    if eigenvalues.size < 2:
        return float("inf")
    # Halving is exact for normal floats and keeps the differences of
    # near-overflow eigenvalues finite; doubling a Python float cannot warn.
    half = 0.5 * eigenvalues
    diff = np.abs(half[:, None] - half[None, :])
    return 2.0 * float(diff[~np.eye(eigenvalues.size, dtype=bool)].min())


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Eigenvalues of a diagonalizable matrix with matched left/right bases.

    Columns of ``right_vectors`` (unit norm) and ``left_vectors`` hold the
    right and left eigenvectors.  They satisfy H R = R diag(E),
    L^dag H = diag(E) L^dag and the biorthonormalization L^dag R = I within
    ``tolerance``.  Eigenvalues are sorted by (real, imaginary) part, so
    repeated runs order identically.

    ``condition_number`` is the spectral condition number of the
    right-eigenvector matrix measured by :func:`diagonalize`'s gate; it is
    ``None`` for a hand-built system, and :func:`ep_proximity` then
    computes it.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    tolerance: float
    condition_number: float | None = field(default=None, compare=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def reconstruct(self) -> np.ndarray:
        """Rebuild the decomposed matrix as R diag(E) L^dag."""
        return (self.right_vectors * self.eigenvalues) @ self.left_vectors.conj().T


def diagonalize(h, tol: float) -> BiorthogonalSystem:
    """Biorthogonally diagonalize a dense square matrix.

    Right eigenvectors are normalized to unit length; left eigenvectors
    are then fixed by L^dag = R^{-1}, which biorthonormalizes exactly and
    handles exact degeneracies with full eigenspaces for free.

    Parameters
    ----------
    h : array_like
        Square matrix, assumed diagonalizable well away from exceptional
        points.
    tol : float
        Working tolerance in (0, 1).  An eigenvector matrix with spectral
        condition number above ``1/tol`` is rejected as defective.

    Raises
    ------
    DefectiveError
        Near a Jordan block the eigenvector basis degenerates; the
        condition-number gate (or a residual check) fails.
    NonFiniteError
        Input contains NaN/Inf.
    """
    h = as_matrix(h, "H")
    tol = _check_tol(tol)
    n = h.shape[0]

    evals, vr = np.linalg.eig(h)
    cond = _eigvec_cond(vr)
    if cond > 1.0 / tol:
        raise DefectiveError(
            "eigenvector-basis condition number exceeds "
            f"1/tol = {1.0 / tol:.3e}; matrix is (near-)defective",
            condition_number=cond,
            bound=1.0 / tol,
        )
    order = np.lexsort((evals.imag, evals.real))
    evals = evals[order]
    vr = vr[:, order]
    vr = vr / np.linalg.norm(vr, axis=0)
    vl = np.linalg.inv(vr).conj().T

    # Residuals can only be as good as eps * cond allows; gate on the
    # achievable bound so well-posed inputs never fail spuriously.  They are
    # formed on the power-of-two-scaled H, so they equal the unscaled
    # ratios and nothing overflows for entries near the float limit.
    s = _pow2_scale(h)
    hs, es = h * s, evals * s
    scale = max(s, float(np.linalg.norm(hs)))
    bound = max(tol, 100.0 * n * _EPS * cond)
    right_res = float(np.linalg.norm(hs @ vr - vr * es, axis=0).max()) / scale
    left_res = float(np.linalg.norm(vl.conj().T @ hs - es[:, None] * vl.conj().T)) / scale
    bi_res = float(np.linalg.norm(vl.conj().T @ vr - np.eye(n)))
    worst = max(right_res, left_res, bi_res)
    if worst > bound:
        raise DefectiveError(
            f"biorthogonal residual {worst:.3e} exceeds {bound:.3e}; "
            "eigenbasis is unreliable",
            residual=worst,
            bound=bound,
        )

    for arr in (evals, vr, vl):
        arr.setflags(write=False)
    return BiorthogonalSystem(evals, vr, vl, tol, cond)


def spectrum_is_real(system: BiorthogonalSystem, tol: float) -> tuple[bool, float]:
    """Test whether the spectrum is real within a relative tolerance.

    Returns ``(flag, max_imag)``; the flag is true iff
    ``max |Im E| <= tol * max(1, max |E|)``.
    """
    return _reality(system.eigenvalues, _check_tol(tol))


def ep_proximity(system: BiorthogonalSystem) -> tuple[float, float]:
    """Diagnostics for proximity to an eigenvalue coalescence.

    Returns ``(min_gap, eigvec_cond)``: the smallest pairwise eigenvalue
    separation (``inf`` for a 1x1 system) and the spectral condition
    number of the right-eigenvector matrix, which blows up as an
    exceptional point is approached.  The condition number is the one
    :func:`diagonalize` measured; only a hand-built system without one
    pays for an SVD here.
    """
    cond = system.condition_number
    if cond is None:
        sv = np.linalg.svd(system.right_vectors, compute_uv=False)
        cond = float(sv[0] / sv[-1])
    return _min_gap(system.eigenvalues), cond


def require_real_nondegenerate(system: BiorthogonalSystem) -> None:
    """Raise unless the spectrum is real and non-degenerate at the system
    tolerance.

    This is the regime in which the weighted-projector metric family is
    the complete solution set of the quasi-Hermiticity relation and the
    order-by-order eigenbasis division is well posed.
    """
    real, max_imag = spectrum_is_real(system, system.tolerance)
    if not real:
        raise SpectrumNotRealError(
            f"spectrum has |Im E| up to {max_imag:.3e}; "
            "no positive-definite metric exists"
        )
    min_gap, _ = ep_proximity(system)
    if min_gap <= system.tolerance * _spectral_scale(system.eigenvalues):
        raise DegenerateSpectrumError(
            f"smallest eigenvalue gap {min_gap:.3e} is below tolerance"
        )
