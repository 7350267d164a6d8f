"""Biorthogonal eigendecomposition and spectral-reality diagnostics.

Dense, desk-scale routines for non-Hermitian matrices.  All operations are
pure functions of their inputs; returned arrays are marked read-only so
values can be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

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


def _raiser(message: str):
    def fail(err, flag):
        raise LinAlgError(message)
    return fail


_NOT_CONVERGED = _raiser("Eigenvalues did not converge")
_SINGULAR = _raiser("Singular matrix")

# routine -> (gufunc, real signature, complex signature, error callback),
# each as numpy.linalg's wrapper of that routine chooses it
_ROUTINES = {
    "eig": (_umath_linalg.eig, "d->DD", "D->DD", _NOT_CONVERGED),
    "eigvals": (_umath_linalg.eigvals, "d->D", "D->D", _NOT_CONVERGED),
    "eigh": (_umath_linalg.eigh_lo, "d->dd", "D->dD", _NOT_CONVERGED),
    "eigvalsh": (_umath_linalg.eigvalsh_lo, "d->d", "D->d", _NOT_CONVERGED),
    "svdvals": (_umath_linalg.svd, "d->d", "D->d", _raiser("SVD did not converge")),
    "inv": (_umath_linalg.inv, "d->d", "D->D", _SINGULAR),
    "solve": (_umath_linalg.solve, "dd->d", "DD->D", _SINGULAR),
    "solve1": (_umath_linalg.solve1, "dd->d", "DD->D", _SINGULAR),
}


def _lapack(routine: str, *operands: np.ndarray):
    """numpy.linalg's ``routine`` without its per-call Python wrapper.

    ``eig``, ``eigvals``, ``eigh``, ``eigvalsh`` (lower triangle),
    ``svdvals`` (``svd(a, compute_uv=False)``), ``inv`` and ``solve(a, b)``
    call the LAPACK gufunc that numpy.linalg calls, with the signature it
    picks (the complex one when any operand is complex), under the same
    ``np.errstate``, and raise LinAlgError with its message.  Results match
    numpy.linalg's byte for byte, in values, dtype and strides: ``eig`` and
    ``eigvals`` of a real matrix come back real (``.real`` views of the
    complex result) exactly when every imaginary part of the eigenvalues
    is zero.

    The checks numpy.linalg makes first are skipped: square operands of a
    supported dtype and, for ``eig`` and ``eigvals``, finite entries.
    Callers hand over square ``float64`` or ``complex128`` arrays, and every
    matrix they decompose is finite: :func:`as_matrix` checks it, or
    ``lambda_max`` its bracket ends (H is affine in lambda).
    """
    if routine == "solve" and operands[1].ndim == 1:
        routine = "solve1"
    gufunc, real_sig, complex_sig, fail = _ROUTINES[routine]
    # one operand, or solve's two
    real = operands[0].dtype.kind == "f" and operands[-1].dtype.kind == "f"
    with np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore"):
        out = gufunc(*operands, signature=real_sig if real else complex_sig)
    # np.count_nonzero tests w.imag.any() in a third of its time
    if real and routine == "eigvals" and not np.count_nonzero(out.imag):
        return out.real
    if real and routine == "eig" and not np.count_nonzero(out[0].imag):
        return out[0].real, out[1].real
    return out


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square complex array, rejecting NaN/Inf entries
    and entries (such as a huge int) past the float range."""
    try:
        m = np.array(a, dtype=complex)
    except OverflowError:
        raise NonFiniteError(f"{name} has an entry outside the float range") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ShapeMismatchError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{name} contains NaN/Inf entries")
    return m


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """``a.real`` when every imaginary part of ``a`` is exactly zero, else ``a``.

    LAPACK's real eigensolver then decomposes a real matrix in real
    arithmetic, returning conjugate pairs and exactly real eigenvalues as
    such.  The test is exact zero: a tiny imaginary part changes the
    problem, so it keeps the complex solver.
    """
    return a if a.imag.any() else a.real


def _real(x) -> float:
    """``float(x)``, with a number past the float range (such as a huge
    int, where ``float`` raises OverflowError) read as an infinity of its
    sign, so that each caller rejects it as it rejects that infinity."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _check_tol(tol: float) -> float:
    tol = _real(tol)
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
    A complex entry with finite parts but a modulus past the float range
    gets the smallest scale, ``2**-1023``.
    """
    top = float(np.abs(a).max(initial=0.0))
    return 2.0 ** -(max(math.frexp(top)[1] - 1, 0) if top < math.inf else 1023)


def _finite(a, what: str):
    """``a``, or NonFiniteError naming ``what`` when an entry is not finite."""
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} leaves the double-precision range")
    return a


def _reality(eigenvalues: np.ndarray, tol: float) -> tuple[bool, float]:
    """``(max |Im E| <= tol * max(1, max |E|), max |Im E|)``; ``tol`` unchecked."""
    max_imag = float(np.abs(eigenvalues.imag).max())
    return max_imag <= tol * _spectral_scale(eigenvalues), max_imag


def _col_norms(x: np.ndarray) -> np.ndarray:
    """Column 2-norms, summed exactly as ``np.linalg.norm(x, axis=0)`` sums them."""
    return np.sqrt((x.conj() * x).real.sum(axis=0))


def _fro(x: np.ndarray) -> float:
    """Frobenius norm, summed exactly as ``np.linalg.norm(x)`` sums it."""
    x = x.ravel(order="K")
    sq = x.real.dot(x.real) + x.imag.dot(x.imag) if x.dtype.kind == "c" else x.dot(x)
    return math.sqrt(float(sq))


def _cond(x: np.ndarray) -> float:
    """Spectral condition number of ``x``; ``inf`` when it is singular.
    Eigenvector bases are gated on ``_cond(vr / _col_norms(vr))``."""
    sv = _lapack("svdvals", x)
    # Python floats: a ratio past the float range is inf, with no warning
    return float(sv[0]) / float(sv[-1]) if sv[-1] > 0.0 else float("inf")


def _min_gap(eigenvalues: np.ndarray) -> float:
    """Smallest pairwise eigenvalue separation; ``inf`` below two values.

    A real-dtype array takes the smallest gap between sorted neighbours.
    Rounding is monotone, so for a <= b <= c the rounded c - a is never
    below the rounded b - a: that equals the pairwise minimum bit for bit,
    and the absolute value turns a tie of -0.0 and 0.0 into +0.0, as the
    complex modulus does.
    """
    if eigenvalues.size < 2:
        return float("inf")
    # Halving is exact for normal floats and keeps the differences of
    # near-overflow eigenvalues finite; doubling a Python float cannot warn.
    half = 0.5 * eigenvalues
    if half.dtype.kind == "f":
        half.sort()
        return 2.0 * abs(float((half[1:] - half[:-1]).min()))
    diff = np.abs(half[:, None] - half[None, :])
    diff.flat[:: eigenvalues.size + 1] = np.inf
    return 2.0 * float(diff.min())


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
    computes it.  ``matrix`` is the validated, read-only input that
    :func:`diagonalize` decomposed (``None`` for a hand-built system), so a
    later consumer can tell whether this system is the one it would
    compute for its own H.

    Three tolerance-free summaries of the eigenvalues, the minimum pairwise
    gap, max |Im E| and the spectral scale max(1, max |E|), are formed once
    per system, on first use, for every gate that reads them; the
    eigenvalues must therefore never be modified.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    tolerance: float
    condition_number: float | None = field(default=None, compare=False)
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    _gap = functools.cached_property(lambda self: _min_gap(self.eigenvalues))
    _max_imag = functools.cached_property(lambda self: float(np.abs(self.eigenvalues.imag).max()))
    _scale = functools.cached_property(lambda self: _spectral_scale(self.eigenvalues))

    def reconstruct(self) -> np.ndarray:
        """Rebuild the decomposed matrix as R diag(E) L^dag."""
        return (self.right_vectors * self.eigenvalues) @ self.left_vectors.conj().T


def diagonalize(h, tol: float) -> BiorthogonalSystem:
    """Biorthogonally diagonalize a dense square matrix.

    Right eigenvectors are normalized to unit length; left eigenvectors
    are then fixed by L^dag = R^{-1}, which biorthonormalizes exactly and
    handles exact degeneracies with full eigenspaces for free.

    When no entry of ``h`` has a nonzero imaginary part, the eigensolver,
    the condition gate, the inverse and the residual gates run on its real
    part: LAPACK's real driver (DGEEV) returns exactly real eigenvalues and
    exact conjugate pairs.  Any other input takes the complex driver
    (ZGEEV).  Either way the eigenvalues and both bases are returned as
    read-only ``complex128`` arrays, and ``matrix`` is the complex input.

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
        condition-number gate (or a residual check) fails.  The error
        carries the measured condition number and eigenvalues.
    NonFiniteError
        Input contains NaN/Inf, or the eigensolver's result does.
    """
    h = as_matrix(h, "H")
    tol = _check_tol(tol)
    n = h.shape[0]

    a = _real_if_exact(h)
    evals, vr = _lapack("eig", a)
    if not np.isfinite(evals).all():
        # LAPACK returns NaN for an entry whose modulus overflows
        raise NonFiniteError("the eigenvalues of H leave the float range")
    cond = _cond(vr / _col_norms(vr))
    spectrum = evals  # in the eigensolver's order, for a DefectiveError
    if cond > 1.0 / tol:
        raise DefectiveError(
            "eigenvector-basis condition number exceeds "
            f"1/tol = {1.0 / tol:.3e}; matrix is (near-)defective",
            condition_number=cond,
            eigenvalues=spectrum.astype(complex),
            bound=1.0 / tol,
        )
    order = np.lexsort((evals.imag, evals.real))
    evals, vr = evals[order], vr[:, order]
    vr = vr / _col_norms(vr)
    vl = _lapack("inv", vr).conj().T

    # Residuals can only be as good as eps * cond allows; gate on the
    # achievable bound so well-posed inputs never fail spuriously.  They are
    # formed on the power-of-two-scaled H, so they equal the unscaled
    # ratios and nothing overflows for entries near the float limit.
    s = _pow2_scale(a)
    hs, es = a * s, evals * s
    vlh = vl.conj().T
    scale = max(s, _fro(hs))
    bound = max(tol, 100.0 * n * _EPS * cond)
    right_res = float(_col_norms(hs @ vr - vr * es).max()) / scale
    left_res = _fro(vlh @ hs - es[:, None] * vlh) / scale
    bi = vlh @ vr
    bi.flat[:: n + 1] -= 1.0  # L^dag R - I, without forming I
    bi_res = _fro(bi)
    worst = max(right_res, left_res, bi_res)
    if worst > bound:
        raise DefectiveError(
            f"biorthogonal residual {worst:.3e} exceeds {bound:.3e}; "
            "eigenbasis is unreliable",
            condition_number=cond,
            eigenvalues=spectrum.astype(complex),
            residual=worst,
            bound=bound,
        )

    # a real decomposition is returned in the complex dtype of every system
    evals, vr, vl = (x.astype(complex, copy=False) for x in (evals, vr, vl))
    for arr in (h, evals, vr, vl):
        arr.setflags(write=False)
    return BiorthogonalSystem(evals, vr, vl, tol, cond, h)


def spectrum_is_real(system: BiorthogonalSystem) -> tuple[bool, float]:
    """Test whether the spectrum is real within the system tolerance.

    Returns ``(flag, max_imag)``; the flag is true iff
    ``max |Im E| <= tolerance * max(1, max |E|)``.
    """
    return system._max_imag <= system.tolerance * system._scale, system._max_imag


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
        cond = _cond(system.right_vectors)  # ``inf`` for a singular basis
    return system._gap, cond


def require_real_nondegenerate(system: BiorthogonalSystem) -> None:
    """Raise unless the spectrum is real and non-degenerate at the system
    tolerance.

    This is the regime in which the weighted-projector metric family is
    the complete solution set of the quasi-Hermiticity relation and the
    order-by-order eigenbasis division is well posed.
    """
    real, max_imag = spectrum_is_real(system)
    if not real:
        raise SpectrumNotRealError(
            f"spectrum has |Im E| up to {max_imag:.3e}; "
            "no positive-definite metric exists"
        )
    min_gap, _ = ep_proximity(system)
    if min_gap <= system.tolerance * system._scale:
        raise DegenerateSpectrumError(
            f"smallest eigenvalue gap {min_gap:.3e} is below tolerance"
        )
