"""Biorthogonal eigendecomposition and spectral-reality diagnostics.

Dense, desk-scale routines for non-Hermitian matrices.  All operations are
pure functions of their inputs; returned arrays are marked read-only so
values can be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
import operator
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


class _Invalid(LinAlgError):
    """An invalid result inside :data:`_ERRSTATE`, as a LAPACK failure sets it."""


def _invalid(err, flag):
    raise _Invalid


# numpy.linalg's np.errstate keywords for every LAPACK routine (a new
# np.errstate per entry: each holds the token of the state it replaced).
# An invalid result raises _Invalid, which the gufunc's caller raises again
# as the routine's LinAlgError; overflow, division and underflow pass silently.
_ERRSTATE = {"call": _invalid, "invalid": "call", "over": "ignore", "divide": "ignore",
             "under": "ignore"}

# routine -> (gufunc, real signature, complex signature, LinAlgError
# message), each as numpy.linalg's wrapper of that routine chooses it
_ROUTINES = {
    "eig": (_umath_linalg.eig, "d->DD", "D->DD", "Eigenvalues did not converge"),
    "eigvals": (_umath_linalg.eigvals, "d->D", "D->D", "Eigenvalues did not converge"),
    "eigh": (_umath_linalg.eigh_lo, "d->dd", "D->dD", "Eigenvalues did not converge"),
    "eigvalsh": (_umath_linalg.eigvalsh_lo, "d->d", "D->d", "Eigenvalues did not converge"),
    "svdvals": (_umath_linalg.svd, "d->d", "D->d", "SVD did not converge"),
    "inv": (_umath_linalg.inv, "d->d", "D->D", "Singular matrix"),
    "solve": (_umath_linalg.solve, "dd->d", "DD->D", "Singular matrix"),
    "solve1": (_umath_linalg.solve1, "dd->d", "DD->D", "Singular matrix"),
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
    is zero (for a stack of matrices, a 3-d operand and one gufunc call,
    every eigenvalue of the stack).

    The checks numpy.linalg makes first are skipped: square operands of a
    supported dtype and, for ``eig`` and ``eigvals``, finite entries.
    Callers hand over square ``float64`` or ``complex128`` arrays, and every
    matrix they decompose is finite: :func:`as_matrix` checks it, or
    ``lambda_max`` its bracket ends (H is affine in lambda).

    It is :func:`_lapack_dispatch` inside ``np.errstate(**_ERRSTATE)``; a
    caller that makes several calls in a row, as one matrix's
    decomposition or a boundary search does, enters the state once.
    """
    with np.errstate(**_ERRSTATE):
        return _lapack_dispatch(routine, *operands)


def _lapack_dispatch(routine: str, *operands: np.ndarray):
    """:func:`_lapack` without its error state: the gufunc call with its
    signature, its ``_Invalid`` raised as the routine's LinAlgError, and
    the real view of a real ``eig`` or ``eigvals``.  Call it only inside
    ``np.errstate(**_ERRSTATE)``, or a LAPACK failure goes unreported."""
    if routine == "solve" and operands[1].ndim == 1:
        routine = "solve1"
    gufunc, real_sig, complex_sig, message = _ROUTINES[routine]
    # one operand, or solve's two
    real = operands[0].dtype.kind == "f" and operands[-1].dtype.kind == "f"
    try:
        out = gufunc(*operands, signature=real_sig if real else complex_sig)
    except _Invalid:
        raise LinAlgError(message) from None
    # np.count_nonzero tests w.imag.any() in a third of its time
    if real and routine == "eigvals" and not np.count_nonzero(out.imag):
        return out.real
    if real and routine == "eig" and not np.count_nonzero(out[0].imag):
        return out[0].real, out[1].real
    return out


def _complex(a, name: str) -> np.ndarray:
    """A complex copy of ``a``; an entry (such as a huge int) past the
    float range raises NonFiniteError."""
    try:
        return np.array(a, dtype=complex)
    except OverflowError:
        raise NonFiniteError(f"{name} has an entry outside the float range") from None


def _square(m: np.ndarray, name: str) -> np.ndarray:
    """``m``, unless it is not a nonempty square matrix or has a NaN/Inf entry."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ShapeMismatchError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NonFiniteError(f"{name} contains NaN/Inf entries")
    return m


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square complex array, rejecting NaN/Inf entries
    and entries (such as a huge int) past the float range."""
    return _square(_complex(a, name), name)


def _shaped(m: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """``m``, unless its shape is not ``shape``."""
    if m.shape != shape:
        raise ShapeMismatchError(f"{name} has shape {m.shape}, expected {shape}")
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


# The three summaries of a spectrum reduce its last axis: a float for one
# spectrum, a list for a stack of them.  The reductions call the ufunc's
# reduce directly, which skips the Python frame of ndarray.max and .min.

def _floats(x):
    """A reduction's result as a Python float (0-d) or list."""
    return float(x) if x.ndim == 0 else x.tolist()


def _spectral_scale(eigenvalues: np.ndarray):
    """max(1, max |E|)."""
    return _floats(np.maximum.reduce(np.abs(eigenvalues), axis=-1, initial=1.0))


def _max_abs_imag(eigenvalues: np.ndarray):
    """max |Im E|."""
    return _floats(np.maximum.reduce(np.abs(eigenvalues.imag), axis=-1))


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


def _pow2_scales(a: np.ndarray) -> np.ndarray:
    """:func:`_pow2_scale` of each matrix of a stack."""
    top = np.abs(a).reshape(len(a), -1).max(axis=1)
    e = np.maximum(np.frexp(top)[1] - 1, 0)
    return np.ldexp(1.0, np.where(top < math.inf, -e, -1023))


def _finite(a, what: str):
    """``a``, or NonFiniteError naming ``what`` when an entry is not finite."""
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} leaves the double-precision range")
    return a


def _reality(eigenvalues: np.ndarray, tol: float) -> tuple[bool, float]:
    """``(max |Im E| <= tol * max(1, max |E|), max |Im E|)``; ``tol`` unchecked."""
    max_imag = _max_abs_imag(eigenvalues)
    return max_imag <= tol * _spectral_scale(eigenvalues), max_imag


def _col_norms(x: np.ndarray) -> np.ndarray:
    """Column 2-norms of each matrix of a stack, as a row per matrix,
    summed exactly as ``np.linalg.norm(x, axis=-2, keepdims=True)`` sums
    them."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-2, keepdims=True))


def _fro(x: np.ndarray) -> float:
    """Frobenius norm, summed exactly as ``np.linalg.norm(x)`` sums it."""
    x = x.ravel(order="K")
    sq = x.real.dot(x.real) + x.imag.dot(x.imag) if x.dtype.kind == "c" else x.dot(x)
    return math.sqrt(float(sq))


def _scaled_fro(x: np.ndarray) -> float:
    """:func:`_fro` of ``x``, formed on a copy scaled by ``_pow2_scale(x)``: no square overflows."""
    s = _pow2_scale(x)
    return _fro(x * s) / s


def _relative_norm(part: np.ndarray, whole: np.ndarray, unit: float) -> float:
    """``||part|| / max(unit, ||whole||)`` in the Frobenius norm (0 when
    ``part`` is 0), both formed on copies scaled by ``_pow2_scale(whole)``,
    for a ``part`` derived from ``whole`` and of comparable size."""
    s = _pow2_scale(whole)
    num = _fro(part * s)
    return num / max(unit * s, _fro(whole * s)) if num else 0.0


def _fros(x: np.ndarray) -> np.ndarray:
    """:func:`_fro` of each matrix of a stack, summed exactly as it sums
    (``vecdot`` makes ``dot``'s BLAS call)."""
    if x.strides[1] < x.strides[2]:
        x = x.swapaxes(1, 2)  # column-major matrices, summed in memory order
    if x.dtype.kind == "c":
        # the real and the imaginary parts of each matrix as two rows,
        # added as x.real.dot(x.real) + x.imag.dot(x.imag) adds them
        parts = x.view(float).reshape(len(x), -1, 2).swapaxes(1, 2)
        sq = np.vecdot(parts, parts)
        return np.sqrt(sq[:, 0] + sq[:, 1])
    x = x.reshape(len(x), -1)
    return np.sqrt(np.vecdot(x, x))


def _conds(x: np.ndarray) -> np.ndarray:
    """Spectral condition number of each matrix of a stack; ``inf`` for a
    singular one.  Eigenvector bases are gated on that of
    ``vr / _col_norms(vr)``."""
    sv = _lapack("svdvals", x)
    top, low = sv[:, 0], sv[:, -1]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.where(low > 0.0, top / low, math.inf)


def _cond(x: np.ndarray) -> float:
    """Spectral condition number of ``x``; ``inf`` when it is singular."""
    sv = _lapack("svdvals", x).tolist()
    # Python floats: a ratio past the float range is inf, with no warning
    return sv[0] / sv[-1] if sv[-1] > 0.0 else math.inf


def _min_gap(eigenvalues: np.ndarray):
    """Smallest pairwise eigenvalue separation along the last axis (a float
    for one spectrum, a list for a stack); ``inf`` below two values.

    A real-dtype array takes the smallest gap between sorted neighbours.
    Rounding is monotone, so for a <= b <= c the rounded c - a is never
    below the rounded b - a: that equals the pairwise minimum bit for bit,
    and the absolute value turns a tie of -0.0 and 0.0 into +0.0, as the
    complex modulus does.  One real spectrum with finite ends (each
    ``lambda_max`` probe's exactly real one) is halved, sorted and
    subtracted in Python floats: the same IEEE operations, bit for bit.
    """
    n = eigenvalues.shape[-1]
    if eigenvalues.ndim == 1 and eigenvalues.dtype.kind == "f":
        half = sorted([0.5 * e for e in eigenvalues.tolist()])
        # an infinite end keeps the array path, whose inf - inf sets numpy's invalid flag
        if n > 1 and -math.inf < half[0] and half[-1] < math.inf:
            return 2.0 * abs(min(map(operator.sub, half[1:], half)))
    if n < 2:
        gaps = np.full(eigenvalues.shape[:-1], np.inf)
    else:
        half = 0.5 * eigenvalues
        if half.dtype.kind == "f":
            half.sort()
            half = half.T  # each spectrum sorted along the first axis
            gaps = np.minimum.reduce(half[1:] - half[:-1])
        else:
            diff = np.abs(half[..., None] - half[..., None, :])
            diff.reshape(-1, n * n)[:, :: n + 1] = np.inf
            gaps = np.minimum.reduce(diff, axis=(-2, -1))
    # Halving is exact for normal floats and keeps the differences of
    # near-overflow eigenvalues finite; doubling a Python float cannot warn.
    if gaps.ndim == 0:
        return 2.0 * abs(float(gaps))
    return [2.0 * abs(gap) for gap in gaps.tolist()]


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
    per system, on first use (or up front, by a stacked :func:`diagonalize`),
    for every gate that reads them; the eigenvalues must therefore never be
    modified.
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

    # an exactly real spectrum takes _min_gap's real path: the same value, bit for bit
    _gap = functools.cached_property(lambda self: _min_gap(_real_if_exact(self.eigenvalues)))
    _max_imag = functools.cached_property(lambda self: _max_abs_imag(self.eigenvalues))
    _scale = functools.cached_property(lambda self: _spectral_scale(self.eigenvalues))

    def reconstruct(self) -> np.ndarray:
        """Rebuild the decomposed matrix as R diag(E) L^dag."""
        return (self.right_vectors * self.eigenvalues) @ self.left_vectors.conj().T


def diagonalize(h, tol: float):
    """Biorthogonally diagonalize a dense square matrix, or each matrix of
    a stack.

    Right eigenvectors are normalized to unit length; left eigenvectors
    are then fixed by L^dag = R^{-1}, which biorthonormalizes exactly and
    handles exact degeneracies with full eigenspaces for free.

    When no entry of a matrix has a nonzero imaginary part, the
    eigensolver runs on its real part (LAPACK's real driver, DGEEV), which
    returns exactly real eigenvalues and exact conjugate pairs; when that
    spectrum is exactly real, the condition gate, the inverse and the
    residual gates run in real arithmetic too.  Any other matrix takes the
    complex driver (ZGEEV).  Either way the eigenvalues and both bases are
    returned as read-only ``complex128`` arrays, and ``matrix`` is the
    complex input.

    A ``(G, N, N)`` stack is split by index arrays into the members that
    share an arithmetic (real or complex), each group decomposed with one
    LAPACK call per stage, and returns a tuple of G outcomes: outcome g
    is, byte for byte, what ``diagonalize(h[g], tol)`` returns, or the
    DefectiveError or NonFiniteError it would raise, with the same fields.
    A stack is never raised for one matrix; a bad ``tol``, shape or dtype
    raises for the whole call.

    Parameters
    ----------
    h : array_like
        Square matrix, or a stack of them, assumed diagonalizable well
        away from exceptional points.
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
    m = _complex(h, "H")
    if m.ndim == 3 and m.shape[1] == m.shape[2] > 0:
        return _diagonalize_stack(m, tol)
    m = _square(m, "H")
    tol = _check_tol(tol)
    m.setflags(write=False)
    return _decompose(m, tol)


def _decompose(m: np.ndarray, tol: float) -> BiorthogonalSystem:
    """:func:`diagonalize` of the validated, read-only complex matrix ``m``,
    in :func:`_gate`'s steps on 2-D arrays and Python floats.  Its three
    LAPACK calls share one error state; between them only finite
    eigenvalues and LAPACK's unit-norm eigenvectors are sorted and
    normalized, and the residual gates follow in the caller's state."""
    a, n = _real_if_exact(m), len(m)
    with np.errstate(**_ERRSTATE):
        evals, vr = _lapack_dispatch("eig", a)  # real exactly when the spectrum is
        if not np.isfinite(evals).all():
            # LAPACK returns NaN for an eigenvalue whose modulus overflows
            raise NonFiniteError("the eigenvalues of H leave the float range")
        sv = _lapack_dispatch("svdvals", vr / _col_norms(vr)).tolist()
        cond = sv[0] / sv[-1] if sv[-1] > 0.0 else math.inf  # as _cond takes it
        if cond > 1.0 / tol:
            raise _defective_error(cond, evals, 1.0 / tol)
        order = evals.argsort(kind="stable")  # by (real, imaginary) part
        spectrum, evals, vr = evals, evals[order], vr[:, order]
        vr = vr / _col_norms(vr)
        vlh = _lapack_dispatch("inv", vr)
    s = _pow2_scale(a)  # _gate's residuals, on the scaled H
    hs, es = a * s, evals * s
    right = float(_col_norms(hs @ vr - vr * es).max())
    bi = vlh @ vr
    bi.reshape(-1)[:: n + 1] -= 1.0
    scale = max(s, _fro(hs))
    bound = max(tol, 100.0 * n * _EPS * cond)
    worst = max(right / scale, _fro(vlh @ hs - es[:, None] * vlh) / scale, _fro(bi))
    if worst > bound:
        raise _residual_error(worst, bound, cond, spectrum)
    evals, vr = evals.astype(complex, copy=False), vr.astype(complex, copy=False)
    vl = vlh.conj() if vlh.dtype.kind == "c" else vlh.astype(complex)  # L^dag, transposed below
    for x in (evals, vr, vl):
        x.setflags(write=False)
    return BiorthogonalSystem(evals, vr, vl.T, tol, cond, m)


def _diagonalize_stack(m: np.ndarray, tol: float) -> tuple:
    """:func:`diagonalize` of the ``(G, N, N)`` complex stack ``m``."""
    if abs(m.strides[1]) < abs(m.strides[2]):
        # each matrix laid out as a copy of it alone is: column-major here
        m = np.ascontiguousarray(m.swapaxes(1, 2)).swapaxes(1, 2)
    else:
        m = np.ascontiguousarray(m)
    tol = _check_tol(tol)
    m.setflags(write=False)
    finite = np.isfinite(m).all(axis=(1, 2))
    has_imag = m.imag.any(axis=(1, 2))
    out = [None if ok else NonFiniteError("H contains NaN/Inf entries") for ok in finite.tolist()]
    # complex and real matrices apart, each part taken as _real_if_exact
    # takes one matrix; each LAPACK call is one _lapack entry, so the
    # residuals stay in the caller's error state
    for at, real in ((np.flatnonzero(finite & has_imag), False),
                     (np.flatnonzero(finite & ~has_imag), True)):
        if not at.size:
            continue
        a = m[at].real if real else m[at]
        evals, vr = _lapack("eig", a)  # real exactly when every spectrum is
        # LAPACK returns NaN for an eigenvalue whose modulus overflows
        ok = np.isfinite(evals).reshape(len(at), -1).all(axis=1)
        for g in np.flatnonzero(~ok).tolist():
            out[at[g]] = NonFiniteError("the eigenvalues of H leave the float range")
        routes = [(ok, False)]
        if real and evals.dtype.kind == "c":
            # a real matrix's exactly real spectrum stays in real arithmetic
            pairs = evals.imag.any(axis=1)
            routes = [(ok & pairs, False), (ok & ~pairs, True)]
        for members, as_real in routes:
            if members.all():  # the whole part, uncopied
                _gate(m, at, a, evals, vr, tol, out)
            elif members.any():
                g = np.flatnonzero(members)
                e, v = (evals[g].real, vr[g].real) if as_real else (evals[g], vr[g])
                _gate(m, at[g], a[g], e, v, tol, out)
    return tuple(out)


def _gate(ms, at, a, evals, vr, tol, out) -> None:
    """The condition gate, sort, inverse and residual gate for the stack
    ``a`` of matrices ``ms[at[g]]`` that share one arithmetic, with its
    eigenpairs from LAPACK, each step one array expression for every
    member.  Each system carries its three summaries, reduced on the
    sorted stack of eigenvalues."""
    n = a.shape[-1]
    cond = _conds(vr / _col_norms(vr))
    spectrum = evals  # in the eigensolver's order, for a DefectiveError
    if cond.max() > 1.0 / tol:
        over = cond > 1.0 / tol
        for g in np.flatnonzero(over).tolist():
            out[at[g]] = _defective_error(float(cond[g]), spectrum[g], 1.0 / tol)
        keep = np.flatnonzero(~over)
        if not keep.size:
            return
        at, a, evals, vr, spectrum = at[keep], a[keep], evals[keep], vr[keep], spectrum[keep]
        cond = cond[keep]
    # a stable sort of complex values is by (real, imaginary) part; columns
    # taken as rows of the transposed stack, so that each matrix is laid out
    # column-major, as vr[:, order] lays out one matrix
    order = evals.argsort(axis=-1, kind="stable")
    rows = np.arange(len(a))[:, None]
    evals, vr = evals[rows, order], vr.swapaxes(1, 2)[rows, order].swapaxes(1, 2)
    vr = vr / _col_norms(vr)
    vlh = _lapack("inv", vr)

    # Residuals can only be as good as eps * cond allows; gate on the
    # achievable bound so well-posed inputs never fail spuriously.  They are
    # formed on the power-of-two-scaled H, so they equal the unscaled
    # ratios and nothing overflows for entries near the float limit.
    s = _pow2_scales(a)
    hs, es = a * s[:, None, None], evals[:, None, :] * s[:, None, None]  # es: one row per matrix
    right = _col_norms(hs @ vr - vr * es).max(axis=-1).ravel()
    left = _fros(vlh @ hs - es.swapaxes(-1, -2) * vlh)
    bi = vlh @ vr
    bi.reshape(-1, n * n)[:, :: n + 1] -= 1.0  # L^dag R - I (a C-contiguous product)
    fro_hs, bi_res = _fros(hs), _fros(bi)

    # a real decomposition is returned in the complex dtype of every system
    evals, vr = evals.astype(complex, copy=False), vr.astype(complex, copy=False)
    vl = vlh.conj() if vlh.dtype.kind == "c" else vlh.astype(complex)  # L^dag, transposed below
    for x in (evals, vr, vl):
        x.setflags(write=False)
    # Each verdict as _decompose's Python max takes it: the first of equal
    # values, and a NaN after the first value never replaces it.
    scale = _first_max(s, fro_hs)
    bound = _first_max(tol, 100.0 * n * _EPS * cond)
    worst = _first_max(right / scale, left / scale, bi_res)
    cached = zip(_min_gap(_real_if_exact(evals)), _max_abs_imag(evals), _spectral_scale(evals))
    rows = zip(at.tolist(), evals, vr, vl.swapaxes(1, 2), cond.tolist(), (worst > bound).tolist(),
               worst.tolist(), bound.tolist(), spectrum, cached)
    for i, e, r, l, c, bad, w, b, spec, (gap, max_imag, spectral_scale) in rows:
        if bad:
            out[i] = _residual_error(w, b, c, spec)
        else:
            system = out[i] = BiorthogonalSystem(e, r, l, tol, c, ms[i])
            system.__dict__.update(_gap=gap, _max_imag=max_imag, _scale=spectral_scale)


def _first_max(first, *others: np.ndarray) -> np.ndarray:
    """Elementwise ``max(first, *others)``, taken as Python's ``max`` takes it."""
    for x in others:
        first = np.where(x > first, x, first)
    return first


def _defective_error(cond: float, spectrum: np.ndarray, bound: float) -> DefectiveError:
    """The condition gate's DefectiveError for one matrix."""
    return DefectiveError(
        "eigenvector-basis condition number exceeds "
        f"1/tol = {bound:.3e}; matrix is (near-)defective",
        condition_number=cond,
        eigenvalues=spectrum.astype(complex),
        bound=bound,
    )


def _residual_error(worst: float, bound: float, cond: float, spectrum: np.ndarray):
    """The residual gate's DefectiveError for one matrix."""
    return DefectiveError(
        f"biorthogonal residual {worst:.3e} exceeds {bound:.3e}; eigenbasis is unreliable",
        condition_number=cond,
        eigenvalues=spectrum.astype(complex),
        residual=worst,
        bound=bound,
    )


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
