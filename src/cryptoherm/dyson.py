"""Dyson maps: factor a metric as Omega^dag Omega = Theta and move
operators between the working representation and its Hermitian image."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, NotQuasiHermitianError
from .metric import MetricOperator, quasi_hermiticity_residual
from .spectra import _EPS, _check_tol, _finite, _lapack, _pow2_scale, _shaped, as_matrix

__all__ = ["DysonMap", "dyson_map", "hermitize", "pullback_observable"]

_COND_GUARD = 1e12


@dataclass(frozen=True)
class DysonMap:
    """Invertible factor of a metric, Omega^dag Omega = Theta.

    Any U Omega with unitary U is an equally valid factor; this package
    always returns the Hermitian positive root Theta^{1/2}, so the map is
    a deterministic function of the metric.  ``ill_conditioned`` flags
    cond(Theta) > 1e12, which happens when the metric is nearly singular
    (close to an exceptional point).
    """

    omega: np.ndarray
    omega_inv: np.ndarray
    source_metric: MetricOperator
    condition_number: float
    ill_conditioned: bool


def dyson_map(theta: MetricOperator) -> DysonMap:
    """Factor a metric as Omega^dag Omega = Theta with Omega = Theta^{1/2}.

    The square root is taken through the eigendecomposition of Theta
    (dense, small matrices).

    Raises
    ------
    NotPositiveDefiniteError
        Theta fails positivity at working precision.
    """
    th = as_matrix(theta.theta, "theta")
    # halves before the sum, so entries near the float limit cannot overflow
    w, u = _lapack("eigh", 0.5 * th + 0.5 * th.conj().T)
    if w[0] <= 0.0 or w[0] <= w.size * _EPS * w[-1]:
        raise NotPositiveDefiniteError(
            f"metric has smallest eigenvalue {w[0]:.3e}; not positive "
            "definite at working precision"
        )
    root = np.sqrt(w)
    omega = (u * root) @ u.conj().T
    omega_inv = (u / root) @ u.conj().T
    omega = 0.5 * (omega + omega.conj().T)
    omega_inv = 0.5 * (omega_inv + omega_inv.conj().T)
    cond = float(w[-1] / w[0])
    omega.setflags(write=False)
    omega_inv.setflags(write=False)
    return DysonMap(omega, omega_inv, theta, cond, cond > _COND_GUARD)


def hermitize(h, omega: DysonMap, tol: float) -> np.ndarray:
    """Conjugate H into its Hermitian, isospectral image Omega H Omega^{-1}.

    Raises
    ------
    NotQuasiHermitianError
        H is not quasi-Hermitian for the map's metric within ``tol``; the
        image would not come out Hermitian.
    NonFiniteError
        The image leaves the float range.
    """
    h = as_matrix(h, "H")
    tol = _check_tol(tol)
    res = quasi_hermiticity_residual(h, omega.source_metric)
    if res > tol:
        raise NotQuasiHermitianError(
            f"quasi-Hermiticity residual {res:.3e} exceeds tol {tol:.3e}"
        )
    # formed on H scaled by a power of two (exact), so an image inside the
    # float range cannot overflow on the way
    s = _pow2_scale(h)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(omega.omega @ (h * s) @ omega.omega_inv / s, "the hermitized H")


def pullback_observable(v, omega: DysonMap) -> np.ndarray:
    """Pull an operator back from the Hermitian image space:
    V = Omega^{-1} v Omega.

    When v is Hermitian, the result is quasi-Hermitian with respect to the
    map's source metric (V^dag Theta = Theta V).  Formed, like
    :func:`hermitize`'s image, on v scaled by a power of two; raises
    NonFiniteError when the result leaves the float range.
    """
    v = _shaped(as_matrix(v, "v"), omega.omega.shape, "v")
    s = _pow2_scale(v)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(omega.omega_inv @ (v * s) @ omega.omega / s, "the pulled-back operator")
