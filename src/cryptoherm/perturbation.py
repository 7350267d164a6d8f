"""Order-by-order response of the metric to a non-Hermitian perturbation.

Perturbing H -> H + lambda W_lambda deforms the compatible metric into an
effective metric T_lambda = (1 + lambda Delta^dag) Theta (1 + lambda Delta)
constrained by

    (H + lambda W_lambda)^dag T_lambda = T_lambda (H + lambda W_lambda).

Expanding W_lambda = W0 + lambda W1 + ... and T_lambda = Theta + lambda T1
+ ... in powers of lambda turns the constraint into one Sylvester-type
equation per order,

    H^dag T^(k) - T^(k) H
        = sum_{j=0}^{k-1} [ T^(j) W^(k-1-j) - (W^(k-1-j))^dag T^(j) ].

In the biorthogonal eigenbasis the left side acts componentwise as
(E_m - E_n) X_mn, so the diagonal components of the transformed right side
obstruct solvability: they vanish exactly when the order-k energy
corrections stay real.  The diagonal of the *solution* is the per-order
metric ambiguity; the gauge used throughout zeroes it, i.e. keeps the
unperturbed weights.

The Dyson-factor corrections follow from the metric corrections in the
gauge where Theta Delta^(k) is Hermitian:

    T^(1) = Delta_0^dag Theta + Theta Delta_0,
    T^(2) = (Delta^(1))^dag Theta + Delta_0^dag Theta Delta_0
            + Theta Delta^(1).

Finally, a perturbation prescribed in the working space (W) and its image
under the exact deformation (V) are related by the intertwining identity
(H + lambda V)(1 + lambda Delta) = (1 + lambda Delta)(H + lambda W), which
:func:`v_from_w` / :func:`w_from_v` implement in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    NotPositiveDefiniteError,
    NotQuasiHermitianError,
    ShapeMismatchError,
    SingularResolventError,
    SolvabilityViolatedError,
)
from .metric import MetricOperator, metric_from_matrix, quasi_hermiticity_residual
from .spectra import (
    BiorthogonalSystem,
    _check_tol,
    _pow2_scale,
    _spectral_scale,
    as_matrix,
    diagonalize,
    require_real_nondegenerate,
)

__all__ = [
    "DysonSeries",
    "GAUGE_TAG",
    "MetricSeries",
    "PerturbationProblem",
    "commutator_gap",
    "dyson_from_metric",
    "hidden_hermiticity_test",
    "leading_delta",
    "metric_series",
    "solve_order",
    "v_from_w",
    "w_from_v",
]

GAUGE_TAG = "zero-diagonal-biorthogonal"

_RESOLVENT_COND_LIMIT = 1e12


def _theta_matrix(theta) -> np.ndarray:
    if isinstance(theta, MetricOperator):
        return theta.theta
    return as_matrix(theta, "theta")


@dataclass(frozen=True)
class PerturbationProblem:
    """An unperturbed pair (H, Theta) plus Taylor coefficients of the
    perturbation W_lambda = W0 + lambda W1 + ...

    Use :meth:`build` to construct: it diagonalizes H and validates the
    preconditions (real non-degenerate spectrum, Theta quasi-Hermitian
    for H).
    """

    h: np.ndarray
    theta: MetricOperator
    w_coeffs: tuple
    system: BiorthogonalSystem

    @classmethod
    def build(cls, h, theta, w_coeffs, tol: float) -> "PerturbationProblem":
        h = as_matrix(h, "H")
        tol = _check_tol(tol)
        if not isinstance(theta, MetricOperator):
            theta = metric_from_matrix(theta, tol)
        if theta.theta.shape != h.shape:
            raise ShapeMismatchError(
                f"theta has shape {theta.theta.shape}, expected {h.shape}"
            )
        ws = []
        for i, w in enumerate(w_coeffs):
            w = as_matrix(w, f"W[{i}]")
            if w.shape != h.shape:
                raise ShapeMismatchError(
                    f"W[{i}] has shape {w.shape}, expected {h.shape}"
                )
            ws.append(w)
        system = diagonalize(h, tol)
        require_real_nondegenerate(system)
        res = quasi_hermiticity_residual(h, theta)
        if res > tol:
            raise NotQuasiHermitianError(
                f"theta is not quasi-Hermitian for H: residual {res:.3e}"
            )
        return cls(h, theta, tuple(ws), system)

    @property
    def dim(self) -> int:
        return self.system.dim

    @property
    def tol(self) -> float:
        return self.system.tolerance

    def w_coeff(self, i: int) -> np.ndarray:
        """Taylor coefficient W^(i); coefficients beyond those supplied
        are zero (constant-W scenario)."""
        if 0 <= i < len(self.w_coeffs):
            return self.w_coeffs[i]
        return np.zeros((self.dim, self.dim), dtype=complex)

    def w_at(self, lam: float) -> np.ndarray:
        """Evaluate W_lambda = sum_i lambda^i W^(i)."""
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for i, w in enumerate(self.w_coeffs):
            acc += lam**i * w
        return acc

    def hamiltonian_at(self, lam: float) -> np.ndarray:
        """Evaluate the perturbed Hamiltonian H + lambda W_lambda."""
        return self.h + lam * self.w_at(lam)


@dataclass(frozen=True)
class MetricSeries:
    """Metric Taylor coefficients [Theta, T^(1), ..., T^(K)] in a fixed
    gauge, with the per-order solvability residuals that were observed."""

    t_coeffs: tuple
    gauge: str
    solvability_residuals: tuple

    @property
    def order(self) -> int:
        return len(self.t_coeffs) - 1

    def truncated(self, lam: float) -> np.ndarray:
        """Evaluate the truncated sum sum_k lambda^k T^(k)."""
        acc = np.zeros_like(self.t_coeffs[0])
        for k, t in enumerate(self.t_coeffs):
            acc = acc + lam**k * t
        return acc


@dataclass(frozen=True)
class DysonSeries:
    """Dyson-factor Taylor coefficients [Delta_0, Delta^(1), ...] in the
    gauge where Theta Delta^(k) is Hermitian."""

    delta_coeffs: tuple


def _sylvester_gauge_solve(system: BiorthogonalSystem, rhs: np.ndarray, tol: float):
    """Solve H^dag X - X H = rhs in the zero-diagonal biorthogonal gauge.

    Returns ``(X, kernel_residual, asymmetry)``: the Hermitian-symmetrized
    solution, the relative norm of the diagonal (solvability-obstruction)
    components of the transformed right side, and the relative asymmetry
    removed by the symmetrization.
    """
    e = system.eigenvalues.real
    n = e.size
    off = ~np.eye(n, dtype=bool)
    gaps = e[:, None] - e[None, :]
    if n > 1 and float(np.min(np.abs(gaps[off]))) <= tol * _spectral_scale(system.eigenvalues):
        raise DegenerateSpectrumError(
            "eigenvalue gap below tolerance; eigenbasis division is ill-posed"
        )
    r = system.right_vectors
    ct = r.conj().T @ rhs @ r
    kernel_res = _relative_norm(np.diag(ct), ct)
    y = np.zeros_like(ct)
    y[off] = ct[off] / gaps[off]
    l = system.left_vectors
    x = l @ y @ l.conj().T
    asym = 0.5 * _relative_norm(x - x.conj().T, x)
    x = 0.5 * (x + x.conj().T)
    return x, kernel_res, asym


def _relative_norm(part: np.ndarray, whole: np.ndarray) -> float:
    """``||part|| / max(1, ||whole||)`` in the Frobenius norm, for a
    ``part`` derived from ``whole`` and of comparable size.

    High-order series coefficients grow like r**-k past the convergence
    radius r, and their squared entries overflow long before the entries
    do, so both norms are formed on copies scaled by ``_pow2_scale(whole)``.
    """
    s = _pow2_scale(whole)
    return float(np.linalg.norm(part * s)) / max(s, float(np.linalg.norm(whole * s)))


def solve_order(problem: PerturbationProblem, k: int, lower: MetricSeries):
    """Metric correction T^(k) from the corrections below it.

    Parameters
    ----------
    problem : PerturbationProblem
    k : int
        Order to solve, k >= 1.
    lower : MetricSeries
        Must contain T^(0) .. T^(k-1).

    Returns
    -------
    (T_k, residual)
        T_k is Hermitian (symmetrized); residual combines the relative
        solvability-kernel projection of the right-hand side with the
        asymmetry removed by symmetrization.

    Raises
    ------
    SolvabilityViolatedError
        The kernel projection exceeds the problem tolerance: the
        perturbation drives the order-k energy corrections complex and
        no Hermitian T^(k) exists.
    DegenerateSpectrumError
        Eigenvalue gaps below tolerance make the division ill-posed.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    if len(lower.t_coeffs) < k:
        raise ValueError(
            f"need T^(0..{k - 1}) to solve order {k}, got {len(lower.t_coeffs)} coefficients"
        )
    n = problem.dim
    rhs = np.zeros((n, n), dtype=complex)
    for j in range(k):
        w = problem.w_coeff(k - 1 - j)
        t = lower.t_coeffs[j]
        rhs += t @ w - w.conj().T @ t
    x, kernel_res, asym = _sylvester_gauge_solve(problem.system, rhs, problem.tol)
    if kernel_res > problem.tol:
        raise SolvabilityViolatedError(k, kernel_res)
    return x, kernel_res + asym


def metric_series(problem: PerturbationProblem, order: int) -> MetricSeries:
    """Metric Taylor coefficients T^(0..order) by repeated
    :func:`solve_order`.

    The order-0 coefficient is the unperturbed metric with residual 0;
    solvability failures surface as :class:`SolvabilityViolatedError`
    carrying the failing order.
    """
    order = int(order)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    t_coeffs = [problem.theta.theta]
    residuals = [0.0]
    for k in range(1, order + 1):
        lower = MetricSeries(tuple(t_coeffs), GAUGE_TAG, tuple(residuals))
        t_k, res = solve_order(problem, k, lower)
        t_coeffs.append(t_k)
        residuals.append(res)
    return MetricSeries(tuple(t_coeffs), GAUGE_TAG, tuple(residuals))


def _metric_inverse(theta: np.ndarray) -> np.ndarray:
    """Theta^{-1} = L^{-dag} L^{-1} from the Cholesky factor Theta = L L^dag.

    The factorization doubles as the positive-definiteness gate; the
    triangular factor is inverted once so every right-hand side costs one
    matrix product.
    """
    try:
        l = np.linalg.cholesky(theta)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"metric inversion failed: {exc}"
        ) from exc
    l_inv = np.linalg.inv(l)
    return l_inv.conj().T @ l_inv


def dyson_from_metric(series: MetricSeries, theta) -> DysonSeries:
    """Dyson-factor corrections reconstructed from metric corrections.

    With Theta Delta^(k) Hermitian, the expansion of
    (1 + lambda Delta^dag) Theta (1 + lambda Delta) inverts to

        Delta_0    = Theta^{-1} T^(1) / 2,
        Delta^(1)  = Theta^{-1} (T^(2) - Delta_0^dag Theta Delta_0) / 2.

    Corrections beyond Delta^(1) are not reconstructed.
    """
    th = _theta_matrix(theta)
    th = 0.5 * (th + th.conj().T)
    deltas = []
    if series.order >= 1:
        th_inv = _metric_inverse(th)
        d0 = 0.5 * (th_inv @ series.t_coeffs[1])
        deltas.append(d0)
        if series.order >= 2:
            d1 = 0.5 * (th_inv @ (series.t_coeffs[2] - d0.conj().T @ th @ d0))
            deltas.append(d1)
    return DysonSeries(tuple(deltas))


def leading_delta(w0, h, theta, tol: float) -> np.ndarray:
    """Leading Dyson correction Delta_0 for a perturbation W0.

    Delta_0 is the operator (in the gauge where Theta Delta_0 is Hermitian
    with zero diagonal biorthogonal components) that makes

        W0 + Delta_0 H - H Delta_0

    quasi-Hermitian with respect to Theta.  Equivalently S = Theta Delta_0
    solves H^dag S - S H = (Theta W0 - W0^dag Theta) / 2, which is half the
    order-1 right-hand side, so this route and
    ``dyson_from_metric(metric_series(...), Theta)`` agree.

    Raises
    ------
    SolvabilityViolatedError
        Same kernel obstruction as :func:`solve_order` at order 1.
    """
    h = as_matrix(h, "H")
    w0 = as_matrix(w0, "W0")
    th = _theta_matrix(theta)
    if w0.shape != h.shape or th.shape != h.shape:
        raise ShapeMismatchError("W0, H and theta must share one square shape")
    tol = _check_tol(tol)
    system = diagonalize(h, tol)
    require_real_nondegenerate(system)
    rhs = 0.5 * (th @ w0 - w0.conj().T @ th)
    s, kernel_res, _ = _sylvester_gauge_solve(system, rhs, tol)
    if kernel_res > tol:
        raise SolvabilityViolatedError(1, kernel_res)
    return _metric_inverse(0.5 * (th + th.conj().T)) @ s


def _resolvent(delta: np.ndarray, lam: float) -> np.ndarray:
    m = np.eye(delta.shape[0], dtype=complex) + lam * delta
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > _RESOLVENT_COND_LIMIT:
        raise SingularResolventError(
            f"1 + lambda*Delta has condition number {cond:.3e}"
        )
    return m


def _check_trio(w, delta, h):
    w = as_matrix(w, "W")
    delta = as_matrix(delta, "Delta")
    h = as_matrix(h, "H")
    if not (w.shape == delta.shape == h.shape):
        raise ShapeMismatchError("W, Delta and H must share one square shape")
    return w, delta, h


def v_from_w(w, delta, h, lam: float) -> np.ndarray:
    """Image perturbation reconstructed from the prescribed one:

        V = (1 + lam Delta) W (1 + lam Delta)^{-1}
            + (Delta H - H Delta)(1 + lam Delta)^{-1}.

    V satisfies the intertwining relation
    (H + lam V)(1 + lam Delta) = (1 + lam Delta)(H + lam W) identically.

    Raises
    ------
    SingularResolventError
        1 + lam Delta is numerically singular.
    """
    w, delta, h = _check_trio(w, delta, h)
    m = _resolvent(delta, lam)
    num = m @ w + delta @ h - h @ delta
    return np.linalg.solve(m.T, num.T).T


def w_from_v(v, delta, h, lam: float) -> np.ndarray:
    """Inverse of :func:`v_from_w`:

        W = (1 + lam Delta)^{-1} (V (1 + lam Delta) + H Delta - Delta H).

    The rearrangement never divides by lam, so the lam -> 0 limit is
    evaluated directly; composing with :func:`v_from_w` is the identity.
    """
    v, delta, h = _check_trio(v, delta, h)
    m = _resolvent(delta, lam)
    return np.linalg.solve(m, v @ m + h @ delta - delta @ h)


def commutator_gap(v, w, delta0, h) -> float:
    """Frobenius norm of (V - W) - (Delta_0 H - H Delta_0).

    For V produced by :func:`v_from_w` at parameter lam with
    Delta = Delta_0 this gap is O(lam): the leading difference between the
    prescribed perturbation and its image is the commutator term alone.
    """
    v = as_matrix(v, "V")
    w, delta0, h = _check_trio(w, delta0, h)
    if v.shape != w.shape:
        raise ShapeMismatchError("V and W must share one square shape")
    return float(np.linalg.norm((v - w) - (delta0 @ h - h @ delta0)))


def hidden_hermiticity_test(w, delta, h, theta, lam: float, tol: float) -> tuple[bool, float]:
    """Admissibility test for a perturbation at fixed (lam, Delta).

    Builds V = v_from_w(W, Delta, H, lam) and measures the relative
    residual of V^dag Theta = Theta V.  A residual within ``tol`` means
    the perturbed Hamiltonian is Hermitian under the deformed inner
    product, i.e. its spectrum stays real at this parameter value.

    Returns ``(admissible, residual)``.
    """
    th = _theta_matrix(theta)
    tol = _check_tol(tol)
    v = v_from_w(w, delta, h, lam)
    num = float(np.linalg.norm(v.conj().T @ th - th @ v))
    denom = float(np.linalg.norm(v)) * float(np.linalg.norm(th))
    residual = 0.0 if denom == 0.0 else num / denom
    return residual <= tol, residual
