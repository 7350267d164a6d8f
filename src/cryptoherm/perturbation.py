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

The series is solved in the biorthogonal eigenbasis, on X^(k) = R^dag T^(k) R
with W~ = L^dag W R: the left side acts componentwise as (E_m - E_n) X_mn,
the right side is sum [X^(j) W~ - W~^dag X^(j)], and T^(k) = L X^(k) L^dag.
The diagonal components of the right side obstruct solvability: they
vanish exactly when the order-k energy corrections stay real.  The
diagonal of the *solution* is the per-order metric ambiguity; the gauge
used throughout zeroes it, i.e. keeps the unperturbed weights.

The Dyson-factor corrections follow from the metric corrections in the
gauge where S_k = Theta Delta_k is Hermitian: matching powers of lambda in
T_lambda gives, for k = 0, 1, ...,

    S_k = (T^(k+1) - sum_{i+j=k-1} Delta_i^dag S_j) / 2,
    Delta_k = Theta^{-1} S_k.

Finally, a perturbation prescribed in the working space (W) and its image
under the exact deformation (V) are related by the intertwining identity
(H + lambda V)(1 + lambda Delta) = (1 + lambda Delta)(H + lambda W), which
:func:`v_from_w` / :func:`w_from_v` implement in closed form.
"""

from __future__ import annotations

import functools
import math
import threading
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    NonFiniteError,
    NotPositiveDefiniteError,
    NotQuasiHermitianError,
    SeriesOverflowError,
    ShapeMismatchError,
    SingularResolventError,
    SolvabilityViolatedError,
)
from .metric import MetricOperator, metric_from_matrix, quasi_hermiticity_residual
from .spectra import (
    BiorthogonalSystem,
    _check_tol,
    _finite,
    _pow2_scale,
    as_matrix,
    diagonalize,
    require_real_nondegenerate,
)

__all__ = [
    "DysonSeries",
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

_RESOLVENT_COND_LIMIT = 1e12

# Serializes the check-then-replace that extends a problem's held orders.
_HOLD_LOCK = threading.Lock()


def _taylor(coeffs, lam: float, n: int) -> np.ndarray:
    """sum_k lam**k C_k over n x n coefficients, summed in increasing k
    from zero; NonFiniteError, with no floating-point warning, where a term
    or the sum leaves the double-precision range."""
    acc = np.zeros((n, n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, c in enumerate(coeffs):
            acc = acc + np.float64(lam) ** k * c
    return _finite(acc, f"a Taylor sum at lambda={lam!r}")


class _Eigenbasis(NamedTuple):
    inv_gaps: np.ndarray  # 1 / (E_m - E_n), zero diagonal
    w_tilde: tuple  # L^dag (w_scale W^(i)) R
    w_scale: float
    x0: np.ndarray  # R^dag (x0_scale Theta) R
    x0_scale: float


@dataclass(frozen=True)
class PerturbationProblem:
    """An unperturbed pair (H, Theta) plus Taylor coefficients of the
    perturbation W_lambda = W0 + lambda W1 + ...

    Use :meth:`build` to construct: it diagonalizes H and validates the
    preconditions (real non-degenerate spectrum, Theta quasi-Hermitian
    for H).  ``h`` and the ``w_coeffs`` are read-only.  A problem also
    holds its eigenbasis constants, formed by :meth:`build` (or on the
    first solve of a problem constructed directly), and the
    ``(T^(k), residual, X^(k))`` orders that :func:`solve_order` has
    solved for it, so a later call extends them instead of starting over.
    """

    h: np.ndarray
    theta: MetricOperator
    w_coeffs: tuple
    system: BiorthogonalSystem
    _orders: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def build(cls, h, theta, w_coeffs, tol: float) -> "PerturbationProblem":
        """Validate (H, Theta, W coefficients) at tolerance ``tol``.

        A Theta from :func:`~cryptoherm.metric.assemble_metric` carries its
        family's system; when that system was computed at ``tol`` from a
        bit-for-bit equal H it is reused, and otherwise H is diagonalized.
        Either way the spectrum and the quasi-Hermiticity gates run, and
        the eigenbasis constants of :func:`solve_order` are formed behind
        their real-part gap gate.

        A metric with a read-only array weakly holds the last problem built
        on it.  While that problem is alive, a build on the same Theta at
        the same ``tol`` with bit-for-bit equal H and W coefficients returns
        it, orders and all, and does not rerun the gates that passed on
        those bytes.
        """
        h = as_matrix(h, "H")
        tol = _check_tol(tol)
        if not isinstance(theta, MetricOperator):
            theta = metric_from_matrix(theta, tol)
        if theta.theta.shape != h.shape:
            raise ShapeMismatchError(f"theta has shape {theta.theta.shape}, expected {h.shape}")
        ws = []
        for i, w in enumerate(w_coeffs):
            w = as_matrix(w, f"W[{i}]")
            if w.shape != h.shape:
                raise ShapeMismatchError(f"W[{i}] has shape {w.shape}, expected {h.shape}")
            w.setflags(write=False)
            ws.append(w)
        h.setflags(write=False)
        held = theta._problem and theta._problem()
        if (held is not None and held.tol == tol and held.h.tobytes() == h.tobytes()
                and len(held.w_coeffs) == len(ws)
                and all(a.tobytes() == b.tobytes() for a, b in zip(held.w_coeffs, ws))):
            return held
        system = theta.system
        # Bytes, not values: -0.0 == 0.0, yet a signed zero can steer
        # LAPACK's reflections to another (equally valid) eigenbasis.
        if (system is None or system.tolerance != tol or system.matrix is None
                or system.matrix.tobytes() != h.tobytes()):
            system = diagonalize(h, tol)
        require_real_nondegenerate(system)
        res = quasi_hermiticity_residual(h, theta)
        if res > tol:
            raise NotQuasiHermitianError(f"theta is not quasi-Hermitian for H: "
                                         f"residual {res:.3e}")
        problem = cls(h, theta, tuple(ws), system)
        problem._eigenbasis  # its gap gate raises here, not on the first solve
        # A writable Theta could change under the problem, so none is held.
        if not theta.theta.flags.writeable:
            object.__setattr__(theta, "_problem", weakref.ref(problem))
        return problem

    @functools.cached_property
    def _eigenbasis(self) -> _Eigenbasis:
        """The constants of :func:`solve_order`, formed once behind the
        degeneracy gate (which raises on every call and holds nothing).
        The W^(i) share one power-of-two scale; X^(0) is held scaled by
        Theta's, which keeps it finite wherever Theta is.
        """
        system = self.system
        e = system.eigenvalues.real
        gaps = e[:, None] - e[None, :]
        np.fill_diagonal(gaps, np.inf)
        if float(np.abs(gaps).min()) <= self.tol * system._scale:
            raise DegenerateSpectrumError("eigenvalue gap below tolerance; "
                                          "eigenbasis division is ill-posed")
        r, lh = system.right_vectors, system.left_vectors.conj().T
        w_scale = min((_pow2_scale(w) for w in self.w_coeffs), default=1.0)
        s = _pow2_scale(self.theta.theta)
        x0 = r.conj().T @ (self.theta.theta * s) @ r
        w_tilde = tuple(lh @ (w * w_scale) @ r for w in self.w_coeffs)
        return _Eigenbasis(1.0 / gaps, w_tilde, w_scale, x0, s)

    @property
    def dim(self) -> int:
        return self.system.dim

    @property
    def tol(self) -> float:
        return self.system.tolerance

    def w_at(self, lam: float) -> np.ndarray:
        """Evaluate W_lambda = sum_i lambda^i W^(i)."""
        return _taylor(self.w_coeffs, lam, self.dim)

    def hamiltonian_at(self, lam: float) -> np.ndarray:
        """Evaluate H + lambda W_lambda = H + sum_i lambda^(i+1) W^(i)."""
        return _taylor((self.h, *self.w_coeffs), lam, self.dim)


@dataclass(frozen=True)
class MetricSeries:
    """Metric Taylor coefficients [Theta, T^(1), ..., T^(K)] in the
    zero-diagonal gauge of the module docstring, with the per-order
    solvability residuals that were observed."""

    t_coeffs: tuple
    solvability_residuals: tuple

    @property
    def order(self) -> int:
        return len(self.t_coeffs) - 1

    def truncated(self, lam: float) -> np.ndarray:
        """Evaluate the truncated sum sum_k lambda^k T^(k)."""
        return _taylor(self.t_coeffs, lam, len(self.t_coeffs[0]))


@dataclass(frozen=True)
class DysonSeries:
    """Dyson-factor Taylor coefficients [Delta_0, Delta_1, ...] in the
    gauge where Theta Delta_k is Hermitian."""

    delta_coeffs: tuple


def _relative_norm(part: np.ndarray, whole: np.ndarray, unit: float) -> float:
    """``||part|| / max(unit, ||whole||)`` in the Frobenius norm, for a
    ``part`` derived from ``whole`` and of comparable size (0 when
    ``part`` is 0).

    Both norms are formed on copies scaled by ``_pow2_scale(whole)``, so
    their squared entries cannot overflow.
    """
    s = _pow2_scale(whole)
    num = float(np.linalg.norm(part * s))
    return num / max(unit * s, float(np.linalg.norm(whole * s))) if num else 0.0


def solve_order(problem: PerturbationProblem, k: int):
    """Metric correction T^(k) of ``problem``, solved from the orders it
    holds, T^(1) .. T^(k-1), and then held with them.  A held order is
    returned as held.

    Solved in the eigenbasis of the module docstring, from the held X^(j)
    and the M supplied W~^(i): 4 products for M = 1.  The equation is
    linear in the X^(j) and the W^(i), so it is solved on copies scaled
    by powers of two (exact) and no product overflows; T^(k) and X^(k)
    are range-checked before the scale is undone.

    Returns
    -------
    (T_k, residual)
        T_k is Hermitian (symmetrized) and read-only; residual combines
        the relative solvability-kernel projection of the right-hand side
        with the asymmetry removed by symmetrization.

    Raises
    ------
    ValueError
        k lies outside [1, held + 1].
    SolvabilityViolatedError
        The kernel projection exceeds the problem tolerance: the
        perturbation drives the order-k energy corrections complex and
        no Hermitian T^(k) exists.
    DegenerateSpectrumError
        Eigenvalue gaps below tolerance make the division ill-posed.
    SeriesOverflowError
        T^(k) or X^(k) lies outside the double-precision range.
    """
    k = int(k)
    held = problem._orders
    if not 1 <= k <= len(held) + 1:
        raise ValueError(f"order must lie in [1, {len(held) + 1}], got {k}")
    if k <= len(held):
        return held[k - 1][:2]
    basis = problem._eigenbasis
    l = problem.system.left_vectors
    # W~^(i) pairs with X^(k-1-i); the sum runs in increasing X order.
    js = range(k - min(k, len(basis.w_tilde)), k)
    # (matrix, the scale it is held at)
    xs = [(held[j - 1][2], 1.0) if j else (basis.x0, basis.x0_scale) for j in js]
    scale = min((s * _pow2_scale(x) for x, s in xs), default=1.0)
    rhs = np.zeros((problem.dim, problem.dim), dtype=complex)
    for j, (x, s) in zip(js, xs):
        x = x * (scale / s)
        w = basis.w_tilde[k - 1 - j]
        rhs += x @ w - w.conj().T @ x
    unit = scale * basis.w_scale
    kernel_res = _relative_norm(np.diag(rhs), rhs, unit)
    if kernel_res > problem.tol:
        raise SolvabilityViolatedError(k, kernel_res)
    y = rhs * basis.inv_gaps
    t = l @ y @ l.conj().T
    res = kernel_res + 0.5 * _relative_norm(t - t.conj().T, t, unit)
    t, y = (0.5 * (a + a.conj().T) for a in (t, y))
    if not all(math.isfinite(float(np.abs(a).max()) / scale / basis.w_scale) for a in (t, y)):
        raise SeriesOverflowError(k)
    t, y = (a / scale / basis.w_scale for a in (t, y))
    for a in (t, y):
        a.setflags(write=False)
    # Held orders are only ever extended, never replaced, so a concurrent
    # caller can at worst repeat work.
    with _HOLD_LOCK:
        if problem._orders is held:
            object.__setattr__(problem, "_orders", (*held, (t, res, y)))
    return t, res


def metric_series(problem: PerturbationProblem, order: int) -> MetricSeries:
    """Metric Taylor coefficients T^(0..order) by repeated
    :func:`solve_order`.

    The order-0 coefficient is the unperturbed metric with residual 0;
    solvability failures surface as :class:`SolvabilityViolatedError`
    carrying the failing order.  The problem keeps every order solved so
    far (read-only), so only the orders it does not hold yet are solved;
    a failing order is not kept, and a repeat call raises again.
    """
    order = int(order)
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    for k in range(len(problem._orders) + 1, order + 1):
        solve_order(problem, k)
    held = problem._orders[:order]
    return MetricSeries((problem.theta.theta, *(o[0] for o in held)),
                        (0.0, *(o[1] for o in held)))


def dyson_from_metric(series: MetricSeries, theta) -> DysonSeries:
    """Dyson-factor corrections Delta_0 .. Delta_{K-1} of a metric series
    of order K, by the recursion of the module docstring.

    The (i, j) and (j, i) terms of the sum are adjoints of each other, so
    order k costs ceil(k/2) products plus one for Theta^{-1}.  A Theta from
    :func:`~cryptoherm.metric.assemble_metric` carries its weights and
    system, so Theta^{-1} = R diag(1/kappa) R^dag; any other Theta is
    inverted through its Cholesky factor, which gates positive definiteness.

    Raises
    ------
    ShapeMismatchError
        Theta's shape differs from that of the series' coefficients.
    NotPositiveDefiniteError
        K >= 1 and a Theta without weights fails the Cholesky gate.
    NonFiniteError
        A Delta_k leaves the double-precision range (with no warning).
    """
    th = theta.theta if isinstance(theta, MetricOperator) else as_matrix(theta, "theta")
    if th.shape != series.t_coeffs[0].shape:
        raise ShapeMismatchError(f"theta has shape {th.shape}, "
                                 f"expected {series.t_coeffs[0].shape}")
    if not series.order:
        return DysonSeries(())
    deltas, ss = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(theta, MetricOperator) and theta.weights is not None:
            r = theta.system.right_vectors
            th_inv = (r / theta.weights) @ r.conj().T
        else:
            try:
                l_inv = np.linalg.inv(np.linalg.cholesky(0.5 * (th + th.conj().T)))
            except np.linalg.LinAlgError as exc:
                raise NotPositiveDefiniteError(f"metric inversion failed: {exc}") from exc
            th_inv = l_inv.conj().T @ l_inv
        for k, t in enumerate(series.t_coeffs[1:]):
            for i in range((k + 1) // 2):  # the pairs (i, k-1-i) with i <= k-1-i
                p = deltas[i].conj().T @ ss[k - 1 - i]
                t = t - (p if 2 * i == k - 1 else p + p.conj().T)
            ss.append(0.5 * t)
            deltas.append(_finite(th_inv @ ss[-1], f"Delta_{k}"))
    return DysonSeries(tuple(deltas))


def leading_delta(w0, h, theta, tol: float) -> np.ndarray:
    """Leading Dyson correction Delta_0 for a perturbation W0.

    Delta_0 is the operator (in the gauge where Theta Delta_0 is Hermitian
    with zero diagonal biorthogonal components) that makes

        W0 + Delta_0 H - H Delta_0

    quasi-Hermitian with respect to Theta.  It is the order-1 term of the
    metric series, T^(1) = Delta_0^dag Theta + Theta Delta_0, and is
    computed by that route:
    ``dyson_from_metric(metric_series(problem, 1), Theta).delta_coeffs[0]``
    for ``problem = PerturbationProblem.build(H, Theta, [W0], tol)``.  While
    the caller holds a problem built on the same Theta from the same bytes
    of H and W0 at ``tol``, that build returns it, so its T^(1) is reused
    rather than solved again.

    Raises
    ------
    NotQuasiHermitianError
        Theta is not quasi-Hermitian for H.
    NotPositiveDefiniteError
        A raw Theta fails :func:`metric_from_matrix`, or a Theta without
        weights fails the Cholesky gate of :func:`dyson_from_metric` (an
        assembled Theta has none).
    SolvabilityViolatedError
        Same kernel obstruction as :func:`solve_order` at order 1.
    CryptohermError
        Any other precondition of :meth:`PerturbationProblem.build`.
    """
    problem = PerturbationProblem.build(h, theta, [w0], tol)
    return dyson_from_metric(metric_series(problem, 1), problem.theta).delta_coeffs[0]


def _resolvent(delta: np.ndarray, lam: float) -> np.ndarray:
    m = _taylor((np.eye(len(delta), dtype=complex), delta), lam, len(delta))
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > _RESOLVENT_COND_LIMIT:
        raise SingularResolventError(f"1 + lambda*Delta has condition number {cond:.3e}")
    return m


def _pow2(a, e: int):
    """``a * 2**e``, exact wherever the result stays in the normal range
    (inf past it, with no warning); a complex array through its parts."""
    if not e:
        return a
    with np.errstate(over="ignore", under="ignore"):
        if np.iscomplexobj(a):
            return np.ldexp(np.ascontiguousarray(a).view(float), e).view(complex)
        return np.ldexp(a, e)


def _at_one_scale(what: str, *terms) -> tuple[list, int]:
    """Each term, a matrix or a product ``(a, b)`` of two, times one power
    of two ``2**-E``, and E.  A product is formed on factors scaled by
    their own powers of two, so none overflows; E follows the largest
    term's value, not its bound, so a small product of large factors (the
    commutator of commuting ones) pushes no other term out of the range.

    Raises NonFiniteError naming ``what`` where a nonzero term falls below
    the normal range at that scale: its low bits are lost there, and where
    the larger terms cancel they would carry the result.
    """
    held = []  # (a, e, top): the term is a * 2**e, and max |a| is in [2**(top-1), 2**top)
    for t in terms:
        a, e = None, 0
        for f in t if isinstance(t, tuple) else (t,):
            s = _pow2_scale(f)
            a, e = (f * s if a is None else a @ (f * s)), e + 1 - math.frexp(s)[1]
        held.append((a, e, math.frexp(float(np.abs(a).max()))[1] if a.any() else None))
    big = max((e + top for _, e, top in held if top is not None), default=0)
    if any(top is not None and min(top, top + e - big) < -1021 for _, e, top in held):
        raise NonFiniteError(f"a term of {what} underflows at the scale of its largest term")
    return [_pow2(a, e - big) for a, e, _ in held], big


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

    Where a product overflows, the products are formed again on factors
    scaled by powers of two, brought to one scale for the sum and unscaled
    at the end.  Wherever no term falls below the normal range at the
    scale of the largest, that gives the bits the same sums, in the same
    order, give without a bound on the exponent.  Where one does, its low
    bits are lost, and with them the result if the larger terms cancel,
    so NonFiniteError is raised instead.

    Raises
    ------
    SingularResolventError
        1 + lam Delta is numerically singular.
    NonFiniteError
        1 + lam Delta or V leaves the double-precision range, or a term of
        V underflows at the scale of its largest term.
    """
    w, delta, h = _check_trio(w, delta, h)
    m = _resolvent(delta, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.linalg.solve(m.T, (m @ w + delta @ h - h @ delta).T).T
        if not np.isfinite(v).all():
            (a, b, c), e = _at_one_scale("V", (m, w), (delta, h), (h, delta))
            v = _pow2(np.linalg.solve(m.T, (a + b - c).T).T, e)
    return _finite(v, "V")


def w_from_v(v, delta, h, lam: float) -> np.ndarray:
    """Inverse of :func:`v_from_w`:

        W = (1 + lam Delta)^{-1} (V (1 + lam Delta) + H Delta - Delta H).

    The rearrangement never divides by lam, so the lam -> 0 limit is
    evaluated directly; composing with :func:`v_from_w` is the identity.
    Products that overflow are formed again as in :func:`v_from_w`, and
    raise as there where a term underflows at the scale of the largest.
    """
    v, delta, h = _check_trio(v, delta, h)
    m = _resolvent(delta, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.linalg.solve(m, v @ m + h @ delta - delta @ h)
        if not np.isfinite(w).all():
            (a, b, c), e = _at_one_scale("W", (v, m), (h, delta), (delta, h))
            w = _pow2(np.linalg.solve(m, a + b - c), e)
    return _finite(w, "W")


def commutator_gap(v, w, delta0, h) -> float:
    """Frobenius norm of (V - W) - (Delta_0 H - H Delta_0).

    For V produced by :func:`v_from_w` at parameter lam with
    Delta = Delta_0 this gap is O(lam): the leading difference between the
    prescribed perturbation and its image is the commutator term alone.
    Where a product overflows, the terms are formed again as in
    :func:`v_from_w`.  NonFiniteError where the gap itself leaves the
    double-precision range, or where a term underflows at the scale of
    the largest.
    """
    v = as_matrix(v, "V")
    w, delta0, h = _check_trio(w, delta0, h)
    if v.shape != w.shape:
        raise ShapeMismatchError("V and W must share one square shape")
    with np.errstate(over="ignore", invalid="ignore"):
        gap, e = (v - w) - (delta0 @ h - h @ delta0), 0
        if not np.isfinite(gap).all():
            what = "the commutator gap"
            (v, w, p, q), e = _at_one_scale(what, v, w, (delta0, h), (h, delta0))
            # at its own scale, so that the norm's squares stay in range
            (gap,), e_gap = _at_one_scale(what, (v - w) - (p - q))
            e += e_gap
        s = _pow2_scale(gap)  # exact, so the norm's squares cannot overflow
        return float(_finite(_pow2(np.linalg.norm(gap * s) / s, e), "the commutator gap"))


def hidden_hermiticity_test(w, delta, h, theta, lam: float, tol: float) -> tuple[bool, float]:
    """Admissibility test for a perturbation at fixed (lam, Delta).

    Builds V = v_from_w(W, Delta, H, lam) and measures the relative
    residual of V^dag Theta = Theta V with :func:`quasi_hermiticity_residual`.
    A residual within ``tol`` means
    the perturbed Hamiltonian is Hermitian under the deformed inner
    product, i.e. its spectrum stays real at this parameter value.

    Returns ``(admissible, residual)``.
    """
    tol = _check_tol(tol)
    residual = quasi_hermiticity_residual(v_from_w(w, delta, h, lam), theta)
    return residual <= tol, residual
