"""Metric-operator families for quasi-Hermitian Hamiltonians.

For a diagonalizable H with real non-degenerate spectrum, every Hermitian
solution of the quasi-Hermiticity relation H^dag Theta = Theta H is a
weighted sum of left-eigenvector projectors,

    Theta(kappa) = sum_n kappa_n L_n L_n^dag,

and Theta(kappa) is positive definite exactly when all kappa_n > 0.

Sketch: H^dag L_n = E_n L_n gives H^dag (L_n L_n^dag) = (L_n L_n^dag) H for
real E_n, so every weighted sum solves the relation.  Conversely, writing a
solution as Theta = L Y L^dag, the relation forces (E_m - E_n) Y_mn = 0, so
for a non-degenerate spectrum only the diagonal of Y survives; Hermiticity
makes the diagonal real and positivity makes it positive.  The weights are
the metric's inherent ambiguity; :func:`fix_ambiguity` removes it with a
set of candidate observables.

The two-level Klein-Gordon fixture used throughout the tests is available
in closed form: :func:`kg_hamiltonian`, :func:`kg_metric`, :func:`kg_beta`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BetaOutOfRangeError,
    DegenerateObservableError,
    InconsistentError,
    NonFiniteError,
    NonPositiveWeightError,
    NoPositiveSolutionError,
    NotPositiveDefiniteError,
    ShapeMismatchError,
    UnderdeterminedError,
)
from .spectra import (
    BiorthogonalSystem,
    _check_tol,
    _pow2_scale,
    as_matrix,
    require_real_nondegenerate,
)

__all__ = [
    "MetricFamily",
    "MetricOperator",
    "assemble_metric",
    "fix_ambiguity",
    "kg_beta",
    "kg_hamiltonian",
    "kg_metric",
    "metric_from_matrix",
    "quasi_hermiticity_residual",
]


@dataclass(frozen=True)
class MetricOperator:
    """A Hermitian positive-definite inner-product operator."""

    theta: np.ndarray
    source_tol: float


def metric_from_matrix(theta, tol: float) -> MetricOperator:
    """Validate a raw matrix as a metric operator.

    Raises NotPositiveDefiniteError if the matrix is not Hermitian within
    ``tol`` or has a non-positive eigenvalue.  The Hermiticity gate runs
    on a copy scaled by a power of two, so it holds near the float limit.
    """
    th = as_matrix(theta, "theta")
    tol = _check_tol(tol)
    s = _pow2_scale(th)
    ths = th * s
    defect = float(np.linalg.norm(ths - ths.conj().T))
    if defect > tol * max(s, float(np.linalg.norm(ths))):
        raise NotPositiveDefiniteError(
            f"metric is not Hermitian: defect {defect / s:.3e} exceeds tolerance"
        )
    th = 0.5 * (ths + ths.conj().T) / s
    smallest = float(np.linalg.eigvalsh(th).min())
    if smallest <= 0.0:
        raise NotPositiveDefiniteError(
            f"metric has non-positive eigenvalue {smallest:.3e}"
        )
    th.setflags(write=False)
    return MetricOperator(th, tol)


@dataclass(frozen=True)
class MetricFamily:
    """The solution set of H^dag Theta = Theta H for one Hamiltonian,
    parametrized by positive weights on the left-eigenvector projectors.

    Construction fails unless the system's spectrum is real and
    non-degenerate at the system tolerance: outside that regime this
    parametrization is not the general solution.
    """

    system: BiorthogonalSystem

    def __post_init__(self):
        require_real_nondegenerate(self.system)

    @property
    def dim(self) -> int:
        return self.system.dim

    def projectors(self) -> np.ndarray:
        """The N rank-one kernel projectors L_n L_n^dag, stacked along
        axis 0."""
        l = self.system.left_vectors
        return np.einsum("in,jn->nij", l, l.conj())


def assemble_metric(family: MetricFamily, kappa) -> MetricOperator:
    """Build Theta(kappa) = sum_n kappa_n L_n L_n^dag for positive weights.

    Scale covariance is exact: assemble_metric(family, s * kappa) equals
    s * assemble_metric(family, kappa) for s > 0.

    Raises
    ------
    NonPositiveWeightError
        Some weight is <= 0 (the result would not be positive definite).
    """
    k = np.asarray(kappa, dtype=float)
    if k.shape != (family.dim,):
        raise ShapeMismatchError(
            f"expected {family.dim} weights, got shape {k.shape}"
        )
    if not np.isfinite(k).all():
        raise NonFiniteError("weights contain NaN/Inf")
    if np.any(k <= 0.0):
        raise NonPositiveWeightError(f"weights must be positive, got {k.tolist()}")
    l = family.system.left_vectors
    theta = (l * k) @ l.conj().T
    theta = 0.5 * (theta + theta.conj().T)
    theta.setflags(write=False)
    return MetricOperator(theta, family.system.tolerance)


def quasi_hermiticity_residual(h, theta) -> float:
    """Relative Frobenius residual of the quasi-Hermiticity relation,
    ||H^dag Theta - Theta H|| / (||H|| ||Theta||), formed on copies of H
    and Theta each scaled by a power of two (exact, and free of overflow).
    """
    h = as_matrix(h, "H")
    th = theta.theta if isinstance(theta, MetricOperator) else as_matrix(theta, "theta")
    if th.shape != h.shape:
        raise ShapeMismatchError(
            f"H has shape {h.shape} but theta has shape {th.shape}"
        )
    h = h * _pow2_scale(h)
    th = th * _pow2_scale(th)
    num = float(np.linalg.norm(h.conj().T @ th - th @ h))
    denom = float(np.linalg.norm(h)) * float(np.linalg.norm(th))
    if denom == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / denom


def fix_ambiguity(family: MetricFamily, observables, tol: float) -> np.ndarray:
    """Weights making every candidate observable quasi-Hermitian w.r.t.
    Theta(kappa), normalized so kappa_1 = 1.

    Stacks the constraints Lambda_j^dag Theta(kappa) = Theta(kappa)
    Lambda_j as a real homogeneous linear system in kappa and extracts
    its null space by SVD.  The rank threshold is
    ``tol * max(sigma_max, constraint scale)``; the second term keeps
    constraints that cancel analytically (e.g. Lambda = H itself) from
    leaving pure rounding noise behind.

    Raises
    ------
    UnderdeterminedError
        Solution space has dimension > 1 (set not irreducible; any
        observable that commutes with every family member, such as the
        Hamiltonian, lands here).
    InconsistentError
        Only the zero solution exists (no family member makes the whole
        set quasi-Hermitian).
    NoPositiveSolutionError
        The solution line exists but contains no strictly positive
        vector, so the selected metric would not be positive definite.
    """
    tol = _check_tol(tol)
    n = family.dim
    projs = family.projectors()
    obs = [as_matrix(o, f"observable[{i}]") for i, o in enumerate(observables)]
    if not obs:
        raise UnderdeterminedError("no observables supplied")
    for o in obs:
        if o.shape != (n, n):
            raise ShapeMismatchError(
                f"observable has shape {o.shape}, expected {(n, n)}"
            )

    blocks = []
    floor = 0.0
    proj_norm = max(float(np.linalg.norm(p)) for p in projs)
    for o in obs:
        oh = o.conj().T
        cons = np.stack([oh @ p - p @ o for p in projs])  # (n_weights, n, n)
        a_cplx = cons.reshape(n, -1).T                    # (n*n, n_weights)
        blocks.append(a_cplx.real)
        blocks.append(a_cplx.imag)
        floor = max(floor, float(np.linalg.norm(o)) * proj_norm)
    a = np.vstack(blocks)

    _, s, vt = np.linalg.svd(a, full_matrices=False)
    thresh = tol * max(float(s[0]) if s.size else 0.0, floor)
    rank = int(np.sum(s > thresh))
    null_dim = n - rank
    if null_dim == 0:
        raise InconsistentError(
            "observable constraints admit only the zero solution"
        )
    if null_dim > 1:
        raise UnderdeterminedError(
            f"observable set leaves a {null_dim}-dimensional weight space"
        )

    v = vt[-1].astype(float)
    if v[int(np.argmax(np.abs(v)))] < 0.0:
        v = -v
    if np.min(v) <= tol * float(np.max(np.abs(v))):
        raise NoPositiveSolutionError(
            "the compatible weight line contains no strictly positive vector"
        )
    return v / v[0]


def kg_hamiltonian(tau: float) -> np.ndarray:
    """Two-level Klein-Gordon Hamiltonian [[0, e^{2 tau}], [1, 0]].

    Non-Hermitian for tau != 0, yet its eigenvalues are +-e^tau, real and
    non-degenerate for every real tau.
    """
    tau = float(tau)
    if not np.isfinite(tau):
        raise NonFiniteError("tau must be finite")
    return np.array([[0.0, np.exp(2.0 * tau)], [1.0, 0.0]], dtype=complex)


def kg_metric(tau: float, beta: float, source_tol: float = 1e-12) -> MetricOperator:
    """Closed-form metric [[e^{-tau}, beta], [beta, e^{tau}]] for the
    two-level Klein-Gordon Hamiltonian.

    The free parameter beta spans the full metric ambiguity of that model;
    positivity (determinant 1 - beta^2) requires |beta| < 1.

    Raises
    ------
    BetaOutOfRangeError
        |beta| >= 1.
    """
    tau = float(tau)
    beta = float(beta)
    if not (np.isfinite(tau) and np.isfinite(beta)):
        raise NonFiniteError("tau and beta must be finite")
    if abs(beta) >= 1.0:
        raise BetaOutOfRangeError(f"|beta| = {abs(beta)} >= 1 loses positivity")
    th = np.array(
        [[np.exp(-tau), beta], [beta, np.exp(tau)]], dtype=complex
    )
    th.setflags(write=False)
    return MetricOperator(th, float(source_tol))


def kg_beta(a: float, b: float, c: float, d: float, tau: float) -> float:
    """Metric parameter selected by the 2x2 observable [[a, b], [c, d]]:
    beta = (c e^tau - b e^{-tau}) / (d - a).

    Raises
    ------
    DegenerateObservableError
        d = a; that observable class leaves beta undetermined.
    """
    if d == a:
        raise DegenerateObservableError(
            "observables with d = a do not determine the metric parameter"
        )
    return float((c * np.exp(tau) - b * np.exp(-tau)) / (d - a))
