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

import math
import weakref
from collections.abc import Sequence
from dataclasses import dataclass, field

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
    _EPS,
    BiorthogonalSystem,
    _check_tol,
    _finite,
    _fro,
    _lapack,
    _real,
    _shaped,
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

# Room the Gram route leaves on each side of the rank threshold for the
# rounding of the exact kernel, whose outcome it must reproduce.
_GRAM_MARGIN = 2.0


@dataclass(frozen=True)
class MetricOperator:
    """A Hermitian positive-definite inner-product operator.

    ``system`` and ``weights`` are the biorthogonal system of the family
    the metric was assembled from and the read-only weights kappa
    (:func:`assemble_metric`), carried along so that
    :meth:`~cryptoherm.perturbation.PerturbationProblem.build` on the same
    H need not diagonalize it again, and so that
    :func:`~cryptoherm.perturbation.dyson_from_metric` inverts Theta as
    R diag(1/kappa) R^dag instead of through its Cholesky factor.  Both are
    ``None`` for a metric of any other origin.

    A metric with a read-only ``theta`` (every metric this package makes)
    also holds a weak reference to the last
    :class:`~cryptoherm.perturbation.PerturbationProblem` built on it, so
    that a build on the same bytes at the same tolerance returns that
    problem, with the orders it has solved, for as long as a caller keeps
    it alive, and the last :func:`quasi_hermiticity_residual` against it.
    """

    theta: np.ndarray
    system: BiorthogonalSystem | None = field(default=None, compare=False, repr=False)
    weights: np.ndarray | None = field(default=None, compare=False, repr=False)
    _problem: weakref.ref | None = field(default=None, init=False, compare=False, repr=False)
    _residual: tuple | None = field(default=None, init=False, compare=False, repr=False)


def _pow2_factors(*operands: np.ndarray) -> tuple[float, float]:
    """Two powers of two whose product 2**e brings the largest entry
    modulus of ``operands`` into [1, 2) (2**-1023 where it is infinite: a
    complex entry with finite parts whose modulus overflows).

    Unlike ``_pow2_scale`` the scale also grows, so tiny and subnormal
    operands regain full precision and their squares cannot underflow;
    2**e may reach 2**1074, past the float range, so it comes as two
    factors, applied one after the other.
    """
    top = max(float(np.abs(a).max()) for a in operands)
    e = 1 - math.frexp(top)[1] if top < math.inf else -1023
    return 2.0 ** (e // 2), 2.0 ** (e - e // 2)


def metric_from_matrix(theta, tol: float) -> MetricOperator:
    """Validate a raw matrix as a metric operator.

    Raises NotPositiveDefiniteError if the matrix is not Hermitian within
    ``tol`` (a defect ||Theta - Theta^dag|| above ``tol * ||Theta||``) or
    has a non-positive eigenvalue.  The Hermiticity gate runs on a copy
    scaled by a power of two (:func:`_pow2_factors`), so ``2**k * Theta``
    passes or fails it as Theta does, near the float limit and below.
    """
    th = as_matrix(theta, "theta")
    tol = _check_tol(tol)
    grow, scale = _pow2_factors(th)
    ths = th * grow * scale
    defect = _fro(ths - ths.conj().T)
    if defect > tol * _fro(ths):
        raise NotPositiveDefiniteError(
            f"metric is not Hermitian: defect {defect / scale / grow:.3e} exceeds tolerance"
        )
    th = 0.5 * (ths + ths.conj().T) / scale / grow
    smallest = float(_lapack("eigvalsh", th).min())
    if smallest <= 0.0:
        raise NotPositiveDefiniteError(
            f"metric has non-positive eigenvalue {smallest:.3e}"
        )
    th.setflags(write=False)
    return MetricOperator(th)


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


def _projector_sum(l: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Symmetrized sum_n k_n l_n l_n^dag of one matrix ``l`` or of each
    matrix of a stack, unvalidated: any real weights, and entries past the
    float range come back inf or NaN."""
    t = (l * k) @ l.conj().mT
    return 0.5 * (t + t.conj().mT)


def _weights(kappa, dim: int) -> np.ndarray:
    """``kappa`` as a new read-only array of ``dim`` positive weights."""
    try:
        k = np.array(kappa, dtype=float)
    except OverflowError:
        raise NonFiniteError("weights contain values outside the float range") from None
    if k.shape != (dim,):
        raise ShapeMismatchError(f"expected {dim} weights, got shape {k.shape}")
    lo, hi = float(k.min()), float(k.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteError("weights contain NaN/Inf")
    if lo <= 0.0:
        raise NonPositiveWeightError(f"weights must be positive, got {k.tolist()}")
    k.setflags(write=False)
    return k


def assemble_metric(family: MetricFamily | Sequence[MetricFamily],
                    kappa) -> MetricOperator | tuple:
    """Build Theta(kappa) = sum_n kappa_n L_n L_n^dag for positive weights.

    Scale covariance: assemble_metric(family, s * kappa) equals
    s * assemble_metric(family, kappa) bit for bit when s is a power of two
    and no entry leaves the normal float range; for other s > 0 it holds
    up to rounding.  The result carries the family's system in its
    ``system`` field and a read-only copy of the weights in ``weights``.

    ``family`` may also be a sequence of families of one size, assembled
    with one stacked kernel call: the result is then a tuple whose entry g
    is, byte for byte, what ``assemble_metric(family[g], kappa)`` returns,
    or the NonFiniteError it would raise.  The entries share one read-only
    copy of the weights.  A sequence is never raised for one member; bad
    weights, or families of different sizes, raise for the whole call.

    Raises
    ------
    NonPositiveWeightError
        Some weight is <= 0 (the result would not be positive definite).
    NonFiniteError
        A weight is NaN/Inf, or an entry of Theta leaves the float range.
    """
    if not isinstance(family, MetricFamily):
        return _assemble_stack(family, kappa)
    (metric,) = _assemble_stack((family,), kappa)
    if isinstance(metric, NonFiniteError):
        raise metric
    return metric


def _assemble_stack(families, kappa) -> tuple:
    """:func:`assemble_metric` of each of ``families``, in one kernel call."""
    if not len(families):
        return ()
    n = families[0].dim
    k = _weights(kappa, n)
    try:
        # column-major matrices, as diagonalize lays out every system's left vectors
        l = np.array([f.system.left_vectors.T for f in families]).swapaxes(1, 2)
    except ValueError:
        g = next(g for g, f in enumerate(families) if f.dim != n)
        raise ShapeMismatchError(f"family[{g}] has dimension {families[g].dim}, expected {n}") from None
    with np.errstate(over="ignore", invalid="ignore"):
        t = _projector_sum(l, k)
    t.setflags(write=False)
    finite = np.isfinite(t).all(axis=(1, 2)).tolist()
    return tuple(
        MetricOperator(theta, f.system, k) if ok
        else NonFiniteError("metric Theta(kappa) leaves the double-precision range")
        for theta, f, ok in zip(t, families, finite)
    )


def quasi_hermiticity_residual(h, theta) -> float:
    """Relative Frobenius residual of the quasi-Hermiticity relation,
    ||H^dag Theta - Theta H|| / (||H|| ||Theta||), formed on copies of H
    and Theta each scaled by a power of two (:func:`_pow2_factors`: exact,
    and free of overflow and underflow).

    A :class:`MetricOperator` with a read-only ``theta`` holds the last
    residual measured against it, with the bytes of that H, and returns
    it for an H of the same bytes (so one with -0.0 for 0.0 is measured).
    """
    h = as_matrix(h, "H")
    th = theta.theta if isinstance(theta, MetricOperator) else as_matrix(theta, "theta")
    _shaped(th, h.shape, "theta")
    key = None if th.flags.writeable else h.tobytes()  # a raw array is a writable copy
    if key is not None and (held := theta._residual) and held[0] == key:  # one read: threads
        return held[1]
    (gh, sh), (gt, st) = _pow2_factors(h), _pow2_factors(th)
    h, th = h * gh * sh, th * gt * st
    num = _fro(h.conj().T @ th - th @ h)
    denom = _fro(h) * _fro(th)
    res = (0.0 if num == 0.0 else math.inf) if denom == 0.0 else num / denom
    if key is not None:
        object.__setattr__(theta, "_residual", (key, res))
    return res


def _scaled_adjoints(obs, l: np.ndarray) -> tuple[list, np.ndarray, float]:
    """The adjoints of the validated observables ``obs`` after one common
    power-of-two scale, the left vectors ``l`` after another, and the
    constraint scale max ||O|| * max_n ||l_n||^2 in those units."""
    grow, scale = _pow2_factors(*obs)
    ohs = [scale * (grow * o.conj().T) for o in obs]
    o_norm = max(math.sqrt(np.vdot(oh, oh).real) for oh in ohs)
    # The constraints are quadratic in L, so no scale changes a decision; it
    # is 1 unless max |l| >= 2**240, where ||l_n||^4 could leave the range.
    l = l * 2.0 ** -max(math.frexp(float(np.abs(l).max()))[1] - 240, 0)
    return ohs, l, o_norm * float(np.einsum("in,in->n", l, l.conj()).real.max())


def _constraint_svd(family: MetricFamily, obs) -> tuple[np.ndarray, np.ndarray, float]:
    """``(s, vt, floor)`` of the weight-constraint rows of the validated
    observables ``obs``: the singular values, the right singular vectors
    and the constraint scale, in the units of the observables and L after
    their power-of-two scales.  The exact kernel of :func:`fix_ambiguity`,
    which runs it where the Gram matrix cannot certify the outcome.  Column
    n holds the real and imaginary parts of every entry of
    C_n = a_n l_n^dag - l_n a_n^dag with a_n = Lambda^dag l_n, stacked over
    the observables; the 2 M N^2 rows are factored by an R-only QR, then
    an SVD of the N x N R, in O(M N^4).
    """
    ohs, l, floor = _scaled_adjoints(obs, family.system.left_vectors)
    blocks = []
    for oh in ohs:
        c = np.einsum("in,jn->nij", oh @ l, l.conj())
        c -= c.conj().transpose(0, 2, 1)
        blocks += [c.real.reshape(family.dim, -1), c.imag.reshape(family.dim, -1)]
    _, s, vt = np.linalg.svd(np.linalg.qr(np.concatenate(blocks, axis=1).T, mode="r"))
    return s, vt, floor


def _rank_counts(lo, hi, floor: float, tol: float, margin: float) -> tuple[int, int]:
    """How many singular values known to lie in ``[lo, hi]`` (descending)
    are certainly above and how many certainly below the rank threshold
    ``tol * max(sigma_max, floor)``: above when ``lo`` clears ``margin``
    times its largest value, below when ``margin * hi`` stays under its
    smallest."""
    thr_lo, thr_hi = tol * max(float(lo[0]), floor), tol * max(float(hi[0]), floor)
    return (int(np.count_nonzero(lo > margin * thr_hi)),
            int(np.count_nonzero(margin * hi <= thr_lo)))


def _null_line(lo, hi, floor: float, tol: float, margin: float, v, eta: float):
    """The rank rule of :func:`fix_ambiguity` (:func:`_rank_counts`),
    applied to singular values known to lie in ``[lo, hi]`` and to a null
    vector ``v`` known within ``eta`` in every entry, up to sign.

    Returns the weights, raises the outcome's error, or returns ``None``
    where the bounds leave the outcome open.  Exact values (``lo = hi``,
    ``margin = 1``, ``eta = 0``) always decide.
    """
    n = lo.size
    above, below = _rank_counts(lo, hi, floor, tol, margin)
    if above == n:
        raise InconsistentError(
            "observable constraints admit only the zero solution"
        )
    if below > 1:
        raise UnderdeterminedError(
            f"observable set leaves an at least {below}-dimensional weight space"
        )
    if above < n - 1 or not below:
        return None
    mag = np.abs(v)
    if v[mag.argmax()] < 0.0:
        v = -v
    # the positivity test moves by at most (1 + tol) * eta; eta < max |v|
    # keeps a sign flip of the exact vector from reaching positivity
    edge = v.min() - tol * mag.max()
    slack = (1.0 + tol) * eta
    if edge <= -slack and eta < mag.max():
        raise NoPositiveSolutionError(
            "the compatible weight line contains no strictly positive vector"
        )
    # weights off by eta, past tol * max |v|, are left to the exact kernel
    return v / v[0] if edge > slack and eta <= tol * mag.max() else None


def _gram_weights(ohs, l: np.ndarray, floor: float, tol: float):
    """The outcome of :func:`fix_ambiguity` from the Gram matrix of the
    constraint rows of the scaled ``ohs`` and ``l``, or ``None`` where its
    rounding bound cannot certify it (see :func:`_null_line`)."""
    n = l.shape[1]
    lh = l.conj().T
    p = lh @ l
    g = np.zeros((n, n))
    size = 0.0  # sum over observables and n of ||l_n||^2 ||a_n||^2
    adj = []
    for oh in ohs:
        a = oh @ l
        x = lh @ a
        q = a.conj().T @ a
        g += (p * q.T).real
        g -= (x * x.T).real
        size += float(p.diagonal().real @ q.diagonal().real)
        adj.append(a)
    g *= 2.0
    if not (np.isfinite(g).all() and math.isfinite(size)):
        return None
    # Every entry of p, q and x is a length-N dot product, so the computed
    # G is off by at most about 8 (N + M + 2) eps ||l_n|| ||a_n|| ||l_m|| ||a_m||
    # summed over observables, in 2-norm 8 (N + M + 2) eps * size; eigh
    # adds about N eps ||G|| <= 4 N eps * size (trace G <= 4 size).  Both
    # together stay under 16 (N + M + 1) eps * size.
    delta = 16.0 * (n + len(ohs) + 1) * _EPS * size
    mu, vecs = _lapack("eigh", g)
    mu = mu[::-1]
    lo = np.sqrt(np.maximum(mu - delta, 0.0))
    hi = np.sqrt(np.maximum(mu + delta, 0.0))
    above, _ = _rank_counts(lo, hi, floor, tol, _GRAM_MARGIN)
    v, eta = vecs[:, 0], 0.0
    if above < n:
        # ||rows v|| is formed from the rows themselves, as the norm of
        # sum_n v_n C_n = A diag(v) L^dag - its adjoint; its rounding is at
        # most about 4 (N + 2) eps * sqrt(size).  By Courant-Fischer it
        # bounds sigma_N, and the root sum of squares of two orthonormal
        # vectors' residuals bounds sigma_{N-1}.
        res = []
        for c in range(1 if above == n - 1 else 2):
            sq = 0.0
            for a in adj:
                y = (a * vecs[:, c]) @ lh
                y -= y.conj().T
                sq += float(np.vdot(y, y).real)
            res.append(math.sqrt(sq) + 4.0 * (n + 2) * _EPS * math.sqrt(size))
        hi[-1] = min(hi[-1], res[0])
        if len(res) == 2:
            hi[-2] = min(hi[-2], math.hypot(*res))
        elif n > 1:
            # Davis-Kahan: sin of the angle between v and the exact null
            # vector is at most delta / gap, and at most res / sigma_{N-1}
            gap = mu[-2] - mu[-1] - delta
            sin = min(delta / gap if gap > 0.0 else math.inf,
                      res[0] / math.sqrt(mu[-2] - delta))
            eta = math.sqrt(2.0) * sin
    return _null_line(lo, hi, floor, tol, _GRAM_MARGIN, v, eta)


def fix_ambiguity(family: MetricFamily, observables, tol: float) -> np.ndarray:
    """Weights making every candidate observable quasi-Hermitian w.r.t.
    Theta(kappa), normalized so kappa_1 = 1.

    The constraints Lambda_j^dag Theta(kappa) = Theta(kappa) Lambda_j form
    a real homogeneous linear system in kappa whose null line gives the
    weights; the rank threshold is ``tol * max(sigma_max, max ||Lambda_j||
    * max_n ||l_n||^2)``.  The outcome is read from the N x N Gram matrix
    of the constraint rows wherever a rounding bound certifies it, and
    from the exact QR kernel otherwise; the README gives the construction,
    the certificate and the cost.  The threshold has no rounding floor, so
    a ``tol`` below a few eps reads the rounding of an exact null line as
    rank: a consistent set then raises InconsistentError.

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
    obs = [as_matrix(o, f"observable[{i}]") for i, o in enumerate(observables)]
    if not obs:
        raise UnderdeterminedError("no observables supplied")
    for i, o in enumerate(obs):
        _shaped(o, (family.dim, family.dim), f"observable[{i}]")
    kappa = _gram_weights(*_scaled_adjoints(obs, family.system.left_vectors), tol)
    if kappa is None:
        s, vt, floor = _constraint_svd(family, obs)
        kappa = _null_line(s, s, floor, tol, 1.0, vt[-1], 0.0)
    return kappa


def kg_hamiltonian(tau: float) -> np.ndarray:
    """Two-level Klein-Gordon Hamiltonian [[0, e^{2 tau}], [1, 0]].

    Non-Hermitian for tau != 0, yet its eigenvalues are +-e^tau, real and
    non-degenerate for every real tau.  Raises NonFiniteError for a tau
    that is not finite or whose e^{2 tau} leaves the float range.
    """
    tau = _real(tau)
    if not np.isfinite(tau):
        raise NonFiniteError("tau must be finite")
    with np.errstate(over="ignore"):
        e2 = np.exp(2.0 * tau)
    if not np.isfinite(e2):
        raise NonFiniteError(f"e^(2 tau) leaves the float range at tau = {tau!r}")
    return np.array([[0.0, e2], [1.0, 0.0]], dtype=complex)


def kg_metric(tau: float, beta: float) -> MetricOperator:
    """Closed-form metric [[e^{-tau}, beta], [beta, e^{tau}]] for the
    two-level Klein-Gordon Hamiltonian.

    The free parameter beta spans the full metric ambiguity of that model;
    positivity (determinant 1 - beta^2) requires |beta| < 1.

    Raises
    ------
    BetaOutOfRangeError
        |beta| >= 1.
    NonFiniteError
        tau or beta is not finite, or e^{|tau|} leaves the float range.
    """
    tau, beta = _real(tau), _real(beta)
    if not (np.isfinite(tau) and np.isfinite(beta)):
        raise NonFiniteError("tau and beta must be finite")
    if abs(beta) >= 1.0:
        raise BetaOutOfRangeError(f"|beta| = {abs(beta)} >= 1 loses positivity")
    with np.errstate(over="ignore"):
        th = np.array([[np.exp(-tau), beta], [beta, np.exp(tau)]], dtype=complex)
    if not np.isfinite(th).all():
        raise NonFiniteError(f"e^|tau| leaves the float range at tau = {tau!r}")
    th.setflags(write=False)
    return MetricOperator(th)


def kg_beta(a: float, b: float, c: float, d: float, tau: float) -> float:
    """Metric parameter selected by the 2x2 observable [[a, b], [c, d]]:
    beta = (c e^tau - b e^{-tau}) / (d - a).

    beta is formed from the exact arguments in ``decimal`` arithmetic, with
    the full exponent range and at least 30 digits of c e^tau - b e^{-tau}
    left where its terms cancel, and rounded to a float once: it is
    correctly rounded wherever it is finite, even where a term or d - a is
    not.  A zero b or c makes its term an exact zero.

    Raises
    ------
    DegenerateObservableError
        d = a; that observable class leaves beta undetermined.
    NonFiniteError
        An argument is not finite, or beta leaves the float range.
    """
    a, b, c, d, tau = map(_real, (a, b, c, d, tau))
    if d == a:
        raise DegenerateObservableError(
            "observables with d = a do not determine the metric parameter"
        )
    _finite((a, b, c, d, tau), "beta")
    import decimal  # here only: the import costs milliseconds of a cold start

    # an explicit context, so that no global or thread-local one is read or changed
    ctx = decimal.Context(prec=40, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX, traps=[])
    xa, xb, xc, xd, xt = (decimal.Decimal(x, ctx) for x in (a, b, c, d, tau))  # exact
    while True:
        e = ctx.exp(xt)
        up, down = ctx.multiply(xc, e) if c else 0, ctx.divide(xb, e) if b else 0
        num = ctx.subtract(up, down)
        # exact cancellation needs a zero term or tau = 0 (e^(2 tau) is irrational)
        if not (b and c and tau) or num and (
                num.adjusted() >= max(up.adjusted(), down.adjusted()) - ctx.prec + 30):
            break
        ctx.prec *= 2
    # rounded once; inf past the float range
    return _finite(float(ctx.to_sci_string(ctx.divide(num, ctx.subtract(xd, xa)))), "beta")
