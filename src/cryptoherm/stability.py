"""Stability maps for parametrized Hamiltonian families.

Spectral-reality scans over parameter grids, a Brent-method search for
the exceptional-point boundary where reality breaks down (the
convergence radius of the perturbation series), and validation of
truncated metric series against exactly constructed metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CryptohermError, DefectiveError, InvalidBracketError, NonFiniteError,
                     SeriesOverflowError)
from .metric import MetricFamily, assemble_metric, kg_hamiltonian
from .perturbation import PerturbationProblem, metric_series
from .spectra import _check_tol, as_matrix, diagonalize, require_real_nondegenerate
# kept apart: a benchmark test matches the import line above verbatim
from .spectra import (_min_gap, _pow2_scale, _real, _real_if_exact, _reality, ep_proximity,
                      spectrum_is_real)

__all__ = [
    "FamilySpec",
    "ScanPoint",
    "ScanReport",
    "exact_matched_metric",
    "lambda_max",
    "reality_scan",
    "series_vs_exact",
]


def _validate_grid(values, name: str) -> np.ndarray:
    try:
        g = np.atleast_1d(np.asarray(values, dtype=float))
    except OverflowError:
        raise ValueError(f"{name} grid contains values outside the float range") from None
    if g.ndim != 1 or g.size == 0:
        raise ValueError(f"{name} grid must be a nonempty 1-d sequence")
    if not np.isfinite(g).all():
        raise ValueError(f"{name} grid contains non-finite values")
    if g.size > 1 and not np.all(np.diff(g) > 0.0):
        raise ValueError(f"{name} grid must be strictly increasing")
    g.setflags(write=False)
    return g


@dataclass(frozen=True)
class FamilySpec:
    """A parametrized Hamiltonian family to scan.

    Two kinds are supported: the builtin two-level Klein-Gordon family
    (H(tau) plus an optional linear coupling lam * W0) and a linear family
    H0 + lam * W0 built from user matrices.  Grids must be nonempty,
    finite and strictly increasing.
    """

    kind: str
    lambdas: np.ndarray
    taus: np.ndarray | None = None
    h0: np.ndarray | None = None
    w0: np.ndarray | None = None

    @classmethod
    def kg(cls, taus, lambdas=(0.0,), w0=None) -> "FamilySpec":
        """Klein-Gordon family over a tau grid, optionally perturbed by
        lam * w0."""
        w = None if w0 is None else as_matrix(w0, "W0")
        if w is not None and w.shape != (2, 2):
            raise ValueError("Klein-Gordon coupling W0 must be 2x2")
        return cls(
            kind="kg",
            lambdas=_validate_grid(lambdas, "lambda"),
            taus=_validate_grid(taus, "tau"),
            w0=w,
        )

    @classmethod
    def linear(cls, h0, w0, lambdas) -> "FamilySpec":
        """Linear family H0 + lam * W0."""
        h = as_matrix(h0, "H0")
        w = as_matrix(w0, "W0")
        if w.shape != h.shape:
            raise ValueError(f"W0 has shape {w.shape}, expected {h.shape}")
        return cls(
            kind="linear",
            lambdas=_validate_grid(lambdas, "lambda"),
            h0=h,
            w0=w,
        )

    def hamiltonian_at(self, lam: float, tau: float | None = None) -> np.ndarray:
        if self.kind == "kg":
            h = kg_hamiltonian(float(tau))
            if self.w0 is not None:
                h = h + lam * self.w0
            return h
        return self.h0 + lam * self.w0

    def grid(self) -> list[tuple[float, float | None]]:
        """Grid points in deterministic order: lambda outer, tau inner."""
        if self.kind == "kg":
            return [(float(l), float(t)) for l in self.lambdas for t in self.taus]
        return [(float(l), None) for l in self.lambdas]


@dataclass(frozen=True)
class ScanPoint:
    """Stability record at one grid point.

    ``note`` carries the name of the per-point failure ("Defective",
    "SpectrumNotReal", ...) and is empty on success;
    ``theta_min_eig`` is NaN when no metric witness could be assembled.
    A "NonFinite" point, whose H or spectrum leaves the float range, has
    ``spectrum_real`` and ``metric_exists`` false and NaN in every number.
    """

    lam: float
    tau: float | None
    spectrum_real: bool
    max_imag: float
    min_gap: float
    eigvec_cond: float
    metric_exists: bool
    theta_min_eig: float
    note: str = ""


@dataclass(frozen=True)
class ScanReport:
    """Ordered per-grid-point stability records."""

    points: tuple

    def __len__(self) -> int:
        return len(self.points)


def _scan_point(spec: FamilySpec, tol: float, point) -> ScanPoint:
    lam, tau = point
    metric_exists = False
    theta_min = float("nan")
    note = ""
    try:
        # an H past the float range raises NonFiniteError, here or in diagonalize
        with np.errstate(over="ignore"):
            h = spec.hamiltonian_at(lam, tau)
        system = diagonalize(h, tol)
    except NonFiniteError:
        real, note = False, "NonFinite"
        max_imag = min_gap = eigvec_cond = float("nan")
    except DefectiveError as exc:
        # no biorthogonal system: the row reports what diagonalize measured
        note = "Defective"
        real, max_imag = _reality(exc.eigenvalues, tol)
        min_gap, eigvec_cond = _min_gap(exc.eigenvalues), exc.condition_number
    else:
        try:
            family = MetricFamily(system)
            witness = assemble_metric(family, np.ones(system.dim))
            theta_min = float(np.linalg.eigvalsh(witness.theta).min())
            metric_exists = theta_min > 0.0
        except CryptohermError as exc:
            note = type(exc).__name__.removesuffix("Error")
        real, max_imag = spectrum_is_real(system)
        min_gap, eigvec_cond = ep_proximity(system)

    return ScanPoint(
        lam=float(lam),
        tau=None if tau is None else float(tau),
        spectrum_real=real,
        max_imag=max_imag,
        min_gap=min_gap,
        eigvec_cond=eigvec_cond,
        metric_exists=metric_exists,
        theta_min_eig=theta_min,
        note=note,
    )


def reality_scan(spec: FamilySpec, tol: float, workers: int = 1) -> ScanReport:
    """Spectral reality and metric existence across the family grid.

    At each point the spectrum is tested for reality (relative tolerance
    ``tol``) and an all-ones-weight metric witness is attempted; any
    positive weight vector works when the spectrum is real and
    non-degenerate, so a single witness decides existence.  Per-point
    failures are recorded in the row and never abort the scan.

    Rows are returned in grid order, so reports are deterministic.
    ``workers`` is deprecated and ignored; points are evaluated serially.
    """
    tol = _check_tol(tol)
    return ScanReport(tuple(_scan_point(spec, tol, p) for p in spec.grid()))


def lambda_max(spec: FamilySpec, bracket, tol: float) -> float:
    """Brent-method estimate of the spectral-reality breakdown parameter.

    The reality of the spectrum flips at an exceptional point, and the
    distance from lambda = 0 to the nearest such point is the convergence
    radius of the perturbation series; this routine locates it along the
    real axis.  The bracket endpoints must straddle the transition: real
    spectrum at the lower end, non-real at the upper; a boundary at
    lambda < 0 is minus the one found with W0 negated.  With several
    transitions in the bracket, any one may be returned.  ``tol`` bounds the
    final bracket width (never below the float spacing at the boundary)
    and doubles as the relative reality threshold at probe points; the
    result is the midpoint of the final real/non-real pair.

    Each probe diagonalizes H once and evaluates the signed discriminant
    ``-min_gap**2`` where the spectrum is real and ``(2 max|Im E|)**2``
    where it is not, close to linear through a square-root exceptional
    point; Brent's zeroin (Brent 1973, ch. 4) runs on it, keeping one real
    and one non-real point.  After k probes past the endpoints a pair wider
    than ``2 (hi - lo) 2**(-k/2)`` takes a bisection step, so a search above
    the float spacing needs at most ``2 ceil(log2((hi - lo) / tol)) + 5``
    probes, one more than twice bisection's count.

    Raises
    ------
    InvalidBracketError
        The endpoints do not straddle a reality transition.
    NonFiniteError
        H at an endpoint leaves the float range.  H is affine in lambda,
        so no probe between the endpoints can.
    """
    lo, hi = _real(bracket[0]), _real(bracket[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"bracket must be finite with lo < hi, got {(lo, hi)}")
    tol = _check_tol(tol)

    tau = None
    if spec.kind == "kg":
        if spec.taus.size != 1:
            raise ValueError("boundary search on a kg family needs a single tau")
        tau = float(spec.taus[0])

    def probe(h: np.ndarray) -> tuple[bool, float]:
        evals = np.linalg.eigvals(_real_if_exact(h))
        real, max_imag = _reality(evals, tol)
        # products, not ** 2: a float power raises OverflowError
        if real:
            gap = _min_gap(evals)
            return real, -(gap * gap)
        return real, (2.0 * max_imag) * (2.0 * max_imag)

    with np.errstate(over="ignore"):
        h_lo, h_hi = spec.hamiltonian_at(lo, tau), spec.hamiltonian_at(hi, tau)
    for x, h in ((lo, h_lo), (hi, h_hi)):
        if not np.isfinite(h).all():
            raise NonFiniteError(f"H leaves the float range at lambda = {x!r}")
    real_lo, f_lo = probe(h_lo)
    real_hi, f_hi = probe(h_hi)
    if not real_lo or real_hi:
        raise InvalidBracketError(
            "bracket endpoints do not straddle a reality transition",
            lo=lo, hi=hi, real_at_lo=real_lo, real_at_hi=real_hi,
        )

    # b is the best point so far, c the kept point of the other reality
    # class (so b and c always straddle the transition), a the previous b.
    b, fb = hi, f_hi
    a = c = lo
    fa = fc = f_lo
    real_c = True
    d = e = b - a
    pace = 2.0 * (hi - lo)  # widest allowed |c - b|; shrinks by sqrt(2) per probe
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
            real_c = not real_c
        width = abs(c - b)
        mid = 0.5 * b + 0.5 * c  # halves first, so ends near the float limit cannot overflow
        if width <= tol or mid in (b, c):
            return mid  # within tol, or the pair is down to adjacent floats
        xm = mid - b
        step = max(0.5 * tol, math.ulp(b))
        if (width <= pace and abs(e) >= step and abs(fb) < abs(fa) and fc != 0.0
                and math.isfinite(fa) and math.isfinite(fc)):
            # secant when a == c, inverse quadratic interpolation otherwise
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if p == 0.0:
                e, d = d, 0.0  # b is an exact zero: the minimum step toward c
            elif 2.0 * p < min(3.0 * xm * q - abs(step * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        x = b + d if abs(d) > step else b + math.copysign(step, xm)
        if not min(b, c) < x < max(b, c):
            x = mid  # the float spacing, or a non-finite step, reached c
        real_x, fx = probe(spec.hamiltonian_at(x, tau))
        if real_x == real_c:
            # x replaces c's side; the old b becomes the kept point
            c, fc, real_c = b, fb, not real_c
            d = e = x - b
        b, fb = x, fx
        pace *= math.sqrt(0.5)


def exact_matched_metric(problem: PerturbationProblem, lam: float) -> np.ndarray:
    """Exact metric of the perturbed Hamiltonian, gauge-matched to the
    problem's unperturbed metric.

    The perturbed family of metrics is assembled from the perturbed
    eigenbasis; its weights are chosen so the diagonal biorthogonal
    components in the *unperturbed* basis equal Theta's (the diagonal of
    the problem's X^(0) = R^dag Theta R).  That is exactly
    the gauge the Taylor series uses (zero diagonal for every correction),
    so the result is directly comparable to the truncated series.  Raises
    SeriesOverflowError (``order`` None) when that metric, and
    NonFiniteError when H + lam W_lam, lies outside the float range.
    """
    h_lam = problem.hamiltonian_at(lam)
    system = diagonalize(h_lam, problem.tol)
    require_real_nondegenerate(system)
    r0 = problem.system.right_vectors
    basis = problem._eigenbasis
    g = system.left_vectors.conj().T @ r0          # g[n, m] = L_n(lam)^dag R0_m
    # Solved and assembled at X^(0)'s power-of-two scale, which is exact,
    # so only a metric that is itself past the float range overflows.
    weights = np.linalg.solve((np.abs(g) ** 2).T, np.diag(basis.x0).real)
    l = system.left_vectors
    t = (l * weights) @ l.conj().T
    t = 0.5 * (t + t.conj().T)
    if not math.isfinite(float(np.abs(t).max()) / basis.x0_scale):
        raise SeriesOverflowError(None)
    return t / basis.x0_scale


def series_vs_exact(problem: PerturbationProblem, order: int, lambdas) -> list[tuple[float, float]]:
    """Error table (lam, ||T_truncated(lam) - T_exact(lam)||_F).

    Every grid value must lie inside the reality domain of the perturbed
    family; per-point failures (defective or complex-spectrum points) and
    series solvability failures propagate, and a lam outside the float
    range raises NonFiniteError.  As lam -> 0 the log-log slope
    of the error column approaches order + 1.
    """
    try:
        lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    except OverflowError:
        raise NonFiniteError("lambdas contain values outside the float range") from None
    series = metric_series(problem, order)
    rows = []
    for lam in lambdas:
        diff = series.truncated(float(lam)) - exact_matched_metric(problem, float(lam))
        scale = _pow2_scale(diff)
        err = float(np.linalg.norm(diff * scale)) / scale
        rows.append((float(lam), err))
    return rows
