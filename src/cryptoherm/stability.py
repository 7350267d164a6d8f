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

from .errors import CryptohermError, DefectiveError, InvalidBracketError, NonFiniteError
from .metric import MetricFamily, _projector_sum, assemble_metric, kg_hamiltonian
from .perturbation import PerturbationProblem, metric_series
from .spectra import _check_tol, as_matrix, diagonalize, require_real_nondegenerate
# kept apart: a benchmark test matches the import line above verbatim
from .spectra import (_ERRSTATE, _finite, _lapack, _min_gap, _pencil_eigvals, _real, _reality,
                      _scaled_fro, ep_proximity, spectrum_is_real)

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
    # compared, not subtracted: the difference of two finite ends can overflow
    if not np.all(g[1:] > g[:-1]):
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
        """H at one point.  Each ``lambda_max`` probe forms its H here, on
        a linear pencil: a kg search fixes H(tau) once as H0."""
        if self.kind == "kg":
            h = kg_hamiltonian(tau)
            if self.w0 is not None:
                h = h + lam * self.w0
            return h
        return self.h0 + lam * self.w0

    def _hamiltonians(self, lams: np.ndarray, taus: np.ndarray | None) -> np.ndarray:
        """The stack of ``hamiltonian_at(lams[g], taus[g])``, byte for byte,
        formed by broadcasting.  Where e^{2 tau} or lam * W0 leaves the
        float range the matrix holds inf or NaN entries instead, with no
        warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "linear":
                return self.h0 + lams[:, None, None] * self.w0
            hs = np.zeros((lams.size, 2, 2), dtype=complex)
            hs[:, 0, 1] = np.exp(2.0 * taus)
            hs[:, 1, 0] = 1.0
            if self.w0 is not None:
                hs += lams[:, None, None] * self.w0
        return hs

    def _grid_arrays(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The lambda and the tau (``None`` for a linear family) of every
        grid point, as arrays in grid order: lambda outer, tau inner."""
        if self.kind == "kg":
            return np.repeat(self.lambdas, self.taus.size), np.tile(self.taus, self.lambdas.size)
        return self.lambdas, None


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


# Matrix entries (G * N**2) per stacked diagonalize call of a scan: a
# chunk of G grid points holds a few complex arrays of 256 KiB.
_CHUNK_ENTRIES = 16384


def _scan_chunk(spec: FamilySpec, tol: float, lams: np.ndarray, taus: np.ndarray | None) -> list:
    """The rows of the grid points ``(lams[g], taus[g])``, from one
    broadcast H stack, one stacked diagonalize and one stacked
    assemble_metric call."""
    columns, families, at = [], [], []
    outcomes = list(diagonalize(spec._hamiltonians(lams, taus), tol))
    for k, out in enumerate(outcomes):
        outcomes[k] = None  # a system is dropped once its row and witness are formed
        note = ""
        if isinstance(out, NonFiniteError):
            real, note = False, "NonFinite"
            max_imag = min_gap = eigvec_cond = float("nan")
        elif isinstance(out, DefectiveError):
            # no biorthogonal system: the row reports what diagonalize measured
            note = "Defective"
            real, max_imag = _reality(out.eigenvalues, tol)
            min_gap, eigvec_cond = _min_gap(out.eigenvalues), out.condition_number
        else:
            real, max_imag = spectrum_is_real(out)
            if not real:
                # MetricFamily's first gate: no family is built to be refused
                note = "SpectrumNotReal"
            else:
                try:
                    families.append(MetricFamily(out))
                    at.append(k)
                except CryptohermError as exc:
                    note = type(exc).__name__.removesuffix("Error")
            min_gap, eigvec_cond = ep_proximity(out)
        columns.append([real, max_imag, min_gap, eigvec_cond, note])
    # the all-ones witness of each family, and its smallest eigenvalue;
    # NaN where none was assembled
    theta_min = [float("nan")] * lams.size
    if families:
        witnesses = {}
        for k, metric in zip(at, assemble_metric(families, np.ones(families[0].dim))):
            if isinstance(metric, NonFiniteError):
                columns[k][-1] = "NonFinite"  # the note: Theta leaves the float range
            else:
                witnesses[k] = metric.theta
        if witnesses:
            smallest = _lapack("eigvalsh", np.stack(list(witnesses.values()))).min(axis=1)
            for k, value in zip(witnesses, smallest.tolist()):
                theta_min[k] = value
    return [
        ScanPoint(
            lam=lam,
            tau=tau,
            spectrum_real=real,
            max_imag=max_imag,
            min_gap=min_gap,
            eigvec_cond=eigvec_cond,
            metric_exists=theta > 0.0,
            theta_min_eig=theta,
            note=note,
        )
        for lam, tau, (real, max_imag, min_gap, eigvec_cond, note), theta
        in zip(lams.tolist(), [None] * lams.size if taus is None else taus.tolist(),
               columns, theta_min)
    ]


def reality_scan(spec: FamilySpec, tol: float, workers: int = 1) -> ScanReport:
    """Spectral reality and metric existence across the family grid.

    At each point the spectrum is tested for reality (relative tolerance
    ``tol``) and an all-ones-weight metric witness is attempted; any
    positive weight vector works when the spectrum is real and
    non-degenerate, so a single witness decides existence.  Per-point
    failures are recorded in the row and never abort the scan.

    The grid is decomposed in chunks of at most ``_CHUNK_ENTRIES`` matrix
    entries (G points of N x N), each with one broadcast H stack, one
    stacked :func:`diagonalize` call and one stacked
    :func:`assemble_metric` call for the witnesses, so memory stays
    bounded whatever the grid size; every row is byte for byte what a
    point decomposed alone gives.  A decomposed point whose spectrum is
    not real is noted ``SpectrumNotReal`` straight away; only the others
    build a :class:`MetricFamily`, whose gates keep their order.  Rows
    are returned in grid order, so reports are deterministic.
    ``workers`` is deprecated and ignored; points are evaluated serially.
    """
    tol = _check_tol(tol)
    lams, taus = spec._grid_arrays()
    n = 2 if spec.kind == "kg" else spec.h0.shape[0]
    step = max(1, _CHUNK_ENTRIES // (n * n))
    return ScanReport(tuple(
        row for start in range(0, lams.size, step)
        for row in _scan_chunk(spec, tol, lams[start:start + step],
                               None if taus is None else taus[start:start + step])))


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

    Each probe is one ``hamiltonian_at`` call on one linear pencil H0 +
    lambda W0 (a kg search fixes H(tau) as H0, with its W0 or a zero one)
    and one ``eigvals`` call on H, and evaluates the signed discriminant
    ``-min_gap**2`` where the spectrum is real and ``(2 max|Im E|)**2``
    where it is not, close to linear through a square-root exceptional
    point.  ``spectra._pencil_eigvals`` makes the call, in real
    arithmetic on a real pencil.  A spectrum with every Im E exactly 0 is
    real at any ``tol`` untested; any other passes ``_reality``.
    Brent's zeroin (Brent 1973, ch. 4) runs on it, keeping one real
    and one non-real point.  After k probes past the endpoints a pair wider
    than ``2 (hi - lo) 2**(-k/2)`` takes a bisection step, so a search above
    the float spacing needs at most ``2 ceil(log2((hi - lo) / tol)) + 5``
    probes, one more than twice bisection's count.

    The search enters the LAPACK error state once, around both endpoint
    probes and the whole loop, and each probe makes only the gufunc call.
    A LAPACK failure in any probe still raises ``eigvals``' LinAlgError,
    and the caller's error state is back in force on every exit.

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

    if spec.kind == "kg":
        if spec.taus.size != 1:
            raise ValueError("boundary search on a kg family needs a single tau")
        w0 = np.zeros((2, 2), complex) if spec.w0 is None else spec.w0
        spec = FamilySpec("linear", spec.lambdas, h0=kg_hamiltonian(float(spec.taus[0])), w0=w0)

    eigvals = _pencil_eigvals(spec.h0, spec.w0)

    def probe(h: np.ndarray) -> tuple[bool, float]:
        evals = eigvals(h)
        # a real dtype comes back only when every Im E is exactly 0
        real, max_imag = (True, 0.0) if evals.dtype.kind == "f" else _reality(evals, tol)
        # products, not ** 2: a float power raises OverflowError
        if real:
            gap = _min_gap(evals)
            return real, -(gap * gap)
        return real, (2.0 * max_imag) * (2.0 * max_imag)

    with np.errstate(over="ignore"):
        h_lo, h_hi = spec.hamiltonian_at(lo), spec.hamiltonian_at(hi)
    for x, h in ((lo, h_lo), (hi, h_hi)):
        if not np.isfinite(h).all():
            raise NonFiniteError(f"H leaves the float range at lambda = {x!r}")
    # Inside the error state the probes' own arithmetic (H, _reality,
    # _min_gap) runs on finite numbers: H is affine in lambda and its ends
    # are finite, so nothing there is invalid.
    with np.errstate(**_ERRSTATE):
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
            real_x, fx = probe(spec.hamiltonian_at(x))
            if real_x == real_c:
                # x replaces c's side; the old b becomes the kept point
                c, fc, real_c = b, fb, not real_c
                d = e = x - b
            b, fb = x, fx
            pace *= math.sqrt(0.5)


def exact_matched_metric(problem: PerturbationProblem, lam: float) -> np.ndarray:
    """Exact metric of the perturbed Hamiltonian, gauge-matched to the
    problem's unperturbed metric.

    Sum_n kappa_n L_n L_n^dag over the perturbed left eigenvectors, with
    weights that make its diagonal biorthogonal components in the
    *unperturbed* basis equal Theta's (the diagonal of the problem's
    X^(0) = R^dag Theta R): the zero-diagonal gauge of the Taylor series,
    so the result is the series' exact target.  Nothing keeps those
    weights positive, so away from lam = 0 it can be indefinite, yet it
    solves the quasi-Hermiticity relation for H + lam W_lam.  Raises
    NonFiniteError when it, or H + lam W_lam, lies outside the float range.
    """
    h_lam = problem.hamiltonian_at(lam)
    system = diagonalize(h_lam, problem.tol)
    require_real_nondegenerate(system)
    basis = problem._eigenbasis
    g = system.left_vectors.conj().T @ problem.system.right_vectors  # L_n(lam)^dag R0_m
    # Solved and assembled at X^(0)'s power-of-two scale, which is exact,
    # so only a matrix that is itself past the float range overflows.
    weights = _lapack("solve", (np.abs(g) ** 2).T, basis.x0.diagonal().real)
    with np.errstate(over="ignore", invalid="ignore"):
        t = _projector_sum(system.left_vectors, weights)
        t /= basis.x0_scale
        return _finite(t, "exact matched metric")


def series_vs_exact(problem: PerturbationProblem, order: int, lambdas) -> list[tuple[float, float]]:
    """Error table (lam, ||T_truncated(lam) - T_exact(lam)||_F).

    The exact side is :func:`exact_matched_metric`, which may be
    indefinite.  Every grid value must lie inside the reality domain of
    the perturbed family; per-point failures (defective or complex-spectrum
    points) and series solvability failures propagate, and a lam outside
    the float range raises NonFiniteError.  As lam -> 0 the log-log slope
    of the error column approaches order + 1.
    """
    try:
        lambdas = np.atleast_1d(np.asarray(lambdas, dtype=float))
    except OverflowError:
        raise NonFiniteError("lambdas contain values outside the float range") from None
    series = metric_series(problem, order)
    return [(lam, _scaled_fro(series.truncated(lam) - exact_matched_metric(problem, lam)))
            for lam in map(float, lambdas)]
