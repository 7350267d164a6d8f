"""Seeded inputs for the benchmark workloads, plus the numpy oracle values
each op is checked against.

Only numpy is used here: expected values never flow through the package
under test.  Every input is a function of the workload seed alone, and the
structure of a workload (sizes, grid lengths, op counts) is fixed, so seeds
change matrix entries but not the amount of work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL = 1e-10
KG_COUPLING = np.array([[0.0, -1.0], [0.0, 0.0]])

# scan: (N, families) for the linear families; the kg family is extra.
# Many small families average out seed-to-seed cost differences, and the
# eight N = 8 families put the median lambda_max time inside one size.
SCAN_LINEAR = ((4, 4), (8, 8), (16, 4), (32, 2))
SCAN_LAMBDA_POINTS = 30          # even, so lambda = 1 (the first EP) is off-grid
KG_TAUS, KG_LAMBDAS = 16, 40
# pipeline: problems per pass at each N, chosen so the N <= 16 problems and
# the N >= 32 problems each take a sizeable share of the pass time.
PIPELINE_MIX = ((2, 6), (4, 6), (8, 6), (16, 6), (32, 2), (64, 1))
PIPELINE_ORDERS = (1, 2, 4, 8)
SERIES_LAMBDAS = {1: (0.1, 0.05), 2: (0.2, 0.1), 4: (0.3, 0.15), 8: (0.5, 0.25)}


def is_real(evals, tol: float = TOL) -> bool:
    """The package's reality rule: max |Im E| <= tol * max(1, max |E|)."""
    scale = max(1.0, float(np.abs(evals).max()))
    return bool(np.abs(evals.imag).max() <= tol * scale)


def real_spectrum_matrix(rng, n: int):
    """H0 = S diag(E) S^-1 with evenly spaced, jittered real E and
    S = I + (0.3 / sqrt(N)) G.  Jitter stays below a quarter spacing, so the
    smallest gap is at least half the spacing and no rejection loop is
    needed."""
    spacing = 2.0 / max(n - 1, 1)
    e = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.25, 0.25, n) * spacing
    s = np.eye(n) + 0.3 / np.sqrt(n) * rng.standard_normal((n, n))
    s_inv = np.linalg.inv(s)
    return e, s, s_inv, (s * e) @ s_inv


def _real_at(h0, w0, lam: float) -> bool:
    return is_real(np.linalg.eigvals(h0 + lam * w0))


def first_ep(h0, w0) -> float:
    """First lambda > 0 at which the spectrum of h0 + lambda w0 leaves the
    real axis: a dense sweep finds the first non-real sample, then
    bisection refines between it and the real sample before it.  Plain
    bisection over [0, hi] can land on a later transition, because reality
    is not monotone in lambda."""
    for hi in 4.0 ** np.arange(12):
        grid = np.linspace(0.0, hi, 129)
        flags = [_real_at(h0, w0, x) for x in grid[1:]]
        if not all(flags):
            j = flags.index(False)
            lo, hi = float(grid[j]), float(grid[j + 1])
            break
    else:
        raise RuntimeError("spectrum stays real along the whole sweep")
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        if _real_at(h0, w0, mid):
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class ScanFamily:
    """One scan op.  ``kind`` is "kg" or "linear"; ``real`` is the oracle
    reality flag per grid row (lambda outer, tau inner), ``ep`` the first
    exceptional point per row and ``boundary`` the oracle value
    ``lambda_max`` must reproduce on ``bracket``."""

    kind: str
    n: int
    lambdas: np.ndarray
    taus: np.ndarray | None
    h0: np.ndarray | None
    w0: np.ndarray
    boundary_tau: float | None
    bracket: tuple
    boundary: float
    real: np.ndarray
    ep: np.ndarray


def kg_family(rng) -> ScanFamily:
    """The builtin kg family H(tau) + lambda W0 with W0 = [[0, -1], [0, 0]]:
    H = [[0, e^{2 tau} - lambda], [1, 0]] has its exceptional point at
    lambda = e^{2 tau}, real spectrum below it and imaginary above."""
    t0 = rng.uniform(-0.3, 0.1)
    taus = np.linspace(t0, t0 + 0.4, KG_TAUS)
    lambdas = np.linspace(0.0, 2.0 * np.exp(2.0 * (t0 + 0.2)), KG_LAMBDAS)
    ep_tau = np.exp(2.0 * taus)
    ep = np.tile(ep_tau, lambdas.size)
    lam_rows = np.repeat(lambdas, taus.size)
    real = np.array(
        [is_real(np.linalg.eigvals(np.array([[0.0, b - l], [1.0, 0.0]])))
         for l, b in zip(lam_rows, ep)]
    )
    tau_b = float(taus[taus.size // 2])
    boundary = float(np.exp(2.0 * tau_b))
    return ScanFamily("kg", 2, lambdas, taus, None, KG_COUPLING, tau_b,
                      (0.0, 2.0 * boundary), boundary, real, ep)


def linear_family(rng, n: int) -> ScanFamily:
    """H0 + lambda W0 with a real W0 rescaled so the first
    exceptional point sits at lambda = 1, the middle of the [0, 2] grid.
    The lambda_max bracket ends inside the first non-real run after 1, so
    exactly one reality transition lies inside it."""
    _, _, _, h0 = real_spectrum_matrix(rng, n)
    # A skew-dominated direction has non-real eigenvalues, so the spectrum
    # of h0 + lambda w0 is non-real for large lambda and a first EP exists.
    g = rng.standard_normal((n, n))
    w0 = (g - g.T + 0.5 * rng.standard_normal((n, n))) / np.sqrt(n)
    w0 = w0 * first_ep(h0, w0)
    lambdas = np.linspace(0.0, 2.0, SCAN_LAMBDA_POINTS)
    real = np.array([_real_at(h0, w0, x) for x in lambdas])
    after = np.linspace(1.0, 2.0, 129)[1:]
    hi = after[0]
    for x in after:
        if _real_at(h0, w0, x):
            break
        hi = x
    if _real_at(h0, w0, hi) or not all(_real_at(h0, w0, x) for x in np.linspace(0.0, 1.0, 129)[:-1]):
        raise RuntimeError(f"N={n}: rescaled family has no clean transition at lambda = 1")
    return ScanFamily("linear", n, lambdas, None, h0, w0, None, (0.0, float(hi)), 1.0,
                      real, np.ones(lambdas.size))


def scan_inputs(rng) -> list[ScanFamily]:
    fams = [kg_family(rng)]
    for n, count in SCAN_LINEAR:
        fams.extend(linear_family(rng, n) for _ in range(count))
    return fams


@dataclass(frozen=True)
class PipelineProblem:
    """One pipeline op: H0 = S diag(E) S^-1, a compatible metric of known
    weights, one observable pulled back through that metric's Dyson map
    (so the weights fix_ambiguity must recover are known), and a
    perturbation W0 = S M S^-1 with real zero-diagonal M, which keeps every
    order of the metric series solvable."""

    n: int
    h0: np.ndarray
    energies: np.ndarray
    theta: np.ndarray
    observable: np.ndarray
    kappa: np.ndarray
    w0: np.ndarray
    order: int
    lambdas: tuple


def pipeline_problem(rng, n: int, order: int) -> PipelineProblem:
    e, s, s_inv, h0 = real_spectrum_matrix(rng, n)
    weights = rng.uniform(0.5, 2.0, n)
    theta = s_inv.T @ (weights[:, None] * s_inv)
    w, u = np.linalg.eigh(theta)
    omega, omega_inv = (u * np.sqrt(w)) @ u.T, (u / np.sqrt(w)) @ u.T
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    observable = omega_inv @ (0.5 * (g + g.conj().T)) @ omega
    # The package normalizes right eigenvectors (the columns of S) to unit
    # length, so its weights are the S-basis weights over |S_n|^2.
    kappa = weights / np.sum(s * s, axis=0)
    m = rng.standard_normal((n, n))
    np.fill_diagonal(m, 0.0)
    m *= 0.2 * (2.0 / max(n - 1, 1)) / max(np.linalg.norm(m, 2), 1e-300)
    return PipelineProblem(n, h0, e, theta, observable, kappa / kappa[0], s @ m @ s_inv,
                           order, SERIES_LAMBDAS[order])


def pipeline_inputs(rng) -> list[PipelineProblem]:
    probs = []
    i = 0
    for n, count in PIPELINE_MIX:
        for _ in range(count):
            probs.append(pipeline_problem(rng, n, PIPELINE_ORDERS[i % len(PIPELINE_ORDERS)]))
            i += 1
    return probs


def matrix_doc(m) -> dict:
    """A matrix in the package's documented file format:
    ``{"dim": N, "data": [[[re, im], ...], ...]}``."""
    m = np.asarray(m, dtype=complex)
    return {"dim": int(m.shape[0]),
            "data": [[[float(z.real), float(z.imag)] for z in row] for row in m]}


def doc_matrix(doc) -> np.ndarray:
    """Decode a matrix document without going through the package."""
    return np.array([[complex(re, im) for re, im in row] for row in doc["data"]])
