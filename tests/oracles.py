"""Independent brute-force oracles used across the test suite.

Everything here is raw numpy so that expected values never flow
through the code paths under test.
"""

import numpy as np


def sorted_eig(h):
    """Eigendecomposition sorted by (Re, Im), right vectors unit-norm."""
    evals, vr = np.linalg.eig(h)
    order = np.lexsort((evals.imag, evals.real))
    evals = evals[order]
    vr = vr[:, order]
    return evals, vr / np.linalg.norm(vr, axis=0)


def masked_min_gap(evals):
    """Smallest pairwise eigenvalue separation, read from the off-diagonal
    of the halved difference matrix through a boolean mask; ``inf`` below
    two values."""
    if evals.size < 2:
        return float("inf")
    half = 0.5 * evals
    diff = np.abs(half[:, None] - half[None, :])
    return 2.0 * float(diff[~np.eye(evals.size, dtype=bool)].min())


def biorthogonal(h):
    """(eigenvalues, R, L) with L^dag R = I, built by inverting R."""
    evals, vr = sorted_eig(h)
    vl = np.linalg.inv(vr).conj().T
    return evals, vr, vl


def first_order_shifts(h, w):
    """dE_n/dlam of H + lam W by the biorthogonal formula
    L_n^dag W R_n / L_n^dag R_n."""
    _, vr, vl = biorthogonal(h)
    num = np.einsum("in,ij,jn->n", vl.conj(), w, vr)
    den = np.einsum("in,in->n", vl.conj(), vr)
    return num / den


def matched_exact_metric(h_lam, theta0, r0):
    """Exact metric of ``h_lam`` whose diagonal components in the ``r0``
    basis match those of ``theta0`` (the series gauge)."""
    evals, _, vl = biorthogonal(h_lam)
    assert float(np.abs(evals.imag).max()) < 1e-9, "oracle needs a real spectrum"
    target = np.diag(r0.conj().T @ theta0 @ r0).real
    g = vl.conj().T @ r0
    weights = np.linalg.solve((np.abs(g) ** 2).T, target)
    t = (vl * weights) @ vl.conj().T
    return 0.5 * (t + t.conj().T)


def hermitian_root(m):
    """Principal square root of a Hermitian positive-definite matrix."""
    w, u = np.linalg.eigh(0.5 * (m + m.conj().T))
    assert w.min() > 0.0
    return (u * np.sqrt(w)) @ u.conj().T


def exact_dyson_correction(t_exact, theta, lam):
    """Exact Delta_lam with Theta*Delta Hermitian from the factorization
    T = (1 + lam Delta)^dag Theta (1 + lam Delta).

    Writing G = Theta (1 + lam Delta), the gauge makes G Hermitian and
    T = G Theta^{-1} G, so G is recovered through principal roots.
    """
    root = hermitian_root(theta)
    w, u = np.linalg.eigh(0.5 * (theta + theta.conj().T))
    inv_root = (u / np.sqrt(w)) @ u.conj().T
    inner = hermitian_root(inv_root @ t_exact @ inv_root)
    g = root @ inner @ root
    return (np.linalg.solve(theta, g) - np.eye(theta.shape[0])) / lam


# Rejection draws per quantity: at n = 8, the hardest size the tests draw
# with the defaults, about 0.3% of eigenvalue draws and 13% of bases pass.
MAX_DRAWS = 10_000


def random_real_spectrum_matrix(rng, n, gap=0.3, cond_max=8.0):
    """(H, E, S): H = S diag(E) S^{-1} with real well-separated eigenvalues
    and a modestly conditioned eigenvector matrix.

    E and S are each drawn by rejection, at most MAX_DRAWS times; a
    ValueError names n, gap and cond_max when that is not enough (from
    n = 15 on, for one, eigenvalues 0.3 apart do not fit in [-2, 2]).
    """
    for _ in range(MAX_DRAWS):
        e = np.sort(rng.uniform(-2.0, 2.0, n))
        if n == 1 or float(np.min(np.diff(e))) >= gap:
            break
    else:
        raise ValueError(f"n={n}: no eigenvalues in [-2, 2] gap={gap} apart "
                         f"in {MAX_DRAWS} draws (cond_max={cond_max})")
    for _ in range(MAX_DRAWS):
        s = np.eye(n) + 0.35 * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        if np.linalg.cond(s) <= cond_max:
            break
    else:
        raise ValueError(f"n={n}: no basis with condition <= cond_max={cond_max} "
                         f"in {MAX_DRAWS} draws (gap={gap})")
    h = s @ np.diag(e) @ np.linalg.inv(s)
    return h, e, s


def metric_from_seed(rng, s, lo=0.5, hi=2.0):
    """A metric compatible with H = S diag(E) S^{-1}: Theta = S^{-dag} K S^{-1}
    for a random positive diagonal K."""
    n = s.shape[0]
    k = rng.uniform(lo, hi, n)
    s_inv = np.linalg.inv(s)
    th = s_inv.conj().T @ np.diag(k) @ s_inv
    return 0.5 * (th + th.conj().T)


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def dense_ambiguity_svd(projs, observables):
    """(s, Vt, floor) of the dense weight-constraint system: all 2 N^2 real
    and imaginary parts of O^dag P_n - P_n O, one column per projector
    P_n, stacked over the observables.  ``floor`` is
    max ||O|| * max ||P_n||."""
    n = projs.shape[0]
    proj_norm = max(np.linalg.norm(p) for p in projs)
    blocks, floor = [], 0.0
    for o in observables:
        o = np.asarray(o, dtype=complex)
        cons = np.stack([o.conj().T @ p - p @ o for p in projs]).reshape(n, -1).T
        blocks += [cons.real, cons.imag]
        floor = max(floor, np.linalg.norm(o) * proj_norm)
    _, s, vt = np.linalg.svd(np.vstack(blocks), full_matrices=False)
    return s, vt, floor


def dense_fix_ambiguity(projs, observables, tol):
    """(outcome, kappa) of the dense construction under the documented
    rule: rank threshold tol * max(s_0, floor), the null vector signed so
    its largest entry is positive, and a positivity margin of tol.
    ``outcome`` is "ok" or the name of the error class."""
    s, vt, floor = dense_ambiguity_svd(projs, observables)
    null_dim = s.size - int(np.sum(s > tol * max(s[0], floor)))
    if null_dim == 0:
        return "InconsistentError", None
    if null_dim > 1:
        return "UnderdeterminedError", None
    v = vt[-1]
    if v[np.argmax(np.abs(v))] < 0.0:
        v = -v
    if v.min() <= tol * np.abs(v).max():
        return "NoPositiveSolutionError", None
    return "ok", v / v[0]


def reference_metric_series(h, theta, ws, order, tol):
    """(outcome, [T^(0), ..., T^(order)]) by the working-basis route: per
    order the right side sum_i T^(k-1-i) W^(i) - W^(i)^dag T^(k-1-i), its
    transform R^dag rhs R, the kernel gate ||diag|| > tol * max(1, ||.||),
    the division by the gaps, L y L^dag and Hermitian symmetrization.
    ``outcome`` is "", "SolvabilityViolated at k" (coefficients None) or
    "DegenerateSpectrum" under the gap gate tol * max(1, max |E|)."""
    evals, r, l = biorthogonal(h)
    e = evals.real
    n = e.size
    off = ~np.eye(n, dtype=bool)
    gaps = np.where(off, e[:, None] - e[None, :], 1.0)
    if n > 1 and np.abs(gaps[off]).min() <= tol * max(1.0, np.abs(evals).max()):
        return "DegenerateSpectrum", None
    ts = [np.asarray(theta, dtype=complex)]
    for k in range(1, order + 1):
        rhs = np.zeros((n, n), dtype=complex)
        for i, w in enumerate(ws[:k]):
            t = ts[k - 1 - i]
            rhs += t @ w - w.conj().T @ t
        ct = r.conj().T @ rhs @ r
        if np.linalg.norm(np.diag(ct)) > tol * max(1.0, np.linalg.norm(ct)):
            return f"SolvabilityViolated at {k}", None
        x = l @ np.where(off, ct / gaps, 0.0) @ l.conj().T
        ts.append(0.5 * (x + x.conj().T))
    return "", ts
