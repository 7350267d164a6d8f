"""Independent brute-force oracles used across the test suite.

Everything here is raw numpy so that expected values never flow
through the code paths under test.
"""

import math

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


def array_min_gap(evals):
    """Smallest pairwise separation of one spectrum in numpy arrays:
    halved, then sorted neighbours subtracted for a real dtype and every
    pair for a complex one, as ``spectra._min_gap`` formed it before its
    Python-float path; ``inf`` below two values.  An ``inf - inf`` sets
    numpy's invalid flag."""
    if evals.size < 2:
        return float("inf")
    half = 0.5 * evals
    if half.dtype.kind == "f":
        half.sort()
        gap = np.minimum.reduce(half[1:] - half[:-1])
    else:
        diff = np.abs(half[:, None] - half[None, :])
        np.fill_diagonal(diff, np.inf)
        gap = np.minimum.reduce(diff, axis=None)
    return 2.0 * abs(float(gap))


def reference_lambda_max(spec, bracket, tol):
    """``stability.lambda_max`` with the probe it had before its gufunc
    binding: ``_real_if_exact`` on every H, ``_lapack_dispatch("eigvals")``,
    ``_reality`` on every spectrum and :func:`array_min_gap`, around the
    same Brent loop in one LAPACK error state.  Each probe forms H
    with one ``FamilySpec.hamiltonian_at`` call, as the search does."""
    from cryptoherm.errors import InvalidBracketError, NonFiniteError
    from cryptoherm.metric import kg_hamiltonian
    from cryptoherm.spectra import (_ERRSTATE, _check_tol, _lapack_dispatch, _real,
                                    _real_if_exact, _reality)
    from cryptoherm.stability import FamilySpec

    lo, hi = _real(bracket[0]), _real(bracket[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"bracket must be finite with lo < hi, got {(lo, hi)}")
    tol = _check_tol(tol)
    if spec.kind == "kg":
        if spec.taus.size != 1:
            raise ValueError("boundary search on a kg family needs a single tau")
        w0 = np.zeros((2, 2), complex) if spec.w0 is None else spec.w0
        spec = FamilySpec("linear", spec.lambdas, h0=kg_hamiltonian(float(spec.taus[0])), w0=w0)

    def probe(h):
        evals = _lapack_dispatch("eigvals", _real_if_exact(h))
        real, max_imag = _reality(evals, tol)
        if real:
            gap = array_min_gap(evals)
            return real, -(gap * gap)
        return real, (2.0 * max_imag) * (2.0 * max_imag)

    with np.errstate(over="ignore"):
        h_lo, h_hi = spec.hamiltonian_at(lo), spec.hamiltonian_at(hi)
    for x, h in ((lo, h_lo), (hi, h_hi)):
        if not np.isfinite(h).all():
            raise NonFiniteError(f"H leaves the float range at lambda = {x!r}")
    with np.errstate(**_ERRSTATE):
        real_lo, f_lo = probe(h_lo)
        real_hi, f_hi = probe(h_hi)
        if not real_lo or real_hi:
            raise InvalidBracketError(
                "bracket endpoints do not straddle a reality transition",
                lo=lo, hi=hi, real_at_lo=real_lo, real_at_hi=real_hi,
            )
        b, fb = hi, f_hi
        a = c = lo
        fa = fc = f_lo
        real_c = True
        d = e = b - a
        pace = 2.0 * (hi - lo)
        while True:
            if abs(fc) < abs(fb):
                a, b, c = b, c, b
                fa, fb, fc = fb, fc, fb
                real_c = not real_c
            width = abs(c - b)
            mid = 0.5 * b + 0.5 * c
            if width <= tol or mid in (b, c):
                return mid
            xm = mid - b
            step = max(0.5 * tol, math.ulp(b))
            if (width <= pace and abs(e) >= step and abs(fb) < abs(fa) and fc != 0.0
                    and math.isfinite(fa) and math.isfinite(fc)):
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
                    e, d = d, 0.0
                elif 2.0 * p < min(3.0 * xm * q - abs(step * q), abs(e * q)):
                    e, d = d, p / q
                else:
                    d = e = xm
            else:
                d = e = xm
            a, fa = b, fb
            x = b + d if abs(d) > step else b + math.copysign(step, xm)
            if not min(b, c) < x < max(b, c):
                x = mid
            real_x, fx = probe(spec.hamiltonian_at(x))
            if real_x == real_c:
                c, fc, real_c = b, fb, not real_c
                d = e = x - b
            b, fb = x, fx
            pace *= math.sqrt(0.5)
