import numpy as np
import pytest

from cryptoherm import (
    FamilySpec,
    InvalidBracketError,
    PerturbationProblem,
    kg_hamiltonian,
    kg_metric,
    lambda_max,
    reality_scan,
    series_vs_exact,
)

TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
NILPOTENT_COUPLING = np.array([[0.0, -1.0], [0.0, 0.0]], dtype=complex)


def sqrt_family(lambdas):
    """H(lam) = [[0, 1 - lam], [1, 0]]: eigenvalues +-sqrt(1 - lam), EP at 1."""
    return FamilySpec.linear(SIGMA_X, NILPOTENT_COUPLING, lambdas)


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec.linear(SIGMA_X, NILPOTENT_COUPLING, [])
    with pytest.raises(ValueError):
        FamilySpec.linear(SIGMA_X, NILPOTENT_COUPLING, [0.0, 0.0])
    with pytest.raises(ValueError):
        FamilySpec.linear(SIGMA_X, NILPOTENT_COUPLING, [1.0, np.inf])
    with pytest.raises(ValueError):
        FamilySpec.kg([0.5], lambdas=[2.0, 1.0])


def test_scan_kg_real_everywhere():
    spec = FamilySpec.kg(np.linspace(-2.0, 2.0, 21))
    report = reality_scan(spec, TOL)
    assert len(report) == 21
    for p in report.points:
        assert p.spectrum_real
        assert p.metric_exists
        assert p.theta_min_eig > 0.0
        assert p.note == ""


def test_scan_reality_flip_and_defective_point():
    report = reality_scan(sqrt_family(np.linspace(0.0, 2.0, 41)), TOL)
    for p in report.points:
        if p.lam < 1.0:
            assert p.spectrum_real and p.metric_exists
        elif p.lam > 1.0:
            assert not p.spectrum_real and not p.metric_exists
            assert p.note == "SpectrumNotReal"
        else:
            # exact eigenvalue collision: gap 0, defective eigenbasis noted
            assert p.min_gap <= 1e-7
            assert not p.metric_exists
            assert p.note in ("Defective", "DegenerateSpectrum")
            assert np.isnan(p.theta_min_eig)


def test_scan_metric_existence_coherence():
    rng = np.random.default_rng(71)
    for _ in range(20):
        h0 = rng.standard_normal((3, 3))
        w0 = rng.standard_normal((3, 3))
        report = reality_scan(FamilySpec.linear(h0, w0, np.linspace(0.0, 1.5, 4)), TOL)
        for p in report.points:
            if p.metric_exists:
                assert p.spectrum_real
            if p.spectrum_real and p.min_gap > 1e-3:
                assert p.metric_exists


def points_match(a, b):
    """Field-by-field equality with NaN == NaN for theta_min_eig."""
    for x, y in zip(a.points, b.points):
        for field in ("lam", "tau", "spectrum_real", "max_imag", "min_gap",
                      "eigvec_cond", "metric_exists", "note"):
            if getattr(x, field) != getattr(y, field):
                return False
        if not (x.theta_min_eig == y.theta_min_eig
                or (np.isnan(x.theta_min_eig) and np.isnan(y.theta_min_eig))):
            return False
    return len(a.points) == len(b.points)


def test_scan_determinism_and_workers():
    spec = sqrt_family(np.linspace(0.0, 2.0, 11))
    a = reality_scan(spec, TOL)
    b = reality_scan(spec, TOL)
    c = reality_scan(spec, TOL, workers=3)
    assert points_match(a, b)
    assert points_match(a, c)


def test_lambda_max_closed_form_ep():
    spec = sqrt_family([0.0, 2.0])
    tol = 1e-8
    boundary = lambda_max(spec, (0.0, 2.0), tol)
    assert abs(boundary - 1.0) <= tol

    def is_real(x):
        e = np.linalg.eigvals(spec.hamiltonian_at(x))
        return np.abs(e.imag).max() <= tol * max(1.0, np.abs(e).max())

    # the reality predicate flips across the returned value
    assert is_real(boundary - tol)
    assert not is_real(boundary + tol)


def test_lambda_max_invalid_bracket_for_hermitian_family():
    rng = np.random.default_rng(73)
    h = rng.standard_normal((3, 3))
    h = h + h.T
    w = rng.standard_normal((3, 3))
    w = w + w.T
    with pytest.raises(InvalidBracketError):
        lambda_max(FamilySpec.linear(h, w, [0.0, 10.0]), (0.0, 10.0), 1e-8)


def test_lambda_max_antihermitian_coupling():
    h = np.diag([-1.0, 1.0]).astype(complex)
    w = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    # eigenvalues +-sqrt(1 - lam^2): EP at lam = 1
    boundary = lambda_max(FamilySpec.linear(h, w, [0.0, 2.0]), (0.0, 2.0), 1e-8)
    assert abs(boundary - 1.0) <= 1e-8


def test_lambda_max_negative_direction():
    # symmetric family: reality also breaks at lam = -1
    h = np.diag([-1.0, 1.0]).astype(complex)
    w = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    boundary = lambda_max(FamilySpec.linear(h, w, [0.0, 2.0]), (0.0, 2.0), 1e-8, direction=-1)
    assert abs(boundary - 1.0) <= 1e-8


def test_series_vs_exact_zero_error_at_origin():
    prob = PerturbationProblem.build(kg_hamiltonian(0.2), kg_metric(0.2, 0.25), [SIGMA_X], TOL)
    table = series_vs_exact(prob, 1, [0.0, 1e-2])
    assert table[0][0] == 0.0
    assert table[0][1] <= 1e-14
    assert table[1][1] > table[0][1]


@pytest.mark.parametrize("order", [1, 2])
def test_series_vs_exact_slope(order):
    prob = PerturbationProblem.build(kg_hamiltonian(0.2), kg_metric(0.2, 0.25), [SIGMA_X], TOL)
    table = series_vs_exact(prob, order, [1e-3, 1e-2, 1e-1])
    logs = np.log10([row[1] for row in table])
    lams = np.log10([row[0] for row in table])
    slope = np.polyfit(lams, logs, 1)[0]
    assert abs(slope - (order + 1)) <= 0.3


def per_point_spectrum(h, tol):
    """The scan's spectral columns from scratch: eig, then the SVD of the
    column-normalized, unsorted eigenvectors."""
    evals, vr = np.linalg.eig(h)
    max_imag = float(np.abs(evals.imag).max())
    real = bool(max_imag <= tol * max(1.0, float(np.abs(evals).max())))
    if evals.size < 2:
        min_gap = float("inf")
    else:
        diff = np.abs(evals[:, None] - evals[None, :])
        min_gap = float(np.min(diff[~np.eye(evals.size, dtype=bool)]))
    sv = np.linalg.svd(vr / np.linalg.norm(vr, axis=0), compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else float("inf")
    return real, max_imag, min_gap, cond


def linear_ep_family(lambdas):
    """N = 4, S (diag(-1, 1, 2, 3) + lam B) S^-1 with B coupling the first two
    levels anti-symmetrically: eigenvalues +-sqrt(1 - lam^2), 2, 3; EP at 1."""
    rng = np.random.default_rng(4)
    s = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    s_inv = np.linalg.inv(s)
    b = np.zeros((4, 4))
    b[0, 1], b[1, 0] = 1.0, -1.0
    return FamilySpec.linear(s @ np.diag([-1.0, 1.0, 2.0, 3.0]) @ s_inv, s @ b @ s_inv, lambdas)


@pytest.mark.parametrize(
    "spec, defective",
    [
        # H(tau) + lam W0 has its EP at lam = e^(2 tau): (1, 0) is on this grid
        (FamilySpec.kg(np.linspace(-1.0, 1.0, 9), np.linspace(0.0, 4.0, 9), w0=NILPOTENT_COUPLING),
         [(1.0, 0.0)]),
        (linear_ep_family(np.linspace(0.0, 2.0, 41)), []),
        (sqrt_family(np.linspace(0.0, 2.0, 61)), [(1.0, None)]),
    ],
    ids=["kg", "linear4", "sqrt"],
)
def test_scan_rows_match_per_point_formula(spec, defective):
    report = reality_scan(spec, TOL)
    assert len(report) == len(spec.grid())
    for p in report.points:
        expected = per_point_spectrum(spec.hamiltonian_at(p.lam, p.tau), TOL)
        assert (p.spectrum_real, p.max_imag, p.min_gap, p.eigvec_cond) == expected
    # exceptional points take the path on which diagonalize raised
    assert [(p.lam, p.tau) for p in report.points if p.note == "Defective"] == defective
