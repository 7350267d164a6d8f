import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoherm import (
    FamilySpec,
    InvalidBracketError,
    PerturbationProblem,
    SeriesOverflowError,
    exact_matched_metric,
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


@pytest.mark.parametrize("spec", [
    FamilySpec.linear(np.diag([1.0, 2.0]), [[0.0, 10.0], [10.0, 0.0]], [0.0, 1e308]),
    FamilySpec.kg([0.0, 700.0], [0.0]),
    # finite parts, but a modulus past the float range: LAPACK returns NaN
    FamilySpec.linear(np.zeros((1, 1)), [[1.0 + 1.0j]], [0.0, 1.7e308]),
], ids=["linear-lambda-W-overflows", "kg-exp-overflows", "complex-modulus-overflows"])
def test_scan_point_past_the_float_range_is_a_nonfinite_row(spec):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first, last = reality_scan(spec, TOL).points
    assert first.note == "" and first.spectrum_real and first.metric_exists
    assert last.note == "NonFinite"
    assert not last.spectrum_real and not last.metric_exists
    assert all(math.isnan(x) for x in (last.max_imag, last.min_gap, last.eigvec_cond,
                                       last.theta_min_eig))


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


def test_invalid_bracket_error_carries_bracket_fields():
    rng = np.random.default_rng(73)
    h = rng.standard_normal((3, 3))
    h = h + h.T
    w = rng.standard_normal((3, 3))
    w = w + w.T
    with pytest.raises(InvalidBracketError) as info:
        lambda_max(FamilySpec.linear(h, w, [0.0, 10.0]), (0.0, 10.0), 1e-8)
    exc = info.value
    assert str(exc) == "bracket endpoints do not straddle a reality transition"
    assert (exc.lo, exc.hi, exc.real_at_lo, exc.real_at_hi) == (0.0, 10.0, True, True)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 2.0, 1.0, 0.0, -1e-8])
def test_lambda_max_rejects_a_tolerance_outside_the_unit_interval(tol):
    # the bracket is valid at any working tolerance: EP at lambda = 1
    spec = FamilySpec.kg([0.0], [0.0], w0=NILPOTENT_COUPLING)
    assert abs(lambda_max(spec, (0.0, 2.0), 1e-8) - 1.0) <= 1e-8
    with pytest.raises(ValueError, match="tolerance must lie in"):
        lambda_max(spec, (0.0, 2.0), tol)


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
    boundary = lambda_max(FamilySpec.linear(h, -w, [0.0, 2.0]), (0.0, 2.0), 1e-8)
    assert abs(boundary - 1.0) <= 1e-8


def test_lambda_max_with_bracket_ends_summing_past_the_float_range():
    # [[a, lam], [-lam, 0]] is real up to lam = a/2; lo + hi overflows
    spec = FamilySpec.linear(np.diag([1.6e308, 0.0]), [[0.0, 1.0], [-1.0, 0.0]], [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        boundary = lambda_max(spec, (0.7e308, 1.2e308), TOL)
    assert abs(boundary - 0.8e308) <= 1e-8 * 0.8e308


def test_lambda_max_probes_in_the_arithmetic_of_the_family(monkeypatch):
    dtypes = []
    eigvals = np.linalg.eigvals

    def recorded(a):
        dtypes.append(a.dtype)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    h = np.diag([-1.0, 1.0]).astype(complex)
    # eigenvalues +-sqrt(1 - lam^2) for both couplings: EP at lam = 1
    for w, dtype in [(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.float64),
                     (np.array([[0.0, 1j], [1j, 0.0]]), np.complex128)]:
        dtypes.clear()
        # lo > 0: at lam = 0 the complex family is a real matrix too
        boundary = lambda_max(FamilySpec.linear(h, w, [0.0, 2.0]), (0.5, 2.0), 1e-8)
        assert abs(boundary - 1.0) <= 1e-8
        assert dtypes and set(dtypes) == {np.dtype(dtype)}


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


# R^dag Theta R = diag(1.9, 0.1) * 2^1023 for 2^1023 * FLOAT_EDGE_THETA is
# past the float limit while every entry of Theta is not
FLOAT_EDGE_H = np.array([[1.5, -0.5], [-0.5, 1.5]], dtype=complex)
FLOAT_EDGE_THETA = np.array([[1.0, 0.9], [0.9, 1.0]])
FLOAT_EDGE_W = np.array([[0.0, 1e-3], [-1e-3, 0.0]], dtype=complex)


def test_series_vs_exact_where_the_eigenbasis_metric_leaves_the_float_range():
    # the exact metric was assembled and its error norm formed unscaled:
    # both rows were nan, with overflow warnings
    lambdas = [1e-3, 5e-4]
    small = PerturbationProblem.build(FLOAT_EDGE_H, FLOAT_EDGE_THETA, [FLOAT_EDGE_W], TOL)
    big = PerturbationProblem.build(FLOAT_EDGE_H, 2.0**1023 * FLOAT_EDGE_THETA,
                                    [FLOAT_EDGE_W], TOL)
    ref = series_vs_exact(small, 2, lambdas)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = series_vs_exact(big, 2, lambdas)
        exact = exact_matched_metric(big, lambdas[0])
    assert np.array_equal(exact, 2.0**1023 * exact_matched_metric(small, lambdas[0]))
    for (lam, err), (ref_lam, ref_err) in zip(rows, ref, strict=True):
        assert lam == ref_lam
        assert math.isfinite(err)
        assert abs(err - 2.0**1023 * ref_err) <= 1e-12 * 2.0**1023 * ref_err


def test_exact_metric_past_the_float_range_raises_series_overflow():
    big = PerturbationProblem.build(FLOAT_EDGE_H, np.finfo(float).max * FLOAT_EDGE_THETA,
                                    [FLOAT_EDGE_W], TOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SeriesOverflowError) as info:
            exact_matched_metric(big, 1e-3)
    assert info.value.order is None


def per_point_spectrum(h, tol, complex_arithmetic=False):
    """The scan's spectral columns from scratch: eig, then the SVD of the
    column-normalized, unsorted eigenvectors.  A matrix without a nonzero
    imaginary entry is decomposed in real arithmetic, as the scan does;
    ``complex_arithmetic`` forces the complex solver instead."""
    a = h if complex_arithmetic or h.imag.any() else h.real
    evals, vr = np.linalg.eig(a)
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


def arithmetic_bounds(h, cond, min_gap):
    """Bounds on how far the scan's numeric columns may move between the
    real and the complex eigensolver.

    Each solver returns the exact eigenpairs of H + E with
    ||E|| <= 10 n eps ||H||_F (backward stability of the QR algorithm), so
    by Bauer-Fike every eigenvalue moves by at most d = cond ||E|| and the
    two spectra lie within 2d of each other: max_imag moves by 2d and
    min_gap by 4d.  To first order a unit eigenvector moves by at most
    (n - 1) ||V^-1|| ||E|| / gap <= (n - 1) cond ||E|| / gap, so ||dV||_F
    is at most sqrt(n) times that, and the condition number of V (whose
    columns have unit norm, so sigma_max >= 1) moves relatively by at most
    (1 + cond) ||dV||, twice over for the two solvers.
    """
    n = h.shape[0]
    backward = 10.0 * n * np.finfo(float).eps * np.linalg.norm(h)
    d = cond * backward
    dv = math.sqrt(n) * (n - 1) * cond * backward / min_gap if min_gap > 0.0 else math.inf
    return 2.0 * d, 4.0 * d, 2.0 * (1.0 + cond) * dv


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
        h = spec.hamiltonian_at(p.lam, p.tau)
        expected = per_point_spectrum(h, TOL)
        assert (p.spectrum_real, p.max_imag, p.min_gap, p.eigvec_cond) == expected
        # the complex solver on the same matrix agrees up to rounding
        real, max_imag, min_gap, cond = per_point_spectrum(h, TOL, complex_arithmetic=True)
        assert real == p.spectrum_real
        worst = max(cond, p.eigvec_cond)
        if math.isfinite(worst):
            d_imag, d_gap, d_cond = arithmetic_bounds(h, worst, min(min_gap, p.min_gap))
            assert abs(max_imag - p.max_imag) <= d_imag
            assert abs(min_gap - p.min_gap) <= d_gap
            assert abs(cond - p.eigvec_cond) <= d_cond * worst
    # exceptional points take the path on which diagonalize raised
    assert [(p.lam, p.tau) for p in report.points if p.note == "Defective"] == defective


def test_defective_rows_match_per_point_formula():
    # S J S^-1 for a 2x2 Jordan block at 0.5 beside -1: rounding splits the
    # block, and the eigenvector condition number (about 1e8) fails the gate
    # at tol 1e-6, so each row comes from what DefectiveError carries.
    tol = 1e-6
    rows_differ = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((3, 3))
        h0 = s @ (np.diag([0.5, 0.5, -1.0]) + np.diag([1.0, 0.0], 1)) @ np.linalg.inv(s)
        spec = FamilySpec.linear(h0, np.zeros((3, 3)), [0.0])
        (p,) = reality_scan(spec, tol).points
        assert p.note == "Defective"
        expected = per_point_spectrum(spec.hamiltonian_at(0.0), tol)
        assert (p.spectrum_real, p.max_imag, p.min_gap, p.eigvec_cond) == expected
        rows_differ += expected != per_point_spectrum(spec.hamiltonian_at(0.0), tol, True)
    assert rows_differ > 0  # the real and complex solvers are told apart


def test_scan_decomposes_each_point_once(monkeypatch):
    # a Defective row is built from the spectrum and condition number that
    # diagonalize measured; the scan never decomposes H a second time
    spec = sqrt_family(np.linspace(0.0, 2.0, 21))
    eig, calls = np.linalg.eig, []
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    report = reality_scan(spec, TOL)
    assert [p.lam for p in report.points if p.note == "Defective"] == [1.0]
    assert len(calls) == len(report)


def reality_predicate(spec, x, tol):
    e = np.linalg.eigvals(spec.hamiltonian_at(x))
    return np.abs(e.imag).max() <= tol * max(1.0, np.abs(e).max())


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(-5.0, 5.0),
    gap=st.floats(0.1, 10.0),
    b=st.floats(0.1, 10.0),
    c=st.floats(0.1, 10.0),
    # k -> 1 puts hi inside the predicate's tolerance band around the EP,
    # where the spectrum still counts as real and the bracket is invalid
    k=st.floats(1.001, 50.0),
)
def test_lambda_max_closed_form_ep_property(a, gap, b, c, k):
    # diag(a, d) + lam [[0, b], [-c, 0]]: eigenvalues
    # (a + d)/2 +- sqrt((a - d)^2/4 - lam^2 b c), EP at |a - d| / (2 sqrt(b c))
    d = a + gap
    tol = 1e-8
    spec = FamilySpec.linear(np.diag([a, d]), np.array([[0.0, b], [-c, 0.0]]), [0.0])
    ep = gap / (2.0 * math.sqrt(b * c))
    boundary = lambda_max(spec, (0.0, k * ep), tol)
    assert abs(boundary - ep) <= tol
    assert reality_predicate(spec, boundary - tol, tol)
    assert not reality_predicate(spec, boundary + tol, tol)


def count_probes(monkeypatch, spec, bracket, tol):
    calls = []
    original = FamilySpec.hamiltonian_at

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(FamilySpec, "hamiltonian_at", counted)
    boundary = lambda_max(spec, bracket, tol)
    monkeypatch.undo()
    return boundary, len(calls)


def test_lambda_max_probe_counts(monkeypatch):
    # bisection needs 2 + ceil(log2(width / tol)) probes: 30 and 56 here
    boundary, probes = count_probes(monkeypatch, sqrt_family([0.0]), (0.0, 2.0), 1e-8)
    assert abs(boundary - 1.0) <= 1e-8
    assert probes <= 12

    h = np.diag([-1.0, 1.0]).astype(complex)
    w = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    boundary, probes = count_probes(monkeypatch, FamilySpec.linear(h, w, [0.0]), (0.0, 1e6), 1e-10)
    assert abs(boundary - 1.0) <= 1e-10
    assert probes <= 56


def test_lambda_max_probe_bound_with_real_side_crossing(monkeypatch):
    # A 2x2 block with an EP at lambda = 1 beside a diagonal block whose
    # eigenvalues 3.5 - lambda and 2.5 + lambda cross at lambda = 0.5, on
    # the real side: min_gap has a kink there and touches zero, so the
    # discriminant is far from linear across the bracket.
    h = np.diag([1.0, -1.0, 3.5, 2.5]).astype(complex)
    w = np.zeros((4, 4), dtype=complex)
    w[0, 1], w[1, 0], w[2, 2], w[3, 3] = 1.0, -1.0, -1.0, 1.0
    spec = FamilySpec.linear(h, w, [0.0])
    for bracket in [(0.0, 2.0), (0.3, 1.5), (0.0, 10.0), (0.0, 1e3)]:
        for tol in (1e-6, 1e-10):
            boundary, probes = count_probes(monkeypatch, spec, bracket, tol)
            assert abs(boundary - 1.0) <= tol
            bisection = 2 + math.ceil(math.log2((bracket[1] - bracket[0]) / tol))
            assert probes <= 2 * bisection + 1, (bracket, tol, probes)
