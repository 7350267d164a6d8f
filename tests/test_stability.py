import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryptoherm import (
    FamilySpec,
    InvalidBracketError,
    MetricFamily,
    NonFiniteError,
    PerturbationProblem,
    assemble_metric,
    diagonalize,
    exact_matched_metric,
    kg_hamiltonian,
    kg_metric,
    lambda_max,
    quasi_hermiticity_residual,
    reality_scan,
    series_vs_exact,
)
from cryptoherm import spectra, stability
from cryptoherm.errors import CryptohermError
from oracles import reference_lambda_max

TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
NILPOTENT_COUPLING = np.array([[0.0, -1.0], [0.0, 0.0]], dtype=complex)


def grid_order(spec):
    """(lambda, tau) of every grid point in scan order: lambda outer, tau inner."""
    taus = [None] if spec.taus is None else spec.taus.tolist()
    return [(lam, tau) for lam in spec.lambdas.tolist() for tau in taus]


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
    # recorded at the gufunc, which every probe reaches whichever wrapper calls it
    dtypes = []
    gufunc, *rest = spectra._ROUTINES["eigvals"]

    def recorded(a, **kwargs):
        dtypes.append(a.dtype)
        return gufunc(a, **kwargs)

    monkeypatch.setitem(spectra._ROUTINES, "eigvals", (recorded, *rest))
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


def test_exact_metric_past_the_float_range_raises_non_finite():
    big = PerturbationProblem.build(FLOAT_EDGE_H, np.finfo(float).max * FLOAT_EDGE_THETA,
                                    [FLOAT_EDGE_W], TOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="exact matched metric"):
            exact_matched_metric(big, 1e-3)


def test_exact_matched_metric_may_be_indefinite():
    # A benchmark pipeline problem (N = 2, first EP at lambda ~ 20.73) at
    # lambda = 6.218: the matched weights give eigenvalues near -0.121 and
    # 1.707, a solution of the quasi-Hermiticity relation but not a metric.
    h = np.array([[-1.103770933668789, -0.5256527081843316],
                  [-0.6800093419640896, 1.117840199808221]])
    w = np.array([[0.14436807176508895, 0.03728285011916122],
                  [-0.658386034238113, -0.14436807176508895]])
    lam = 6.218
    theta = assemble_metric(MetricFamily(diagonalize(h, TOL)), [1.0, 0.4796522637905347])
    problem = PerturbationProblem.build(h, theta, [w], TOL)
    exact = exact_matched_metric(problem, lam)
    assert float(np.linalg.eigvalsh(exact).min()) < 0.0
    assert quasi_hermiticity_residual(h + lam * w, exact) <= TOL
    # it is still the series' target: here the series is exact from order 1
    [(_, err)] = series_vs_exact(problem, 1, [lam])
    assert err <= 1e-12 * float(np.linalg.norm(exact))


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
    assert [(p.lam, p.tau) for p in report.points] == grid_order(spec)
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
    lapack, decomposed = spectra._lapack, []

    def recorded(routine, *operands):
        if routine == "eig":
            # the scan stacks its points: count matrices, not calls
            decomposed.append(operands[0].shape[0])
        return lapack(routine, *operands)

    monkeypatch.setattr(spectra, "_lapack", recorded)
    report = reality_scan(spec, TOL)
    assert [p.lam for p in report.points if p.note == "Defective"] == [1.0]
    assert sum(decomposed) == len(report)


def test_scan_assembles_each_chunk_once(monkeypatch):
    # 6400 kg points: two chunks of at most 4096 2x2 matrices each
    spec = FamilySpec.kg(np.linspace(-1.0, 1.0, 80), np.linspace(0.0, 4.0, 80),
                         w0=NILPOTENT_COUPLING)
    assembled, gated = [], []
    assemble, post_init = stability.assemble_metric, MetricFamily.__post_init__

    def counted_assemble(families, kappa):
        assembled.append(len(families))
        return assemble(families, kappa)

    def counted_post_init(self):
        gated.append(self.system)
        post_init(self)

    monkeypatch.setattr(stability, "assemble_metric", counted_assemble)
    monkeypatch.setattr(MetricFamily, "__post_init__", counted_post_init)
    points = reality_scan(spec, TOL).points
    notes = [p.note for p in points]
    assert len(assembled) == 2 and sum(assembled) == notes.count("") > 0
    # one MetricFamily per decomposed point with a real spectrum, and none
    # for a point whose spectrum is not real
    decomposed = [p for p in points if p.note not in ("Defective", "NonFinite")]
    real = [p for p in decomposed if p.spectrum_real]
    assert len(gated) == len(real) >= notes.count("")
    assert all(spectra.spectrum_is_real(system)[0] for system in gated)
    not_real = [p.note for p in decomposed if not p.spectrum_real]
    assert not_real and set(not_real) == {"SpectrumNotReal"}


finite_entries = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["kg", "kg-coupled", "linear"]),
    lams=st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=5, unique=True),
    taus=st.lists(st.floats(-360.0, 360.0), min_size=1, max_size=5, unique=True),
    h0=st.lists(finite_entries, min_size=4, max_size=4),
    w0=st.lists(finite_entries, min_size=4, max_size=4),
)
@example(kind="kg", lams=[0.0], taus=[354.8, 354.9, 355.0], h0=[0j] * 4, w0=[0j] * 4)
@example(kind="kg-coupled", lams=[-1e308, 1e308], taus=[-1.0, 354.9], h0=[0j] * 4,
         w0=[0j, -1.5 + 0.5j, 2j, 1 + 0j])
@example(kind="linear", lams=[-1e308, 0.5, 1e308], taus=[0.0], h0=[1 + 0j, 2j, -3 + 0j, 0j],
         w0=[1e3 + 1e3j, -0.0, 0j, -1e3 + 0j])
def test_scan_hamiltonians_are_the_stack_of_hamiltonian_at(kind, lams, taus, h0, w0):
    h0, w0 = np.reshape(h0, (2, 2)), np.reshape(w0, (2, 2))
    if kind == "linear":
        spec = FamilySpec.linear(h0, w0, sorted(lams))
    else:
        spec = FamilySpec.kg(sorted(taus), sorted(lams), w0=w0 if kind == "kg-coupled" else None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = spec._hamiltonians(*spec._grid_arrays())
        points = reality_scan(spec, TOL).points
    assert stack.shape == (len(points), 2, 2)
    assert [(p.lam, p.tau) for p in points] == grid_order(spec)
    for h, (lam, tau), p in zip(stack, grid_order(spec), points):
        try:
            with np.errstate(over="ignore"):
                alone = spec.hamiltonian_at(lam, tau)
        except NonFiniteError:  # e^(2 tau) past the float range
            alone = np.full((2, 2), np.nan)
        if np.isfinite(alone).all():
            assert h.tobytes() == alone.tobytes()
        else:
            # a point past the float range is a NonFinite row
            assert not np.isfinite(h).all()
            assert p.note == "NonFinite" and math.isnan(p.theta_min_eig)


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


def _real_side_crossing():
    """A 2x2 block with an EP at lambda = 1 beside a diagonal block whose
    eigenvalues 3.5 - lambda and 2.5 + lambda cross at lambda = 0.5, on
    the real side: min_gap has a kink there and touches zero, so the
    discriminant is far from linear across the bracket."""
    h = np.diag([1.0, -1.0, 3.5, 2.5]).astype(complex)
    w = np.zeros((4, 4), dtype=complex)
    w[0, 1], w[1, 0], w[2, 2], w[3, 3] = 1.0, -1.0, -1.0, 1.0
    return FamilySpec.linear(h, w, [0.0])


def test_lambda_max_probe_bound_with_real_side_crossing(monkeypatch):
    spec = _real_side_crossing()
    for bracket in [(0.0, 2.0), (0.3, 1.5), (0.0, 10.0), (0.0, 1e3)]:
        for tol in (1e-6, 1e-10):
            boundary, probes = count_probes(monkeypatch, spec, bracket, tol)
            assert abs(boundary - 1.0) <= tol
            bisection = 2 + math.ceil(math.log2((bracket[1] - bracket[0]) / tol))
            assert probes <= 2 * bisection + 1, (bracket, tol, probes)


def test_lambda_max_probes_the_midpoint_when_a_step_would_reach_the_kept_point(monkeypatch):
    # [[0, 1], [e - lam, 0]] turns complex past lam = e = 2 - 2**-52; the
    # bracket's ends are e's two float neighbours, so ulp(2.0) is the pair's
    # width and the minimum step from b = 2.0 would land on c.
    e = 2.0 - 2.0**-52
    spec = FamilySpec.linear([[0.0, 1.0], [e, 0.0]], [[0.0, 0.0], [-1.0, 0.0]], [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        boundary, probes = count_probes(monkeypatch, spec, (2.0 - 2.0**-51, 2.0), 1e-20)
    assert probes == 3
    assert boundary in (math.nextafter(e, 0.0), math.nextafter(e, 3.0))


def _random_pencil(n, seed):
    """Symmetric H0 and antisymmetric W0: real at 0, complex once W0 dominates."""
    rng = np.random.default_rng(seed)
    h, w = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    return FamilySpec.linear(h + h.T, w - w.T, [0.0])


_ROTATION = np.array([[0.0, 1.0], [-1.0, 0.0]])

# (family, bracket, tol, (repr of the result or the error's class, number of
# FamilySpec.hamiltonian_at calls)).  The values were recorded with a probe
# that tested every H for an imaginary part and every spectrum for reality;
# the probe's shortcuts for real pencils and real-dtype spectra keep them.
BOUNDARY_SEARCHES = {
    "linear-N1": (lambda: FamilySpec.linear([[2.0]], [[1.0]], [0.0]), (0.0, 1.0), 1e-8,
                  ("InvalidBracketError", 2)),
    "linear-N2": (lambda: FamilySpec.linear(np.diag([-1.0, 1.0]), _ROTATION, [0.0]),
                  (0.0, 2.0), 1e-10, ("1.0000000000162848", 10)),
    "linear-N4": (lambda: _random_pencil(4, 4), (0.0, 10.0), 1e-10,
                  ("0.18005284139175065", 20)),
    "linear-N8": (lambda: _random_pencil(8, 8), (0.0, 10.0), 1e-10,
                  ("0.4989340193478312", 17)),
    "kg-without-w0": (lambda: FamilySpec.kg([0.3]), (0.0, 1.0), 1e-10,
                      ("InvalidBracketError", 2)),
    # [[0, e^0.8 - lam], [1, 0]]: EP at e^0.8
    "kg-with-w0": (lambda: FamilySpec.kg([0.4], w0=NILPOTENT_COUPLING), (0.0, 5.0), 1e-10,
                   ("2.225540928517468", 4)),
    # H(0) is exactly real, every other probe complex
    "real-h0-complex-w0": (
        lambda: FamilySpec.linear(np.diag([-1.0, 1.0]), [[0.0, 1j], [1j, 0.0]], [0.0]),
        (0.0, 2.0), 1e-10, ("1.0000000000162848", 10)),
    # eigenvalues +-sqrt(1 - lam^2) and 1e6: past the EP at 1 the pair is
    # complex, yet real at tol 1e-6 up to lam = sqrt(2)
    "real-pencil-complex-spectra": (
        lambda: FamilySpec.linear(np.diag([-1.0, 1.0, 1e6]), np.pad(_ROTATION, (0, 1)), [0.0]),
        (0.0, 3.0), 1e-6, ("1.4142136863493442", 27)),
    # the same spectra from a complex pencil, whose probes go through
    # _lapack_dispatch: between 1 and sqrt(2) tol < max|Im E| <= tol * 1e6
    "complex-pencil-scaled-reality": (
        lambda: FamilySpec.linear(np.diag([-1.0, 1.0, 1e6]),
                                  np.pad([[0.0, 1j], [1j, 0.0]], (0, 1)), [0.0]),
        (0.0, 3.0), 1e-6, ("1.4142136863493437", 27)),
    # [[0, 1], [1e-12 (1 - lam), 0]], |E| < 1: past the EP at 1 the real
    # pencil's spectrum is a conjugate pair, not exactly real, yet real at
    # tol 1e-6 until 1e-12 (lam - 1) = tol**2, at lam = 2
    "real-pencil-rounded-reality": (
        lambda: FamilySpec.linear([[0.0, 1.0], [1e-12, 0.0]], [[0.0, 0.0], [-1e-12, 0.0]],
                                  [0.0]),
        (0.0, 10.0), 1e-6, ("1.999999899795906", 31)),
    # the pace guard decides this count: with the widest allowed pair
    # shrinking by 0.75 per probe instead of sqrt(0.5), the search takes 21
    "real-side-crossing": (_real_side_crossing, (0.0, 10.0), 1e-10,
                           ("1.0000000000249916", 18)),
}


def boundary_search(monkeypatch, name):
    """``BOUNDARY_SEARCHES[name]``'s (result, probe count) and its pinned pair."""
    make, bracket, tol, expected = BOUNDARY_SEARCHES[name]
    spec = make()
    calls = []
    original = FamilySpec.hamiltonian_at
    monkeypatch.setattr(FamilySpec, "hamiltonian_at",
                        lambda self, *args: calls.append(args) or original(self, *args))
    try:
        result = repr(lambda_max(spec, bracket, tol))
    except InvalidBracketError as exc:
        result = type(exc).__name__
    monkeypatch.undo()
    return (result, len(calls)), expected


@pytest.mark.parametrize("name", sorted(BOUNDARY_SEARCHES))
def test_lambda_max_keeps_its_results_and_probe_counts(monkeypatch, name):
    got, expected = boundary_search(monkeypatch, name)
    assert got == expected


@pytest.mark.parametrize("name", ["kg-with-w0", "kg-without-w0"])
def test_a_kg_search_forms_h_of_tau_once(monkeypatch, name):
    # H(tau) is fixed for the search, so it is the H0 of one linear pencil
    calls = []
    original = stability.kg_hamiltonian
    monkeypatch.setattr(stability, "kg_hamiltonian",
                        lambda tau: calls.append(tau) or original(tau))
    got, expected = boundary_search(monkeypatch, name)
    assert got == expected and got[1] > 1
    assert calls == [0.4 if name == "kg-with-w0" else 0.3]


def test_lambda_max_under_a_raising_error_state(monkeypatch):
    # the search's own error state covers its probes' arithmetic, so a
    # caller that raises on every floating-point event gets the same answers
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in BOUNDARY_SEARCHES:
            got, expected = boundary_search(monkeypatch, name)
            assert got == expected, name
        test_lambda_max_with_bracket_ends_summing_past_the_float_range()


def _caller_state():
    return np.geterr(), np.geterrcall()


def test_lambda_max_restores_the_callers_error_state(monkeypatch):
    def caller_callback(err, flag):
        raise AssertionError("the caller's callback is never reached")

    gufunc, *rest = spectra._ROUTINES["eigvals"]
    probes = 0

    def failing_third_probe(a, **kwargs):
        nonlocal probes
        probes += 1
        if probes == 3:
            np.subtract(np.inf, np.inf)  # sets the invalid flag, as a LAPACK failure does
        return gufunc(a, **kwargs)

    overflowing = FamilySpec.linear(np.diag([1.0, 2.0]), [[0.0, 1e308], [1e308, 0.0]], [0.0])
    hermitian = FamilySpec.linear(np.diag([1.0, 2.0]), SIGMA_X, [0.0])
    with np.errstate(divide="raise", over="warn", under="print", invalid="ignore",
                     call=caller_callback):
        before = _caller_state()
        assert abs(lambda_max(sqrt_family([0.0]), (0.0, 2.0), 1e-8) - 1.0) <= 1e-8
        assert _caller_state() == before
        with pytest.raises(InvalidBracketError):
            lambda_max(hermitian, (0.0, 1.0), 1e-8)
        assert _caller_state() == before
        with pytest.raises(NonFiniteError):
            lambda_max(overflowing, (0.0, 10.0), 1e-8)
        assert _caller_state() == before
        # a LAPACK failure inside a probe past the endpoints still raises
        monkeypatch.setitem(spectra._ROUTINES, "eigvals", (failing_third_probe, *rest))
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            lambda_max(sqrt_family([0.0]), (0.0, 2.0), 1e-8)
        assert probes == 3
        assert _caller_state() == before


def counted_search(search, spec, bracket, tol):
    """(repr of ``search(spec, bracket, tol)`` or its error's class name,
    number of FamilySpec.hamiltonian_at calls)."""
    calls = 0
    original = FamilySpec.hamiltonian_at

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return original(self, *args)

    FamilySpec.hamiltonian_at = counted
    try:
        result = repr(search(spec, bracket, tol))
    except (CryptohermError, ValueError) as exc:  # LinAlgError is a ValueError
        result = type(exc).__name__
    finally:
        FamilySpec.hamiltonian_at = original
    return result, calls


# A small pool makes exact zeros, +-0.0 pairs and ties frequent.
_PENCIL_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0, 1e-3])


def _square(n):
    return st.lists(_PENCIL_ENTRIES, min_size=n * n, max_size=n * n).map(
        lambda v: np.reshape(v, (n, n)))


@st.composite
def _boundary_searches(draw):
    """(spec, bracket, tol): real, diagonal-with-ties, kg and complex pencils."""
    kind = draw(st.sampled_from(["real", "diagonal", "kg", "complex", "real-h0-complex-w0"]))
    bracket = (draw(st.sampled_from([0.0, 0.0, -0.25, 0.5])),
               draw(st.sampled_from([0.75, 1.0, 2.0, 10.0, 1e3])))
    tol = draw(st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 0.25]))
    if kind == "kg":
        w0 = draw(st.none() | _square(2))
        return FamilySpec.kg([draw(st.floats(-1.0, 1.0))], w0=w0), bracket, tol
    n = draw(st.integers(1, 8))
    h0, w0 = draw(_square(n)), draw(_square(n))
    if kind in ("complex", "real-h0-complex-w0"):
        w0 = w0 + 1j * draw(_square(n))
    if kind == "complex":
        h0 = h0 + 1j * draw(_square(n))
    # mostly a Hermitian H0, real at lambda = 0, and an anti-Hermitian W0,
    # which takes the spectrum off the real axis as lambda grows
    if draw(st.integers(0, 3)):
        h0 = h0 + h0.conj().T
    if draw(st.booleans()):
        w0 = w0 - w0.conj().T
    if kind == "diagonal":
        # ties among the drawn eigenvalues are frequent
        h0 = np.diag(draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0]),
                                   min_size=n, max_size=n)))
    return FamilySpec.linear(h0, w0, [0.0]), bracket, tol


# two equal eigenvalues overflow to inf: the gap's inf - inf raises
_OVERFLOWING = np.kron(np.eye(2), np.full((2, 2), 1.7e308))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_boundary_searches())
@example(case=(FamilySpec.linear(_OVERFLOWING, np.pad(_ROTATION, (0, 2)), [0.0]),
               (0.0, 1.0), 1e-8))
@example(case=(BOUNDARY_SEARCHES["real-pencil-rounded-reality"][0](), (0.0, 10.0), 1e-6))
def test_lambda_max_matches_the_reference_search_bit_for_bit(case):
    # the reference probes through _lapack_dispatch, _reality and numpy's gap
    got = counted_search(lambda_max, *case)
    assert got == counted_search(reference_lambda_max, *case)
    assert got[1] >= 2 or got[0] == "ValueError"


def test_scan_memory_is_bounded_by_its_chunk():
    # unchunked, 300 points at N = 32 would stack about 5 MB per complex array
    rng = np.random.default_rng(7)
    h0, w0 = rng.standard_normal((32, 32)), rng.standard_normal((32, 32))
    spec = FamilySpec.linear(h0, w0, np.linspace(0.0, 1.0, 300))
    tracemalloc.start()
    try:
        report = reality_scan(spec, TOL)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report) == 300
    assert peak < 4e6


def _scan_peak(spec) -> int:
    """The tracemalloc peak of ``reality_scan(spec, TOL)``, in bytes."""
    tracemalloc.start()
    try:
        reality_scan(spec, TOL)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_peak_memory_is_set_by_the_chunk_not_the_grid():
    # The same N = 32 family on grids of 75 and 300 points: the larger
    # holds 225 more rows (about 260 bytes each), and nothing else grows.
    # Unchunked, the 300-point scan peaked 43 MB above the 75-point one.
    rng = np.random.default_rng(7)
    h0, w0 = rng.standard_normal((32, 32)), rng.standard_normal((32, 32))
    small, large = (_scan_peak(FamilySpec.linear(h0, w0, np.linspace(0.0, 1.0, points)))
                    for points in (75, 300))
    per_row = 1024  # bytes allowed for each extra ScanPoint
    assert large - small <= per_row * (300 - 75)
