import numpy as np
import pytest

from cryptoherm import (
    GAUGE_TAG,
    DegenerateSpectrumError,
    MetricSeries,
    NotPositiveDefiniteError,
    NotQuasiHermitianError,
    PerturbationProblem,
    SingularResolventError,
    SolvabilityViolatedError,
    commutator_gap,
    dyson_from_metric,
    hidden_hermiticity_test,
    kg_hamiltonian,
    kg_metric,
    leading_delta,
    metric_series,
    solve_order,
    v_from_w,
    w_from_v,
)
from oracles import (
    exact_dyson_correction,
    first_order_shifts,
    matched_exact_metric,
    metric_from_seed,
    random_hermitian,
    random_real_spectrum_matrix,
)

TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def kg_problem(tau=0.2, beta=0.25, w0=SIGMA_X, tol=TOL):
    return PerturbationProblem.build(kg_hamiltonian(tau), kg_metric(tau, beta), [w0], tol)


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


def test_build_validates_quasi_hermiticity():
    with pytest.raises(NotQuasiHermitianError):
        PerturbationProblem.build(kg_hamiltonian(1.0), np.eye(2), [SIGMA_X], TOL)


def test_w_coefficients_beyond_supplied_are_zero():
    prob = kg_problem()
    assert np.array_equal(prob.w_coeff(0), SIGMA_X)
    assert np.array_equal(prob.w_coeff(5), np.zeros((2, 2)))
    assert np.allclose(prob.w_at(0.3), SIGMA_X)
    assert np.allclose(prob.hamiltonian_at(0.3), kg_hamiltonian(0.2) + 0.3 * SIGMA_X)


# ---------------------------------------------------------------------------
# solve_order / metric_series
# ---------------------------------------------------------------------------


def test_zero_perturbation_gives_zero_corrections():
    prob = PerturbationProblem.build(kg_hamiltonian(0.4), kg_metric(0.4, 0.1), [], TOL)
    series = metric_series(prob, 3)
    for k in range(1, 4):
        assert np.linalg.norm(series.t_coeffs[k]) == 0.0
        assert series.solvability_residuals[k] <= 1e-15


def test_hermitian_perturbation_of_hermitian_system():
    rng = np.random.default_rng(7)
    h = random_hermitian(rng, 4) + np.diag([0.0, 2.0, 4.0, 6.0])
    w = random_hermitian(rng, 4)
    prob = PerturbationProblem.build(h, np.eye(4), [w], TOL)
    t1, residual = solve_order(prob, 1, metric_series(prob, 0))
    # Theta = I, W Hermitian: the right-hand side vanishes identically
    assert np.linalg.norm(t1) <= 1e-12
    assert residual <= 1e-12


def test_first_order_matches_finite_difference_oracle():
    prob = kg_problem()
    t1 = metric_series(prob, 1).t_coeffs[1]
    lam = 1e-5
    exact = matched_exact_metric(
        prob.hamiltonian_at(lam), prob.theta.theta, prob.system.right_vectors
    )
    fd = (exact - prob.theta.theta) / lam
    assert np.linalg.norm(t1 - fd) <= 1e-4


def test_solvability_violated_for_complex_energy_shift():
    h = np.diag([1.0, 2.0]).astype(complex)
    w = np.array([[1.0j, 0.0], [0.0, 0.0]])
    # oracle: eigenvalues of H + lam W are 1 + i lam and 2
    evals = np.linalg.eigvals(h + 0.1 * w)
    assert np.abs(evals.imag).max() > 0.05
    prob = PerturbationProblem.build(h, np.eye(2), [w], TOL)
    with pytest.raises(SolvabilityViolatedError) as info:
        metric_series(prob, 1)
    assert info.value.order == 1
    assert info.value.residual > TOL


def test_antihermitian_offdiagonal_perturbation_is_solvable():
    # the right-hand side 2 W0 has zero diagonal in the eigenbasis of a
    # diagonal H, so order 1 is solvable even though W0 is anti-Hermitian
    h = np.diag([1.0, 2.0]).astype(complex)
    w = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    prob = PerturbationProblem.build(h, np.eye(2), [w], TOL)
    t1, residual = solve_order(prob, 1, metric_series(prob, 0))
    assert residual <= 1e-14
    # direct check of the order-1 relation
    rhs = np.eye(2) @ w - w.conj().T @ np.eye(2)
    assert np.allclose(h.conj().T @ t1 - t1 @ h, rhs, atol=1e-13)


def test_metric_series_order_zero():
    prob = kg_problem()
    series = metric_series(prob, 0)
    assert series.order == 0
    assert np.array_equal(series.t_coeffs[0], prob.theta.theta)
    assert series.gauge == GAUGE_TAG


def test_truncation_error_drops_eightfold_for_k2():
    prob = kg_problem()
    series = metric_series(prob, 2)
    r0 = prob.system.right_vectors

    def err(lam):
        exact = matched_exact_metric(prob.hamiltonian_at(lam), prob.theta.theta, r0)
        return np.linalg.norm(series.truncated(lam) - exact)

    ratio = err(1e-2) / err(5e-3)
    assert 2.0**3 * 0.7 <= ratio <= 2.0**3 * 1.4


def test_order_k_consistency_property():
    prob = kg_problem()
    for order in (1, 2, 3):
        series = metric_series(prob, order)

        def relation_residual(lam):
            h_lam = prob.hamiltonian_at(lam)
            t = series.truncated(lam)
            return np.linalg.norm(h_lam.conj().T @ t - t @ h_lam)

        lam = 0.02
        ratio = relation_residual(lam) / relation_residual(lam / 2.0)
        assert 2.0 ** (order + 1) * 0.7 <= ratio <= 2.0 ** (order + 1) * 1.4


def test_hermiticity_and_gauge_per_order():
    prob = kg_problem()
    series = metric_series(prob, 3)
    r0 = prob.system.right_vectors
    for k in range(1, 4):
        t = series.t_coeffs[k]
        assert np.linalg.norm(t - t.conj().T) <= 1e-13 * max(1.0, np.linalg.norm(t))
        diag = np.diag(r0.conj().T @ t @ r0)
        assert np.abs(diag).max() <= 1e-12


def test_gauge_soundness_reruns_bitwise():
    a = metric_series(kg_problem(), 2)
    b = metric_series(kg_problem(), 2)
    for x, y in zip(a.t_coeffs, b.t_coeffs):
        assert np.array_equal(x, y)


def test_gauge_invariant_under_eigenorder_permutation():
    from cryptoherm import BiorthogonalSystem

    prob = kg_problem()
    t1_ref = metric_series(prob, 1).t_coeffs[1]
    perm = np.array([1, 0])
    sys0 = prob.system
    permuted = BiorthogonalSystem(
        sys0.eigenvalues[perm],
        sys0.right_vectors[:, perm],
        sys0.left_vectors[:, perm],
        sys0.tolerance,
    )
    prob_perm = PerturbationProblem(prob.h, prob.theta, prob.w_coeffs, permuted)
    t1_perm, _ = solve_order(prob_perm, 1, metric_series(prob_perm, 0))
    assert np.linalg.norm(t1_perm - t1_ref) <= 1e-12


def test_degenerate_spectrum_raises():
    h = np.diag([1.0, 1.0 + 1e-13, 2.0]).astype(complex)
    with pytest.raises(DegenerateSpectrumError):
        PerturbationProblem.build(h, np.eye(3), [np.zeros((3, 3))], TOL)


# ---------------------------------------------------------------------------
# Dyson corrections
# ---------------------------------------------------------------------------


def test_dyson_from_metric_trivial_cases():
    prob = PerturbationProblem.build(kg_hamiltonian(0.4), kg_metric(0.4, 0.1), [], TOL)
    deltas = dyson_from_metric(metric_series(prob, 1), prob.theta)
    assert np.linalg.norm(deltas.delta_coeffs[0]) == 0.0

    rng = np.random.default_rng(3)
    t1 = random_hermitian(rng, 3)
    series = MetricSeries((np.eye(3, dtype=complex), t1), GAUGE_TAG, (0.0, 0.0))
    deltas = dyson_from_metric(series, np.eye(3))
    assert np.allclose(deltas.delta_coeffs[0], 0.5 * t1, atol=1e-14)


def test_dyson_back_substitution_reproduces_metric_corrections():
    prob = kg_problem()
    series = metric_series(prob, 2)
    deltas = dyson_from_metric(series, prob.theta)
    th = prob.theta.theta
    d0, d1 = deltas.delta_coeffs
    t1_back = d0.conj().T @ th + th @ d0
    t2_back = d1.conj().T @ th + d0.conj().T @ th @ d0 + th @ d1
    assert np.linalg.norm(t1_back - series.t_coeffs[1]) <= 1e-12 * max(1.0, np.linalg.norm(series.t_coeffs[1]))
    assert np.linalg.norm(t2_back - series.t_coeffs[2]) <= 1e-12 * max(1.0, np.linalg.norm(series.t_coeffs[2]))
    # the gauge makes Theta * Delta Hermitian
    for d in (d0, d1):
        s = th @ d
        assert np.linalg.norm(s - s.conj().T) <= 1e-12


def test_leading_delta_zero_for_quasi_hermitian_w():
    rng = np.random.default_rng(13)
    theta = kg_metric(0.3, 0.2)
    w = np.linalg.solve(theta.theta, random_hermitian(rng, 2))
    d0 = leading_delta(w, kg_hamiltonian(0.3), theta, TOL)
    assert np.linalg.norm(d0) <= 1e-12


def test_leading_delta_componentwise_pattern():
    # Theta = I, diagonal H, anti-Hermitian W with zero diagonal:
    # the Hermitian-gauge solution is Delta_mn = W_mn / (E_m - E_n),
    # verified here directly against the defining relation
    e = np.array([1.0, 2.5, 4.0])
    h = np.diag(e).astype(complex)
    rng = np.random.default_rng(19)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w = 0.5 * (a - a.conj().T)
    np.fill_diagonal(w, 0.0)
    d0 = leading_delta(w, h, np.eye(3), TOL)
    gaps = e[:, None] - e[None, :]
    expected = np.zeros_like(w)
    off = ~np.eye(3, dtype=bool)
    expected[off] = w[off] / gaps[off]
    assert np.allclose(d0, expected, atol=1e-12)
    w_tilde = w + d0 @ h - h @ d0
    assert np.linalg.norm(w_tilde - w_tilde.conj().T) <= 1e-12


def test_leading_delta_agrees_with_metric_route():
    prob = kg_problem()
    d_direct = leading_delta(SIGMA_X, prob.h, prob.theta, TOL)
    d_series = dyson_from_metric(metric_series(prob, 1), prob.theta).delta_coeffs[0]
    assert np.linalg.norm(d_direct - d_series) <= 10.0 * TOL


def test_route_equivalence_on_random_solvable_problems():
    rng = np.random.default_rng(29)
    for _ in range(5):
        h, _, s = random_real_spectrum_matrix(rng, 3)
        theta = metric_from_seed(rng, s)
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.fill_diagonal(y, rng.standard_normal(3))  # real diagonal: solvable
        w = s @ y @ np.linalg.inv(s)
        prob = PerturbationProblem.build(h, theta, [w], 1e-8)
        d_direct = leading_delta(w, h, theta, 1e-8)
        d_series = dyson_from_metric(metric_series(prob, 1), prob.theta).delta_coeffs[0]
        assert np.linalg.norm(d_direct - d_series) <= 1e-7


def test_indefinite_raw_metric_rejected():
    # Hermitian with eigenvalues 3 and -1: the Cholesky gate must refuse it
    theta = np.array([[1.0, 2.0j], [-2.0j, 1.0]])
    series = MetricSeries((theta, np.eye(2, dtype=complex)), GAUGE_TAG, (0.0, 0.0))
    with pytest.raises(NotPositiveDefiniteError):
        dyson_from_metric(series, theta)
    # a zero perturbation is always solvable, so only the metric gate can fail
    h = np.diag([1.0, 2.5]).astype(complex)
    with pytest.raises(NotPositiveDefiniteError):
        leading_delta(np.zeros((2, 2)), h, theta, TOL)


def test_solvability_iff_real_first_order_shifts():
    rng = np.random.default_rng(37)
    violations = 0
    for trial in range(30):
        h, _, s = random_real_spectrum_matrix(rng, 3)
        theta = metric_from_seed(rng, s)
        y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        if trial % 2 == 0:
            np.fill_diagonal(y, rng.standard_normal(3))
        w = s @ y @ np.linalg.inv(s)
        shifts = first_order_shifts(h, w)
        predicted_violation = np.abs(shifts.imag).max() > 1e-8
        prob = PerturbationProblem.build(h, theta, [w], 1e-8)
        try:
            metric_series(prob, 1)
            observed_violation = False
        except SolvabilityViolatedError:
            observed_violation = True
            violations += 1
        assert observed_violation == predicted_violation
    assert violations > 5  # both branches exercised


# ---------------------------------------------------------------------------
# V <-> W maps
# ---------------------------------------------------------------------------


def test_v_from_w_limits():
    rng = np.random.default_rng(43)
    w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    d = rng.standard_normal((3, 3))
    h = rng.standard_normal((3, 3))
    assert np.allclose(v_from_w(w, d, h, 0.0), w + d @ h - h @ d, atol=1e-13)
    assert np.allclose(v_from_w(w, np.zeros((3, 3)), h, 0.3), w, atol=1e-13)


def test_intertwining_relation():
    rng = np.random.default_rng(47)
    for lam in (0.1, 0.4):
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        d = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = v_from_w(w, d, h, lam)
        m = np.eye(3) + lam * d
        assert np.linalg.norm((h + lam * v) @ m - m @ (h + lam * w)) <= 1e-12


def test_w_from_v_roundtrip_and_limits():
    rng = np.random.default_rng(53)
    w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    d = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lam = 0.05
    v = v_from_w(w, d, h, lam)
    assert np.linalg.norm(w_from_v(v, d, h, lam) - w) <= 1e-10
    assert np.allclose(w_from_v(v, np.zeros((4, 4)), h, lam), v, atol=1e-13)
    assert np.allclose(w_from_v(v, d, h, 0.0), v - d @ h + h @ d, atol=1e-12)


def test_singular_resolvent_detected():
    h = np.eye(2)
    with pytest.raises(SingularResolventError):
        v_from_w(np.eye(2), -np.eye(2), h, 1.0)


def test_commutator_gap_trivial_and_scaling():
    rng = np.random.default_rng(59)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    d = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    d /= np.linalg.norm(d)
    assert commutator_gap(w, w, np.zeros((3, 3)), h) == 0.0
    comm_free = np.eye(3) * 0.7
    assert commutator_gap(w, w, comm_free, h * 0.0 + np.eye(3)) <= 1e-15
    g1 = commutator_gap(v_from_w(w, d, h, 0.08), w, d, h)
    g2 = commutator_gap(v_from_w(w, d, h, 0.04), w, d, h)
    assert 0.4 <= g2 / g1 <= 0.6


# ---------------------------------------------------------------------------
# hidden-Hermiticity admissibility
# ---------------------------------------------------------------------------


def test_hidden_hermiticity_trivial_admissible():
    rng = np.random.default_rng(61)
    theta = kg_metric(0.3, 0.2)
    w = np.linalg.solve(theta.theta, random_hermitian(rng, 2))
    ok, residual = hidden_hermiticity_test(w, np.zeros((2, 2)), kg_hamiltonian(0.3), theta, 0.2, TOL)
    assert ok
    assert residual <= 1e-13


def test_hidden_hermiticity_with_exact_dyson_correction():
    prob = kg_problem()
    lam = 0.05
    t_exact = matched_exact_metric(
        prob.hamiltonian_at(lam), prob.theta.theta, prob.system.right_vectors
    )
    delta_exact = exact_dyson_correction(t_exact, prob.theta.theta, lam)
    ok, residual = hidden_hermiticity_test(SIGMA_X, delta_exact, prob.h, prob.theta, lam, 1e-8)
    assert ok
    assert residual <= 1e-10
    # spectrum of the perturbed Hamiltonian is indeed real there
    assert np.abs(np.linalg.eigvals(prob.hamiltonian_at(lam)).imag).max() <= 1e-12
    # the exact correction is the series limit: Delta0 + lam*Delta1 + O(lam^2)
    deltas = dyson_from_metric(metric_series(prob, 2), prob.theta)
    trunc = deltas.delta_coeffs[0] + lam * deltas.delta_coeffs[1]
    assert np.linalg.norm(delta_exact - trunc) <= 5.0 * lam**2


def test_hidden_hermiticity_rejects_complex_spectrum():
    h = SIGMA_X
    w = np.array([[0.0, -1.0], [0.0, 0.0]], dtype=complex)
    lam = 2.0
    ok, residual = hidden_hermiticity_test(w, np.zeros((2, 2)), h, np.eye(2), lam, TOL)
    assert not ok
    assert residual > 1e-3
    evals = np.linalg.eigvals(h + lam * w)  # [[0, -1], [1, 0]]: eigenvalues +-i
    assert np.allclose(np.sort(evals.imag), [-1.0, 1.0], atol=1e-14)
