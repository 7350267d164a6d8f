import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cryptoherm.metric as metric_module
import cryptoherm.perturbation as perturbation
from cryptoherm.spectra import _min_gap as spectra_min_gap
from cryptoherm.spectra import _pow2_scale
from cryptoherm import (
    BiorthogonalSystem,
    DegenerateSpectrumError,
    MetricFamily,
    MetricOperator,
    MetricSeries,
    NonFiniteError,
    NotPositiveDefiniteError,
    NotQuasiHermitianError,
    PerturbationProblem,
    SeriesOverflowError,
    ShapeMismatchError,
    SingularResolventError,
    SolvabilityViolatedError,
    assemble_metric,
    commutator_gap,
    diagonalize,
    dyson_from_metric,
    dyson_map,
    hermitize,
    hidden_hermiticity_test,
    kg_hamiltonian,
    kg_metric,
    leading_delta,
    metric_from_matrix,
    metric_series,
    quasi_hermiticity_residual,
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
    reference_metric_series,
)

TOL = 1e-10
EPS = float(np.finfo(float).eps)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def kg_problem(tau=0.2, beta=0.25, w0=SIGMA_X, tol=TOL):
    return PerturbationProblem.build(kg_hamiltonian(tau), kg_metric(tau, beta), [w0], tol)


# ---------------------------------------------------------------------------
# problem construction
# ---------------------------------------------------------------------------


def test_build_validates_quasi_hermiticity():
    with pytest.raises(NotQuasiHermitianError):
        PerturbationProblem.build(kg_hamiltonian(1.0), np.eye(2), [SIGMA_X], TOL)


def _counting_residuals(monkeypatch):
    """Count the quasi-Hermiticity residuals measured (not read from a hold)."""
    calls = []
    inner = metric_module._pow2_factors

    def counted(*operands):
        calls.append(len(operands))
        return inner(*operands)

    monkeypatch.setattr(metric_module, "_pow2_factors", counted)
    return lambda: len(calls) // 2  # H's and Theta's factors per residual


def test_build_reads_the_residual_hermitize_measured(monkeypatch):
    h = kg_hamiltonian(0.3)
    theta = assemble_metric(MetricFamily(diagonalize(h, TOL)), [1.0, 2.0])
    measured = _counting_residuals(monkeypatch)
    hermitize(h, dyson_map(theta), TOL)
    assert measured() == 1
    PerturbationProblem.build(h, theta, [SIGMA_X], TOL)
    assert measured() == 1
    # equal values, other bits: an H with -0.0 for +0.0 is measured again
    minus_zero = h.copy()
    minus_zero[0, 0] = -0.0
    res = quasi_hermiticity_residual(minus_zero, theta)
    assert measured() == 2 and theta._residual == (minus_zero.tobytes(), res)
    assert quasi_hermiticity_residual(minus_zero, theta) == res and measured() == 2


def test_a_writable_metric_holds_no_residual(monkeypatch):
    h = kg_hamiltonian(0.3)
    theta = MetricOperator(np.array(kg_metric(0.3, 0.25).theta))
    measured = _counting_residuals(monkeypatch)
    for _ in range(2):
        assert quasi_hermiticity_residual(h, theta) <= TOL
    assert measured() == 2 and theta._residual is None


def test_a_held_residual_above_tol_still_fails_build():
    h = kg_hamiltonian(0.3)
    theta = kg_metric(0.6, 0.25)  # the metric of another tau
    res = quasi_hermiticity_residual(h, theta)
    assert res > TOL and theta._residual == (h.tobytes(), res)
    with pytest.raises(NotQuasiHermitianError):
        PerturbationProblem.build(h, theta, [SIGMA_X], TOL)


def test_w_coefficients_beyond_supplied_are_zero():
    prob = kg_problem()
    assert np.allclose(prob.w_at(0.3), SIGMA_X)
    assert np.allclose(prob.hamiltonian_at(0.3), kg_hamiltonian(0.2) + 0.3 * SIGMA_X)


def _counting(monkeypatch, name):
    """Replace ``perturbation.<name>`` by a wrapper that counts its calls."""
    calls = []
    inner = getattr(perturbation, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(perturbation, name, counted)
    return calls


def _assert_same_series(a, b):
    assert len(a.t_coeffs) == len(b.t_coeffs)
    for x, y in zip(a.t_coeffs, b.t_coeffs):
        assert np.array_equal(x, y)
    assert a.solvability_residuals == b.solvability_residuals


def _random_problem_inputs(seed=31, n=4):
    rng = np.random.default_rng(seed)
    h, _, s = random_real_spectrum_matrix(rng, n)
    y = rng.standard_normal((n, n))
    np.fill_diagonal(y, 0.0)  # real zero-diagonal: every order solvable
    return h, s @ (0.1 * y) @ np.linalg.inv(s)


def test_build_reuses_the_system_an_assembled_metric_carries(monkeypatch):
    h, w = _random_problem_inputs()
    family = MetricFamily(diagonalize(h, TOL))
    theta = assemble_metric(family, np.linspace(1.0, 2.0, 4))
    assert theta.system is family.system
    calls = _counting(monkeypatch, "diagonalize")
    prob = PerturbationProblem.build(h, theta, [w], TOL)
    assert calls == [] and prob.system is family.system
    one_ulp = h.copy()
    one_ulp[0, 0] = complex(np.nextafter(h[0, 0].real, np.inf), h[0, 0].imag)
    kg = kg_hamiltonian(0.3)
    kg_theta = assemble_metric(MetricFamily(diagonalize(kg, TOL)), [1.0, 2.0])
    minus_zero = kg.copy()
    minus_zero[0, 0] = -0.0
    cases = [
        (h, theta, w, TOL, 0),
        (h, metric_from_matrix(theta.theta, TOL), w, TOL, 1),
        (h, theta, w, 1e-9, 1),
        (one_ulp, theta, w, TOL, 1),
        (kg, kg_theta, SIGMA_X, TOL, 0),
        # equal values, other bits: the system of +0.0 is not reused for -0.0
        (minus_zero, kg_theta, SIGMA_X, TOL, 1),
    ]
    for h_in, theta_in, w_in, tol, expected_calls in cases:
        del calls[:]
        prob = PerturbationProblem.build(h_in, theta_in, [w_in], tol)
        assert len(calls) == expected_calls
        # the result of a build that always diagonalizes
        ref = PerturbationProblem(prob.h, prob.theta, prob.w_coeffs, diagonalize(h_in, tol))
        for name in ("eigenvalues", "right_vectors", "left_vectors"):
            assert np.array_equal(getattr(prob.system, name), getattr(ref.system, name))
        assert prob.system.condition_number == ref.system.condition_number
        _assert_same_series(metric_series(prob, 3), metric_series(ref, 3))


def test_problem_arrays_and_held_orders_are_read_only():
    h, w = _random_problem_inputs()
    family = MetricFamily(diagonalize(h, TOL))
    prob = PerturbationProblem.build(h, assemble_metric(family, np.ones(4)), [w], TOL)
    series = metric_series(prob, 3)
    for a in (prob.h, *prob.w_coeffs, *series.t_coeffs, family.system.matrix):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        series.t_coeffs[1][0, 0] = 0.0
    # the caller's arrays are copied, not frozen
    assert h.flags.writeable and w.flags.writeable


def test_metric_series_extends_the_orders_a_problem_holds(monkeypatch):
    h, w = _random_problem_inputs()
    family = MetricFamily(diagonalize(h, TOL))
    theta = assemble_metric(family, np.linspace(1.0, 2.0, 4))
    fresh = metric_series(PerturbationProblem.build(h, theta, [w], TOL), 5)
    prob = PerturbationProblem.build(h, theta, [w], TOL)
    calls = _counting(monkeypatch, "solve_order")
    short = metric_series(prob, 2)
    full = metric_series(prob, 5)
    assert [c[1] for c in calls] == [1, 2, 3, 4, 5]
    _assert_same_series(full, fresh)
    assert all(a is b for a, b in zip(short.t_coeffs, full.t_coeffs))
    prefix = metric_series(prob, 3)
    assert len(calls) == 5
    _assert_same_series(prefix, MetricSeries(full.t_coeffs[:4], full.solvability_residuals[:4]))
    assert metric_series(prob, 0).t_coeffs == (theta.theta,)


def test_failed_order_is_raised_again_and_not_held(monkeypatch):
    # order 1 is solvable (anti-Hermitian off-diagonal W0); the imaginary
    # diagonal W1 obstructs order 2
    h = np.diag([1.0, 2.0]).astype(complex)
    w0 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    w1 = np.array([[1.0j, 0.0], [0.0, 0.0]])
    prob = PerturbationProblem.build(h, np.eye(2), [w0, w1], TOL)
    calls = _counting(monkeypatch, "solve_order")
    for attempt in range(2):
        with pytest.raises(SolvabilityViolatedError) as info:
            metric_series(prob, 4)
        assert info.value.order == 2
        assert len(prob._orders) == 1
    # order 1 was solved once; order 2 was attempted on each call
    assert [c[1] for c in calls] == [1, 2, 2]


def test_concurrent_metric_series_callers_agree():
    h, w = _random_problem_inputs()
    theta = assemble_metric(MetricFamily(diagonalize(h, TOL)), np.linspace(1.0, 2.0, 4))
    ref = metric_series(PerturbationProblem.build(h, theta, [w], TOL), 8)
    prob = PerturbationProblem.build(h, theta, [w], TOL)
    results, errors = [], []

    def worker(i):
        try:
            for k in (1 + i % 8, 8, 3):
                results.append(metric_series(prob, k))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 24
    for series in results:
        k = series.order
        _assert_same_series(series, MetricSeries(ref.t_coeffs[: k + 1],
                                                 ref.solvability_residuals[: k + 1]))
    for (t, res, *_), t_ref, res_ref in zip(prob._orders, ref.t_coeffs[1:],
                                            ref.solvability_residuals[1:]):
        assert np.array_equal(t, t_ref) and res == res_ref


def _run_threads(worker, n=8):
    """Run ``worker(i)`` on n threads at a tiny switch interval; return the
    exceptions they raised."""
    errors = []

    def guarded(i):
        try:
            worker(i)
        except Exception as exc:  # reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return errors


def test_threads_sharing_a_metric_each_read_their_own_hs_residual():
    # a hold replaced between its test and its read would hand one thread
    # the residual of another thread's H
    theta = kg_metric(0.3, 0.25)
    hs = [kg_hamiltonian(0.3 + 0.01 * i) for i in range(4)]
    fresh = [quasi_hermiticity_residual(h, np.array(theta.theta)) for h in hs]
    assert len(set(fresh)) == len(hs)
    wrong = []

    def worker(i):
        for r in range(300):
            j = (i + r) % len(hs)
            if quasi_hermiticity_residual(hs[j], theta) != fresh[j]:
                wrong.append(j)

    assert _run_threads(worker) == [] and wrong == []


def test_leading_delta_reuses_the_problem_the_caller_holds(monkeypatch):
    h, w = _random_problem_inputs()
    theta = assemble_metric(MetricFamily(diagonalize(h, TOL)), np.linspace(1.0, 2.0, 4))
    problem = PerturbationProblem.build(h, theta, [w], TOL)
    metric_series(problem, 3)
    counts = {name: _counting(monkeypatch, name)
              for name in ("solve_order", "quasi_hermiticity_residual", "diagonalize")}
    delta0 = leading_delta(w, h, theta, TOL)
    assert {name: len(calls) for name, calls in counts.items()} == dict.fromkeys(counts, 0)
    expected = dyson_from_metric(metric_series(problem, 1), theta).delta_coeffs[0]
    assert delta0.tobytes() == expected.tobytes()


def test_build_returns_the_held_problem_only_for_the_same_bytes_and_tol():
    h, theta, w = kg_hamiltonian(0.2), kg_metric(0.2, 0.25), SIGMA_X
    one_ulp = h.copy()
    one_ulp[0, 1] = np.nextafter(h[0, 1].real, np.inf)
    minus_zero = w.copy()
    minus_zero[0, 0] = -0.0
    writable = MetricOperator(theta.theta.copy())
    cases = {
        "another tol": (h, theta, [w], 1e-9),
        "one ulp in H": (one_ulp, theta, [w], TOL),
        "-0.0 in W": (h, theta, [minus_zero], TOL),
        "an extra W coefficient": (h, theta, [w, np.zeros((2, 2))], TOL),
        "a raw-matrix theta": (h, theta.theta, [w], TOL),
        "a writable theta": (h, writable, [w], TOL),
    }
    for name, args in cases.items():
        problem = PerturbationProblem.build(h, theta, [w], TOL)
        assert PerturbationProblem.build(h, theta, [w.copy()], TOL) is problem, name
        other = PerturbationProblem.build(*args)
        assert other is not problem, name
        # a read-only metric now holds the last problem built on it
        assert (PerturbationProblem.build(*args) is other) == (args[1] is theta), name
    assert writable._problem is None


def test_a_metric_keeps_no_problem_alive(monkeypatch):
    h, theta, w = kg_hamiltonian(0.2), kg_metric(0.2, 0.25), SIGMA_X
    problem = PerturbationProblem.build(h, theta, [w], TOL)
    metric_series(problem, 2)
    ref = weakref.ref(problem)
    del problem
    assert ref() is None and theta._problem() is None
    calls = _counting(monkeypatch, "solve_order")
    metric_series(PerturbationProblem.build(h, theta, [w], TOL), 2)
    assert [c[1] for c in calls] == [1, 2]


def test_concurrent_builders_on_one_metric_agree():
    h, w = _random_problem_inputs()
    theta = assemble_metric(MetricFamily(diagonalize(h, TOL)), np.linspace(1.0, 2.0, 4))
    ref_series = metric_series(PerturbationProblem.build(h, theta, [w], TOL), 4)
    ref_delta = leading_delta(w, h, theta, TOL)
    results = []

    def worker(i):
        for _ in range(3):
            problem = PerturbationProblem.build(h, theta, [w], TOL)
            series = metric_series(problem, 1 + i % 4)
            results.append((series, leading_delta(w, h, theta, TOL)))

    assert _run_threads(worker) == [] and len(results) == 24
    for series, delta0 in results:
        k = series.order
        _assert_same_series(series, MetricSeries(ref_series.t_coeffs[: k + 1],
                                                 ref_series.solvability_residuals[: k + 1]))
        assert delta0.tobytes() == ref_delta.tobytes()


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
    t1, residual = solve_order(prob, 1)
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
    t1, residual = solve_order(prob, 1)
    assert residual <= 1e-14
    # direct check of the order-1 relation
    rhs = np.eye(2) @ w - w.conj().T @ np.eye(2)
    assert np.allclose(h.conj().T @ t1 - t1 @ h, rhs, atol=1e-13)


def test_solve_order_extends_the_held_orders_one_at_a_time():
    prob = kg_problem()
    for k in (0, 2):
        with pytest.raises(ValueError):
            solve_order(prob, k)
    assert prob._orders == ()
    t1, res1 = solve_order(prob, 1)
    t2, res2 = solve_order(prob, 2)
    assert len(prob._orders) == 2
    held = prob._orders
    again, res_again = solve_order(prob, 1)
    assert again.tobytes() == t1.tobytes() and res_again == res1
    assert prob._orders is held
    with pytest.raises(ValueError):
        solve_order(prob, 4)
    series = metric_series(prob, 2)
    assert series.t_coeffs[1:] == (t1, t2) and series.solvability_residuals[1:] == (res1, res2)


def test_metric_series_order_zero():
    prob = kg_problem()
    series = metric_series(prob, 0)
    assert series.order == 0
    assert np.array_equal(series.t_coeffs[0], prob.theta.theta)


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


def test_two_coefficient_perturbation_relation_order():
    # W_lambda = W0 + lambda W1: W^(i) pairs with T^(k-1-i), so the
    # truncated series solves the relation to O(lambda^(K+1))
    w1 = np.diag([0.3, -0.2]).astype(complex)
    prob = PerturbationProblem.build(
        kg_hamiltonian(0.2), kg_metric(0.2, 0.25), [SIGMA_X, w1], TOL
    )
    for order in (1, 2, 3, 4):
        series = metric_series(prob, order)

        def relation_residual(lam):
            h_lam = prob.hamiltonian_at(lam)
            t = series.truncated(lam)
            return np.linalg.norm(h_lam.conj().T @ t - t @ h_lam)

        ratio = relation_residual(0.02) / relation_residual(0.01)
        assert 2.0 ** (order + 1) * 0.7 <= ratio <= 2.0 ** (order + 1) * 1.4


def test_series_overflow_raises_before_any_product_overflows():
    # past the convergence radius |T^(k)| grows about 10^1.85 per order; a
    # metric scaled by 2^600 pushes it past the float range near k = 70
    h = np.diag([1.0, 2.0, 4.0]).astype(complex)
    w = 100.0 * np.array([[0, 1, 0.5], [-1, 0, 1], [-0.5, -1, 0]], dtype=complex)
    small = metric_series(PerturbationProblem.build(h, np.eye(3), [w], TOL), 60)
    big = PerturbationProblem.build(h, 2.0**600 * np.eye(3), [w], TOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = metric_series(big, 60)
        with pytest.raises(SeriesOverflowError) as info:
            metric_series(big, 100)
    # the scaled solve is exact, so the series scales with the metric
    for t_small, t_big in zip(small.t_coeffs, scaled.t_coeffs):
        assert np.array_equal(2.0**600 * t_small, t_big)
    order = info.value.order
    assert 60 < order <= 100
    last = metric_series(big, order - 1).t_coeffs[-1]
    assert np.isfinite(last).all()
    assert np.abs(last).max() > 1e305
    # the product of the two scales underflows to 0 here; a zero right-hand
    # side must still give zero residuals
    huge = PerturbationProblem.build(h, 2.0**1000 * np.eye(3), [2.0**600 * h], TOL)
    series = metric_series(huge, 2)
    assert series.solvability_residuals == (0.0, 0.0, 0.0)
    assert not np.any(series.t_coeffs[2])


def test_series_exact_where_the_eigenbasis_metric_leaves_the_float_range():
    # R^dag Theta R = diag(1.9, 0.1) * 2^1023 is past the float limit while
    # every entry of Theta is not; the series still scales with the metric
    h = np.array([[1.5, -0.5], [-0.5, 1.5]], dtype=complex)
    theta = np.array([[1.0, 0.9], [0.9, 1.0]])
    w = np.array([[0.0, 1e-3], [-1e-3, 0.0]], dtype=complex)
    small = metric_series(PerturbationProblem.build(h, theta, [w], TOL), 3)
    big = PerturbationProblem.build(h, 2.0**1023 * theta, [w], TOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = metric_series(big, 3)
    for t_small, t_big in zip(small.t_coeffs, scaled.t_coeffs):
        assert np.array_equal(2.0**1023 * t_small, t_big)


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
    t1_perm, _ = solve_order(prob_perm, 1)
    assert np.linalg.norm(t1_perm - t1_ref) <= 1e-12


def _series_outcome(h, theta, w, tol, order):
    """("", T coefficients) or the failure's name and the failing order."""
    try:
        return "", metric_series(PerturbationProblem.build(h, theta, [w], tol), order).t_coeffs
    except SolvabilityViolatedError as exc:
        return f"SolvabilityViolated at {exc.order}", None
    except DegenerateSpectrumError:
        return "DegenerateSpectrum", None


# H and W drawn with N <= 5, and a power of two 2^j to scale them by
SCALED_SERIES_DRAWS = given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    complex_w=st.booleans(),
    tol=st.sampled_from([1e-10, 1e-6]),
    order=st.integers(1, 4),
    j=st.integers(-40, 40),
)


def _scaled_series_inputs(seed, n, complex_w, tol):
    """(H, W, H's system, Theta) of one SCALED_SERIES_DRAWS draw."""
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    h = s @ np.diag(np.cumsum(rng.uniform(0.2, 2.0, n)) - n) @ np.linalg.inv(s)
    w = rng.standard_normal((n, n)) + (1j * rng.standard_normal((n, n)) if complex_w else 0.0)
    system = diagonalize(h, tol)
    return h, w, system, assemble_metric(MetricFamily(system), rng.uniform(0.5, 2.0, n))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@SCALED_SERIES_DRAWS
def test_metric_series_scale_covariance(seed, n, complex_w, tol, order, j):
    h, w, system, theta = _scaled_series_inputs(seed, n, complex_w, tol)
    # H^dag T - T H = rhs is homogeneous in (H, W): (2^j H, Theta, [2^j W])
    # has the same metric series in exact arithmetic.
    base, t_base = _series_outcome(h, theta, w, tol, order)
    scaled, t_scaled = _series_outcome(2.0**j * h, theta, 2.0**j * w, tol, order)
    # Two gates carry an absolute floor of 1: the degeneracy (and reality)
    # gate compares with tol * max(1, max |E|), and the solvability residual
    # divides by max(1, ||rhs||).  Where neither floor acts on either side,
    # the outcome must not depend on the scale.
    e_max = float(np.abs(system.eigenvalues).max())
    rhs = np.linalg.norm(theta.theta @ w - w.conj().T @ theta.theta)
    floor_acts = min(1.0, 2.0**j) * e_max < 1.0 or min(1.0, 2.0**j) * rhs < 1.0
    if not floor_acts:
        assert scaled == base
    if t_base is None or t_scaled is None:
        return
    # Both runs are exact for inputs within ||dH|| <= eta = 10 n eps ||H|| of
    # (a rescaled) H, and the gauge-fixed solve X -> H^dag X - X H inverts
    # with norm at most sigma = n cond^2 / gap, which moves by at most
    # sigma^2 * 2 eta.  So T^(k) is off by at most
    # d_k = sigma rho_k (4 sigma eta + 10 n eps) + 2 sigma ||W|| sum_{i<k} d_i
    # with rho_k = 2 ||W|| sum_{i<k} ||T^(i)||; the two runs differ by 2 d_k.
    d = _series_error_bound(h, system, np.linalg.norm(w, 2), t_base)
    for k in range(order + 1):
        assert np.linalg.norm(t_scaled[k] - t_base[k], 2) <= 2.0 * d[k]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@SCALED_SERIES_DRAWS
def test_each_held_order_keeps_the_pow2_scale_of_its_x(seed, n, complex_w, tol, order, j):
    # solve_order keeps _pow2_scale(X^(k)) with each order, taken from its
    # range check; a problem that recomputes it from the held X^(k) before
    # every order (the rule it replaces) solves the same bytes
    h, w, _, theta = _scaled_series_inputs(seed, n, complex_w, tol)
    try:
        prob = PerturbationProblem.build(2.0**j * h, theta, [2.0**j * w], tol)
    except DegenerateSpectrumError:
        return
    try:
        metric_series(prob, order)
    except SolvabilityViolatedError:
        pass  # the orders below the failing one are held
    held = len(prob._orders)
    for _, _, x, scale in prob._orders:
        assert scale == _pow2_scale(x)
    fresh = PerturbationProblem(prob.h, prob.theta, prob.w_coeffs, prob.system)
    for k in range(1, held + 1):
        solve_order(fresh, k)
        *before, (t, res, x, _) = fresh._orders
        object.__setattr__(fresh, "_orders", (*before, (t, res, x, _pow2_scale(x))))
    got, want = metric_series(fresh, held), metric_series(prob, held)
    assert [t.tobytes() for t in got.t_coeffs] == [t.tobytes() for t in want.t_coeffs]
    assert got.solvability_residuals == want.solvability_residuals


def _series_error_bound(h, system, w_norm, t_coeffs):
    """The d_k of test_metric_series_scale_covariance for the series
    ``t_coeffs`` of H, with ||W|| = ``w_norm``."""
    n = system.dim
    gap = spectra_min_gap(system.eigenvalues)
    sigma = n * system.condition_number**2 / gap
    eta = 10.0 * n * EPS * np.linalg.norm(h, 2)
    d = [0.0]
    for k in range(1, len(t_coeffs)):
        rho = 2.0 * w_norm * sum(np.linalg.norm(t, 2) for t in t_coeffs[:k])
        d.append(sigma * rho * (4.0 * sigma * eta + 10.0 * n * EPS) + 2.0 * sigma * w_norm * sum(d))
    return d


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    complex_ws=st.lists(st.booleans(), min_size=1, max_size=3),
    tol=st.sampled_from([1e-10, 1e-6]),
    order=st.integers(1, 6),
)
def test_metric_series_matches_the_working_basis_reference(seed, n, complex_ws, tol, order):
    rng = np.random.default_rng(seed)
    h, _, s = random_real_spectrum_matrix(rng, n)
    theta = metric_from_seed(rng, s)
    # In the eigenbasis a real zero-diagonal coefficient keeps every order
    # solvable; a complex one obstructs the first order it enters.
    ws = []
    for complex_w in complex_ws:
        y = 0.3 * rng.standard_normal((n, n))
        if complex_w:
            y = y + 0.3j * rng.standard_normal((n, n))
        else:
            np.fill_diagonal(y, 0.0)
        ws.append(s @ y @ np.linalg.inv(s))
    outcome, t_ref = reference_metric_series(h, theta, ws, order, tol)
    try:
        got, t = "", metric_series(PerturbationProblem.build(h, theta, ws, tol), order).t_coeffs
    except SolvabilityViolatedError as exc:
        got, t = f"SolvabilityViolated at {exc.order}", None
    assert got == outcome
    if t is None:
        return
    system = diagonalize(h, tol)
    d = _series_error_bound(h, system, sum(np.linalg.norm(w, 2) for w in ws), t_ref)
    for k in range(order + 1):
        assert np.linalg.norm(t[k] - t_ref[k], 2) <= 2.0 * d[k]


def test_degenerate_spectrum_raises():
    h = np.diag([1.0, 1.0 + 1e-13, 2.0]).astype(complex)
    with pytest.raises(DegenerateSpectrumError):
        PerturbationProblem.build(h, np.eye(3), [np.zeros((3, 3))], TOL)


def test_build_gates_the_real_part_gap_of_the_series():
    # eigenvalues 1 +- 6e-11 i: the complex gap 1.2e-10 clears tol, the
    # real-part gap the series divides by is 0
    h = np.array([[1.0, 6e-11], [-6e-11, 1.0]], dtype=complex)
    with pytest.raises(DegenerateSpectrumError):
        PerturbationProblem.build(h, np.eye(2), [SIGMA_X], TOL)


def test_hand_built_degenerate_problem_raises_on_every_series_call():
    # the constructor skips build's spectrum gate, so the first solve gates
    h = np.diag([1.0, 1.0 + 1e-13, 2.0]).astype(complex)
    eye = np.eye(3, dtype=complex)
    system = BiorthogonalSystem(np.diag(h).copy(), eye, eye, TOL)
    prob = PerturbationProblem(h, metric_from_matrix(eye, TOL), (np.zeros((3, 3)),), system)
    for _ in range(2):
        with pytest.raises(DegenerateSpectrumError):
            metric_series(prob, 2)
        assert prob._orders == () and "_eigenbasis" not in vars(prob)
    # order 0 solves nothing, so nothing gates it
    assert metric_series(prob, 0).t_coeffs == (prob.theta.theta,)


# ---------------------------------------------------------------------------
# Dyson corrections
# ---------------------------------------------------------------------------


def test_dyson_from_metric_trivial_cases():
    prob = PerturbationProblem.build(kg_hamiltonian(0.4), kg_metric(0.4, 0.1), [], TOL)
    deltas = dyson_from_metric(metric_series(prob, 1), prob.theta)
    assert np.linalg.norm(deltas.delta_coeffs[0]) == 0.0

    rng = np.random.default_rng(3)
    t1 = random_hermitian(rng, 3)
    series = MetricSeries((np.eye(3, dtype=complex), t1), (0.0, 0.0))
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


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6))
def test_dyson_from_metric_weights_path_matches_the_cholesky_path(seed, n):
    rng = np.random.default_rng(seed)
    h, _, s = random_real_spectrum_matrix(rng, n)
    system = diagonalize(h, TOL)
    kappa = rng.uniform(0.5, 2.0, n)
    theta = assemble_metric(MetricFamily(system), kappa)
    raw = metric_from_matrix(theta.theta, TOL)
    assert np.array_equal(theta.weights, kappa) and not theta.weights.flags.writeable
    assert raw.weights is None and kg_metric(0.2, 0.1).weights is None
    y = rng.standard_normal((n, n))
    np.fill_diagonal(y, 0.0)
    series = metric_series(PerturbationProblem.build(h, theta, [s @ y @ np.linalg.inv(s)], TOL), 2)
    d0, d1 = dyson_from_metric(series, theta).delta_coeffs
    c0, c1 = dyson_from_metric(series, raw).delta_coeffs
    # Both inverses are backward stable for Theta = L diag(kappa) L^dag, whose
    # condition number is at most cond(R)^2 kappa_max / kappa_min (the
    # columns of L^dag = R^{-1} and of R are biorthonormal), so each is
    # within eps_inv = 10 n eps cond(Theta) of Theta^{-1}, relative to its
    # norm; Delta^(1) also inherits the error of Delta_0 through
    # Delta_0^dag Theta Delta_0.
    th, t1, t2 = series.t_coeffs
    inv_norm = np.linalg.norm(np.linalg.inv(th), 2)
    eps_inv = 10.0 * n * EPS * system.condition_number**2 * kappa.max() / kappa.min()
    b0 = eps_inv * inv_norm * np.linalg.norm(t1, 2)
    norm0, th_norm = np.linalg.norm(c0, 2), np.linalg.norm(th, 2)
    b1 = (eps_inv * inv_norm * (np.linalg.norm(t2, 2) + norm0**2 * th_norm)
          + inv_norm * th_norm * (2.0 * norm0 + b0) * b0)
    assert np.linalg.norm(d0 - c0, 2) <= b0
    assert np.linalg.norm(d1 - c1, 2) <= b1


def test_dyson_from_metric_returns_one_term_per_order():
    prob = kg_problem()
    for order in range(6):
        assert len(dyson_from_metric(metric_series(prob, order), prob.theta).delta_coeffs) == order


def _rebuilt_metric_correction(deltas, th, m):
    """T^(m) from Delta_0 .. Delta_{m-1}: the lambda^m coefficient of
    (1 + lambda Delta^dag) Theta (1 + lambda Delta), formed term by term."""
    d = deltas[m - 1]
    t = d.conj().T @ th + th @ d
    for i in range(m - 1):
        t = t + deltas[i].conj().T @ th @ deltas[m - 2 - i]
    return t


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), order=st.integers(1, 6))
def test_dyson_terms_rebuild_every_metric_correction(seed, n, order):
    rng = np.random.default_rng(seed)
    h, _, s = random_real_spectrum_matrix(rng, n)
    theta = assemble_metric(MetricFamily(diagonalize(h, TOL)), rng.uniform(0.5, 2.0, n))
    # a real Y keeps every order's energy corrections real, so all orders solve
    y = rng.standard_normal((n, n))
    np.fill_diagonal(y, 0.0)
    series = metric_series(PerturbationProblem.build(h, theta, [s @ y @ np.linalg.inv(s)], TOL),
                           order)
    th = series.t_coeffs[0]
    th_norm, th_cond = np.linalg.norm(th, 2), np.linalg.cond(th)
    for metric in (theta, th):  # the weights route, then the Cholesky route
        deltas = dyson_from_metric(series, metric).delta_coeffs
        assert len(deltas) == order
        # Delta_k = Theta^{-1} S_k with Theta^{-1} backward stable to about
        # n eps cond(Theta), and every term of T^(m) or of Theta Delta_k is at
        # most ||Theta|| (1 + sum ||Delta_k||)^2 in size.  The bound is
        # absolute: at n = 2 the T^(m) with m >= 3 are of rounding size.
        size = 1.0 + sum(np.linalg.norm(d, 2) for d in deltas)
        bound = n * EPS * th_norm * th_cond * size**2
        for k, d in enumerate(deltas):
            s_k = th @ d
            assert np.linalg.norm(s_k - s_k.conj().T, 2) <= bound
            rebuilt = _rebuilt_metric_correction(deltas, th, k + 1)
            assert np.linalg.norm(rebuilt - series.t_coeffs[k + 1], 2) <= bound


def test_dyson_from_metric_rejects_a_theta_of_another_shape():
    with pytest.raises(ShapeMismatchError, match="theta has shape"):
        dyson_from_metric(metric_series(kg_problem(), 2), np.eye(3))


@pytest.mark.filterwarnings("error")
def test_dyson_terms_past_the_float_range_raise_without_a_warning():
    # the metric series stays below 1e294 through K = 100, but the Delta
    # series converges on a smaller disc and leaves the float range first
    rng = np.random.default_rng(0)
    n = 8
    s = np.eye(n) + (0.3 / np.sqrt(n)) * rng.standard_normal((n, n))
    s_inv = np.linalg.inv(s)
    h0 = s @ np.diag(np.linspace(-1.0, 1.0, n)) @ s_inv
    m = 120.0 * rng.standard_normal((n, n))
    np.fill_diagonal(m, 0.0)
    theta = assemble_metric(MetricFamily(diagonalize(h0, TOL)), np.ones(n))
    series = metric_series(PerturbationProblem.build(h0, theta, [s @ m @ s_inv], TOL), 100)
    assert max(float(np.abs(t).max()) for t in series.t_coeffs) < 1e294
    for metric in (theta, theta.theta):
        with pytest.raises(NonFiniteError, match="Delta_"):
            dyson_from_metric(series, metric)


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


def test_leading_delta_is_the_order_one_series_term():
    prob = kg_problem()
    d_direct = leading_delta(SIGMA_X, prob.h, prob.theta, TOL)
    d_series = dyson_from_metric(metric_series(prob, 1), prob.theta).delta_coeffs[0]
    assert np.array_equal(d_direct, d_series)


def test_leading_delta_checks_quasi_hermiticity():
    with pytest.raises(NotQuasiHermitianError):
        leading_delta(SIGMA_X, kg_hamiltonian(1.0), np.eye(2), TOL)


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
    series = MetricSeries((theta, np.eye(2, dtype=complex)), (0.0, 0.0))
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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    lam=st.floats(-1.0, 1.0),
    d_exp=st.integers(-3, 1),
)
def test_v_w_round_trip_property(seed, n, lam, d_exp):
    rng = np.random.default_rng(seed)
    w, d, h = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3))
    d *= 10.0**d_exp
    try:
        back = w_from_v(v_from_w(w, d, h, lam), d, h, lam)
    except SingularResolventError:
        assume(False)
    # Each solve with M = 1 + lam D is backward stable, and V M restores
    # M W up to eps * cond(M) * ||M W + D H - H D||.
    m = np.eye(n) + lam * d
    cond = np.linalg.cond(m)
    m_inv = np.linalg.norm(np.linalg.inv(m), 2)
    comm = 2.0 * np.linalg.norm(d) * np.linalg.norm(h)
    bound = 10.0 * n * EPS * cond * (cond * np.linalg.norm(w) + m_inv * comm)
    assert np.linalg.norm(back - w) <= bound


@pytest.mark.filterwarnings("error")
def test_taylor_sums_keep_their_bits_and_raise_past_the_float_range():
    rng = np.random.default_rng(71)
    coeffs = [random_hermitian(rng, 3) for _ in range(4)]
    for lam in (0.0, -0.3, 0.05, 7.0, 1e60):
        loop = np.zeros((3, 3), dtype=complex)
        for k, c in enumerate(coeffs):
            loop = loop + lam**k * c
        assert np.array_equal(perturbation._taylor(coeffs, lam, 3), loop)
    assert np.array_equal(perturbation._taylor((), 1e308, 3), np.zeros((3, 3)))
    eye = np.eye(2, dtype=complex)
    for coeffs, lam in (([eye] * 3, 1e200),  # lam**2 leaves the range
                        ([eye, 2.0 * eye], 1e308),  # the term lam * C_1 does
                        ([1e308 * eye, eye], 1e308),  # the sum does
                        ([eye, eye], float("nan"))):
        with pytest.raises(NonFiniteError, match="leaves the double-precision range"):
            perturbation._taylor(coeffs, lam, 2)


@pytest.mark.filterwarnings("error")
def test_hamiltonian_at_is_the_taylor_sum_of_h_and_the_w_coefficients():
    rng = np.random.default_rng(73)
    w0, w1 = (random_hermitian(rng, 2) for _ in range(2))
    h = kg_hamiltonian(0.2)
    prob = PerturbationProblem.build(h, kg_metric(0.2, 0.25), [w0, w1], TOL)
    assert np.allclose(prob.hamiltonian_at(0.3), h + 0.3 * w0 + 0.09 * w1, rtol=0.0, atol=1e-15)
    assert np.array_equal(kg_problem(w0=w0).hamiltonian_at(0.3), h + 0.3 * w0)
    with pytest.raises(NonFiniteError):
        kg_problem(w0=2.0 * SIGMA_X).hamiltonian_at(1e308)


@pytest.mark.filterwarnings("error")
def test_resolvent_past_the_float_range_raises_without_a_warning():
    d = np.array([[0.5, 2.0], [0.0, 1.0]], dtype=complex)
    assert np.array_equal(perturbation._resolvent(d, 0.25), np.eye(2) + 0.25 * d)
    with pytest.raises(NonFiniteError):
        perturbation._resolvent(d, 1e308)
    with pytest.raises(NonFiniteError):
        v_from_w(np.full((2, 2), 1e308), d, np.eye(2), 1e10)


@pytest.mark.filterwarnings("error")
def test_v_and_w_past_the_unscaled_products_range_raise():
    # m W and V m overflow, although V and W themselves would be finite: a
    # product past the float range raises, with no floating-point warning.
    d = np.array([[0.5, 2.0], [0.0, 1.0]], dtype=complex)
    h = 2.0**20 * np.eye(2)
    rng = np.random.default_rng(5)
    w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for convert, name in ((v_from_w, "V"), (w_from_v, "W")):
        assert np.abs(convert(w, d, h, 1e10)).max() > 1.0
        with pytest.raises(NonFiniteError, match=f"^{name} leaves the double-precision range"):
            convert(2.0**996 * w, d, h, 1e10)


@pytest.mark.filterwarnings("error")
def test_cancelling_products_past_the_float_range_raise():
    # [M, M] = 0 while M M overflows: where the same call with H = 0 is
    # finite, the products still leave the range before they cancel, so
    # each helper raises instead of returning the other terms' bits.
    zero = np.zeros((2, 2))
    rng = np.random.default_rng(5)
    v = 2.0**980 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    huge = 2.0**996 * np.array([[1.0, 1.0], [-1.0, 1.0]])
    assert np.isfinite(commutator_gap(v, zero, huge, zero))
    with pytest.raises(NonFiniteError, match="^the commutator gap leaves"):
        commutator_gap(v, zero, huge, huge)
    m = 2.0**-400 * huge
    for convert, name in ((v_from_w, "V"), (w_from_v, "W")):
        assert np.isfinite(convert(np.eye(2), m, zero, 2.0**-600)).all()
        with pytest.raises(NonFiniteError, match=f"^{name} leaves the double-precision range"):
            convert(np.eye(2), m, m, 2.0**-600)


def test_singular_resolvent_detected():
    h = np.eye(2)
    with pytest.raises(SingularResolventError):
        v_from_w(np.eye(2), -np.eye(2), h, 1.0)


def test_resolvent_gate_rejects_a_condition_number_within_ten_times_its_limit():
    # 1 + Delta = diag(1, 1.0003e-13): condition number 9.997e12, above the
    # limit of 1e12 and below 1e13
    with pytest.raises(SingularResolventError, match="condition number 9.997e"):
        v_from_w(np.eye(2), np.diag([0.0, -1.0 + 1e-13]), np.eye(2), 1.0)


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
