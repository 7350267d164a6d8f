import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoherm import (
    BetaOutOfRangeError,
    DegenerateObservableError,
    DegenerateSpectrumError,
    InconsistentError,
    MetricFamily,
    NonPositiveWeightError,
    NoPositiveSolutionError,
    NotPositiveDefiniteError,
    NotQuasiHermitianError,
    PerturbationProblem,
    SpectrumNotRealError,
    UnderdeterminedError,
    assemble_metric,
    diagonalize,
    dyson_map,
    fix_ambiguity,
    hermitize,
    kg_beta,
    kg_hamiltonian,
    kg_metric,
    metric_from_matrix,
    quasi_hermiticity_residual,
)
from oracles import metric_from_seed, random_hermitian, random_real_spectrum_matrix

TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def kg_family(tau):
    return MetricFamily(diagonalize(kg_hamiltonian(tau), TOL))


def split_scale_beta(theta, tau):
    """Fit theta = s * [[e^-tau, b], [b, e^tau]]; returns (s, b, fit resid)."""
    s = theta[0, 0].real * np.exp(tau)
    b = theta[0, 1].real / s
    resid = np.linalg.norm(theta - s * kg_metric(tau, b).theta)
    return s, b, resid


# ---------------------------------------------------------------------------
# assemble_metric
# ---------------------------------------------------------------------------


def test_assemble_hermitian_orthonormal_gives_identity():
    rng = np.random.default_rng(1)
    h = random_hermitian(rng, 4) + np.diag(np.arange(4) * 3.0)  # spread spectrum
    family = MetricFamily(diagonalize(h, TOL))
    theta = assemble_metric(family, np.ones(4))
    assert np.allclose(theta.theta, np.eye(4), atol=1e-12)


def test_assemble_kg_tau0_closed_form():
    family = kg_family(0.0)
    k1, k2 = 1.3, 0.4
    theta = assemble_metric(family, [k1, k2]).theta
    # with (Re, Im)-ascending ordering the antisymmetric (E = -1) projector
    # comes first, so the off-diagonal carries (k2 - k1) / 2
    expected = 0.5 * (k1 + k2) * np.eye(2) + 0.5 * (k2 - k1) * SIGMA_X
    assert np.allclose(theta, expected, atol=1e-14)


def test_assemble_matches_kg_metric_up_to_scale():
    family = kg_family(0.3)
    ref = kg_metric(0.3, 0.4).theta
    # solve the 2x2 linear match for the weights reproducing ref
    projs = family.projectors()
    a = np.stack([p.reshape(-1) for p in projs], axis=1)
    kappa, *_ = np.linalg.lstsq(
        np.vstack([a.real, a.imag]),
        np.concatenate([ref.reshape(-1).real, ref.reshape(-1).imag]),
        rcond=None,
    )
    assert np.all(kappa > 0.0)
    got = assemble_metric(family, kappa).theta
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


def test_assemble_scale_covariance_exact_for_power_of_two():
    family = kg_family(0.7)
    kappa = np.array([0.8, 1.7])
    a = assemble_metric(family, 2.0 * kappa).theta
    b = 2.0 * assemble_metric(family, kappa).theta
    assert np.array_equal(a, b)


def test_assemble_scale_covariance_generic():
    family = kg_family(-0.4)
    kappa = np.array([1.1, 0.6])
    s = 1.7
    a = assemble_metric(family, s * kappa).theta
    b = s * assemble_metric(family, kappa).theta
    assert np.allclose(a, b, rtol=1e-15, atol=0.0)


def test_assemble_rejects_nonpositive_weights():
    family = kg_family(0.2)
    with pytest.raises(NonPositiveWeightError):
        assemble_metric(family, [1.0, 0.0])
    with pytest.raises(NonPositiveWeightError):
        assemble_metric(family, [1.0, -2.0])


def test_family_rejects_degenerate_and_complex_spectra():
    with pytest.raises(DegenerateSpectrumError):
        MetricFamily(diagonalize(np.eye(2), TOL))
    with pytest.raises(SpectrumNotRealError):
        MetricFamily(diagonalize(np.array([[0.0, -1.0], [1.0, 0.0]]), TOL))


def test_assembled_metric_satisfies_invariants():
    rng = np.random.default_rng(8)
    h, _, _ = random_real_spectrum_matrix(rng, 5)
    family = MetricFamily(diagonalize(h, TOL))
    theta = assemble_metric(family, rng.uniform(0.5, 2.0, 5))
    assert np.linalg.norm(theta.theta - theta.theta.conj().T) <= 1e-14
    assert np.linalg.eigvalsh(theta.theta).min() > 0.0
    assert quasi_hermiticity_residual(h, theta) <= 1e-12


# ---------------------------------------------------------------------------
# quasi_hermiticity_residual
# ---------------------------------------------------------------------------


def test_residual_trivial_hermitian():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 3)
    assert quasi_hermiticity_residual(h, np.eye(3)) <= 1e-15


def test_residual_kg_closed_form():
    for tau in (-2.0, -0.5, 0.0, 1.0, 2.0):
        for beta in (-0.9, 0.0, 0.5):
            res = quasi_hermiticity_residual(kg_hamiltonian(tau), kg_metric(tau, beta))
            assert res <= 1e-12


def test_residual_kg_identity_metric_nonzero():
    res = quasi_hermiticity_residual(kg_hamiltonian(1.0), np.eye(2))
    assert res > 0.1  # H - H^dag has entries e^2 - 1


def test_residual_gates_hold_near_the_float_limit():
    # unscaled, both products overflow: the residual read nan and nan > tol
    # let a metric that is not quasi-Hermitian through
    h = 2.0**600 * kg_hamiltonian(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = quasi_hermiticity_residual(h, np.eye(2))
        assert res == quasi_hermiticity_residual(kg_hamiltonian(1.0), np.eye(2))
        assert res > 0.8
        with pytest.raises(NotQuasiHermitianError):
            PerturbationProblem.build(h, np.eye(2), [SIGMA_X], TOL)
        with pytest.raises(NotQuasiHermitianError):
            hermitize(h, dyson_map(metric_from_matrix(np.eye(2), TOL)), TOL)
        with pytest.raises(NotPositiveDefiniteError, match="not Hermitian"):
            metric_from_matrix(2.0**600 * np.array([[2.0, 1.0], [0.0, 2.0]]), TOL)
        # entries whose sum overflows still symmetrize exactly
        big = 2.0**1023 * np.array([[1.5, 0.5], [0.5, 1.5]])
        assert np.array_equal(metric_from_matrix(big, TOL).theta, big)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    i=st.integers(-40, 1000),
    j=st.integers(-40, 1000),
)
def test_residual_scale_invariance(seed, n, i, j):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    theta = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = quasi_hermiticity_residual(2.0**j * h, 2.0**i * theta)
    assert scaled == quasi_hermiticity_residual(h, theta)


# ---------------------------------------------------------------------------
# fix_ambiguity
# ---------------------------------------------------------------------------


def test_hamiltonian_alone_is_underdetermined():
    family = kg_family(0.6)
    with pytest.raises(UnderdeterminedError):
        fix_ambiguity(family, [kg_hamiltonian(0.6)], TOL)


def test_fix_ambiguity_kg_beta_zero():
    family = kg_family(0.0)
    kappa = fix_ambiguity(family, [np.array([[0.0, 0.0], [0.0, 2.0]])], TOL)
    assert np.allclose(kappa, [1.0, 1.0], atol=1e-10)
    theta = assemble_metric(family, kappa).theta
    _, beta, resid = split_scale_beta(theta, 0.0)
    assert abs(beta) <= 1e-10
    assert resid <= 1e-10


def test_fix_ambiguity_kg_beta_half():
    family = kg_family(0.0)
    kappa = fix_ambiguity(family, [np.array([[0.0, 0.0], [1.0, 2.0]])], TOL)
    theta = assemble_metric(family, kappa).theta
    _, beta, resid = split_scale_beta(theta, 0.0)
    assert np.isclose(beta, 0.5, atol=1e-10)
    assert resid <= 1e-10


def test_fix_ambiguity_no_positive_solution():
    # beta = 3 from (a, b, c, d) = (0, 0, 3, 1): the compatible line exists
    # but is indefinite
    family = kg_family(0.0)
    with pytest.raises(NoPositiveSolutionError):
        fix_ambiguity(family, [np.array([[0.0, 0.0], [3.0, 1.0]])], TOL)


def test_fix_ambiguity_inconsistent_pair():
    # two eligible observables selecting different beta values
    family = kg_family(0.0)
    lam1 = np.array([[0.0, 0.0], [0.6, 1.0]])  # beta = 0.6
    lam2 = np.array([[0.0, 0.0], [0.2, 1.0]])  # beta = 0.2
    with pytest.raises(InconsistentError):
        fix_ambiguity(family, [lam1, lam2], TOL)


def test_fix_ambiguity_consistent_pair_is_fine():
    family = kg_family(0.4)
    lam1 = np.array([[0.0, 0.0], [0.3, 1.0]])
    beta = kg_beta(0.0, 0.0, 0.3, 1.0, 0.4)
    kappa = fix_ambiguity(family, [lam1, 2.5 * lam1], TOL)
    theta = assemble_metric(family, kappa).theta
    _, got, resid = split_scale_beta(theta, 0.4)
    assert np.isclose(got, beta, atol=1e-10)
    assert resid <= 1e-10


def test_fix_ambiguity_recovers_planted_weights():
    rng = np.random.default_rng(17)
    for _ in range(5):
        h, _, _ = random_real_spectrum_matrix(rng, 4)
        family = MetricFamily(diagonalize(h, TOL))
        kappa_target = rng.uniform(0.5, 2.0, 4)
        theta = assemble_metric(family, kappa_target).theta
        # any Theta^{-1} K with K Hermitian is quasi-Hermitian w.r.t. Theta
        lam = np.linalg.solve(theta, random_hermitian(rng, 4))
        kappa = fix_ambiguity(family, [lam], TOL)
        assert np.allclose(kappa, kappa_target / kappa_target[0], rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------------------
# Klein-Gordon fixtures
# ---------------------------------------------------------------------------


def test_kg_hamiltonian_entries():
    assert np.array_equal(kg_hamiltonian(0.0), SIGMA_X)
    h = kg_hamiltonian(0.5)
    assert np.isclose(h[0, 1].real, np.e, rtol=1e-15)
    assert h[1, 0] == 1.0 and h[0, 0] == 0.0 and h[1, 1] == 0.0


def test_kg_hamiltonian_eigenvalues_all_tau():
    rng = np.random.default_rng(4)
    for tau in rng.uniform(-2.0, 2.0, 10):
        e = np.sort(np.linalg.eigvals(kg_hamiltonian(tau)).real)
        assert np.allclose(e, [-np.exp(tau), np.exp(tau)], rtol=1e-12)


def test_kg_metric_entries_and_range():
    assert np.array_equal(kg_metric(0.0, 0.0).theta, np.eye(2))
    th = kg_metric(1.0, 0.3).theta
    assert np.isclose(th[0, 0].real, np.exp(-1.0), rtol=1e-15)
    assert np.isclose(th[1, 1].real, np.e, rtol=1e-15)
    assert th[0, 1] == 0.3
    for bad in (1.0, -1.0, 1.5):
        with pytest.raises(BetaOutOfRangeError):
            kg_metric(0.0, bad)


def test_kg_metric_positivity_boundary():
    # at tau = 0 the smallest eigenvalue is exactly 1 - beta
    for beta in (0.9, 0.99, 0.9999):
        smallest = np.linalg.eigvalsh(kg_metric(0.0, beta).theta).min()
        assert np.isclose(smallest, 1.0 - beta, atol=1e-12)


def test_kg_beta_values():
    assert kg_beta(0.0, 0.0, 0.0, 1.0, 0.77) == 0.0
    assert np.isclose(kg_beta(0.0, 0.0, 1.0, 2.0, 0.0), 0.5, atol=1e-15)
    assert np.isclose(kg_beta(0.0, 1.0, 1.0, 2.0, 0.0), 0.0, atol=1e-15)
    with pytest.raises(DegenerateObservableError):
        kg_beta(1.0, 0.3, 0.4, 1.0, 0.2)


# ---------------------------------------------------------------------------
# family completeness (small oracle; the full sweep is in acceptance)
# ---------------------------------------------------------------------------


def test_family_completeness_both_directions():
    rng = np.random.default_rng(12)
    for tau in (-1.5, 0.0, 0.8):
        family = kg_family(tau)
        projs = family.projectors()
        a = np.stack([p.reshape(-1) for p in projs], axis=1)
        a_real = np.vstack([a.real, a.imag])
        for _ in range(5):
            # kappa -> (s, beta) with |beta| < 1
            kappa = rng.uniform(0.2, 3.0, 2)
            theta = assemble_metric(family, kappa).theta
            s, beta, resid = split_scale_beta(theta, tau)
            assert s > 0.0 and abs(beta) < 1.0
            assert resid <= 1e-10 * np.linalg.norm(theta)
            # (s, beta) -> kappa > 0
            target = rng.uniform(0.3, 2.0) * kg_metric(tau, rng.uniform(-0.95, 0.95)).theta
            kap, *_ = np.linalg.lstsq(
                a_real,
                np.concatenate([target.reshape(-1).real, target.reshape(-1).imag]),
                rcond=None,
            )
            assert np.all(kap > 0.0)
            back = assemble_metric(family, kap).theta
            assert np.linalg.norm(back - target) <= 1e-10 * np.linalg.norm(target)


def test_planted_metric_seed_is_in_family():
    rng = np.random.default_rng(21)
    h, _, s = random_real_spectrum_matrix(rng, 3)
    theta_seed = metric_from_seed(rng, s)
    assert quasi_hermiticity_residual(h, theta_seed) <= 1e-12
