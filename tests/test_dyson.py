import numpy as np
import pytest

from cryptoherm import (
    MetricOperator,
    NotPositiveDefiniteError,
    NotQuasiHermitianError,
    ShapeMismatchError,
    diagonalize,
    dyson_map,
    hermitize,
    kg_hamiltonian,
    kg_metric,
    metric_from_matrix,
    pullback_observable,
)
from oracles import metric_from_seed, random_hermitian, random_real_spectrum_matrix

TOL = 1e-10


def test_identity_metric_gives_identity_map():
    omega = dyson_map(metric_from_matrix(np.eye(3), TOL))
    assert np.allclose(omega.omega, np.eye(3), atol=1e-14)
    assert np.allclose(omega.omega_inv, np.eye(3), atol=1e-14)
    assert np.isclose(omega.condition_number, 1.0, rtol=1e-12)
    assert not omega.ill_conditioned


def test_ill_conditioned_flag_within_ten_times_its_guard():
    # cond(Theta) = 1e13 lies between the guard of 1e12 and ten times it
    omega = dyson_map(metric_from_matrix(np.diag([1.0, 1e-13]), TOL))
    assert omega.condition_number == pytest.approx(1e13, rel=1e-12)
    assert omega.ill_conditioned


def test_diagonal_metric_square_root():
    omega = dyson_map(metric_from_matrix(np.diag([4.0, 9.0]), TOL))
    assert np.allclose(omega.omega, np.diag([2.0, 3.0]), atol=1e-14)


def test_kg_metric_factorization_residual():
    theta = kg_metric(0.7, 0.2)
    omega = dyson_map(theta)
    assert np.linalg.norm(omega.omega.conj().T @ omega.omega - theta.theta) <= 1e-12
    assert np.linalg.norm(omega.omega @ omega.omega_inv - np.eye(2)) <= 1e-12


def test_indefinite_metric_rejected():
    bad = MetricOperator(np.diag([1.0, -1.0]).astype(complex))
    with pytest.raises(NotPositiveDefiniteError):
        dyson_map(bad)


def test_hermitize_trivial():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 3)
    omega = dyson_map(metric_from_matrix(np.eye(3), TOL))
    assert np.allclose(hermitize(h, omega, TOL), h, atol=1e-13)


def test_hermitize_kg():
    for tau in (-1.0, 0.3, 1.2):
        h = kg_hamiltonian(tau)
        image = hermitize(h, dyson_map(kg_metric(tau, 0.0)), TOL)
        assert np.linalg.norm(image - image.conj().T) <= 1e-12 * np.linalg.norm(image)
        e = np.sort(np.linalg.eigvalsh(image))
        assert np.allclose(e, [-np.exp(tau), np.exp(tau)], rtol=1e-12)


def test_hermitize_rejects_wrong_metric():
    with pytest.raises(NotQuasiHermitianError):
        hermitize(kg_hamiltonian(1.0), dyson_map(metric_from_matrix(np.eye(2), TOL)), TOL)


def test_pullback_identity_and_roundtrip():
    theta = kg_metric(0.5, 0.1)
    omega = dyson_map(theta)
    assert np.allclose(pullback_observable(np.eye(2), omega), np.eye(2), atol=1e-13)
    h = kg_hamiltonian(0.5)
    image = hermitize(h, omega, TOL)
    back = pullback_observable(image, omega)
    assert np.linalg.norm(back - h) <= 1e-10 * np.linalg.norm(h)


def test_pullback_of_hermitian_is_quasi_hermitian():
    rng = np.random.default_rng(41)
    theta = kg_metric(0.4, 0.1)
    omega = dyson_map(theta)
    for _ in range(5):
        v = random_hermitian(rng, 2)
        pulled = pullback_observable(v, omega)
        defect = np.linalg.norm(pulled.conj().T @ theta.theta - theta.theta @ pulled)
        assert defect <= 1e-11


def test_pullback_shape_mismatch():
    omega = dyson_map(metric_from_matrix(np.eye(2), TOL))
    with pytest.raises(ShapeMismatchError):
        pullback_observable(np.eye(3), omega)


def test_isospectrality_random_pairs():
    rng = np.random.default_rng(55)
    for _ in range(10):
        h, e, s = random_real_spectrum_matrix(rng, 4)
        theta = metric_from_matrix(metric_from_seed(rng, s), TOL)
        image = hermitize(h, dyson_map(theta), TOL)
        assert np.allclose(np.sort(np.linalg.eigvalsh(image)), e, atol=1e-10)


def test_gauge_freedom_and_determinism():
    rng = np.random.default_rng(60)
    theta = kg_metric(0.9, -0.3)
    omega = dyson_map(theta)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    rotated = q @ omega.omega
    assert np.linalg.norm(rotated.conj().T @ rotated - theta.theta) <= 1e-12
    again = dyson_map(theta)
    assert np.array_equal(omega.omega, again.omega)
    assert np.array_equal(omega.omega_inv, again.omega_inv)
