import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptoherm import (
    DefectiveError,
    NonFiniteError,
    ShapeMismatchError,
    as_matrix,
    diagonalize,
    ep_proximity,
    spectrum_is_real,
)
from cryptoherm.spectra import require_real_nondegenerate
from cryptoherm.errors import DegenerateSpectrumError, SpectrumNotRealError

TOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(ShapeMismatchError):
        as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        as_matrix([[0.0, np.nan], [0.0, 0.0]])


def test_tolerance_range():
    with pytest.raises(ValueError):
        diagonalize(SIGMA_X, 0.0)
    with pytest.raises(ValueError):
        diagonalize(SIGMA_X, 1.5)


def test_sigma_x_spectrum_and_vectors():
    system = diagonalize(SIGMA_X, TOL)
    assert np.allclose(system.eigenvalues, [-1.0, 1.0], atol=1e-14)
    # antisymmetric vector carries -1, symmetric carries +1
    r = system.right_vectors
    assert np.isclose(r[1, 0] / r[0, 0], -1.0, atol=1e-14)
    assert np.isclose(r[1, 1] / r[0, 1], 1.0, atol=1e-14)
    assert np.allclose(np.abs(r), 1.0 / np.sqrt(2.0), atol=1e-14)


def test_identity_block_biorthonormalization():
    system = diagonalize(np.eye(3), TOL)
    assert np.allclose(system.eigenvalues, np.ones(3), atol=1e-15)
    assert np.allclose(system.right_vectors, np.eye(3), atol=1e-12)
    assert np.allclose(system.left_vectors, np.eye(3), atol=1e-12)


def test_jordan_block_is_defective():
    with pytest.raises(DefectiveError):
        diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]), TOL)


def test_nan_input_rejected():
    with pytest.raises(NonFiniteError):
        diagonalize(np.array([[0.0, np.nan], [1.0, 0.0]]), TOL)


def test_spectrum_is_real_kg_tau_03():
    from cryptoherm import kg_hamiltonian

    system = diagonalize(kg_hamiltonian(0.3), TOL)
    flag, max_imag = spectrum_is_real(system, TOL)
    assert flag
    assert max_imag <= 1e-14
    # exp(0.3) evaluated independently
    assert np.allclose(system.eigenvalues.real, [-1.3498588075760032, 1.3498588075760032], rtol=1e-13)


def test_spectrum_is_real_hermitian_random():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (a + a.conj().T)
    flag, _ = spectrum_is_real(diagonalize(h, TOL), TOL)
    assert flag


def test_spectrum_not_real_rotation_generator():
    system = diagonalize(np.array([[0.0, -1.0], [1.0, 0.0]]), TOL)
    flag, max_imag = spectrum_is_real(system, TOL)
    assert not flag
    assert np.isclose(max_imag, 1.0, atol=1e-14)  # eigenvalues are +-i


def test_ep_proximity_identity():
    min_gap, cond = ep_proximity(diagonalize(np.eye(2), TOL))
    assert min_gap == 0.0
    assert np.isclose(cond, 1.0, rtol=1e-12)


def test_ep_proximity_kg_tau0():
    min_gap, cond = ep_proximity(diagonalize(SIGMA_X, TOL))
    assert np.isclose(min_gap, 2.0, rtol=1e-14)
    assert np.isclose(cond, 1.0, rtol=1e-12)


def test_ep_proximity_near_defective():
    eps = 1e-3
    h = np.array([[0.0, eps**2], [1.0, 0.0]])
    min_gap, cond = ep_proximity(diagonalize(h, TOL))
    # closed form: eigenvalues +-eps, eigenvectors (+-eps, 1), cond = 1/eps
    assert np.isclose(min_gap, 2.0 * eps, rtol=1e-10)
    assert np.isclose(cond, 1.0 / eps, rtol=1e-6)


def test_reconstruction_property():
    rng = np.random.default_rng(23)
    for _ in range(10):
        h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        system = diagonalize(h, TOL)
        rel = np.linalg.norm(system.reconstruct() - h) / np.linalg.norm(h)
        assert rel <= 10.0 * TOL


def test_left_right_duality():
    rng = np.random.default_rng(5)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    e = diagonalize(h, TOL).eigenvalues
    e_dag = diagonalize(h.conj().T, TOL).eigenvalues
    conj = np.conj(e)
    conj = conj[np.lexsort((conj.imag, conj.real))]
    assert np.allclose(e_dag, conj, atol=1e-10)


def test_determinism_bitwise():
    rng = np.random.default_rng(99)
    h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = diagonalize(h, TOL)
    b = diagonalize(h.copy(), TOL)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.right_vectors, b.right_vectors)
    assert np.array_equal(a.left_vectors, b.left_vectors)


def test_biorthonormalization_invariants():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    system = diagonalize(h, TOL)
    n = system.dim
    assert np.linalg.norm(system.left_vectors.conj().T @ system.right_vectors - np.eye(n)) < 1e-12
    assert np.allclose(np.linalg.norm(system.right_vectors, axis=0), 1.0, atol=1e-14)


def test_require_real_nondegenerate_gates():
    with pytest.raises(SpectrumNotRealError):
        require_real_nondegenerate(diagonalize(np.array([[0.0, -1.0], [1.0, 0.0]]), TOL))
    with pytest.raises(DegenerateSpectrumError):
        require_real_nondegenerate(diagonalize(np.eye(2), TOL))


def test_ep_proximity_reuses_diagonalize_condition_number():
    rng = np.random.default_rng(17)
    for n in (1, 2, 5, 8):
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        system = diagonalize(h, TOL)
        sv = np.linalg.svd(system.right_vectors, compute_uv=False)
        assert system.condition_number is not None
        assert ep_proximity(system)[1] == pytest.approx(sv[0] / sv[-1], rel=1e-12)


def test_ep_proximity_hand_built_system_computes_condition_number():
    from cryptoherm import BiorthogonalSystem

    rng = np.random.default_rng(19)
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    system = diagonalize(h, TOL)
    hand = BiorthogonalSystem(
        system.eigenvalues, system.right_vectors, system.left_vectors, system.tolerance
    )
    assert hand.condition_number is None
    sv = np.linalg.svd(system.right_vectors, compute_uv=False)
    min_gap, cond = ep_proximity(hand)
    assert cond == float(sv[0] / sv[-1])
    assert min_gap == ep_proximity(system)[0]


def test_defective_error_carries_condition_gate_fields():
    eps = 1e-12
    h = np.array([[0.0, eps**2], [1.0, 0.0]])  # eigenvalues +-eps, cond 1/eps
    with pytest.raises(DefectiveError) as info:
        diagonalize(h, TOL)
    exc = info.value
    assert exc.bound == 1.0 / TOL
    assert exc.condition_number == pytest.approx(1.0 / eps, rel=1e-3)
    assert exc.residual is None
    assert str(exc) == (
        "eigenvector-basis condition number exceeds 1/tol = 1.000e+10; "
        "matrix is (near-)defective"
    )


def test_defective_error_fields_name_the_failed_gate():
    # similarity-transformed Jordan blocks plus noise trip both gates
    gates = set()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        j = np.diag(np.full(n, rng.standard_normal())) + np.diag(np.ones(n - 1), 1)
        s = rng.standard_normal((n, n))
        h = s @ j @ np.linalg.inv(s) + 10.0 ** rng.uniform(-16, -4) * rng.standard_normal((n, n))
        tol = 10.0 ** rng.uniform(-15, -3)
        try:
            diagonalize(h, tol)
        except DefectiveError as exc:
            if exc.residual is None:
                gates.add("condition")
                assert exc.condition_number > exc.bound == 1.0 / tol
            else:
                gates.add("residual")
                assert exc.condition_number is None
                assert exc.residual > exc.bound
                assert str(exc) == (
                    f"biorthogonal residual {exc.residual:.3e} exceeds {exc.bound:.3e}; "
                    "eigenbasis is unreliable"
                )
    assert gates == {"condition", "residual"}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    jordan=st.booleans(),
    k=st.integers(-40, 1000),
)
def test_diagonalize_scale_covariance(seed, n, jordan, k):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if jordan and n >= 2:
        h = np.triu(h)
        h[1, 1] = h[0, 0]  # exact Jordan block: defective at every scale

    def attempt(m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a success path must not warn
            try:
                return diagonalize(m, TOL)
            except DefectiveError:
                return None

    base, scaled = attempt(h), attempt(2.0**k * h)
    assert (base is None) == (scaled is None)
    if base is not None:
        expected = 2.0**k * base.eigenvalues
        dist = np.abs(scaled.eigenvalues[:, None] - expected[None, :]).min(axis=1)
        assert dist.max() <= TOL * np.abs(expected).max()
