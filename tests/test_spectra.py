import dataclasses
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cryptoherm import (
    DefectiveError,
    DegenerateSpectrumError,
    NonFiniteError,
    ShapeMismatchError,
    SpectrumNotRealError,
    as_matrix,
    diagonalize,
    ep_proximity,
    require_real_nondegenerate,
    spectrum_is_real,
)
from cryptoherm import spectra
from oracles import masked_min_gap

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
    flag, max_imag = spectrum_is_real(system)
    assert flag
    assert max_imag <= 1e-14
    # exp(0.3) evaluated independently
    assert np.allclose(system.eigenvalues.real, [-1.3498588075760032, 1.3498588075760032], rtol=1e-13)


def test_spectrum_is_real_hermitian_random():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = 0.5 * (a + a.conj().T)
    flag, _ = spectrum_is_real(diagonalize(h, TOL))
    assert flag


def test_spectrum_not_real_rotation_generator():
    system = diagonalize(np.array([[0.0, -1.0], [1.0, 0.0]]), TOL)
    flag, max_imag = spectrum_is_real(system)
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
            # both gates carry the spectrum the eigensolver returned for H
            assert exc.eigenvalues.dtype == complex
            assert np.array_equal(exc.eigenvalues, np.linalg.eig(h)[0])
            if exc.residual is None:
                gates.add("condition")
                assert exc.condition_number > exc.bound == 1.0 / tol
            else:
                gates.add("residual")
                assert exc.condition_number <= 1.0 / tol
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
    real=st.booleans(),
    k=st.integers(-40, 1000),
)
def test_diagonalize_scale_covariance(seed, n, jordan, real, k):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if real:
        h = h.real  # decomposed by the real eigensolver
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


def outcome(h, tol):
    """The system (``None`` if defective) and the name of the gate ``h``
    fails ("" if none)."""
    try:
        system = diagonalize(h, tol)
    except DefectiveError:
        return None, "DefectiveError"
    try:
        require_real_nondegenerate(system)
    except (SpectrumNotRealError, DegenerateSpectrumError) as exc:
        return system, type(exc).__name__
    return system, ""


def complex_reference(h, tol):
    """``outcome`` with the complex eigensolver forced on a real ``h``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_real_if_exact", lambda a: a)
        return outcome(h, tol)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    similar=st.booleans(),
    tol=st.sampled_from([1e-10, 1e-6]),
)
def test_real_matrix_matches_complex_arithmetic(seed, n, similar, tol):
    rng = np.random.default_rng(seed)
    if similar:
        # real spectrum with gaps of at least 0.2: well away from any EP
        s = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        d = np.cumsum(rng.uniform(0.2, 2.0, n)) - n
        h = s @ np.diag(d) @ np.linalg.inv(s)
    else:
        h = rng.standard_normal((n, n))  # conjugate pairs and real eigenvalues
    ref, ref_class = complex_reference(h, tol)
    assume(ref is not None)
    e_ref, cond = ref.eigenvalues, ref.condition_number
    norm_h = np.linalg.norm(h, 2)
    gap = spectra._min_gap(e_ref)
    assume(gap > 1e-3 * max(1.0, norm_h))  # away from EPs
    system, got_class = outcome(h, tol)
    assert got_class == ref_class
    # Both solvers return exact eigenpairs of H + E, ||E|| <= 10 n eps ||H||.
    # Bauer-Fike moves each eigenvalue by at most cond ||E||.  To first order
    # dP_n = sum_m (P_n E P_m + P_m E P_n) / (E_n - E_m) with ||P_n|| <= cond,
    # so each projector moves by at most 2 (n - 1) cond^2 ||E|| / gap.
    backward = 10.0 * n * spectra._EPS * norm_h
    e_bound = 100.0 * n * spectra._EPS * cond * max(1.0, norm_h)
    p_bound = 2.0 * 2.0 * (n - 1) * cond * cond * backward / gap
    # match each reference eigenvalue to its nearest; the gaps make it unique
    match = np.abs(e_ref[:, None] - system.eigenvalues[None, :]).argmin(axis=1)
    assert sorted(match) == list(range(n))
    assert np.abs(system.eigenvalues[match] - e_ref).max() <= e_bound
    for i, j in enumerate(match):
        p_ref = np.outer(ref.right_vectors[:, i], ref.left_vectors[:, i].conj())
        p = np.outer(system.right_vectors[:, j], system.left_vectors[:, j].conj())
        assert np.linalg.norm(p - p_ref, 2) <= p_bound


@pytest.mark.parametrize("h", [
    np.array([[1.0, 2.0], [0.5, -1.0]]),          # real eigenvalues
    np.array([[0.0, -1.0], [1.0, 0.0]]),          # the conjugate pair +-i
    np.array([[3.0]]),
])
def test_real_path_outputs_are_read_only_complex128(h):
    system = diagonalize(h, TOL)
    for arr in (system.eigenvalues, system.right_vectors, system.left_vectors, system.matrix):
        assert arr.dtype == np.complex128
        assert not arr.flags.writeable


def test_negative_zero_imaginary_parts_take_the_real_path():
    rng = np.random.default_rng(41)
    for n in (2, 3, 5, 8):
        h = rng.standard_normal((n, n))
        neg = h.astype(complex)
        neg.imag[...] = -0.0
        assert np.signbit(neg.imag).all()
        a, b = diagonalize(h, TOL), diagonalize(neg, TOL)
        for field in ("eigenvalues", "right_vectors", "left_vectors"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert a.condition_number == b.condition_number


def test_subnormal_imaginary_part_keeps_the_complex_solver():
    rng = np.random.default_rng(43)
    h = rng.standard_normal((4, 4)).astype(complex)
    h[2, 1] += 1j * 2.0**-1074
    assert np.count_nonzero(h.imag) == 1
    system = diagonalize(h, TOL)
    evals, vr = np.linalg.eig(h)
    order = np.lexsort((evals.imag, evals.real))
    vr = vr[:, order]
    assert system.eigenvalues.tobytes() == evals[order].tobytes()
    assert system.right_vectors.tobytes() == (vr / np.linalg.norm(vr, axis=0)).tobytes()
    # the real solver on h.real gives other bits, so dropping the part shows
    assert diagonalize(h.real, TOL).eigenvalues.tobytes() != system.eigenvalues.tobytes()


def test_ep_proximity_singular_hand_built_basis_is_inf_without_warning():
    from cryptoherm import BiorthogonalSystem

    r = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    hand = BiorthogonalSystem(np.array([0.0, 1.0], dtype=complex), r, np.eye(2, dtype=complex), TOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ep_proximity(hand) == (1.0, float("inf"))


def _summary_matrix(rng, kind, n):
    if kind == "real":  # real eigenvalues and exact conjugate pairs
        return rng.standard_normal((n, n))
    if kind == "complex":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    # exact degeneracies, real or complex, on a diagonal
    d = rng.integers(-2, 3, n).astype(complex)
    if kind == "degenerate-complex":
        d += 1j * rng.integers(-1, 2, n)
    return np.diag(d)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    kind=st.sampled_from(["real", "complex", "degenerate-real", "degenerate-complex"]),
    exponent=st.integers(-60, 60),
    hand_built=st.booleans(),
    tol=st.sampled_from([1e-10, 1e-6, 0.5]),
)
def test_spectral_summaries_match_the_reference_formulas(seed, n, kind, exponent, hand_built,
                                                           tol):
    from cryptoherm import BiorthogonalSystem

    h = _summary_matrix(np.random.default_rng(seed), kind, n) * 2.0**exponent
    if hand_built:
        e, vr = np.linalg.eig(h)
        system = BiorthogonalSystem(e.astype(complex), vr.astype(complex), vr.astype(complex), tol)
    else:
        try:
            system = diagonalize(h, tol)
        except DefectiveError:
            assume(False)
    e = system.eigenvalues
    real, max_imag = spectra._reality(e, tol)
    gap, scale = masked_min_gap(e), spectra._spectral_scale(e)
    if not real:
        expected = SpectrumNotRealError
    elif gap <= tol * scale:
        expected = DegenerateSpectrumError
    else:
        expected = None
    # the gate runs first, so it forms the summaries the checks below read
    try:
        require_real_nondegenerate(system)
        outcome = None
    except (SpectrumNotRealError, DegenerateSpectrumError) as exc:
        outcome = type(exc)
    assert outcome is expected
    assert (system._gap, system._max_imag, system._scale) == (gap, max_imag, scale)
    assert spectrum_is_real(system) == (real, max_imag)
    assert ep_proximity(system)[0] == gap


def test_spectral_summaries_are_never_shared_between_systems():
    def summaries(system):
        return system._gap, system._max_imag, system._scale

    def expected(system):
        e = system.eigenvalues
        return masked_min_gap(e), float(np.abs(e.imag).max()), spectra._spectral_scale(e)

    a = diagonalize(np.diag([0.0, 1.0]), TOL)
    twin = diagonalize(np.diag([0.0, 1.0]), TOL)
    b = dataclasses.replace(a, eigenvalues=np.array([0.0, 3.0 + 0.5j]))
    assert summaries(a) == expected(a) == (1.0, 0.0, 1.0)
    # lazy, and per system: neither a twin nor a copy inherits a's values
    assert not {"_gap", "_max_imag", "_scale"} & set(twin.__dict__)
    assert summaries(b) == expected(b) != summaries(a)
    assert summaries(twin) == summaries(a)

    # concurrent first reads of a fresh system all see the same values
    fresh = diagonalize(np.array([[0.0, 2.0], [1.0, 0.0]]), TOL)
    with ThreadPoolExecutor(4) as pool:
        seen = set(pool.map(lambda _: summaries(fresh), range(16)))
    assert seen == {expected(fresh)}
