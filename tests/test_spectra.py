import dataclasses
import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from cryptoherm import InvalidBracketError, lambda_max, spectra
from oracles import masked_min_gap
from test_stability import BOUNDARY_SEARCHES

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


def test_condition_gate_rejects_a_basis_within_ten_times_its_bound():
    # cond 3.16e10 lies between 1/tol and 10/tol: a gate loosened tenfold
    # passes this basis
    with pytest.raises(DefectiveError) as info:
        diagonalize([[1.0, 1.0], [1e-21, 1.0]], TOL)
    assert 1.0 / TOL < info.value.condition_number < 10.0 / TOL
    assert info.value.residual is None


def test_residual_gate_rejects_a_basis_within_ten_times_its_bound(monkeypatch):
    # Eigenvectors moved by 2e-13 give residuals 1.8 to 5.7 times the
    # achievable bound 100 n eps cond at tol 1e-15: a bound loosened
    # tenfold accepts every one of them.
    gufunc, *rest = spectra._ROUTINES["eig"]

    def perturbed(a, **kwargs):
        evals, vr = gufunc(a, **kwargs)
        return evals, vr + 2e-13 * np.random.default_rng(3).standard_normal(vr.shape)

    monkeypatch.setitem(spectra._ROUTINES, "eig", (perturbed, *rest))
    hs = np.stack([np.random.default_rng(seed).standard_normal((4, 4)) for seed in range(4, 8)])
    outcomes = list(diagonalize(hs, 1e-15))
    for h in hs:
        with pytest.raises(DefectiveError) as info:
            diagonalize(h, 1e-15)
        outcomes.append(info.value)
    for exc in outcomes:
        assert isinstance(exc, DefectiveError)
        assert exc.bound < exc.residual < 10.0 * exc.bound
        assert exc.bound == 100.0 * 4 * np.finfo(float).eps * exc.condition_number


_MESSAGES = {"eig": "Eigenvalues did not converge", "svdvals": "SVD did not converge",
             "inv": "Singular matrix"}


def _failing(routine):
    """``routine``'s entry of ``spectra._ROUTINES`` with a gufunc that sets
    the invalid flag, as a LAPACK failure does, before it computes."""
    gufunc, *rest = spectra._ROUTINES[routine]

    def failing(*operands, **kwargs):
        np.subtract(np.inf, np.inf)
        return gufunc(*operands, **kwargs)

    return (failing, *rest)


@pytest.mark.parametrize("stack", [False, True], ids=["matrix", "stack"])
@pytest.mark.parametrize("routine", sorted(_MESSAGES))
def test_a_lapack_failure_raises_the_routines_error(monkeypatch, routine, stack):
    monkeypatch.setitem(spectra._ROUTINES, routine, _failing(routine))
    h = np.diag([1.0, 2.0, 3.0]) + np.triu(np.full((3, 3), 0.5), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match=f"^{_MESSAGES[routine]}$"):
            diagonalize(np.stack([h, h]) if stack else h, TOL)


def test_diagonalize_restores_the_callers_error_state(monkeypatch):
    def caller_callback(err, flag):
        raise AssertionError("the caller's callback is never reached")

    jordan = [[1.0, 1.0], [0.0, 1.0]]
    with np.errstate(divide="raise", over="warn", under="print", invalid="ignore",
                     call=caller_callback):
        before = np.geterr(), np.geterrcall()
        diagonalize(SIGMA_X, TOL)
        assert (np.geterr(), np.geterrcall()) == before
        assert isinstance(diagonalize([SIGMA_X, jordan], TOL)[1], DefectiveError)
        assert (np.geterr(), np.geterrcall()) == before
        with pytest.raises(DefectiveError):
            diagonalize(jordan, TOL)
        assert (np.geterr(), np.geterrcall()) == before
        for routine in _MESSAGES:
            with monkeypatch.context() as m:
                m.setitem(spectra._ROUTINES, routine, _failing(routine))
                for h in (SIGMA_X, [SIGMA_X, SIGMA_X]):
                    with pytest.raises(np.linalg.LinAlgError):
                        diagonalize(h, TOL)
                    assert (np.geterr(), np.geterrcall()) == before


def test_no_arithmetic_between_the_lapack_calls_of_one_matrix_sets_the_invalid_flag(monkeypatch):
    # One matrix's three LAPACK calls share one error state.  Between them
    # only finite eigenvalues and LAPACK's unit-norm eigenvectors are sorted
    # and normalized: on inputs at the float range's ends, and on inputs
    # that fail a gate, that arithmetic never reaches the state's callback.
    # A boundary search's probes share one state too, and neither does
    # their arithmetic on H, the spectrum and its gap.
    calls = []
    monkeypatch.setitem(spectra._ERRSTATE, "call", lambda err, flag: calls.append(err))
    rng = np.random.default_rng(11)
    inputs = [[[5.0]], np.zeros((3, 3)), np.eye(3), [[1.0, 1.0], [1e-21, 1.0]],
              [[1.0, 1.0], [0.0, 1.0]], np.diag(np.full(2, 1.7e308 + 1.7e308j)),
              [[0.0, -1.0], [1.0, 0.0]], SIGMA_X]
    for n in (2, 5, 8):
        s = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        real = (s * np.linspace(-1.0, 1.0, n)) @ np.linalg.inv(s)
        cplx = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for scale in (1.0, 2.0**1020, 2.0**-1060):
            inputs += [real * scale, cplx * scale, rng.standard_normal((n, n)) * scale]
    for h in inputs:
        try:
            diagonalize(h, TOL)
        except (DefectiveError, NonFiniteError):
            pass
    for make, bracket, tol, _ in BOUNDARY_SEARCHES.values():
        try:
            lambda_max(make(), bracket, tol)
        except InvalidBracketError:
            pass
    assert calls == []


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


_FLOAT_MAX = float(np.finfo(float).max)
# A small pool makes ties and +-0.0 pairs frequent; the rest spans the range.
_GAP_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1.7e308, -1.7e308]),
    st.floats(1.6e308, _FLOAT_MAX), st.floats(-_FLOAT_MAX, -1.6e308),
    st.floats(-_FLOAT_MAX, _FLOAT_MAX),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values=st.lists(_GAP_VALUES, min_size=1, max_size=64))
def test_min_gap_of_a_real_array_is_the_complex_casts_bit_for_bit(values):
    real = np.array(values)
    got = spectra._min_gap(real)
    assert got.hex() == spectra._min_gap(real.astype(complex)).hex()  # the sign of zero too
    assert real.tobytes() == np.array(values).tobytes()  # sorted on a copy


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(values=st.lists(st.one_of(_GAP_VALUES, st.floats(-2.3e-308, 2.3e-308)), min_size=1,
                       max_size=16))
def test_min_gap_of_a_real_spectrum_is_the_pairwise_minimum_in_python_floats(values):
    # the brute-force pairwise minimum, halved and subtracted in Python floats
    pairs = [abs(0.5 * a - 0.5 * b) for i, a in enumerate(values) for b in values[i + 1:]]
    want = 2.0 * min(pairs, default=math.inf)
    assert spectra._min_gap(np.array(values)).hex() == want.hex()


def test_min_gap_of_a_real_spectrum_with_an_infinite_end_keeps_the_array_path():
    # numpy's inf - inf sets the invalid flag, which lambda_max's error state raises on
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            spectra._min_gap(np.array([1.0, np.inf, np.inf]))
        assert spectra._min_gap(np.array([-np.inf, 1.0, 3.0])) == 2.0
        assert spectra._min_gap(np.array([np.inf, 1.0])) == math.inf


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


def _same_array(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.strides == want.strides and got.tobytes() == want.tobytes())


def _stack_member(rng, kind, n):
    if kind == "real":  # real eigenvalues and conjugate pairs
        return rng.standard_normal((n, n))
    if kind == "real-spectrum":
        s = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        return s @ np.diag(rng.standard_normal(n)) @ np.linalg.inv(s)
    if kind == "complex":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "near-jordan":  # S J S^-1 plus noise: either Defective gate
        j = np.diag(np.full(n, rng.standard_normal())) + np.diag(np.ones(n - 1), 1)
        s = rng.standard_normal((n, n))
        return s @ j @ np.linalg.inv(s) + 10.0 ** rng.uniform(-16, -4) * rng.standard_normal((n, n))
    if kind == "inf-entry":
        h = rng.standard_normal((n, n))
        h[rng.integers(n), rng.integers(n)] = np.inf
        return h
    # finite parts, but eigenvalues whose modulus leaves the float range
    return np.diag(np.full(n, 1.7e308 + 1.7e308j))


_STACK_KINDS = ("real", "real-spectrum", "complex", "near-jordan", "inf-entry", "huge")


def _one_matrix_bases(h):
    """The eigenvalues and both bases of a system, formed with numpy.linalg
    as for one matrix: sorted columns taken as ``vr[:, order]``, so the
    bases are column-major."""
    evals, vr = np.linalg.eig(h if h.imag.any() else h.real)
    order = np.lexsort((evals.imag, evals.real))
    vr = vr[:, order]
    vr = vr / np.linalg.norm(vr, axis=0)
    vl = np.linalg.inv(vr).conj().T
    return tuple(x.astype(complex, copy=False) for x in (evals[order], vr, vl))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    kinds=st.lists(st.sampled_from(_STACK_KINDS), min_size=1, max_size=8),
    tol=st.sampled_from([1e-10, 1e-6, 1e-13, 1e-3]),
    column_major=st.booleans(),
)
# every route at once: a complex spectrum of a real matrix, a real one, a
# complex matrix, the condition gate, a NaN/Inf entry and an eigenvalue
# past the float range
@example(seed=2, n=3, kinds=list(_STACK_KINDS), tol=1e-10, column_major=False)
@example(seed=2, n=3, kinds=list(_STACK_KINDS), tol=1e-10, column_major=True)
def test_a_stack_decomposes_each_matrix_as_the_matrix_alone(seed, n, kinds, tol, column_major):
    rng = np.random.default_rng(seed)
    h = np.array([_stack_member(rng, kind, n) for kind in kinds], dtype=complex)
    if column_major:
        h = np.array(h.transpose(0, 2, 1)).transpose(0, 2, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no member may warn
        got = diagonalize(h, tol)
    assert isinstance(got, tuple) and len(got) == len(kinds)
    for g, out in enumerate(got):
        try:
            want = diagonalize(h[g], tol)
        except (DefectiveError, NonFiniteError) as exc:
            want = exc
        assert type(out) is type(want)
        if isinstance(want, Exception):
            assert out.args == want.args
            for field in ("condition_number", "residual", "bound"):
                assert repr(getattr(out, field, None)) == repr(getattr(want, field, None))
            if isinstance(want, DefectiveError):
                assert _same_array(out.eigenvalues, want.eigenvalues)
            continue
        for field in ("eigenvalues", "right_vectors", "left_vectors", "matrix"):
            assert _same_array(getattr(out, field), getattr(want, field))
            assert not getattr(out, field).flags.writeable
        # and both are what one matrix decomposed with numpy.linalg gives
        for x, ref in zip((out.eigenvalues, out.right_vectors, out.left_vectors),
                          _one_matrix_bases(h[g])):
            assert _same_array(x, ref)
        assert repr(out.condition_number) == repr(want.condition_number)
        assert out.tolerance == want.tolerance
        # a stack forms the summaries up front, to the bit of the lazy ones
        for field in ("_gap", "_max_imag", "_scale"):
            assert field in out.__dict__
            assert repr(getattr(out, field)) == repr(getattr(want, field))
        # both take an exactly real spectrum's gap on the real path: the
        # complex pairwise value, bit for bit
        assert repr(out._gap) == repr(spectra._min_gap(out.eigenvalues))


def test_a_stack_raises_only_for_the_whole_call():
    with pytest.raises(ValueError):
        diagonalize(np.zeros((2, 3, 3)), 0.0)
    with pytest.raises(ShapeMismatchError):
        diagonalize(np.zeros((2, 3, 4)), TOL)
    with pytest.raises(NonFiniteError, match="outside the float range"):
        diagonalize([[[10**400]]], TOL)
    assert diagonalize(np.zeros((0, 2, 2)), TOL) == ()
    outs = diagonalize([[[0.0, 1.0], [0.0, 0.0]], [[np.nan, 0.0], [0.0, 1.0]]], TOL)
    assert [type(o) for o in outs] == [DefectiveError, NonFiniteError]
