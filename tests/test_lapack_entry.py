"""``spectra._lapack`` against numpy.linalg, and the package's use of it.

The entry calls numpy's private LAPACK gufuncs; a numpy release that
renames them or changes their signatures fails here (or at import).
"""

import warnings

import numpy as np
import pytest

from cryptoherm import (
    FamilySpec,
    MetricFamily,
    PerturbationProblem,
    assemble_metric,
    diagonalize,
    dyson_from_metric,
    dyson_map,
    fix_ambiguity,
    hermitize,
    kg_hamiltonian,
    kg_metric,
    lambda_max,
    leading_delta,
    metric_series,
    reality_scan,
    series_vs_exact,
    v_from_w,
    w_from_v,
)
from cryptoherm.cli import main
from cryptoherm.spectra import _ROUTINES, _cond, _lapack

SIZES = [1, 2, 3, 8, 64]

NUMPY = {
    "eig": np.linalg.eig,
    "eigvals": np.linalg.eigvals,
    "eigh": np.linalg.eigh,
    "eigvalsh": np.linalg.eigvalsh,
    "svdvals": lambda a: np.linalg.svd(a, compute_uv=False),
    "inv": np.linalg.inv,
    "solve": np.linalg.solve,
}


def assert_same(got, want):
    """Byte-for-byte equal arrays (or tuples of them), with equal dtype,
    shape and strides."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same(g, w)
        return
    assert got.dtype == want.dtype
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def check(routine, *operands):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _lapack(routine, *operands)
    assert_same(got, tuple(NUMPY[routine](*operands)) if routine in ("eig", "eigh")
                else NUMPY[routine](*operands))
    return got


def random(rng, shape, complex_):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if complex_ else a


@pytest.mark.parametrize("routine", sorted(_ROUTINES))
def test_each_routine_names_signatures_its_gufunc_has(routine):
    # a real pencil's boundary-search probe calls the eigvals gufunc with
    # the real signature of this entry (spectra._pencil_eigvals)
    gufunc, real_sig, complex_sig, _ = _ROUTINES[routine]
    assert real_sig in gufunc.types and complex_sig in gufunc.types


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("n", SIZES)
def test_each_routine_matches_numpy_linalg(n, complex_):
    rng = np.random.default_rng(n)
    a = random(rng, (n, n), complex_)
    for routine in ("eig", "eigvals", "svdvals", "inv"):
        check(routine, a)
    hermitian = 0.5 * a + 0.5 * a.conj().T
    for routine in ("eigh", "eigvalsh"):
        check(routine, hermitian)
    check("solve", a, random(rng, n, complex_))
    check("solve", a, random(rng, (n, 3), complex_))


@pytest.mark.parametrize("n", SIZES)
def test_a_real_spectrum_comes_back_real_and_conjugate_pairs_complex(n):
    rng = np.random.default_rng(100 + n)
    # strided real parts of complex arrays, as diagonalize hands them over
    triangular = np.array(np.triu(rng.standard_normal((n, n))), dtype=complex).real
    assert triangular.strides[-1] == 16
    for routine in ("eig", "eigvals"):
        out = check(routine, triangular)
        assert (out[0] if routine == "eig" else out).dtype == np.float64
    if n >= 2:
        rotation = np.eye(n)
        rotation[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
        pairs = rotation + 1e-3 * np.triu(rng.standard_normal((n, n)), 2)
        for routine in ("eig", "eigvals"):
            out = check(routine, pairs)
            assert (out[0] if routine == "eig" else out).dtype == np.complex128


@pytest.mark.parametrize("n", SIZES)
def test_solve_with_mixed_real_and_complex_operands(n):
    rng = np.random.default_rng(200 + n)
    for a_complex, b_complex in [(False, True), (True, False)]:
        a = random(rng, (n, n), a_complex)
        for shape in (n, (n, 2)):
            x = check("solve", a, random(rng, shape, b_complex))
            assert x.dtype == np.complex128
    # a transposed (Fortran-ordered) matrix, as v_from_w solves with
    a, b = random(rng, (n, n), True), random(rng, (n, n), True)
    check("solve", a.T, b.T)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_a_singular_matrix_raises_numpys_error(complex_):
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex if complex_ else float)
    b = np.ones(2, dtype=a.dtype)
    for routine, operands in [("inv", (a,)), ("solve", (a, b)), ("solve", (a, np.eye(2)))]:
        with pytest.raises(np.linalg.LinAlgError) as want:
            NUMPY[routine](*operands)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError) as got:
                _lapack(routine, *operands)
        assert str(got.value) == str(want.value) == "Singular matrix"


def test_cond_matches_numpy_linalg_cond():
    rng = np.random.default_rng(3)
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    for m in [random(rng, (4, 4), False), random(rng, (4, 4), True), singular, np.zeros((2, 2))]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _cond(m) == float(np.linalg.cond(m))


def test_the_package_calls_numpy_linalg_only_at_its_three_exceptions(monkeypatch, capsys):
    # every numpy.linalg function the package calls, by name, on the scan,
    # the search, the README chain, the cli and fix_ambiguity's QR kernel:
    # the Cholesky factor of a metric without weights, the kernel's QR, SVD
    called = []

    def recorder(name, wrapper):
        def record(*args, **kwargs):
            called.append(name)
            return wrapper(*args, **kwargs)
        return record

    for name in np.linalg.__all__:
        wrapper = getattr(np.linalg, name)
        if not isinstance(wrapper, type):  # LinAlgError
            monkeypatch.setattr(np.linalg, name, recorder(name, wrapper))

    def taken() -> list:
        names = called[:]
        called.clear()
        return names

    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    nilpotent = np.array([[0.0, -1.0], [0.0, 0.0]], dtype=complex)
    spec = FamilySpec.linear(sigma_x, nilpotent, np.linspace(0.0, 2.0, 21))
    report = reality_scan(spec, 1e-10)
    assert {p.note for p in report.points} >= {"", "Defective", "SpectrumNotReal"}
    assert abs(lambda_max(spec, (0.0, 2.0), 1e-10) - 1.0) <= 1e-9

    tol = 1e-10
    h = kg_hamiltonian(0.3)
    family = MetricFamily(diagonalize(h, tol))
    kappa = fix_ambiguity(family, [np.array([[0.0, 0.0], [1.0, 2.0]])], tol)
    theta_unique = assemble_metric(family, kappa)
    hermitize(h, dyson_map(theta_unique), tol)
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    problem = PerturbationProblem.build(h, theta_unique, [w], tol)
    metric_series(problem, 2)
    assert len(series_vs_exact(problem, 2, [0.0, 0.1])) == 2
    raw = PerturbationProblem.build(h, kg_metric(0.3, 0.25).theta, [w], tol)
    series = metric_series(raw, 1)
    assert taken() == []
    assert len(dyson_from_metric(series, raw.theta).delta_coeffs) == 1
    assert taken() == ["cholesky"]

    delta = leading_delta(w, h, theta_unique, tol)
    v = v_from_w(w, delta, h, 0.1)
    assert np.abs(w_from_v(v, delta, h, 0.1) - w).max() <= 1e-12
    assert main(["hermitize", "--kg", "0.7", "--beta", "0.2"]) == 0
    capsys.readouterr()
    # H = diag(1, 2, 3) with the chain observable at b = 1e-5: the Gram
    # certificate cannot bound the null line, so the QR kernel decides
    chain = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1e-5], [0.0, 1e-5, 0.0]], dtype=complex)
    chain_family = MetricFamily(diagonalize(np.diag([1.0, 2.0, 3.0]), 1e-8))
    assert taken() == []
    kappa = fix_ambiguity(chain_family, [chain], 1e-8)
    assert taken() == ["qr", "svd"]
    assert np.max(np.abs(kappa - 1.0)) <= 1e-15
