import decimal
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cryptoherm import (
    BetaOutOfRangeError,
    BiorthogonalSystem,
    DegenerateObservableError,
    DegenerateSpectrumError,
    InconsistentError,
    MetricFamily,
    MetricOperator,
    NonFiniteError,
    NonPositiveWeightError,
    NoPositiveSolutionError,
    NotPositiveDefiniteError,
    NotQuasiHermitianError,
    PerturbationProblem,
    ShapeMismatchError,
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
from cryptoherm import metric as metric_module
from cryptoherm.metric import _constraint_svd
from oracles import (
    dense_ambiguity_svd,
    dense_fix_ambiguity,
    metric_from_seed,
    random_hermitian,
    random_real_spectrum_matrix,
)

TOL = 1e-10
EPS = float(np.finfo(float).eps)

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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    j=st.integers(-600, 600),
    mantissa=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
)
@example(seed=0, n=4, j=-600, mantissa=1.5)
@example(seed=1, n=6, j=600, mantissa=1.9)
def test_assemble_scale_covariance_property(seed, n, j, mantissa):
    rng = np.random.default_rng(seed)
    h, _, _ = random_real_spectrum_matrix(rng, n)
    family = MetricFamily(diagonalize(h, TOL))
    l = family.system.left_vectors
    # With every real and imaginary part of L zero or in [2**-100, 2**20],
    # and weights in [0.5, 2], each product the sum forms, and each nonzero
    # cancellation of two of them, stays in the normal range under 2**j.
    parts = np.abs(np.concatenate([l.real.ravel(), l.imag.ravel()]))
    assume(parts[parts > 0.0].min() >= 2.0**-100 and parts.max() <= 2.0**20)
    kappa = rng.uniform(0.5, 2.0, n)
    theta = assemble_metric(family, kappa).theta
    s = mantissa * 2.0**j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = assemble_metric(family, 2.0**j * kappa).theta
        scaled = assemble_metric(family, s * kappa).theta
    assert np.array_equal(exact, 2.0**j * theta)
    # Each side is s * Theta(kappa) within (n + 5) u |L| diag(kappa) |L|^dag
    # entrywise, u = eps / 2: n complex products summed, the rounding of
    # s * kappa or of s * Theta, and the symmetrization.  Twice that bounds
    # their difference.
    bound = (n + 5) * EPS * s * ((np.abs(l) * kappa) @ np.abs(l).T)
    assert np.all(np.abs(scaled - s * theta) <= bound)


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


def test_tiny_operands_keep_their_residual():
    # unscaled, every square of an entry near 1e-170 underflows, so the
    # residual read 0 and a metric that is not quasi-Hermitian passed
    h = kg_hamiltonian(1.0)
    unit = quasi_hermiticity_residual(h, np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert quasi_hermiticity_residual(2.0**-565 * h, np.eye(2)) == unit
        assert quasi_hermiticity_residual(h, 2.0**-565 * np.eye(2)) == unit
        assert quasi_hermiticity_residual(2.0**-1074 * np.eye(2), np.eye(2)) == 0.0
        for tiny_h, tiny_theta in ((1e-170 * h, np.eye(2)), (h, 1e-170 * np.eye(2))):
            assert quasi_hermiticity_residual(tiny_h, tiny_theta) == pytest.approx(unit, rel=1e-14)
        with pytest.raises(NotQuasiHermitianError):
            hermitize(1e-170 * h, dyson_map(metric_from_matrix(np.eye(2), TOL)), TOL)


@pytest.mark.parametrize("scale", [1.0, 1e-170, 2.0**-1060], ids=["1", "1e-170", "2**-1060"])
def test_metric_from_matrix_gates_a_tiny_matrix_as_at_scale_one(scale):
    skew = np.array([[1.0, 0.5], [-0.5, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPositiveDefiniteError, match="not Hermitian"):
            metric_from_matrix(scale * skew, TOL)
        theta = scale * np.array([[1.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(metric_from_matrix(theta, TOL).theta, theta)


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


def test_fix_ambiguity_observable_near_the_float_limit():
    # ||O|| overflowed and inflated the rank threshold to inf
    family = kg_family(0.3)
    obs = np.array([[0.0, 0.0], [1.0, 2.0]])
    ref = fix_ambiguity(family, [obs], TOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kappa = fix_ambiguity(family, [2.0**600 * obs], TOL)
    assert np.allclose(kappa, ref, rtol=1e-12, atol=0.0)


def test_fix_ambiguity_observable_whose_entry_modulus_overflows():
    # finite parts, but |O_10| is past the float range: the common scale
    # read that modulus's exponent as 0, so the scaled rows overflowed and
    # the SVD raised LinAlgError
    family = kg_family(0.3)
    obs = np.array([[0.0, 0.0], [1.5e308 + 1.5e308j, 1e308]])
    with pytest.raises(InconsistentError):
        fix_ambiguity(family, [2.0**-1000 * obs], TOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InconsistentError):
            fix_ambiguity(family, [obs], TOL)


def test_fix_ambiguity_subnormal_observable():
    # the common scale only shrank, so subnormal rows lost most of their
    # bits: kappa was off by 0.82 at j = -1070
    family = kg_family(0.3)
    obs = np.array([[0.0, 0.0], [1.0, 2.0]])
    ref = fix_ambiguity(family, [obs], TOL)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in (-1040, -1060, -1070, -1074):
            kappa = fix_ambiguity(family, [2.0**j * obs], TOL)
            assert np.max(np.abs(kappa - ref)) <= 1e-12, j


# eigenvector condition 2e160, so it diagonalizes only at a tolerance
# below 5e-161; its left vectors reach 1e160
FAR = np.array([[1.0, 1e160], [0.0, 2.0]])


def test_assemble_metric_past_the_float_range_raises_without_a_warning():
    # Theta's entries reach 1e320: four RuntimeWarnings, then inf and nan
    family = MetricFamily(diagonalize(FAR, 1e-200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError):
            assemble_metric(family, [1.0, 1.0])


def assembled_alike(got, family, kappa):
    """``got`` is what ``assemble_metric(family, kappa)`` returns or raises:
    Theta's bytes and strides, read-only arrays, the weights and the system."""
    try:
        want = assemble_metric(family, kappa)
    except NonFiniteError as exc:
        assert isinstance(got, NonFiniteError) and str(got) == str(exc)
        return
    assert isinstance(got, MetricOperator)
    assert got.theta.tobytes() == want.theta.tobytes()
    assert got.theta.strides == want.theta.strides
    assert got.weights.tobytes() == want.weights.tobytes()
    assert not (got.theta.flags.writeable or got.weights.flags.writeable)
    assert got.system is want.system is family.system


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), g=st.integers(1, 8))
def test_stacked_assemble_metric_is_each_familys_own_call(seed, n, g):
    rng = np.random.default_rng(seed)
    families = []
    for i in range(g):
        if i % 2:
            # a real triangular H with distinct real eigenvalues: the real
            # arithmetic of diagonalize, and real left vectors
            h = np.diag(np.arange(n) + rng.uniform(0.0, 0.5, n))
            h += np.triu(rng.standard_normal((n, n)), 1)
        else:
            h, _, _ = random_real_spectrum_matrix(rng, n)
        families.append(MetricFamily(diagonalize(h, TOL)))
    kappa = rng.uniform(0.5, 2.0, n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = assemble_metric(families, kappa)
    assert isinstance(out, tuple) and len(out) == g
    for got, family in zip(out, families):
        assembled_alike(got, family, kappa)


def test_stacked_assemble_metric_returns_the_error_of_a_member_past_the_float_range():
    far, near = MetricFamily(diagonalize(FAR, 1e-200)), kg_family(0.3)
    families = [near, far, near]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = assemble_metric(families, [1.0, 2.0])
    assert [type(x) for x in out] == [MetricOperator, NonFiniteError, MetricOperator]
    for got, family in zip(out, families):
        assembled_alike(got, family, [1.0, 2.0])
    # bad weights raise for the whole call
    for kappa, error in (([1.0, 0.0], NonPositiveWeightError),
                         ([1.0, math.nan], NonFiniteError),
                         ([1.0, 10**400], NonFiniteError),
                         ([1.0], ShapeMismatchError)):
        with pytest.raises(error):
            assemble_metric(families, kappa)
    three = MetricFamily(diagonalize(np.diag([1.0, 2.0, 3.0]), TOL))
    with pytest.raises(ShapeMismatchError, match=r"^family\[1\] has dimension 3, expected 2$"):
        assemble_metric([near, three], [1.0, 2.0])
    assert assemble_metric([], [1.0]) == ()


def test_fix_ambiguity_with_left_vectors_near_the_float_limit():
    # ||l_n||^4 overflowed the Gram matrix and the constraint rows, and the
    # SVD of the QR kernel did not converge.  By hand, Theta(kappa)
    # commutes with this O only where kappa_2 / kappa_1 is about -1.
    family = MetricFamily(diagonalize(FAR, 1e-200))
    obs = np.array([[1.0, 0.5], [0.5, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoPositiveSolutionError):
            fix_ambiguity(family, [obs], TOL)


def test_fix_ambiguity_with_left_vectors_scaled_by_a_power_of_two():
    # the constraints are quadratic in L, so the weights of a family whose
    # left vectors are 2**j times larger agree with the unscaled ones; above
    # 2**240 L is scaled down, so j = 260 and j = 700 agree bit for bit
    rng = np.random.default_rng(5)
    h, _, _ = random_real_spectrum_matrix(rng, 4)
    system = diagonalize(h, TOL)
    obs = [_planted(rng, MetricFamily(system))]
    ref = fix_ambiguity(MetricFamily(system), obs, TOL)
    kappas = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in (260, 700):
            big = BiorthogonalSystem(system.eigenvalues, system.right_vectors * 2.0**-j,
                                     system.left_vectors * 2.0**j, TOL)
            kappas.append(fix_ambiguity(MetricFamily(big), obs, TOL))
    assert np.array_equal(kappas[0], kappas[1])
    assert np.max(np.abs(kappas[0] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_gram_route_falls_back_on_a_gram_matrix_past_the_float_range():
    family = kg_family(0.3)
    ohs, l, floor = metric_module._scaled_adjoints([np.array([[0.0, 0.0], [1.0, 2.0]])],
                                                   family.system.left_vectors)
    with np.errstate(over="ignore", invalid="ignore"):
        assert metric_module._gram_weights(ohs, l * 2.0**300, floor, TOL) is None


def _outcome(family, observables):
    try:
        return "ok", fix_ambiguity(family, observables, TOL)
    except (InconsistentError, NoPositiveSolutionError, UnderdeterminedError) as exc:
        return type(exc).__name__, None


def _planted(rng, family, sign=1.0):
    """An observable quasi-Hermitian for Theta(kappa) with random weights;
    ``sign`` -1 flips one weight, so the compatible line is indefinite."""
    n = family.dim
    kappa = rng.uniform(0.5, 2.0, n)
    kappa[rng.integers(n)] *= sign
    l = family.system.left_vectors
    theta = (l * kappa) @ l.conj().T
    return np.linalg.solve(theta, random_hermitian(rng, n))


def _observable_set(rng, family, h, kind):
    n = family.dim
    if kind == "planted":
        return [_planted(rng, family)]
    if kind == "indefinite":
        return [_planted(rng, family, -1.0)]
    if kind == "hamiltonian":
        return [h]
    if kind == "identity":
        return [np.eye(n)]
    if kind == "random":
        return [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))]
    if kind == "consistent_pair":
        o = _planted(rng, family)
        return [o, o @ o]
    return [_planted(rng, family), _planted(rng, family)]  # "pair"


# expected outcome per observable set, for N = 1 and for N >= 2
EXPECTED_OUTCOME = {
    "planted": ("ok", "ok"),
    "indefinite": ("ok", "NoPositiveSolutionError"),
    "hamiltonian": ("ok", "UnderdeterminedError"),
    "identity": ("ok", "UnderdeterminedError"),
    "random": ("InconsistentError", "InconsistentError"),
    "consistent_pair": ("ok", "ok"),
    "pair": ("ok", "InconsistentError"),
}


def test_random_real_spectrum_matrix_raises_when_its_draw_cannot_be_met():
    # 16 eigenvalues 0.3 apart do not fit in [-2, 2]; the loop never ended
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"n=16.*gap=0\.3.*cond_max=8\.0"):
        random_real_spectrum_matrix(np.random.default_rng(0), 16)
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.parametrize("kind", sorted(EXPECTED_OUTCOME))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_fix_ambiguity_matches_dense_reference(n, kind):
    rng = np.random.default_rng([n, len(kind)])
    # 16 eigenvalues in [-2, 2] cannot keep the default gap of 0.3, and a
    # random 16 x 16 basis is seldom within the default condition bound
    draw = {} if n <= 8 else {"gap": 0.01, "cond_max": 50.0}
    for _ in range(4):
        h, _, _ = random_real_spectrum_matrix(rng, n, **draw)
        family = MetricFamily(diagonalize(h, TOL))
        obs = _observable_set(rng, family, h, kind)
        outcome, kappa = _outcome(family, obs)
        assert outcome == EXPECTED_OUTCOME[kind][n > 1]
        ref_outcome, ref_kappa = dense_fix_ambiguity(family.projectors(), obs, TOL)
        assert outcome == ref_outcome
        if kappa is not None:
            assert np.max(np.abs(kappa - ref_kappa)) <= 1e-12 * np.max(np.abs(ref_kappa))
        # the kernel works on observables scaled by one common power of
        # two, which brings the largest entry into [1, 2)
        scale = 2.0 ** (1 - max(math.frexp(float(np.abs(o).max()))[1] for o in obs))
        s_ref, _, floor_ref = dense_ambiguity_svd(family.projectors(), [scale * o for o in obs])
        s, _, floor = _constraint_svd(family, [np.asarray(o, dtype=complex) for o in obs])
        # constraints that cancel analytically leave singular values of
        # rounding size, so the scale is that of the rank threshold
        assert np.max(np.abs(s - s_ref)) <= 1e-13 * max(s_ref[0], floor_ref)
        assert abs(floor - floor_ref) <= 1e-13 * floor_ref


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    kind=st.sampled_from(["planted", "indefinite", "hamiltonian", "random"]),
    j=st.integers(-1074, 1000),
)
@example(seed=0, n=3, kind="planted", j=-1040)
@example(seed=1, n=3, kind="hamiltonian", j=-1074)
def test_fix_ambiguity_scale_invariance(seed, n, kind, j):
    rng = np.random.default_rng(seed)
    h, _, _ = random_real_spectrum_matrix(rng, n)
    family = MetricFamily(diagonalize(h, TOL))
    (obs,) = _observable_set(rng, family, h, kind)
    small = 2.0**j * obs
    # Below the normal range 2**j * obs rounds; the reference is the
    # observable actually passed, scaled back exactly (in two steps, as
    # 2**-j may exceed the float range).
    if j < 0:
        half = -j // 2
        obs = 2.0 ** (-j - half) * (2.0**half * small)
    outcome, kappa = _outcome(family, [obs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled, scaled_kappa = _outcome(family, [small])
    assert scaled == outcome
    if kappa is not None:
        assert np.max(np.abs(scaled_kappa - kappa)) <= 1e-12 * np.max(np.abs(kappa))


def _chain(h, obs):
    """Outcome class, system and weights of diagonalize, MetricFamily and
    fix_ambiguity on one H and observable set."""
    system = diagonalize(h, TOL)
    try:
        family = MetricFamily(system)
    except SpectrumNotRealError:
        return "SpectrumNotRealError", system, None
    outcome, kappa = _outcome(family, obs)
    return outcome, system, kappa


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    kind=st.sampled_from(["planted", "indefinite", "hamiltonian", "random", "complex"]),
)
def test_permutation_invariance(seed, n, kind):
    rng = np.random.default_rng(seed)
    h, e, s = random_real_spectrum_matrix(rng, n)
    family = MetricFamily(diagonalize(h, TOL))
    if kind == "complex":
        # one eigenvalue 0.5 off the real axis, over 1e9 times the reality
        # threshold, and the real parts stay 0.3 apart, so both runs sort alike
        e = e.astype(complex)
        e[rng.integers(n)] += 0.5j
        h = s @ np.diag(e) @ np.linalg.inv(s)
        obs = [h]
    else:
        obs = _observable_set(rng, family, h, kind)
        # away from the rank threshold: each singular value of the
        # constraint rows is 1e3 times above or below it, and the null
        # vector's entries are 1e-3 of its largest or more in magnitude
        sv, vt, floor = _constraint_svd(family, [np.asarray(o, dtype=complex) for o in obs])
        thr = TOL * max(float(sv[0]), floor)
        assume(np.all((sv > 1e3 * thr) | (sv < 1e-3 * thr)))
        assume(kind not in ("planted", "indefinite")
               or np.abs(vt[-1]).min() >= 1e-3 * np.abs(vt[-1]).max())
    perm = rng.permutation(n)
    outcome, system, kappa = _chain(h, obs)
    p_outcome, p_system, p_kappa = _chain(h[np.ix_(perm, perm)],
                                          [o[np.ix_(perm, perm)] for o in obs])
    assert p_outcome == outcome
    # A backward-stable eig returns the eigenvalues of H + E with
    # ||E|| <= 10 n eps ||H||; Bauer-Fike moves each by at most cond(R) ||E||,
    # and the two runs differ by at most twice that.
    cond = max(system.condition_number, p_system.condition_number)
    h_norm = float(np.linalg.norm(h, 2))
    assert np.all(np.abs(p_system.eigenvalues - system.eigenvalues)
                  <= 2.0 * 10.0 * n * EPS * h_norm * cond)
    if kappa is None:
        return
    # The eigenvectors move by cond^2 ||E|| / gap relative to their size,
    # the constraint rows, quadratic in L, by twice that plus their own
    # rounding (n eps), all relative to the constraint scale; the null
    # line turns by that over sigma_{N-1}, and kappa = v / v_1 moves by the
    # angle times (1 + max |kappa|) ||kappa||.  Twice that bounds both runs.
    if n > 1:
        gap = float(np.min(np.diff(e.real)))
        rows = 10.0 * n * EPS * (2.0 * cond**2 * h_norm / gap + 1.0)
        angle = rows * floor / float(sv[-2])
        bound = 2.0 * angle * (1.0 + np.abs(kappa).max()) * np.linalg.norm(kappa)
    else:
        bound = 0.0  # kappa = [1]
    assert np.max(np.abs(p_kappa - kappa)) <= bound


def _count_kernel_calls(monkeypatch) -> list:
    """Patch ``fix_ambiguity``'s QR kernel with a wrapper that counts its
    calls in the returned one-element list."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return _constraint_svd(*args)

    monkeypatch.setattr(metric_module, "_constraint_svd", counted)
    return calls


def test_fix_ambiguity_gram_certificate_matches_dense_reference(monkeypatch):
    # Gram-path outcomes near the rank threshold, the positivity edge and
    # tiny tolerances must be those of the dense construction; where the
    # bound cannot certify them the QR kernel decides
    calls = _count_kernel_calls(monkeypatch)
    paths = {"gram": 0, "qr": 0}

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        kind=st.sampled_from(sorted(EXPECTED_OUTCOME)),
        near=st.booleans(),
        log_eps=st.floats(-14.0, -5.0),
        log_tol=st.floats(-14.0, -4.0),
    )
    def check(seed, n, kind, near, log_eps, log_tol):
        rng = np.random.default_rng(seed)
        h, _, _ = random_real_spectrum_matrix(rng, n)
        family = MetricFamily(diagonalize(h, TOL))
        obs = _observable_set(rng, family, h, kind)
        if near:
            o = obs[0]
            noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            obs[0] = o + 10.0**log_eps * np.linalg.norm(o) * noise
        tol = 10.0**log_tol
        before = calls[0]
        try:
            outcome, kappa = "ok", fix_ambiguity(family, obs, tol)
        except (InconsistentError, NoPositiveSolutionError, UnderdeterminedError) as exc:
            outcome, kappa = type(exc).__name__, None
        paths["qr" if calls[0] > before else "gram"] += 1
        ref_outcome, ref_kappa = dense_fix_ambiguity(family.projectors(), obs, tol)
        assert outcome == ref_outcome
        if kappa is not None:
            assert np.max(np.abs(kappa - ref_kappa)) <= 1e-12 * np.max(np.abs(ref_kappa))

    check()
    assert paths["gram"] > 0 and paths["qr"] > 0, paths


def test_fix_ambiguity_falls_back_inside_the_certificate_margins(monkeypatch):
    # a singular value at 1.5 times the rank threshold, and a null vector
    # on the positivity edge, are left to the QR kernel
    calls = _count_kernel_calls(monkeypatch)
    rng = np.random.default_rng(5)
    h, _, _ = random_real_spectrum_matrix(rng, 3)
    family = MetricFamily(diagonalize(h, TOL))
    noise = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    near = _planted(rng, family) + 1e-3 * noise
    s, _, floor = _constraint_svd(family, [near])
    with pytest.raises(InconsistentError):
        fix_ambiguity(family, [near], s[-1] / (1.5 * max(s[0], floor)))
    assert calls[0] == 1

    rng = np.random.default_rng(0)
    h, _, _ = random_real_spectrum_matrix(rng, 3)
    family = MetricFamily(diagonalize(h, TOL))
    l = family.system.left_vectors
    theta = (l * np.array([1.0, 0.5, 1e-2])) @ l.conj().T
    edge = np.linalg.solve(theta, random_hermitian(rng, 3))
    _, vt, _ = _constraint_svd(family, [edge])
    v = np.abs(vt[-1])
    tol = float(v.min() / v.max())
    assert fix_ambiguity(family, [edge], 0.99 * tol).min() > 0.0
    with pytest.raises(NoPositiveSolutionError):
        fix_ambiguity(family, [edge], 1.01 * tol)
    assert calls[0] == 1
    # rounding puts the kernel's null vector on either side of the edge
    try:
        fix_ambiguity(family, [edge], tol)
    except NoPositiveSolutionError:
        pass
    assert calls[0] == 2


def _chain_observable(b: float) -> np.ndarray:
    # with L = I (H = diag(1, 2, 3)) the constraints are kappa_1 = kappa_2
    # and b kappa_2 = b kappa_3: sigma = (2, sqrt(3) b, 0) for small b,
    # the null line is (1, 1, 1) exactly, and size = ||O||_F^2
    return np.array([[0.0, 1.0, 0.0], [1.0, 0.0, b], [0.0, b, 0.0]], dtype=complex)


def test_gram_certificate_leaves_an_eigenvalue_inside_its_rounding_bound(monkeypatch):
    # The certificate widens each eigenvalue sigma^2 of G by
    # delta = 16 (N + M + 1) eps * size, 80 eps * size here.  A sigma_2^2 at
    # delta / 4 is left to the QR kernel.  So is one whose square root
    # tells the rank from the threshold's margin only for a widening below
    # delta / 2: a 16x smaller delta would decide it from G.  One far
    # above delta, with a null vector bounded within tol * max |v|, is
    # decided from G.
    calls = _count_kernel_calls(monkeypatch)
    family = MetricFamily(diagonalize(np.diag([1.0, 2.0, 3.0]), TOL))
    b = math.sqrt(0.25 * 80.0 * EPS * 2.0 / 3.0)  # size = 2 + 2 b^2
    s, _, _ = _constraint_svd(family, [_chain_observable(b)])
    assert s[1] ** 2 / (80.0 * EPS * (2.0 + 2.0 * b * b)) == pytest.approx(0.25, rel=1e-6)
    s, _, floor = _constraint_svd(family, [_chain_observable(1e-5)])
    # the rank threshold's margin is 2 tol max(sigma_1, floor)
    margin_tol = math.sqrt(s[1] ** 2 - 0.5 * 80.0 * EPS * (2.0 + 2e-10)) / (2.0 * max(s[0], floor))
    for b, tol, kernel_calls in ((b, 1e-8, 1), (1e-5, margin_tol, 1), (1e-4, 1e-8, 0)):
        calls[0] = 0
        kappa = fix_ambiguity(family, [_chain_observable(b)], tol)
        assert calls[0] == kernel_calls and kappa.min() > 0.0
        # the QR kernel's null line is exact here; G's is off by at most about tol
        assert np.max(np.abs(kappa - 1.0)) <= (4.0 * EPS if kernel_calls else tol)


def test_gram_residual_bound_keeps_its_rounding_term(monkeypatch):
    # ||rows v|| is formed in floats, so its bound adds 4 (N + 2) eps
    # sqrt(size), 20 sqrt(10) eps here (size = 10).  A threshold at that
    # term, twice the computed residual or more, cannot certify the null
    # line: the QR kernel decides.  Four times the term can.
    calls = _count_kernel_calls(monkeypatch)
    family = MetricFamily(diagonalize(np.diag([1.0, 2.0, 3.0]), TOL))
    obs = [_chain_observable(2.0)]
    s, _, floor = _constraint_svd(family, obs)
    term = 4.0 * (3 + 2) * EPS * math.sqrt(10.0)
    for factor, kernel_calls in ((1.0, 1), (4.0, 0)):
        calls[0] = 0
        kappa = fix_ambiguity(family, obs, factor * term / max(s[0], floor))
        assert calls[0] == kernel_calls
        assert np.max(np.abs(kappa - 1.0)) <= 4.0 * EPS


@pytest.mark.parametrize("b", [1.5e-7, 1e-6, 1e-5])
def test_the_readme_chain_example_gives_its_exact_weights(b):
    # G's null vector is off by about eps (sigma_1 / sigma_2)^2 here; its
    # bound eta exceeds tol * max |v|, so the QR kernel gives the weights
    family = MetricFamily(diagonalize(np.diag([1.0, 2.0, 3.0]), TOL))
    kappa = fix_ambiguity(family, [_chain_observable(b)], 1e-8)
    assert np.max(np.abs(kappa - 1.0)) <= 1e-15


def test_planted_n64_problem_is_decided_without_the_qr_kernel(monkeypatch):
    # the benchmark's pipeline construction: H0 = S diag(E) S^-1 with
    # S = I + 0.3 / sqrt(N) G, and one Hermitian observable pulled back
    # through the metric's root, so the weights are known
    calls = _count_kernel_calls(monkeypatch)
    rng = np.random.default_rng(64)
    n = 64
    e = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.25, 0.25, n) * 2.0 / (n - 1)
    s = np.eye(n) + 0.3 / np.sqrt(n) * rng.standard_normal((n, n))
    s_inv = np.linalg.inv(s)
    weights = rng.uniform(0.5, 2.0, n)
    theta = s_inv.T @ (weights[:, None] * s_inv)
    w, u = np.linalg.eigh(theta)
    omega, omega_inv = (u * np.sqrt(w)) @ u.T, (u / np.sqrt(w)) @ u.T
    observable = omega_inv @ random_hermitian(rng, n) @ omega
    family = MetricFamily(diagonalize((s * e) @ s_inv, TOL))
    kappa = fix_ambiguity(family, [observable], TOL)
    assert calls[0] == 0
    planted = weights / np.sum(s * s, axis=0)
    assert np.allclose(kappa, planted / planted[0], rtol=1e-8, atol=0.0)


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


_BETA_CONTEXT = decimal.Context(prec=60, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX, traps=[])


def _beta60(a, b, c, d, tau):
    """kg_beta's beta in 60-digit decimal arithmetic, from the exact arguments."""
    ctx = _BETA_CONTEXT
    xa, xb, xc, xd, xt = (decimal.Decimal(x, ctx) for x in (a, b, c, d, tau))
    e = ctx.exp(xt)
    return ctx.divide(ctx.subtract(ctx.multiply(xc, e), ctx.divide(xb, e)), ctx.subtract(xd, xa))


def _double(draw, exponent) -> float:
    """A double of either sign near 2**exponent, the exponent held to the
    double range."""
    m = draw(st.floats(0.5, 1.0, exclude_max=True)) * draw(st.sampled_from([-1.0, 1.0]))
    return math.ldexp(m, min(max(round(exponent), -1074), 1024))


@st.composite
def _kg_args(draw):
    """(a, b, c, d, tau) for which kg_beta's float formula overflows: one
    term x e^t, (x, t) = (c, tau) or (b, -tau), is near 2**top past the
    float range (or e^t is), and d - a near 2**(top - k), with k the
    binary exponent that beta is drawn near."""
    t = draw(st.floats(-100.0, 1500.0))
    top, k = draw(st.integers(900, 2100)), draw(st.integers(-1074, 1023))
    x = _double(draw, top - t / math.log(2))
    eq = top - k
    d = _double(draw, min(eq, 1023))
    # past 2**1023, d - a = 2 d and overflows
    a = -d if eq > 1023 else draw(st.sampled_from([0.0, -d]))
    y = 0.0 if draw(st.booleans()) else _double(draw, draw(st.integers(-1074, 1024)))
    if draw(st.booleans()):
        return a, y, x, d, t
    return a, x, y, d, -t


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(args=_kg_args())
@example(args=(0.0, 4.994961650568674e+24, 0.0, -9.301881691329443e+305, -1339.9711377603387))
def test_kg_beta_past_the_range_of_its_terms_is_correctly_rounded(args):
    a, b, c, d, tau = args
    assume(d != a)
    with np.errstate(over="ignore", invalid="ignore"):
        formula = ((c * np.exp(tau) if c else 0.0) - (b * np.exp(-tau) if b else 0.0)) / (d - a)
    assume(not np.isfinite(formula))  # a term, d - a or their quotient overflows
    beta = _beta60(a, b, c, d, tau)
    assume(math.isfinite(float(_BETA_CONTEXT.to_sci_string(beta))))
    got = kg_beta(a, b, c, d, tau)
    # within half an ulp of beta: the double nearest to it
    ctx = _BETA_CONTEXT
    error = ctx.abs(ctx.subtract(decimal.Decimal(got, ctx), beta))
    assert error <= ctx.divide(decimal.Decimal(math.ulp(got), ctx), 2)


_WIDE_CONTEXT = decimal.Context(prec=1000, Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX, traps=[])


def _beta_wide(a, b, c, d, tau):
    """beta in 1000-digit decimal arithmetic, enough where the two terms
    cancel to hundreds of digits (tau near the smallest subnormal)."""
    ctx = _WIDE_CONTEXT
    xa, xb, xc, xd, xt = (decimal.Decimal(x, ctx) for x in (a, b, c, d, tau))
    e = ctx.exp(xt)
    return ctx.divide(ctx.subtract(ctx.multiply(xc, e), ctx.divide(xb, e)), ctx.subtract(xd, xa))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(args=st.tuples(*[st.floats(-1e6, 1e6)] * 4, st.floats(-50.0, 50.0)))
# the float formula returned 0.24294187734067346, two ulps above beta
@example(args=(0.0, 0.3, 0.4, 1.0, 0.2))
# c e^tau and b e^-tau agree to 30 digits (b / c is a continued-fraction
# convergent of e^0.6); the float formula returned 0.0
@example(args=(0.0, 3962505598734238.0, 2174669180673077.0, 1.0, 0.3))
# beta = 2 sinh(tau): the terms agree to 97 digits, and to 323 at 5e-324
@example(args=(0.0, 1.0, 1.0, 1.0, 6.209954878528389e-98))
@example(args=(0.0, 1.0, 1.0, 2.0, 5e-324))
def test_kg_beta_of_ordinary_arguments_is_correctly_rounded(args):
    assume(args[3] != args[0])
    ctx, beta = _WIDE_CONTEXT, _beta_wide(*args)
    assume(math.isfinite(float(ctx.to_sci_string(beta))))
    got = kg_beta(*args)
    error = ctx.abs(ctx.subtract(decimal.Decimal(got, ctx), beta))
    assert error <= ctx.divide(decimal.Decimal(math.ulp(got), ctx), 2)


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
