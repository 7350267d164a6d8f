"""Argument guards that no other test and no benchmark workload reaches:
each must raise its own error, with its own message."""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from cryptoherm import (
    FamilySpec,
    MatrixFileError,
    MetricFamily,
    NonFiniteError,
    PerturbationProblem,
    ShapeMismatchError,
    UnderdeterminedError,
    assemble_metric,
    commutator_gap,
    diagonalize,
    dyson_map,
    fix_ambiguity,
    hidden_hermiticity_test,
    kg_beta,
    kg_hamiltonian,
    kg_metric,
    lambda_max,
    matrix_from_doc,
    matrix_to_doc,
    metric_from_matrix,
    metric_series,
    pullback_observable,
    quasi_hermiticity_residual,
    series_vs_exact,
    v_from_w,
    w_from_v,
    write_matrix,
)
from cryptoherm.cli import main

TOL = 1e-10
EP_FAMILY = FamilySpec.linear(np.diag([-1.0, 1.0]), [[0.0, 1.0], [-1.0, 0.0]], [0.0])
HUGE_ROTATION = np.array([[1e300, 1e300], [-1e300, 1e300]])


def kg_family():
    return MetricFamily(diagonalize(kg_hamiltonian(0.3), TOL))


class CliExit(Exception):
    """A nonzero exit of the command line that printed one line, to stderr only."""


def cli(*argv, h_bytes=None):
    """Run ``crypto-metric *argv`` in-process, ``H.json`` naming a file that
    holds ``h_bytes``, or a 2x2 matrix by default.  A nonzero exit with
    empty stdout and one stderr line raises :class:`CliExit` with message
    ``"exit <code>: <line>"``."""
    with tempfile.TemporaryDirectory() as tmp:
        h = os.path.join(tmp, "H.json")
        if h_bytes is None:
            write_matrix(h, np.diag([1.0, 2.0]))
        else:
            with open(h, "wb") as fh:
                fh.write(h_bytes)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([h if a == "H.json" else a for a in argv])
    lines = err.getvalue().splitlines()
    if code and out.getvalue() == "" and len(lines) == 1:
        raise CliExit(f"exit {code}: {lines[0]}")
    return code


CASES = {
    "metric_series-negative-order": (
        lambda: metric_series(PerturbationProblem.build(kg_hamiltonian(0.3), kg_metric(0.3, 0.0),
                                                        [], TOL), -1),
        ValueError, "order must be >= 0"),
    "lambda_max-nan-bracket": (lambda: lambda_max(EP_FAMILY, (0.0, float("nan")), TOL),
                               ValueError, "bracket must be finite"),
    "lambda_max-inverted-bracket": (lambda: lambda_max(EP_FAMILY, (2.0, 0.0), TOL), ValueError,
                                    "lo < hi"),
    "lambda_max-kg-two-taus": (lambda: lambda_max(FamilySpec.kg([0.0, 0.5]), (0.0, 1.0), TOL),
                               ValueError, "single tau"),
    "FamilySpec.linear-mismatched-W0": (lambda: FamilySpec.linear(np.eye(2), np.eye(3), [0.0]),
                                        ValueError, "W0 has shape"),
    "FamilySpec.kg-3x3-coupling": (lambda: FamilySpec.kg([0.0], w0=np.eye(3)), ValueError,
                                   "must be 2x2"),
    "assemble_metric-nan-weight": (lambda: assemble_metric(kg_family(), [1.0, float("nan")]),
                                   NonFiniteError, "weights contain NaN"),
    "fix_ambiguity-no-observables": (lambda: fix_ambiguity(kg_family(), [], TOL),
                                     UnderdeterminedError, "no observables"),
    "kg_hamiltonian-inf": (lambda: kg_hamiltonian(float("inf")), NonFiniteError,
                           "tau must be finite"),
    "kg_metric-nan-beta": (lambda: kg_metric(0.0, float("nan")), NonFiniteError,
                           "beta must be finite"),
    "kg_hamiltonian-exp-overflow": (lambda: kg_hamiltonian(400.0), NonFiniteError,
                                    r"e\^\(2 tau\) leaves the float range at tau = 400.0"),
    "kg_metric-exp-overflow": (lambda: kg_metric(-800.0, 0.0), NonFiniteError,
                               r"e\^\|tau\| leaves the float range at tau = -800.0"),
    "diagonalize-complex-modulus-past-float-range": (
        lambda: diagonalize([[1.7e308 + 1.7e308j]], TOL), NonFiniteError,
        "the eigenvalues of H leave the float range"),
    "lambda_max-H-past-float-range-at-hi": (
        lambda: lambda_max(FamilySpec.linear(np.diag([1.0, 2.0]), [[0.0, 10.0], [10.0, 0.0]],
                                             [0.0]), (0.0, 1e308), TOL),
        NonFiniteError, r"H leaves the float range at lambda = 1e\+308"),
    "kg_beta-beta-past-float-range": (lambda: kg_beta(0, 1, 1, 2, 712.0), NonFiniteError,
                                      "beta leaves the double-precision range"),
    "kg_beta-nan-tau": (lambda: kg_beta(0, 1, 1, 2, float("nan")), NonFiniteError,
                        "beta leaves the double-precision range"),
    # an infinite term beside a finite one would never leave 30 digits of
    # their difference: rejected before any decimal arithmetic
    "kg_beta-inf-coefficient": (lambda: kg_beta(0, 1e300, float("inf"), 2, 0.1), NonFiniteError,
                                "beta leaves the double-precision range"),
    "commutator_gap-gap-past-float-range": (
        lambda: commutator_gap(np.zeros((2, 2)), np.zeros((2, 2)), [[0.0, 1e300], [0.0, 0.0]],
                               np.diag([1e10, -1e10])),
        NonFiniteError, "the commutator gap leaves the double-precision range"),
    # [M, M] = 0 with M M near 2e600: the products leave the float range
    # before they cancel, so each helper raises rather than lose the term I
    "commutator_gap-term-underflows-under-cancelling-products": (
        lambda: commutator_gap(np.eye(2), np.zeros((2, 2)), HUGE_ROTATION, HUGE_ROTATION),
        NonFiniteError, "the commutator gap leaves the double-precision range"),
    "v_from_w-term-underflows-under-cancelling-products": (
        lambda: v_from_w(np.eye(2), HUGE_ROTATION, HUGE_ROTATION, 1e-300), NonFiniteError,
        "V leaves the double-precision range"),
    "w_from_v-term-underflows-under-cancelling-products": (
        lambda: w_from_v(np.eye(2), HUGE_ROTATION, HUGE_ROTATION, 1e-300), NonFiniteError,
        "W leaves the double-precision range"),
    # V = W, about 1.05e298 I, is finite, but m W lies far below the
    # cancelling products: a sum at their scale would lose it entirely
    "v_from_w-huge-term-beside-cancelling-products": (
        lambda: v_from_w(2.0**990 * np.eye(2), HUGE_ROTATION, HUGE_ROTATION, 2.0**-700),
        NonFiniteError, "V leaves the double-precision range"),
    "commutator_gap-commuting-huge-factors": (
        lambda: commutator_gap(HUGE_ROTATION, -HUGE_ROTATION, HUGE_ROTATION, HUGE_ROTATION),
        NonFiniteError, "the commutator gap leaves the double-precision range"),
    "pullback_observable-past-float-range": (
        lambda: pullback_observable([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]],
                                    dyson_map(kg_metric(0.3, 0.2))),
        NonFiniteError, "the pulled-back operator leaves the double-precision range"),
    "diagonalize-int-past-float-range": (lambda: diagonalize([[10**400]], TOL), NonFiniteError,
                                         "H has an entry outside the float range"),
    "metric_from_matrix-int-past-float-range": (
        lambda: metric_from_matrix([[10**400]], TOL), NonFiniteError,
        "theta has an entry outside the float range"),
    "kg_hamiltonian-int-past-float-range": (lambda: kg_hamiltonian(10**400), NonFiniteError,
                                            "tau must be finite"),
    "kg_metric-int-past-float-range": (lambda: kg_metric(0.0, 10**400), NonFiniteError,
                                       "tau and beta must be finite"),
    "assemble_metric-int-past-float-range": (
        lambda: assemble_metric(kg_family(), [10**400, 1]), NonFiniteError,
        "weights contain values outside the float range"),
    "lambda_max-int-past-float-range-in-bracket": (
        lambda: lambda_max(EP_FAMILY, (0, 10**400), TOL), ValueError, "bracket must be finite"),
    "diagonalize-int-past-float-range-tol": (lambda: diagonalize(np.eye(2), 10**400), ValueError,
                                             r"tolerance must lie in \(0, 1\), got inf"),
    "kg_beta-int-past-float-range": (lambda: kg_beta(0, 10**400, 1, 2, 0.3), NonFiniteError,
                                     "beta leaves the double-precision range"),
    "series_vs_exact-int-past-float-range": (
        lambda: series_vs_exact(PerturbationProblem.build(kg_hamiltonian(0.3), kg_metric(0.3, 0.0),
                                                          [np.eye(2)], TOL), 1, [10**400]),
        NonFiniteError, "lambdas contain values outside the float range"),
    "FamilySpec.linear-int-past-float-range-in-grid": (
        lambda: FamilySpec.linear([[1.0]], [[1.0]], [10**400]), ValueError,
        "lambda grid contains values outside the float range"),
    "assemble_metric-one-weight-for-N2": (lambda: assemble_metric(kg_family(), [1.0]),
                                          ShapeMismatchError, "expected 2 weights"),
    "quasi_hermiticity_residual-2x2-H-3x3-theta": (
        lambda: quasi_hermiticity_residual(np.eye(2), np.eye(3)), ShapeMismatchError,
        r"^theta has shape \(3, 3\), expected \(2, 2\)$"),
    "fix_ambiguity-3x3-observable": (lambda: fix_ambiguity(kg_family(), [np.eye(3)], TOL),
                                     ShapeMismatchError,
                                     r"^observable\[0\] has shape \(3, 3\), expected \(2, 2\)$"),
    "PerturbationProblem.build-3x3-theta": (
        lambda: PerturbationProblem.build(kg_hamiltonian(0.3), np.eye(3), [], TOL),
        ShapeMismatchError, "theta has shape"),
    "PerturbationProblem.build-3x3-W": (
        lambda: PerturbationProblem.build(kg_hamiltonian(0.3), kg_metric(0.3, 0.0),
                                          [np.eye(3)], TOL),
        ShapeMismatchError, r"W\[0\] has shape"),
    "v_from_w-3x3-W": (lambda: v_from_w(np.eye(3), np.zeros((2, 2)), np.eye(2), 0.1),
                       ShapeMismatchError, r"^W has shape \(3, 3\), expected \(2, 2\)$"),
    "v_from_w-3x3-Delta": (lambda: v_from_w(np.eye(2), np.zeros((3, 3)), np.eye(2), 0.1),
                           ShapeMismatchError, r"^Delta has shape \(3, 3\), expected \(2, 2\)$"),
    "w_from_v-3x3-V": (lambda: w_from_v(np.eye(3), np.zeros((2, 2)), np.eye(2), 0.1),
                       ShapeMismatchError, r"^V has shape \(3, 3\), expected \(2, 2\)$"),
    "commutator_gap-3x3-V": (
        lambda: commutator_gap(np.eye(3), np.eye(2), np.zeros((2, 2)), np.eye(2)),
        ShapeMismatchError, r"^V has shape \(3, 3\), expected \(2, 2\)$"),
    "hidden_hermiticity_test-3x3-theta": (
        lambda: hidden_hermiticity_test(np.eye(2), np.zeros((2, 2)), np.eye(2), np.eye(3), 0.1,
                                        TOL),
        ShapeMismatchError, r"^theta has shape \(3, 3\), expected \(2, 2\)$"),
    "pullback_observable-3x3-operand": (
        lambda: pullback_observable(np.eye(3), dyson_map(kg_metric(0.3, 0.0))),
        ShapeMismatchError, r"^v has shape \(3, 3\), expected \(2, 2\)$"),
    "matrix_to_doc-2x3": (lambda: matrix_to_doc(np.zeros((2, 3))), MatrixFileError,
                          "only square matrices are encoded"),
    "matrix_from_doc-list": (lambda: matrix_from_doc([]), MatrixFileError,
                             "must be a JSON object"),
    "matrix_from_doc-dim-0": (lambda: matrix_from_doc({"dim": 0, "data": []}), MatrixFileError,
                              "dim must be a positive integer"),
    "matrix_from_doc-dim-True": (lambda: matrix_from_doc({"dim": True, "data": [[[0.0, 0.0]]]}),
                                 MatrixFileError, "dim must be a positive integer"),
    "matrix_from_doc-short-second-row": (
        lambda: matrix_from_doc({"dim": 2, "data": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]]}),
        MatrixFileError, "row 1 must hold 2 entries"),
    "matrix_from_doc-nan-entry": (
        lambda: matrix_from_doc({"dim": 1, "data": [[[float("nan"), 0.0]]]}), MatrixFileError,
        "non-finite entries"),
    "matrix_from_doc-int-past-float-range": (
        lambda: matrix_from_doc({"dim": 2, "data": [[[0, 0], [0, 0]], [[0, 10**400], [0, 0]]]}),
        MatrixFileError, r"entry \(1, 0\) lies outside the float range"),
    "cli-matrix-int-past-float-range": (
        lambda: cli("diag", "--h", "H.json",
                    h_bytes=b'{"dim": 1, "data": [[[1' + b"0" * 400 + b", 0]]]}"),
        CliExit, r"^exit 2: error: entry \(0, 0\) lies outside the float range$"),
    "cli-matrix-int-past-digit-limit": (
        lambda: cli("diag", "--h", "H.json",
                    h_bytes=b'{"dim": 1, "data": [[[' + b"1" * 5000 + b", 0]]]}"),
        CliExit, r"^exit 2: error: cannot parse matrix file '.*H\.json': Exceeds the limit"),
    "cli-matrix-nested-too-deeply": (
        lambda: cli("diag", "--h", "H.json", h_bytes=b"[" * 100_000 + b"]" * 100_000),
        CliExit, r"^exit 2: error: cannot parse matrix file '.*H\.json': maximum recursion"),
    "cli-matrix-not-utf8": (
        lambda: cli("diag", "--h", "H.json", h_bytes=b'\xff{"dim": 1}'), CliExit,
        r"^exit 2: error: cannot parse matrix file '.*H\.json': 'utf-8' codec"),
    "cli-matrix-empty-path": (
        lambda: cli("diag", "--h", ""), CliExit,
        "^exit 2: error: cannot parse matrix file '': "),
    "cli-lambda-range-without-count": (
        lambda: cli("scan", "--family", "kg", "--tau", "0.5", "--lambda", "0:1"), CliExit,
        "^exit 2: error: grid range must be lo:hi:count"),
    "cli-lambda-zero-count": (
        lambda: cli("scan", "--family", "kg", "--tau", "0.5", "--lambda", "0:1:0"), CliExit,
        "^exit 2: error: grid count must be >= 1"),
    "cli-find-boundary-one-value": (
        lambda: cli("scan", "--family", "kg", "--tau", "0.5", "--find-boundary", "0"), CliExit,
        "^exit 2: error: bracket must be lo:hi"),
    "cli-hermitize-without-metric-or-kg": (
        lambda: cli("hermitize", "--h", "H.json"), CliExit,
        "^exit 2: error: a metric file is required unless --kg is used"),
    "cli-scan-linear-without-w": (
        lambda: cli("scan", "--family", "linear", "--h", "H.json"), CliExit,
        "^exit 2: error: --family linear requires --h and --w"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_guard_rejects_its_argument(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=message):
        call()


# Finite results of huge terms.
FINITE = {
    "kg_beta-zero-coefficient-times-overflowing-exponential": (
        lambda: kg_beta(0, 1, 0, 2, 710.0), -np.exp(-710.0) / 2),
    # kg_beta past the range of one term: each value is beta correctly
    # rounded, from 60-digit decimal arithmetic.
    # e^710 leaves the float range, e^710 / 2 does not
    "kg_beta-exp-overflow": (lambda: kg_beta(0, 1, 1, 2, 710.0), 1.1169973830808555e308),
    # c e^0.3 leaves the float range, (c e^0.3 - b e^-0.3) / 1 does not
    "kg_beta-product-overflow": (
        lambda: kg_beta(0, 1.7e308, 1.7e308, 1, 0.3), 1.0353689977202849e308),
    # c / (d - a) = 5e-401 is below the float range, beta is not
    "kg_beta-tiny-quotient": (lambda: kg_beta(0, 0, 1e-200, 2e200, 1000.0), 9.850355570085235e33),
    # c / (d - a) = 1e-310 is subnormal
    "kg_beta-subnormal-quotient": (lambda: kg_beta(0, 0, 1e-10, 1e300, 720.0), 492.0700930263816),
    # d - a = 3e308 leaves the float range too
    "kg_beta-observable-gap-overflow": (
        lambda: kg_beta(-1.5e308, 0, 1, 1.5e308, 720.0), 16402.33643421272),
    # tau = 1460 is past twice the exponent range: e^730 overflows too
    "kg_beta-exp-past-twice-the-range": (
        lambda: kg_beta(0, 0, 5e-324, 1.7e308, 1460.0), 341.4124186611586),
    "kg_beta-negative-exp-past-twice-the-range": (
        lambda: kg_beta(0, 5e-324, 0, -1.7e308, -1460.0), 341.4124186611586),
    # d - a = 3.4e308 leaves the float range, each term does not
    "kg_beta-observable-gap-overflow-finite-terms": (
        lambda: kg_beta(-1.7e308, 1, 1, 1.7e308, 700.0), 2.9830354551029544e-05),
    # e^-800 underflows, c e^-800 does not
    "kg_beta-exp-underflow": (lambda: kg_beta(0, 0, 1e300, 1, -800.0), 3.667874584177687e-48),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(FINITE))
def test_finite_result_of_huge_terms(name):
    call, expected = FINITE[name]
    assert call() == expected
