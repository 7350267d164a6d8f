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
    fix_ambiguity,
    kg_hamiltonian,
    kg_metric,
    lambda_max,
    matrix_from_doc,
    matrix_to_doc,
    metric_series,
    quasi_hermiticity_residual,
    v_from_w,
    write_matrix,
)
from cryptoherm.cli import main

TOL = 1e-10
EP_FAMILY = FamilySpec.linear(np.diag([-1.0, 1.0]), [[0.0, 1.0], [-1.0, 0.0]], [0.0])


def kg_family():
    return MetricFamily(diagonalize(kg_hamiltonian(0.3), TOL))


class CliExit(Exception):
    """A nonzero exit of the command line that printed one line, to stderr only."""


def cli(*argv):
    """Run ``crypto-metric *argv`` in-process, ``H.json`` naming a 2x2 matrix
    file.  A nonzero exit with empty stdout and one stderr line raises
    :class:`CliExit` with message ``"exit <code>: <line>"``."""
    with tempfile.TemporaryDirectory() as tmp:
        h = os.path.join(tmp, "H.json")
        write_matrix(h, np.diag([1.0, 2.0]))
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
    "assemble_metric-one-weight-for-N2": (lambda: assemble_metric(kg_family(), [1.0]),
                                          ShapeMismatchError, "expected 2 weights"),
    "quasi_hermiticity_residual-2x2-H-3x3-theta": (
        lambda: quasi_hermiticity_residual(np.eye(2), np.eye(3)), ShapeMismatchError,
        "but theta has shape"),
    "fix_ambiguity-3x3-observable": (lambda: fix_ambiguity(kg_family(), [np.eye(3)], TOL),
                                     ShapeMismatchError, "observable has shape"),
    "PerturbationProblem.build-3x3-theta": (
        lambda: PerturbationProblem.build(kg_hamiltonian(0.3), np.eye(3), [], TOL),
        ShapeMismatchError, "theta has shape"),
    "PerturbationProblem.build-3x3-W": (
        lambda: PerturbationProblem.build(kg_hamiltonian(0.3), kg_metric(0.3, 0.0),
                                          [np.eye(3)], TOL),
        ShapeMismatchError, r"W\[0\] has shape"),
    "v_from_w-3x3-W": (lambda: v_from_w(np.eye(3), np.zeros((2, 2)), np.eye(2), 0.1),
                       ShapeMismatchError, "W, Delta and H must share one square shape"),
    "commutator_gap-3x3-V": (
        lambda: commutator_gap(np.eye(3), np.eye(2), np.zeros((2, 2)), np.eye(2)),
        ShapeMismatchError, "V and W must share one square shape"),
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
