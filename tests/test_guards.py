"""Argument guards that no other test and no benchmark workload reaches:
each must raise its own error, with its own message."""

import numpy as np
import pytest

from cryptoherm import (
    FamilySpec,
    MetricFamily,
    NonFiniteError,
    PerturbationProblem,
    UnderdeterminedError,
    assemble_metric,
    diagonalize,
    fix_ambiguity,
    kg_hamiltonian,
    kg_metric,
    lambda_max,
    metric_series,
)

TOL = 1e-10
EP_FAMILY = FamilySpec.linear(np.diag([-1.0, 1.0]), [[0.0, 1.0], [-1.0, 0.0]], [0.0])


def kg_family():
    return MetricFamily(diagonalize(kg_hamiltonian(0.3), TOL))


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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_guard_rejects_its_argument(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=message):
        call()
