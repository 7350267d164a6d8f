"""The traced benchmark run's success path: one seeded pass of the scan
and pipeline workloads under ``perfbench/tracer.py``'s ``Tracer`` enters
every span ``perfbench/metrics.py`` requires, with no failed op.

The perfbench modules are imported read-only from their directory.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import cryptoherm as ch
import cryptoherm.cli  # noqa: F401  (the tracer binds into it)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", [workloads.Scan, workloads.Pipeline])
def test_one_traced_pass_enters_every_required_span(workload):
    wl = workload(ch, np.random.default_rng(7))
    original = ch.stability.diagonalize
    with Tracer() as tracer:
        for op in wl.ops:
            wl.attempt(op)
    assert ch.stability.diagonalize is original
    assert metrics.missing_spans(wl.name, tracer.summary()) == []
    assert (wl.failed, wl.errors) == (0, [])
    assert wl.attempted == len(wl.ops) > 0
