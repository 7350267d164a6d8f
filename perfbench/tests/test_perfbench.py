"""Tests of the benchmark itself: metric tables, hooks, checkers, exit codes.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import cryptoherm as ch  # noqa: E402
import cryptoherm.cli  # noqa: E402,F401
import gen  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import HookError, Tracer  # noqa: E402


def test_benchmark_json_lists_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == ["scan", "pipeline", "cli"]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(metrics.E2E)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
    assert set(metrics.E2E_MEANING) == {w["name"] for w in spec["workloads"]}


def test_tracer_nests_spans_and_restores_bindings():
    original = ch.stability.diagonalize
    with Tracer() as tracer:
        assert ch.stability.diagonalize is not original
        ch.MetricFamily(ch.diagonalize(ch.kg_hamiltonian(0.3), 1e-10))
    assert ch.stability.diagonalize is original and ch.diagonalize is original
    summary = tracer.summary()
    assert summary["spectra.diagonalize"]["calls"] == 1
    fam = summary["metric.MetricFamily"]
    req = summary["spectra.require_real_nondegenerate"]
    assert fam["calls"] == req["calls"] == 1
    assert fam["self_ns"] == fam["total_ns"] - req["total_ns"]
    names = [s[0] for s in tracer.spans]
    assert tracer.spans[names.index("spectra.require_real_nondegenerate")][3] == \
        names.index("metric.MetricFamily")


@pytest.mark.parametrize("rebind", [False, True])
def test_missing_or_rebound_hook_fails_loudly(monkeypatch, rebind):
    """A sibling binding that disappears (say, after a switch to
    ``from . import spectra``) or points elsewhere must fail the install."""
    if rebind:
        monkeypatch.setattr(ch.perturbation, "diagonalize", lambda h, tol: None)
    else:
        monkeypatch.delattr(ch.perturbation, "diagonalize")
    original = ch.spectra.diagonalize
    with pytest.raises(HookError, match="cryptoherm.perturbation.diagonalize"):
        Tracer().install()
    assert ch.spectra.diagonalize is original and ch.stability.diagonalize is original


def test_missing_spans_are_reported():
    assert metrics.missing_spans("scan", {}) == list(metrics.EXPECTED_SPANS["scan"])
    full = {s: {"calls": 1} for s in metrics.EXPECTED_SPANS["scan"]}
    assert metrics.missing_spans("scan", full) == []


def _copy_checkout(tmp_path, with_src=True):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_run_exits_nonzero_when_an_import_style_changes(tmp_path):
    _copy_checkout(tmp_path)
    stab = tmp_path / "src" / "cryptoherm" / "stability.py"
    text = stab.read_text()
    old = "from .spectra import _check_tol, as_matrix, diagonalize, require_real_nondegenerate"
    assert old in text
    stab.write_text(text.replace(old, "from . import spectra\nfrom .spectra import _check_tol, "
                                      "as_matrix, require_real_nondegenerate")
                    .replace(" diagonalize(h", " spectra.diagonalize(h"))
    proc = _bench(tmp_path, "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode != 0
    assert "cryptoherm.stability.diagonalize" in proc.stderr
    assert '"metrics"' not in proc.stdout


def test_exits_nonzero_without_the_package(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _bench(tmp_path, "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


class _Fixed(workloads.Workload):
    def __init__(self, results):
        super().__init__()
        self.ops = list(range(len(results)))
        self.results = results

    def run(self, op):
        if self.results[op] is None:
            raise ch.DefectiveError("boom")
        return self.results[op]


def test_failures_count_against_attempts():
    wl = _Fixed([[], ["wrong"], None, []])
    for op in wl.ops:
        wl.attempt(op)
    assert (wl.attempted, wl.failed) == (4, 2)
    assert "wrong" in wl.errors[0] and "DefectiveError" in wl.errors[1]


def test_scan_checker_counts_a_corrupted_row():
    fam = gen.kg_family(np.random.default_rng(3))
    spec = ch.FamilySpec.kg(fam.taus, fam.lambdas, w0=fam.w0)
    bspec = ch.FamilySpec.kg([fam.boundary_tau], [0.0], w0=fam.w0)
    rows = list(ch.reality_scan(spec, gen.TOL).points)
    boundary = ch.lambda_max(bspec, fam.bracket, gen.TOL)
    assert workloads.check_scan(fam, rows, boundary) == []
    i = next(i for i, p in enumerate(rows) if p.spectrum_real)
    bad = rows[:i] + [dataclasses.replace(rows[i], spectrum_real=False)] + rows[i + 1:]
    assert workloads.check_scan(fam, bad, boundary)
    assert workloads.check_scan(fam, rows, boundary + 1e-6)
    assert workloads.check_scan(fam, rows[1:], boundary)


def test_pipeline_problem_passes_its_checks():
    wl = workloads.Pipeline(ch, np.random.default_rng(5))
    for p in wl.ops[:8]:
        wl.attempt(p)
    assert (wl.attempted, wl.failed) == (8, 0), wl.errors


def test_cli_checker_counts_corrupted_output(tmp_path):
    wl = workloads.Cli(ch, np.random.default_rng(7), str(ROOT), str(tmp_path))
    for op in wl.ops:
        wl.attempt(op, wl.main_inprocess)
    assert (wl.attempted, wl.failed) == (10, 0), wl.errors

    diag = next(op for op in wl.ops if op[0] == "diag" and op[2] is None)
    ok = json.dumps({"eigenvalues": [[float(z.real), float(z.imag)]
                                     for z in wl.expected["eigenvalues"]],
                     "spectrum_real": True})
    assert wl.check("diag", None, 0, ok, "") == []
    assert wl.check("diag", None, 0, ok, "warning\n")
    assert wl.check("diag", None, 3, ok, "")
    assert wl.check("diag", None, 0, ok.replace("[[", "[[1", 1), "")
    assert wl.check("diag", None, 0, "not json", "")
    assert diag

    scan = next(op for op in wl.ops if op[0] == "scan" and op[2] is not None)
    text = Path(scan[2]).read_text()
    assert wl.check("scan", None, 0, text, "") == []
    assert wl.check("scan", None, 0, text.replace("lambda,tau", "lam,tau", 1), "")
    lines = text.splitlines()
    row = lines[1].split(",")
    row[2] = "false" if row[2] == "true" else "true"
    assert wl.check("scan", None, 0, "\n".join([lines[0], ",".join(row), *lines[2:]]), "")
