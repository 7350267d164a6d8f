import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import cryptoherm as ch

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "tools" / "point_cost.py"
_SPEC = importlib.util.spec_from_file_location("point_cost", _PATH)
point_cost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(point_cost)


def test_one_round_prints_the_point_and_probe_tables():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "point_cost.py"),
                           "--sizes", "2", "4", "--repeats", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    points, probes, order = (block.splitlines() for block in proc.stdout.split("\n\n"))
    assert points[0].startswith("| N | src | µs per point |")
    assert probes[0] == "| N | src | µs per lambda_max | probes | µs per probe | eigvals | rest |"
    rows = [[c.strip() for c in line.split("|")[1:-1]] for line in probes[2:]]
    # one row per size, then the scan workload's kg search
    assert [r[0] for r in rows] == ["2", "4", "kg"]
    # the point table has one row per size, then the kg family's
    assert len(points) == 5
    assert [line.split("|")[1].strip() for line in points[2:]] == ["2", "4", "kg"]
    for n, _, call, count, per_probe, eigvals, rest in rows:
        # at least both bracket ends; the split adds up to the probe's cost
        assert int(count) >= 2 and float(call) > 0.0
        assert abs(float(eigvals) + float(rest) - float(per_probe)) <= 0.2
    assert order[0] == "| seed | src | searches | µs per lambda_max, median | quartiles |"
    # one row per tree, each over one search per scan family of seed 0
    families = len(point_cost.gen.scan_inputs(np.random.default_rng(0)))
    assert [line.split("|")[1:4] for line in order[2:]] == [
        [" 0 ", f" {ROOT / 'src'} ", f" {families} "]]


def test_benchmark_order_times_every_search_of_every_round_per_tree():
    trees = [ch, ch]
    walls = point_cost.benchmark_order(trees, seed=3, rounds=2)
    # one search per scan family and round, for each tree
    families = len(point_cost.gen.scan_inputs(np.random.default_rng(3)))
    assert families == 1 + sum(count for _, count in point_cost.gen.SCAN_LINEAR)
    assert [len(w) for w in walls] == [2 * families] * 2
    assert all(t > 0.0 for w in walls for t in w)


def test_metered_calls_are_the_calls_the_scan_makes():
    routines = dict(ch.spectra._ROUTINES)
    spec = ch.FamilySpec.linear([[0, 1], [1, 0]], [[0, 0], [-1, 0]], [0.0, 0.5, 1.0, 1.5])
    with point_cost.metered(ch) as calls:
        ch.reality_scan(spec, 1e-10)
    # the meter is gone once the pass is over
    assert ch.spectra._ROUTINES == routines
    assert [p.note for p in ch.reality_scan(spec, 1e-10).points] == [
        "", "", "Defective", "SpectrumNotReal"]
    # the scan stacks its points, so each operand is a stack of matrices
    matrices = {}
    for routine, (stack, *_), _ in calls:
        matrices.setdefault(routine, []).extend(stack)
    assert any(np.array_equal(m, [[0.0, 1.0], [0.0, 0.0]]) for m in matrices["eig"])
    # the Jordan block at lambda = 1 fails the condition gate before any
    # inv: each basis inverted is well conditioned, the Jordan block's is not
    assert len(matrices["inv"]) == 3
    assert all(np.linalg.cond(m) < 1e10 for m in matrices["inv"])
    assert all(seconds > 0.0 for *_, seconds in calls)
    for routine, operands, _ in calls:
        ch.spectra._lapack(routine, *operands)


def test_a_kg_family_meters_its_scan_and_search():
    fam = point_cost.gen.kg_family(np.random.default_rng(0))
    spec = ch.FamilySpec.kg(fam.taus, fam.lambdas, w0=fam.w0)
    with point_cost.metered(ch) as scan:
        ch.reality_scan(spec, 1e-10)
    rows = ch.reality_scan(spec, 1e-10).points
    # the scan stacks its points: count matrices, the leading dimension of each operand
    matrices = {}
    for routine, (stack, *_), _ in scan:
        matrices[routine] = matrices.get(routine, 0) + len(stack)
    assert matrices["eig"] == len(rows) == fam.taus.size * fam.lambdas.size
    assert matrices["eigvalsh"] == sum(p.note == "" for p in rows) > 0
    bspec = ch.FamilySpec.kg([fam.boundary_tau], [0.0], w0=fam.w0)
    with point_cost.metered(ch) as search:
        ch.lambda_max(bspec, fam.bracket, 1e-10)
    assert {r for r, *_ in search} == {"eigvals"}
    assert len(search) == point_cost.probe_count(ch, bspec, fam.bracket) >= 2


def test_a_real_pencils_search_meters_one_eigvals_per_probe():
    # real H0 and W0: each probe calls the gufunc straight, in real arithmetic
    spec = ch.FamilySpec.linear(np.diag([-1.0, 1.0]), [[0.0, 1.0], [-1.0, 0.0]], [0.0])
    with point_cost.metered(ch) as search:
        assert abs(ch.lambda_max(spec, (0.0, 2.0), 1e-10) - 1.0) <= 1e-9
    assert [r for r, *_ in search] == ["eigvals"] * point_cost.probe_count(ch, spec, (0.0, 2.0))
    assert all(operands[0].dtype == np.float64 for _, operands, _ in search)


def test_metering_one_copy_records_nothing_while_another_runs():
    metered, other = (point_cost.load_package(ROOT / "src", f"cryptoherm_copy_{i}")
                      for i in range(2))
    args = ([[0, 1], [1, 0]], [[0, 0], [-1, 0]], [0.0, 0.5, 1.0, 1.5])
    with point_cost.metered(metered) as calls:
        other.reality_scan(other.FamilySpec.linear(*args), 1e-10)
        other.lambda_max(other.FamilySpec.linear(*args), (0.0, 2.0), 1e-10)
        assert calls == []
        metered.reality_scan(metered.FamilySpec.linear(*args), 1e-10)
    assert {r for r, *_ in calls} >= {"eig", "inv"}
