import dataclasses
import importlib.util
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "tools" / "row_digest.py"
_SPEC = importlib.util.spec_from_file_location("row_digest", _PATH)
row_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(row_digest)


def _flip_low_bit(x: float) -> float:
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


def test_two_runs_print_the_same_digests():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(_PATH), "--seeds", "0"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    expected = [f"{name} {row_digest.workload_digest(name, [0])}" for name in row_digest.WORKLOADS]
    assert proc.stdout.splitlines() == expected


def test_the_series_digest_does_not_depend_on_the_blas_thread_count():
    # Each child sets its own thread count, whatever this process was started with.
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import row_digest; "
             "print(row_digest.workload_digest('series', [0]))")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", probe, str(_PATH.parent)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] and len(outputs[0].strip()) == 64


def test_one_flipped_bit_in_a_scan_row_changes_the_digest(monkeypatch):
    before = row_digest.workload_digest("scan", [0])
    scan = row_digest.reality_scan

    def flipped(spec, tol):
        report = scan(spec, tol)
        first = report.points[0]
        first = dataclasses.replace(first, min_gap=_flip_low_bit(first.min_gap))
        return dataclasses.replace(report, points=(first, *report.points[1:]))

    monkeypatch.setattr(row_digest, "reality_scan", flipped)
    assert row_digest.workload_digest("scan", [0]) != before


def test_one_flipped_bit_in_a_metric_coefficient_changes_the_series_digest(monkeypatch):
    before = row_digest.workload_digest("series", [0])
    series = row_digest.metric_series

    def flipped(problem, order):
        out = series(problem, order)
        t1 = out.t_coeffs[1].copy()
        t1[0, 0] = complex(_flip_low_bit(t1[0, 0].real), t1[0, 0].imag)
        return dataclasses.replace(out, t_coeffs=(out.t_coeffs[0], t1, *out.t_coeffs[2:]))

    monkeypatch.setattr(row_digest, "metric_series", flipped)
    assert row_digest.workload_digest("series", [0]) != before


def test_one_more_probe_changes_the_probes_digest(monkeypatch):
    before = row_digest.workload_digest("probes", [0])
    search = row_digest.lambda_max
    extra = [1]

    def one_more(spec, bracket, tol):
        if extra:  # one more hamiltonian_at call in the first search; no result changes
            extra.pop()
            spec.hamiltonian_at(spec.lambdas[0], None if spec.taus is None else spec.taus[0])
        return search(spec, bracket, tol)

    monkeypatch.setattr(row_digest, "lambda_max", one_more)
    assert row_digest.workload_digest("probes", [0]) != before


def _flip_exit_code(main):
    def flipped(argv):
        code = main(argv)
        return code + 1 if argv[0] == "hermitize" else code
    return flipped


def _touch_out_file(main):
    def touched(argv):
        code = main(argv)
        if "--out" in argv:
            with open(argv[argv.index("--out") + 1], "a") as fh:
                fh.write(" ")
        return code
    return touched


@pytest.mark.parametrize("change", [_flip_exit_code, _touch_out_file])
def test_a_changed_exit_code_or_out_file_changes_the_cli_digest(monkeypatch, change):
    before = row_digest.workload_digest("cli", [0])
    assert row_digest.workload_digest("cli", [0]) == before
    monkeypatch.setattr(row_digest.cli, "main", change(row_digest.cli.main))
    assert row_digest.workload_digest("cli", [0]) != before


def test_the_cli_digest_leaves_the_working_directory_as_it_was():
    cwd = os.getcwd()
    row_digest.workload_digest("cli", [0])
    assert os.getcwd() == cwd


def test_src_trees_print_their_digests_and_name_the_moved_ones(monkeypatch, tmp_path, capsys):
    # a second tree whose scan CSV header differs moves the cli digest alone
    moved = tmp_path / "moved"
    shutil.copytree(ROOT / "src", moved, ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = moved / "cryptoherm" / "cli.py"
    cli_py.write_text(cli_py.read_text().replace('"lambda,tau,', '"lam,tau,', 1))
    # main rebinds the package names; monkeypatch puts them back afterwards
    for name in (*row_digest.PACKAGE_NAMES, "cli"):
        monkeypatch.setattr(row_digest, name, getattr(row_digest, name))
    workloads = {name: row_digest.WORKLOADS[name] for name in ("scan", "cli")}
    monkeypatch.setattr(row_digest, "WORKLOADS", workloads)
    expected = {name: row_digest.workload_digest(name, [0]) for name in workloads}
    assert row_digest.main(["--seeds", "0", "--src", str(ROOT / "src"), str(moved)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# {ROOT / 'src'}"
    assert lines[1:3] == [f"{name} {value}" for name, value in expected.items()]
    assert lines[3] == f"# {moved}" and lines[4] == f"scan {expected['scan']}"
    assert lines[5].startswith("cli ") and lines[5] != f"cli {expected['cli']}"
    assert lines[6:] == [f"moved in {moved}: cli"]
