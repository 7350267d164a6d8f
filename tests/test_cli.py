import json
import subprocess
import sys

import numpy as np
import pytest

from cryptoherm import (
    DefectiveError,
    InconsistentError,
    MatrixFileError,
    MetricFamily,
    NoPositiveSolutionError,
    NotPositiveDefiniteError,
    NotQuasiHermitianError,
    SeriesOverflowError,
    SolvabilityViolatedError,
    UnderdeterminedError,
    assemble_metric,
    diagonalize,
    kg_hamiltonian,
    kg_metric,
    matrix_from_doc,
    matrix_to_doc,
    read_matrix,
    write_matrix,
)
from cryptoherm import cli
from cryptoherm.cli import SCAN_CSV_HEADER, main

EXPECTED_HEADER = "lambda,tau,spectrum_real,max_imag,min_gap,eigvec_cond,metric_exists,theta_min_eig"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse flag errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def matrices(tmp_path):
    def write(name, m):
        path = tmp_path / f"{name}.json"
        write_matrix(path, np.asarray(m, dtype=complex), name)
        return str(path)

    return write


# ---------------------------------------------------------------------------
# matrix file format
# ---------------------------------------------------------------------------


def test_matrix_file_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "m.json"
    write_matrix(path, m, "random")
    back = read_matrix(path)
    assert np.array_equal(back, m)


def test_matrix_doc_validation():
    from cryptoherm import MatrixFileError

    with pytest.raises(MatrixFileError):
        matrix_from_doc({"dim": 2, "data": [[[0.0, 0.0]]]})
    with pytest.raises(MatrixFileError):
        matrix_from_doc({"dim": 1, "data": [[[0.0, "x"]]]})
    with pytest.raises(MatrixFileError):
        matrix_from_doc({"dim": 1, "data": [[[True, False]]]})
    with pytest.raises(MatrixFileError):
        matrix_from_doc({"data": [[[0.0, 0.0]]]})


# ---------------------------------------------------------------------------
# diag
# ---------------------------------------------------------------------------


def test_diag_kg_builtin(capsys):
    code, out, _ = run_cli(capsys, "diag", "--kg", "0.3")
    assert code == 0
    report = json.loads(out)
    eigs = [complex(re, im) for re, im in report["eigenvalues"]]
    assert np.allclose(
        sorted(e.real for e in eigs), [-1.3498588075760032, 1.3498588075760032], rtol=1e-12
    )
    assert report["spectrum_real"] is True


def test_diag_identity_file(capsys, matrices):
    code, out, _ = run_cli(capsys, "diag", "--h", matrices("eye", np.eye(3)))
    assert code == 0
    report = json.loads(out)
    assert all(np.isclose(re, 1.0) and im == 0.0 for re, im in report["eigenvalues"])


def test_diag_jordan_block_exits_3(capsys, matrices):
    code, _, err = run_cli(capsys, "diag", "--h", matrices("jordan", [[0, 1], [0, 0]]))
    assert code == 3
    assert err


def test_diag_unparsable_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "diag", "--h", str(bad))
    assert code == 2
    assert err


def test_bad_flags_exit_2(capsys):
    code, _, _ = run_cli(capsys, "diag")
    assert code == 2


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def test_metric_with_observable_selects_beta_half(capsys, matrices):
    code, out, err = run_cli(
        capsys, "metric", "--kg", "0.0", "--obs", matrices("obs", [[0, 0], [1, 2]])
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    theta = matrix_from_doc(report["theta"])
    ref = kg_metric(0.0, 0.5).theta
    scale = ref[0, 0].real / theta[0, 0].real
    assert np.linalg.norm(scale * theta - ref) <= 1e-10
    assert report["quasi_hermiticity_residual"] <= 1e-12


def test_metric_without_observables_warns(capsys):
    code, out, _ = run_cli(capsys, "metric", "--kg", "0.5")
    assert code == 0
    report = json.loads(out)
    assert report["warning"] == "family has 1 free ratios"
    assert report["kappa"] == [1.0, 1.0]


def test_metric_underdetermined_exits_5(capsys, matrices):
    # d = a observable compatible with the whole family
    code, _, err = run_cli(
        capsys, "metric", "--kg", "0.0", "--obs", matrices("da", [[2, 1], [1, 2]])
    )
    assert code == 5
    assert err


def test_metric_no_positive_solution_exits_4(capsys, matrices):
    # beta = 3 > 1: compatible line exists but is indefinite
    code, _, err = run_cli(
        capsys, "metric", "--kg", "0.0", "--obs", matrices("far", [[0, 0], [3, 1]])
    )
    assert code == 4
    assert err


# ---------------------------------------------------------------------------
# hermitize
# ---------------------------------------------------------------------------


def test_hermitize_kg_builtin(capsys):
    code, out, _ = run_cli(capsys, "hermitize", "--kg", "0.7", "--beta", "0.2")
    assert code == 0
    report = json.loads(out)
    assert report["hermiticity_defect_rel"] <= 1e-10
    eigs = sorted(re for re, _ in report["eigenvalues"])
    assert np.allclose(eigs, [-np.exp(0.7), np.exp(0.7)], rtol=1e-10)


def test_hermitize_wrong_metric_exits_7(capsys, matrices):
    code, _, err = run_cli(
        capsys,
        "hermitize",
        "--h", matrices("kg1", [[0, np.exp(2.0)], [1, 0]]),
        "--metric", matrices("eye", np.eye(2)),
    )
    assert code == 7
    assert err


def test_hermitize_beta_out_of_range_exits_8(capsys):
    code, _, err = run_cli(capsys, "hermitize", "--kg", "0.0", "--beta", "1.5")
    assert code == 8
    assert err


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------


def test_perturb_zero_perturbation(capsys, matrices):
    code, out, _ = run_cli(
        capsys,
        "perturb", "--kg", "0.4", "--beta", "0.1",
        "--w", matrices("zero", np.zeros((2, 2))),
        "--order", "2",
    )
    assert code == 0
    report = json.loads(out)
    for doc in report["t_coeffs"]:
        assert np.linalg.norm(matrix_from_doc(doc)) == 0.0
    assert np.linalg.norm(matrix_from_doc(report["delta0"])) == 0.0
    assert report["admissible"] is True


def test_perturb_kg_fixture_matches_library(capsys, matrices):
    from cryptoherm import PerturbationProblem, kg_hamiltonian, metric_series

    w0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    code, out, _ = run_cli(
        capsys,
        "perturb", "--kg", "0.2", "--beta", "0.25",
        "--w", matrices("w0", w0),
        "--order", "2",
    )
    assert code == 0
    report = json.loads(out)
    prob = PerturbationProblem.build(kg_hamiltonian(0.2), kg_metric(0.2, 0.25), [w0], 1e-10)
    series = metric_series(prob, 2)
    for k, doc in enumerate(report["t_coeffs"], start=1):
        assert np.array_equal(matrix_from_doc(doc), series.t_coeffs[k])
    assert report["admissible"] is True


def test_perturb_solvability_violation_exits_6(capsys, matrices):
    code, out, err = run_cli(
        capsys,
        "perturb",
        "--h", matrices("diagH", np.diag([1.0, 2.0])),
        "--metric", matrices("eye", np.eye(2)),
        "--w", matrices("wbad", [[1j, 0], [0, 0]]),
        "--order", "1",
    )
    assert code == 6
    report = json.loads(out)
    assert report["error"] == "SolvabilityViolated"
    assert report["order"] == 1
    assert err.startswith("error: order-1 solvability condition violated")
    assert err.count("\n") == 1


def test_perturb_tests_admissibility_with_every_delta_term(capsys, matrices):
    from cryptoherm import (PerturbationProblem, dyson_from_metric, hidden_hermiticity_test,
                            metric_series)

    w0 = np.array([[0.0, 1.0], [1.0, 0.0]])
    lam = 0.05
    code, out, err = run_cli(capsys, "perturb", "--kg", "0.2", "--beta", "0.25",
                             "--w", matrices("w0", w0), "--order", "3", "--lam", str(lam))
    assert code == 0 and err == ""
    prob = PerturbationProblem.build(kg_hamiltonian(0.2), kg_metric(0.2, 0.25), [w0], 1e-10)
    d0, d1, d2 = dyson_from_metric(metric_series(prob, 3), prob.theta).delta_coeffs
    residuals = [hidden_hermiticity_test(prob.w_at(lam), delta, prob.h, prob.theta, lam, 1e-10)[1]
                 for delta in (d0 + lam * d1 + lam**2 * d2, d0 + lam * d1)]
    assert residuals[0] != residuals[1]
    assert json.loads(out)["hidden_hermiticity_residual"] == residuals[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ws, lam, order, code", [
    (3, "1e200", "1", 8),  # lam**2 W^(2) leaves the float range
    (3, "1e200", "3", 8),  # so does the Delta(lambda) sum
    (1, "nan", "0", 2),
    (1, "inf", "0", 2),
    (1, "inf", "2", 2),
    (1, "1e308", "2", 8),  # lambda * Delta leaves the float range
    (1, "1e308", "0", 0),  # no Delta term: 1 + lambda * 0 is finite
])
def test_perturb_lam_repros_exit_with_one_error_line(capsys, matrices, ws, lam, order, code):
    w = matrices("w", [[0.0, 1.0], [1.0, 0.0]])
    got, out, err = run_cli(capsys, "perturb", "--kg", "0.2", "--beta", "0.25", *["--w", w] * ws,
                            "--order", order, f"--lam={lam}")
    assert got == code
    if code:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == "" and json.loads(out)["lambda"] == float(lam)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_kg_header_and_rows(capsys):
    code, out, err = run_cli(capsys, "scan", "--family", "kg", "--tau", "0:2:21", "--lambda", "0")
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == EXPECTED_HEADER
    assert SCAN_CSV_HEADER == EXPECTED_HEADER
    assert len(lines) == 22
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[2] == "true"  # spectrum_real for every tau
        assert fields[6] == "true"  # metric_exists


def test_scan_rows_reparse_to_full_precision(capsys):
    code, out, _ = run_cli(capsys, "scan", "--family", "kg", "--tau", "0:1:3", "--lambda", "0")
    assert code == 0
    row = out.strip().split("\n")[2]
    tau = float(row.split(",")[1])
    assert tau == 0.5


def test_scan_find_boundary(capsys, matrices):
    h = matrices("h", [[0, 1], [1, 0]])
    w = matrices("w", [[0, -1], [0, 0]])
    code, out, _ = run_cli(
        capsys,
        "scan", "--family", "linear", "--h", h, "--w", w,
        "--lambda", "0:2:41", "--find-boundary", "0:2",
    )
    assert code == 0
    last = out.strip().split("\n")[-1]
    assert last.startswith("# lambda_max,")
    assert abs(float(last.split(",")[1]) - 1.0) <= 1e-8


def test_scan_empty_grid_exits_2(capsys):
    code, _, err = run_cli(capsys, "scan", "--family", "kg", "--tau", "", "--lambda", "0")
    assert code == 2
    assert err


@pytest.mark.parametrize("argv, message", [
    # an empty value reaches its parser instead of reading as "flag absent"
    (("scan", "--family", "kg", "--tau", "0.5", "--lambda", ""), "empty grid specification"),
    (("scan", "--family", "kg", "--tau", "0.5", "--lambda", "0,1.5", "--find-boundary", ""),
     "bracket must be lo:hi"),
    (("scan", "--family", "kg", "--tau", "0.5", "--lambda", "0,1.5", "--w", ""),
     "cannot parse matrix file"),
    # a flag the chosen mode would not read
    (("scan", "--family", "linear", "--h", "H", "--w", "W", "--lambda", "0", "--tau", "0.5"),
     "--tau is not used by --family linear"),
    (("scan", "--family", "kg", "--tau", "0.5", "--h", "H"), "--h is not used by --family kg"),
    (("hermitize", "--h", "H", "--metric", "M", "--beta", "0.0"), "--beta sets the builtin"),
    (("perturb", "--kg", "0.2", "--metric", "M", "--beta", "0.25"), "--beta sets the builtin"),
    (("diag", "--kg", "0.3", "--out", ""), "[Errno 21] Is a directory: '.'"),
    # a flag the chosen mode needs
    (("scan", "--family", "kg", "--lambda", "0"), "--family kg requires --tau"),
])
def test_empty_or_unread_flag_exits_2(capsys, matrices, argv, message):
    files = {"H": matrices("h", [[0, 1], [1, 0]]), "W": matrices("w", [[0, -1], [0, 0]]),
             "M": matrices("m", np.eye(2))}
    code, out, err = run_cli(capsys, *[files.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_scan_decreasing_grid_exits_2(capsys):
    code, _, err = run_cli(capsys, "scan", "--family", "kg", "--tau", "2,1", "--lambda", "0")
    assert code == 2
    assert err


def test_scan_out_file(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, out, err = run_cli(
        capsys, "scan", "--family", "kg", "--tau", "0:1:5", "--lambda", "0", "--out", str(out_path)
    )
    assert code == 0 and err == ""
    text = out_path.read_text()
    assert text.startswith(EXPECTED_HEADER)
    assert "wrote 5 rows" in out


@pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-dir", "a-dir"])
def test_unwritable_out_exits_2(capsys, tmp_path, matrices, target):
    out = str(tmp_path / target)
    solvability_violated = ("perturb", "--h", matrices("diagH", np.diag([1.0, 2.0])),
                            "--metric", matrices("eye", np.eye(2)),
                            "--w", matrices("wbad", [[1j, 0], [0, 0]]))
    for argv in (("diag", "--kg", "0.3"), ("scan", "--family", "kg", "--tau", "0"),
                 solvability_violated):
        code, stdout, err = run_cli(capsys, *argv, "--out", out)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: [Errno") and out in err and err.count("\n") == 1


def test_scan_grid_cap_holds_for_a_linear_comma_list(capsys, monkeypatch, matrices):
    # the range form and --family kg are capped in test_input_caps_exit_2
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 3)
    files = ("--h", matrices("h", np.diag([1.0, 2.0])), "--w", matrices("w", [[0, 1], [1, 0]]))
    code, out, err = run_cli(capsys, "scan", "--family", "linear", *files,
                             "--lambda", "0,0.1,0.2,0.3")
    assert (code, out, err) == (2, "", "error: scan grid has 4 points, above the cap of 3\n")
    code, out, err = run_cli(capsys, "scan", "--family", "linear", *files, "--lambda", "0,0.1,0.2")
    assert (code, err) == (0, "") and len(out.splitlines()) == 4


# ---------------------------------------------------------------------------
# emitted-matrix round trips and global flags
# ---------------------------------------------------------------------------


def test_emitted_matrices_reparse_bit_consistently(capsys, tmp_path, matrices):
    out_path = tmp_path / "metric.json"
    code, _, _ = run_cli(capsys, "metric", "--kg", "0.4", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    theta = matrix_from_doc(report["theta"])
    assert report["theta"] == matrix_to_doc(theta, "theta")


def test_tol_flag_validation(capsys):
    code, _, err = run_cli(capsys, "diag", "--kg", "0.0", "--tol", "0.5")
    assert code == 2
    assert err


def test_console_entry_point_module():
    proc = subprocess.run(
        [sys.executable, "-m", "cryptoherm.cli", "diag", "--kg", "0.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["spectrum_real"] is True
    assert proc.stderr == ""


def run_cli_process(*argv):
    return subprocess.run(
        [sys.executable, "-m", "cryptoherm.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_import_skips_scipy_and_thread_pool():
    probe = (
        "import sys, cryptoherm.cli; "
        "print([m for m in ('scipy', 'concurrent.futures') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_decimal_to_kg_beta_fallback():
    # kg_beta imports decimal only where its float formula overflows
    probe = "import sys, cryptoherm.cli; print('decimal' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"


def test_scan_find_boundary_tol_below_float_spacing(matrices):
    h = matrices("h", [[0, 1], [1, 0]])
    w = matrices("w", [[0, -1], [0, 0]])
    proc = run_cli_process(
        "scan", "--family", "linear", "--h", h, "--w", w,
        "--lambda", "0:2:41", "--find-boundary", "0:2", "--tol", "1e-20",
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().split("\n")[-1].startswith("# lambda_max,")
    assert proc.stderr == ""


def test_bool_dim_file_exits_2(tmp_path):
    path = tmp_path / "bool_dim.json"
    path.write_text('{"dim": true, "data": [[[1.0, 0.0]]]}\n')
    proc = run_cli_process("diag", "--h", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_diag_near_overflow_entries_keep_stderr_empty(matrices):
    # norms of H overflow, and eigenvalue differences reach 2e308
    for name, m in (("h1", [[0.0, 1e308], [1e307, 0.0]]),
                    ("h2", [[1e308, 1e307], [1e307, -1e308]])):
        proc = run_cli_process("diag", "--h", matrices(name, m))
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["spectrum_real"] is True


def test_hermitize_near_overflow_keeps_stderr_empty(matrices):
    # the Frobenius norms of the image overflowed: a warning on stderr and
    # "inf" / "nan" defects on a success path
    h = matrices("h", 2.0**600 * kg_hamiltonian(1.0))
    theta = matrices("theta", kg_metric(1.0, 0.0).theta)
    proc = run_cli_process("hermitize", "--h", h, "--metric", theta)
    assert proc.returncode == 0
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert np.isfinite(report["hermiticity_defect"])
    assert 0.0 <= report["hermiticity_defect_rel"] <= 1e-12


def test_hermitize_image_whose_skew_part_overflows_keeps_stderr_empty(matrices):
    # Theta = diag(1, 4e-5) passes H at --tol 0.0099, and the image is
    # [[0, 1.79e308], [-1.1e306, 0]]: A - A^dag overflows where its halves
    # do not, so only the defect itself, 2.55e308, leaves the float range
    eps = 4e-5
    h = matrices("h", [[0.0, 1.79e308 * eps**0.5], [-1.1e306 / eps**0.5, 0.0]])
    theta = matrices("theta", np.diag([1.0, eps]))
    proc = run_cli_process("hermitize", "--h", h, "--metric", theta, "--tol", "0.0099")
    assert proc.returncode == 0
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    assert report["hermiticity_defect"] == "inf"
    assert report["hermiticity_defect_rel"] == pytest.approx(
        2**0.5 * (1.79 + 0.011) / np.hypot(1.79, 0.011), rel=1e-12)


@pytest.mark.parametrize("argv, line", [
    (("metric", "--kg", "0.3", "--obs", "{3x3}"),
     "error: observable[0] has shape (3, 3), expected (2, 2)"),
    (("hermitize", "--h", "{2x2}", "--metric", "{3x3}"),
     "error: theta has shape (3, 3), expected (2, 2)"),
], ids=["metric-obs", "hermitize-metric"])
def test_shape_mismatch_exits_8_naming_the_operand_and_both_shapes(capsys, matrices, argv, line):
    files = {"2x2": matrices("h", np.diag([1.0, 2.0])), "3x3": matrices("m", np.eye(3))}
    code, out, err = run_cli(capsys, *(a.format_map(files) for a in argv))
    assert code == 8
    assert out == ""
    assert err.splitlines() == [line]


def test_metric_observable_near_overflow_matches_unscaled(matrices):
    obs = np.array([[0.0, 0.0], [1.0, 2.0]])
    ref = run_cli_process("metric", "--kg", "0.3", "--obs", matrices("o", obs))
    proc = run_cli_process("metric", "--kg", "0.3", "--obs", matrices("big", 2.0**600 * obs))
    assert ref.returncode == proc.returncode == 0
    assert proc.stderr == ""
    kappa = json.loads(proc.stdout)["kappa"]
    assert np.allclose(kappa, json.loads(ref.stdout)["kappa"], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("with_obs", [False, True], ids=["no-obs", "obs"])
def test_metric_with_left_vectors_near_the_float_limit_exits_8(matrices, with_obs):
    # eigenvector condition 2e160, accepted at --tol 1e-200.  Without --obs,
    # Theta overflowed: 4 RuntimeWarnings and exit 0 with "nan" entries.
    # With --obs, the constraint rows overflowed: 7 RuntimeWarnings, then
    # exit 2 because numpy's SVD did not converge.
    h = matrices("h", [[1.0, 1e160], [0.0, 2.0]])
    obs = ["--obs", matrices("o", [[1.0, 0.5], [0.5, -1.0]])] if with_obs else []
    proc = run_cli_process("metric", "--h", h, *obs, "--tol", "1e-200")
    assert proc.returncode == 8
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")


def test_scan_row_with_a_metric_past_the_float_range_keeps_stderr_empty(matrices):
    # the all-ones witness at lambda = 0 overflowed: 3 RuntimeWarnings on a
    # success path and theta_min_eig = -inf; the row now records the failure
    h = matrices("h", [[1.0, 1e160], [0.0, 2.0]])
    w = matrices("w", [[0.0, 1.0], [1.0, 0.0]])
    proc = run_cli_process("scan", "--family", "linear", "--h", h, "--w", w,
                           "--lambda", "0:1:3", "--tol", "1e-200")
    assert proc.returncode == 0
    assert proc.stderr == ""
    rows = proc.stdout.splitlines()[1:]
    assert rows[0].startswith("0.0,,true,") and rows[0].endswith(",false,nan")
    assert [r.split(",")[6] for r in rows[1:]] == ["true", "true"]


@pytest.mark.filterwarnings("error")
def test_eigenvector_condition_past_the_float_range_prints_no_warning(capsys, matrices):
    # the condition number's SVD ratio overflowed: numpy's RuntimeWarning
    # on stderr of a successful scan, and before diag's and metric's error line
    h = matrices("h", [[1.0, 1.7e308], [0.0, 2.0]])
    code, out, err = run_cli(capsys, "scan", "--family", "linear", "--h", h, "--w", h,
                             "--lambda", "0")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "0.0,,true,0.0,1.0,inf,false,nan"
    for command in ("diag", "metric"):
        code, out, err = run_cli(capsys, command, "--h", h)
        assert (code, out) == (3, "")
        assert err == ("error: eigenvector-basis condition number exceeds 1/tol = 1.000e+10; "
                       "matrix is (near-)defective\n")


@pytest.mark.parametrize("argv, code", [
    (["--family", "kg", "--tau", "0", "--find-boundary", "nonsense"], 2),
    (["--family", "kg", "--tau", "0:1:3", "--find-boundary", "0:1"], 2),  # one tau needed
    (["--family", "kg", "--tau", "0", "--find-boundary", "0:1"], 8),  # real at both ends
    (["--family", "linear", "--h", "H", "--w", "W", "--find-boundary", "0:1e308"], 8),
], ids=["malformed", "multi-tau", "invalid-bracket", "endpoint-past-float-range"])
def test_find_boundary_fails_before_the_grid_runs(capsys, monkeypatch, matrices, argv, code):
    scans = []
    monkeypatch.setattr(cli, "reality_scan", lambda *args: scans.append(args))
    files = {"H": matrices("h", np.diag([1.0, 2.0])), "W": matrices("w", [[0, 10], [10, 0]])}
    got, out, err = run_cli(capsys, "scan", *[files.get(a, a) for a in argv],
                            "--lambda", "0:1:200")
    assert (got, out, scans) == (code, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1


def test_input_caps_exit_2():
    from cryptoherm.cli import MAX_GRID_POINTS, MAX_ORDER

    over = MAX_GRID_POINTS + 1
    side = int(MAX_GRID_POINTS**0.5)
    for argv in (
        ("scan", "--family", "kg", "--tau", f"0:1:{over}"),
        ("scan", "--family", "kg", "--tau", "0.5", "--lambda", f"0:1:{over}"),
        ("scan", "--family", "kg", "--tau", f"0:1:{side}", "--lambda", f"0:1:{side + 1}"),
        ("perturb", "--kg", "0.2", "--order", str(MAX_ORDER + 1)),
    ):
        proc = run_cli_process(*argv)
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, argv


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_reports_are_strict_json_with_string_non_finite_numbers(matrices):
    # one eigenvalue has no gap; eigenvalues +-1.005e308 have a gap past the float range
    for name, m in (("one", [[2.0]]), ("h2", [[1e308, 1e307], [1e307, -1e308]])):
        proc = run_cli_process("diag", "--h", matrices(name, m))
        assert proc.returncode == 0
        assert proc.stderr == ""
        report = json.loads(proc.stdout, parse_constant=reject_constant)
        assert report["min_gap"] == "inf"
        assert float(report["min_gap"]) == float("inf")


def test_format_flag_is_gone(capsys):
    code, out, _ = run_cli(capsys, "diag", "--kg", "0.3", "--format", "report")
    assert code == 2
    assert out == ""


def test_perturb_high_order_past_convergence_radius(tmp_path):
    # coefficients grow like r^-k and reach 1e185 at K = 100: their squared
    # entries overflow, the entries do not
    rng = np.random.default_rng(0)
    n = 8
    s = np.eye(n) + (0.3 / np.sqrt(n)) * rng.standard_normal((n, n))
    s_inv = np.linalg.inv(s)
    h0 = s @ np.diag(np.linspace(-1.0, 1.0, n)) @ s_inv
    m = 10.0 * rng.standard_normal((n, n))
    np.fill_diagonal(m, 0.0)
    system = diagonalize(h0, 1e-10)
    theta = assemble_metric(MetricFamily(system), np.ones(n)).theta
    paths = {}
    for name, mat in (("h", h0), ("w", s @ m @ s_inv), ("theta", theta)):
        paths[name] = str(tmp_path / f"{name}.json")
        write_matrix(paths[name], mat, name)
    proc = run_cli_process("perturb", "--h", paths["h"], "--metric", paths["theta"],
                           "--w", paths["w"], "--order", "100")
    assert proc.returncode == 0
    assert proc.stderr == ""
    report = json.loads(proc.stdout, parse_constant=reject_constant)
    residuals = report["solvability_residuals"]
    assert len(residuals) == 101
    assert all(isinstance(r, float) and 0.0 <= r <= 1e-10 for r in residuals)


def test_perturb_coefficient_overflow_exits_8(tmp_path):
    # the input of test_perturb_high_order_past_convergence_radius with a
    # 100x stronger perturbation: T^(k) leaves the float range before K = 100
    rng = np.random.default_rng(0)
    n = 8
    s = np.eye(n) + (0.3 / np.sqrt(n)) * rng.standard_normal((n, n))
    s_inv = np.linalg.inv(s)
    h0 = s @ np.diag(np.linspace(-1.0, 1.0, n)) @ s_inv
    m = 1000.0 * rng.standard_normal((n, n))
    np.fill_diagonal(m, 0.0)
    system = diagonalize(h0, 1e-10)
    theta = assemble_metric(MetricFamily(system), np.ones(n)).theta
    paths = {}
    for name, mat in (("h", h0), ("w", s @ m @ s_inv), ("theta", theta)):
        paths[name] = str(tmp_path / f"{name}.json")
        write_matrix(paths[name], mat, name)
    proc = run_cli_process("perturb", "--h", paths["h"], "--metric", paths["theta"],
                           "--w", paths["w"], "--order", "100")
    assert proc.returncode == 8
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: order-")


@pytest.mark.parametrize(
    "exc, code",
    [
        (ValueError("bad flag"), 2),
        (MatrixFileError("bad file"), 2),
        (DefectiveError("defective"), 3),
        (NoPositiveSolutionError("no positive weights"), 4),
        (UnderdeterminedError("free ratio"), 5),
        (SolvabilityViolatedError(2, 0.5), 6),
        (NotQuasiHermitianError("not quasi-Hermitian"), 7),
        (NotPositiveDefiniteError("indefinite"), 7),
        (SeriesOverflowError(70), 8),
        (InconsistentError("zero solution"), 8),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_error_classes_map_to_documented_exit_codes(capsys, monkeypatch, exc, code):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "diagonalize", fail)
    assert run_cli(capsys, "diag", "--kg", "0.3") == (code, "", f"error: {exc}\n")
