"""The benchmark workloads: ``scan``, ``pipeline`` and ``cli``.

Each is a closed loop with one caller, in one process: the package is
synchronous, so the next op starts when the previous one returns.  One
pass runs every seeded op once, in a fixed order.  Every op is checked
against numpy oracle values from :mod:`gen` (and, for the CLI, against
the same call made in-process); an op that raises or fails a check
counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter

import numpy as np

import gen
from gen import TOL

clock = time.perf_counter
EPS = float(np.finfo(float).eps)

# Calibration.  On a shared host the speed of the machine drifts by tens of
# percent from one second to the next, which swamps run-to-run comparisons.
# A fixed calibration kernel is timed after every op; each op's times are
# scaled by (reference kernel time) / (median kernel time over its pass),
# i.e. reported as if the kernel had taken its reference time.  The kernels
# never touch the package, so a change to the package moves only the op
# times.  In-process workloads use a numpy kernel; cold processes are
# calibrated by a cold process, ``python -c "import numpy"``, which tracks
# their start-up costs far better.
CAL_REF_MS = 0.5
CHILD_CAL_REF_MS = 200.0
CHILD_CAL_CMD = (sys.executable, "-c", "import numpy")
_CAL_INPUTS = tuple(np.random.default_rng(0).standard_normal((n, n)) for n in (4, 8, 16))


def calibration_ms() -> float:
    """Time of the calibration kernel: a Python loop, then eig, SVD and
    inverse at N = 4, 8 and 16 (the kinds of work the package does)."""
    t0 = clock()
    s = 0
    for i in range(2000):
        s += i * i
    for m in _CAL_INPUTS:
        _, v = np.linalg.eig(m)
        np.linalg.svd(v, compute_uv=False)
        np.linalg.inv(v)
    return (clock() - t0) * 1e3


def close(a, b, rtol: float) -> bool:
    """Same shape and ||a - b|| <= rtol * max(1, ||b||)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and float(np.linalg.norm(a - b)) <= rtol * max(
        1.0, float(np.linalg.norm(b)))


class Workload:
    """One pass is ``ops``; :meth:`run` performs one op, records its
    samples and returns the problems its checks found (empty when the
    result is correct)."""

    name = ""
    tail = 95              # percentile reported as latency_ms_tail
    whole_passes = True    # stop the loop only between passes
    min_ops = 1
    cal_ref_ms = CAL_REF_MS

    def calibrate(self) -> float:
        return calibration_ms()

    def __init__(self):
        self.ops: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        # one [units of work, seconds for them, latency ms, speed scale,
        # position of the op in the pass] per op
        self.samples: list = []
        self._slot = 0

    def record(self, units: int, seconds: float, latency_ms: float) -> None:
        self.samples.append([units, seconds, latency_ms, 1.0, self._slot])

    def describe(self, op) -> str:
        return repr(op)

    def run(self, op) -> list:
        raise NotImplementedError

    def attempt(self, op, run=None) -> None:
        self.attempted += 1
        try:
            problems = (run or self.run)(op)
        except Exception as exc:  # an op that raises is a failed op; the loop goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{self.describe(op)}: {'; '.join(problems)}")

    def loop(self, seconds: float) -> None:
        """Run ops for ``seconds`` (and at least ``min_ops``), timing the
        calibration kernel after each op and scaling each pass's samples
        by it.  Pass-based workloads first run one pass whose results are
        checked but whose times are dropped, so caches fill and lazy set-up
        finishes before timing."""
        if self.whole_passes:
            for op in self.ops:
                self.attempt(op)
            self.samples.clear()
        start = clock()
        while True:
            first, cal = len(self.samples), []
            for self._slot, op in enumerate(self.ops):
                self.attempt(op)
                cal.append(self.calibrate())
                if not self.whole_passes and self._done(start, seconds):
                    break
            self._scale(first, cal)
            if self._done(start, seconds):
                return

    def _scale(self, first: int, cal: list) -> None:
        scale = self.cal_ref_ms / float(np.median(cal))
        for sample in self.samples[first:]:
            sample[3] = scale

    def _done(self, start: float, seconds: float) -> bool:
        return clock() - start >= seconds and self.attempted >= self.min_ops


# --------------------------------------------------------------------------
# scan
# --------------------------------------------------------------------------


def check_scan(fam: gen.ScanFamily, rows, boundary: float) -> list:
    """Rows against the eigvals oracle; lambda_max against the oracle EP."""
    ntau = 1 if fam.taus is None else fam.taus.size
    if len(rows) != fam.real.size:
        return [f"{len(rows)} rows, expected {fam.real.size}"]
    lam_rows = np.repeat(fam.lambdas, ntau)
    problems = []
    for i, p in enumerate(rows):
        where = f"row {i} (lambda={p.lam!r}, tau={p.tau!r})"
        if p.lam != lam_rows[i] or (fam.taus is not None and p.tau != fam.taus[i % ntau]):
            problems.append(f"{where} is out of grid order")
        elif p.spectrum_real != fam.real[i]:
            problems.append(f"{where} spectrum_real={p.spectrum_real}, oracle {fam.real[i]}")
        elif p.metric_exists and not p.spectrum_real:
            problems.append(f"{where} has a metric but no real spectrum")
        elif p.spectrum_real and p.lam < fam.ep[i] and not p.metric_exists:
            problems.append(f"{where} is real before the EP but has no metric ({p.note})")
    if not abs(boundary - fam.boundary) <= TOL:
        problems.append(f"lambda_max {boundary!r}, oracle {fam.boundary!r}")
    return problems[:3]


class Scan(Workload):
    """One op is one family: a reality_scan (workers=1) and a lambda_max.
    Throughput is grid points per second inside reality_scan; latency is
    the lambda_max wall time."""

    name = "scan"
    tail = 95

    def __init__(self, ch, rng):
        super().__init__()
        self.ch = ch
        for fam in gen.scan_inputs(rng):
            if fam.kind == "kg":
                spec = ch.FamilySpec.kg(fam.taus, fam.lambdas, w0=fam.w0)
                bspec = ch.FamilySpec.kg([fam.boundary_tau], [0.0], w0=fam.w0)
            else:
                spec = bspec = ch.FamilySpec.linear(fam.h0, fam.w0, fam.lambdas)
            self.ops.append((fam, spec, bspec))
        self.notes: Counter = Counter()

    def describe(self, op) -> str:
        return f"scan {op[0].kind} N={op[0].n}"

    def run(self, op) -> list:
        fam, spec, bspec = op
        t0 = clock()
        report = self.ch.reality_scan(spec, TOL, workers=1)
        t1 = clock()
        boundary = self.ch.lambda_max(bspec, fam.bracket, TOL)
        t2 = clock()
        self.record(len(report.points), t1 - t0, (t2 - t1) * 1e3)
        self.notes.update(p.note for p in report.points)
        return check_scan(fam, report.points, boundary)

    def workers2_point_us(self) -> float:
        """Per-point cost of one untimed-loop pass with workers=2."""
        points, seconds = 0, 0.0
        for _, spec, _ in self.ops:
            t0 = clock()
            points += len(self.ch.reality_scan(spec, TOL, workers=2))
            seconds += clock() - t0
        return seconds / points * 1e6


# --------------------------------------------------------------------------
# pipeline
# --------------------------------------------------------------------------


def check_pipeline(p: gen.PipelineProblem, kappa, image, theta, delta0, dyson,
                   admissible: bool, series_errors) -> list:
    problems = []
    if not close(kappa, p.kappa, 1e-8):
        problems.append(f"fix_ambiguity weights {np.round(kappa, 6)} != {np.round(p.kappa, 6)}")
    defect = float(np.linalg.norm(image - image.conj().T))
    if not defect <= TOL * max(1.0, float(np.linalg.norm(image))):
        problems.append(f"hermitize image has Hermiticity defect {defect:.2e}")
    evals = np.linalg.eigvalsh(0.5 * (image + image.conj().T))
    if not np.allclose(evals, p.energies, rtol=0.0, atol=1e-8):
        problems.append("hermitize image is not isospectral with H0")
    if not dyson.delta_coeffs or not close(delta0, dyson.delta_coeffs[0], TOL):
        problems.append("leading_delta differs from dyson_from_metric(...)[0]")
    if not admissible:
        problems.append("Delta0 fails hidden_hermiticity_test at lambda = 0")
    (l1, e1), (l2, e2) = series_errors
    if (l1, l2) != p.lambdas:
        problems.append(f"series_vs_exact rows at {(l1, l2)}, asked for {p.lambdas}")
    # Below the rounding floor the error no longer measures truncation
    # (at N = 2 the series is exact to about 1e-16).
    floor = 1e3 * p.n * EPS * float(np.linalg.norm(theta.theta))
    slope = float(np.log(e1 / e2) / np.log(l1 / l2)) if e1 > 0.0 and e2 > 0.0 else float("nan")
    if e2 > floor and not abs(slope - (p.order + 1)) <= 0.5:
        problems.append(f"series error slope {slope:.2f}, expected {p.order + 1} "
                        f"(errors {e1:.2e}, {e2:.2e}; floor {floor:.1e})")
    return problems


class Pipeline(Workload):
    """One op is one problem through the README quickstart chain."""

    name = "pipeline"
    tail = 99

    def __init__(self, ch, rng):
        super().__init__()
        self.ch = ch
        self.ops = gen.pipeline_inputs(rng)

    def describe(self, p) -> str:
        return f"pipeline N={p.n} K={p.order}"

    def run(self, p) -> list:
        ch = self.ch
        t0 = clock()
        family = ch.MetricFamily(ch.diagonalize(p.h0, TOL))
        kappa = ch.fix_ambiguity(family, [p.observable], TOL)
        theta = ch.assemble_metric(family, kappa)
        image = ch.hermitize(p.h0, ch.dyson_map(theta), TOL)
        problem = ch.PerturbationProblem.build(p.h0, theta, [p.w0], TOL)
        dyson = ch.dyson_from_metric(ch.metric_series(problem, p.order), theta)
        delta0 = ch.leading_delta(p.w0, p.h0, theta, TOL)
        admissible, _ = ch.hidden_hermiticity_test(p.w0, delta0, p.h0, theta, 0.0, TOL)
        errors = ch.series_vs_exact(problem, p.order, p.lambdas)
        t1 = clock()
        self.record(1, t1 - t0, (t1 - t0) * 1e3)
        return check_pipeline(p, kappa, image, theta, delta0, dyson, admissible, errors)


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

SUBCOMMANDS = ("diag", "metric", "hermitize", "perturb", "scan")


def child_env(root) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child_calibration_ms(env, cwd) -> float:
    """Wall time of the cold-process calibration kernel."""
    seconds, rc, _, err = run_child(list(CHILD_CAL_CMD), env, cwd)
    if rc != 0:
        raise RuntimeError(f"calibration child failed: {err.strip()[-500:]}")
    return seconds * 1e3


def run_child(cmd, env, cwd, timeout: float = 120.0):
    """Run a child to completion; return (seconds, returncode, stdout, stderr)."""
    t0 = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return clock() - t0, None, out, err + f"\ntimed out after {timeout} s"
    return clock() - t0, proc.returncode, out, err


class Cli(Workload):
    """One op is one cold ``python -m cryptoherm.cli`` invocation.
    Subcommands alternate round-robin and every other round writes its
    artifact with ``--out``, so both emission paths run."""

    name = "cli"
    tail = 75
    whole_passes = False
    min_ops = 40           # so the p75 tail has at least ten samples beyond it
    cal_ref_ms = CHILD_CAL_REF_MS

    def calibrate(self) -> float:
        return child_calibration_ms(self.env, self.root)

    def __init__(self, ch, rng, root, workdir):
        super().__init__()
        self.ch, self.root, self.workdir = ch, root, workdir
        self.env = child_env(root)
        os.makedirs(workdir, exist_ok=True)
        p = gen.pipeline_problem(rng, 6, 2)
        fam = gen.linear_family(rng, 8)
        files = {"h": p.h0, "theta": p.theta, "obs": p.observable, "w": p.w0,
                 "scan_h": fam.h0, "scan_w": fam.w0}
        paths = {}
        for key, m in files.items():
            paths[key] = os.path.join(workdir, f"{key}.json")
            with open(paths[key], "w") as fh:
                json.dump(gen.matrix_doc(m), fh)
        self.problem, self.family = p, fam
        argv = {
            "diag": ["diag", "--h", paths["h"]],
            "metric": ["metric", "--h", paths["h"], "--obs", paths["obs"]],
            "hermitize": ["hermitize", "--h", paths["h"], "--metric", paths["theta"]],
            "perturb": ["perturb", "--h", paths["h"], "--metric", paths["theta"],
                        "--w", paths["w"], "--order", "2"],
            "scan": ["scan", "--family", "linear", "--h", paths["scan_h"], "--w", paths["scan_w"],
                     "--lambda", f"0:2:{fam.lambdas.size}",
                     "--find-boundary", f"{fam.bracket[0]!r}:{fam.bracket[1]!r}"],
        }
        self.expected = self._expected(ch, p, fam)
        self.main_ms: list = []
        for rnd in (0, 1):
            for sub in SUBCOMMANDS:
                out = os.path.join(workdir, f"out-{sub}.txt") if rnd else None
                self.ops.append((sub, argv[sub] + (["--out", out] if out else []), out))

    @staticmethod
    def _expected(ch, p, fam) -> dict:
        """The in-process library results every CLI call must reproduce."""
        system = ch.diagonalize(p.h0, TOL)
        family = ch.MetricFamily(system)
        theta = ch.metric_from_matrix(p.theta, TOL)
        problem = ch.PerturbationProblem.build(p.h0, theta, [p.w0], TOL)
        series = ch.metric_series(problem, 2)
        spec = ch.FamilySpec.linear(fam.h0, fam.w0, fam.lambdas)
        rows = ch.reality_scan(spec, TOL)
        return {
            "eigenvalues": system.eigenvalues,
            "kappa": ch.fix_ambiguity(family, [p.observable], TOL),
            "h_image": ch.hermitize(p.h0, ch.dyson_map(theta), TOL),
            "t_coeffs": series.t_coeffs[1:],
            "deltas": ch.dyson_from_metric(series, theta).delta_coeffs,
            "scan_rows": [[p.lam, p.spectrum_real, p.max_imag, p.min_gap, p.eigvec_cond,
                           p.metric_exists, p.theta_min_eig] for p in rows.points],
            "lambda_max": ch.lambda_max(spec, fam.bracket, TOL),
            "csv_header": ch.cli.SCAN_CSV_HEADER,
        }

    def cold_wall_ms(self, rounds: int) -> dict:
        """Median cold wall time per subcommand over ``rounds`` passes."""
        walls: dict = {}
        for _ in range(rounds):
            for op in self.ops:
                n = len(self.samples)
                self.attempt(op)
                if len(self.samples) > n:
                    walls.setdefault(op[0], []).append(self.samples[-1][2])
        return {sub: float(np.median(ms)) for sub, ms in walls.items()}

    def describe(self, op) -> str:
        return f"cli {op[0]}{' --out' if op[2] else ''}"

    def run(self, op) -> list:
        sub, argv, out = op
        seconds, rc, stdout, stderr = run_child(
            [sys.executable, "-m", "cryptoherm.cli", *argv], self.env, self.root)
        self.record(1, seconds, seconds * 1e3)
        return self.check(sub, out, rc, stdout, stderr)

    def main_inprocess(self, op):
        """``cli.main(argv)`` in this process, output captured."""
        sub, argv, out = op
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = self.ch.cli.main(argv)
        self.main_ms.append((clock() - t0) * 1e3)
        return self.check(sub, out, rc, stdout.getvalue(), stderr.getvalue())

    def check(self, sub, out, rc, stdout: str, stderr: str) -> list:
        if rc != 0 or stderr:
            return [f"exit {rc}, stderr {stderr.strip()[:200]!r}"]
        if out:
            if not stdout.strip():
                return ["--out run printed no summary"]
            with open(out) as fh:
                text = fh.read()
        else:
            text = stdout
        try:
            return getattr(self, f"_check_{sub}")(text)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unparsable {sub} output: {type(exc).__name__}: {exc}"]

    def _check_diag(self, text) -> list:
        rep = json.loads(text)
        ev = np.array([complex(re, im) for re, im in rep["eigenvalues"]])
        problems = []
        if not close(ev, self.expected["eigenvalues"], 1e-12):
            problems.append("eigenvalues differ from the in-process result")
        if not close(ev, self.problem.energies, 1e-8) or rep["spectrum_real"] is not True:
            problems.append("eigenvalues differ from the generated spectrum")
        return problems

    def _check_metric(self, text) -> list:
        rep = json.loads(text)
        kappa = np.array(rep["kappa"], dtype=float)
        problems = []
        if not close(kappa, self.expected["kappa"], 1e-12):
            problems.append("kappa differs from the in-process result")
        if not close(kappa, self.problem.kappa, 1e-8):
            problems.append("kappa differs from the generated weights")
        if not rep["quasi_hermiticity_residual"] <= TOL:
            problems.append(f"residual {rep['quasi_hermiticity_residual']:.2e}")
        gen.doc_matrix(rep["theta"])
        return problems

    def _check_hermitize(self, text) -> list:
        rep = json.loads(text)
        img = gen.doc_matrix(rep["h_image"])
        problems = []
        if not close(img, self.expected["h_image"], 1e-12):
            problems.append("h_image differs from the in-process result")
        if not rep["hermiticity_defect_rel"] <= TOL:
            problems.append(f"hermiticity defect {rep['hermiticity_defect_rel']:.2e}")
        return problems

    def _check_perturb(self, text) -> list:
        rep = json.loads(text)
        ts = [gen.doc_matrix(d) for d in rep["t_coeffs"]]
        deltas = [gen.doc_matrix(rep[k]) for k in ("delta0", "delta1")]
        problems = []
        if len(ts) != 2 or not all(close(a, b, 1e-12) for a, b in zip(ts, self.expected["t_coeffs"])):
            problems.append("metric corrections differ from the in-process result")
        if not all(close(a, b, 1e-12) for a, b in zip(deltas, self.expected["deltas"])):
            problems.append("Dyson corrections differ from the in-process result")
        if rep["admissible"] is not True:
            problems.append("Delta0 is not admissible at lambda = 0")
        return problems

    def _check_scan(self, text) -> list:
        lines = text.splitlines()
        if lines[0] != self.expected["csv_header"]:
            return [f"CSV header {lines[0]!r}"]
        if not lines[-1].startswith("# lambda_max,"):
            return ["no lambda_max line"]
        rows = lines[1:-1]
        want = self.expected["scan_rows"]
        if len(rows) != len(want):
            return [f"{len(rows)} CSV rows, expected {len(want)}"]
        problems = []
        for i, (line, exp) in enumerate(zip(rows, want)):
            f = line.split(",")
            got = [float(f[0]), f[2] == "true", *map(float, f[3:6]), f[6] == "true", float(f[7])]
            same = all(
                (a == b) if isinstance(b, bool) else
                (np.isnan(a) and np.isnan(b)) or a == b or abs(a - b) <= 1e-12 * max(1.0, abs(b))
                for a, b in zip(got, exp))
            if len(f) != 8 or f[1] != "" or not same:
                problems.append(f"CSV row {i} differs from the in-process result")
            elif got[1] != self.family.real[i]:
                problems.append(f"CSV row {i} spectrum_real differs from the oracle")
        boundary = float(lines[-1].split(",", 1)[1])
        if not abs(boundary - self.family.boundary) <= TOL:
            problems.append(f"lambda_max {boundary!r}, oracle {self.family.boundary!r}")
        return problems[:3]
