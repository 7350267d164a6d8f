"""Command-line front end: ``crypto-metric <diag|metric|hermitize|perturb|scan>``.

Reads matrix files in the structured JSON format of :mod:`.matrixio`,
dispatches to the library, and emits machine-readable reports (JSON) or
plot-ready CSV tables for scans.  The builtin ``--kg TAU`` flag stands in
for a Hamiltonian file wherever one is accepted, so the closed-form
two-level fixture runs with zero input files.

Exit codes
----------
==== =======================================================
0    success
2    parse/flag failure (bad files, bad grids, bad options), or
     an ``--out`` file that cannot be written
3    defective eigenbasis
4    no positive metric solution for the observable set
5    underdetermined observable set
6    solvability violated (the failing order's report is still
     written)
7    hermitization precondition failed (metric not positive
     definite, or H not quasi-Hermitian for it)
8    any other domain error
==== =======================================================

JSON reports are strict JSON: a non-finite number (an infinite
``min_gap``, say) is written as the string ``"inf"``, ``"-inf"`` or
``"nan"``, each of which ``float()`` parses.

Success paths print nothing to the error stream; every failure prints
exactly one ``error: ...`` line there.

Work is capped so every accepted input finishes in bounded time and
memory: a scan grid holds at most :data:`MAX_GRID_POINTS` points (tau
count times lambda count, checked before any grid is built), and
``perturb --order`` is at most :data:`MAX_ORDER`: the series costs
O(K*M) products for M supplied W coefficients, and a coefficient that
leaves the double-precision range past the convergence radius exits 8.
Exceeding a cap exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .dyson import dyson_map, hermitize
from .errors import (
    CryptohermError,
    DefectiveError,
    MatrixFileError,
    NoPositiveSolutionError,
    NotPositiveDefiniteError,
    NotQuasiHermitianError,
    SolvabilityViolatedError,
    UnderdeterminedError,
)
from .matrixio import matrix_to_doc, read_matrix
from .metric import (
    MetricFamily,
    assemble_metric,
    fix_ambiguity,
    kg_hamiltonian,
    kg_metric,
    metric_from_matrix,
    quasi_hermiticity_residual,
)
from .perturbation import (
    PerturbationProblem,
    _taylor,
    dyson_from_metric,
    hidden_hermiticity_test,
    metric_series,
)
from .spectra import (_lapack, _relative_norm, _scaled_fro, diagonalize, ep_proximity,
                      spectrum_is_real)
from .stability import FamilySpec, ScanReport, lambda_max, reality_scan

SCAN_CSV_HEADER = (
    "lambda,tau,spectrum_real,max_imag,min_gap,eigvec_cond,metric_exists,theta_min_eig"
)

#: Most points one ``scan`` may evaluate (tau count times lambda count).
MAX_GRID_POINTS = 1_000_000
#: Highest metric-series order ``perturb --order`` accepts.
MAX_ORDER = 100

#: ``(error classes, exit code)`` in match order: the first entry whose
#: classes include the raised error gives the exit code, so
#: ``MatrixFileError`` exits 2 before ``CryptohermError`` exits 8.
_EXIT_CODES = (
    ((ValueError, OSError, MatrixFileError), 2),
    ((DefectiveError,), 3),
    ((NoPositiveSolutionError,), 4),
    ((UnderdeterminedError,), 5),
    ((SolvabilityViolatedError,), 6),
    ((NotQuasiHermitianError, NotPositiveDefiniteError), 7),
    ((CryptohermError,), 8),
)


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------


def _parse_grid(text: str) -> list[float]:
    """Parse a grid flag: 'lo:hi:count', a comma list, or a single value."""
    text = text.strip()
    if not text:
        raise ValueError("empty grid specification")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid range must be lo:hi:count, got {text!r}")
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
        if count < 1:
            raise ValueError(f"grid count must be >= 1, got {count}")
        if not math.isfinite(hi - lo):
            raise ValueError(f"grid range must be finite with a finite width, got {text!r}")
        _check_grid_size(count)
        with np.errstate(over="ignore"):  # its last point may round past hi; linspace sets hi
            grid = np.linspace(lo, hi, count)
        return [float(x) for x in grid]
    values = text.split(",")
    _check_grid_size(len(values))
    return [float(x) for x in values]


def _check_grid_size(points: int) -> None:
    if points > MAX_GRID_POINTS:
        raise ValueError(
            f"scan grid has {points} points, above the cap of {MAX_GRID_POINTS}"
        )


def _parse_bracket(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"bracket must be lo:hi, got {text!r}")
    return float(parts[0]), float(parts[1])


def _load_hamiltonian(args) -> np.ndarray:
    if args.kg is not None:
        return kg_hamiltonian(args.kg)
    return read_matrix(args.h)


def _load_metric(args):
    if args.metric is not None:
        if args.beta is not None:
            raise ValueError("--beta sets the builtin fixture metric, not a --metric file")
        return metric_from_matrix(read_matrix(args.metric), args.tol)
    if args.kg is not None:
        return kg_metric(args.kg, 0.0 if args.beta is None else args.beta)
    raise ValueError("a metric file is required unless --kg is used")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _finite_json(value):
    """``value`` with every non-finite float replaced by its ``repr``
    (``"inf"``, ``"-inf"`` or ``"nan"``), which ``float()`` parses back."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {k: _finite_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def _emit(args, artifact, summary: str) -> None:
    """Write ``artifact`` (a report dict, as strict JSON, or CSV text) to
    ``--out`` and ``summary`` to stdout, or the artifact to stdout."""
    if isinstance(artifact, dict):
        artifact = json.dumps(_finite_json(artifact), indent=2, allow_nan=False) + "\n"
    if args.out is not None:
        Path(args.out).write_text(artifact)
        print(summary)
    else:
        print(artifact, end="")


def _pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values)]


def _csv_num(x: float) -> str:
    return repr(float(x))


def _csv_bool(x: bool) -> str:
    return "true" if x else "false"


def scan_csv(report: ScanReport) -> str:
    """Render a scan report as the documented CSV table."""
    lines = [SCAN_CSV_HEADER]
    for p in report.points:
        lines.append(
            ",".join(
                [
                    _csv_num(p.lam),
                    "" if p.tau is None else _csv_num(p.tau),
                    _csv_bool(p.spectrum_real),
                    _csv_num(p.max_imag),
                    _csv_num(p.min_gap),
                    _csv_num(p.eigvec_cond),
                    _csv_bool(p.metric_exists),
                    _csv_num(p.theta_min_eig),
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (artifact, --out summary line) for _emit
# ---------------------------------------------------------------------------


def cmd_diag(args) -> tuple[dict, str]:
    h = _load_hamiltonian(args)
    system = diagonalize(h, args.tol)
    real, max_imag = spectrum_is_real(system)
    min_gap, cond = ep_proximity(system)
    report = {
        "eigenvalues": _pairs(system.eigenvalues),
        "spectrum_real": bool(real),
        "max_imag": max_imag,
        "min_gap": min_gap,
        "eigvec_cond": cond,
    }
    return report, (f"spectrum_real={_csv_bool(real)} max_imag={max_imag:.3e} "
                    f"min_gap={min_gap:.6g} eigvec_cond={cond:.6g}")


def cmd_metric(args) -> tuple[dict, str]:
    h = _load_hamiltonian(args)
    system = diagonalize(h, args.tol)
    family = MetricFamily(system)
    report: dict = {}
    if args.obs:
        observables = [read_matrix(p) for p in args.obs]
        kappa = fix_ambiguity(family, observables, args.tol)
    else:
        kappa = np.ones(family.dim)
        report["warning"] = f"family has {family.dim - 1} free ratios"
    theta = assemble_metric(family, kappa)
    report["kappa"] = [float(k) for k in kappa]
    report["theta"] = matrix_to_doc(theta.theta, "theta")
    report["quasi_hermiticity_residual"] = quasi_hermiticity_residual(h, theta)
    return report, (f"kappa={np.round(np.asarray(kappa, dtype=float), 12).tolist()}"
                    + (f" ({report['warning']})" if "warning" in report else ""))


def cmd_hermitize(args) -> tuple[dict, str]:
    h = _load_hamiltonian(args)
    theta = _load_metric(args)
    omega = dyson_map(theta)
    h_image = hermitize(h, omega, args.tol)
    skew = 0.5 * h_image - 0.5 * h_image.conj().T  # from halves, so it cannot overflow
    defect, rel = 2.0 * _scaled_fro(skew), 2.0 * _relative_norm(skew, h_image, 1e-300)
    report = {
        "h_image": matrix_to_doc(h_image, "h_image"),
        "hermiticity_defect": defect,
        "hermiticity_defect_rel": rel,
        "eigenvalues": _pairs(np.sort_complex(_lapack("eigvals", h_image))),
        "metric_condition_number": omega.condition_number,
        "ill_conditioned": bool(omega.ill_conditioned),
    }
    return report, f"hermiticity_defect={defect:.3e} (rel {rel:.3e})"


def cmd_perturb(args) -> tuple[dict, str]:
    if args.order > MAX_ORDER:
        raise ValueError(f"--order must be <= {MAX_ORDER}, got {args.order}")
    if not math.isfinite(args.lam):
        raise ValueError(f"--lam must be finite, got {args.lam}")
    h = _load_hamiltonian(args)
    theta = _load_metric(args)
    w_coeffs = [read_matrix(p) for p in args.w or []]
    problem = PerturbationProblem.build(h, theta, w_coeffs, args.tol)
    try:
        series = metric_series(problem, args.order)
    except SolvabilityViolatedError as exc:
        # the failing order's report is the artifact; main reports the error
        _emit(args, {"error": "SolvabilityViolated", "order": exc.order,
                     "residual": exc.residual}, f"solvability violated at order {exc.order}")
        raise

    deltas = dyson_from_metric(series, problem.theta).delta_coeffs
    delta_at_lam = _taylor(deltas, args.lam, problem.dim)
    admissible, hh_residual = hidden_hermiticity_test(
        problem.w_at(args.lam), delta_at_lam, h, problem.theta, args.lam, args.tol
    )
    report = {
        "order": series.order,
        "t_coeffs": [
            matrix_to_doc(t, f"T{k}") for k, t in enumerate(series.t_coeffs) if k >= 1
        ],
        "delta0": matrix_to_doc(deltas[0], "delta0") if len(deltas) >= 1 else None,
        "delta1": matrix_to_doc(deltas[1], "delta1") if len(deltas) >= 2 else None,
        "solvability_residuals": [float(r) for r in series.solvability_residuals],
        "lambda": float(args.lam),
        "admissible": bool(admissible),
        "hidden_hermiticity_residual": float(hh_residual),
    }
    return report, (f"order={series.order} admissible={_csv_bool(admissible)} "
                    f"hidden_hermiticity_residual={hh_residual:.3e}")


def _build_family(args) -> FamilySpec:
    lambdas = _parse_grid(args.lam) if args.lam is not None else [0.0]
    if args.family == "kg":
        if args.h is not None:
            raise ValueError("--h is not used by --family kg")
        if args.tau is None:
            raise ValueError("--family kg requires --tau")
        taus = _parse_grid(args.tau)
        _check_grid_size(len(taus) * len(lambdas))
        w0 = read_matrix(args.w) if args.w is not None else None
        return FamilySpec.kg(taus, lambdas, w0=w0)
    if args.tau is not None:
        raise ValueError("--tau is not used by --family linear")
    if args.h is None or args.w is None:
        raise ValueError("--family linear requires --h and --w")
    return FamilySpec.linear(read_matrix(args.h), read_matrix(args.w), lambdas)


def cmd_scan(args) -> tuple[str, str]:
    spec = _build_family(args)
    # the boundary search first, so a bad bracket fails before the grid runs
    tail = ""
    if args.find_boundary is not None:
        boundary = lambda_max(spec, _parse_bracket(args.find_boundary), args.tol)
        tail = f"# lambda_max,{boundary!r}\n"
    report = reality_scan(spec, args.tol)
    return scan_csv(report) + tail, f"wrote {len(report)} rows to {args.out}"


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-10, help="working tolerance, in (0, 1e-2)")
    common.add_argument("--out", type=str, default=None, help="write the machine artifact here")

    parser = argparse.ArgumentParser(
        prog="crypto-metric",
        description="Metric construction, hermitization, perturbation series and "
        "stability scans for quasi-Hermitian Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_h_source(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--h", type=str, help="Hamiltonian matrix file")
        src.add_argument("--kg", type=float, metavar="TAU", help="builtin two-level fixture at tau")

    p = sub.add_parser("diag", parents=[common], help="biorthogonal diagonalization report")
    add_h_source(p)
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("metric", parents=[common], help="construct and disambiguate a metric")
    add_h_source(p)
    p.add_argument("--obs", action="append", default=[], help="observable matrix file (repeatable)")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("hermitize", parents=[common], help="factor the metric and hermitize H")
    add_h_source(p)
    p.add_argument("--metric", type=str, help="metric matrix file")
    p.add_argument("--beta", type=float, help="builtin fixture metric parameter (default 0)")
    p.set_defaults(func=cmd_hermitize)

    p = sub.add_parser("perturb", parents=[common], help="order-by-order metric corrections")
    add_h_source(p)
    p.add_argument("--metric", type=str, help="metric matrix file")
    p.add_argument("--beta", type=float, help="builtin fixture metric parameter (default 0)")
    p.add_argument("--w", action="append", default=[], help="perturbation Taylor coefficient file (repeatable)")
    p.add_argument("--order", type=int, default=1, help="highest metric order K")
    p.add_argument("--lam", type=float, default=0.0, help="finite parameter value for the admissibility test")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("scan", parents=[common], help="stability scan over a parameter grid")
    p.add_argument("--family", choices=("kg", "linear"), required=True)
    p.add_argument("--tau", type=str, default=None, help="tau grid: lo:hi:count, comma list, or value")
    p.add_argument("--lambda", type=str, default=None, dest="lam", help="lambda grid: lo:hi:count, comma list, or value")
    p.add_argument("--h", type=str, default=None, help="base Hamiltonian file (linear family)")
    p.add_argument("--w", type=str, default=None, help="perturbation direction file")
    p.add_argument("--find-boundary", type=str, default=None, metavar="LO:HI",
                   help="append the reality boundary (Brent's method on the bracket) "
                   "as a trailing comment line")
    p.set_defaults(func=cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not 0.0 < args.tol < 1e-2:
            raise ValueError(f"--tol must lie in (0, 1e-2), got {args.tol}")
        _emit(args, *args.func(args))
        return 0
    except (ValueError, OSError, CryptohermError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())
