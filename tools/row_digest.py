"""Bit-exact digests of the results the benchmark workloads compute.

    PYTHONPATH=src python3 tools/row_digest.py [--seeds 0 1 2 3 4] [--src DIR ...]

For every seed, ``perfbench/gen.py`` draws the workload inputs from
``numpy.random.default_rng(seed)``, as the benchmark does, without
changing them.  The script prints one SHA-256 per workload:

- ``scan`` hashes the ``repr`` of every ``reality_scan`` row and of every
  ``lambda_max`` result, with the specs, bracket and tolerance of the
  scan workload;
- ``probes`` hashes, for the same ``lambda_max`` calls, the ``repr`` of
  each result with the number of ``FamilySpec.hamiltonian_at`` calls the
  search made, which the benchmark's traced probe counter counts too;
- ``pipeline`` hashes the eigenvalues, both bases (raw bytes) and the
  ``repr`` of ``condition_number`` that ``diagonalize`` returns for each
  problem's H0 and for H0 + lambda W0 at each of its series lambdas, or
  the error class where it raises;
- ``series`` follows each pipeline problem through the workload's calls
  and hashes the weights from ``fix_ambiguity``, the T^(k) of
  ``metric_series`` (raw bytes) and the ``repr`` of its residuals, the
  Delta terms of ``dyson_from_metric``, ``leading_delta`` (raw bytes) and
  the ``repr`` of ``series_vs_exact``'s rows, or the error class where a
  step raises;
- ``cli`` writes the matrix files of the cli workload, drawn as it draws
  them, into a temporary working directory and runs ``cli.main`` there
  in-process: diag, metric with and without ``--obs``, hermitize,
  perturb ``--order 2`` and scan ``--find-boundary``, each with and
  without ``--out``, then the README's ``--kg`` examples.  It hashes each
  argument list, exit code, stdout, stderr (a warning as its class and
  message) and ``--out`` file.  File names are relative, so no temporary
  path enters the digest.

``repr`` of a float round-trips, so two trees print the same digests
exactly when they compute the same bits.  With ``--src``, each ``DIR``
(a ``src`` directory) is loaded as its own copy of the package, as
``tools/point_cost.py`` loads them, and digested in turn: the script
prints each tree's digests under a ``# DIR`` line, then, for every tree
after the first, a line ``moved in DIR:`` naming the workloads whose
digest differs from the first tree's (``none`` when none does).  numpy
and the standard library only, besides the package itself.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

from cryptoherm import (  # noqa: E402
    CryptohermError,
    FamilySpec,
    MetricFamily,
    PerturbationProblem,
    assemble_metric,
    diagonalize,
    dyson_from_metric,
    fix_ambiguity,
    lambda_max,
    leading_delta,
    metric_series,
    reality_scan,
    series_vs_exact,
)
from cryptoherm import cli  # noqa: E402

TOL = gen.TOL


def digest(chunks) -> str:
    """SHA-256 over a sequence of ``str`` or ``bytes`` chunks, each
    length-prefixed so that no two sequences share a digest by
    concatenation."""
    h = hashlib.sha256()
    for chunk in chunks:
        data = chunk.encode() if isinstance(chunk, str) else chunk
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def scan_specs(seed: int):
    """``(scan spec, boundary-search spec, bracket)`` of each scan family."""
    for fam in gen.scan_inputs(np.random.default_rng(seed)):
        if fam.kind == "kg":
            yield (FamilySpec.kg(fam.taus, fam.lambdas, w0=fam.w0),
                   FamilySpec.kg([fam.boundary_tau], [0.0], w0=fam.w0), fam.bracket)
        else:
            spec = FamilySpec.linear(fam.h0, fam.w0, fam.lambdas)
            yield spec, spec, fam.bracket


def scan_chunks(seed: int):
    """``repr`` of each scan row, then of the family's ``lambda_max``."""
    for spec, bspec, bracket in scan_specs(seed):
        yield from (repr(p) for p in reality_scan(spec, TOL).points)
        yield repr(lambda_max(bspec, bracket, TOL))


def probes_chunks(seed: int):
    """``repr`` of each scan family's ``lambda_max`` result, then the
    number of ``FamilySpec.hamiltonian_at`` calls the search made."""
    calls = 0
    original = FamilySpec.hamiltonian_at

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return original(self, *args)

    for _, bspec, bracket in scan_specs(seed):
        calls = 0
        FamilySpec.hamiltonian_at = counted
        try:
            result = lambda_max(bspec, bracket, TOL)
        finally:
            FamilySpec.hamiltonian_at = original
        yield from (repr(result), repr(calls))


def pipeline_chunks(seed: int):
    """``diagonalize``'s outputs for each problem's H0 and H(lambda)."""
    for p in gen.pipeline_inputs(np.random.default_rng(seed)):
        for h in (p.h0, *(p.h0 + lam * p.w0 for lam in p.lambdas)):
            try:
                s = diagonalize(h, TOL)
            except CryptohermError as exc:
                yield type(exc).__name__
                continue
            yield from (s.eigenvalues.tobytes(), s.right_vectors.tobytes(),
                        s.left_vectors.tobytes(), repr(s.condition_number))


def series_steps(h0, observable, w0, order: int, lambdas, theta_scale: float = 1.0):
    """One problem's weights, metric series, Delta terms and series errors,
    computed by the calls of the pipeline workload, with Theta assembled
    from ``theta_scale`` times the weights; the error class where a step
    raises."""
    try:
        family = MetricFamily(diagonalize(h0, TOL))
        kappa = fix_ambiguity(family, [observable], TOL)
        theta = assemble_metric(family, theta_scale * kappa)
        problem = PerturbationProblem.build(h0, theta, [w0], TOL)
        series = metric_series(problem, order)
        arrays = (kappa, *series.t_coeffs, *dyson_from_metric(series, theta).delta_coeffs,
                  leading_delta(w0, h0, theta, TOL))
        rows = series_vs_exact(problem, order, lambdas)
    except (CryptohermError, np.linalg.LinAlgError) as exc:
        yield type(exc).__name__
        return
    yield from (a.tobytes() for a in arrays)
    yield from (repr(series.solvability_residuals), repr(rows))


def series_chunks(seed: int):
    """:func:`series_steps` of each pipeline problem."""
    for p in gen.pipeline_inputs(np.random.default_rng(seed)):
        yield from series_steps(p.h0, p.observable, p.w0, p.order, p.lambdas)


# (N, series order) of the edge digest's problems, and its powers of two
EDGE_PROBLEMS = ((2, 1), (3, 2), (4, 4), (6, 8))
EDGE_EXPONENTS = (-1000, -300, 0, 300, 1000)


def edge_chunks(seed: int):
    """:func:`series_steps` at the ends of the float range and on signed
    zeros: each problem with H, Theta and W scaled by 2**j, and with Theta
    and W alone scaled (an H scaled far down fails the degeneracy gate,
    whose floor is absolute), for W0 and for 1j * W0, whose real parts are
    -0.0 wherever W0 is negative."""
    rng = np.random.default_rng(seed)
    for n, order in EDGE_PROBLEMS:
        p = gen.pipeline_problem(rng, n, order)
        for w in (p.w0, 1j * p.w0):
            for j in EDGE_EXPONENTS:
                c = 2.0**j
                for h in ((c * p.h0, p.h0) if j else (p.h0,)):
                    yield from series_steps(h, p.observable, c * w, order, p.lambdas, c)


# The README's --kg examples, with its obs.json and w0.json.
KG_FILES = {"kg_obs": [[0.0, 0.0], [1.0, 2.0]], "kg_w0": [[0.0, 1.0], [1.0, 0.0]]}
KG_EXAMPLES = (
    ["diag", "--kg", "0.3"],
    ["metric", "--kg", "0.0", "--obs", "kg_obs.json", "--out", "theta_report.json"],
    ["hermitize", "--kg", "0.7", "--beta", "0.2"],
    ["perturb", "--kg", "0.2", "--beta", "0.25", "--w", "kg_w0.json", "--order", "2"],
    ["scan", "--family", "kg", "--tau", "0:2:21", "--lambda", "0"],
)


def cli_calls(seed: int):
    """``(files, argument lists)``: the cli workload's matrices for the
    seed, by file stem, and every call the ``cli`` digest makes."""
    rng = np.random.default_rng(seed)
    p = gen.pipeline_problem(rng, 6, 2)
    fam = gen.linear_family(rng, 8)
    files = {"h": p.h0, "theta": p.theta, "obs": p.observable, "w": p.w0,
             "scan_h": fam.h0, "scan_w": fam.w0, **KG_FILES}
    calls = [
        ["diag", "--h", "h.json"],
        ["metric", "--h", "h.json"],
        ["metric", "--h", "h.json", "--obs", "obs.json"],
        ["hermitize", "--h", "h.json", "--metric", "theta.json"],
        ["perturb", "--h", "h.json", "--metric", "theta.json", "--w", "w.json", "--order", "2"],
        ["scan", "--family", "linear", "--h", "scan_h.json", "--w", "scan_w.json",
         "--lambda", f"0:2:{fam.lambdas.size}",
         "--find-boundary", f"{fam.bracket[0]!r}:{fam.bracket[1]!r}"],
    ]
    calls += [argv + ["--out", f"out-{i}.txt"] for i, argv in enumerate(calls)]
    return files, calls + list(KG_EXAMPLES)


def _show_warning(message, category, *args, **kwargs):
    sys.stderr.write(f"{category.__name__}: {message}\n")


def cli_chunks(seed: int):
    """Each call's arguments, exit code, stdout, stderr and ``--out`` file."""
    files, calls = cli_calls(seed)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show_warning
        os.chdir(tmp)
        try:
            for stem, m in files.items():
                Path(f"{stem}.json").write_text(json.dumps(gen.matrix_doc(m)))
            for argv in calls:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                yield from (" ".join(argv), repr(code), out.getvalue(), err.getvalue())
                if "--out" in argv:
                    path = Path(argv[argv.index("--out") + 1])
                    yield path.read_bytes() if path.exists() else "no --out file"
        finally:
            os.chdir(cwd)


WORKLOADS = {"scan": scan_chunks, "pipeline": pipeline_chunks, "series": series_chunks,
             "cli": cli_chunks, "probes": probes_chunks, "edge": edge_chunks}


def workload_digest(name: str, seeds) -> str:
    return digest(chunk for seed in seeds for chunk in WORKLOADS[name](seed))


# the package names the digests call, rebound by use()
PACKAGE_NAMES = ("CryptohermError", "FamilySpec", "MetricFamily", "PerturbationProblem",
                 "assemble_metric", "diagonalize", "dyson_from_metric", "fix_ambiguity",
                 "lambda_max", "leading_delta", "metric_series", "reality_scan", "series_vs_exact")


def use(ch) -> None:
    """Point every digest at package ``ch`` (as loaded by ``load_package``)."""
    globals().update({name: getattr(ch, name) for name in PACKAGE_NAMES},
                     cli=importlib.import_module(f"{ch.__name__}.cli"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(5)))
    ap.add_argument("--src", type=Path, nargs="+")
    args = ap.parse_args(argv)
    if not args.src:
        for name in WORKLOADS:
            print(f"{name} {workload_digest(name, args.seeds)}")
        return 0
    sys.path.insert(0, str(ROOT / "tools"))
    from point_cost import load_package

    trees = []
    for i, src in enumerate(args.src):
        use(load_package(src.resolve(), f"cryptoherm_digest_{i}"))
        trees.append({name: workload_digest(name, args.seeds) for name in WORKLOADS})
        print(f"# {src}")
        for name, value in trees[-1].items():
            print(f"{name} {value}")
    for src, tree in zip(args.src[1:], trees[1:]):
        moved = [name for name in WORKLOADS if tree[name] != trees[0][name]]
        print(f"moved in {src}: {' '.join(moved) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
