"""Bit-exact digests of the results the benchmark workloads compute.

    PYTHONPATH=src python3 tools/row_digest.py [--seeds 0 1 2 3 4]

For every seed, ``perfbench/gen.py`` draws the workload inputs from
``numpy.random.default_rng(seed)``, as the benchmark does, without
changing them.  The script prints one SHA-256 per workload:

- ``scan`` hashes the ``repr`` of every ``reality_scan`` row and of every
  ``lambda_max`` result, with the specs, bracket and tolerance of the
  scan workload;
- ``pipeline`` hashes the eigenvalues, both bases (raw bytes) and the
  ``repr`` of ``condition_number`` that ``diagonalize`` returns for each
  problem's H0 and for H0 + lambda W0 at each of its series lambdas, or
  the error class where it raises;
- ``series`` follows each pipeline problem through the workload's calls
  and hashes the weights from ``fix_ambiguity``, the T^(k) of
  ``metric_series`` (raw bytes) and the ``repr`` of its residuals, the
  Delta terms of ``dyson_from_metric``, ``leading_delta`` (raw bytes) and
  the ``repr`` of ``series_vs_exact``'s rows, or the error class where a
  step raises.

``repr`` of a float round-trips, so two trees print the same digests
exactly when they compute the same bits.  numpy and the standard library
only, besides the package itself.
"""

import argparse
import hashlib
import sys
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


def scan_chunks(seed: int):
    """``repr`` of each scan row, then of the family's ``lambda_max``."""
    for fam in gen.scan_inputs(np.random.default_rng(seed)):
        if fam.kind == "kg":
            spec = FamilySpec.kg(fam.taus, fam.lambdas, w0=fam.w0)
            bspec = FamilySpec.kg([fam.boundary_tau], [0.0], w0=fam.w0)
        else:
            spec = bspec = FamilySpec.linear(fam.h0, fam.w0, fam.lambdas)
        yield from (repr(p) for p in reality_scan(spec, TOL).points)
        yield repr(lambda_max(bspec, fam.bracket, TOL))


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


def series_chunks(seed: int):
    """Each pipeline problem's weights, metric series, Delta terms and
    series errors, computed by the calls of the pipeline workload."""
    for p in gen.pipeline_inputs(np.random.default_rng(seed)):
        try:
            family = MetricFamily(diagonalize(p.h0, TOL))
            kappa = fix_ambiguity(family, [p.observable], TOL)
            theta = assemble_metric(family, kappa)
            problem = PerturbationProblem.build(p.h0, theta, [p.w0], TOL)
            series = metric_series(problem, p.order)
            arrays = (kappa, *series.t_coeffs, *dyson_from_metric(series, theta).delta_coeffs,
                      leading_delta(p.w0, p.h0, theta, TOL))
            rows = series_vs_exact(problem, p.order, p.lambdas)
        except CryptohermError as exc:
            yield type(exc).__name__
            continue
        yield from (a.tobytes() for a in arrays)
        yield from (repr(series.solvability_residuals), repr(rows))


WORKLOADS = {"scan": scan_chunks, "pipeline": pipeline_chunks, "series": series_chunks}


def workload_digest(name: str, seeds) -> str:
    return digest(chunk for seed in seeds for chunk in WORKLOADS[name](seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(5)))
    args = ap.parse_args(argv)
    for name in WORKLOADS:
        print(f"{name} {workload_digest(name, args.seeds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
