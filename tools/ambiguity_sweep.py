"""Outcome sweep of ``fix_ambiguity`` against the dense reference.

    PYTHONPATH=src python3 tools/ambiguity_sweep.py [--seeds 1000 ... 1005]

For every seed, ``perfbench/gen.py`` draws the 27 pipeline problems from
``numpy.random.default_rng(seed)``; the same generator then draws one
random real N x N matrix R per problem.  Each problem's family is paired
with six observable sets: the planted observable, H0, H0^2, the identity,
the pair [planted, planted + R] and R alone.  Every case runs through
``cryptoherm.fix_ambiguity`` and through ``tests/oracles.py``'s
``dense_fix_ambiguity`` at tol 1e-10.  The script prints the outcome
class counts, the number of cases whose class differs from the
reference, the largest weight deviation relative to the reference's
largest weight, and the number of cases that fell back to the QR kernel
(``metric._constraint_svd``), in all and per observable set.  It exits
1 when a class differs.  numpy
and the standard library only, besides the package itself.
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

import gen  # noqa: E402
from oracles import dense_fix_ambiguity  # noqa: E402

from cryptoherm import CryptohermError, MetricFamily, diagonalize, fix_ambiguity  # noqa: E402
from cryptoherm import metric  # noqa: E402

TOL = 1e-10


def observable_sets(p, r) -> dict:
    planted = p.observable
    return {"planted": [planted], "H0": [p.h0], "H0^2": [p.h0 @ p.h0], "identity": [np.eye(p.n)],
            "planted pair": [planted, planted + r], "R": [r]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1000, 1006)))
    args = ap.parse_args(argv)

    kernel = metric._constraint_svd
    fallbacks, current = Counter(), None

    def counted(*a):
        fallbacks[current] += 1
        return kernel(*a)

    metric._constraint_svd = counted
    counts, changed, worst = Counter(), 0, 0.0
    try:
        for seed in args.seeds:
            rng = np.random.default_rng(seed)
            for p in gen.pipeline_inputs(rng):
                r = rng.standard_normal((p.n, p.n))
                family = MetricFamily(diagonalize(p.h0, TOL))
                for current, obs in observable_sets(p, r).items():
                    try:
                        outcome, kappa = "ok", fix_ambiguity(family, obs, TOL)
                    except CryptohermError as exc:
                        outcome, kappa = type(exc).__name__, None
                    ref, ref_kappa = dense_fix_ambiguity(family.projectors(), obs, TOL)
                    counts[outcome] += 1
                    if outcome != ref:
                        changed += 1
                    elif kappa is not None:
                        dev = np.max(np.abs(kappa - ref_kappa)) / np.max(np.abs(ref_kappa))
                        worst = max(worst, float(dev))
    finally:
        metric._constraint_svd = kernel
    total = sum(counts.values())
    print(f"cases {total} over seeds {args.seeds[0]}-{args.seeds[-1]}")
    for name in ("ok", "UnderdeterminedError", "InconsistentError", "NoPositiveSolutionError"):
        print(f"{name:<24} {counts.pop(name, 0)}")
    for name, count in sorted(counts.items()):
        print(f"{name:<24} {count}")
    print(f"class changes            {changed}")
    print(f"max kappa deviation      {worst:.2e}")
    print(f"QR fallbacks             {fallbacks.total()}")
    for name in observable_sets(p, r):
        print(f"  {name:<22} {fallbacks[name]}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
