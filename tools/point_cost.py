"""Cost of one ``reality_scan`` point and of one ``lambda_max`` probe,
each split into LAPACK calls and the rest.

    python3 tools/point_cost.py [--src SRC ...] [--sizes 2 8 32] [--seed 0] [--repeats 50]

For each size N, ``perfbench/gen.py`` draws one linear scan family
H0 + lambda W0 (30 lambdas over [0, 2], first exceptional point at
lambda = 1, so about half the points have a non-real spectrum) from
``numpy.random.default_rng(seed)``.  The script times ``reality_scan``
over the family and, separately, the LAPACK calls its points make, on
the same matrices: ``eig``, the SVD of the column-normalized eigenvectors
and ``inv`` of the sorted ones at every point, plus ``eigvalsh`` of the
metric witness wherever a metric was assembled.  Each call goes through
the package's LAPACK entry, ``cryptoherm.spectra._lapack``, as the
package makes it, the entry's ``np.errstate`` included; the package
overhead is everything else.

A second table times ``lambda_max`` on the same family over its
bracket, as the scan workload does: per call, its probe count (the
``FamilySpec.hamiltonian_at`` calls it makes) and per probe, split into
``eigvals`` on the matrices the probes pass it and the rest.

Every ``--src`` directory (default: this checkout's ``src``) is loaded
as its own copy of the package, so two trees can be compared in one
process.  The LAPACK calls are timed through the entry of this
checkout's ``src``, whatever the trees compared.  Each of ``--repeats``
rounds times one scan pass (one search) per tree, in alternating order,
and one pass of the LAPACK calls, so all of them see the same machine
state.  The figures are medians over
rounds, per point (per probe); the package overhead (the rest) is the
median of the per-round differences.
OpenBLAS runs on one thread.  numpy and the standard library only,
besides the package.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402


def load_package(src: Path, name: str):
    """The ``cryptoherm`` package under ``src``, imported as ``name``."""
    pkg = src / "cryptoherm"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def lapack_calls(ch, entry, spec, rows) -> list:
    """``(routine, argument)`` of the LAPACK ``entry`` for every call the
    scan's points make."""
    calls = []
    for p in rows:
        a = spec.hamiltonian_at(p.lam).real
        evals, vr = entry("eig", a)
        order = np.lexsort((evals.imag, evals.real))
        calls += [("eig", a),
                  ("svdvals", vr / np.linalg.norm(vr, axis=0)),
                  ("inv", vr[:, order] / np.linalg.norm(vr[:, order], axis=0))]
        if p.note == "":
            family = ch.MetricFamily(ch.diagonalize(spec.hamiltonian_at(p.lam), gen.TOL))
            theta = ch.assemble_metric(family, np.ones(a.shape[0])).theta
            calls.append(("eigvalsh", theta))
    return calls


def probe_matrices(ch, spec, bracket) -> list:
    """The matrix each ``lambda_max`` probe hands ``eigvals``: H in real
    arithmetic where it has no nonzero imaginary entry."""
    hs = []
    original = ch.FamilySpec.hamiltonian_at

    def recorded(self, *args):
        hs.append(original(self, *args))
        return hs[-1]

    ch.FamilySpec.hamiltonian_at = recorded
    try:
        ch.lambda_max(spec, bracket, gen.TOL)
    finally:
        ch.FamilySpec.hamiltonian_at = original
    return [h if h.imag.any() else h.real for h in hs]


def wall(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def alternate(trees, repeats: int, run_tree, run_lapack) -> tuple:
    """Per-tree and LAPACK wall times over ``repeats`` rounds, the trees
    in alternating order."""
    times = [[] for _ in trees]
    lapack = []
    for r in range(repeats):
        for i in (range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))):
            times[i].append(wall(lambda: run_tree(i)))
        lapack.append(wall(run_lapack))
    return times, lapack


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, nargs="+", default=[ROOT / "src"])
    ap.add_argument("--sizes", type=int, nargs="+", default=[2, 8, 32])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=50)
    args = ap.parse_args(argv)
    trees = [load_package(src.resolve(), f"cryptoherm_{i}") for i, src in enumerate(args.src)]
    entry = load_package(ROOT / "src", "cryptoherm_entry").spectra._lapack
    fams = {n: gen.linear_family(np.random.default_rng(args.seed), n) for n in args.sizes}
    specs = {n: [ch.FamilySpec.linear(f.h0, f.w0, f.lambdas) for ch in trees]
             for n, f in fams.items()}

    def per_unit(walls, lapack, count):
        return (statistics.median(x) / count * 1e6 for x in (
            walls, lapack, [t - l for t, l in zip(walls, lapack)]))

    print("| N | src | µs per point | LAPACK calls | package overhead |")
    print("|---|---|---|---|---|")
    for n in args.sizes:
        rows = trees[0].reality_scan(specs[n][0], gen.TOL).points
        calls = lapack_calls(trees[0], entry, specs[n][0], rows)

        def run_lapack():
            for routine, x in calls:
                entry(routine, x)

        scans, lapack = alternate(trees, args.repeats,
                                  lambda i: trees[i].reality_scan(specs[n][i], gen.TOL),
                                  run_lapack)
        for src, walls in zip(args.src, scans):
            total, calls_t, overhead = per_unit(walls, lapack, len(rows))
            print(f"| {n} | {src} | {total:.0f} | {calls_t:.0f} | {overhead:.0f} |")

    print()
    print("| N | src | µs per lambda_max | probes | µs per probe | eigvals | rest |")
    print("|---|---|---|---|---|---|---|")
    for n in args.sizes:
        bracket = fams[n].bracket
        probes = [probe_matrices(ch, specs[n][i], bracket) for i, ch in enumerate(trees)]

        def run_eigvals():
            for a in probes[0]:
                entry("eigvals", a)

        searches, eigvals = alternate(trees, args.repeats,
                                      lambda i: trees[i].lambda_max(specs[n][i], bracket, gen.TOL),
                                      run_eigvals)
        for src, hs, walls in zip(args.src, probes, searches):
            call = statistics.median(walls) * 1e6
            per_probe, calls_t, rest = per_unit(walls, eigvals, len(hs))
            print(f"| {n} | {src} | {call:.0f} | {len(hs)} | {per_probe:.1f} | {calls_t:.1f} "
                  f"| {rest:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
