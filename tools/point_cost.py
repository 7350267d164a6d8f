"""Cost of one ``reality_scan`` point and of one ``lambda_max`` probe,
each split into LAPACK calls and the rest.

    python3 tools/point_cost.py [--src SRC ...] [--sizes 2 8 32] [--seed 0] [--repeats 50]

For each size N, ``perfbench/gen.py`` draws one linear scan family
H0 + lambda W0 (30 lambdas over [0, 2], first exceptional point at
lambda = 1, so about half the points have a non-real spectrum) from
``numpy.random.default_rng(seed)``; the point table adds a last row,
``kg``, for the scan workload's 2x2 Klein-Gordon family
(``gen.kg_family``: 16 taus by 40 lambdas, 640 points, most of the
workload's points).  The script times ``reality_scan`` over each family
and, in a second run of the same tree, the LAPACK calls it makes on it:
:func:`metered` wraps each entry of that tree's own ``spectra._ROUTINES``
in place and times every gufunc call, whichever module makes it.  The
scan decomposes its grid in chunks, so each call of a scan is one stacked
call over a chunk of points.  The package overhead is everything else.

A second table times ``lambda_max`` on the same family over its
bracket, as the scan workload does, and adds a last row, ``kg``, for the
workload's kg search (``FamilySpec.kg([boundary_tau], [0.0], w0=...)`` on
``gen.kg_family``'s bracket): per call, its probe count (the
``FamilySpec.hamiltonian_at`` calls it makes) and per probe, split into
the ``eigvals`` gufunc calls of a metered search of the same tree and the
rest.  A real pencil's probe calls the gufunc straight and a complex
one's through ``_lapack_dispatch``; the meter times the gufunc alone
either way.

A third table reads what the scan workload's ``latency_ms_p50`` reads:
the median ``lambda_max`` wall time over the scan families of seed
``--seed`` (``gen.scan_inputs``), each search timed right after its
family's ``reality_scan`` (``workers=1``), as the workload times it, so
the search starts from the cache state the scan leaves.  Each round runs
every family once per tree, the trees in alternating order; the median
and its quartiles are over all searches of all rounds.

Every ``--src`` directory (default: this checkout's ``src``) is loaded
as its own copy of the package, so two trees can be compared in one
process; each tree is metered in place, so each row's LAPACK figure is
that tree's own.  Each of ``--repeats`` rounds times one scan pass (one
search) per tree, in alternating order, each followed by a metered pass
of the same tree, so all of them see the same machine state (in the
third table, one pass over the families per tree).  The figures of the
first two tables are medians over rounds, per point (per probe): the
total from the plain pass, the LAPACK calls from the metered one, and
the package overhead (the rest) the median of the per-round differences.
OpenBLAS runs on one thread.  numpy and the standard library only,
besides the package.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
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


@contextlib.contextmanager
def metered(ch):
    """A list that gets ``(routine, operands, seconds)`` for every LAPACK
    gufunc call package ``ch`` makes, whichever module makes it, while the
    ``with`` block runs.  Each entry of the tree's own ``spectra._ROUTINES``
    is wrapped in place, and the package reads it at call time."""
    calls = []
    routines = ch.spectra._ROUTINES
    saved = dict(routines)

    def meter(routine, gufunc):
        def call(*operands, **kwargs):
            t0 = time.perf_counter()
            try:
                return gufunc(*operands, **kwargs)
            finally:
                calls.append((routine, operands, time.perf_counter() - t0))
        return call

    routines.update({r: (meter(r, g), *rest) for r, (g, *rest) in saved.items()})
    try:
        yield calls
    finally:
        routines.update(saved)


def probe_count(ch, spec, bracket) -> int:
    """The ``FamilySpec.hamiltonian_at`` calls of one ``lambda_max``, the
    benchmark's probe count."""
    count = 0
    original = ch.FamilySpec.hamiltonian_at

    def counted(self, *args):
        nonlocal count
        count += 1
        return original(self, *args)

    ch.FamilySpec.hamiltonian_at = counted
    try:
        ch.lambda_max(spec, bracket, gen.TOL)
    finally:
        ch.FamilySpec.hamiltonian_at = original
    return count


def wall(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def alternating(count: int, repeats: int):
    """Per round of ``repeats``, the indices of ``count`` trees in that
    round's order: forward in even rounds, reversed in odd ones."""
    for r in range(repeats):
        yield range(count) if r % 2 == 0 else reversed(range(count))


def alternate(trees, repeats: int, run) -> tuple:
    """Per tree, the wall times of ``run(i)`` over ``repeats`` rounds and
    the LAPACK seconds of a metered ``run(i)`` in the same rounds, the
    trees in alternating order."""
    walls, lapack = [[] for _ in trees], [[] for _ in trees]
    for order in alternating(len(trees), repeats):
        for i in order:
            walls[i].append(wall(lambda: run(i)))
            with metered(trees[i]) as calls:
                run(i)
            lapack[i].append(sum(seconds for *_, seconds in calls))
    return walls, lapack


def scan_op(ch, fam) -> tuple:
    """(scan spec, search spec, bracket) of one scan family, as the scan
    workload builds them."""
    if fam.kind == "kg":
        return (ch.FamilySpec.kg(fam.taus, fam.lambdas, w0=fam.w0),
                ch.FamilySpec.kg([fam.boundary_tau], [0.0], w0=fam.w0), fam.bracket)
    spec = ch.FamilySpec.linear(fam.h0, fam.w0, fam.lambdas)
    return spec, spec, fam.bracket


def benchmark_order(trees, seed: int, rounds: int) -> list:
    """Per tree, the wall time of every ``lambda_max`` over ``rounds``
    passes of seed ``seed``'s scan families, each timed right after its
    family's ``reality_scan``, the trees in alternating order per round."""
    fams = gen.scan_inputs(np.random.default_rng(seed))
    ops = [[scan_op(ch, fam) for fam in fams] for ch in trees]
    times = [[] for _ in trees]
    for order in alternating(len(trees), rounds):
        for i in order:
            for spec, bspec, bracket in ops[i]:
                trees[i].reality_scan(spec, gen.TOL, workers=1)
                times[i].append(wall(lambda: trees[i].lambda_max(bspec, bracket, gen.TOL)))
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, nargs="+", default=[ROOT / "src"])
    ap.add_argument("--sizes", type=int, nargs="+", default=[2, 8, 32])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeats", type=int, default=50)
    args = ap.parse_args(argv)
    trees = [load_package(src.resolve(), f"cryptoherm_{i}") for i, src in enumerate(args.src)]
    fams = {n: gen.linear_family(np.random.default_rng(args.seed), n) for n in args.sizes}
    kg = gen.kg_family(np.random.default_rng(args.seed))
    scans = {**{n: [ch.FamilySpec.linear(f.h0, f.w0, f.lambdas) for ch in trees]
                for n, f in fams.items()},
             "kg": [ch.FamilySpec.kg(kg.taus, kg.lambdas, w0=kg.w0) for ch in trees]}
    searches = {**{n: (scans[n], fams[n].bracket) for n in args.sizes},
                "kg": ([ch.FamilySpec.kg([kg.boundary_tau], [0.0], w0=kg.w0) for ch in trees],
                       kg.bracket)}

    def per_unit(walls, lapack, count):
        return (statistics.median(x) / count * 1e6 for x in (
            walls, lapack, [t - l for t, l in zip(walls, lapack)]))

    print("| N | src | µs per point | LAPACK calls | package overhead |")
    print("|---|---|---|---|---|")
    for n, family in scans.items():
        points = len(trees[0].reality_scan(family[0], gen.TOL))
        walls, lapack = alternate(trees, args.repeats,
                                  lambda i: trees[i].reality_scan(family[i], gen.TOL))
        for src, tree_walls, tree_lapack in zip(args.src, walls, lapack):
            total, calls_t, overhead = per_unit(tree_walls, tree_lapack, points)
            print(f"| {n} | {src} | {total:.0f} | {calls_t:.0f} | {overhead:.0f} |")

    print()
    print("| N | src | µs per lambda_max | probes | µs per probe | eigvals | rest |")
    print("|---|---|---|---|---|---|---|")
    for n, (family, bracket) in searches.items():
        probes = [probe_count(ch, family[i], bracket) for i, ch in enumerate(trees)]
        runs, eigvals = alternate(trees, args.repeats,
                                  lambda i: trees[i].lambda_max(family[i], bracket, gen.TOL))
        for src, count, walls, lapack in zip(args.src, probes, runs, eigvals):
            per_probe, calls_t, rest = per_unit(walls, lapack, count)
            print(f"| {n} | {src} | {statistics.median(walls) * 1e6:.0f} | {count} "
                  f"| {per_probe:.1f} | {calls_t:.1f} | {rest:.1f} |")

    print()
    print("| seed | src | searches | µs per lambda_max, median | quartiles |")
    print("|---|---|---|---|---|")
    for src, walls in zip(args.src, benchmark_order(trees, args.seed, args.repeats)):
        q1, med, q3 = (q * 1e6 for q in statistics.quantiles(walls, method="inclusive"))
        print(f"| {args.seed} | {src} | {len(walls)} | {med:.0f} | {q1:.0f}–{q3:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
