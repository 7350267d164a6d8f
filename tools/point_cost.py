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
and, separately, the LAPACK calls the package makes on it: each call that reaches the LAPACK entry ``cryptoherm.spectra._lapack``
during one untimed scan is recorded with its operands and replayed
through the entry, its ``np.errstate`` included.  The scan decomposes its
grid in chunks, so each recorded call of a scan is one stacked call over
a chunk of points.  The package overhead is everything else.

A second table times ``lambda_max`` on the same family over its
bracket, as the scan workload does, and adds a last row, ``kg``, for the
workload's kg search (``FamilySpec.kg([boundary_tau], [0.0], w0=...)`` on
``gen.kg_family``'s bracket): per call, its probe count (the
``FamilySpec.hamiltonian_at`` calls it makes) and per probe, split into
the ``eigvals`` calls of one untimed search, recorded the same way, and
the rest.  The search enters the LAPACK error state once and makes each
call inside it (a real pencil's straight to the gufunc, a complex one's
through ``_lapack_dispatch``); the replay makes every call through
``_lapack_dispatch``, inside one ``np.errstate(**spectra._ERRSTATE)``.

A third table reads what the scan workload's ``latency_ms_p50`` reads:
the median ``lambda_max`` wall time over the scan families of seed
``--seed`` (``gen.scan_inputs``), each search timed right after its
family's ``reality_scan`` (``workers=1``), as the workload times it, so
the search starts from the cache state the scan leaves.  Each round runs
every family once per tree, the trees in alternating order; the median
and its quartiles are over all searches of all rounds.

Every ``--src`` directory (default: this checkout's ``src``) is loaded
as its own copy of the package, so two trees can be compared in one
process.  The LAPACK calls are recorded and replayed with this
checkout's ``src``, whatever the trees compared.  Each of ``--repeats``
rounds times one scan pass (one search) per tree, in alternating order,
and one replay, so all of them see the same machine state (in the third
table, one pass over the families per tree).  The figures of the first
two tables are medians over rounds, per point (per probe); the package
overhead (the rest) is the median of the per-round differences.  OpenBLAS runs
on one thread.  numpy and the standard library only, besides the package.
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


def recorded(ch, run) -> list:
    """``(routine, operands)`` of every call that reaches package ``ch``'s
    LAPACK entry while ``run()`` runs, whichever module makes it."""
    calls = []
    routines = ch.spectra._ROUTINES
    saved = dict(routines)

    def recorder(routine, gufunc):
        def call(*operands, **kwargs):
            calls.append((routine, operands))
            return gufunc(*operands, **kwargs)
        return call

    routines.update({r: (recorder(r, g), *rest) for r, (g, *rest) in saved.items()})
    try:
        run()
    finally:
        routines.update(saved)
    return calls


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


def alternate(trees, repeats: int, run_tree, run_lapack) -> tuple:
    """Per-tree and LAPACK wall times over ``repeats`` rounds, the trees
    in alternating order."""
    times = [[] for _ in trees]
    lapack = []
    for order in alternating(len(trees), repeats):
        for i in order:
            times[i].append(wall(lambda: run_tree(i)))
        lapack.append(wall(run_lapack))
    return times, lapack


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
    ech = load_package(ROOT / "src", "cryptoherm_entry")
    entry, dispatch = ech.spectra._lapack, ech.spectra._lapack_dispatch
    fams = {n: gen.linear_family(np.random.default_rng(args.seed), n) for n in args.sizes}
    specs = {n: [ch.FamilySpec.linear(f.h0, f.w0, f.lambdas) for ch in (*trees, ech)]
             for n, f in fams.items()}
    kg = gen.kg_family(np.random.default_rng(args.seed))
    scans = {**specs, "kg": [ch.FamilySpec.kg(kg.taus, kg.lambdas, w0=kg.w0)
                             for ch in (*trees, ech)]}
    searches = {**{n: (specs[n], fams[n].bracket) for n in args.sizes},
                "kg": ([ch.FamilySpec.kg([kg.boundary_tau], [0.0], w0=kg.w0)
                        for ch in (*trees, ech)], kg.bracket)}

    def replay(calls):
        def run():
            for routine, operands in calls:
                entry(routine, *operands)
        return run

    def replay_search(calls):
        def run():
            with np.errstate(**ech.spectra._ERRSTATE):
                for routine, operands in calls:
                    dispatch(routine, *operands)
        return run

    def per_unit(walls, lapack, count):
        return (statistics.median(x) / count * 1e6 for x in (
            walls, lapack, [t - l for t, l in zip(walls, lapack)]))

    print("| N | src | µs per point | LAPACK calls | package overhead |")
    print("|---|---|---|---|---|")
    for n, family in scans.items():
        calls = recorded(ech, lambda: ech.reality_scan(family[-1], gen.TOL))
        points = len(ech.reality_scan(family[-1], gen.TOL))
        walls, lapack = alternate(trees, args.repeats,
                                  lambda i: trees[i].reality_scan(family[i], gen.TOL),
                                  replay(calls))
        for src, tree_walls in zip(args.src, walls):
            total, calls_t, overhead = per_unit(tree_walls, lapack, points)
            print(f"| {n} | {src} | {total:.0f} | {calls_t:.0f} | {overhead:.0f} |")

    print()
    print("| N | src | µs per lambda_max | probes | µs per probe | eigvals | rest |")
    print("|---|---|---|---|---|---|---|")
    for n, (family, bracket) in searches.items():
        probes = [probe_count(ch, family[i], bracket) for i, ch in enumerate(trees)]
        calls = recorded(ech, lambda: ech.lambda_max(family[-1], bracket, gen.TOL))
        runs, eigvals = alternate(trees, args.repeats,
                                  lambda i: trees[i].lambda_max(family[i], bracket, gen.TOL),
                                  replay_search(calls))
        for src, count, walls in zip(args.src, probes, runs):
            call = statistics.median(walls) * 1e6
            per_probe, calls_t, rest = per_unit(walls, eigvals, count)
            print(f"| {n} | {src} | {call:.0f} | {count} | {per_probe:.1f} | {calls_t:.1f} "
                  f"| {rest:.1f} |")

    print()
    print("| seed | src | searches | µs per lambda_max, median | quartiles |")
    print("|---|---|---|---|---|")
    for src, walls in zip(args.src, benchmark_order(trees, args.seed, args.repeats)):
        q1, med, q3 = (q * 1e6 for q in statistics.quantiles(walls, method="inclusive"))
        print(f"| {args.seed} | {src} | {len(walls)} | {med:.0f} | {q1:.0f}–{q3:.0f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
