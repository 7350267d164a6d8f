"""Cost of each call of the benchmark's pipeline op, in ms per pass.

    python3 tools/stage_cost.py [--src SRC ...] [--seed 3] [--repeats 30] [--by-size]

``perfbench/gen.py`` draws the pipeline workload's problems from
``numpy.random.default_rng(seed)``: 27 problems, N = 2 to 64, series
orders 1 to 8.  One pass runs every problem through
``perfbench/workloads.Pipeline.run`` itself, on a stand-in for the package
whose functions time each call; a call's figure is its time summed over
the pass.  The calls, their order and their arguments are the benchmark's.

Every ``--src`` directory (default: this checkout's ``src``) is loaded as
its own copy of the package, as ``tools/point_cost.py`` loads them, so two
trees can be compared in one process.  Each of ``--repeats`` rounds runs
one pass per tree, in alternating order, so all of them see the same
machine state.  The figures are medians over rounds.  OpenBLAS runs on one
thread.  numpy and the standard library only, besides the package.

With ``--by-size`` the script prints one table per problem size N
instead: each call's ms per problem of that size, and the share of it
spent inside the LAPACK gufuncs of the tree's ``spectra._ROUTINES``
(the median over rounds of each round's share), each gufunc call timed
by a wrapper that the tree's package reads at call time.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from point_cost import ROOT, alternating, load_package  # noqa: E402  (puts perfbench on the path)
from workloads import Pipeline  # noqa: E402


class Timed:
    """``target`` with each call's seconds added to ``spent[name]``; an
    attribute comes wrapped in turn, named ``name.attr``.  ``spent.call``
    names the call running, for the LAPACK wrappers of ``lapack_timed``."""

    def __init__(self, target, name: str, spent: dict):
        self._target, self._name, self._spent = target, name, spent

    def __call__(self, *args, **kwargs):
        self._spent.call = self._name
        t0 = time.perf_counter()
        try:
            return self._target(*args, **kwargs)
        finally:
            self._spent[self._name] = self._spent.get(self._name, 0.0) + time.perf_counter() - t0

    def __getattr__(self, attr):
        name = f"{self._name}.{attr}" if self._name else attr
        return Timed(getattr(self._target, attr), name, self._spent)


class Spent(dict):
    """Seconds per call name; ``lapack`` holds those spent in gufuncs."""

    call = None

    def __init__(self):
        super().__init__()
        self.lapack = {}


def lapack_timed(routines: dict, spent: Spent) -> dict:
    """``routines`` (a ``spectra._ROUTINES``) with each gufunc's seconds
    added to ``spent.lapack[spent.call]``."""

    def timed(gufunc):
        def call(*operands, **kwargs):
            t0 = time.perf_counter()
            try:
                return gufunc(*operands, **kwargs)
            finally:
                spent.lapack[spent.call] = (spent.lapack.get(spent.call, 0.0)
                                            + time.perf_counter() - t0)
        return call

    return {r: (timed(g), *rest) for r, (g, *rest) in routines.items()}


def one_pass(pipeline: Pipeline, ch, by_size: bool = False) -> dict:
    """Seconds spent in each package call over one pass of ``pipeline``;
    with ``by_size``, a :class:`Spent` per problem size N, with the
    seconds spent in LAPACK gufuncs."""
    passes = {}
    routines = ch.spectra._ROUTINES
    saved = dict(routines)
    try:
        for p in pipeline.ops:
            spent = passes.setdefault(p.n if by_size else None, Spent())
            if by_size:
                routines.update(lapack_timed(saved, spent))
            pipeline.ch = Timed(ch, "", spent)
            problems = pipeline.run(p)
            if problems:
                sys.exit(f"{pipeline.describe(p)}: {'; '.join(problems)}")
    finally:
        routines.update(saved)
    return passes if by_size else passes[None]


def by_size_tables(args, pipelines, trees) -> None:
    """One table per N: each call's ms per problem and LAPACK share, per tree."""
    passes = [[] for _ in trees]
    for order in alternating(len(trees), args.repeats):
        for i in order:
            passes[i].append(one_pass(pipelines[i], trees[i], by_size=True))
    counts = {}
    for p in pipelines[0].ops:
        counts[p.n] = counts.get(p.n, 0) + 1
    for n, count in sorted(counts.items()):
        print(f"\nN = {n}: ms per problem ({count} problem{'s' * (count > 1)}, seed {args.seed}) "
              f"and the share in LAPACK gufuncs, median of {args.repeats} rounds")
        print("| call | " + " | ".join(f"{src} | LAPACK" for src in args.src) + " |")
        print("|---|" + "---|---|" * len(trees))
        for name in (*passes[0][0][n], "total"):
            cells = []
            for runs in passes:
                spent = [run[n] for run in runs]
                total = [sum(s.values()) if name == "total" else s.get(name, 0.0) for s in spent]
                lapack = [sum(s.lapack.values()) if name == "total" else s.lapack.get(name, 0.0)
                          for s in spent]
                share = statistics.median(x / t if t else 0.0 for x, t in zip(lapack, total))
                cells.append(f"{statistics.median(total) / count * 1e3:.3f} | {share:.0%}")
            print(f"| `{name}` | " + " | ".join(cells) + " |")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, nargs="+", default=[ROOT / "src"])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=30)
    ap.add_argument("--by-size", action="store_true")
    args = ap.parse_args(argv)
    trees = [load_package(src.resolve(), f"cryptoherm_{i}") for i, src in enumerate(args.src)]
    pipelines = [Pipeline(ch, np.random.default_rng(args.seed)) for ch in trees]
    if args.by_size:
        by_size_tables(args, pipelines, trees)
        return 0
    passes = [[] for _ in trees]
    for order in alternating(len(trees), args.repeats):
        for i in order:
            passes[i].append(one_pass(pipelines[i], trees[i]))
    print(f"ms per pass of {len(pipelines[0].ops)} problems (seed {args.seed}), "
          f"median of {args.repeats} rounds")
    print("| call | " + " | ".join(str(src) for src in args.src) + " |")
    print("|---|" + "---|" * len(trees))
    for name in (*passes[0][0], "total"):
        cells = [statistics.median(sum(p.values()) if name == "total" else p.get(name, 0.0)
                                   for p in runs) * 1e3 for runs in passes]
        print(f"| `{name}` | " + " | ".join(f"{c:.2f}" for c in cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
