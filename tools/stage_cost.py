"""Cost of each call of the benchmark's pipeline op, in ms per pass.

    python3 tools/stage_cost.py [--src SRC ...] [--seed 3] [--repeats 30]

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
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from point_cost import ROOT, load_package  # noqa: E402  (puts perfbench on the path)
from workloads import Pipeline  # noqa: E402


class Timed:
    """``target`` with each call's seconds added to ``spent[name]``; an
    attribute comes wrapped in turn, named ``name.attr``."""

    def __init__(self, target, name: str, spent: dict):
        self._target, self._name, self._spent = target, name, spent

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._target(*args, **kwargs)
        finally:
            self._spent[self._name] = self._spent.get(self._name, 0.0) + time.perf_counter() - t0

    def __getattr__(self, attr):
        name = f"{self._name}.{attr}" if self._name else attr
        return Timed(getattr(self._target, attr), name, self._spent)


def one_pass(pipeline: Pipeline, ch) -> dict:
    """Seconds spent in each package call over one pass of ``pipeline``."""
    spent = {}
    pipeline.ch = Timed(ch, "", spent)
    for p in pipeline.ops:
        problems = pipeline.run(p)
        if problems:
            sys.exit(f"{pipeline.describe(p)}: {'; '.join(problems)}")
    return spent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, nargs="+", default=[ROOT / "src"])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--repeats", type=int, default=30)
    args = ap.parse_args(argv)
    trees = [load_package(src.resolve(), f"cryptoherm_{i}") for i, src in enumerate(args.src)]
    pipelines = [Pipeline(ch, np.random.default_rng(args.seed)) for ch in trees]
    passes = [[] for _ in trees]
    for r in range(args.repeats):
        for i in (range(len(trees)) if r % 2 == 0 else reversed(range(len(trees)))):
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
