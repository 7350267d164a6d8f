"""Alternating A/B runs of the benchmark on two checkouts.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload pipeline [scan cli] --seeds 9101 9102 ... \
        --out BENCH.json [--seconds 20]

Each DIR is the root of a checkout holding ``BENCHMARK.json`` and
``perfbench/``.  Both trees first lose every ``src/**/__pycache__``, so
neither starts with bytecode the other lacks.  For every workload, pair i
runs the benchmark command of ``BENCHMARK.json`` (``--trace 0``) with the
i-th seed once in each tree, the parent first on even pairs and the
change first on odd ones.  The output JSON holds, per workload and
end-to-end metric, both sides' values, medians, quartiles and the number
of pairs the change wins, plus the failed-op counts of every run and the
``# machine`` record of each tree.  Each metric also records two
verdicts: ``worse_beyond_bound``, whether the change median is worse than
the parent median by more than the metric's ``BENCHMARK.json`` bound
(relative to the parent median), and ``gain_holds``, whether the change
won at least 90% of the pairs and its median beats the parent median by
more than the parent's interquartile range.  Per workload, ``failed_share``
holds each side's failed-op share (failed over attempted ops, summed over
its runs that returned a result) and the verdict ``more_failed``, whether
the change's share is the larger.  When all workloads are done, a
markdown table per workload goes to stdout: parent and change medians
with their quartiles, the relative change of the median, the pairs the
change won, the median gap over the parent's interquartile range and both
verdicts, and a last row with the failed-op shares, whose ``more_failed``
verdict stands in the "worse > bound" column (a bound of zero).  Standard
library only.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path


def clear_bytecode(root: Path) -> int:
    caches = sorted((root / "src").rglob("__pycache__"))
    for cache in caches:
        shutil.rmtree(cache)
    return len(caches)


def run_once(root: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result line, ``# machine`` record and wall time."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    wall_s = time.perf_counter() - t0
    if proc.returncode != 0:
        return {"rc": proc.returncode, "wall_s": wall_s, "stderr_tail": proc.stderr[-2000:]}
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(line[len("# machine "):]) for line in lines
                    if line.startswith("# machine ")), None)
    result = json.loads(lines[-1])
    return {"rc": 0, "wall_s": wall_s, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "machine": machine}


def quartiles(values: list) -> tuple:
    """(q1, median, q3), linearly interpolated as numpy.percentile does."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs: list, spec: dict) -> dict:
    """Per-metric statistics over the pairs in which both runs succeeded."""
    ok = [p for p in pairs if p["parent"]["rc"] == 0 and p["change"]["rc"] == 0]
    out = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"]["metrics"][name] for p in ok]
        change = [p["change"]["metrics"][name] for p in ok]
        entry = {"unit": metric["unit"], "better": metric["better"],
                 "bound": metric["bound"], "parent": parent, "change": change}
        if ok:
            pq, cq = quartiles(parent), quartiles(change)
            gap = cq[1] - pq[1]
            iqr = pq[2] - pq[0]
            better_by = gap if higher else -gap  # > 0 when the change median is better
            wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
            entry.update({
                "parent_median": pq[1], "parent_q1": pq[0], "parent_q3": pq[2],
                "change_median": cq[1], "change_q1": cq[0], "change_q3": cq[2],
                "delta_rel": gap / pq[1] if pq[1] else None,
                "wins": wins,
                "pairs": len(ok),
                "gap_over_parent_iqr": abs(gap) / iqr if iqr else None,
                "worse_beyond_bound": -better_by > metric["bound"] * abs(pq[1]),
                "gain_holds": wins >= 0.9 * len(ok) and better_by > iqr,
            })
        out[name] = entry
    return out


def failed_share(pairs: list) -> dict:
    """Each side's failed and attempted ops and their ratio, summed over
    its runs that returned a result, and ``more_failed``: whether the
    change's share is the larger."""
    out = {}
    for label in ("parent", "change"):
        runs = [p[label] for p in pairs if p[label]["rc"] == 0]
        failed, attempted = (sum(r[k] for r in runs) for k in ("failed", "attempted"))
        out[label] = {"failed": failed, "attempted": attempted,
                      "share": failed / attempted if attempted else 0.0}
    out["more_failed"] = out["change"]["share"] > out["parent"]["share"]
    return out


def failed_row(workload: str, shares: dict) -> str:
    """The failed-op row of a workload's markdown table."""
    p, c = shares["parent"], shares["change"]
    return (f"| {workload} | failed-op share | {p['share']:.2%} ({p['failed']}/{p['attempted']}) "
            f"| {c['share']:.2%} ({c['failed']}/{c['attempted']}) "
            f"| {100 * (c['share'] - p['share']):+.2f} pp | – | – "
            f"| {'yes' if shares['more_failed'] else 'no'} | – |")


def markdown_table(workload: str, metrics: dict) -> list:
    """Rows of a markdown table of one workload's ``summarize`` output."""
    rows = ["| workload | metric | parent | change | Δ | wins | gap / parent IQR "
            "| worse > bound | gain holds |",
            "|---|---|---|---|---|---|---|---|---|"]
    for name, m in metrics.items():
        if "pairs" not in m:
            rows.append(f"| {workload} | {name} ({m['unit']}) | – | – | – | 0/0 | – | – | – |")
            continue
        delta = "–" if m["delta_rel"] is None else f"{m['delta_rel']:+.1%}"
        gap = "–" if m["gap_over_parent_iqr"] is None else f"{m['gap_over_parent_iqr']:.1f}×"
        worse, gain = ("yes" if m[k] else "no" for k in ("worse_beyond_bound", "gain_holds"))
        rows.append(
            f"| {workload} | {name} ({m['unit']}) "
            f"| {m['parent_median']:.4g} [{m['parent_q1']:.4g}, {m['parent_q3']:.4g}] "
            f"| {m['change_median']:.4g} [{m['change_q1']:.4g}, {m['change_q3']:.4g}] "
            f"| {delta} | {m['wins']}/{m['pairs']} | {gap} | {worse} | {gain} |")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    known = {w["name"] for w in spec["workloads"]}
    unknown = [w for w in args.workload if w not in known]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; BENCHMARK.json lists {sorted(known)}")
    for label, root in trees.items():
        print(f"{label}: removed {clear_bytecode(root)} __pycache__ directories", file=sys.stderr)

    report = {"command": spec["command"], "seconds": args.seconds, "seeds": args.seeds,
              "workloads": {}}
    for workload in args.workload:
        pairs, machine = [], {}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for label in order:
                res = run_once(trees[label], spec["command"], workload, seed, args.seconds)
                if res.get("machine") is not None:
                    machine.setdefault(label, res["machine"])
                res.pop("machine", None)
                pair[label] = res
                shown = res["metrics"].get("throughput_per_s") if res["rc"] == 0 else None
                print(f"{workload} pair {i} seed {seed} {label}: rc {res['rc']}, "
                      f"throughput_per_s {shown}", file=sys.stderr)
            pairs.append(pair)
        report["workloads"][workload] = {
            "metrics": summarize(pairs, spec),
            "failed_share": failed_share(pairs),
            "failed_ops": {label: [p[label].get("failed") for p in pairs] for label in trees},
            "attempted_ops": {label: [p[label].get("attempted") for p in pairs]
                              for label in trees},
            "failed_runs": {label: sum(p[label]["rc"] != 0 for p in pairs) for label in trees},
            "pairs": pairs,
            "machine": machine,
        }
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        rows = [*markdown_table(workload, entry["metrics"]),
                failed_row(workload, entry["failed_share"])]
        print("\n".join(rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
