"""cryptoherm benchmark.

    python3 perfbench/run.py --workload {scan,pipeline,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Inputs come from ``--seed`` alone; every
op is checked against numpy oracle values.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from timing spans installed around the package's public
functions) with ``--trace 1``.  The full record, machine details
included, goes to ``.perfbench-out/``.  See ``perfbench/README.md``.
"""

import os
import sys

# Pin both OpenBLAS pools (numpy's and scipy's) to one thread before numpy
# loads; see machine.py.  The default-thread probe child opts out.
if sys.argv[1:3] != ["--blas-probe", "default"]:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
PROBE_REPEATS = 5
clock = time.perf_counter


class SetupError(RuntimeError):
    """The checkout does not hold the package source."""


def import_package():
    """Import cryptoherm from ``src/`` of this checkout and nowhere else."""
    pkg = ROOT / "src" / "cryptoherm"
    if not (pkg / "__init__.py").is_file():
        raise SetupError(f"no package source at {pkg}; run from the root of a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import cryptoherm
    import cryptoherm.cli  # noqa: F401  (the cli workload and its hooks use it)

    if Path(cryptoherm.__file__).resolve().parent != pkg.resolve():
        raise SetupError(f"imported cryptoherm from {cryptoherm.__file__}, not {pkg}")
    return cryptoherm


def setup(workload: str, seed: int):
    ch = import_package()
    import numpy as np

    import workloads

    rng = np.random.default_rng(seed)
    if workload == "scan":
        return workloads.Scan(ch, rng)
    if workload == "pipeline":
        return workloads.Pipeline(ch, rng)
    return workloads.Cli(ch, rng, str(ROOT), str(OUT / f"cli-{seed}"))


def median_child_seconds(cmd, repeats: int, calibrate: bool = False) -> float:
    """Median wall time of ``repeats`` runs of a child process; with
    ``calibrate``, each run is scaled to the reference speed by the
    cold-process calibration kernel run right after it."""
    import workloads

    env = workloads.child_env(ROOT)
    walls = []
    for _ in range(repeats):
        seconds, rc, _, err = workloads.run_child(cmd, env, str(ROOT))
        if rc != 0:
            raise RuntimeError(f"{' '.join(cmd)} failed: {err.strip()[-500:]}")
        if calibrate:
            seconds *= workloads.CHILD_CAL_REF_MS / workloads.child_calibration_ms(env, str(ROOT))
        walls.append(seconds)
    return statistics.median(walls)


def setup_seconds(args) -> float:
    """Median over fresh processes of start -> package imported and inputs
    generated (oracle values included), at the reference speed."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    return median_child_seconds(cmd, SETUP_REPEATS, calibrate=True)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def wall(fn) -> float:
    t0 = clock()
    fn()
    return clock() - t0


def untraced(wl, args) -> tuple:
    import numpy as np

    wl.loop(args.seconds)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    units, seconds, lat, scale, slot = np.array(wl.samples).T

    def timings(seconds, lat):
        # Throughput of a typical pass: each op at its median time, so a
        # few outliers do not move it.
        slots = np.unique(slot)
        work = sum(units[slot == s][0] for s in slots)
        typical = sum(np.median(seconds[slot == s]) for s in slots)
        return {"throughput_per_s": float(work / typical),
                "latency_ms_p50": float(np.median(lat)),
                "latency_ms_tail": percentile(lat, wl.tail)}

    raw = timings(seconds, lat)
    metrics = {"setup_s": setup_seconds(args), "peak_rss_mb": rss_mb,
               **timings(seconds * scale, lat * scale)}
    info = {"samples": len(lat), "tail_percentile": wl.tail,
            "samples_beyond_tail": int(np.sum(lat * scale > metrics["latency_ms_tail"])),
            "units": int(units.sum()), "speed_scale_p50": float(np.median(scale)),
            "unscaled": raw}
    return metrics, info


def traced(wl, args) -> tuple:
    import metrics as m
    from tracer import HookError, Tracer

    Tracer().install_check()
    run = wl.main_inprocess if wl.name == "cli" else wl.run

    def one_pass():
        for op in wl.ops:
            wl.attempt(op, run)

    one_pass()  # warm-up
    if wl.name == "scan":
        wl.notes.clear()
        first = len(wl.samples)
    # Untraced and traced passes alternate, so the overhead ratio of each
    # pair sees the same machine speed.
    tracer = Tracer()
    plain, walls, main_ms = [], [], []
    start = clock()
    while not walls or clock() - start < args.seconds:
        n = len(getattr(wl, "main_ms", ()))
        plain.append(wall(one_pass))
        main_ms += getattr(wl, "main_ms", ())[n:]
        with tracer:
            walls.append(wall(one_pass))
    summary = tracer.summary()
    missing = m.missing_spans(wl.name, summary)
    if missing:
        raise HookError(f"traced run recorded no calls of {', '.join(missing)}")
    passes = len(walls)
    out = m.span_metrics(summary, passes)
    out.update({name: 0.0 for name, _, _ in m.DERIVED if name not in out})
    counts = tracer.counts
    if wl.name == "scan":
        all_passes = passes + len(plain)
        rows = sum(s[0] for s in wl.samples[first:])
        rs = summary["stability.reality_scan"]
        out["stability.reality_scan.points"] = rows / all_passes
        out["stability.reality_scan.point_us"] = rs["total_ns"] / 1e3 / (rows / all_passes * passes)
        out["stability.reality_scan.useful_ratio"] = wl.notes[""] / rows
        for name, count in wl.notes.items():
            if name:
                key = name if name in m.NOTES else "other"
                out[f"stability.reality_scan.note.{key}"] += count / all_passes
        out["stability.lambda_max.probes"] = counts[
            ("stability.FamilySpec.hamiltonian_at", "stability.lambda_max")] / passes
        out["stability.reality_scan.point_us.workers2"] = wl.workers2_point_us()
    if wl.name == "cli":
        out["matrixio.read_matrix.bytes"] = tracer.meters["matrixio.read_matrix"] / passes
        out["cli.main_ms_p50"] = statistics.median(main_ms)
        for sub, ms in wl.cold_wall_ms(3).items():
            out[f"cli.{sub}.wall_ms_p50"] = ms
    env_cmd = [sys.executable, "-c"]
    out["cli.interpreter_ms_p50"] = 1e3 * median_child_seconds(env_cmd + ["pass"], PROBE_REPEATS)
    out["cli.import_ms_p50"] = 1e3 * median_child_seconds(
        env_cmd + ["import cryptoherm.cli"], PROBE_REPEATS)
    out["trace.overhead_frac"] = statistics.median(t / p for p, t in zip(plain, walls)) - 1.0
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-{args.seed}.tsv")
    return out, {"passes": passes, "spans": len(tracer.spans)}


def parse_args(argv):
    p = argparse.ArgumentParser(description="cryptoherm benchmark")
    p.add_argument("--workload", choices=("scan", "pipeline", "cli"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--blas-probe", choices=("default", "pinned"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.blas_probe is None and args.workload is None:
        p.error("--workload is required")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.blas_probe:
            import gen
            import machine

            print(json.dumps(machine.blas_probe(import_package(), gen)))
            return 0
        wl = setup(args.workload, args.seed)
        if args.setup_probe:
            return 0
        import machine
        import metrics as m

        metrics, info = (traced if args.trace else untraced)(wl, args)
        record = machine.record(ROOT, args.workload, args.seed,
                                machine.threading_note(HERE / "run.py", ROOT))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # HookError and failed probes
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    table = m.PER_LAYER if args.trace else m.E2E
    result = {
        "correct": wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, *_ in table},
    }
    OUT.mkdir(exist_ok=True)
    full = dict(result, info=info, errors=wl.errors, machine=record)
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    for err in wl.errors:
        print(f"perfbench: FAILED {err}", file=sys.stderr)
    meaning = m.E2E_MEANING[args.workload]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {wl.attempted} ops, "
          f"{wl.failed} failed (failed_frac {wl.failed / wl.attempted:.4g}); {info}")
    for name, unit, *_ in table:
        alias = meaning.get(name)
        note = f"  [{alias[0]}: {alias[1]}]" if alias else ""
        print(f"#   {name} = {metrics[name]:.6g} {unit}{note}")
    print(f"# machine {json.dumps(record)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
