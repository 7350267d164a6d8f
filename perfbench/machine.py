"""The machine record attached to every result.

numpy and scipy each load their own OpenBLAS build.  At default settings
each starts one thread per CPU, and on a small machine the two pools
contend; the benchmark pins both to one thread before numpy loads, and
records here the builds, the threads each actually runs with, and one
default-versus-pinned timing so the effect of that choice stays visible.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _symbol(lib, stem: str):
    for name in (f"scipy_openblas_{stem}64_", f"scipy_openblas_{stem}",
                 f"openblas_{stem}64_", f"openblas_{stem}"):
        fn = getattr(lib, name, None)
        if fn is not None:
            return fn
    return None


def blas_libraries() -> list:
    """Every OpenBLAS build mapped into this process, with its configuration
    string and current thread count (read through the library itself)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    libs = []
    for path in paths:
        entry = {"library": os.path.basename(path), "config": None, "threads": None}
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            libs.append(entry)
            continue
        get_config, get_threads = _symbol(lib, "get_config"), _symbol(lib, "get_num_threads")
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            entry["config"] = get_config().decode().strip()
        if get_threads is not None:
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            entry["threads"] = get_threads()
        libs.append(entry)
    return libs


def blas_probe(ch, gen) -> dict:
    """Median dyson_from_metric time on one N = 32 problem, in this
    process's BLAS setting."""
    import numpy as np

    p = gen.pipeline_problem(np.random.default_rng(0), 32, 2)
    theta = ch.metric_from_matrix(p.theta, gen.TOL)
    series = ch.metric_series(ch.PerturbationProblem.build(p.h0, theta, [p.w0], gen.TOL), 2)
    times = []
    for i in range(36):
        t0 = time.perf_counter()
        ch.dyson_from_metric(series, theta)
        if i >= 5:
            times.append((time.perf_counter() - t0) * 1e3)
    return {"dyson_from_metric_n32_ms_p50": statistics.median(times), "blas": blas_libraries()}


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit(root: Path):
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def record(root: Path, workload: str, seed: int, threading_note: dict) -> dict:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas": blas_libraries(),
        "git_commit": _git_commit(root),
        "source_digest": _source_digest(root),
        "threading_note": threading_note,
    }


def threading_note(run_py: Path, root: Path) -> dict:
    """dyson_from_metric at N = 32 in a child at default BLAS threads and
    in one pinned to a single thread (not gated)."""
    note = {}
    for mode in ("default", "pinned"):
        env = dict(os.environ)
        for k in BLAS_ENV:
            env.pop(k, None)
        proc = subprocess.run([sys.executable, str(run_py), "--blas-probe", mode],
                              capture_output=True, text=True, cwd=root, env=env, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"BLAS probe ({mode}) failed: {proc.stderr.strip()[-500:]}")
        note[mode] = json.loads(proc.stdout.splitlines()[-1])
    return note
