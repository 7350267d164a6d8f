import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_round_prints_every_pipeline_call():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_cost.py"),
                           "--seed", "0", "--repeats", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    rows = [line.split("|") for line in proc.stdout.splitlines()[3:]]
    names = [r[1].strip().strip("`") for r in rows]
    # the calls come from the benchmark's own Pipeline.run, in its order
    assert names[0] == "diagonalize" and names[-1] == "total"
    assert {"PerturbationProblem.build", "leading_delta", "series_vs_exact"} <= set(names)
    assert len(set(names)) == len(names) >= 10
    ms = [float(r[2]) for r in rows]
    assert all(x >= 0.0 for x in ms) and ms[-1] > 0.0
    assert abs(sum(ms[:-1]) - ms[-1]) <= 0.01 * len(ms)
