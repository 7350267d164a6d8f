import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_round_prints_the_point_and_probe_tables():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "point_cost.py"),
                           "--sizes", "2", "4", "--repeats", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    points, probes = (block.splitlines() for block in proc.stdout.split("\n\n"))
    assert points[0].startswith("| N | src | µs per point |")
    assert probes[0] == "| N | src | µs per lambda_max | probes | µs per probe | eigvals | rest |"
    rows = [[c.strip() for c in line.split("|")[1:-1]] for line in probes[2:]]
    assert [r[0] for r in rows] == ["2", "4"] and len(points) == 4
    for n, _, call, count, per_probe, eigvals, rest in rows:
        # at least both bracket ends; the split adds up to the probe's cost
        assert int(count) >= 2 and float(call) > 0.0
        assert abs(float(eigvals) + float(rest) - float(per_probe)) <= 0.2
