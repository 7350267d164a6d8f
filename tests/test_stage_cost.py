import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(*argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_cost.py"), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    return proc.stdout


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


def test_one_round_by_size_prints_a_table_per_n_with_lapack_shares():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "stage_cost.py"),
                           "--seed", "0", "--repeats", "1", "--by-size"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    tables = proc.stdout.strip().split("\n\n")
    sizes = [int(t.split(":")[0].removeprefix("N = ")) for t in tables]
    assert sizes == sorted(set(sizes)) and sizes[0] == 2 and sizes[-1] == 64
    for table in tables:
        rows = [line.split("|") for line in table.splitlines()[3:]]
        names = [r[1].strip().strip("`") for r in rows]
        assert names[0] == "diagonalize" and names[-1] == "total"
        ms = [float(r[2]) for r in rows]
        shares = [float(r[3].strip().rstrip("%")) for r in rows]
        assert abs(sum(ms[:-1]) - ms[-1]) <= 0.01 * len(ms)
        assert all(0.0 <= x <= 100.0 for x in shares)
        # diagonalize spends part of its time in LAPACK; MetricFamily none
        assert shares[0] > 0.0 and shares[names.index("MetricFamily")] == 0.0


def test_by_size_counts_each_calls_function_calls_per_problem_alike_on_two_copies():
    # two copies of one tree make the same calls, so every count agrees
    tables = _run("--src", "src", "src", "--seed", "0", "--repeats", "1",
                  "--by-size").strip().split("\n\n")
    assert len(tables) == 6
    for table in tables:
        assert "function calls per problem" in table.splitlines()[0]
        rows = [line.split("|") for line in table.splitlines()[3:]]
        first, second = [[float(r[col]) for r in rows] for col in (4, 7)]
        assert first == second
        assert all(x >= 1.0 for x in first)
        assert abs(sum(first[:-1]) - first[-1]) <= 0.1 * len(first)


def test_counted_adds_the_calls_cprofile_sees_inside_each_call():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import stage_cost
    finally:
        sys.path.remove(str(ROOT / "tools"))

    def two_lens(xs):
        return len(xs) + len(xs)

    class Target:
        twice = staticmethod(two_lens)

    spent = {}
    counted = stage_cost.Counted(Target(), "", spent)
    assert counted.twice([1, 2]) == 4 and counted.twice([]) == 0
    # each call: two_lens itself and its two len calls, not the profiler's disable
    assert spent == {"twice": 6}
