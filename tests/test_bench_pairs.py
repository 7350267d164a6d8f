import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPEC = {"end_to_end": [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.15},
]}


def run(throughput, latency):
    return {"rc": 0, "metrics": {"throughput_per_s": throughput, "latency_ms_p50": latency}}


def test_quartiles_match_numpy_percentile():
    rng = np.random.default_rng(0)
    for size in (2, 5, 10, 11):
        values = list(rng.standard_normal(size))
        assert np.allclose(bench_pairs.quartiles(values), np.percentile(values, [25, 50, 75]))


def test_summarize_counts_wins_by_direction_and_skips_failed_runs():
    pairs = [
        {"parent": run(100.0, 3.0), "change": run(120.0, 2.0)},
        {"parent": run(110.0, 3.0), "change": run(105.0, 3.5)},
        {"parent": run(90.0, 3.0), "change": run(130.0, 3.0)},
        {"parent": {"rc": 3}, "change": run(1e9, 0.0)},
    ]
    out = bench_pairs.summarize(pairs, SPEC)
    tp, lat = out["throughput_per_s"], out["latency_ms_p50"]
    assert tp["pairs"] == lat["pairs"] == 3
    assert tp["wins"] == 2  # higher is better
    assert lat["wins"] == 1  # lower is better; a tie counts for neither side
    assert tp["parent_median"] == 100.0 and tp["change_median"] == 120.0
    assert np.isclose(tp["delta_rel"], 0.2)
    assert np.isclose(tp["gap_over_parent_iqr"], 20.0 / 10.0)


def test_markdown_table_rows():
    pairs = [
        {"parent": run(100.0, 3.0), "change": run(120.0, 2.0)},
        {"parent": run(110.0, 3.0), "change": run(105.0, 3.5)},
        {"parent": run(90.0, 3.0), "change": run(130.0, 3.0)},
    ]
    rows = bench_pairs.markdown_table("pipeline", bench_pairs.summarize(pairs, SPEC))
    assert rows[0].count("|") == rows[1].count("|") == 8
    assert rows[2] == ("| pipeline | throughput_per_s (1/s) | 100 [95, 105] | 120 [112.5, 125] "
                       "| +20.0% | 2/3 | 2.0× |")
    # a zero parent IQR leaves the gap undefined
    assert rows[3] == "| pipeline | latency_ms_p50 (ms) | 3 [3, 3] | 3 [2.5, 3.25] | +0.0% | 1/3 | – |"


def test_markdown_table_without_successful_pairs():
    pairs = [{"parent": {"rc": 3}, "change": run(1.0, 1.0)}]
    rows = bench_pairs.markdown_table("cli", bench_pairs.summarize(pairs, SPEC))
    assert rows[2] == "| cli | throughput_per_s (1/s) | – | – | – | 0/0 | – |"
