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
    assert rows[0].count("|") == rows[1].count("|") == 10
    assert rows[2] == ("| pipeline | throughput_per_s (1/s) | 100 [95, 105] | 120 [112.5, 125] "
                       "| +20.0% | 2/3 | 2.0× | no | no |")
    # a zero parent IQR leaves the gap undefined
    assert rows[3] == ("| pipeline | latency_ms_p50 (ms) | 3 [3, 3] | 3 [2.5, 3.25] | +0.0% "
                       "| 1/3 | – | no | no |")


def test_markdown_table_without_successful_pairs():
    pairs = [{"parent": {"rc": 3}, "change": run(1.0, 1.0)}]
    rows = bench_pairs.markdown_table("cli", bench_pairs.summarize(pairs, SPEC))
    assert rows[2] == "| cli | throughput_per_s (1/s) | – | – | – | 0/0 | – | – | – |"


def verdicts(parent, change):
    """(worse_beyond_bound, gain_holds) of both metrics, given per-pair
    (throughput, latency) values."""
    pairs = [{"parent": run(*p), "change": run(*c)} for p, c in zip(parent, change)]
    out = bench_pairs.summarize(pairs, SPEC)
    return [(out[m]["worse_beyond_bound"], out[m]["gain_holds"])
            for m in ("throughput_per_s", "latency_ms_p50")]


def test_worse_beyond_bound_is_relative_to_the_parent_median_in_the_worse_direction():
    parent = [(100.0, 10.0)] * 4
    # bounds are 0.15: throughput 84 and latency 11.6 are worse by 16%
    assert verdicts(parent, [(84.0, 11.6)] * 4) == [(True, False), (True, False)]
    assert verdicts(parent, [(86.0, 11.4)] * 4) == [(False, False), (False, False)]
    # far better is never worse
    assert verdicts(parent, [(1e3, 0.1)] * 4) == [(False, True), (False, True)]
    # a zero parent median: any worse change exceeds the bound
    assert verdicts([(0.0, 0.0)] * 4, [(0.0, 1e-9)] * 4) == [(False, False), (True, False)]


def test_gain_rule_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_parent_iqr():
    parent = [(100.0 + i, 10.0 - 0.1 * i) for i in range(10)]  # IQR 4.5 and 0.45
    # 9 of 10 wins and a median gap of 5 (over 4.5) and 0.5 (over 0.45)
    nine = [(106.0 + i, 9.4 - 0.1 * i) for i in range(9)] + [(108.0, 9.2)]
    assert verdicts(parent, nine) == [(False, True), (False, True)]
    # the same wins with a median gap of 4 and 0.4, below the parent IQR
    small = [(105.0 + i, 9.5 - 0.1 * i) for i in range(9)] + [(108.0, 9.2)]
    assert verdicts(parent, small) == [(False, False), (False, False)]
    # two ties leave 8 wins of 10, however large the gap
    tied = [(1e3, 0.1)] * 8 + parent[8:]
    assert verdicts(parent, tied) == [(False, False), (False, False)]


def test_gain_rule_with_a_zero_parent_iqr():
    parent = [(100.0, 10.0)] * 10
    # any gap in the better direction exceeds a zero IQR
    assert verdicts(parent, [(100.5, 9.99)] * 10) == [(False, True), (False, True)]
    # all ties: no win and no gap
    assert verdicts(parent, parent) == [(False, False), (False, False)]


def counted(rc, failed, attempted):
    return {"rc": rc, "failed": failed, "attempted": attempted}


def test_failed_share_sums_runs_with_a_result_and_flags_a_larger_change_share():
    pairs = [
        {"parent": counted(0, 34, 646), "change": counted(0, 46, 874)},
        {"parent": counted(0, 0, 354), "change": counted(0, 0, 126)},
        # a run without a result has no op counts and is left out
        {"parent": {"rc": 3}, "change": counted(0, 0, 0)},
    ]
    shares = bench_pairs.failed_share(pairs)
    assert shares["parent"] == {"failed": 34, "attempted": 1000, "share": 0.034}
    assert shares["change"] == {"failed": 46, "attempted": 1000, "share": 0.046}
    assert shares["more_failed"]
    assert bench_pairs.failed_row("scan", shares) == (
        "| scan | failed-op share | 3.40% (34/1000) | 4.60% (46/1000) | +1.20 pp | – | – "
        "| yes | – |")
    # equal shares, and a smaller change share, are not more failed
    equal = [{"parent": counted(0, 1, 10), "change": counted(0, 2, 20)}]
    fewer = [{"parent": counted(0, 1, 10), "change": counted(0, 0, 10)}]
    assert not bench_pairs.failed_share(equal)["more_failed"]
    assert not bench_pairs.failed_share(fewer)["more_failed"]
    # no attempted ops on either side: both shares are 0
    none = bench_pairs.failed_share([{"parent": {"rc": 3}, "change": {"rc": 3}}])
    assert none["parent"]["share"] == none["change"]["share"] == 0.0
    assert not none["more_failed"]
