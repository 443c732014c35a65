"""The summary that scripts/bench_pairs.py writes: spreads, won pairs, the
rule for claiming a gain, the bound check and the operation counts."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "tok_s", "better": "higher", "bound": 0.25},
           {"name": "setup_s", "better": "lower", "bound": 0.25}]


def runs_of(parent: dict, change: dict, failed=(0, 0)) -> list[dict]:
    """Runs of alternating pairs; ``parent``/``change`` map each metric to
    its value per pair."""
    runs = []
    for pair in range(len(parent["tok_s"])):
        for side, values, bad in (("parent", parent, failed[0]),
                                  ("change", change, failed[1])):
            runs.append({"pair": pair, "side": side, "correct": True,
                         "attempted": 10, "failed": bad,
                         "metrics": {k: v[pair] for k, v in values.items()}})
    return runs


def test_a_clear_gain_meets_the_rule():
    parent = {"tok_s": [100 + i for i in range(10)], "setup_s": [1.0] * 10}
    change = {"tok_s": [130 + i for i in range(10)],
              "setup_s": [1.0 + 0.01 * i for i in range(10)]}
    out = bench_pairs.summarise(runs_of(parent, change, failed=(1, 0)),
                                METRICS)
    assert out["runs_correct"] == "20/20"
    assert out["operations"] == {"parent": {"failed": 10, "attempted": 100},
                                 "change": {"failed": 0, "attempted": 100}}
    tok = out["tok_s"]
    assert tok["parent"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
    assert tok["change_better_pairs"] == "10/10"
    assert tok["gain_rule_met"] is True and tok["within_bound"] is True
    setup = out["setup_s"]
    assert setup["change_better_pairs"] == "0/10"
    assert setup["gain_rule_met"] is False
    assert setup["within_bound"] is True  # 1.045 s vs 1.0 s, bound 25%


def test_eight_of_ten_pairs_is_no_gain():
    parent = {"tok_s": [100.0] * 10, "setup_s": [1.0] * 10}
    change = {"tok_s": [150.0] * 8 + [90.0] * 2, "setup_s": [1.0] * 10}
    tok = bench_pairs.summarise(runs_of(parent, change), METRICS)["tok_s"]
    assert tok["change_better_pairs"] == "8/10"
    assert tok["gain_rule_met"] is False


def test_a_gain_inside_the_parent_spread_is_no_gain():
    parent = {"tok_s": [80.0, 120.0] * 5, "setup_s": [1.0] * 10}
    change = {"tok_s": [81.0, 121.0] * 5, "setup_s": [1.0] * 10}
    tok = bench_pairs.summarise(runs_of(parent, change), METRICS)["tok_s"]
    assert tok["change_better_pairs"] == "10/10"
    assert tok["gain_rule_met"] is False


def test_bound_is_relative_to_the_parent_median_in_the_worse_direction():
    parent = {"tok_s": [100.0] * 10, "setup_s": [2.0] * 10}
    change = {"tok_s": [76.0] * 10, "setup_s": [2.6] * 10}
    out = bench_pairs.summarise(runs_of(parent, change), METRICS)
    assert out["tok_s"]["within_bound"] is True  # 24% slower
    assert out["setup_s"]["within_bound"] is False  # 30% slower
    change = {"tok_s": [74.0] * 10, "setup_s": [2.4] * 10}
    out = bench_pairs.summarise(runs_of(parent, change), METRICS)
    assert out["tok_s"]["within_bound"] is False
    assert out["setup_s"]["within_bound"] is True


def test_crashed_runs_are_left_out_of_the_pairs():
    parent = {"tok_s": [100.0] * 3, "setup_s": [1.0] * 3}
    runs = runs_of(parent, parent)
    runs[1] = {"pair": 0, "side": "change", "exit_code": 1}
    out = bench_pairs.summarise(runs, METRICS)
    assert out["runs_correct"] == "5/6"
    assert out["operations"]["change"] == {"failed": 0, "attempted": 20}
    assert out["tok_s"]["change_better_pairs"] == "0/2"


def test_summary_lines_give_each_metric_of_each_workload():
    parent = {"tok_s": [100 + i for i in range(10)], "setup_s": [1.0] * 10}
    change = {"tok_s": [130 + i for i in range(10)], "setup_s": [1.3] * 10}
    summary = {"paper-train": bench_pairs.summarise(runs_of(parent, change),
                                                    METRICS),
               "paper-tag": bench_pairs.summarise(
                   runs_of(parent, change)[:2], METRICS)}
    lines = bench_pairs.summary_lines(summary)
    assert lines == [
        "paper-train tok_s: parent 104.5 [102.25-106.75], change 134.5 "
        "[132.25-136.75], change better in 10/10 pairs, gain_rule_met True, "
        "within_bound True",
        "paper-train setup_s: parent 1 [1-1], change 1.3 [1.3-1.3], change "
        "better in 0/10 pairs, gain_rule_met False, within_bound False"]
