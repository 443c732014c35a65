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


def test_unlike_names_each_blas_setting_the_sides_differ_in():
    env = {"blas": "scipy-openblas 0.3.31", "OPENBLAS_NUM_THREADS": "1",
           "nproc": 2}
    assert bench_pairs.unlike({"parent": env}) == []
    assert bench_pairs.unlike({"parent": env,
                               "change": dict(env, nproc=4)}) == []
    assert bench_pairs.unlike({"parent": env, "change": dict(
        env, OPENBLAS_NUM_THREADS="2")}) == ["OPENBLAS_NUM_THREADS"]
    assert bench_pairs.unlike({"parent": env, "change": {}}) == [
        "blas", "OPENBLAS_NUM_THREADS"]


def run_main(monkeypatch, tmp_path, threads: dict) -> int:
    """``bench_pairs.main`` over 2 pairs of stand-in runs at ``tmp_path``,
    whose env gives each side the OPENBLAS_NUM_THREADS of ``threads``."""
    (tmp_path / "BENCHMARK.json").write_text(
        (bench_pairs.ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)

    def run_once(root, workload):
        side = "change" if root == tmp_path else "parent"
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"tok_s": 100.0, "fwd_tok_s": 100.0,
                            "setup_s": 1.0, "peak_rss_mb": 500.0},
                "env": {"blas": "openblas", "side": side,
                        "OPENBLAS_NUM_THREADS": threads[side]}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs.sys, "argv",
                        ["bench_pairs.py", "HEAD", "probe", "--pairs", "2"])
    return bench_pairs.main()


def test_the_file_holds_each_sides_env(monkeypatch, tmp_path):
    import json
    assert run_main(monkeypatch, tmp_path,
                    {"parent": "1", "change": "1"}) == 0
    doc = json.loads((tmp_path / "BENCH_probe.json").read_text())
    assert {side: env["side"] for side, env in doc["machine"].items()} \
        == {"parent": "parent", "change": "change"}


def test_sides_at_other_blas_threads_write_no_file(monkeypatch, tmp_path,
                                                   capsys):
    assert run_main(monkeypatch, tmp_path,
                    {"parent": "1", "change": "2"}) == 1
    assert not (tmp_path / "BENCH_probe.json").exists()
    assert capsys.readouterr().err.startswith(
        "sides differ in OPENBLAS_NUM_THREADS: ")
