"""Tests of the benchmark itself: run them with

    python3 -m pytest perfbench/tests

The run tests start perfbench/run.py at tiny sizes (--tiny), for about a
second each.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads
from metrics import (BENCHMARKED, END_TO_END, EXACT_COUNTS, PER_LAYER,
                     WORKLOADS)
from metatagger import data, training

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_metrics_the_code_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert isinstance(doc["run_seconds"], int)
    assert 1 <= doc["run_seconds"] <= 60
    assert [w["name"] for w in doc["workloads"]] == list(BENCHMARKED)
    assert set(BENCHMARKED) <= set(WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in doc["workloads"])
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == list(PER_LAYER)
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds",
                     "0.5", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = (END_TO_END if trace == 0
                else {name: unit for name, unit, _ in PER_LAYER})
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and math.isfinite(m["value"])
        assert re.search(rf"{re.escape(name)}\b.* {re.escape(m['unit'])}$",
                         proc.stdout, re.M), name
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert '"OPENBLAS_NUM_THREADS": "1"' in proc.stdout
    assert "loadavg_end" in proc.stdout


def test_traced_counts_repeat_for_the_same_seed():
    counts = []
    for _ in range(2):
        proc = run_bench("--workload", "desk-train", "--seed", "5",
                         "--seconds", "0.5", "--trace", "1", "--tiny")
        assert proc.returncode == 0, proc.stderr
        metrics = last_json(proc.stdout)["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items()
                       if k.rsplit(".", 1)[0] in EXACT_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["nn.lstm_run.calls.char"] > 0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "desk-train", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ---------------------------------------------------------------------------
# output checks

def test_nonfinite_counts_nan_and_infinite_losses():
    assert checks.nonfinite([0.5, 1.2]) == 0
    assert checks.nonfinite([0.5, float("nan"), float("inf")]) == 2


@pytest.fixture
def tagged():
    size = workloads.TINY["paper-tag"]
    text, n_sentences, _ = workloads.tag_input(7, size)
    sentences = data.parse_conllu(text)
    tags = [["KA"] * len(s.tokens) for s in sentences]
    return text, data.write_conllu(sentences, tags, task="xpos"), n_sentences


def test_tagged_output_accepts_a_faithful_rewrite(tagged):
    text, out, _ = tagged
    assert checks.tagged_output(text, out, {"KA", "TU"}, "xpos") == (0, [])


def _break_line(out: str, pick, change) -> str:
    lines = out.split("\n")
    i = next(k for k, line in enumerate(lines) if pick(line))
    lines[i:i + 1] = change(lines[i])
    return "\n".join(lines)


def _token_line(line):
    return line[:1].isdigit()


@pytest.mark.parametrize("breakage", [
    lambda out: _break_line(out, _token_line, lambda line: []),
    lambda out: _break_line(out, lambda l: l.startswith("#"),
                            lambda line: [line + " "]),
    lambda out: _break_line(out, _token_line,
                            lambda line: [line.replace("\t_\t", "\tX\t", 1)]),
    lambda out: _break_line(out, _token_line,
                            lambda line: [line.replace("KA", "ZZ", 1)]),
    lambda out: out.rsplit("\n\n", 2)[0] + "\n",
], ids=["dropped-token", "comment-changed", "other-column-changed",
        "unknown-tag", "dropped-sentence"])
def test_tagged_output_rejects_a_broken_rewrite(tagged, breakage):
    text, out, _ = tagged
    bad, problems = checks.tagged_output(text, breakage(out), {"KA", "TU"},
                                         "xpos")
    assert bad >= 1 and problems


def test_repetitions_must_agree():
    out = workloads.Outcome()
    out.repeatable([0.5, 0.25], "losses")
    out.repeatable([0.5, 0.25], "losses")
    assert out.problems == []
    out.repeatable([0.5, 0.26], "losses")
    assert out.problems == ["losses differs from the first one"]


def test_nan_loss_counts_failed_batches_and_the_run_goes_on(monkeypatch):
    prepare = training.prepare

    def poisoned(*args, **kwargs):
        model, train, dev = prepare(*args, **kwargs)
        model.char_sent.char_table.data[:] = float("nan")
        return model, train, dev

    monkeypatch.setattr(training, "prepare", poisoned)
    out = workloads.Outcome()
    workloads.train_workload(workloads.TINY["desk-train"], 1, 0.2, None, out)
    assert out.failed >= 2 and out.failed <= out.attempted
    assert any("NonFiniteError" in p for p in out.problems)
    assert "tok_s" not in out.samples


def test_dev_accuracy_below_the_floor_fails_the_evaluation():
    size = workloads.TINY["desk-train"]
    strict = workloads.TrainSize(size.config, size.n_train, size.n_dev,
                                 1.01, 0)
    out = workloads.Outcome()
    workloads.train_workload(strict, 1, 0.2, None, out)
    assert out.failed >= 2 * size.n_dev
    assert any("outside [1.01, 1]" in p for p in out.problems)
