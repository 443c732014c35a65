#!/usr/bin/env python3
"""Benchmark this checkout against an earlier revision, in alternating pairs.

    python3 scripts/bench_pairs.py REV LABEL [--pairs N]

Exports REV with `git archive` into a temporary directory and runs
`python3 perfbench/run.py --workload W` there ("parent") and in this
checkout, working tree as it is ("change"), N pairs (default 10) for
each workload of BENCHMARK.json; the side that runs first alternates
from pair to pair.

Writes BENCH_<LABEL>.json at the root of this checkout: for each workload
the failed and attempted operations of each side and, for each end-to-end
metric of BENCHMARK.json, the median, first and third quartile of each
side, in how many pairs the change is better, whether that meets the rule
for claiming a gain and whether the change stays within the metric's
bound; then each side's env line (numpy and BLAS build, thread count,
...) and every run. A run that exits non-zero or prints no result is
recorded with its exit code and left out of the summary. Last it prints
that summary, one line per workload and metric. Sides whose `blas` or
OPENBLAS_NUM_THREADS differ are not compared: it stops, writes no file
and exits 1.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def export(rev: str, dest: Path) -> None:
    blob = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def run_once(root: Path, workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit_code": proc.returncode}
    last = json.loads(lines[-1])
    env = next((json.loads(line.split(" env ", 1)[1]) for line in lines
                if " env {" in line), {})
    return {"correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {name: round(m["value"], 4)
                        for name, m in last["metrics"].items()},
            "env": env}


def unlike(machine: dict) -> list[str]:
    """The BLAS settings, ``blas`` and ``OPENBLAS_NUM_THREADS``, in which
    the sides' envs in ``machine`` differ."""
    return [key for key in ("blas", "OPENBLAS_NUM_THREADS")
            if len({env.get(key) for env in machine.values()}) > 1]


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per side: correct runs and operations; per metric of ``metrics``
    (BENCHMARK.json's end_to_end entries): each side's spread, the pairs
    the change wins, whether a gain may be claimed (``gain_rule_met``: at
    least 9 in 10 pairs won and the change's median better than the
    parent's by more than the parent's q3 - q1) and whether the change's
    median is worse than the parent's by no more than the metric's
    relative ``bound`` (``within_bound``)."""
    pairs = {}
    for r in runs:
        if "metrics" in r:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    pairs = [p for p in pairs.values() if len(p) == 2]
    out = {"runs_correct": f"{sum(r.get('correct', False) for r in runs)}"
                           f"/{len(runs)}",
           "operations": {side: {key: sum(r.get(key, 0) for r in runs
                                          if r["side"] == side)
                                 for key in ("failed", "attempted")}
                          for side in ("parent", "change")}}
    if len(pairs) < 2:
        return out
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        sides = {side: [p[side][name] for p in pairs]
                 for side in ("parent", "change")}
        better = sum(sign * (c - p) > 0
                     for p, c in zip(sides["parent"], sides["change"]))
        parent, change = spread(sides["parent"]), spread(sides["change"])
        gain = sign * (change["median"] - parent["median"])
        out[name] = {
            "parent": parent, "change": change,
            "change_better_pairs": f"{better}/{len(pairs)}",
            "gain_rule_met": 10 * better >= 9 * len(pairs)
            and gain > parent["q3"] - parent["q1"],
            "within_bound": gain >= -m["bound"] * parent["median"]}
    return out


def summary_lines(summary: dict) -> list[str]:
    """One line per workload and metric of ``summary`` (``summarise``'s
    output by workload): each side's median [q1-q3], the pairs the change
    wins, ``gain_rule_met`` and ``within_bound``."""
    lines = []
    for workload, out in summary.items():
        for name, m in out.items():
            if not isinstance(m, dict) or "change_better_pairs" not in m:
                continue
            sides = ", ".join(
                f"{side} {m[side]['median']:g} "
                f"[{m[side]['q1']:g}-{m[side]['q3']:g}]"
                for side in ("parent", "change"))
            lines.append(f"{workload} {name}: {sides}, change better in "
                         f"{m['change_better_pairs']} pairs, gain_rule_met "
                         f"{m['gain_rule_met']}, within_bound "
                         f"{m['within_bound']}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("rev", help="git revision to compare against")
    ap.add_argument("label", help="names the output, BENCH_<label>.json")
    ap.add_argument("--pairs", type=int, default=10)
    ns = ap.parse_args()
    if ns.pairs < 2:
        ap.error("--pairs must be at least 2")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    runs, machine = [], {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = Path(tmp) / "parent"
        export(ns.rev, parent)
        sides = {"parent": parent, "change": ROOT}
        for workload in workloads:
            for pair in range(ns.pairs):
                order = ("parent", "change") if pair % 2 == 0 \
                    else ("change", "parent")
                for side in order:
                    result = run_once(sides[side], workload)
                    env = result.pop("env", {})
                    if env:
                        machine.setdefault(side, env)
                    runs.append({"workload": workload, "pair": pair,
                                 "side": side, **result})
                    shown = result.get("metrics", result)
                    print(f"{workload} pair {pair} {side}: "
                          f"{json.dumps(shown)}", flush=True)
                    if unlike(machine):
                        print(f"sides differ in {', '.join(unlike(machine))}"
                              f": {json.dumps(machine)}", file=sys.stderr)
                        return 1
    summary = {w: summarise([r for r in runs if r["workload"] == w],
                            bench["end_to_end"])
               for w in workloads}
    doc = {"what": f"{ns.label}: this checkout against {ns.rev}",
           "command": f"python3 scripts/bench_pairs.py {ns.rev} {ns.label} "
                      f"--pairs {ns.pairs}",
           "machine": machine, "summary": summary, "runs": runs}
    out = ROOT / f"BENCH_{ns.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"written {out}")
    for line in summary_lines(summary):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
