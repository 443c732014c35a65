#!/usr/bin/env python3
"""Benchmark this checkout against an earlier revision, in alternating pairs.

    python3 scripts/bench_pairs.py REV LABEL [--pairs N]

Exports REV with `git archive` into a temporary directory and runs
`python3 perfbench/run.py --workload W` there ("parent") and in this
checkout, working tree as it is ("change"), N pairs (default 10) for
each workload of BENCHMARK.json; the side that runs first alternates
from pair to pair.

Writes BENCH_<LABEL>.json at the root of this checkout: for each workload
and end-to-end metric of BENCHMARK.json, the median, first and third
quartile of each side and in how many pairs the change is better, then
every run. A run that exits non-zero or prints no result is recorded with
its exit code and left out of the summary.
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


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    pairs = {}
    for r in runs:
        if "metrics" in r:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    pairs = [p for p in pairs.values() if len(p) == 2]
    out = {"runs_correct": f"{sum(r.get('correct', False) for r in runs)}"
                           f"/{len(runs)}"}
    if len(pairs) < 2:
        return out
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        sides = {side: [p[side][name] for p in pairs]
                 for side in ("parent", "change")}
        better = sum((c > p) if higher else (c < p)
                     for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {"parent": spread(sides["parent"]),
                     "change": spread(sides["change"]),
                     "change_better_pairs": f"{better}/{len(pairs)}"}
    return out


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
                    machine = machine or env
                    runs.append({"workload": workload, "pair": pair,
                                 "side": side, **result})
                    shown = result.get("metrics", result)
                    print(f"{workload} pair {pair} {side}: "
                          f"{json.dumps(shown)}", flush=True)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
