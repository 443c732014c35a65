#!/usr/bin/env python3
"""The metatagger benchmark: one command for every workload.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the root of a checkout. Each workload runs in its own process
(perfbench/workloads.py) with OPENBLAS_NUM_THREADS=1. Without --workload
all three run in turn. For each workload the command prints one line per
metric, one line describing the environment, and then, as the last line,
a JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload
twice, untraced and then traced, and reports the per-layer metrics of the
traced run, the pass throughputs of the untraced one and the tracing
overhead (traced minus untraced); it writes the spans under .bench_build/.
Without --workload the last line gathers every workload's metrics under
"<workload>/<metric>".
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from metrics import ALIASES, END_TO_END, PASS_TOK_S, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "workloads.py"
SPANS_DIR = ROOT / ".bench_build" / "perfbench"
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def _child(workload, seed, seconds, tiny, spans, deadline) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: no time left to start a run")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: run killed after {timeout:.0f} s") \
            from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, tiny, deadline):
    """Result of one workload (the four keys of the last line, plus env),
    and the untraced pass throughputs, which --trace 0 prints as lines."""
    plain = _child(workload, seed, seconds, tiny, None, deadline)
    runs = [plain]
    if not trace:
        metrics = {name: (plain["metrics"].get(name, 0.0), unit)
                   for name, unit in END_TO_END.items()}
    else:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        spans = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
        traced = _child(workload, seed, seconds, tiny, spans, deadline)
        runs.append(traced)
        metrics = {}
        for name, unit, _ in PER_LAYER:
            if name.startswith("trace.overhead."):
                base = name[len("trace.overhead."):]
                value = (traced["metrics"].get(base, 0.0)
                         - plain["metrics"].get(base, 0.0))
            elif name in PASS_TOK_S:
                value = plain["metrics"].get(name, 0.0)
            else:
                value = traced["metrics"].get(name, 0.0)
            metrics[name] = (value, unit)
        print(f"{workload:<12} spans written to {spans}")
    passes = {name: plain["metrics"][name] for name in PASS_TOK_S
              if name in plain["metrics"] and not trace}
    return {"correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
            "env": plain["env"]}, passes


def report(workload: str, result: dict, passes: dict) -> None:
    aliases = ALIASES[workload]
    for name, m in result["metrics"].items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"{workload:<12} {label:<44} {m['value']:>14.6g} {m['unit']}")
    for name, value in passes.items():
        print(f"{workload:<12} {name:<44} {value:>14.6g} tok/s")
    print(f"{workload:<12} ops attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']}")
    print(f"{workload:<12} env {json.dumps(result['env'])}")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every size (for the benchmark's tests)")
    ns = ap.parse_args()
    if not (ROOT / "src" / "metatagger" / "__init__.py").is_file():
        print(f"perfbench: no metatagger sources under {ROOT / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    names = [ns.workload] if ns.workload else list(WORKLOADS)
    results = {}
    for workload in names:
        load_start = os.getloadavg()
        try:
            result, passes = run_workload(
                workload, ns.seed, ns.seconds, ns.trace, ns.tiny,
                time.monotonic() + DEADLINE_S)
        except BenchError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 1
        result["env"].update(loadavg_start=load_start,
                             loadavg_end=os.getloadavg())
        report(workload, result, passes)
        results[workload] = result
    if ns.workload:
        last = results[ns.workload]
    else:
        last = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{name}": m for w, r in results.items()
                            for name, m in r["metrics"].items()}}
    print(json.dumps({key: last[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
