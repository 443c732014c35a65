"""scripts/train_memory.py at tiny sizes: it runs and prints its six
lines."""

import os
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "train_memory.py"


def test_tiny_run_prints_the_three_points():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(SCRIPT), "--tiny", "--seed",
                           "1"], env=env, check=True, stdout=subprocess.PIPE,
                          text=True)
    mib = r"\d+\.\d MiB"
    # op and output shape, e.g. "lstm_run (892, 800)" or "add ()"
    node = r"([a-z_]+ \((\d+(, \d+)*)?\)|\(before the first node\))"
    assert re.fullmatch(
        rf"model {mib}, moments {mib} \(not counted below\)\n"
        rf"entry {mib}\npeak {mib} at {node}\nafter {mib}\n"
        rf"digest [0-9a-f]{{64}}\npeak RSS {mib}\n",
        proc.stdout), proc.stdout
