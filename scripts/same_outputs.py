#!/usr/bin/env python3
"""Check that this checkout writes the same files as an earlier revision.

    python3 scripts/same_outputs.py REV

Exports REV with `git archive` into a temporary directory and writes a
synthetic corpus there (scripts/generate_synthetic.py, the complementary
corpus of 120 training and 40 dev sentences) and a vectors file of 8
fixed values for each of the first 20 training forms. Then, in REV's tree
and in this checkout (working tree as it is), each with
OPENBLAS_NUM_THREADS=1, it runs the command line:

* `train` with the sentence and the token character encoder, each in
  separate and in joint optimization (2-layer encoders, 3 epochs),
  writing the `--log` file and the checkpoint, then `tag` of the dev
  corpus with each checkpoint;
* `train` without `--dev`, at the same settings, writing held-out.log
  and held-out.ckpt: the only run that holds out part of the training
  corpus as its dev corpus (`data.dev_split`);
* `eval --csv` of the first tagged file against the dev corpus;
* `grid --sizes 8:16:8`, four cells at the same settings;
* `ablate` on each axis (`components`, `context`, `gather` and
  `optimization`), 2 seeds each: only `gather` runs the non-default
  gather strategies end to end;
* `train --task upos` and `train --task feats` on
  tests/fixtures/tiny.conllu as both training and dev corpus, at the same
  settings, then `tag` of that file with each checkpoint: the synthetic
  corpus leaves the UPOS and FEATS columns `_`;
* `eval --task feats --csv` of tests/fixtures/scorer/pair3_gold.conllu
  against pair3_pred.conllu, whose FEATS differ only in pair order;
* that tree's `scripts/run_experiments.py all --seeds 2`, whose output,
  less its `== name (N seeds, Ts) ==` timing lines, is the file
  studies.txt;
* that tree's `scripts/train_memory.py --seed 3`, whose `digest` line,
  the SHA-256 of the parameters, Adam moments and losses after one
  paper-scale batch, is the file train-memory-digest.txt. It is the only
  output compared bit for bit for the Adam moments, and the only one run
  at sizes where the `nn` worker takes LSTM directions and Adam halves.

`grid` and `ablate` read the vectors file (`--pretrained`), so the path
from that file to each cell's or variant's model is compared too.

It prints the numpy and BLAS build, this interpreter's and so both
sides', and the OPENBLAS_NUM_THREADS each side ran with, then `same` or
`DIFF` for each of the 29 files, and exits 0 if all are equal, 1 if any
differs and 2 if a run fails.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, export

SETTINGS = [f"--set={kv}" for kv in (
    "max_epochs=3", "batch_size=8", "char_bilstm_layers=2",
    "word_bilstm_layers=2", "meta_bilstm_layers=1", "char_bilstm_size=16",
    "word_bilstm_size=16", "meta_bilstm_size=16", "mlp_size=16",
    "char_emb_dim=8", "word_emb_dim=8", "learning_rate=0.01",
    "mlp_init=scaled", "char_emb_init=scaled")]
RUNS = [f"{encoder}-{schedule}" for encoder in ("sentence", "token")
        for schedule in ("separate", "joint")]
AXES = ("components", "context", "gather", "optimization")
COLUMN_TASKS = ("upos", "feats")  # trained on the fixture below
FIXTURES = ROOT / "tests" / "fixtures"
OUTPUTS = [f"{run}.{ext}" for run in RUNS + list(COLUMN_TASKS)
           for ext in ("log", "ckpt", "conllu")] \
    + ["held-out.log", "held-out.ckpt", "eval.csv", "grid.csv"] \
    + [f"ablate-{axis}.csv" for axis in AXES] + ["eval-feats.csv"]
STUDIES = "studies.txt"  # written from run_experiments.py's output
DIGEST = "train-memory-digest.txt"  # train_memory.py's digest line


def write_vectors(train: Path, path: Path, n_forms: int = 20,
                  dim: int = 8) -> None:
    """A vectors file for the first ``n_forms`` distinct forms of the
    CoNLL-U file ``train``: ``dim`` fixed values each, in (-1, 1)."""
    forms = []
    for line in train.read_text(encoding="utf-8").splitlines():
        cols = line.split("\t")
        if len(cols) == 10 and cols[0].isdigit() and cols[1] not in forms:
            forms.append(cols[1])
    path.write_text("".join(
        form + "".join(f" {((7 * i + 3 * j) % 19 - 9) / 10:g}"
                       for j in range(dim)) + "\n"
        for i, form in enumerate(forms[:n_forms])), encoding="utf-8")


def commands(train: Path, dev: Path, vectors: Path) -> list[list[str]]:
    """The command-line runs that write ``OUTPUTS`` into the directory
    they run in; ``grid`` and ``ablate`` read the ``vectors`` file."""
    corpus = ["--train", str(train), "--dev", str(dev), *SETTINGS]
    with_vectors = [*corpus, "--pretrained", str(vectors)]
    out = []
    for run in RUNS:
        encoder, schedule = run.split("-")
        out.append(["train", *corpus, f"--set=char_encoder={encoder}",
                    "--optimization", schedule, "--checkpoint", f"{run}.ckpt",
                    "--log", f"{run}.log"])
        out.append(["tag", "--checkpoint", f"{run}.ckpt", "--input",
                    str(dev), "--output", f"{run}.conllu"])
    out.append(["train", "--train", str(train), *SETTINGS,
                "--checkpoint", "held-out.ckpt", "--log", "held-out.log"])
    out.append(["eval", "--gold", str(dev), "--pred", f"{RUNS[0]}.conllu",
                "--csv", "eval.csv"])
    out.append(["grid", "--sizes", "8:16:8", *with_vectors,
                "--out", "grid.csv"])
    for axis in AXES:
        out.append(["ablate", "--axis", axis, "--seeds", "2", *with_vectors,
                    "--out", f"ablate-{axis}.csv"])
    tiny = str(FIXTURES / "tiny.conllu")
    for task in COLUMN_TASKS:
        out.append(["train", "--train", tiny, "--dev", tiny, *SETTINGS,
                    "--task", task, "--checkpoint", f"{task}.ckpt",
                    "--log", f"{task}.log"])
        out.append(["tag", "--checkpoint", f"{task}.ckpt", "--input", tiny,
                    "--output", f"{task}.conllu"])
    pair = [str(FIXTURES / "scorer" / f"pair3_{side}.conllu")
            for side in ("gold", "pred")]
    out.append(["eval", "--task", "feats", "--gold", pair[0],
                "--pred", pair[1], "--csv", "eval-feats.csv"])
    return out


def without_timings(text: str) -> str:
    """run_experiments.py's output less its ``== name (N seeds, Ts) ==``
    lines, the only ones that vary between equal runs."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("== "))


def digest_line(text: str) -> str:
    """train_memory.py's ``digest`` line, the only one that does not vary
    between equal runs; empty if it printed none."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if line.startswith("digest "))


def blas_build() -> str:
    """numpy's version and BLAS build, read as perfbench/workloads.py's
    ``environment`` reads them."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return f"numpy {np.__version__}, BLAS unknown"


def run_side(tree: Path, cmds: list[list[str]], out: Path) -> str:
    """Run ``cmds`` and then the studies and memory scripts of ``tree``
    with its package, in ``out``; the OPENBLAS_NUM_THREADS they ran
    with."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               OPENBLAS_NUM_THREADS="1")
    env.pop("METATAGGER_SEED", None)
    for cmd in cmds:
        subprocess.run([sys.executable, "-m", "metatagger.cli", *cmd],
                       cwd=out, env=env, check=True,
                       stdout=subprocess.DEVNULL)
    studies = subprocess.run(
        [sys.executable, str(tree / "scripts" / "run_experiments.py"), "all",
         "--seeds", "2"], cwd=out, env=env, check=True,
        stdout=subprocess.PIPE, text=True).stdout
    (out / STUDIES).write_text(without_timings(studies), encoding="utf-8")
    memory = subprocess.run(
        [sys.executable, str(tree / "scripts" / "train_memory.py"),
         "--seed", "3"], cwd=out, env=env, check=True,
        stdout=subprocess.PIPE, text=True).stdout
    (out / DIGEST).write_text(digest_line(memory), encoding="utf-8")
    return env["OPENBLAS_NUM_THREADS"]


def compare(parent: Path, change: Path, names) -> dict[str, bool]:
    """Whether each named file is byte-equal in the two directories; a file
    missing on either side is not."""
    return {name: (parent / name).is_file() and (change / name).is_file()
            and filecmp.cmp(parent / name, change / name, shallow=False)
            for name in names}


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("rev", help="git revision to compare against")
    ns = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        export(ns.rev, tmp / "parent")
        subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "generate_synthetic.py"),
             str(tmp / "corpus"), "--n-train", "120", "--n-dev", "40"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True,
            stdout=subprocess.DEVNULL)
        train = tmp / "corpus" / "complementary_train.conllu"
        write_vectors(train, tmp / "corpus" / "vectors.txt")
        cmds = commands(train, tmp / "corpus" / "complementary_dev.conllu",
                        tmp / "corpus" / "vectors.txt")
        threads = {}
        for side, tree in (("parent", tmp / "parent"), ("change", ROOT)):
            try:
                threads[side] = run_side(tree, cmds, tmp / f"{side}-out")
            except subprocess.CalledProcessError as e:
                what = f"metatagger {e.cmd[3]}" if e.cmd[1] == "-m" \
                    else Path(e.cmd[1]).name
                print(f"{side}: {what} exited {e.returncode}",
                      file=sys.stderr)
                return 2
        same = compare(tmp / "parent-out", tmp / "change-out",
                       OUTPUTS + [STUDIES, DIGEST])
    print(f"{blas_build()}; OPENBLAS_NUM_THREADS parent "
          f"{threads['parent']}, change {threads['change']}")
    for name, equal in same.items():
        print(f"{'same' if equal else 'DIFF'} {name}")
    return 0 if all(same.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
